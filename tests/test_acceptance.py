"""The bundled acceptance checks, one pass/fail line per check.

This is the same battery `multiarr verify-paper` runs; executing it
through pytest keeps the CLI report and the test suite in lockstep.
The full battery recomputes every certificate from scratch, so this
module is the slowest in the suite: about 11 s of its 34 s on a 2-core
Xeon.
"""

from __future__ import annotations

import pytest

from multiarr import verification
from multiarr.verification import _CHECKS, run_all


@pytest.fixture(scope="module")
def results() -> dict:
    return {r.check: r for r in run_all()}


@pytest.mark.parametrize(
    "check_id", [num for num, _name, _fn in _CHECKS], ids=[f"{num}_{name}" for num, name, _fn in _CHECKS]
)
def test_acceptance_check(check_id: str, results: dict) -> None:
    result = results[check_id]
    assert result.passed, f"check {result.check} ({result.name}) failed: {result.detail}"


def test_tables_check_tests_b2_on_every_replay(monkeypatch) -> None:
    # a b2 off by one must fail check 4 on each replay, naming both sides;
    # one fixture and one frozen table keep the run short
    true_b2 = verification.local_b2
    monkeypatch.setattr(verification, "local_b2", lambda m: true_b2(m) + 1)
    monkeypatch.setattr(verification, "TABLE_EXPONENTS", {"g33_a2_kappa": (7, 9, 11)})
    monkeypatch.setattr(verification, "shipped_table_names", lambda: ("g33_a2_kappa",))
    result = verification.run_check("4")
    assert not result.passed
    assert result.detail.split("; ") == [
        "g33_a2_kappa: certificate: b2 = 240 != e2 = 239 of (7, 9, 11)",
        "simple A:2:4:4: certificate: b2 = 87 != e2 = 86 of (1, 3, 5, 7)",
        "table g33_a2_kappa: b2 = 240 != e2 = 239 of (7, 9, 11)",
    ]
