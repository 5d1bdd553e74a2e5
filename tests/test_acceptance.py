"""The bundled acceptance checks, one pass/fail line per check.

This is the same battery `multiarr verify-paper` runs; executing it
through pytest keeps the CLI report and the test suite in lockstep.
The full battery recomputes every certificate from scratch, so this
module is the slowest in the suite: about 19 s of its 42 s on a 2-core
Xeon.
"""

from __future__ import annotations

import pytest

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
