"""The record contract: immutable values with a dataclass-style repr.

Every record of the package is a ``NamedTuple`` (``IntermediateSpec``
one that validates its parameters), apart from ``Arrangement``, which
keeps its hash from construction.  Each prints as
``Name(field=value, ...)`` with its fields in declaration order.
"""

from __future__ import annotations

import pytest

from multiarr.arrangement import (
    Arrangement,
    hyperplane_flat,
    restriction,
    simple_multi,
    ziegler_multiplicity,
)
from multiarr.catalog import IntermediateSpec, format_fixture, intermediate, parse_fixture, shipped_fixture
from multiarr.induction import (
    additive_refuter,
    hereditarily_inductively_free,
    is_inductively_free,
    localization_obstruction,
)
from multiarr.rank2 import rank2_exponents
from multiarr.scalars import Scalar
from multiarr.verification import CheckResult


def _a333() -> Arrangement:
    return intermediate(IntermediateSpec(3, 3, 0))


def _rank2_result():
    return rank2_exponents(ziegler_multiplicity(_a333(), 0))


# (record built through the public API, its field names in declaration order)
RECORDS = {
    "LinearForm": (lambda: _a333().hyperplanes[3], ("coeffs",)),
    "Arrangement": (_a333, ("dim", "zeta_order", "hyperplanes", "labels")),
    "Flat": (lambda: hyperplane_flat(_a333(), 0), ("closed", "rank", "equations", "pivots")),
    "Restriction": (lambda: restriction(_a333(), hyperplane_flat(_a333(), 0)), ("arrangement", "trace", "groups")),
    "MultiArrangement": (lambda: simple_multi(_a333()), ("arrangement", "mult")),
    "IntermediateSpec": (lambda: IntermediateSpec(3, 3, 0), ("r", "ell", "k")),
    "InductionReport": (
        lambda: is_inductively_free(simple_multi(intermediate(IntermediateSpec(2, 3, 0)))),
        ("verdict", "exponents", "steps", "base", "base_exponents", "nodes"),
    ),
    "ObstructionReport": (lambda: localization_obstruction(simple_multi(_a333())), ("verdict", "flat", "scanned")),
    "HereditaryReport": (
        lambda: hereditarily_inductively_free(intermediate(IntermediateSpec(2, 3, 3))),
        ("verdict", "failed_flat", "checked"),
    ),
    "RefutationReport": (
        lambda: additive_refuter(simple_multi(intermediate(IntermediateSpec(2, 3, 0))), (1, 2, 3)),
        ("verdict", "explored", "dead_ends", "max_depth", "chain", "dead_end_digests", "digests_truncated", "b2"),
    ),
    "Rank2Result": (_rank2_result, ("exponents", "witness", "plane")),
    "Rank2Derivation": (lambda: _rank2_result().witness, ("degree", "f1", "f2")),
    "CheckResult": (lambda: CheckResult("1", "catalog", True, "ok", 0.5), ("check", "name", "passed", "detail", "seconds")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_with_a_dataclass_repr(name) -> None:
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    values = [getattr(record, field) for field in fields]
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert [getattr(record, field) for field in fields] == values


def test_arrangements_built_apart_are_equal_and_hash_once(monkeypatch) -> None:
    text = format_fixture(shipped_fixture("g33_a2_kappa"), "g33_a2_kappa")
    a, b = (parse_fixture(text).arrangement for _ in range(2))
    assert a is not b and a.hyperplanes is not b.hyperplanes
    assert a == b and hash(a) == hash(b)
    assert a != Arrangement(a.dim, a.zeta_order, a.hyperplanes, a.labels[::-1])
    calls = []
    original = Scalar.__hash__

    def counted(self) -> int:
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Scalar, "__hash__", counted)
    assert hash(a) == hash(b) and a == b
    assert calls == []
    # a fresh arrangement does hash its scalars, once, when it is built
    Arrangement(a.dim, a.zeta_order, a.hyperplanes, a.labels)
    assert calls


@pytest.mark.parametrize(
    "params, message",
    [
        ((1, 3, 0), "need r >= 2, got 1"),
        ((3, 1, 0), "need l >= 2, got 1"),
        ((3, 3, 4), "need 0 <= k <= 3, got 4"),
        ((1001, 2, 0), "need r <= 1000, got 1001"),
    ],
)
def test_intermediate_spec_keeps_its_checks(params, message) -> None:
    with pytest.raises(ValueError) as exc:
        IntermediateSpec(*params)
    assert str(exc.value) == message


def test_intermediate_spec_is_a_tuple_that_prints_its_name() -> None:
    spec = IntermediateSpec(3, 3, 0)
    assert str(spec) == "A:3:3:0"
    assert spec == (3, 3, 0) and tuple(spec) == (3, 3, 0)
    r, ell, k = spec
    assert (r, ell, k, spec.count) == (3, 3, 0, 9)
