"""Arrangements, lattices, multiplicities, and the two restrictions."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarr import linalg
from multiarr.arrangement import (
    MultiArrangement,
    arrangement,
    characteristic_polynomial,
    concentrated_multiplicity,
    essentialize,
    free_exponents_from_charpoly,
    hyperplane_flat,
    intersection_lattice,
    linear_form,
    localize_multi,
    multi,
    rank_of,
    restriction,
    simple_multi,
    state_key,
    ziegler_multiplicity,
)
from multiarr.catalog import intermediate, parse_spec_string
from multiarr.scalars import one, rational, zero, zeta


def rows(*tuples: tuple[int, ...]):
    return [[rational(c) for c in row] for row in tuples]


@pytest.fixture(scope="module")
def g333():
    return intermediate(parse_spec_string("A:3:3:0"))


def sub_arrangements(arr, max_size: int | None = None):
    """Random sub-arrangements with at least two hyperplanes."""
    return st.lists(
        st.sampled_from(range(arr.n)), min_size=2, max_size=max_size or arr.n, unique=True
    ).map(
        lambda picked: arrangement(
            arr.dim,
            arr.zeta_order,
            [arr.hyperplanes[i] for i in sorted(picked)],
            [arr.labels[i] for i in sorted(picked)],
        )
    )


def test_linear_form_normalizes_the_lead() -> None:
    f = linear_form([rational(0), rational(3), rational(6)])
    assert f.coeffs == (zero(1), one(1), rational(2))
    assert str(f) == "(0, 1, 2)"
    with pytest.raises(ValueError, match="zero linear form"):
        linear_form([zero(1), zero(1)])


def test_arrangement_validation() -> None:
    with pytest.raises(ValueError, match="coincide"):
        arrangement(2, 1, rows((1, 0), (2, 0)))
    with pytest.raises(ValueError, match="coefficients"):
        arrangement(3, 1, rows((1, 0)))
    with pytest.raises(ValueError, match="labels"):
        arrangement(2, 1, rows((1, 0), (0, 1)), ["a", "a"])
    with pytest.raises(ValueError, match="zeta_4"):
        arrangement(2, 4, rows((1, 0)))


def test_default_labels_and_lookup() -> None:
    arr = arrangement(2, 1, rows((1, 0), (0, 1)))
    assert arr.labels == ("a1", "a2")
    assert arr.index_of_label("a2") == 1
    with pytest.raises(KeyError):
        arr.index_of_label("a9")
    assert arr.index_of_form(linear_form(rows((0, 2))[0])) == 1


def test_an_arrangement_is_not_equal_to_a_tuple() -> None:
    arr = arrangement(2, 1, rows((1, 0), (0, 1)))
    assert arr != (arr.dim, arr.zeta_order, arr.hyperplanes, arr.labels)


def test_lattice_of_three_concurrent_lines() -> None:
    arr = arrangement(2, 1, rows((1, 0), (0, 1), (1, 1)))
    flats = intersection_lattice(arr)
    assert Counter(f.rank for f in flats) == {0: 1, 1: 3, 2: 1}
    top = flats[0]
    assert top.rank == 0 and top.closed == ()
    assert flats[-1].closed == (0, 1, 2)
    assert characteristic_polynomial(arr) == (2, -3, 1)
    assert free_exponents_from_charpoly(arr) == (1, 2)


def test_generic_planes_do_not_split() -> None:
    arr = arrangement(3, 1, rows((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    assert Counter(f.rank for f in intersection_lattice(arr)) == {0: 1, 1: 4, 2: 6, 3: 1}
    assert characteristic_polynomial(arr) == (-3, 6, -4, 1)
    assert free_exponents_from_charpoly(arr) is None


def test_lattice_is_deterministic_and_rank_limited(g333) -> None:
    full = intersection_lattice(g333)
    assert full == intersection_lattice(g333)
    assert Counter(f.rank for f in full) == {0: 1, 1: 9, 2: 12, 3: 1}
    partial = intersection_lattice(g333, 2)
    assert [f for f in full if f.rank <= 2] == list(partial)
    # flats come sorted by (rank, closed) and closed sets really are closed
    assert list(full) == sorted(full, key=lambda f: (f.rank, f.closed))
    for f in full:
        for i in f.closed:
            assert not any(
                linalg.reduce_against(g333.hyperplanes[i].coeffs, f.equations, f.pivots)
            )
        for i in set(range(g333.n)) - set(f.closed):
            assert any(
                linalg.reduce_against(g333.hyperplanes[i].coeffs, f.equations, f.pivots)
            )


@pytest.mark.parametrize(
    "arr",
    [
        arrangement(2, 1, rows((1, 0), (0, 1), (1, 1))),
        arrangement(3, 1, rows((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
        intermediate(parse_spec_string("A:2:3:0")),
        intermediate(parse_spec_string("A:3:3:0")),
    ],
    ids=["concurrent-lines", "generic-planes", "A:2:3:0", "g333"],
)
def test_lattice_matches_the_closures_of_all_subsets(arr) -> None:
    assert_lattice_is_the_closures(arr)


def assert_lattice_is_the_closures(arr) -> None:
    # oracle: the flats are the closures {i : rank(S + i) = rank(S)} of all subsets S
    forms = [h.coeffs for h in arr.hyperplanes]
    ranks = {
        s: linalg.rank([forms[i] for i in range(arr.n) if s >> i & 1], arr.dim) for s in range(1 << arr.n)
    }
    expected = {
        (r, tuple(i for i in range(arr.n) if ranks[s | 1 << i] == r)) for s, r in ranks.items()
    }
    flats = intersection_lattice(arr)
    assert {(f.rank, f.closed) for f in flats} == expected
    assert len(flats) == len(expected)
    for f in flats:
        red, pivots = linalg.rref([forms[i] for i in f.closed], arr.dim)
        assert f.equations == tuple(map(tuple, red)) and f.pivots == tuple(pivots)


# Q(zeta_3), Q(zeta_4) and Q, with dimensions 3, 3 and 4
@pytest.mark.parametrize("spec", ["A:3:3:1", "A:4:3:2", "A:2:4:4"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_lattice_of_sub_arrangements_matches_the_closures(spec, data) -> None:
    sub = data.draw(sub_arrangements(intermediate(parse_spec_string(spec)), max_size=10))
    assert_lattice_is_the_closures(sub)
    full = intersection_lattice(sub)
    top = data.draw(st.integers(0, sub.dim))
    assert intersection_lattice(sub, top) == tuple(f for f in full if f.rank <= top)


@pytest.mark.parametrize("spec, extensions", [("A:3:4:0", 119), ("A:2:4:4", 99), ("A:200:2:0", 1)])
def test_lattice_extends_an_echelon_once_per_flat(monkeypatch, spec, extensions) -> None:
    # a cover met a second time is looked up by its closed set, not rebuilt
    arr = intermediate(parse_spec_string(spec))
    calls = []
    extend = linalg.extend_echelon
    monkeypatch.setattr(linalg, "extend_echelon", lambda *args: calls.append(args) or extend(*args))
    intersection_lattice.cache_clear()
    flats = intersection_lattice(arr)
    assert len(calls) == sum(f.rank >= 2 for f in flats) == extensions


def test_lattice_computes_no_kernels(monkeypatch) -> None:
    # flats carry lattice data only, and restrictions read their RREF
    arr = intermediate(parse_spec_string("A:3:4:0"))
    calls = []
    kernel = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda *args: calls.append(args) or kernel(*args))
    intersection_lattice.cache_clear()
    assert len(intersection_lattice(arr)) == 138
    assert not calls


def test_braid_family_splits() -> None:
    arr = intermediate(parse_spec_string("A:2:3:0"))
    assert free_exponents_from_charpoly(arr) == (1, 2, 3)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_charpoly_has_root_one_and_ziegler_counts(g333, data) -> None:
    sub = data.draw(sub_arrangements(g333))
    coeffs = characteristic_polynomial(sub)
    assert sum(coeffs) == 0  # chi(1) = 0: t - 1 always divides
    assert coeffs[-1] == 1 and len(coeffs) == sub.dim + 1
    h0 = data.draw(st.integers(0, sub.n - 1))
    zm = ziegler_multiplicity(sub, h0)
    assert zm.total == sub.n - 1
    res = restriction(sub, hyperplane_flat(sub, h0))
    assert zm.arrangement == res.arrangement
    for g in range(res.arrangement.n):
        assert zm.mult[g] == len(res.groups[g])


def test_restriction_traces_commute_with_the_forms(g333, monkeypatch) -> None:
    # every flat of rank < dim; the reference dots each form with the
    # canonical kernel basis, computed before elimination is refused
    cases = []
    for arr in (g333, intermediate(parse_spec_string("A:3:4:0"))):
        for flat in intersection_lattice(arr, arr.dim - 1):
            cases.append((arr, flat, linalg.nullspace(flat.equations, arr.dim, arr.zeta_order)))

    def refused(*_):
        raise RuntimeError("restriction eliminated")

    monkeypatch.setattr(linalg, "rref", refused)
    monkeypatch.setattr(linalg, "nullspace", refused)
    for arr, flat, basis in cases:
        res = restriction(arr, flat)
        assert res.arrangement.dim == len(basis) == arr.dim - flat.rank
        closed = set(flat.closed)
        for i, h in enumerate(arr.hyperplanes):
            if i in closed:
                assert res.trace[i] is None
                continue
            image = linear_form([sum((x * y for x, y in zip(h.coeffs, b)), zero(arr.zeta_order)) for b in basis])
            assert res.arrangement.hyperplanes[res.trace[i]] == image
            assert i in res.groups[res.trace[i]]


def test_localization_keeps_multiplicities(g333) -> None:
    m = multi(g333, [i + 1 for i in range(g333.n)])
    flat = next(f for f in intersection_lattice(g333, 2) if f.rank == 2)
    copy = multi(*localize_multi(m, flat))
    assert copy.arrangement.hyperplanes == tuple(g333.hyperplanes[i] for i in flat.closed)
    assert copy.mult == tuple(i + 1 for i in flat.closed)
    assert copy.arrangement.labels == tuple(g333.labels[i] for i in flat.closed)


def test_localization_is_a_state_of_its_parent(g333) -> None:
    m = multi(g333, [i + 1 for i in range(g333.n)])
    for flat in intersection_lattice(g333, 3)[1:]:
        loc = localize_multi(m, flat)
        assert loc.arrangement is g333
        assert loc.mult == tuple(i + 1 if i in flat.closed else 0 for i in range(g333.n))
        assert state_key(*loc) == state_key(*multi(*loc))


def test_essentialize_drops_to_the_rank(g333) -> None:
    flat = next(f for f in intersection_lattice(g333, 2) if f.rank == 2)
    loc = localize_multi(simple_multi(g333), flat)
    copy = multi(*loc)
    assert copy.arrangement.dim == 3
    ess = essentialize(loc)
    assert ess.arrangement.dim == rank_of(copy.arrangement) == 2
    assert ess.mult == copy.mult
    assert ess.arrangement.labels == copy.arrangement.labels
    assert rank_of(ess.arrangement) == 2
    # already essential: returned unchanged
    assert essentialize(ess) == ess
    assert essentialize(simple_multi(g333)) is not None


def test_multi_drops_zero_entries(g333) -> None:
    m = multi(g333, [0, 2, 0, 1] + [0] * (g333.n - 4))
    assert m.arrangement.n == 2
    assert m.mult == (2, 1)
    assert m.arrangement.labels == (g333.labels[1], g333.labels[3])
    assert m.total == 3
    with pytest.raises(ValueError, match=">= 0"):
        multi(g333, [-1] + [1] * (g333.n - 1))
    with pytest.raises(ValueError, match="multiplicities for"):
        multi(g333, [1, 1])


def test_multi_key_ignores_order() -> None:
    a = multi(arrangement(2, 1, rows((1, 0), (0, 1))), [2, 3])
    b = multi(arrangement(2, 1, rows((0, 1), (1, 0))), [3, 2])
    assert state_key(*a) == state_key(*b)
    c = multi(arrangement(2, 1, rows((1, 0), (0, 1))), [3, 2])
    assert state_key(*a) != state_key(*c)


def test_concentrated_multiplicity(g333) -> None:
    d = concentrated_multiplicity(g333, 4, 3)
    assert d.mult == tuple(3 if i == 4 else 1 for i in range(g333.n))
    with pytest.raises(ValueError, match="m0 >= 1"):
        concentrated_multiplicity(g333, 0, 0)


def test_ziegler_on_catalog_roots() -> None:
    arr = intermediate(parse_spec_string("A:3:4:1"))
    zm = ziegler_multiplicity(arr, arr.index_of_label("H_{1,2}(1)"))
    assert zm.total == arr.n - 1 == 18
    assert zm.arrangement.dim == 3
    # the two remaining roots over (1,2) and the coordinate axis collapse together
    assert sorted(zm.mult, reverse=True) == [3, 2, 2, 2, 2, 2, 2, 1, 1, 1]
