"""Rank-2 exponents: closed forms vs the solver, Saito certificates, witnesses, Euler values."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarr.arrangement import (
    MultiArrangement,
    arrangement,
    concentrated_multiplicity,
    essentialize,
    intersection_lattice,
    localize_multi,
    multi,
    restriction,
    simple_multi,
    ziegler_multiplicity,
)
from multiarr import linalg, rank2
from multiarr.catalog import intermediate, parse_spec_string, shipped_fixture, shipped_fixture_names
from multiarr.rank2 import (
    Rank2Derivation,
    Rank2Result,
    _order_basis,
    canonical_plane,
    common_value,
    derivation_satisfies,
    euler_multiplicity,
    euler_pattern,
    indexed_plane,
    is_saito_basis,
    padded,
    pair_for,
    plane_exponent_pair,
    plane_exponents,
    rank2_exponents,
    verify_witness,
)
from multiarr.scalars import Scalar, cyclotomic_polynomial, one, rational, residue_field, zero, zeta


def line(slope: Fraction | None, order: int = 1) -> tuple[Scalar, Scalar]:
    """x + slope*y, or y itself for slope None."""
    if slope is None:
        return (zero(order), one(order))
    return (one(order), Scalar.of(slope, order))


def plane_systems(order: int = 1, min_lines: int = 2, max_lines: int = 5, max_mult: int = 4):
    """Distinct lines x + s*y over Q(zeta_order), possibly with the line y."""
    degree = len(cyclotomic_polynomial(order)) - 1
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    slope = st.tuples(*[coeff] * degree).map(lambda cs: Scalar(order, cs))
    slopes = st.lists(st.one_of(st.none(), slope), min_size=min_lines, max_size=max_lines, unique=True)
    return slopes.flatmap(
        lambda ss: st.tuples(*[st.integers(1, max_mult) for _ in ss]).map(
            lambda ms: tuple(
                ((zero(order), one(order)) if s is None else (one(order), s), m) for s, m in zip(ss, ms)
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 3, 4)).flatmap(lambda r: st.tuples(st.just(r), plane_systems(r, max_lines=7, max_mult=6))))
def test_closed_forms_agree_with_the_solver(case) -> None:
    order, plane = case
    pair = plane_exponent_pair(plane, order)
    solved, witness = plane_exponents(plane, order)
    assert pair == solved
    assert pair[0] <= pair[1]
    # the kernel scan of verify_witness is an oracle independent of the order basis
    assert verify_witness(Rank2Result(pair, witness, plane), order)


def test_two_lines_are_the_multiplicities() -> None:
    plane = ((line(Fraction(0)), 5), (line(None), 2))
    assert plane_exponent_pair(plane, 1) == (2, 5)
    pair, witness = plane_exponents(plane, 1)
    assert pair == (2, 5) and witness.degree == 2


def test_simple_lines_split_one_rest() -> None:
    plane = tuple((line(Fraction(s)), 1) for s in range(4)) + ((line(None), 1),)
    assert plane_exponent_pair(plane, 1) == (1, 4)


def test_near_simple_lines_split_k_minus_one_rest() -> None:
    # k = 5 lines, |mu| = 7 <= 2k - 1: {k - 1, |mu| - k + 1}
    plane = ((line(Fraction(0)), 3),) + tuple((line(Fraction(s)), 1) for s in range(1, 4)) + ((line(None), 1),)
    assert plane_exponent_pair(plane, 1) == plane_exponents(plane, 1)[0] == (3, 4)


def test_near_simple_pairs_skip_the_solver(monkeypatch) -> None:
    def refused(*_):
        raise RuntimeError("solver reached")

    monkeypatch.setattr(rank2, "_order_basis", refused)
    plane_exponent_pair.cache_clear()
    lines = (line(None), line(Fraction(0)), line(Fraction(1)), line(Fraction(-1)), line(Fraction(2)))
    assert plane_exponent_pair(tuple(zip(lines[:4], (2, 1, 1, 1))), 1) == (2, 3)
    # the boundary |mu| = 2k - 1
    assert plane_exponent_pair(tuple(zip(lines[:4], (2, 2, 2, 1))), 1) == (3, 4)
    assert plane_exponent_pair(tuple(zip(lines, (2, 2, 2, 2, 1))), 1) == (4, 5)
    # |mu| = 2k is past the closed form, and balanced: proven over F_p
    assert plane_exponent_pair(tuple(zip(lines[:4], (2, 2, 2, 2))), 1) == (4, 4)
    # unbalanced, (5, 7): only the exact sweep answers
    with pytest.raises(RuntimeError, match="solver reached"):
        plane_exponent_pair(tuple(zip(lines[:4], (3, 3, 3, 3))), 1)


def test_balanced_proofs_mod_p_agree_with_the_exact_sweep() -> None:
    # special position: slopes among infinity, 0, +-1 and the powers of zeta,
    # where reduction mod p is likeliest to lose rank
    rng = random.Random(5)
    outcomes = set()
    for order in (1, 3, 4, 6):
        slopes = {(zero(order), one(order))} | {(one(order), s) for s in (zero(order), one(order), -one(order))}
        slopes |= {(one(order), zeta(order, k)) for k in range(order)}
        for _ in range(40):
            lines = rng.sample(sorted(slopes, key=str), min(len(slopes), rng.randint(4, 6)))
            plane = canonical_plane((l, rng.randint(1, 5)) for l in lines)
            balanced = rank2._balanced_mod_p(plane, order)
            low, _ = _order_basis(plane, order)
            if balanced:
                assert low.degree == sum(m for _, m in plane) // 2, plane
            outcomes.add(balanced)
    assert outcomes == {True, False}


def test_balanced_proof_declines_where_reduction_fails(monkeypatch) -> None:
    p = residue_field(1).prime
    lines = (line(None), line(Fraction(0)), line(Fraction(1)))
    # p divides a denominator; the slopes 0 and p meet mod p
    for extra in (Fraction(1, p), Fraction(p)):
        plane = canonical_plane(zip(lines + (line(extra),), (2, 2, 2, 2)))
        assert not rank2._balanced_mod_p(plane, 1)
        calls = []
        monkeypatch.setattr(rank2, "_order_basis", lambda *args: calls.append(args) or _order_basis(*args))
        plane_exponent_pair.cache_clear()
        assert plane_exponent_pair(plane, 1) == (4, 4)
        assert len(calls) == 1


def mod_p_bounds_the_exact_sweep(plane, order: int) -> bool | None:
    """Check one plane, where reduction does not decline: the F_p sweep's lower
    degree is at most the exact one, and the exact degrees sum to |mu|.
    Returns whether the F_p run proves the pair balanced; None if it declines."""
    swept = rank2._sweep(rank2._mod_p(order), plane)
    if swept is None:
        return None
    low, high = _order_basis(plane, order)
    total = sum(m for _, m in plane)
    assert low.degree + high.degree == total, plane
    assert min(swept[0]) <= low.degree, plane
    return min(swept[0]) == total // 2


def test_mod_p_lower_degree_bounds_the_exact_one_in_both_outcomes() -> None:
    # the special-position family of the balanced-proof test, where rank is likeliest to drop mod p
    rng = random.Random(5)
    outcomes = set()
    for order in (1, 3, 4, 6):
        slopes = {(zero(order), one(order))} | {(one(order), s) for s in (zero(order), one(order), -one(order))}
        slopes |= {(one(order), zeta(order, k)) for k in range(order)}
        for _ in range(40):
            lines = rng.sample(sorted(slopes, key=str), min(len(slopes), rng.randint(4, 6)))
            outcomes.add(mod_p_bounds_the_exact_sweep(canonical_plane((l, rng.randint(1, 5)) for l in lines), order))
    assert {True, False} <= outcomes


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 3, 4)).flatmap(lambda r: st.tuples(st.just(r), plane_systems(r, max_lines=7, max_mult=6))))
def test_mod_p_lower_degree_bounds_the_exact_one_on_random_planes(case) -> None:
    order, plane = case
    mod_p_bounds_the_exact_sweep(plane, order)


def test_heavy_line_dominates() -> None:
    plane = ((line(Fraction(0)), 7), (line(Fraction(1)), 2), (line(None), 3))
    assert plane_exponent_pair(plane, 1) == (5, 7)


def test_three_lines_balance() -> None:
    plane = ((line(Fraction(0)), 3), (line(Fraction(1)), 3), (line(None), 3))
    assert plane_exponent_pair(plane, 1) == (4, 5)


def test_cyclotomic_lines() -> None:
    plane = tuple((l, 2) for l in (line(None, 3), (one(3), zero(3)), (one(3), zeta(3)), (one(3), zeta(3, 2))))
    pair, witness = plane_exponents(plane, 3)
    assert pair == plane_exponent_pair(plane, 3) == (4, 4)
    assert derivation_satisfies(plane, witness)


def test_rejects_degenerate_systems() -> None:
    with pytest.raises(ValueError, match="at least two lines"):
        plane_exponent_pair(((line(None), 3),), 1)
    with pytest.raises(ValueError, match="at least two lines"):
        plane_exponents((), 1)
    with pytest.raises(ValueError, match="3 exponents will not fit in rank 2"):
        padded((1, 2, 3), 2)


@settings(max_examples=60, deadline=None)
@given(plane_systems(max_lines=4, max_mult=3), st.integers(1, 4))
def test_euler_values_match_the_certified_pairs(others, m0) -> None:
    h0 = line(Fraction(9))  # steeper than any generated slope, so always new
    plane = canonical_plane(others + ((h0, m0),))
    at = plane.index((h0, m0))
    value = common_value(plane, at, 1)
    # the same common exponent from the Saito-certified pairs of both systems
    deleted = tuple((l, m - (i == at)) for i, (l, m) in enumerate(plane) if m - (i == at))
    assert set(plane_exponents(plane, 1)[0]) & set(plane_exponents(deleted, 1)[0]) == {value}
    # the value is also an exponent of the deletion, whose pair sums to |mu| - 1
    assert 1 <= value <= m0 + sum(m for _, m in others) - 1


def test_common_value_shapes() -> None:
    def value(m0: int, others: tuple[int, ...]) -> int:
        lines = [line(Fraction(s)) for s in range(len(others))] + [line(None)]
        plane = canonical_plane(zip(lines, (*others, m0)))
        return common_value(plane, plane.index((line(None), m0)), 1)

    assert value(5, (3,)) == 3  # two hyperplanes: the other one
    assert value(2, (1, 1, 1)) == 3  # |mu| <= 2k - 1, m0 > 1: k - 1
    assert value(1, (1, 1, 1)) == 1  # simple
    assert value(2, (2, 2, 2)) == 4  # all twos: k
    # no other hyperplane: no rank-2 flat, so no value (not k - 1 = 1)
    with pytest.raises(ArithmeticError, match="no unique common nonzero exponent"):
        common_value(((line(None), 2),), 0, 1)


def test_indexed_plane_needs_rank_two() -> None:
    arr = arrangement(3, 1, [[rational(c) for c in r] for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    with pytest.raises(ValueError, match="rank 2"):
        indexed_plane(arr, tuple(range(arr.n)))


def test_plane_of_an_embedded_flat() -> None:
    g333 = intermediate(parse_spec_string("A:3:3:0"))
    flat = next(f for f in intersection_lattice(g333, 2) if len(f.closed) >= 3)
    loc = localize_multi(multi(g333, [2] * g333.n), flat)
    result = rank2_exponents(loc)
    plane = result.plane
    assert len(plane) == len(flat.closed)
    assert all(m == 2 for _, m in plane)
    for (a, b), _ in plane:
        assert a.is_one() or (not a and b.is_one())
    # the localization's lines are those of the flat inside the parent
    assert [l for l, _ in plane] == [l for l, _ in indexed_plane(g333, tuple(sorted(flat.closed)))]
    assert result.exponents[0] + result.exponents[1] == loc.total
    assert verify_witness(result, g333.zeta_order)


@pytest.mark.parametrize(
    "make",
    [
        lambda: shipped_fixture("g33_a1").arrangement,
        lambda: intermediate(parse_spec_string("A:3:4:2")),
        lambda: shipped_fixture("g34_a2").arrangement,
    ],
    ids=["g33_a1", "A:3:4:2", "g34_a2"],
)
def test_planes_are_the_essentialized_localizations(make) -> None:
    # a rank-2 flat's plane and its essentialized localization share one
    # coordinate route, so their lines agree exactly
    arr = make()
    for flat in intersection_lattice(arr, 2):
        if flat.rank != 2:
            continue
        ess = essentialize(localize_multi(simple_multi(arr), flat))
        lines = (form.coeffs for form in ess.arrangement.hyperplanes)
        assert indexed_plane(arr, flat.closed) == canonical_plane(zip(lines, flat.closed))


def test_a_state_gets_the_certified_pair_of_its_copy() -> None:
    # zeros kept: the pair, witness and plane of every rank <= 2 support
    # are its copy's, as pivot coordinates depend only on the row space;
    # a rank-3 support gets None
    arr = intermediate(parse_spec_string("A:3:3:0"))
    ranks = set()
    for flat in intersection_lattice(arr, 3):
        for drop in range(len(flat.closed) + 1):
            kept = flat.closed[drop:]
            mult = tuple(i % 3 + 1 if i in kept else 0 for i in range(arr.n))
            rank = linalg.rank([arr.hyperplanes[i].coeffs for i in kept], arr.dim)
            ranks.add(rank)
            got = rank2_exponents(MultiArrangement(arr, mult))
            assert got == rank2_exponents(multi(arr, mult))
            assert (got is None) == (rank == 3)
            assert (got is not None and got.witness is not None) == (rank == 2)
    assert ranks == {0, 1, 2, 3}


def test_low_rank_inputs_are_witnessless() -> None:
    single = multi(arrangement(3, 1, [[rational(1), rational(0), rational(0)]]), [4])
    res = rank2_exponents(single)
    assert res == Rank2Result((0, 4), None, ())
    assert verify_witness(res, 1)
    empty = multi(arrangement(2, 1, [[rational(1), rational(0)]]), [0])
    assert rank2_exponents(empty).exponents == (0, 0)
    assert pair_for(((line(Fraction(0)), 0), (line(None), 0)), 1) == (0, 0)


def test_verify_witness_rejects_tampering() -> None:
    plane = ((line(Fraction(0)), 2), (line(Fraction(1)), 2), (line(None), 2))
    pair, witness = plane_exponents(plane, 1)
    good = Rank2Result(pair, witness, plane)
    assert verify_witness(good, 1)
    wrong_pair = Rank2Result((pair[0] + 1, pair[1] - 1), witness, plane)
    assert not verify_witness(wrong_pair, 1)
    heavier = tuple((l, m + 1) for l, m in plane)
    assert not verify_witness(Rank2Result(pair, witness, heavier), 1)
    fake = Rank2Result((0, sum(m for _, m in plane)), None, plane)
    assert not verify_witness(fake, 1)
    # exponents shifted one below the true pair, with a witness of the lower
    # degree d: no nonzero derivation of degree d is in D(A, mu), y^d d/dx neither
    low = pair[0] - 1
    below = Rank2Derivation(low, (zero(1),) * low + (one(1),), (zero(1),) * (low + 1))
    assert not verify_witness(Rank2Result((low, pair[1] + 1), below, plane), 1)


def test_verify_witness_refuses_a_forged_degree() -> None:
    # the true degree-3 witness of x^2, (x+y)^2, y^2 relabelled as degree 2:
    # its divisions still hold and no derivation exists below degree 2
    plane = ((line(Fraction(0)), 2), (line(Fraction(1)), 2), (line(None), 2))
    pair, witness = plane_exponents(plane, 1)
    assert pair == (3, 3)
    forged = Rank2Derivation(2, witness.f1, witness.f2)
    assert not derivation_satisfies(plane, forged)
    assert not verify_witness(Rank2Result((2, 4), forged, plane), 1)


def test_saito_certificate_rejects_tampering() -> None:
    plane = tuple((line(s), 2) for s in (Fraction(0), None, Fraction(1), Fraction(-1)))
    low, high = _order_basis(plane, 1)
    assert (low.degree, high.degree) == (4, 4)
    assert is_saito_basis(plane, (low, high))
    # dependent generators: in D(A, mu), degrees sum to |mu|, determinant 0
    assert not is_saito_basis(plane, (low, low))
    # degrees summing to |mu| + 1: x * high is in D(A, mu) and independent of low
    times_x = Rank2Derivation(high.degree + 1, high.f1 + (zero(1),), high.f2 + (zero(1),))
    assert derivation_satisfies(plane, times_x)
    assert not is_saito_basis(plane, (low, times_x))
    # a generator outside D(A, mu)
    swapped = Rank2Derivation(high.degree, high.f2, high.f1)
    assert not derivation_satisfies(plane, swapped)
    assert not is_saito_basis(plane, (low, swapped))


def test_an_order_basis_failing_saito_is_an_error(monkeypatch) -> None:
    plane = ((line(Fraction(0)), 2), (line(Fraction(1)), 2), (line(None), 2))
    lower = _order_basis(plane, 1)[0]
    monkeypatch.setattr(rank2, "_order_basis", lambda plane, order: (lower, lower))
    plane_exponents.cache_clear()
    with pytest.raises(ArithmeticError, match="order basis failed Saito's criterion"):
        plane_exponents(plane, 1)


def test_zero_derivation_never_satisfies() -> None:
    theta = Rank2Derivation(1, (zero(1), zero(1)), (zero(1), zero(1)))
    assert not derivation_satisfies(((line(Fraction(0)), 1), (line(None), 1)), theta)


def test_x_d_dy_is_not_tangent_to_the_line_y() -> None:
    # theta(x) = 0, but theta(y) = x, which y does not divide
    theta = Rank2Derivation(1, (zero(1), zero(1)), (one(1), zero(1)))
    assert not derivation_satisfies(((line(Fraction(0)), 1), (line(None), 1)), theta)


def test_euler_multiplicity_concentrates_on_a_plane() -> None:
    # in dimension 2 every restriction is a single point
    arr = arrangement(2, 1, [[rational(1), rational(s)] for s in (0, 1, 2)])
    m = multi(arr, [3, 2, 2])
    em = euler_multiplicity(m, 0)
    assert em.arrangement.dim == 1 and em.arrangement.n == 1
    plane = rank2_exponents(m).plane
    at = [p for _, p in indexed_plane(arr, (0, 1, 2))].index(0)
    assert plane[at][1] == 3
    expected = common_value(plane, at, 1)
    assert em.mult == (expected,)


def a342_kappa():
    arr = intermediate(parse_spec_string("A:3:4:2"))
    return ziegler_multiplicity(arr, arr.index_of_label("H_{1,2}(1)"))


@pytest.mark.parametrize("make", [lambda: shipped_fixture("g33_a2_kappa"), a342_kappa], ids=["g33_a2_kappa", "A:3:4:2"])
def test_pattern_values_with_zeros_match_the_support(make, monkeypatch) -> None:
    # a pattern of the full arrangement, fed a state with zeros, gives the
    # Euler restriction of the state's support arrangement
    m = make()
    arr = m.arrangement
    rng = random.Random(7)
    calls = []

    def counted(*args):
        calls.append(args)
        return common_value(*args)

    monkeypatch.setattr(rank2, "common_value", counted)
    for _ in range(12):
        state = [rng.randint(0, mu) for mu in m.mult]
        support = multi(arr, state)
        for h0 in range(arr.n):
            if not state[h0]:
                continue
            pat = euler_pattern(arr, h0)
            em = euler_multiplicity(support, support.arrangement.index_of_label(arr.labels[h0]))
            before = len(calls)
            values = {form: pat.value(gid, state) for gid, form in enumerate(pat.arrangement.hyperplanes)}
            # a restricted hyperplane that no support member maps onto gets 0
            assert values == dict.fromkeys(values, 0) | dict(zip(em.arrangement.hyperplanes, em.mult))
            # every other value of a group of two or more members comes
            # from the common-value rule; one member is its own value
            wide = [gid for gid, members in enumerate(pat.groups) if len(members) > 1]
            assert len(calls) - before == sum(1 for gid in wide if values[pat.arrangement.hyperplanes[gid]])


@pytest.mark.parametrize("name", [name for name in shipped_fixture_names() if "kappa" in name])
def test_one_member_groups_take_the_common_value(name) -> None:
    # a group of one member is a flat of two lines: its value, read from
    # the member's multiplicity, against the common-value rule on the
    # flat's plane, for random multiplicities with zeros
    arr = shipped_fixture(name).arrangement
    rng = random.Random(13)
    checked = 0
    for h0 in range(arr.n):
        pat = euler_pattern(arr, h0)
        for gid, members in enumerate(pat.groups):
            if len(members) > 1:
                continue
            lines = indexed_plane(arr, pat.flats[gid])
            at = [p for _, p in lines].index(h0)
            for _ in range(4):
                mult = [rng.randint(0, 3) for _ in range(arr.n)]
                mult[h0] = rng.randint(1, 3)
                plane = tuple((line, mult[p]) for line, p in lines)
                want = common_value(plane, at, arr.zeta_order) if mult[members[0]] else 0
                assert pat.value(gid, mult) == want
                checked += 1
    assert checked


def test_euler_matches_ziegler_above_simple() -> None:
    g333 = intermediate(parse_spec_string("A:3:3:0"))
    kappa = ziegler_multiplicity(g333, 0)
    for m0 in (1, 2, 3):
        em = euler_multiplicity(concentrated_multiplicity(g333, 0, m0), 0)
        if m0 == 1:
            assert set(em.mult) == {1}
        else:
            assert em.mult == kappa.mult
