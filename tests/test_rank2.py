"""Rank-2 exponents: closed forms vs the solver, Saito certificates, witnesses, Euler values."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarr.arrangement import (
    arrangement,
    concentrated_multiplicity,
    hyperplane_flat,
    intersection_lattice,
    localize_multi,
    multi,
    restriction,
    simple_multi,
    ziegler_multiplicity,
)
from multiarr.catalog import intermediate, parse_spec_string
from multiarr.rank2 import (
    Rank2Derivation,
    Rank2Result,
    _order_basis,
    common_value,
    derivation_satisfies,
    euler_deletion,
    euler_multiplicity,
    euler_value_shortcut,
    is_saito_basis,
    plane_exponent_pair,
    plane_exponents,
    rank2_exponents,
    reduce_to_plane,
    triple,
    verify_witness,
)
from multiarr.scalars import Scalar, cyclotomic_polynomial, one, rational, zero, zeta


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


@settings(max_examples=60, deadline=None)
@given(plane_systems(max_lines=4, max_mult=3), st.integers(1, 4))
def test_shortcut_euler_values_match_the_common_value(others, m0) -> None:
    h0 = line(Fraction(9))  # steeper than any generated slope, so always new
    short = euler_value_shortcut(m0, tuple(m for _, m in others))
    full = common_value(h0, m0, others, 1)
    if short is not None:
        assert short == full
    # the value is also an exponent of the deletion, whose pair sums to |mu| - 1
    assert 1 <= full <= m0 + sum(m for _, m in others) - 1


def test_shortcut_shapes() -> None:
    assert euler_value_shortcut(5, (3,)) == 3  # two hyperplanes: the other one
    assert euler_value_shortcut(2, (1, 1, 1)) == 3  # |mu| <= 2k - 1, m0 > 1
    assert euler_value_shortcut(1, (1, 1, 1)) is None  # simple: no shortcut
    assert euler_value_shortcut(2, (2, 2, 2)) == 4  # all twos
    assert euler_value_shortcut(3, (2, 2, 2, 2)) is None


def test_reduce_to_plane_needs_rank_two() -> None:
    arr = arrangement(3, 1, [[rational(c) for c in r] for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    with pytest.raises(ValueError, match="rank 2"):
        reduce_to_plane(simple_multi(arr))


def test_reduce_to_plane_of_an_embedded_flat() -> None:
    g333 = intermediate(parse_spec_string("A:3:3:0"))
    flat = next(f for f in intersection_lattice(g333, 2) if len(f.closed) >= 3)
    loc = localize_multi(multi(g333, [2] * g333.n), flat)
    plane = reduce_to_plane(loc)
    assert len(plane) == len(flat.closed)
    assert all(m == 2 for _, m in plane)
    for (a, b), _ in plane:
        assert a.is_one() or (a.is_zero() and b.is_one())
    result = rank2_exponents(loc)
    assert result.exponents[0] + result.exponents[1] == loc.total
    assert verify_witness(result, g333.zeta_order)


def test_low_rank_inputs_are_witnessless() -> None:
    single = multi(arrangement(3, 1, [[rational(1), rational(0), rational(0)]]), [4])
    res = rank2_exponents(single)
    assert res == Rank2Result((0, 4), None, ())
    assert verify_witness(res, 1)
    empty = multi(arrangement(2, 1, [[rational(1), rational(0)]]), [0])
    assert rank2_exponents(empty).exponents == (0, 0)


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


def test_zero_derivation_never_satisfies() -> None:
    theta = Rank2Derivation(1, (zero(1), zero(1)), (zero(1), zero(1)))
    assert not derivation_satisfies(((line(Fraction(0)), 1), (line(None), 1)), theta)


def test_euler_multiplicity_concentrates_on_a_plane() -> None:
    # in dimension 2 every restriction is a single point
    arr = arrangement(2, 1, [[rational(1), rational(s)] for s in (0, 1, 2)])
    m = multi(arr, [3, 2, 2])
    em = euler_multiplicity(m, 0)
    assert em.arrangement.dim == 1 and em.arrangement.n == 1
    plane = reduce_to_plane(m)
    expected = common_value(plane[0][0], 3, plane[1:], 1)
    assert em.mult == (expected,)


def test_euler_matches_ziegler_above_simple() -> None:
    g333 = intermediate(parse_spec_string("A:3:3:0"))
    kappa = ziegler_multiplicity(g333, 0)
    for m0 in (1, 2, 3):
        em = euler_multiplicity(concentrated_multiplicity(g333, 0, m0), 0)
        if m0 == 1:
            assert set(em.mult) == {1}
        else:
            assert em.mult == kappa.mult


def test_deletion_and_triple() -> None:
    arr = arrangement(2, 1, [[rational(1), rational(s)] for s in (0, 1)])
    m = multi(arr, [2, 1])
    deleted = euler_deletion(m, 1)
    assert deleted.arrangement.n == 1 and deleted.mult == (2,)
    d, r = triple(m, 0)
    assert d.total == m.total - 1
    assert r.total >= 1
