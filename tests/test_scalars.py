"""Field axioms, parsing, and printing of the cyclotomic scalars."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarr.scalars import (
    MAX_ORDER,
    Scalar,
    ScalarParseError,
    _field,
    cyclotomic_polynomial,
    one,
    parse_scalar,
    rational,
    residue_field,
    zero,
    zeta,
)

ORDERS = (1, 3, 4, 5)
# every field of degree <= 4, plus Q(zeta_7) of degree 6
ORACLE_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 12)


def scalars(order: int, *, nonzero: bool = False, bound: int = 9) -> st.SearchStrategy[Scalar]:
    degree = len(cyclotomic_polynomial(order)) - 1
    coeff = st.fractions(min_value=-bound, max_value=bound, max_denominator=7)
    base = st.tuples(*([coeff] * degree)).map(lambda t: Scalar(order, t))
    return base.filter(bool) if nonzero else base


def order_and_scalars(n: int, *, nonzero: bool = False) -> st.SearchStrategy:
    return st.sampled_from(ORDERS).flatmap(
        lambda r: st.tuples(st.just(r), *[scalars(r, nonzero=nonzero) for _ in range(n)])
    )


def test_cyclotomic_polynomials() -> None:
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_zeta_relations() -> None:
    z3 = zeta(3)
    assert z3**3 == one(3)
    assert z3 * z3 == parse_scalar("-1 - z", 3)
    assert one(3) + z3 + z3 * z3 == zero(3)
    z4 = zeta(4)
    assert z4 * z4 == -one(4)
    assert z4**4 == one(4)
    assert zeta(3, 2) == zeta(3) ** 2
    assert zeta(1) == one(1)


@pytest.mark.parametrize(
    ("text", "order", "expected"),
    [
        ("0", 3, zero(3)),
        ("-3/2", 1, rational(Fraction(-3, 2))),
        ("2*z^2", 4, rational(-2, 4)),
        ("(1 + z) * (1 - z)", 4, rational(2, 4)),
        ("(1 - z)*(1 - z^2)", 3, rational(3, 3)),
        ("z^3", 3, one(3)),
        ("  -  z  +  1 ", 3, one(3) - zeta(3)),
        ("--1", 1, one(1)),
        ("1/2 + 1/3", 1, rational(Fraction(5, 6))),
        ("\u0661/\u0662", 1, rational(Fraction(1, 2))),  # decimal digits of any script, as int() reads them
    ],
)
def test_parse_examples(text: str, order: int, expected: Scalar) -> None:
    assert parse_scalar(text, order) == expected


@pytest.mark.parametrize(
    "text",
    # superscript digits pass str.isdigit() but not int()
    ["", "1/0", "z^", "1 +", "(1", "1)", "q", "1..2", "z 2", "* 2", "1/\u00b2", "z^\u00b2", "\u00b2", "1\u00b2"],
)
def test_parse_rejects(text: str) -> None:
    with pytest.raises(ScalarParseError):
        parse_scalar(text, 3)


def test_parse_error_carries_position() -> None:
    with pytest.raises(ScalarParseError) as exc:
        parse_scalar("1 + @", 3)
    assert exc.value.pos == 4
    assert exc.value.text == "1 + @"


@given(order_and_scalars(1))
def test_print_parse_round_trip(data) -> None:
    order, x = data
    assert parse_scalar(str(x), order) == x


@given(order_and_scalars(3))
def test_ring_axioms(data) -> None:
    _, a, b, c = data
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == zero(a.order)


@given(order_and_scalars(1, nonzero=True))
def test_inverse_law(data) -> None:
    order, a = data
    assert a * a.inverse() == one(order)
    assert a / a == one(order)
    assert a ** (-1) == a.inverse()
    assert 1 / a == a.inverse()


def _conjugate_product_inverse(a: Scalar) -> Scalar:
    """a^-1 as the product of the other Galois conjugates over the norm."""
    order = a.order
    adj = one(order)
    for k in range(2, order):
        if gcd(k, order) == 1:
            adj = adj * sum((c * zeta(order, j * k) for j, c in enumerate(a.coeffs)), zero(order))
    norm = (a * adj).coeffs
    assert not any(norm[1:])
    return adj / norm[0]


# fields of degree 1 to 16
@pytest.mark.parametrize("order", [1, 3, 4, 5, 7, 9, 12, 15, 60])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_euclid_inverse_equals_the_conjugate_product(order, data) -> None:
    a = data.draw(scalars(order, nonzero=True))
    inv = a.inverse()
    assert a * inv == one(order)
    assert inv == _conjugate_product_inverse(a)


@given(order_and_scalars(1))
def test_power_and_int_mixing(data) -> None:
    order, a = data
    assert a**0 == one(order)
    assert a**3 == a * a * a
    assert 2 * a == a + a
    assert a - 1 == a - one(order)
    assert 1 - a == -(a - 1)


@pytest.mark.parametrize("order", (1, 2, 3, 4, 5, 6, 8, 12, 1000))
def test_residue_field_sends_zeta_to_a_root_of_phi(order) -> None:
    p, omega, powers = residue_field(order)
    assert p < 2**31 and (p - 1) % order == 0
    assert all(p % d for d in range(2, isqrt(p) + 1))  # prime, by trial division
    phi_at_omega = 0
    for c in reversed(cyclotomic_polynomial(order)):
        phi_at_omega = (phi_at_omega * omega + c) % p
    assert phi_at_omega == 0
    assert powers == tuple(pow(omega, j, p) for j in range(len(cyclotomic_polynomial(order)) - 1))


@settings(max_examples=60, deadline=None)
@given(order_and_scalars(2))
def test_residue_is_a_ring_map(case) -> None:
    order, a, b = case
    p = residue_field(order).prime
    # the generated denominators are below 8, so p divides none of them
    ra, rb = a.residue(), b.residue()
    assert (a + b).residue() == (ra + rb) % p
    assert (a * b).residue() == ra * rb % p
    assert zeta(order).residue() == residue_field(order).omega % p


def test_mixed_orders_rejected() -> None:
    with pytest.raises(ValueError, match="mixed scalar orders"):
        zeta(3) + zeta(4)
    with pytest.raises(ValueError, match="mixed scalar orders"):
        zeta(3) * one(1)
    # a zero or unit operand of another order is rejected before any short-cut
    for mixed in (
        lambda: zero(4) + zeta(3),
        lambda: zeta(3) - zero(4),
        lambda: one(3) * zeta(4),
        lambda: zero(3) * one(4),
    ):
        with pytest.raises(ValueError, match="mixed scalar orders"):
            mixed()


def test_field_orders_above_the_limit_are_rejected() -> None:
    # the gate runs before any power table is built, so nothing is cached
    size = _field.cache_info().currsize
    for build in (lambda: zeta(1001), lambda: Scalar.of(1, 1001), lambda: residue_field(1001)):
        with pytest.raises(ValueError, match=f"at most {MAX_ORDER}, got 1001"):
            build()
    assert _field.cache_info().currsize == size


@pytest.mark.parametrize("value", [0.1, "1/3", Decimal("0.1")], ids=["float", "str", "Decimal"])
def test_inexact_operands_are_rejected(value) -> None:
    # Fraction(0.1) is 3602879701896397/36028797018963968, and a str would be parsed
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        Scalar.of(value, 3)
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        Scalar(1, (value,))
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        zeta(3) * value


def test_a_scalar_is_not_equal_to_an_int() -> None:
    # arithmetic mixes in ints, equality does not
    assert not one(1) == 1
    assert one(1) != 1


def test_malformed_constructions_are_rejected() -> None:
    with pytest.raises(ValueError, match="Q\\(zeta_3\\) needs 2 coefficients, got 1"):
        Scalar(3, (1,))
    with pytest.raises(ValueError, match="power must be >= 0"):
        zeta(3, -1)


def test_zero_division() -> None:
    with pytest.raises(ZeroDivisionError):
        zero(3).inverse()
    with pytest.raises(ZeroDivisionError):
        one(3) / zero(3)
    with pytest.raises(ZeroDivisionError):
        one(3) / 0


def test_str_forms() -> None:
    assert str(zero(3)) == "0"
    assert str(zeta(3) * zeta(3)) == "-z - 1"
    assert str(rational(Fraction(5, 2))) == "5/2"
    assert str(2 * parse_scalar("z^2", 3)) == "-2*z - 2"
    assert str(-zeta(4)) == "-z"


# A reference model of Q(zeta_r) on Fraction coefficient tuples: schoolbook
# products reduced modulo Phi_r, and inverses by the extended Euclidean
# algorithm over Q[x].


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _ref_reduce(order: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    raw = list(raw) + [Fraction(0)] * max(0, d - len(raw))
    for i in range(len(raw) - 1, d - 1, -1):
        c = raw[i]
        for j, p in enumerate(phi):
            raw[i - d + j] -= c * p
    return tuple(raw[:d])


def _ref_mul(order: int, a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    raw = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    return _ref_reduce(order, raw)


def _ref_inverse(order: int, a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # invariant: r_i = t_i * a mod Phi_r
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(order)], _trim(list(a))
    t0: list[Fraction] = []
    t1 = [Fraction(1)]
    while len(r1) > 1:
        rem, quot = list(r0), [Fraction(0)] * (len(r0) - len(r1) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = rem[i + len(r1) - 1] / r1[-1]
            for j, b in enumerate(r1):
                rem[i + j] -= c * b
        prod = [Fraction(0)] * (len(quot) + len(t1) - 1)
        for i, q in enumerate(quot):
            for j, t in enumerate(t1):
                prod[i + j] += q * t
        width = max(len(t0), len(prod))
        t_new = [(t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0) for i in range(width)]
        r0, r1, t0, t1 = r1, _trim(rem), t1, _trim(t_new)
    return _ref_reduce(order, [t / r1[0] for t in t1])


def _agrees(got: Scalar, order: int, want: tuple[Fraction, ...]) -> None:
    """``got`` is the reference value ``want``, in the canonical form."""
    assert got.order == order
    assert got.coeffs == want
    rebuilt = Scalar(order, want)
    assert str(got) == str(rebuilt)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert len(got.num) == len(want) and got.den > 0
    assert gcd(got.den, *got.num) == 1
    assert all(Fraction(n, got.den) == c for n, c in zip(got.num, want))
    if not any(want):
        assert got.num == (0,) * len(want) and got.den == 1


@given(
    st.sampled_from(ORACLE_ORDERS).flatmap(lambda r: st.tuples(st.just(r), scalars(r), scalars(r))),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
def test_arithmetic_matches_the_fraction_reference(data, q) -> None:
    order, x, y = data
    a, b = x.coeffs, y.coeffs
    _agrees(x + y, order, tuple(s + t for s, t in zip(a, b)))
    _agrees(x - y, order, tuple(s - t for s, t in zip(a, b)))
    _agrees(-x, order, tuple(-s for s in a))
    _agrees(x * y, order, _ref_mul(order, a, b))
    _agrees(x * q, order, tuple(s * q for s in a))
    _agrees(q + x, order, (a[0] + q,) + a[1:])
    _agrees(x - q, order, (a[0] - q,) + a[1:])
    # operands that are exactly zero(r) and one(r), which the arithmetic hands back as is
    zeros, o, z = (Fraction(0),) * len(a), one(order), zero(order)
    for got, want in [(x * o, a), (o * x, a), (x * z, zeros), (z * x, zeros), (x + z, a), (z + x, a), (x - z, a)]:
        _agrees(got, order, want)
    _agrees(z - x, order, tuple(-s for s in a))
    assert (x == y) == (a == b)
    if x == y:
        assert hash(x) == hash(y)
    if q:
        _agrees(x / q, order, tuple(s / q for s in a))
    if y:
        inv = _ref_inverse(order, b)
        _agrees(y.inverse(), order, inv)
        _agrees(x / y, order, _ref_mul(order, a, inv))
        assert (y * y.inverse()).is_one()
        assert y * y.inverse() == one(order)
