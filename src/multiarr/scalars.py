"""Exact arithmetic in the cyclotomic fields Q(zeta_r).

A :class:`Scalar` is an element of Q(zeta_r) in the power basis
1, z, ..., z^(d-1), where z = zeta_r is a primitive r-th root of unity and
d = deg Phi_r.  It is stored as integer numerators over one shared
denominator, ``num / den``, in lowest terms: den > 0, gcd(den, *num) == 1,
and zero is (0, ..., 0) / 1.  So every element has exactly one form, and
equality and hashing compare integers.

Phi_r is monic with integer coefficients, so sums, products and the
reduction modulo Phi_r stay in the integers, with one gcd per result.  A
0 term and a 0 or 1 factor skip that work: the result is an operand
itself, or its negation for 0 - x.  An inverse is integer work too: the
extended Euclidean algorithm against Phi_r.
``fractions.Fraction`` appears only at the edges: as input coefficients
and in the derived :attr:`Scalar.coeffs`, which printing reads.  The
content key (``arrangement.state_key``), the refuter's dead-end digests
and the line order of planes use the integer ``num`` and ``den``.

For r = 1 the basis is just {1}, so scalars are plain rationals.  No
field, and so no Scalar, has an order r above :data:`MAX_ORDER`.

Each field also has one fixed reduction to a prime field,
:func:`residue_field`: zeta goes to an omega of exact order r modulo a
prime p = 1 (mod r), and :meth:`Scalar.residue` is the image of a scalar
whose denominator p does not divide.  The rank-2 solver proves balanced
exponent pairs with it, on plain ints.

>>> z = zeta(3)
>>> print(z * z)
-z - 1
>>> print(z * z * z)
1
>>> print(parse_scalar("-z - 2*z^2", 3))
z + 2
>>> (z / 2).num, (z / 2).den
((0, 1), 2)
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import NamedTuple

__all__ = [
    "MAX_ORDER",
    "Residues",
    "Scalar",
    "ScalarParseError",
    "cyclotomic_polynomial",
    "one",
    "parse_scalar",
    "rational",
    "residue_field",
    "zero",
    "zeta",
]


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of Phi_order, ascending, as plain integers.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    # x^order - 1 divided exactly by the monic Phi_d of every proper divisor d.
    num = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            phi = cyclotomic_polynomial(d)
            k = len(phi) - 1
            quot = [0] * (len(num) - k)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = num[i + k]
                if c:
                    for j, p in enumerate(phi):
                        num[i + j] -= c * p
            assert not any(num[:k])
            num = quot
    return tuple(num)


class _Field(NamedTuple):
    """Integer data of Q(zeta_order) for the arithmetic of :class:`Scalar`."""

    order: int
    degree: int
    # zeta^m in the power basis, for m = 0, ..., order - 1
    powers: tuple[tuple[int, ...], ...]


# The largest r of any field, and so of any Scalar: each field holds an
# r x deg(Phi_r) power table, about 3 MB at r = 1000 and over 1 GB at 20000.
MAX_ORDER = 1000


@functools.lru_cache(maxsize=None)
def _field(order: int) -> _Field:
    if order > MAX_ORDER:
        raise ValueError(f"scalar order must be at most {MAX_ORDER}, got {order}")
    phi = cyclotomic_polynomial(order)
    degree = len(phi) - 1
    low = phi[:-1]  # Phi_order = x^d + low[d-1] x^(d-1) + ... + low[0]
    power = [1] + [0] * (degree - 1)
    powers = []
    for _ in range(order):
        powers.append(tuple(power))
        # multiply by z: shift up, then z^d = -low(z)
        top = power[-1]
        power = [0] + power[:-1]
        if top:
            power = [a - top * c for a, c in zip(power, low)]
    return _Field(order, degree, tuple(powers))


class Residues(NamedTuple):
    """The reduction Z[zeta_order] -> F_prime sending zeta to omega."""

    prime: int
    omega: int
    # omega^j mod prime, for j = 0, ..., deg(Phi_order) - 1
    powers: tuple[int, ...]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def residue_field(order: int) -> Residues:
    """The map Z[zeta_order] -> F_p of :meth:`Scalar.residue`, fixed by the order alone.

    p is the largest prime below 2^30 with p = 1 (mod order): residues
    then stay single-digit ints.  F_p^* is cyclic of order p - 1, so it
    holds an omega of exact order ``order``, the one of least base g in
    g^((p-1)/order).  Such an omega is a root of Phi_order mod p, so
    zeta -> omega is a ring map.

    >>> residue_field(1)[:2]
    (1073741789, 1)
    >>> p, omega, _ = residue_field(4)
    >>> p % 4, omega * omega % p == p - 1
    (1, True)
    """
    p = (2**30 - 2) // order * order + 1
    while not _is_prime(p):
        p -= order
    factors = {q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)}
    for g in range(2, p):
        omega = pow(g, (p - 1) // order, p)
        if all(pow(omega, order // q, p) != 1 for q in factors):
            break
    powers = [1]
    for _ in range(_field(order).degree - 1):
        powers.append(powers[-1] * omega % p)
    return Residues(p, omega, tuple(powers))


def _ratio(value: int | Fraction) -> tuple[int, int]:
    """Numerator and positive denominator of a rational operand; an inexact one is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a scalar operand must be an int or a Fraction, got {type(value).__name__}")
    return value.numerator, value.denominator


def _product(field: _Field, a: tuple[int, ...] | list[int], b: tuple[int, ...] | list[int]) -> list[int]:
    """Integer numerators of a * b modulo Phi_order."""
    if field.degree == 1:
        return [a[0] * b[0]]
    if field.degree == 2:
        a0, a1 = a
        b0, b1 = b
        p0, p1 = field.powers[2]  # z^2 = p0 + p1 z
        top = a1 * b1
        return [a0 * b0 + p0 * top, a0 * b1 + a1 * b0 + p1 * top]
    d = field.degree
    raw = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                raw[i + j] += ai * bj
    out = raw[:d]
    powers, order = field.powers, field.order
    for k in range(d, 2 * d - 1):
        c = raw[k]
        if c:
            for j, p in enumerate(powers[k % order]):
                out[j] += c * p
    return out


def _trim(p: list[int]) -> list[int]:
    """p without its zero leading coefficients (a zero p keeps one)."""
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _euclid(field: _Field, a: tuple[int, ...]) -> tuple[list[int], int]:
    """(s, n) with a * s = n modulo Phi_order, for a nonzero integer n.

    The extended Euclidean algorithm on integer polynomials: each
    remainder r of a against Phi_order carries the cofactor s with
    s * a = r modulo Phi_order.  A pseudo-division step scales the
    dividend by the divisor's lead; then the pair (r, s) is divided by its
    joint content.  Phi_order is irreducible, so the last remainder is a
    nonzero constant.
    """
    r0, s0 = list(cyclotomic_polynomial(field.order)), [0]
    r1, s1 = _trim(list(a)), [1]
    while len(r1) > 1:
        lead, d1 = r1[-1], len(r1) - 1
        while len(r0) > d1:
            c, k = r0[-1], len(r0) - 1 - d1
            g = gcd(lead, c)
            scale, c = lead // g, c // g
            r0 = [scale * x for x in r0]
            for i, y in enumerate(r1):
                r0[i + k] -= c * y
            s0 = [scale * x for x in s0] + [0] * (len(s1) + k - len(s0))
            for i, y in enumerate(s1):
                s0[i + k] -= c * y
            r0.pop()
            _trim(r0)
        g = gcd(*r0, *s0)
        if g != 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, r1, s0, s1 = r1, r0, s1, _trim(s0)
    return s1 + [0] * (field.degree - len(s1)), r1[0]


_new = object.__new__


def _make(order: int, num: tuple[int, ...] | list[int], den: int) -> Scalar:
    """The Scalar num / den (den > 0), brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    s = _new(Scalar)
    s._order = order
    s._num = tuple(num)
    s._den = den
    return s


class Scalar:
    """An element of Q(zeta_order), reduced modulo Phi_order.

    ``num[j] / den`` is the coefficient of zeta^j; ``num`` always has
    length deg Phi_order.  The form is canonical: den > 0,
    gcd(den, *num) == 1, and zero is (0, ..., 0) / 1.  Instances are
    immutable and hashable, and two scalars are equal iff they have the
    same order, numerators and denominator (operations between different
    orders are rejected, they are elements of different fields).

    ``Scalar(order, coeffs)`` takes int or Fraction coefficients;
    :attr:`coeffs` gives them back as Fractions.

    >>> x = Scalar(3, (Fraction(1, 2), Fraction(-3, 4)))
    >>> x.num, x.den
    ((2, -3), 4)
    >>> x.coeffs
    (Fraction(1, 2), Fraction(-3, 4))
    """

    __slots__ = ("_order", "_num", "_den")

    def __init__(self, order: int, coeffs: tuple[int | Fraction, ...] | list[int | Fraction]) -> None:
        degree = _field(order).degree
        ratios = [_ratio(c) for c in coeffs]
        if len(ratios) != degree:
            raise ValueError(f"Q(zeta_{order}) needs {degree} coefficients, got {len(ratios)}")
        # over the lcm of reduced denominators, gcd(den, *num) is already 1
        den = lcm(*(d for _, d in ratios))
        self._order = order
        self._num = tuple(n * (den // d) for n, d in ratios)
        self._den = den

    @property
    def order(self) -> int:
        return self._order

    @property
    def num(self) -> tuple[int, ...]:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[j]`` is the coefficient of zeta^j, as a Fraction."""
        return tuple(Fraction(a, self._den) for a in self._num)

    def residue(self) -> int | None:
        """The image in F_p under zeta -> omega (:func:`residue_field`).

        None when p divides the denominator, where the map is undefined.

        >>> p, omega, _ = residue_field(3)
        >>> (zeta(3) / 2).residue() * 2 % p == omega
        True
        >>> Scalar.of(Fraction(1, p), 3).residue() is None
        True
        """
        prime, _, powers = residue_field(self._order)
        if not self._den % prime:
            return None
        return sum(map(mul, self._num, powers)) * pow(self._den, -1, prime) % prime

    def _check(self, other: Scalar) -> None:
        if self._order != other._order:
            raise ValueError(f"mixed scalar orders: {self._order} and {other._order}")

    @staticmethod
    def of(value: int | Fraction, order: int) -> Scalar:
        n, d = _ratio(value)
        return _make(order, (n,) + (0,) * (_field(order).degree - 1), d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._num == other._num and self._den == other._den and self._order == other._order

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return any(self._num)

    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and not any(self._num[1:])

    def __add__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, Scalar):
            other = Scalar.of(other, self._order)
        self._check(other)
        if not any(other._num):
            return self
        if not any(self._num):
            return other
        da, db = self._den, other._den
        if da == db:
            return _make(self._order, list(map(add, self._num, other._num)), da)
        return _make(self._order, [a * db + b * da for a, b in zip(self._num, other._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, Scalar):
            other = Scalar.of(other, self._order)
        self._check(other)
        if not any(other._num):
            return self
        if not any(self._num):
            return -other
        da, db = self._den, other._den
        if da == db:
            return _make(self._order, list(map(sub, self._num, other._num)), da)
        return _make(self._order, [a * db - b * da for a, b in zip(self._num, other._num)], da * db)

    def __rsub__(self, other: int | Fraction) -> Scalar:
        return Scalar.of(other, self._order) - self

    def __neg__(self) -> Scalar:
        return _make(self._order, list(map(neg, self._num)), self._den)

    def __mul__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, Scalar):
            n, d = _ratio(other)
            return _make(self._order, [a * n for a in self._num], self._den * d)
        self._check(other)
        if not any(self._num) or other.is_one():
            return self
        if not any(other._num) or self.is_one():
            return other
        return _make(self._order, _product(_field(self._order), self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Multiplicative inverse, on the integer numerators.

        Phi_order is irreducible over Q, so every nonzero residue is a
        unit: :func:`_euclid` finds s and a nonzero integer n with
        a * s = n modulo Phi_order, and a^-1 = s / n.

        >>> print(zeta(5).inverse())
        -z^3 - z^2 - z - 1
        """
        a = self._num
        if not any(a):
            raise ZeroDivisionError("scalar inverse of zero")
        adj, n = _euclid(_field(self._order), a)
        if n < 0:
            n = -n
            adj = [-c for c in adj]
        return _make(self._order, [self._den * c for c in adj], n)

    def __truediv__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, Scalar):
            n, d = _ratio(other)
            if not n:
                raise ZeroDivisionError("scalar division by zero")
            if n < 0:
                n, d = -n, -d
            return _make(self._order, [a * d for a in self._num], self._den * n)
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other: int | Fraction) -> Scalar:
        return Scalar.of(other, self._order) / self

    def __pow__(self, exponent: int) -> Scalar:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = one(self._order)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self) -> str:
        coeffs = self.coeffs
        terms: list[str] = []
        for p in range(len(coeffs) - 1, -1, -1):
            c = coeffs[p]
            if not c:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                zpart = "z" if p == 1 else f"z^{p}"
                body = zpart if mag == 1 else f"{mag}*{zpart}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Scalar({self._order}, {self})"


@functools.lru_cache(maxsize=None)
def zero(order: int) -> Scalar:
    return Scalar.of(0, order)


@functools.lru_cache(maxsize=None)
def one(order: int) -> Scalar:
    return Scalar.of(1, order)


@functools.lru_cache(maxsize=None)
def zeta(order: int, power: int = 1) -> Scalar:
    """zeta_order^power as a Scalar.

    >>> print(zeta(4) * zeta(4))
    -1
    >>> zeta(1)
    Scalar(1, 1)
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    return _make(order, _field(order).powers[power % order], 1)


def rational(value: int | Fraction, order: int = 1) -> Scalar:
    return Scalar.of(value, order)


class ScalarParseError(ValueError):
    """Raised on malformed scalar text; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str) -> None:
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


class _Parser:
    """Recursive descent for the scalar grammar.

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | 'z' ('^' nat)? | '(' expr ')' | '-' factor
    rational := int ('/' nat)?
    """

    def __init__(self, text: str, order: int) -> None:
        self.text = text
        self.order = order
        self.pos = 0

    def error(self, message: str) -> ScalarParseError:
        return ScalarParseError(self.text, self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def factor(self) -> Scalar:
        ch = self.peek()
        if ch == "-":
            self.take()
            return -self.factor()
        if ch == "(":
            self.take()
            value = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return value
        if ch == "z":
            self.take()
            power = 1
            if self.peek() == "^":
                self.take()
                power = self.nat()
            return zeta(self.order, power)
        if ch.isdecimal():
            num = self.nat()
            if self.peek() == "/":
                self.take()
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator")
                return Scalar.of(Fraction(num, den), self.order)
            return Scalar.of(num, self.order)
        raise self.error("expected a factor")

    def term(self) -> Scalar:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                value = value + self.term()
            elif ch == "-":
                self.take()
                value = value - self.term()
            else:
                return value


def parse_scalar(text: str, order: int) -> Scalar:
    """Parse scalar text over Q(zeta_order).

    >>> parse_scalar("z^2", 3).coeffs
    (Fraction(-1, 1), Fraction(-1, 1))
    >>> print(parse_scalar("1/2 + z", 4))
    z + 1/2
    >>> print(parse_scalar("(1 - z)*(1 - z^2)", 3))
    3
    """
    parser = _Parser(text, order)
    value = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return value
