"""Exponents of rank-2 multiarrangements and Euler multiplicities.

A rank-2 multiarrangement is always free; its exponent pair {d1, d2}
with d1 <= d2 and d1 + d2 = |mu| is computed exactly.  The module
D(A, mu) of derivations theta = f1 d/dx + f2 d/dy with alpha^mu(H)
dividing theta(alpha) for every line alpha = ker H has a basis of
degrees d1 and d2.  One order-basis sweep over the divisibility
conditions (Beckermann-Labahn), :func:`_sweep`, is written once and run
over Q(zeta) for the solver and over F_p for the balance proof below.
Over Q(zeta) it builds such a basis in O(|mu|^2) exact scalar
operations.  Witnesses are certified by Saito's criterion: both
generators pass an independent polynomial-division check, their degrees
sum to |mu| and their determinant is nonzero.  ``verify_witness`` keeps
a kernel scan over all lower degrees as an independent oracle.

A pair with no witness (:func:`plane_exponent_pair`) is first sought
in closed form, then by the sweep run on ints modulo a prime
(:func:`_balanced_mod_p`): a rank can only drop under reduction, so a
lower degree of floor(|mu|/2) there proves the balanced pair exactly.
Only the planes this does not settle pay for the exact sweep.

The Euler multiplicity of a restriction has one route and one store,
:meth:`EulerPattern.values`, memoized in the pattern's own cache entry.
For a rank-2 localization, mu*(Y) is the unique common nonzero exponent
of (A_Y, mu_Y) and of its deletion at H0 (the common-value rule), both
pairs from :func:`plane_exponent_pair`, the one home of the rank-2
closed forms.  On a flat of two lines, Euler values and exponent pairs
are read from the multiplicities, with no plane built.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

from . import linalg
from .arrangement import Arrangement, MultiArrangement, hyperplane_flat, pivot_forms, restriction
from .scalars import Scalar, one, residue_field, zero

__all__ = [
    "EulerPattern",
    "Rank2Derivation",
    "Rank2Result",
    "canonical_plane",
    "derivation_satisfies",
    "euler_multiplicity",
    "euler_pattern",
    "indexed_plane",
    "is_saito_basis",
    "local_b2",
    "low_rank_exponents",
    "padded",
    "pair_for",
    "plane_exponent_pair",
    "plane_exponents",
    "rank2_exponents",
    "verify_witness",
]

# a plane system: ((a, b), multiplicity) per line, in 2 coordinates
Plane = tuple[tuple[tuple[Scalar, Scalar], int], ...]


class Rank2Derivation(NamedTuple):
    """theta = f1 d/dx + f2 d/dy, homogeneous of the given degree.

    ``f1[j]`` is the coefficient of x^(degree-j) y^j.
    """

    degree: int
    f1: tuple[Scalar, ...]
    f2: tuple[Scalar, ...]


class Rank2Result(NamedTuple):
    """Sorted exponent pair, witness, and the plane system it refers to.

    ``witness`` is None for supports of rank < 2, where the exponents are
    {0, |mu|} and there is nothing to certify.
    """

    exponents: tuple[int, int]
    witness: Rank2Derivation | None
    plane: Plane


def canonical_plane(lines: Iterable[tuple[tuple[Scalar, Scalar], int]]) -> Plane:
    """A plane system in canonical line order: the form key of the coordinates.

    The lines of one plane are distinct, so the coordinates alone decide
    the order: the second slot may carry any int, such as a hyperplane
    index, and the order found is then valid for every multiplicity.
    """
    return tuple(sorted(lines, key=lambda p: tuple((c.num, c.den) for c in p[0])))


@functools.lru_cache(maxsize=None)
def indexed_plane(arr: Arrangement, indices: tuple[int, ...]) -> Plane:
    """Canonical (line, index) pairs of a rank-2 set of hyperplanes of ``arr``.

    Each line carries its hyperplane index in place of a multiplicity,
    so the one order found serves every multiplicity vector.  Planes
    are made only here, and its cache is the one store of them.
    ``indices`` is always the closed set of a rank-2 flat: one of the
    :attr:`EulerPattern.flats`, which Euler values read and which
    :func:`_support_flat` gives every rank-2 state, or all of a 2-dim
    arrangement.  The lines are the forms in coordinates on their
    span (:func:`pivot_forms`), normalized as (1, b) for x + b*y or as (0, 1) for y.
    """
    rank, forms = pivot_forms([arr.hyperplanes[p].coeffs for p in indices], arr.dim)
    if rank != 2:
        raise ValueError(f"expected rank 2, got rank {rank}")
    return canonical_plane(zip((form.coeffs for form in forms), indices))


def _binomial_rows(line: tuple[Scalar, Scalar], mult: int, degree: int, order: int) -> list[list[Scalar]]:
    """Linear conditions on (f1, f2) for alpha^mult | a*f1 + b*f2.

    Writing g = a*f1 + b*f2 = sum_j g_j x^(d-j) y^j and substituting
    x = alpha - t*y (for alpha = x + t*y), divisibility by alpha^mult
    says the coefficients of alpha^s y^(d-s) vanish for s < mult.
    """
    a, b = line
    d = degree
    z = zero(order)
    rows: list[list[Scalar]] = []
    if not a:
        # alpha = y: the coefficients g_j with j < mult must vanish
        for j in range(min(mult, d + 1)):
            row = [z] * (2 * (d + 1))
            row[d + 1 + j] = one(order)
            rows.append(row)
        return rows
    t = b
    powers = [one(order)]
    for _ in range(d):
        powers.append(powers[-1] * -t)
    for s in range(min(mult, d + 1)):
        row = [z] * (2 * (d + 1))
        for j in range(d - s + 1):
            w = math.comb(d - j, s) * powers[d - j - s]
            row[j] = w
            row[d + 1 + j] = w * t
        rows.append(row)
    return rows


def _kernel(plane: Plane, degree: int, order: int) -> list[tuple[Scalar, ...]]:
    rows: list[list[Scalar]] = []
    for line, mult in plane:
        rows.extend(_binomial_rows(line, mult, degree, order))
    return linalg.nullspace(rows, 2 * (degree + 1), order)


def _divide_once(g: list[Scalar], line: tuple[Scalar, Scalar]) -> list[Scalar] | None:
    """Divide the homogeneous bivariate g by a*x + b*y; None if inexact.

    ``g[j]`` is the coefficient of x^(D-j) y^j.
    """
    a, b = line
    if not a:
        if g[0]:
            return None
        if b.is_one():
            return g[1:]
        binv = b.inverse()
        return [c * binv for c in g[1:]]
    if not a.is_one():
        ainv = a.inverse()
        g, b = [c * ainv for c in g], b * ainv
    q: list[Scalar] = []
    for j in range(len(g) - 1):
        q.append(g[j] - b * q[j - 1] if j else g[j])
    rem = g[-1] - (b * q[-1] if q else zero(a.order))
    if rem:
        return None
    return q


def derivation_satisfies(plane: Plane, theta: Rank2Derivation) -> bool:
    """Independent witness check: alpha^mult | theta(alpha) for each line.

    Uses repeated exact polynomial division, independent of the solver
    that produced the witness.  A witness whose coefficient lists do not
    have ``degree + 1`` entries fails, so its degree can be trusted.
    """
    if not len(theta.f1) == len(theta.f2) == theta.degree + 1 or not any(theta.f1 + theta.f2):
        return False
    for line, mult in plane:
        a, b = line
        pairs = zip(theta.f1, theta.f2)
        g = [c1 + b * c2 for c1, c2 in pairs] if a.is_one() else [a * c1 + b * c2 for c1, c2 in pairs]
        for _ in range(mult):
            if all(not c for c in g):
                break
            nxt = _divide_once(g, line)
            if nxt is None:
                return False
            g = nxt
    return True


def verify_witness(result: Rank2Result, order: int) -> bool:
    """Full re-validation of a solver result, from the definitions.

    Checks exact divisibility of the witness on every line, that its
    degree matches the smaller exponent, that the exponents sum to the
    multiplicity total, and that no nonzero derivation exists in any
    degree below the witness (minimality).  The minimality check solves
    the divisibility conditions as a linear system in each lower degree,
    so it is an oracle independent of the order-basis solver.
    """
    pair = result.exponents
    if result.witness is None:
        # only rank < 2 inputs go witnessless: {0, |mu|} and no plane
        return result.plane == () and pair[0] == 0
    theta = result.witness
    if theta.degree != pair[0] or pair[0] + pair[1] != sum(m for _, m in result.plane):
        return False
    if not derivation_satisfies(result.plane, theta):
        return False
    return all(not _kernel(result.plane, d, order) for d in range(pair[0]))


class _Ring(NamedTuple):
    """The arithmetic of one sweep: its constants, its inverse, the map that
    keeps a result canonical, and the image of a slope (None if it has none)."""

    zero: object
    one: object
    inverse: Callable
    reduce: Callable
    slope: Callable


def _identity(x):
    return x


@functools.lru_cache(maxsize=None)
def _exact(order: int) -> _Ring:
    """Q(zeta_order) on :class:`Scalar`, where nothing needs reducing."""
    return _Ring(zero(order), one(order), Scalar.inverse, _identity, _identity)


@functools.lru_cache(maxsize=None)
def _mod_p(order: int) -> _Ring:
    """F_p on plain ints, slopes reduced by :meth:`Scalar.residue`."""
    prime = residue_field(order).prime
    return _Ring(0, 1, lambda x: pow(x, -1, prime), lambda x: x % prime, Scalar.residue)


def _add_scaled(ring: _Ring, u: list, c, v: list) -> list:
    """Coefficients of u + c*v; the lists may differ in length."""
    out = u + [ring.zero] * (len(v) - len(u))
    if c:
        reduce = ring.reduce
        for k, x in enumerate(v):
            if x:
                out[k] = reduce(out[k] + c * x)
    return out


def _taylor(ring: _Ring, g: list, b, count: int) -> list:
    """The first ``count`` Taylor coefficients of g(x) at x = -b.

    Each one is the remainder of a synthetic division by x + b, whose
    quotient yields the next.
    """
    zero, reduce = ring.zero, ring.reduce
    out = []
    for _ in range(count):
        accs = []
        acc = zero
        for c in reversed(g):
            acc = reduce(c - b * acc) if b and acc else c
            accs.append(acc)
        out.append(accs.pop() if accs else zero)
        g = accs[::-1]
    return out


def _sweep(ring: _Ring, plane: Plane) -> tuple[list[int], list[tuple[list, list]]] | None:
    """The shifted degrees and vectors of an M-Pade order basis over ``ring``.

    This is the Beckermann-Labahn order basis (SIAM J. Matrix Anal.
    Appl. 15, 1994) for two unknowns.  At y = 1 a derivation is a pair
    (f1, f2) of polynomials in x.  The line y of multiplicity s asks
    y^s | f2 in degree d, i.e. deg f2 <= d - s, so it enters only as the
    degree shift (0, s).  Every other line x + b*y of multiplicity m asks
    the Taylor coefficients of orders j < m of f1 + b*f2 at x = -b to
    vanish.  Starting from {(1, 0), (0, 1)}, each condition is met by
    eliminating with the vector of lower shifted degree as the pivot and
    then multiplying the pivot by x + b.  That keeps the basis
    shifted-reduced, so its shifted degrees are the exponents, and it
    costs O(|mu|^2) ring operations.  Lines must be normalized as by
    :func:`indexed_plane`.  None when a slope has no image in the ring
    or two slopes meet there.
    """
    shift = next((mult for (a, _), mult in plane if not a), 0)
    lines = [(ring.slope(b), mult) for (a, b), mult in plane if a]
    slopes = dict(lines)  # slope in the ring -> multiplicity
    if None in slopes or len(slopes) < len(lines):
        return None
    zero = ring.zero
    vecs = [([ring.one], []), ([], [ring.one])]  # (f1, f2), ascending in x
    degrees = [0, shift]
    for b, mult in slopes.items():
        # kept in step with vecs: Taylor coefficients of f1 + b*f2 at -b
        taylor = [_taylor(ring, _add_scaled(ring, f1, b, f2), b, mult) for f1, f2 in vecs]
        for j in range(mult):
            live = [i for i in (0, 1) if taylor[i][j]]
            if not live:
                continue
            p = min(live, key=degrees.__getitem__)
            q = 1 - p
            if taylor[q][j]:
                c = ring.reduce(-(taylor[q][j] * ring.inverse(taylor[p][j])))
                vecs[q] = tuple(_add_scaled(ring, u, c, v) for u, v in zip(vecs[q], vecs[p]))
                taylor[q] = _add_scaled(ring, taylor[q], c, taylor[p])
            vecs[p] = tuple(_add_scaled(ring, [zero] + f, b, f) for f in vecs[p])  # (x + b) * f
            taylor[p] = [zero] + taylor[p][:-1]
            degrees[p] += 1
    return degrees, vecs


def _order_basis(plane: Plane, order: int) -> tuple[Rank2Derivation, Rank2Derivation]:
    """A basis of D(A, mu) of minimal degrees: :func:`_sweep` over Q(zeta).

    Returns the homogenized generators, lower degree first.
    """
    degrees, vecs = _sweep(_exact(order), plane)

    def homogenized(degree: int, f: list[Scalar]) -> tuple[Scalar, ...]:
        # the coefficient of x^(degree-j) y^j is that of x^(degree-j)
        return tuple(reversed(f + [zero(order)] * (degree + 1 - len(f))))

    low, high = sorted(
        (Rank2Derivation(d, homogenized(d, f1), homogenized(d, f2)) for d, (f1, f2) in zip(degrees, vecs)),
        key=lambda theta: theta.degree,
    )
    return low, high


def _balanced_mod_p(plane: Plane, order: int) -> bool:
    """Whether :func:`_sweep` over F_p proves the pair balanced.

    The plane is reduced along Z[zeta] -> F_p (:func:`residue_field`),
    and the exact solver's own sweep runs on plain ints mod p.
    It returns True when its lower degree is floor(|mu|/2), and that
    proves the exact pair is {floor(|mu|/2), ceil(|mu|/2)}:

    - the degree-d conditions of D(A, mu) are linear, with entries
      integer polynomials in the slopes;
    - their rank over F_p is at most their rank over Q(zeta), as every
      minor reduces mod p.  The sweep over F_p is exact for the reduced
      lines, so no derivation of degree d < floor(|mu|/2) exists over
      F_p, and then none exists over Q(zeta) either: d1 >= floor(|mu|/2);
    - d1 <= d2 and d1 + d2 = |mu| give d1 <= floor(|mu|/2).

    It declines, returning False, when p divides a slope's denominator
    or two slopes meet mod p (the reduced lines are then not the plane's
    own), and when the F_p lower degree is smaller; the caller then runs
    the exact sweep.  Only Python ints are used, no :class:`Scalar` ops.

    >>> from .scalars import rational
    >>> o = one(1)
    >>> lines = ((o, rational(0)), (rational(0), o), (o, o), (o, rational(-1)))
    >>> _balanced_mod_p(tuple((l, 2) for l in lines), 1)
    True
    >>> _balanced_mod_p(tuple((l, 3) for l in lines), 1)  # exactly (5, 7)
    False
    """
    swept = _sweep(_mod_p(order), plane)
    return swept is not None and min(swept[0]) == sum(mult for _, mult in plane) // 2


def _evaluate(coeffs: tuple[Scalar, ...], x0: int) -> Scalar:
    """A homogeneous polynomial, coefficients as in Rank2Derivation, at (x0, 1)."""
    acc = zero(coeffs[0].order)
    for c in coeffs:
        acc = acc * x0 + c
    return acc


def is_saito_basis(plane: Plane, basis: tuple[Rank2Derivation, Rank2Derivation]) -> bool:
    """Saito's criterion for multiarrangements (Ziegler 1989), in rank 2.

    theta, eta in D(A, mu) form a basis iff deg theta + deg eta = |mu|
    and their determinant f1(theta) f2(eta) - f2(theta) f1(eta) is
    nonzero.  Membership is checked by :func:`derivation_satisfies`.
    Given both, the determinant is c * prod alpha^mu, so it is tested at
    one point (x0, 1) on none of the lines; a nonzero value there proves
    independence outright.
    """
    theta, eta = basis
    if theta.degree + eta.degree != sum(mult for _, mult in plane):
        return False
    if not (derivation_satisfies(plane, theta) and derivation_satisfies(plane, eta)):
        return False
    x0 = next(n for n in range(len(plane) + 1) if all(a * n + b for (a, b), _ in plane))
    det = _evaluate(theta.f1, x0) * _evaluate(eta.f2, x0) - _evaluate(theta.f2, x0) * _evaluate(eta.f1, x0)
    return bool(det)


@functools.lru_cache(maxsize=None)
def plane_exponents(plane: Plane, order: int) -> tuple[tuple[int, int], Rank2Derivation]:
    """Exponents and minimal-degree witness for a plane system.

    Needs at least two distinct lines, normalized as by
    :func:`indexed_plane`.  The two generators of the order basis
    (:func:`_order_basis`) are certified by Saito's criterion
    (:func:`is_saito_basis`): both lie in D(A, mu), their degrees sum to
    |mu| and their determinant is nonzero.  So they form a basis, and
    the lower one is a witness of minimal degree.
    """
    if len(plane) < 2:
        raise ValueError("plane system needs at least two lines")
    basis = _order_basis(plane, order)
    if not is_saito_basis(plane, basis):
        raise ArithmeticError("order basis failed Saito's criterion")
    low, high = basis
    return (low.degree, high.degree), low


@functools.lru_cache(maxsize=None)
def plane_exponent_pair(plane: Plane, order: int) -> tuple[int, int]:
    """Exponent pair of a plane system, by closed form where one exists.

    Four shapes have geometry-independent exponents and skip the solver:

    - two lines: {m1, m2};
    - k >= 3 lines with |mu| <= 2k - 1: {k - 1, |mu| - k + 1}, the simple
      case |mu| = k among them.  D(A, mu) lies in D(A), which has a basis
      theta_E, theta_2 of degrees 1 and k - 1, so every derivation of
      degree below k - 1 is f * theta_E.  That lies in D(A, mu) exactly
      when alpha_H^(mu_H - 1) divides f for every line H, which needs
      deg f >= |mu| - k.  Hence d1 = min(k - 1, |mu| - k + 1) whenever
      |mu| <= 2k - 1, as then d1 <= |mu| / 2 < k;
    - one line carrying at least half the total: {|mu| - max, max},
      since below degree max the heavy coordinate of a derivation is
      forced to zero and the rest must be divisible by every other line;
    - three lines: {floor(|mu|/2), ceil(|mu|/2)} in the remaining
      balanced case (any three distinct concurrent lines are linearly
      equivalent, so only the multiplicities matter).

    Everything else is first reduced modulo a prime: when the same sweep
    over F_p (:func:`_balanced_mod_p`) finds the lower degree
    floor(|mu|/2), that proves the balanced pair.  Otherwise, or when the
    reduction declines, the exact order-basis solver (:func:`_order_basis`)
    runs and returns its degrees; it is the one route to an unbalanced
    pair here.  Both skip the Saito certificate that
    :func:`plane_exponents` adds.  Tests cross-check every closed form,
    the F_p proof and the solver against the certified route and a
    kernel-scan oracle on random systems.

    >>> from .scalars import one, rational
    >>> o = one(1)
    >>> lines = ((o, rational(0)), (rational(0), o), (o, o), (o, rational(-1)))
    >>> plane_exponent_pair(tuple((l, 1) for l in lines), 1)
    (1, 3)
    >>> plane_exponent_pair(tuple((l, m) for l, m in zip(lines, (5, 1, 2, 1))), 1)
    (4, 5)
    >>> plane_exponent_pair(tuple((l, m) for l, m in zip(lines, (3, 1, 2, 2))), 1)
    (3, 5)
    """
    k = len(plane)
    if k < 2:
        raise ValueError("plane system needs at least two lines")
    mults = [m for _, m in plane]
    total = sum(mults)
    if k == 2:
        return (min(mults), max(mults))
    if total <= 2 * k - 1:
        low = min(k - 1, total - k + 1)
        return (low, total - low)
    heavy = max(mults)
    if 2 * heavy >= total:
        return (total - heavy, heavy)
    if k == 3 or _balanced_mod_p(plane, order):
        return (total // 2, total - total // 2)
    low, high = _order_basis(plane, order)
    return (low.degree, high.degree)


def rank2_exponents(m: MultiArrangement) -> Rank2Result | None:
    """Exponent pair {d1, d2}, d1 <= d2, of a state of support rank <= 2; None for rank >= 3.

    Zeros are allowed.  A support of fewer than two hyperplanes gives
    {0, |mu|} and no witness; a rank-2 support gets a verified
    minimal-degree witness on the plane of its flat (:func:`_support_flat`),
    zero lines dropped, which is the plane of the support's own copy.
    """
    arr, mult = m
    if sum(1 for mu in mult if mu) < 2:
        return Rank2Result((0, m.total), None, ())
    flat = _support_flat(arr, mult)
    if flat is None:
        return None
    canonical = tuple((line, mult[i]) for line, i in indexed_plane(arr, flat) if mult[i])
    pair, witness = plane_exponents(canonical, arr.zeta_order)
    return Rank2Result(pair, witness, canonical)


def pair_for(plane: Plane, order: int) -> tuple[int, int]:
    """Exponent pair of a canonical plane system that may have rank < 2.

    Zero multiplicities are dropped; the lines of a plane are distinct,
    so what is left is still in canonical order.
    """
    active = tuple((l, m) for l, m in plane if m > 0)
    if not active:
        return (0, 0)
    if len(active) == 1:
        return (0, active[0][1])
    return plane_exponent_pair(active, order)


def common_value(plane: Plane, h0: int, order: int) -> int:
    """mu*(Y) by the common-value rule, everything in plane coordinates.

    ``plane`` holds the lines of the localization (A_Y, mu_Y) in
    canonical order (:func:`canonical_plane`), zero multiplicities
    allowed, and ``plane[h0]`` is the distinguished line.  The value is
    the unique common nonzero exponent of (A_Y, mu_Y) and of its
    deletion at that line; its existence and uniqueness is a theorem,
    so a violation signals corrupted input (or a bug) and raises rather
    than guessing.
    """
    line, m0 = plane[h0]
    full = pair_for(plane, order)
    deleted = pair_for(plane[:h0] + ((line, m0 - 1),) + plane[h0 + 1 :], order)
    s1 = {e for e in full if e}
    s2 = {e for e in deleted if e}
    shared = s1 & s2
    if len(shared) != 1:
        raise ArithmeticError(f"no unique common nonzero exponent: {full} vs {deleted}")
    return shared.pop()


class EulerPattern:
    """The Euler restriction of one arrangement at one hyperplane h0.

    ``arrangement`` is the restriction A'' to h0, and ``groups[gid]``
    lists the parent hyperplanes that restrict onto its hyperplane gid;
    ``mults[gid]`` reads the multiplicities of h0 and of that group's
    members from a parent multiplicity vector, the key under which
    :meth:`values` memoizes the group's value, and ``trace[p]`` is the
    gid of parent p (None for h0).  ``flats[gid]``, h0 and the group
    sorted, is the closed set of a rank-2 flat Y: the same key for every
    h0 in Y, under which :func:`indexed_plane` keeps Y's one plane.
    """

    __slots__ = ("parent", "h0", "arrangement", "trace", "groups", "flats", "mults", "_values")

    def __init__(self, parent: Arrangement, h0: int) -> None:
        res = restriction(parent, hyperplane_flat(parent, h0))
        self.parent = parent
        self.h0 = h0
        self.arrangement = res.arrangement
        self.trace = res.trace
        self.groups = res.groups
        self.flats = tuple(tuple(sorted((h0, *members))) for members in res.groups)
        self.mults = tuple(operator.itemgetter(h0, *members) for members in res.groups)
        self._values: dict[tuple[int, tuple[int, ...]], int] = {}

    def value(self, gid: int, mult: Sequence[int]) -> int:
        """mu* on restricted hyperplane gid, for parent multiplicities ``mult``.

        Zeros are allowed as long as h0 is nonzero: the value is that of
        the support, and 0 when no member of the group is in it.  A
        group of one member spans a flat of two lines, where the
        common-value rule gives that member's multiplicity.
        """
        members = self.groups[gid]
        if len(members) == 1:
            return mult[members[0]]
        if not any(mult[p] for p in members):
            return 0
        lines = indexed_plane(self.parent, self.flats[gid])
        at = [p for _, p in lines].index(self.h0)
        return common_value(tuple((line, mult[p]) for line, p in lines), at, self.parent.zeta_order)

    def values(self, mult: Sequence[int]) -> tuple[int, ...]:
        """mu* of every restricted hyperplane, for parent multiplicities ``mult``.

        Each value is memoized under its group's :attr:`mults` reading of
        ``mult``, so searches and :func:`euler_multiplicity` share it.
        """
        memo = self._values
        out = []
        for gid, mults in enumerate(self.mults):
            key = (gid, mults(mult))
            value = memo.get(key)
            if value is None:
                value = memo[key] = self.value(gid, mult)
            out.append(value)
        return tuple(out)


@functools.lru_cache(maxsize=None)
def euler_pattern(arr: Arrangement, h0: int) -> EulerPattern:
    """The shared :class:`EulerPattern` of ``arr`` at hyperplane index h0."""
    return EulerPattern(arr, h0)


def _flat_pair(arr: Arrangement, flat: tuple[int, ...], mult: Sequence[int]) -> tuple[int, ...]:
    """Exponent pair of (arr, mult) localized at the closed set of a rank-2
    flat, zeros allowed: two lines x^a * y^b give (a, b) sorted with no
    plane built, more go through the flat's plane (:func:`pair_for`)."""
    if len(flat) == 2:
        return tuple(sorted(mult[p] for p in flat))
    return pair_for(tuple((line, mult[p]) for line, p in indexed_plane(arr, flat)), arr.zeta_order)


def padded(values: Iterable[int], dim: int) -> tuple[int, ...]:
    """Sorted nonzero ``values`` padded with zeros to ``dim`` entries."""
    nonzero = sorted(v for v in values if v)
    if len(nonzero) > dim:
        raise ValueError(f"{len(nonzero)} exponents will not fit in rank {dim}")
    return (0,) * (dim - len(nonzero)) + tuple(nonzero)


def local_b2(m: MultiArrangement) -> int:
    """b2(A, mu), the sum of d1^X * d2^X over the rank-2 flats X: the distinct
    :attr:`EulerPattern.flats`, each pair from :func:`_flat_pair`.  A free
    (A, mu) with exponents E has b2 = e2(E) (Abe-Terao-Wakefield, Adv.
    Math. 2007)."""
    arr, mult = m
    flats = {flat for h in range(arr.n) for flat in euler_pattern(arr, h).flats}
    return sum(d1 * d2 for d1, d2 in (_flat_pair(arr, flat, mult) for flat in flats))


def _support_flat(arr: Arrangement, mult: Sequence[int]) -> tuple[int, ...] | None:
    """Closed set of the rank-2 flat through the first two hyperplanes of the
    support of ``mult`` (two or more), or None when the support leaves it; in
    dimension <= 2, all of ``arr``.  Plane coordinates depend only on the row
    space, so a support inside the flat has the flat's plane."""
    if arr.dim <= 2:
        return tuple(range(arr.n))
    support = (i for i, m in enumerate(mult) if m)
    pat = euler_pattern(arr, next(support))
    flat = pat.flats[pat.trace[next(support)]]
    return flat if sum(mult[p] for p in flat) == sum(mult) else None


def low_rank_exponents(arr: Arrangement, mult: Sequence[int]) -> tuple[int, ...] | None:
    """Exponents of the state (arr, mult), zeros allowed, padded to arr.dim;
    None when its support has rank >= 3.  Read on its :func:`_support_flat`,
    the one lookup :func:`rank2_exponents` shares."""
    if sum(1 for m in mult if m) < 2:
        return padded((sum(mult),), arr.dim)
    flat = _support_flat(arr, mult)
    return None if flat is None else padded(_flat_pair(arr, flat, mult), arr.dim)


def euler_multiplicity(m: MultiArrangement, h0: int) -> MultiArrangement:
    """The Euler restriction (A'', mu*) of (A, mu) at hyperplane index h0.

    mu may be 0 away from h0 (:meth:`EulerPattern.value`); mu* less its
    zeros is then that of the support, up to hyperplane order and labels.
    """
    pat = euler_pattern(m.arrangement, h0)
    return MultiArrangement(pat.arrangement, pat.values(m.mult))
