"""Exponents of rank-2 multiarrangements and Euler multiplicities.

A rank-2 multiarrangement is always free; its exponent pair {d1, d2}
with d1 <= d2 and d1 + d2 = |mu| is computed exactly.  The module
D(A, mu) of derivations theta = f1 d/dx + f2 d/dy with alpha^mu(H)
dividing theta(alpha) for every line alpha = ker H has a basis of
degrees d1 and d2.  One order-basis sweep over the divisibility
conditions (Beckermann-Labahn) builds such a basis in O(|mu|^2) exact
scalar operations.  Witnesses are certified by Saito's criterion: both
generators pass an independent polynomial-division check, their degrees
sum to |mu| and their determinant is nonzero.  ``verify_witness`` keeps
a kernel scan over all lower degrees as an independent oracle.

The Euler multiplicity of a restriction is computed by the common-value
rule: for a rank-2 localization, mu*(Y) is the unique common nonzero
exponent of (A_Y, mu_Y) and of its deletion at H0.  Closed-form
shortcuts for special shapes are provided separately
(:func:`euler_value_shortcut`) so tests can cross-check the two routes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import linalg
from .arrangement import MultiArrangement, hyperplane_flat, multi, restriction
from .scalars import Scalar, one, zero

__all__ = [
    "Rank2Derivation",
    "Rank2Result",
    "canonical_plane",
    "derivation_satisfies",
    "euler_deletion",
    "euler_multiplicity",
    "euler_value_shortcut",
    "is_saito_basis",
    "plane_coordinates",
    "plane_exponent_pair",
    "plane_exponents",
    "rank2_exponents",
    "reduce_to_plane",
    "triple",
    "verify_witness",
]

# a plane system: ((a, b), multiplicity) per line, in 2 coordinates
Plane = tuple[tuple[tuple[Scalar, Scalar], int], ...]


@dataclass(frozen=True, slots=True)
class Rank2Derivation:
    """theta = f1 d/dx + f2 d/dy, homogeneous of the given degree.

    ``f1[j]`` is the coefficient of x^(degree-j) y^j.
    """

    degree: int
    f1: tuple[Scalar, ...]
    f2: tuple[Scalar, ...]


@dataclass(frozen=True, slots=True)
class Rank2Result:
    """Sorted exponent pair, witness, and the plane system it refers to.

    ``witness`` is None for inputs of rank < 2, where the exponents are
    {0, |mu|} and there is nothing to certify.
    """

    exponents: tuple[int, int]
    witness: Rank2Derivation | None
    plane: Plane


def plane_coordinates(rows: Sequence[Sequence[Scalar]], dim: int, order: int) -> list[tuple[Scalar, Scalar]]:
    """Each of a rank-2 family of forms in two canonical coordinates.

    The coordinates are the pivot columns of the RREF of the forms, so
    the reduction is deterministic; each line comes out normalized, as
    (1, b) for x + b*y or as (0, 1) for y.
    """
    _, pivots = linalg.rref(rows, dim)
    if len(pivots) != 2:
        raise ValueError(f"expected rank 2, got rank {len(pivots)}")
    p1, p2 = pivots
    out = []
    for row in rows:
        # row = row[p1] * rref_row1 + row[p2] * rref_row2 since the RREF
        # rows have an identity pattern in the pivot columns
        a, b = row[p1], row[p2]
        out.append((one(order), b * a.inverse()) if a else (a, one(order)))
    return out


def canonical_plane(lines: Iterable[tuple[tuple[Scalar, Scalar], int]]) -> Plane:
    """A plane system in canonical line order: coordinates, then multiplicity."""
    return tuple(sorted(lines, key=lambda p: (tuple(c.sort_key() for c in p[0]), p[1])))


def reduce_to_plane(m: MultiArrangement) -> Plane:
    """Express a rank-2 multiarrangement in two canonical coordinates."""
    arr = m.arrangement
    lines = plane_coordinates([f.coeffs for f in arr.hyperplanes], arr.dim, arr.zeta_order)
    return tuple(zip(lines, m.mult))


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
        binv = b.inverse()
        return [c * binv for c in g[1:]]
    q: list[Scalar] = []
    ainv = a.inverse()
    for j in range(len(g) - 1):
        num = g[j] - b * q[j - 1] if j else g[j]
        q.append(num * ainv)
    rem = g[-1] - (b * q[-1] if q else zero(a.order))
    if rem:
        return None
    return q


def derivation_satisfies(plane: Plane, theta: Rank2Derivation) -> bool:
    """Independent witness check: alpha^mult | theta(alpha) for each line.

    Uses repeated exact polynomial division, independent of the solver
    that produced the witness.
    """
    if not any(theta.f1) and not any(theta.f2):
        return False
    for line, mult in plane:
        a, b = line
        g = [a * c1 + b * c2 for c1, c2 in zip(theta.f1, theta.f2)]
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


def _add_scaled(u: list[Scalar], c: Scalar, v: list[Scalar]) -> list[Scalar]:
    """Coefficients of u + c*v; the lists may differ in length."""
    out = u + [zero(c.order)] * (len(v) - len(u))
    for k, x in enumerate(v):
        if x:
            out[k] = out[k] + c * x
    return out


def _times_linear(f: list[Scalar], b: Scalar) -> list[Scalar]:
    """Coefficients of (x + b) * f, ascending in x."""
    out = [zero(b.order)] + f
    if b:
        for k, c in enumerate(f):
            if c:
                out[k] = out[k] + b * c
    return out


def _taylor(g: list[Scalar], b: Scalar, count: int) -> list[Scalar]:
    """The first ``count`` Taylor coefficients of g(x) at x = -b.

    Each one is the remainder of a synthetic division by x + b, whose
    quotient yields the next.
    """
    out: list[Scalar] = []
    for _ in range(count):
        accs: list[Scalar] = []
        acc = zero(b.order)
        for c in reversed(g):
            acc = c - b * acc if b and acc else c
            accs.append(acc)
        out.append(accs.pop() if accs else zero(b.order))
        g = accs[::-1]
    return out


def _order_basis(plane: Plane, order: int) -> tuple[Rank2Derivation, Rank2Derivation]:
    """A basis of D(A, mu) of minimal degrees, by an M-Pade order-basis sweep.

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
    costs O(|mu|^2) scalar operations.  Lines must be normalized as by
    :func:`plane_coordinates`.  Returns the homogenized generators,
    lower degree first.
    """
    shift = next((mult for (a, _), mult in plane if not a), 0)
    vecs = [([one(order)], []), ([], [one(order)])]  # (f1, f2), ascending in x
    degrees = [0, shift]
    for (a, b), mult in plane:
        if not a:
            continue
        # kept in step with vecs: Taylor coefficients of f1 + b*f2 at -b
        taylor = [_taylor(_add_scaled(f1, b, f2), b, mult) for f1, f2 in vecs]
        for j in range(mult):
            live = [i for i in (0, 1) if taylor[i][j]]
            if not live:
                continue
            p = min(live, key=lambda i: degrees[i])
            q = 1 - p
            if taylor[q][j]:
                c = -(taylor[q][j] * taylor[p][j].inverse())
                vecs[q] = (_add_scaled(vecs[q][0], c, vecs[p][0]), _add_scaled(vecs[q][1], c, vecs[p][1]))
                taylor[q] = _add_scaled(taylor[q], c, taylor[p])
            vecs[p] = (_times_linear(vecs[p][0], b), _times_linear(vecs[p][1], b))
            taylor[p] = [zero(order)] + taylor[p][:-1]
            degrees[p] += 1

    def homogenized(degree: int, f: list[Scalar]) -> tuple[Scalar, ...]:
        # the coefficient of x^(degree-j) y^j is that of x^(degree-j)
        return tuple(reversed(f + [zero(order)] * (degree + 1 - len(f))))

    low, high = sorted(
        (Rank2Derivation(d, homogenized(d, f1), homogenized(d, f2)) for d, (f1, f2) in zip(degrees, vecs)),
        key=lambda theta: theta.degree,
    )
    return low, high


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
    :func:`plane_coordinates`.  The two generators of the order basis
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
    - all multiplicities 1: {1, k - 1} (the simple case);
    - one line carrying at least half the total: {|mu| - max, max},
      since below degree max the heavy coordinate of a derivation is
      forced to zero and the rest must be divisible by every other line;
    - three lines: {floor(|mu|/2), ceil(|mu|/2)} in the remaining
      balanced case (any three distinct concurrent lines are linearly
      equivalent, so only the multiplicities matter).

    Everything else goes to the order-basis solver (:func:`_order_basis`)
    and returns its degrees; this route skips the Saito certificate that
    :func:`plane_exponents` adds.  Tests cross-check every shortcut and
    the solver against the certified route and a kernel-scan oracle on
    random systems.

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
    heavy = max(mults)
    if all(m == 1 for m in mults):
        return (1, k - 1)
    if 2 * heavy >= total:
        return (total - heavy, heavy)
    if k == 3:
        return (total // 2, total - total // 2)
    low, high = _order_basis(plane, order)
    return (low.degree, high.degree)


@functools.lru_cache(maxsize=None)
def rank2_exponents(m: MultiArrangement) -> Rank2Result:
    """Exponent pair {d1, d2}, d1 <= d2, of a multiarrangement of rank <= 2.

    Rank 0 gives {0, 0}; a single hyperplane of multiplicity k gives
    {0, k}; genuine rank-2 inputs also return a verified minimal-degree
    witness over canonical plane coordinates.
    """
    arr = m.arrangement
    if arr.n == 0:
        return Rank2Result((0, 0), None, ())
    rk = linalg.rank([f.coeffs for f in arr.hyperplanes], arr.dim)
    if rk == 1:
        return Rank2Result((0, m.total), None, ())
    canonical = canonical_plane(reduce_to_plane(m))
    pair, witness = plane_exponents(canonical, arr.zeta_order)
    return Rank2Result(pair, witness, canonical)


def euler_value_shortcut(m0: int, others: tuple[int, ...]) -> int | None:
    """Closed-form Euler multiplicity for special local shapes.

    ``m0`` is the multiplicity of the distinguished hyperplane, ``others``
    those of the remaining hyperplanes through the same rank-2 flat.
    Returns None when no shortcut applies.  Used as an independent
    cross-check of (and fast path for) the common-value rule.
    """
    k = len(others) + 1
    if k == 2:
        return others[0]
    total = m0 + sum(others)
    if total <= 2 * k - 1 and m0 > 1:
        return k - 1
    if m0 == 2 and all(o == 2 for o in others):
        return k
    return None


def _pair_for(lines: Plane, order: int) -> tuple[int, int]:
    """Exponent pair of a plane system that may have rank < 2."""
    active = tuple((l, m) for l, m in lines if m > 0)
    if not active:
        return (0, 0)
    if len(active) == 1:
        return (0, active[0][1])
    return plane_exponent_pair(canonical_plane(active), order)


def common_value(h0_line: tuple[Scalar, Scalar], m0: int, others: Plane, order: int) -> int:
    """mu*(Y) by the common-value rule, everything in plane coordinates.

    The unique common nonzero exponent of (A_Y, mu_Y) and of its
    deletion at the distinguished line; its existence and uniqueness is
    a theorem, so a violation signals corrupted input (or a bug) and
    raises rather than guessing.
    """
    full = _pair_for(others + ((h0_line, m0),), order)
    deleted = _pair_for(others + ((h0_line, m0 - 1),), order)
    s1 = {e for e in full if e}
    s2 = {e for e in deleted if e}
    shared = s1 & s2
    if len(shared) != 1:
        raise ArithmeticError(f"no unique common nonzero exponent: {full} vs {deleted}")
    return shared.pop()


@functools.lru_cache(maxsize=None)
def euler_multiplicity(m: MultiArrangement, h0: int) -> MultiArrangement:
    """The Euler restriction (A'', mu*) of (A, mu) at hyperplane index h0.

    For every Y in A'' the localization (A_Y, mu_Y) is rank 2; mu*(Y) is
    its common-value Euler multiplicity (with the closed-form shortcut
    taken where it provably applies).
    """
    arr = m.arrangement
    res = restriction(arr, hyperplane_flat(arr, h0))
    groups: list[list[int]] = [[] for _ in range(res.arrangement.n)]
    for parent, target in enumerate(res.trace):
        if target is not None:
            groups[target].append(parent)
    values: list[int] = []
    m0 = m.mult[h0]
    h0_form = arr.hyperplanes[h0]
    for members in groups:
        other_mults = tuple(m.mult[p] for p in members)
        value = euler_value_shortcut(m0, other_mults)
        if value is None:
            # localize at the rank-2 flat spanned by h0 and the group
            rows = [arr.hyperplanes[p].coeffs for p in members] + [h0_form.coeffs]
            *lines, h0_line = plane_coordinates(rows, arr.dim, arr.zeta_order)
            value = common_value(h0_line, m0, tuple(zip(lines, other_mults)), arr.zeta_order)
        values.append(value)
    return MultiArrangement(res.arrangement, tuple(values))


def euler_deletion(m: MultiArrangement, h0: int) -> MultiArrangement:
    """(A', mu'): multiplicity of h0 lowered by one (dropped at zero)."""
    if m.mult[h0] < 1:
        raise ValueError("cannot delete a hyperplane of multiplicity 0")
    lowered = list(m.mult)
    lowered[h0] -= 1
    return multi(m.arrangement, lowered)


def triple(m: MultiArrangement, h0: int) -> tuple[MultiArrangement, MultiArrangement]:
    """The (deletion, Euler restriction) pair of (A, mu) at h0."""
    return euler_deletion(m, h0), euler_multiplicity(m, h0)
