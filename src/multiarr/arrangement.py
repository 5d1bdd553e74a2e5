"""Hyperplane arrangements and multiarrangements over Q(zeta_r).

Conventions used throughout the package:

- a hyperplane is the kernel of a nonzero linear form; forms are stored
  normalized (first nonzero coefficient equals 1), so equal hyperplanes
  have equal forms;
- an :class:`Arrangement` is an ordered tuple of pairwise distinct
  hyperplanes together with parallel labels; the order is significant
  (labels like ``a5`` refer to positions) but all mathematical results
  are independent of it;
- a :class:`MultiArrangement` pairs an arrangement with multiplicities
  >= 0; a sub-multiarrangement is a state of its parent, zeros kept, and
  :func:`multi` drops them only where a standalone arrangement is the output;
- :func:`state_key`, built on :func:`form_keys`, is the one content key:
  it ignores hyperplane order and zero multiplicities;
- a :class:`Flat` is an intersection of hyperplanes, recorded by its
  closed index set, its rank and canonical defining equations (reduced
  row echelon basis of the span of its forms, with their pivots);
- a subspace gets coordinates one way: the forms spanning it are read at
  the pivot columns of their echelon basis (:func:`pivot_forms`).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NamedTuple

from . import linalg
from .scalars import Scalar

__all__ = [
    "Arrangement",
    "Flat",
    "LinearForm",
    "MultiArrangement",
    "Restriction",
    "arrangement",
    "characteristic_polynomial",
    "concentrated_multiplicity",
    "essentialize",
    "form_keys",
    "free_exponents_from_charpoly",
    "hyperplane_flat",
    "intersection_lattice",
    "linear_form",
    "localize_multi",
    "multi",
    "pivot_forms",
    "rank_of",
    "restriction",
    "simple_multi",
    "state_key",
    "ziegler_multiplicity",
]


class LinearForm(NamedTuple):
    """A normalized linear form; the hyperplane is its kernel."""

    coeffs: tuple[Scalar, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


def linear_form(coeffs: tuple[Scalar, ...] | list[Scalar]) -> LinearForm:
    """Normalize so the first nonzero coefficient is 1."""
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        raise ValueError("zero linear form does not define a hyperplane")
    if lead.is_one():
        return LinearForm(tuple(coeffs))
    inv = lead.inverse()
    return LinearForm(tuple(c * inv for c in coeffs))


class Arrangement:
    """An ordered, labelled, duplicate-free tuple of hyperplanes.

    Immutable, and hashed once: the caches keyed by it hash it per call.
    """

    __slots__ = ("dim", "zeta_order", "hyperplanes", "labels", "_key", "_hash")

    def __init__(self, dim: int, zeta_order: int, hyperplanes: tuple[LinearForm, ...], labels: tuple[str, ...]) -> None:
        key = (dim, zeta_order, hyperplanes, labels)
        for name, value in zip(self.__slots__, key + (key, hash(key))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an Arrangement")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Arrangement:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __repr__(self) -> str:
        return "Arrangement(" + ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key)) + ")"

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    def index_of_form(self, form: LinearForm) -> int:
        try:
            return self.hyperplanes.index(form)
        except ValueError:
            raise KeyError(f"no hyperplane {form}") from None

    def index_of_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no hyperplane labelled {label!r}") from None


def arrangement(
    dim: int,
    zeta_order: int,
    forms: list[tuple[Scalar, ...] | list[Scalar] | LinearForm],
    labels: list[str] | None = None,
) -> Arrangement:
    normalized = tuple(f if isinstance(f, LinearForm) else linear_form(f) for f in forms)
    for f in normalized:
        if len(f.coeffs) != dim:
            raise ValueError(f"form {f} does not have {dim} coefficients")
        for c in f.coeffs:
            if c.order != zeta_order:
                raise ValueError(f"form {f} is not over Q(zeta_{zeta_order})")
    if len(set(normalized)) != len(normalized):
        seen: dict[LinearForm, int] = {}
        for i, f in enumerate(normalized):
            if f in seen:
                raise ValueError(f"hyperplanes {seen[f]} and {i} coincide: {f}")
            seen[f] = i
    if labels is None:
        labels = [f"a{i + 1}" for i in range(len(normalized))]
    if len(labels) != len(normalized) or len(set(labels)) != len(labels):
        raise ValueError("labels must be unique and parallel to the hyperplanes")
    return Arrangement(dim, zeta_order, normalized, tuple(labels))


class Flat(NamedTuple):
    """An element of the intersection lattice.

    ``equations`` is always the RREF basis of the span of the flat's
    forms, and ``pivots`` its pivot columns; :func:`restriction` relies
    on it.
    """

    closed: tuple[int, ...]
    rank: int
    equations: tuple[tuple[Scalar, ...], ...]
    pivots: tuple[int, ...]


def hyperplane_flat(arr: Arrangement, index: int) -> Flat:
    form = arr.hyperplanes[index]
    return Flat((index,), 1, (form.coeffs,), (next(j for j, c in enumerate(form.coeffs) if c),))


@functools.lru_cache(maxsize=None)
def intersection_lattice(arr: Arrangement, max_rank: int | None = None) -> tuple[Flat, ...]:
    """All flats of rank <= max_rank, sorted by (rank, closed set).

    Built layer by layer, one echelon extension per flat of rank >= 2.
    For each flat X of rank k, the hyperplanes H_j not containing X are
    taken in order, and those already in a cover of X are skipped.  The
    cover X cap H_j is first looked up among the rank-(k + 1) flats
    already found through H_j: one Y whose closed set contains that of X
    lies in X cap H_j and has its rank, so it is X cap H_j.  Only a new
    flat gets :func:`linalg.extend_echelon` and a closure scan, which
    tests each other hyperplane by :func:`linalg.in_span` and skips those
    in another cover of X, as a hyperplane in one cover of X contains no
    other.  RREF equations are canonical, so the output does not depend
    on which route met a flat first.  No flat gets a kernel basis;
    :func:`restriction` reads its coordinates off the RREF equations.
    """
    if max_rank is not None and max_rank < 0:
        raise ValueError(f"max_rank must be >= 0, got {max_rank}")
    n = arr.n
    limit = arr.dim if max_rank is None else min(max_rank, arr.dim)
    flats: list[Flat] = [Flat((), 0, (), ())]
    if limit == 0 or n == 0:
        return tuple(flats)

    layer = [hyperplane_flat(arr, i) for i in range(n)]
    flats.extend(layer)
    forms = [h.coeffs for h in arr.hyperplanes]
    rk = 1
    while rk < limit and layer:
        found: list[Flat] = []
        # through[j]: (closed-set bitmask, flat) of the new flats on H_j
        through: list[list[tuple[int, Flat]]] = [[] for _ in range(n)]
        for flat in layer:
            mask = sum(1 << i for i in flat.closed)
            covered = set(flat.closed)
            for j in range(n):
                if j in covered:
                    continue
                cover = next((y for y_mask, y in through[j] if mask & y_mask == mask), None)
                if cover is None:
                    extended = linalg.extend_echelon(flat.equations, flat.pivots, forms[j])
                    assert extended is not None, "closed sets must be closed"
                    eqs, pivs = extended
                    closed = tuple(
                        i
                        for i in range(n)
                        if i in flat.closed or (i not in covered and linalg.in_span(forms[i], eqs, pivs))
                    )
                    cover = Flat(closed, rk + 1, eqs, pivs)
                    found.append(cover)
                    entry = (sum(1 << i for i in closed), cover)
                    for i in closed:
                        through[i].append(entry)
                covered.update(cover.closed)
        layer = sorted(found, key=lambda f: f.closed)
        flats.extend(layer)
        rk += 1
    return tuple(flats)


@functools.lru_cache(maxsize=None)
def rank_of(arr: Arrangement) -> int:
    return linalg.rank([f.coeffs for f in arr.hyperplanes], arr.dim)


class Restriction(NamedTuple):
    """A restricted arrangement plus the parent-to-restricted index maps.

    ``trace[i]`` is the index of the image of parent hyperplane i, or
    None when parent i contains the flat (and hence does not restrict).
    ``groups[j]`` lists, ascending, the parents whose image is j.
    """

    arrangement: Arrangement
    trace: tuple[int | None, ...]
    groups: tuple[tuple[int, ...], ...]


def restriction(arr: Arrangement, flat: Flat) -> Restriction:
    """Restrict to a flat, in the coordinates of its canonical kernel basis.

    The basis is the :func:`linalg.nullspace` of the flat's equations,
    one vector per free column f: 1 at f, -eq_i[f] at each pivot p_i.
    The flat's equations must be in RREF with their pivots, as every
    :class:`Flat` is built (:func:`hyperplane_flat`,
    :func:`intersection_lattice`), so the basis is never formed: the
    coordinate of a form h at f is h[f] - sum_i h[p_i] * eq_i[f], read
    off the equations with no elimination and no product by zero.  The
    standard basis for the flat of rank 0.
    """
    closed = set(flat.closed)
    pivots = set(flat.pivots)
    free = [f for f in range(arr.dim) if f not in pivots]
    forms: list[LinearForm] = []
    labels: list[str] = []
    index: dict[LinearForm, int] = {}
    trace: list[int | None] = []
    groups: list[list[int]] = []
    for i, h in enumerate(arr.hyperplanes):
        if i in closed:
            trace.append(None)
            continue
        coeffs = list(h.coeffs)
        for eq, p in zip(flat.equations, flat.pivots):
            w = h.coeffs[p]
            if w:
                for f in free:
                    if eq[f]:
                        coeffs[f] = coeffs[f] - w * eq[f]
        restricted = linear_form([coeffs[f] for f in free])
        found = index.get(restricted)
        if found is None:
            found = len(forms)
            index[restricted] = found
            forms.append(restricted)
            labels.append(arr.labels[i])
            groups.append([])
        trace.append(found)
        groups[found].append(i)
    sub = Arrangement(len(free), arr.zeta_order, tuple(forms), tuple(labels))
    return Restriction(sub, tuple(trace), tuple(map(tuple, groups)))


class MultiArrangement(NamedTuple):
    """An arrangement with integer multiplicities >= 0 (zeros are kept)."""

    arrangement: Arrangement
    mult: tuple[int, ...]

    @property
    def total(self) -> int:
        """|mu|, the sum of all multiplicities."""
        return sum(self.mult)


@functools.lru_cache(maxsize=None)
def form_keys(arr: Arrangement) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The integer content key of each form: Scalars are canonical, so it
    is injective and equal for equal forms of different arrangements."""
    return tuple(tuple((c.num, c.den) for c in f.coeffs) for f in arr.hyperplanes)


@functools.lru_cache(maxsize=None)
def _key_order(arr: Arrangement) -> tuple[tuple[int, tuple], ...]:
    """(index, form key) of each form in key order; the keys are distinct,
    so this one sort orders every state key of ``arr``."""
    return tuple(sorted(enumerate(form_keys(arr)), key=lambda p: p[1]))


def state_key(arr: Arrangement, mult: Sequence[int]) -> tuple:
    """The content key of (arr, mult): dimension, field and its (form key, mu) pairs, zeros dropped."""
    return (arr.dim, arr.zeta_order, tuple((k, mult[i]) for i, k in _key_order(arr) if mult[i]))


def multi(arr: Arrangement, mult: list[int] | tuple[int, ...]) -> MultiArrangement:
    """Pair an arrangement with multiplicities, dropping the 0 entries."""
    if len(mult) != arr.n:
        raise ValueError(f"{len(mult)} multiplicities for {arr.n} hyperplanes")
    if any(m < 0 for m in mult):
        raise ValueError("multiplicities must be >= 0")
    if all(mult):
        return MultiArrangement(arr, tuple(mult))
    keep = [i for i, m in enumerate(mult) if m]
    sub = Arrangement(
        arr.dim,
        arr.zeta_order,
        tuple(arr.hyperplanes[i] for i in keep),
        tuple(arr.labels[i] for i in keep),
    )
    return MultiArrangement(sub, tuple(mult[i] for i in keep))


def simple_multi(arr: Arrangement) -> MultiArrangement:
    return MultiArrangement(arr, (1,) * arr.n)


def localize_multi(m: MultiArrangement, flat: Flat) -> MultiArrangement:
    """(A_X, mu_X), a state of m's arrangement: hyperplanes through the flat
    keep their multiplicity, the others get 0."""
    closed = set(flat.closed)
    return MultiArrangement(m.arrangement, tuple(mu if i in closed else 0 for i, mu in enumerate(m.mult)))


def pivot_forms(rows: Sequence[Sequence[Scalar]], dim: int) -> tuple[int, tuple[LinearForm, ...]]:
    """The rank of the forms, and each form in coordinates on their span.

    A form's coordinates are its values at the pivot columns of the
    forms' RREF: the RREF rows are the identity there, so the form is
    the combination of them with those values as weights.  The change
    is invertible on the span and canonical for it, so distinct forms
    stay distinct; each comes out normalized as by :func:`linear_form`.
    """
    _, pivots = linalg.rref(rows, dim)
    return len(pivots), tuple(linear_form([row[p] for p in pivots]) for row in rows)


def essentialize(m: MultiArrangement) -> MultiArrangement:
    """Rewrite in coordinates on the span of the forms; dim becomes rank.

    A state's zeros are dropped first (:func:`multi`); the forms are
    rewritten by :func:`pivot_forms`, so multiplicities and labels carry
    over unchanged.
    """
    m = multi(*m)
    arr = m.arrangement
    rank, forms = pivot_forms([f.coeffs for f in arr.hyperplanes], arr.dim)
    if rank == arr.dim:
        return m
    return MultiArrangement(Arrangement(rank, arr.zeta_order, forms, arr.labels), m.mult)


def ziegler_multiplicity(arr: Arrangement, h0: int) -> MultiArrangement:
    """The Ziegler restriction (A'', kappa) at hyperplane h0.

    kappa(Y) counts the parent hyperplanes other than H0 containing Y,
    so sum(kappa) = |A| - 1.
    """
    res = restriction(arr, hyperplane_flat(arr, h0))
    return MultiArrangement(res.arrangement, tuple(len(g) for g in res.groups))


def concentrated_multiplicity(arr: Arrangement, h0: int, m0: int) -> MultiArrangement:
    """delta_{H0,m0}: multiplicity m0 on H0 and 1 elsewhere."""
    if m0 < 1:
        raise ValueError("concentrated multiplicity needs m0 >= 1")
    return MultiArrangement(arr, tuple(m0 if i == h0 else 1 for i in range(arr.n)))


@functools.lru_cache(maxsize=None)
def characteristic_polynomial(arr: Arrangement) -> tuple[int, ...]:
    """chi(A, t) as integer coefficients, index = power of t.

    Computed by Moebius recursion over the intersection lattice ordered
    by reverse inclusion of subspaces.
    """
    flats = intersection_lattice(arr)
    masks = [sum(1 << i for i in f.closed) for f in flats]
    mu = [1]
    # flats come sorted by rank, and closed sets of one rank are
    # incomparable, so the flats below one all come before it
    for i in range(1, len(flats)):
        mask = masks[i]
        mu.append(-sum(m for m, below in zip(mu, masks) if below & mask == below))
    coeffs = [0] * (arr.dim + 1)
    for f, m in zip(flats, mu):
        coeffs[arr.dim - f.rank] += m
    return tuple(coeffs)


def free_exponents_from_charpoly(arr: Arrangement) -> tuple[int, ...] | None:
    """Integer root multiset of chi(A, t), or None if it does not split.

    When chi factors as prod (t - e_i) over the integers, the sorted e_i
    are returned (including zeros for a non-essential arrangement); a
    single non-integer root makes the result None.
    """
    coeffs = list(characteristic_polynomial(arr))
    exponents: list[int] = []
    # chi is monic of degree dim; its integer roots lie in [0, n].
    for root in range(arr.n + 1):
        while len(coeffs) > 1:
            # synthetic division by (t - root), descending coefficients
            desc = coeffs[::-1]
            out = [desc[0]]
            for c in desc[1:]:
                out.append(c + root * out[-1])
            if out[-1] != 0:
                break
            exponents.append(root)
            coeffs = out[:-1][::-1]
    if len(coeffs) > 1:
        return None
    return tuple(sorted(exponents))
