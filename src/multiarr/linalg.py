"""Exact Gaussian elimination over cyclotomic scalars.

Everything here works on small dense matrices whose entries are
:class:`~multiarr.scalars.Scalar`; rows are lists/tuples of scalars.
The reduced row echelon form is canonical for the row space, which the
callers rely on for deduplicating subspaces and for deterministic
nullspace bases; ``coordinates`` reads rows in an invertible basis off
one RREF.
"""

from __future__ import annotations

from collections.abc import Sequence

from .scalars import Scalar, one, zero

Row = tuple[Scalar, ...]


def rref(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Sequence[Sequence[Scalar]], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def reduce_against(row: Sequence[Scalar], echelon: Sequence[Sequence[Scalar]], pivots: Sequence[int]) -> list[Scalar]:
    """Eliminate the pivot entries of ``row`` against an RREF basis."""
    out = list(row)
    for erow, p in zip(echelon, pivots):
        f = out[p]
        if f:
            out = [a - f * b if b else a for a, b in zip(out, erow)]
    return out


def in_span(row: Sequence[Scalar], echelon: Sequence[Sequence[Scalar]], pivots: Sequence[int]) -> bool:
    """Whether ``row`` lies in the span of an RREF basis.

    The basis is the identity at its pivot columns, so the only
    combination that can give ``row`` has the weights row[p].  It is
    checked one non-pivot column at a time, and the check stops at the
    first column where it fails.
    """
    weighted = [(row[p], erow) for erow, p in zip(echelon, pivots) if row[p]]
    for c, x in enumerate(row):
        if c in pivots:
            continue
        for w, erow in weighted:
            if erow[c]:
                x = x - w * erow[c]
        if x:
            return False
    return True


def extend_echelon(
    echelon: Sequence[Row], pivots: Sequence[int], row: Sequence[Scalar]
) -> tuple[tuple[Row, ...], tuple[int, ...]] | None:
    """Add ``row`` to a canonical RREF basis.

    Returns the new canonical (rows, pivots), or None if ``row`` is in
    the span already.
    """
    reduced = reduce_against(row, echelon, pivots)
    c = next((j for j, x in enumerate(reduced) if x), None)
    if c is None:
        return None
    inv = reduced[c].inverse()
    new_row = tuple(x * inv if x else x for x in reduced)
    rows = []
    pivs = []
    placed = False
    for erow, p in zip(echelon, pivots):
        if not placed and c < p:
            rows.append(new_row)
            pivs.append(c)
            placed = True
        if erow[c]:
            f = erow[c]
            erow = tuple(a - f * b if b else a for a, b in zip(erow, new_row))
        rows.append(tuple(erow))
        pivs.append(p)
    if not placed:
        rows.append(new_row)
        pivs.append(c)
    return tuple(rows), tuple(pivs)


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int, order: int) -> list[Row]:
    """Canonical kernel basis: one vector per free column, ascending.

    The vector for free column f has a 1 in slot f and the negated RREF
    entries in the pivot slots, so the basis is unique for the row space.
    """
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis: list[Row] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero(order)] * ncols
        v[f] = one(order)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def coordinates(basis: Sequence[Sequence[Scalar]], rows: Sequence[Sequence[Scalar]]) -> list[Row]:
    """Coefficients x with sum(x_a * basis_a) = row, for each row.

    ``basis`` must be square and invertible.  One RREF of the transposed
    system [basis^T | rows^T] leaves the identity on the left and the
    coordinates, one column per row, on the right.
    """
    d = len(basis)
    red, _ = rref([[b[j] for b in basis] + [r[j] for r in rows] for j in range(d)], d + len(rows))
    return [tuple(red[a][d + i] for a in range(d)) for i in range(len(rows))]
