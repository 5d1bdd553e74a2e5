"""Canonicality and correctness of the exact elimination helpers."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from multiarr import linalg
from multiarr.scalars import rational, zero

# small dense rational matrices keep the exact arithmetic fast
entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def matrices(max_rows: int = 4, max_cols: int = 4):
    return st.integers(1, max_cols).flatmap(
        lambda ncols: st.lists(
            st.lists(entries.map(rational), min_size=ncols, max_size=ncols).map(tuple),
            min_size=1,
            max_size=max_rows,
        ).map(lambda rows: (rows, ncols))
    )


@given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_canonical_for_the_row_space(data, rng) -> None:
    rows, ncols = data
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert linalg.rref(rows, ncols) == linalg.rref(shuffled, ncols)


@given(matrices())
def test_rref_is_idempotent(data) -> None:
    rows, ncols = data
    red, pivots = linalg.rref(rows, ncols)
    assert linalg.rref(red, ncols) == (red, pivots)
    for row, p in zip(red, pivots):
        assert row[p].is_one()


@given(matrices())
def test_nullspace_kills_the_rows(data) -> None:
    rows, ncols = data
    basis = linalg.nullspace(rows, ncols, 1)
    assert len(basis) == ncols - linalg.rank(rows, ncols)
    for v in basis:
        for row in rows:
            assert not sum((x * y for x, y in zip(row, v)), zero(1))


@given(matrices())
def test_extend_echelon_matches_batch_rref(data) -> None:
    rows, ncols = data
    echelon: tuple = ()
    pivots: tuple = ()
    kept: list = []
    for row in rows:
        ext = linalg.extend_echelon(echelon, pivots, row)
        if ext is None:
            # dependent rows must already reduce to zero
            assert not any(linalg.reduce_against(row, echelon, pivots))
            continue
        echelon, pivots = ext
        kept.append(row)
        red, piv = linalg.rref(kept, ncols)
        assert [list(r) for r in echelon] == red
        assert list(pivots) == piv


@given(matrices())
def test_in_span_agrees_with_reduction(data) -> None:
    rows, ncols = data
    # every row but the first lies in the span; the first mostly does not
    red, pivots = linalg.rref(rows[1:], ncols)
    for row in rows:
        assert linalg.in_span(row, red, pivots) == (not any(linalg.reduce_against(row, red, pivots)))


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries.map(rational), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3),
        )
    )
)
def test_coordinates_recombine_to_the_rows(data) -> None:
    basis, weights = data
    n = len(basis)
    assume(linalg.rank(basis, n) == n)
    rows = [[sum((Fraction(w) * b[j] for w, b in zip(ws, basis)), zero(1)) for j in range(n)] for ws in weights]
    coords = linalg.coordinates(basis, rows)
    assert coords == [tuple(rational(w) for w in ws) for ws in weights]
    rebuilt = [[sum((x * b[j] for x, b in zip(cs, basis)), zero(1)) for j in range(n)] for cs in coords]
    assert rebuilt == rows
