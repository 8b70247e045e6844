"""Sparse exact elimination against a dense Gauss-Jordan model."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from holoclosure import linalg


def dense_row_echelon(rows):
    """Model: dense Fraction Gauss-Jordan, first nonzero at or below r as pivot."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_nullspace(rows, ncols):
    rref, pivots = dense_row_echelon(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rref[r][f]
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis


def densify(sparse_rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in sparse_rows]


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
MOSTLY_ZERO = st.one_of(st.just(Fraction(0)), RATIONALS)


@st.composite
def matrices(draw):
    """(rows, ncols): tall, wide, empty, all-zero, repeated-row and mostly-zero shapes."""
    shape = draw(st.sampled_from(["tall", "wide", "empty", "zero", "repeated", "sparse"]))
    nrows = draw(st.integers(0 if shape == "empty" else 1, 9))
    ncols = draw(st.integers(0, 9))
    if shape == "tall":
        nrows, ncols = max(nrows, ncols + 1), min(ncols, nrows)
    elif shape == "wide":
        nrows, ncols = min(nrows, ncols), max(ncols, nrows + 1)
    elif shape == "empty":
        nrows = 0
    if shape == "sparse":
        # at most one nonzero in ten cells
        cells = nrows * ncols
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for _ in range(cells // 10):
            r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
            rows[r][c] = draw(RATIONALS)
        return rows, ncols
    cell = st.just(Fraction(0)) if shape == "zero" else MOSTLY_ZERO
    rows = [draw(st.lists(cell, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if shape == "repeated" and rows:
        rows = rows + [list(rows[draw(st.integers(0, len(rows) - 1))]) for _ in range(2)]
    return rows, ncols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_row_echelon_rank_and_nullspace_match_the_dense_model(matrix):
    rows, ncols = matrix
    copy = [list(r) for r in rows]
    expected_rref, expected_pivots = dense_row_echelon(rows)
    rref, pivots = linalg.row_echelon(rows)
    assert rows == copy
    assert pivots == expected_pivots
    assert densify(rref, ncols) == expected_rref
    assert all(0 not in row.values() for row in rref)  # only nonzero entries are kept
    assert linalg.rank(rows) == len(expected_pivots)
    kernel = linalg.nullspace(rows, ncols)
    assert kernel == dense_nullspace(rows, ncols)
    assert len(kernel) == ncols - len(pivots)
    for v in kernel:
        assert all(type(x) is Fraction for x in v)
        assert next(x for x in v if x != 0) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)

