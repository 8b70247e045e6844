"""Column-by-column exact elimination over Q(i) against a dense Gauss-Jordan model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoclosure import linalg
from holoclosure.arith import GaussianRational, gq


def dense_row_echelon(rows):
    """Model: dense Gauss-Jordan, first nonzero at or below r as pivot."""
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
        v = [gq(0)] * ncols
        v[f] = gq(1)
        for r, p in enumerate(pivots):
            v[p] = -rref[r][f]
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# real entries, and entries with a nonzero imaginary part
ENTRIES = st.one_of(
    st.builds(GaussianRational, RATIONALS),
    st.builds(GaussianRational, RATIONALS, RATIONALS.filter(bool)),
)
MOSTLY_ZERO = st.one_of(st.just(gq(0)), ENTRIES)


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
        rows = [[gq(0)] * ncols for _ in range(nrows)]
        for _ in range(cells // 10):
            r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
            rows[r][c] = draw(ENTRIES)
        return rows, ncols
    cell = st.just(gq(0)) if shape == "zero" else MOSTLY_ZERO
    rows = [draw(st.lists(cell, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if shape == "repeated" and rows:
        rows = rows + [list(rows[draw(st.integers(0, len(rows) - 1))]) for _ in range(2)]
    return rows, ncols


def columns_of(rows, ncols):
    """Sparse columns of a dense matrix, with an explicit zero left in now and then."""
    cols = []
    for c in range(ncols):
        col = {i: row[c] for i, row in enumerate(rows) if row[c] or (i + c) % 3 == 0}
        cols.append(col)
    return cols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_the_dense_model(matrix):
    rows, ncols = matrix
    copy = [list(r) for r in rows]
    _, expected_pivots = dense_row_echelon(rows)
    assert linalg.rank(rows) == len(expected_pivots)
    kernel = linalg.nullspace(rows, ncols)
    assert rows == copy
    assert kernel == dense_nullspace(rows, ncols)
    assert len(kernel) == ncols - len(expected_pivots)
    for v in kernel:
        assert all(type(x) is GaussianRational for x in v)
        assert next(x for x in v if x != 0) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_relations_are_the_kernel_vectors_of_the_free_columns(matrix):
    rows, ncols = matrix
    _, pivots = dense_row_echelon(rows)
    cols = columns_of(rows, ncols)
    copy = [dict(c) for c in cols]
    found = list(linalg.relations(cols))
    assert cols == copy  # the input maps are left unchanged
    assert [j for j, _ in found] == [c for c in range(ncols) if c not in pivots]
    for (j, relation), v in zip(found, dense_nullspace(rows, ncols)):
        assert all(type(x) is GaussianRational and x != 0 for x in relation.values())
        assert max(relation) == j and relation[min(relation)] == 1
        assert relation == {i: x for i, x in enumerate(v) if x}


def test_relations_take_any_comparable_row_labels_and_stop_early():
    # rows labelled by monomials; the third column is the sum of the first two
    a = {(0, 1): gq(2), (1, 0): gq(1)}
    b = {(1, 0): gq(3)}
    fed = []

    def columns():
        for col in (a, b, {(0, 1): gq(2), (1, 0): gq(4)}, {(2, 0): gq(1)}):
            fed.append(col)
            yield col

    j, relation = next(linalg.relations(columns()))
    assert (j, relation) == (2, {0: gq(1), 1: gq(1), 2: gq(-1)})
    assert len(fed) == 3


def _as(kind, x):
    """The entry x of Q(i) as an int or Fraction where it is one, else as given."""
    if kind is GaussianRational or not x.is_real():
        return x
    return x.re.numerator if kind is int and x.re.denominator == 1 else x.re


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(st.sampled_from([int, Fraction, GaussianRational]), min_size=1))
def test_int_fraction_and_gaussian_entries_give_the_same_answers(matrix, kinds):
    rows, ncols = matrix
    # each cell as an int, a Fraction or a GaussianRational, mixed within one matrix
    mixed = [[_as(kinds[(i + c) % len(kinds)], x) for c, x in enumerate(row)] for i, row in enumerate(rows)]
    assert linalg.rank(mixed) == linalg.rank(rows)
    kernel = linalg.nullspace(mixed, ncols)
    assert kernel == linalg.nullspace(rows, ncols)
    assert all(type(x) is GaussianRational for v in kernel for x in v)
    cols = columns_of(mixed, ncols)
    found = list(linalg.relations(cols))
    assert found == list(linalg.relations(columns_of(rows, ncols)))
    assert all(type(x) is GaussianRational for _, r in found for x in r.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=6)))
def test_an_integer_matrix_gives_the_same_relations_as_ints_fractions_and_gaussians(rows):
    # the int path puts no GaussianRational under the entries; the answers must not see it
    ncols = len(rows[0]) if rows else 0
    as_ints = list(linalg.relations(columns_of(rows, ncols)))
    for kind in (Fraction, GaussianRational):
        typed = [[kind(x) for x in row] for row in rows]
        assert list(linalg.relations(columns_of(typed, ncols))) == as_ints
    assert all(type(x) is GaussianRational for _, r in as_ints for x in r.values())


PIVOT_CASES = {
    # the first column's pivot, at row 0, is negative, purely imaginary or of norm 25
    "negative real pivot": [[-3, 1, 2], [1, 2, -1]],
    "imaginary pivot": [[GaussianRational(0, -2), 1, 2], [1, GaussianRational(0, 1), 3]],
    "gaussian pivot": [[GaussianRational(3, 4), GaussianRational(1, -2), 1],
                       [GaussianRational(0, 1), 2, GaussianRational(-5, 7)]],
    "coprime denominators": [[Fraction(1, 2**61 - 1), Fraction(1, 3**40), 1],
                             [Fraction(2, 3**40), Fraction(5, 2**61 - 1), Fraction(1, 7)]],
    # column 3 is column 0 plus 1/3 of column 1: it cancels before kept column 2 is applied
    "cancels part-way": [[1, 0, 0, 1], [2, 3, 0, 3], [0, Fraction(3, 5), 1, Fraction(1, 5)],
                         [GaussianRational(0, 1), 6, 0, GaussianRational(2, 1)]],
}


@pytest.mark.parametrize("name", sorted(PIVOT_CASES))
def test_pivot_cases_match_the_dense_model(name):
    rows = [[gq(x) for x in row] for row in PIVOT_CASES[name]]
    rows += [[x * 2 for x in rows[0]]]  # a dependent row
    wide = [row + [row[0] + row[1]] for row in rows]  # a dependent column
    for matrix in (rows, wide):
        ncols = len(matrix[0])
        cols = columns_of(matrix, ncols)
        copy = [dict(c) for c in cols]
        found = list(linalg.relations(cols))
        assert cols == copy
        expected = dense_nullspace(matrix, ncols)
        assert [r for _, r in found] == [{i: x for i, x in enumerate(v) if x} for v in expected]
        for _, relation in found:
            assert relation[min(relation)] == 1
        assert linalg.rank(matrix) == len(dense_row_echelon(matrix)[1])
