"""Exact rational linear algebra: row echelon form, rank, nullspace.

Matrices come in as dense lists of rows of ``fractions.Fraction``.
Elimination runs on sparse rows, one ``{column: Fraction}`` map of the
nonzero entries per row, so a row update costs the pivot row's nonzeros
rather than the full width.  The jet relation systems are mostly zeros (the
largest the Osgood probe builds is 325 x 56 with 96% of its cells zero), and
exact ``Fraction`` arithmetic on a zero costs as much as on any other entry.
"""

from __future__ import annotations

from fractions import Fraction


def row_echelon(rows: list) -> tuple:
    """Reduced row echelon form and the list of pivot columns (exact).

    Gauss-Jordan in column order; the pivot row for a column is the first
    row at or below the current one with a nonzero there.  The form is
    returned as sparse rows: each a ``{column: Fraction}`` map holding only
    the nonzero entries.
    """
    m = [{c: x for c, x in enumerate(row) if x} for row in rows]
    if not m:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(m)) if c in m[k]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        prow = m[r] = {j: x / pv for j, x in m[r].items()}
        for k, row in enumerate(m):
            f = row.get(c)
            if f is None or k == r:
                continue
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: list) -> int:
    _, pivots = row_echelon(rows)
    return len(pivots)


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right kernel of a matrix with ``ncols`` columns, one vector per free column.

    Each vector is dense and normalized so its first nonzero coordinate is
    1, giving deterministic witnesses.
    """
    rref, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            x = row.get(f)
            if x is not None:
                v[p] = -x
        first = next(x for x in v if x != 0)
        if first != 1:
            v = [x / first for x in v]
        basis.append(v)
    return basis
