"""Exact rational linear algebra: row echelon form, rank, nullspace.

Matrices are lists of rows of ``fractions.Fraction``.  Everything is plain
fraction-based Gaussian elimination; sizes here are tiny (tangent spaces,
jet relation systems), so no fraction-free tricks are needed.
"""

from __future__ import annotations

from fractions import Fraction


def row_echelon(rows: list) -> tuple:
    """Reduced row echelon form and the list of pivot columns (copy, exact)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(m)):
            if m[k][c] != 0:
                pivot = k
                break
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


def rank(rows: list) -> int:
    _, pivots = row_echelon(rows)
    return len(pivots)


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right kernel of a matrix with ``ncols`` columns, one vector per free column.

    Each vector is normalized so its first nonzero coordinate is 1, giving
    deterministic witnesses.
    """
    rref, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rref[r][f]
        first = next(x for x in v if x != 0)
        if first != 1:
            v = [x / first for x in v]
        basis.append(v)
    return basis
