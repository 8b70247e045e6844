"""Exact linear algebra over Q(i): linear relations among columns, rank, nullspace.

One elimination serves every caller.  ``relations`` reduces sparse columns,
``{row: GaussianRational}`` maps of the nonzero entries under any comparable row
labels, one at a time against the independent columns kept so far, so a
caller can feed columns lazily and stop at the first relation, as the jet
relation probe does.  A relation is the reduced row echelon kernel vector of
its column, so the answers are those of Gauss-Jordan without building the
echelon form.  ``nullspace`` and ``rank`` adapt it to dense row lists.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from holoclosure.arith import ONE, ZERO, GaussianRational


def _sub_scaled(target: dict, f: GaussianRational, other: dict):
    """target -= f * other in place, deleting the entries that cancel."""
    for k, x in other.items():
        y = target.get(k)
        if y is None:
            target[k] = -f * x
        else:
            y -= f * x
            if y:
                target[k] = y
            else:
                del target[k]


def relations(columns: Iterable[Mapping]) -> Iterator[tuple]:
    """Yield (j, relation) for each column j that depends on the earlier columns.

    The relation is a ``{column index: GaussianRational}`` map of its nonzero
    coordinates, supported on column j and earlier independent columns, with
    sum(relation[i] * column i) = 0 and its first (lowest index) coordinate
    equal to 1: the reduced row echelon kernel vector of the free column j.
    Each kept column is stored reduced against the kept columns before it,
    scaled to 1 at its pivot row (its lowest row label), together with its
    combination of input columns.  The input maps are left unchanged.
    """
    kept = []  # (pivot row, reduced column, its combination of input columns)
    for j, column in enumerate(columns):
        v = {r: x for r, x in column.items() if x}
        combination = {j: ONE}
        for p, reduced, combo in kept:
            f = v.get(p)
            if f is not None:
                _sub_scaled(v, f, reduced)
                _sub_scaled(combination, f, combo)
        if v:
            p = min(v)
            pv = v[p]
            kept.append((
                p,
                {r: x / pv for r, x in v.items()},
                {i: x / pv for i, x in combination.items()},
            ))
        else:
            first = combination[min(combination)]
            yield j, {i: x / first for i, x in combination.items()}


def _columns(rows: list, ncols: int) -> list:
    return [{i: row[c] for i, row in enumerate(rows) if row[c]} for c in range(ncols)]


def rank(rows: list) -> int:
    ncols = len(rows[0]) if rows else 0
    return ncols - sum(1 for _ in relations(_columns(rows, ncols)))


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right kernel of a matrix with ``ncols`` columns, one vector per free column.

    Each vector is dense and normalized so its first nonzero coordinate is
    1, giving deterministic witnesses.
    """
    basis = []
    for _, relation in relations(_columns(rows, ncols)):
        v = [ZERO] * ncols
        for i, x in relation.items():
            v[i] = x
        basis.append(v)
    return basis
