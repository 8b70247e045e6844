"""Exact linear algebra over Q(i): linear relations among columns, rank, nullspace.

One elimination serves every caller.  ``relations`` reduces sparse columns,
``{row: entry}`` maps of the nonzero entries under any comparable row labels,
one at a time against the independent columns kept so far, so a caller can
feed columns lazily and stop at the first relation, as the jet relation
probe does.  It is fraction-free over Z[i]: a column and its combination of
input columns are maps to ``[a, b]`` numerators of a + b*i, and each kept
column has a positive integer pivot.  ``GaussianRational`` appears only at
entry and exit, through ``arith``'s two conversions, and an int entry, as
every jet column's is, builds none.  A relation is the reduced row echelon
kernel vector of its column, so the answers are those of Gauss-Jordan
without building the echelon form.  ``nullspace`` and ``rank`` adapt it to
dense row lists.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Mapping

from holoclosure.arith import ZERO, from_numerator, inverse_numerator, numerators


def _combine(target: dict, m: int, fa: int, fb: int, other: dict):
    """target = m * target - (fa + fb*i) * other in place, deleting the entries that cancel."""
    if m != 1:
        for t in target.values():
            t[0] *= m
            t[1] *= m
    for k, (a, b) in other.items():
        da = fa * a - fb * b
        db = fa * b + fb * a
        t = target.get(k)
        if t is None:
            target[k] = [-da, -db]
        else:
            x = t[0] - da
            y = t[1] - db
            if x or y:
                t[0] = x
                t[1] = y
            else:
                del target[k]


def relations(columns: Iterable[Mapping]) -> Iterator[tuple]:
    """Yield (j, relation) for each column j that depends on the earlier columns.

    The relation is a ``{column index: GaussianRational}`` map of its nonzero
    coordinates, supported on column j and earlier independent columns, with
    sum(relation[i] * column i) = 0 and its first (lowest index) coordinate
    equal to 1: the reduced row echelon kernel vector of the free column j.
    Entries may be ints, Fractions or GaussianRationals; column j enters as
    its numerators over the lcm D of its denominators, with combination
    {j: D}.  Against each kept column (pivot row p, pivot N, reduced column
    R, combination C), with f = v[p] and g = gcd(f, N), v becomes
    (N/g)*v - (f/g)*R and its combination likewise with C.  A column kept
    at its pivot row, its lowest row label, is multiplied with its
    combination by the conjugate (or the sign) of the pivot, making N a
    positive integer, and both are divided by their joint integer content.
    A dependent column yields its combination divided by its first
    coordinate, which scaling does not change, so the answers are the Q(i)
    ones.  The input maps are left unchanged.
    """
    kept = []  # (pivot row, pivot N > 0, reduced column, its combination of input columns)
    for j, column in enumerate(columns):
        entries = {r: x for r, x in column.items() if x}
        pairs, D = numerators(entries.values())
        v = {r: [a, b] for r, (a, b) in zip(entries, pairs)}
        combination = {j: [D, 0]}
        for p, N, reduced, combo in kept:
            f = v.get(p)
            if f is not None:
                g = gcd(*f, N)
                m, fa, fb = N // g, f[0] // g, f[1] // g
                _combine(v, m, fa, fb, reduced)
                _combine(combination, m, fa, fb, combo)
        if v:
            p = min(v)
            ua, ub, _ = inverse_numerator(*v[p])
            pairs = [*v.values(), *combination.values()]
            for t in pairs:
                t[0], t[1] = t[0] * ua - t[1] * ub, t[0] * ub + t[1] * ua
            g = gcd(*[x for t in pairs for x in t])
            for t in pairs:
                t[0] //= g
                t[1] //= g
            kept.append((p, v[p][0], v, combination))
        else:
            ua, ub, n = inverse_numerator(*combination[min(combination)])
            yield j, {
                i: from_numerator(a * ua - b * ub, a * ub + b * ua, n)
                for i, (a, b) in combination.items()
            }


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
