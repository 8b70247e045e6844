"""Tangent spaces, pointwise CR dimension, CR strata ideals, and d-m checks.

The real dimension d is read off the complexification of the system as
given; the Jacobians use its real-form description (zeta input is
converted).  At a smooth point p the tangent space is the kernel of the real
Jacobian Df(p); the maximal complex subspace of the tangent space is read
off the stacked matrix [Df; Df o J] built from the defining equations, where
J is the standard complex structure on coordinates (x1,y1,...,xn,yn):
J e_{x_j} = e_{y_j}, J e_{y_j} = -e_{x_j}.  The CR dimension is
m = (2n - rank [Df; Df o J]) / 2, which is the dual, frame-free form of the
vanishing-minor condition on spanning tangent vectors; the same matrix with
symbolic entries yields the ideals cutting out the strata {m >= k}.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from holoclosure import linalg
from holoclosure.arith import gq
from holoclosure.closure import holomorphic_closure
from holoclosure.complexify import (
    REAL_FORM,
    System,
    ZETA_FORM,
    real_dimension,
    zeta_to_real,
)
from holoclosure.errors import (
    EmptySetError,
    InvariantError,
    NonSmoothPointError,
    PointNotOnSetError,
)
from holoclosure.groebner import DEFAULT_CONFIG, GroebnerConfig, Ideal
from holoclosure.poly import Polynomial

Point = tuple  # n Gaussian rationals


class TangentReport(NamedTuple):
    """Kernel basis of the real Jacobian at a point, with the smoothness verdict."""

    basis: tuple
    jacobian_rank: int
    smooth: bool
    d: int


class CRReport(NamedTuple):
    d: int
    m: int
    smooth: bool
    rank_df: int
    rank_stacked: int


class DMEntry(NamedTuple):
    point: Point
    m: int | None
    agrees: bool | None
    error: str | None = None


class DMReport(NamedTuple):
    """Per-point comparison of the closure dimension with d - m."""

    h: int
    d: int
    entries: tuple

    @property
    def all_agree(self) -> bool:
        return all(e.agrees for e in self.entries)


def _as_real(system: System) -> System:
    return zeta_to_real(system) if system.form == ZETA_FORM else system


def _real_coordinates(system: System, point: Point) -> dict:
    n = system.n
    if len(point) != n:
        raise ValueError(f"expected {n} complex coordinates, got {len(point)}")
    values = {}
    for j in range(n):
        c = gq(point[j])
        values[system.context.names[2 * j]] = c.real_part()
        values[system.context.names[2 * j + 1]] = c.imag_part()
    return values


def _check_on_set(system: System, values: dict, point: Point):
    for g in system.generators:
        if g.evaluate(values):
            raise PointNotOnSetError(
                f"point {tuple(str(c) for c in point)} does not satisfy the system"
            )


def _jacobian_rows_at(system: System, values: dict) -> list:
    rows = []
    for g in system.generators:
        row = []
        for name in system.context.names:
            # real-form generators at real coordinates: every entry is a real element of Q(i)
            row.append(g.derivative(name).evaluate(values))
        rows.append(row)
    return rows


def _compose_with_j(row: list) -> list:
    out = list(row)
    for j in range(0, len(row), 2):
        out[j] = row[j + 1]
        out[j + 1] = -row[j]
    return out


def _real_dimension(system: System, config: GroebnerConfig) -> int:
    d = real_dimension(system, config)
    if d is None:
        raise EmptySetError("the system defines the empty set")
    return d


def tangent_space(
    system: System,
    point: Point,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> TangentReport:
    """Kernel of the real Jacobian at an exact point of a real-form system."""
    if system.form != REAL_FORM:
        raise ValueError("tangent_space expects a real-form system")
    d = _real_dimension(system, config)
    values = _real_coordinates(system, point)
    _check_on_set(system, values, point)
    rows = _jacobian_rows_at(system, values)
    kernel = linalg.nullspace(rows, system.context.size)
    rk = system.context.size - len(kernel)
    return TangentReport(tuple(tuple(v) for v in kernel), rk, rk == system.context.size - d, d)


def cr_dimension_at(
    system: System,
    point: Point,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> CRReport:
    """CR dimension of the tangent space at a smooth point."""
    return _cr_report(_as_real(system), point, _real_dimension(system, config))


def _cr_report(real_system: System, point: Point, d: int) -> CRReport:
    """Pointwise ranks at ``point`` of a real-form system of real dimension d."""
    values = _real_coordinates(real_system, point)
    _check_on_set(real_system, values, point)
    rows = _jacobian_rows_at(real_system, values)
    rank_df = linalg.rank(rows)
    two_n = real_system.context.size
    if rank_df != two_n - d:
        raise NonSmoothPointError(
            f"Jacobian rank {rank_df} != expected codimension {two_n - d}; "
            "supply germ generators for this point"
        )
    stacked = rows + [_compose_with_j(r) for r in rows]
    rank_stacked = linalg.rank(stacked)
    if (two_n - rank_stacked) % 2 != 0:
        raise InvariantError("T intersect JT must be even-dimensional")
    m = (two_n - rank_stacked) // 2
    if not 0 <= m <= d // 2:
        raise InvariantError(f"CR dimension {m} out of range for d={d}")
    return CRReport(d, m, True, rank_df, rank_stacked)


def _poly_minor(rows: list, row_idx: tuple, col_idx: tuple) -> Polynomial:
    """Determinant of a square polynomial submatrix by cofactor expansion."""
    k = len(row_idx)
    ctx = rows[0][0].context
    if k == 1:
        return rows[row_idx[0]][col_idx[0]]
    result = Polynomial.zero(ctx)
    top = row_idx[0]
    for pos, c in enumerate(col_idx):
        entry = rows[top][c]
        if entry.is_zero:
            continue
        rest_cols = col_idx[:pos] + col_idx[pos + 1:]
        sub = _poly_minor(rows, row_idx[1:], rest_cols)
        term = entry * sub
        result = result + (term if pos % 2 == 0 else -term)
    return result


def cr_strata_ideal(
    system: System,
    k: int,
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> Ideal:
    """Equations of the stratum {p : CR dimension at p >= k} inside the set.

    Adjoins to the system all (2n-2k+1)-minors of the symbolic stacked matrix
    [Df; Df o J]; when the minor size exceeds the matrix, the rank condition
    is vacuous and the stratum is the whole smooth locus.
    """
    real_system = _as_real(system)
    d = _real_dimension(system, config)
    if not 0 <= k <= d // 2:
        raise ValueError(f"stratum index k={k} out of range 0..{d // 2}")
    ctx = real_system.context
    two_n = ctx.size
    size = two_n - 2 * k + 1
    gens = list(real_system.generators)
    sym_rows = [[g.derivative(name) for name in ctx.names] for g in gens]
    stacked = sym_rows + [_compose_with_j(row) for row in sym_rows]
    if size <= min(len(stacked), two_n):
        seen = set(gens)
        for row_idx in combinations(range(len(stacked)), size):
            for col_idx in combinations(range(two_n), size):
                minor = _poly_minor(stacked, row_idx, col_idx)
                if not minor.is_zero and minor not in seen:
                    seen.add(minor)
                    gens.append(minor)
    return Ideal.from_polys(ctx, gens)


def verify_d_minus_m(
    system: System,
    points: Sequence[Point],
    config: GroebnerConfig = DEFAULT_CONFIG,
) -> DMReport:
    """Check h = d - m at each sampled point; disagreements are flagged, not fatal.

    A flagged point indicates it lies in an exceptional locus or that the
    ideal-level (global) closure dimension differs from the germ-level one
    there.  Both h and d come from the one closure basis; each point costs
    only exact rank computations.
    """
    hc = holomorphic_closure(system, config)
    h, d = hc.hc_dimension, hc.real_dimension
    real_system = _as_real(system)
    entries = []
    for point in points:
        try:
            report = _cr_report(real_system, point, d)
        except (PointNotOnSetError, NonSmoothPointError) as exc:
            entries.append(DMEntry(tuple(point), None, None, str(exc)))
            continue
        entries.append(DMEntry(tuple(point), report.m, h == d - report.m))
    return DMReport(h, d, tuple(entries))
