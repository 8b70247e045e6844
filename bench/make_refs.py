#!/usr/bin/env python3
"""Compute the benchmark's reference answers with sympy, independently of holoclosure.

Run once from the repository root when an input or a reference command changes:

    python3 bench/make_refs.py            # every reference
    python3 bench/make_refs.py cubic      # only the named ones

Writes ``bench/refs/<name>.json``.  Each file holds the expected exit code and
the expected ``results`` of one command.  Polynomial lists are compared as
sets by ``bench/check.py``, so generator order and printing order do not
matter.  sympy 1.14 with ``domain=QQ_I`` does the Groebner work; the block
elimination basis uses ``ProductOrder`` (eliminated block first, grevlex
inside each block), matching the toolkit's ``BlockElimination`` order.  The
benchmark itself never imports sympy.
"""

from __future__ import annotations

import json
import re
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path

from sympy import I, Matrix, Poly, Rational, expand, groebner, im, re as sre, symbols, sympify
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import ProductOrder, grevlex

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"


# -- reading input documents ---------------------------------------------------


def read_system(path: Path):
    """(declaration keyword, declared names, list of sympy expressions)."""
    decl, names, eqs, maps = None, [], [], []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, _, rest = line.partition(" ")
        if kw in ("vars", "realvars", "mapvars"):
            decl, names = kw, rest.split()
        elif kw in ("eq", "map"):
            (eqs if kw == "eq" else maps).append(rest)
    table = {n: symbols(n) for n in names}
    table.update({f"cz_{n}": symbols(f"cz_{n}") for n in names})
    table["I"] = I

    def to_expr(text):
        text = re.sub(r"conj\((\w+)\)", r"cz_\1", text).replace("^", "**")
        text = re.sub(r"\bi\b", "I", text)
        return expand(sympify(text, locals=table))

    return decl, names, [to_expr(e) for e in eqs], [to_expr(m) for m in maps], table


def swap_conjugate(expr, zs, ws):
    """Conjugate the coefficients and swap the z and w blocks."""
    poly = Poly(expr, *zs, *ws, domain=QQ_I)
    n = len(zs)
    out = 0
    for mono, c in poly.terms():
        c = c.conjugate()
        swapped = mono[n:] + mono[:n]
        term = c
        for v, e in zip(zs + ws, swapped):
            term *= v ** e
        out += term
    return expand(out)


def complexification(path: Path):
    """Generators of the complexified ideal in C[z, w] and the variables z, w."""
    decl, names, eqs, _, table = read_system(path)
    if decl == "vars":
        n = len(names)
        zs = list(symbols(" ".join(f"z{j}" for j in range(1, n + 1)), seq=True))
        ws = list(symbols(" ".join(f"w{j}" for j in range(1, n + 1)), seq=True))
        sub = {table[a]: z for a, z in zip(names, zs)}
        sub.update({table[f"cz_{a}"]: w for a, w in zip(names, ws)})
        gens = [expand(e.xreplace(sub)) for e in eqs]
        gens += [swap_conjugate(g, zs, ws) for g in gens]
        return gens, zs, ws
    n = len(names) // 2
    zs = list(symbols(" ".join(f"z{j}" for j in range(1, n + 1)), seq=True))
    ws = list(symbols(" ".join(f"w{j}" for j in range(1, n + 1)), seq=True))
    sub = {}
    for j in range(n):
        sub[table[names[2 * j]]] = (zs[j] + ws[j]) / 2
        sub[table[names[2 * j + 1]]] = (zs[j] - ws[j]) / (2 * I)
    return [expand(e.xreplace(sub)) for e in eqs], zs, ws


# -- Groebner helpers ------------------------------------------------------------


def basis(gens, variables, order):
    if not gens:
        return []
    return list(groebner(gens, *variables, order=order, domain=QQ_I).polys)


def block_order(n_elim_first: int, total: int):
    """ProductOrder with the first ``n_elim_first`` generators eliminated."""
    head = slice(0, n_elim_first)
    tail = slice(n_elim_first, total)
    return ProductOrder((grevlex, lambda m: m[head]), (grevlex, lambda m: m[tail]))


def staircase_dimension(polys, variables):
    """Krull dimension from a grevlex basis; None for the unit ideal."""
    nvars = len(variables)
    if not polys:
        return nvars
    supports = [frozenset(k for k, e in enumerate(p.monoms(order="grevlex")[0]) if e) for p in polys]
    if any(not s for s in supports):
        return None
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            s = set(S)
            if not any(sup <= s for sup in supports):
                return size
    return None


def dimension(gens, variables):
    return staircase_dimension(basis(gens, variables, "grevlex"), variables)


def eliminated(gens, elim, kept):
    """Elements of the reduced block basis free of the ``elim`` variables."""
    order = block_order(len(elim), len(elim) + len(kept))
    out = []
    for p in basis(gens, list(elim) + list(kept), order):
        expr = p.as_expr()
        if not expr.free_symbols & set(elim):
            out.append(expr)
    return out


# -- canonical text ---------------------------------------------------------------


def frac_text(q) -> str:
    q = Fraction(int(q.p), int(q.q)) if hasattr(q, "p") else Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def poly_text(expr, variables, names=None) -> str:
    """Terms as ``(re+im*i)*x^e*...`` joined by `` + ``; parsed by check.py."""
    names = names or [str(v) for v in variables]
    poly = Poly(expr, *variables, domain=QQ_I)
    chunks = []
    for mono, c in poly.terms():
        c = expand(c)
        coeff = f"({frac_text(Rational(sre(c)))}+{frac_text(Rational(im(c)))}*i)"
        factors = [coeff] + [f"{nm}^{e}" for nm, e in zip(names, mono) if e]
        chunks.append("*".join(factors))
    return " + ".join(chunks) if chunks else "0"


def texts(exprs, variables, names=None):
    return sorted(poly_text(e, variables, names) for e in exprs)


# -- references --------------------------------------------------------------------


def ref_hcdim(path):
    gens, zs, ws = complexification(path)
    d = dimension(gens, zs + ws)
    hc = eliminated(gens, ws, zs)
    h = dimension(hc, zs) if hc else len(zs)
    return {"real_dimension": d, "hc_dimension": h, "hc_ideal": texts(hc, zs)}


def ref_realdim(path):
    gens, zs, ws = complexification(path)
    return {"real_dimension": dimension(gens, zs + ws)}


def ref_groebner(path, order):
    decl, names, eqs, _, table = read_system(path)
    variables = [table[n] for n in names]
    polys = basis(eqs, variables, order)
    context = names + ([f"conj({n})" for n in names] if decl == "vars" else [])
    return {
        "order": order,
        "variables": context,
        "basis": texts([p.as_expr() for p in polys], variables),
    }


def ref_eliminate_zetabar(path):
    decl, names, eqs, _, table = read_system(path)
    zs = [table[n] for n in names]
    cs = [table[f"cz_{n}"] for n in names]
    return {"block": "zetabar", "variables": names, "generators": texts(eliminated(eqs, cs, zs), zs)}


def ref_eliminate_map(path):
    decl, names, _, maps, table = read_system(path)
    params = [table[n] for n in names]
    zs = list(symbols(" ".join(f"z{j}" for j in range(1, len(maps) + 1)), seq=True))
    graph = [z - f for z, f in zip(zs, maps)]
    return {"block": "param", "variables": [str(z) for z in zs],
            "generators": texts(eliminated(graph, params, zs), zs)}


def real_form(path):
    """Real-form generators over x1,y1,...: zeta = x + i*y, split into parts."""
    decl, names, eqs, _, table = read_system(path)
    if decl == "realvars":
        return [table[n] for n in names], names, eqs
    n = len(names)
    xy_names = [f"{c}{j}" for j in range(1, n + 1) for c in ("x", "y")]
    xy = list(symbols(" ".join(xy_names), seq=True, real=True))
    sub = {}
    for j, a in enumerate(names):
        sub[table[a]] = xy[2 * j] + I * xy[2 * j + 1]
        sub[table[f"cz_{a}"]] = xy[2 * j] - I * xy[2 * j + 1]
    gens = []
    for e in eqs:
        h = expand(e.xreplace(sub))
        for part in (expand(sre(h)), expand(im(h))):
            if part != 0 and part not in gens:
                gens.append(part)
    return xy, xy_names, gens


def stacked_rows(variables, gens):
    rows = [[g.diff(v) for v in variables] for g in gens]
    jrows = []
    for row in rows:
        jr = list(row)
        for j in range(0, len(row), 2):
            jr[j], jr[j + 1] = row[j + 1], -row[j]
        jrows.append(jr)
    return rows, rows + jrows


def ref_strata(path, k):
    xy, xy_names, gens = real_form(path)
    _, stacked = stacked_rows(xy, gens)
    size = len(xy) - 2 * k + 1
    out = list(gens)
    if size <= min(len(stacked), len(xy)):
        for ri in combinations(range(len(stacked)), size):
            for ci in combinations(range(len(xy)), size):
                minor = expand(Matrix([[stacked[r][c] for c in ci] for r in ri]).det())
                if minor != 0 and minor not in out:
                    out.append(minor)
    return {"k": k, "variables": xy_names, "generators": texts(out, xy, xy_names)}


def parse_point(text):
    return [expand(sympify(c.replace("^", "**").replace("i", "I"))) for c in text.split(",")]


def cr_at(xy, gens, point):
    values = {}
    for j, c in enumerate(point):
        values[xy[2 * j]] = sre(c)
        values[xy[2 * j + 1]] = im(c)
    rows, stacked = stacked_rows(xy, gens)
    rank_df = Matrix([[e.xreplace(values) for e in r] for r in rows]).rank()
    rank_st = Matrix([[e.xreplace(values) for e in r] for r in stacked]).rank()
    return rank_df, rank_st, (len(xy) - rank_st) // 2


def ref_crdim(path, point):
    xy, _, gens = real_form(path)
    gens_zw, zs, ws = complexification(path)
    d = dimension(gens_zw, zs + ws)
    rank_df, rank_st, m = cr_at(xy, gens, parse_point(point))
    assert rank_df == len(xy) - d, "reference point is not smooth"
    return {"d": d, "m": m, "smooth": True, "rank_df": rank_df, "rank_stacked": rank_st}


def point_text(c):
    c = expand(c)
    re_t, im_t = frac_text(Rational(sre(c))), Rational(im(c))
    if im_t == 0:
        return re_t
    im_s = "i" if im_t == 1 else "-i" if im_t == -1 else f"{frac_text(im_t)}*i"
    if sre(c) == 0:
        return im_s
    return f"{re_t}{'+' if im_t > 0 else ''}{im_s}"


def ref_verify_dm(path, points):
    hc = ref_hcdim(path)
    h, d = hc["hc_dimension"], hc["real_dimension"]
    xy, _, gens = real_form(path)
    entries = []
    for text in points:
        point = parse_point(text)
        _, _, m = cr_at(xy, gens, point)
        entries.append({"point": [point_text(c) for c in point], "m": m,
                        "agrees": h == d - m, "error": None})
    return {"hc_dimension": h, "real_dimension": d, "entries": entries,
            "all_agree": all(e["agrees"] for e in entries)}


def ref_osgood(orders, max_degree):
    """Minimal relation degree and the unique normalized witness, per jet order.

    The linear system is the one the probe solves (unknowns: coefficients of
    F of degree <= D, equations: parameter monomials of degree <= K); the
    witness is then checked to vanish on the truncated series directly.
    """
    v, w = symbols("v w")
    z = symbols("z1 z2 z3")
    table = []
    for K in orders:
        exp_w = sum(w ** j / factorial(j) for j in range(K + 1))
        comps = [Poly(v, v, w, domain=QQ), Poly(v * w, v, w, domain=QQ),
                 Poly(expand(v * w * exp_w), v, w, domain=QQ)]

        def trunc(p):
            return Poly.from_dict({m: c for m, c in p.as_dict().items() if sum(m) <= K}, v, w, domain=QQ)

        cols_all = sorted(
            [(a, b, c) for a in range(max_degree + 1) for b in range(max_degree + 1 - a)
             for c in range(max_degree + 1 - a - b)],
            key=lambda m: (sum(m), tuple(-e for e in reversed(m))),
        )
        composed = {}
        for alpha in cols_all:
            acc = Poly(1, v, w, domain=QQ)
            for comp, e in zip(comps, alpha):
                for _ in range(e):
                    acc = trunc(acc * comp)
            composed[alpha] = acc.as_dict()
        eqs = [(a, b) for a in range(K + 1) for b in range(K + 1 - a)]
        found = None
        for degree in range(1, max_degree + 1):
            cols = [a for a in cols_all if sum(a) <= degree]
            M = DomainMatrix([[QQ.convert(composed[a].get(mu, 0)) for a in cols] for mu in eqs],
                             (len(eqs), len(cols)), QQ)
            rref, pivots = M.rref()
            free = [c for c in range(len(cols)) if c not in pivots]
            if free:
                # the kernel vector of the first free column in the unique
                # reduced row echelon form, as the probe's witness is
                rows = rref.to_Matrix()
                vec = [Rational(0)] * len(cols)
                vec[free[0]] = Rational(1)
                for r, p in enumerate(pivots):
                    vec[p] = -rows[r, free[0]]
                first = next(x for x in vec if x != 0)
                vec = [x / first for x in vec]
                F = sum(c * z[0] ** a[0] * z[1] ** a[1] * z[2] ** a[2] for c, a in zip(vec, cols))
                found = (degree, F)
                break
        if found is None:
            table.append({"jet_order": K, "min_relation_degree": None, "witness": None})
            continue
        degree, F = found
        substituted = Poly(F, *z, domain=QQ)
        total = Poly(0, v, w, domain=QQ)
        for mono, c in substituted.terms():
            total += Poly.from_dict(composed[mono], v, w, domain=QQ) * c
        assert all(sum(m) > K for m in trunc(total).as_dict()), "witness does not vanish"
        table.append({"jet_order": K, "min_relation_degree": degree,
                      "witness": poly_text(F, list(z))})
    return {"table": table}


INPUTS = BENCH / "inputs"
FIX = ROOT / "fixtures"

REFERENCES = {
    "cubic_hcdim": lambda: ref_hcdim(INPUTS / "cubic.sys"),
    "ladder30_hcdim": lambda: ref_hcdim(INPUTS / "ladder30.sys"),
    "katsura4_groebner": lambda: ref_groebner(INPUTS / "katsura4.sys", "grevlex"),
    "cyclic5_groebner": lambda: ref_groebner(INPUTS / "cyclic5.sys", "grevlex"),
    "katsura3_groebner_lex": lambda: ref_groebner(INPUTS / "katsura3.sys", "lex"),
    "umbrella_realdim": lambda: ref_realdim(FIX / "umbrella.sys"),
    "sphere_strata1": lambda: ref_strata(FIX / "sphere.sys", 1),
    "umbrella_strata1": lambda: ref_strata(FIX / "umbrella.sys", 1),
    "sphere_verify_dm": lambda: ref_verify_dm(FIX / "sphere.sys", ["1, 0", "0, i", "3/5, 4/5*i"]),
    "sphere_crdim": lambda: ref_crdim(FIX / "sphere.sys", "3/5, 4/5"),
    "paraboloid_eliminate": lambda: ref_eliminate_zetabar(FIX / "paraboloid.sys"),
    "whitney_eliminate": lambda: ref_eliminate_map(FIX / "whitney.map"),
    "umbrella_groebner_lex": lambda: ref_groebner(FIX / "umbrella.sys", "lex"),
    "osgood_probe": lambda: ref_osgood([20, 24], 10),
}


def main(argv):
    REFS.mkdir(exist_ok=True)
    for name in argv or list(REFERENCES):
        t0 = time.perf_counter()
        results = REFERENCES[name]()
        payload = {"exit": 0, "results": results}
        (REFS / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
