"""Outside-in tracing of holoclosure for the benchmark's traced run.

``Tracer.install`` replaces the layer entry points of each holoclosure module
with wrappers at every binding site (a function imported by name into another
module is a second binding, e.g. ``closure.buchberger`` next to
``groebner.buchberger``), and ``uninstall`` puts the originals back.  The
source is never edited.  Spans are kept in memory as ``[name, start, end,
parent]``; a layer's self time is its span minus its direct child spans.

Hot per-term methods (``Polynomial.sorted_terms``, ``Polynomial.sub_scaled``,
``Jet.__mul__``) are counted but get no span: they run hundreds of thousands
of times per command.  Per-term helpers (``monomial_*``, Gaussian rational
arithmetic) are not wrapped at all, for the same reason.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

ORDER_NAMES = {"Grevlex": "grevlex", "Lex": "lex", "BlockElimination": "block"}
ORDERS = ("grevlex", "lex", "block")

# (module, function, span name, call counter or None)
FUNCTION_SPANS = [
    ("holoclosure.syntax", "parse", "syntax.parse", None),
    ("holoclosure.syntax", "parse_point", "syntax.parse", None),
    ("holoclosure.complexify", "complexify_ideal", "complexify", None),
    ("holoclosure.complexify", "conjugation_closure", "complexify", None),
    ("holoclosure.groebner", "ideal_membership", "groebner.ideal_membership",
     "complexify.membership_tests"),
    ("holoclosure.groebner", "dimension_and_witness", "groebner.dimension", None),
    ("holoclosure.groebner", "eliminate", "groebner.eliminate", None),
    ("holoclosure.closure", "holomorphic_closure", "closure.holomorphic_closure", None),
    ("holoclosure.closure", "hc_dimension_parametrized", "closure.parametrized", None),
    ("holoclosure.closure", "pullback_kernel", "closure.pullback_kernel", None),
    ("holoclosure.closure", "gabrielov_r1", "closure.gabrielov_r1", None),
    ("holoclosure.closure", "sample_point_on_variety", "closure.sample_point",
     "closure.sample_point.calls"),
    ("holoclosure.crgeom", "cr_strata_ideal", "crgeom.strata_ideal", None),
    ("holoclosure.crgeom", "cr_dimension_at", "crgeom.cr_dimension_at",
     "crgeom.cr_dimension_at.calls"),
    ("holoclosure.crgeom", "verify_d_minus_m", "crgeom.verify_d_minus_m", None),
    ("holoclosure.jets", "relation_probe", "jets.relation_probe", None),
]

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "syntax.parse_ms": ("ms", "cmd_p50_ms on fixture-sweep; wall_s on hc-hard (ladder expansion)"),
    "cli.render_ms": ("ms", "cmd_p50_ms on fixture-sweep"),
    "complexify.self_ms": ("ms", "cmd_p50_ms on fixture-sweep"),
    "complexify.membership_tests": ("count", "wall_s on hc-hard"),
    **{f"groebner.buchberger.calls.{o}": ("count", "wall_s on hc-hard") for o in ORDERS},
    **{f"groebner.buchberger_ms.{o}": ("ms", "wall_s on hc-hard and gb-classic") for o in ORDERS},
    "groebner.normal_form_ms": ("ms", "wall_s on hc-hard and gb-classic"),
    "groebner.dimension_ms": ("ms", "wall_s on hc-hard"),
    "groebner.spairs_reduced": ("count", "wall_s on gb-classic"),
    "groebner.zero_reductions": ("count", "wall_s on gb-classic"),
    "groebner.nonzero_remainders": ("count", "wall_s on gb-classic"),
    "groebner.useful_reduction_ratio": ("ratio", "wall_s on gb-classic"),
    "groebner.basis_elements": ("count", "peak_rss_mb"),
    "poly.sorted_terms.calls": ("count", "wall_s on hc-hard and gb-classic"),
    "poly.sub_scaled.calls": ("count", "wall_s on hc-hard and gb-classic"),
    "poly.sub_scaled.terms_copied": ("count", "wall_s on hc-hard and gb-classic"),
    "arith.coeff_bits_max": ("count", "wall_s on gb-classic; peak_rss_mb"),
    "closure.sample_point_ms": ("ms", "cmd_p90_ms on fixture-sweep"),
    "closure.sample_point.calls": ("count", "cmd_p90_ms on fixture-sweep"),
    "crgeom.strata_ideal_ms": ("ms", "cmd_p90_ms on fixture-sweep"),
    "crgeom.cr_dimension_at.calls": ("count", "cmd_p50_ms on fixture-sweep"),
    "linalg.nullspace_ms": ("ms", "wall_s on jet-probe"),
    "linalg.rank_ms": ("ms", "wall_s on jet-probe"),
    "linalg.cells_max": ("count", "wall_s on jet-probe"),
    "jets.relation_probe_ms": ("ms", "wall_s on jet-probe"),
    "jets.jet_mul.calls": ("count", "wall_s on jet-probe"),
    "trace.overhead_ratio": ("ratio", "none: traced wall_s over untraced wall_s"),
    "fail_ratio": ("ratio", "none: failed over attempted commands, every workload"),
}

# span name -> self-time metric
SELF_TIME_METRICS = {
    "syntax.parse": "syntax.parse_ms",
    "cli.render": "cli.render_ms",
    "complexify": "complexify.self_ms",
    **{f"groebner.buchberger.{o}": f"groebner.buchberger_ms.{o}" for o in ORDERS},
    "groebner.normal_form": "groebner.normal_form_ms",
    "groebner.dimension": "groebner.dimension_ms",
    "closure.sample_point": "closure.sample_point_ms",
    "crgeom.strata_ideal": "crgeom.strata_ideal_ms",
    "linalg.nullspace": "linalg.nullspace_ms",
    "linalg.rank": "linalg.rank_ms",
    "jets.relation_probe": "jets.relation_probe_ms",
}

MAX_METRICS = ("arith.coeff_bits_max", "linalg.cells_max")


def _coeff_bits(basis) -> int:
    bits = 0
    for g in basis:
        for c in g.terms.values():
            for q in (c.re, c.im):
                bits = max(bits, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one command, from wrappers it installs and removes."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []
        self._spoly = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, counter: str | None = None):
        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _buchberger(self, fn):
        def wrapper(I, order, *args, **kwargs):
            name = ORDER_NAMES.get(type(order).__name__, type(order).__name__.lower())
            index = self._open(f"groebner.buchberger.{name}")
            try:
                gb = fn(I, order, *args, **kwargs)
            finally:
                self._close(index)
            self.counts[f"groebner.buchberger.calls.{name}"] += 1
            self.counts["groebner.basis_elements"] += len(gb.basis)
            self._maximum("arith.coeff_bits_max", _coeff_bits(gb.basis))
            return gb
        return wrapper

    def _s_polynomial(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["groebner.spairs_reduced"] += 1
            self._spoly = fn(*args, **kwargs)
            return self._spoly
        return wrapper

    def _normal_form(self, fn):
        def wrapper(f, *args, **kwargs):
            from_spair = f is self._spoly
            self._spoly = None
            index = self._open("groebner.normal_form")
            try:
                r = fn(f, *args, **kwargs)
            finally:
                self._close(index)
            if from_spair:
                self.counts["groebner.zero_reductions" if r.is_zero else "groebner.nonzero_remainders"] += 1
            return r
        return wrapper

    def _matrix(self, name: str, fn):
        def wrapper(rows, *args, **kwargs):
            ncols = len(rows[0]) if rows else (args[0] if args and args[0] else 0)
            self._maximum("linalg.cells_max", len(rows) * ncols)
            index = self._open(name)
            try:
                return fn(rows, *args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _maximum(self, key: str, value: int):
        if value > self.counts[key]:
            self.counts[key] = value

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Rebind every module attribute that holds ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "holoclosure" or mod_name.startswith("holoclosure.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self):
        from holoclosure import cli, groebner, jets, linalg, poly

        for mod_name, fn_name, span_name, counter in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], fn_name)
            self._replace_everywhere(original, self.span(span_name, original, counter))
        self._replace_everywhere(groebner.buchberger, self._buchberger(groebner.buchberger))
        self._replace_everywhere(groebner.normal_form, self._normal_form(groebner.normal_form))
        self._replace_everywhere(groebner.s_polynomial, self._s_polynomial(groebner.s_polynomial))
        self._replace_everywhere(linalg.nullspace, self._matrix("linalg.nullspace", linalg.nullspace))
        self._replace_everywhere(linalg.rank, self._matrix("linalg.rank", linalg.rank))

        counts = self.counts
        for attr in ("to_json", "to_text"):
            self._replace_method(cli.Report, attr, lambda fn: self.span("cli.render", fn))

        def sorted_terms(fn):
            def wrapper(p, order):
                counts["poly.sorted_terms.calls"] += 1
                return fn(p, order)
            return wrapper

        def sub_scaled(fn):
            def wrapper(p, other, m, c):
                counts["poly.sub_scaled.calls"] += 1
                counts["poly.sub_scaled.terms_copied"] += len(p.terms)
                return fn(p, other, m, c)
            return wrapper

        def jet_mul(fn):
            def wrapper(a, b):
                counts["jets.jet_mul.calls"] += 1
                return fn(a, b)
            return wrapper

        self._replace_method(poly.Polynomial, "sorted_terms", sorted_terms)
        self._replace_method(poly.Polynomial, "sub_scaled", sub_scaled)
        self._replace_method(jets.Jet, "__mul__", jet_mul)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def record(self) -> dict:
        """Spans with times relative to the first span, and the counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
        return {"spans": spans, "counts": dict(self.counts)}


# -- per-layer metrics -----------------------------------------------------------


def self_times(spans) -> dict:
    """Seconds of self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for k, (name, start, end, parent) in enumerate(spans):
        out[name] += end - start - child[k]
    return out


def pass_metrics(records) -> tuple:
    """(self-time metrics in ms, count metrics) summed over one pass's commands."""
    times = Counter()
    counts = Counter()
    for rec in records:
        for name, seconds in self_times(rec["spans"]).items():
            if name in SELF_TIME_METRICS:
                times[SELF_TIME_METRICS[name]] += seconds * 1000.0
        for key, value in rec["counts"].items():
            if key in MAX_METRICS:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    spairs = counts["groebner.spairs_reduced"]
    counts["groebner.useful_reduction_ratio"] = (
        counts["groebner.nonzero_remainders"] / spairs if spairs else 0.0
    )
    return (
        {m: float(times[m]) for m in set(SELF_TIME_METRICS.values())},
        {m: counts[m] for m, (unit, _) in PER_LAYER.items()
         if unit != "ms" and m not in ("trace.overhead_ratio", "fail_ratio")},
    )


def layer_summary(passes) -> tuple:
    """Median self times over traced passes, and counts if every pass agrees.

    Returns (metrics, counts agreed).  ``passes`` is a list of
    (times, counts) pairs from ``pass_metrics``.
    """
    metrics = {}
    for name in passes[0][0]:
        metrics[name] = statistics.median(p[0][name] for p in passes)
    agreed = all(p[1] == passes[0][1] for p in passes)
    metrics.update(passes[0][1])
    return metrics, agreed
