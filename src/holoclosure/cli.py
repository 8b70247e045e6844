"""Command-line surface: parses input documents, runs the computations,
and emits deterministic human-readable or JSON reports.

Exit codes: 0 success, 2 parse error, unreadable or non-UTF-8 input, or a
refused command line (such as a budget, jet order or probe degree below 1),
3 resource-limit abort, 4 semantic precondition failure (empty set, point
off the set, non-smooth point, ...), 5 internal invariant violated (a
defect in the toolkit, not in the input).
Errors are also echoed in the report diagnostics.

Command lines are read from the ``_COMMANDS`` table.  A plain line (the
command, its exact flags, each valued one followed by a value that does not
start with "-" or written ``--flag=value``, the input, every required
argument, values its rows accept) is read without argparse, so a valid
command imports neither argparse nor gettext.  argparse reads every other
line, with the parser ``build_arg_parser`` builds from the same table: help,
abbreviated flags, ``--``, values that start with "-", and every refused
line.  One departure from argparse 3.11: ``--flag=--`` gives the value
``--``, where argparse stores an empty list.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from holoclosure.arith import gq_to_text
from holoclosure.closure import (
    gabrielov_r1,
    hc_dimension_parametrized,
    holomorphic_closure,
    pullback_kernel,
)
from holoclosure.complexify import ZETA_FORM, System, real_dimension
from holoclosure.crgeom import cr_dimension_at, cr_strata_ideal, verify_d_minus_m
from holoclosure.errors import (
    EmptySetError,
    InputReadError,
    InvariantError,
    NonSmoothPointError,
    PointNotOnSetError,
    ResourceLimitError,
    SamplingError,
)
from holoclosure.groebner import (
    DEFAULT_CONFIG,
    GroebnerConfig,
    Ideal,
    buchberger,
    eliminate as eliminate_ideal,
)
from holoclosure.jets import osgood_probe, symbolic_probe
from holoclosure.poly import Block, GREVLEX, LEX, polynomial_to_text
from holoclosure.syntax import (
    KIND_JETS,
    KIND_MAP,
    KIND_PARAMETRIZATION,
    InputDocument,
    ParseError,
    parse,
    parse_point,
)

# The objects built by the imports live for the whole process; moved out of
# the collector's generations, they cannot set off a collection inside a command.
gc.freeze()

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_SEMANTIC = 4
EXIT_INVARIANT = 5

GERM_NOTE = (
    "ideal-level (Zariski-global) semantics: at points of the exceptional set, "
    "supply generators of the local germ"
)


class Report:
    """One command's report, filled in as the command runs."""

    __slots__ = ("command", "inputs", "results", "diagnostics")

    def __init__(self, command: str):
        self.command = command
        self.inputs = {}
        self.results = {}
        self.diagnostics = []

    def to_json(self) -> str:
        fields = {name: getattr(self, name) for name in self.__slots__}
        return json.dumps(fields, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"input {key}: {_render(value)}")
        for key, value in self.results.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{key}:")
                for row in value:
                    lines.append("  " + ", ".join(f"{k}={_render(v)}" for k, v in row.items()))
            else:
                lines.append(f"{key}: {_render(value)}")
        for note in self.diagnostics:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "(" + (", ".join(_render(v) for v in value) if value else "0") + ")"
    return str(value)


def _ideal_strings(ideal: Ideal) -> list:
    return [polynomial_to_text(g) for g in ideal.generators]


def _point_strings(point) -> list:
    return [gq_to_text(c) for c in point]


def _read_input(path: str) -> str:
    """The input document, decoded as strict UTF-8 from a file or from stdin."""
    try:
        if path == "-":
            # the raw bytes, not the locale's decoding, which may escape bad bytes
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputReadError(f"cannot read input {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputReadError(f"cannot read input {path!r}: {exc}") from None


def _echo_inputs(doc: InputDocument) -> dict:
    return {
        "kind": doc.kind,
        "variables": list(doc.declared),
        "statements": [f"{kw} {polynomial_to_text(p)}" for kw, p in doc.statements],
    }


def _require_kind(doc: InputDocument, kind: str):
    if doc.kind != kind:
        raise ValueError(f"this command needs a {kind} document, got {doc.kind}")


def _report_probe(report, results):
    report.results = {"table": [{
        "jet_order": res.jet_order,
        "min_relation_degree": res.min_relation_degree,
        "witness": polynomial_to_text(res.witness) if res.witness is not None else None,
    } for res in results]}
    report.diagnostics.append("non-regularity evidence only: truncation cannot prove ker = 0")


def _closure_results(hc) -> dict:
    return {
        "real_dimension": hc.real_dimension,
        "hc_dimension": hc.hc_dimension,
        "hc_ideal": _ideal_strings(hc.hc_ideal),
    }


def _cmd_hcdim(args, doc, config, report):
    report.results = _closure_results(holomorphic_closure(System.from_document(doc), config))
    report.diagnostics.append(GERM_NOTE)


def _cmd_realdim(args, doc, config, report):
    system = System.from_document(doc)
    d = real_dimension(system, config)
    report.results = {"real_dimension": "empty" if d is None else d}
    if d is None:
        report.diagnostics.append("the equations define the empty set")


def _cmd_param_hcdim(args, doc, config, report):
    _require_kind(doc, KIND_PARAMETRIZATION)
    report.results = _closure_results(hc_dimension_parametrized(doc.map_components, config))


def _cmd_ranks(args, doc, config, report):
    _require_kind(doc, KIND_MAP)
    source = Ideal.from_polys(doc.context, doc.equations)
    ranks = gabrielov_r1(doc.map_components, source, seed=args.seed, config=config)
    report.results = {
        "r1": ranks.r1,
        "r3": ranks.r3,
        "lambda": ranks.lam,
        "regular": ranks.regular,
        "fibre_witness": _point_strings(ranks.fibre_witness),
        "kernel": _ideal_strings(ranks.kernel),
    }


def _cmd_crdim(args, doc, config, report):
    system = System.from_document(doc)
    point = parse_point(args.point, system.n)
    cr = cr_dimension_at(system, point, config)
    report.results = {
        "d": cr.d,
        "m": cr.m,
        "smooth": cr.smooth,
        "rank_df": cr.rank_df,
        "rank_stacked": cr.rank_stacked,
    }


def _cmd_strata(args, doc, config, report):
    system = System.from_document(doc)
    ideal = cr_strata_ideal(system, args.k, config)
    report.results = {
        "k": args.k,
        "variables": list(ideal.context.names),
        "generators": _ideal_strings(ideal),
    }


def _cmd_verify_dm(args, doc, config, report):
    system = System.from_document(doc)
    points = [parse_point(p, system.n) for p in args.point]
    dm = verify_d_minus_m(system, points, config)
    entries = []
    for e in dm.entries:
        entries.append({
            "point": _point_strings(e.point),
            "m": e.m,
            "agrees": e.agrees,
            "error": e.error,
        })
    report.results = {
        "hc_dimension": dm.h,
        "real_dimension": dm.d,
        "entries": entries,
        "all_agree": dm.all_agree,
    }
    if not dm.all_agree:
        report.diagnostics.append(
            "disagreement indicates an exceptional point or germ/global divergence"
        )


def _cmd_groebner(args, doc, config, report):
    system = System.from_document(doc)
    order = LEX if args.order == "lex" else GREVLEX
    gb = buchberger(system.ideal(), order, config)
    report.results = {
        "order": args.order,
        "variables": list(system.context.names),
        "basis": [polynomial_to_text(g, order) for g in gb.basis],
    }


def _cmd_eliminate(args, doc, config, report):
    if doc.kind == KIND_MAP:
        source = Ideal.from_polys(doc.context, doc.equations)
        result = pullback_kernel(doc.map_components, source, config)
        block = "param"
    else:
        system = System.from_document(doc)
        if system.form != ZETA_FORM:
            raise ValueError("eliminate works on zeta-form systems or maps")
        result = eliminate_ideal(system.ideal(), Block.ZETABAR, config)
        block = "zetabar"
    report.results = {
        "block": block,
        "variables": list(result.context.names),
        "generators": _ideal_strings(result),
    }


def _cmd_probe_osgood(args, doc, config, report):
    report.inputs = {"jet_orders": args.jets, "max_degree": args.maxdeg}
    _report_probe(report, osgood_probe(args.jets, args.maxdeg))


def _cmd_probe(args, doc, config, report):
    _require_kind(doc, KIND_JETS)
    _report_probe(report, symbolic_probe(doc.jet_components, args.jets, args.maxdeg))


def _refuse(message: str):
    """Refuse a command-line value with ``message``, as argparse reports it."""
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(message)


def _budget(text: str) -> int:
    """A budget or degree bound from the command line: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        _refuse(f"invalid int value: {text!r}")
    if value < 1:
        _refuse(f"must be at least 1, got {value}")
    return value


def _jet_orders(text: str) -> list:
    """Truncation orders from the command line: a nonempty comma-separated list, each at least 1."""
    orders = [_budget(part) for part in text.split(",") if part.strip()]
    if not orders:
        _refuse(f"expects a comma-separated list of orders, got {text!r}")
    return orders


# (name or flag, add_argument keywords): the flags every subcommand takes
_COMMON = (
    ("--json", {"action": "store_true", "default": False, "help": "emit a JSON report"}),
    ("--seed", {"type": int, "default": 0, "help": "seed for random sampling"}),
    ("--max-pairs", {"type": _budget, "default": DEFAULT_CONFIG.max_pairs,
                     "help": "override the Groebner S-pair budget (at least 1)"}),
    ("--max-degree", {"type": _budget, "default": DEFAULT_CONFIG.max_degree,
                      "help": "override the Groebner degree budget (at least 1)"}),
)
_INPUT = ("input", {"help": "input file path, or - for stdin"})
_PROBE = (
    ("--jets", {"required": True, "type": _jet_orders,
                "help": "comma-separated truncation orders (each at least 1)"}),
    ("--maxdeg", {"required": True, "type": _budget,
                  "help": "largest relation degree searched (at least 1)"}),
)

# command -> (handler, help, arguments beyond the common flags)
_COMMANDS = {
    "hcdim": (_cmd_hcdim, "holomorphic closure dimension of a system", (_INPUT,)),
    "realdim": (_cmd_realdim, "real dimension of a system", (_INPUT,)),
    "param-hcdim": (_cmd_param_hcdim, "closure dimension of a parametrized image", (_INPUT,)),
    "ranks": (_cmd_ranks, "Gabrielov ranks r1, r3 of a polynomial map", (_INPUT,)),
    "crdim": (_cmd_crdim, "CR dimension at a point", (
        _INPUT, ("--point", {"required": True, "help": 'point as "a/b+c/d*i, ..."'}))),
    "strata": (_cmd_strata, "ideal of the CR stratum {m >= k}", (
        _INPUT, ("--k", {"required": True, "type": int}))),
    "verify-dm": (_cmd_verify_dm, "check h = d - m at sampled points", (
        _INPUT, ("--point", {"required": True, "action": "append",
                             "help": "repeatable; one point per flag"}))),
    "groebner": (_cmd_groebner, "reduced Groebner basis of a system's ideal", (
        _INPUT, ("--order", {"choices": ("grevlex", "lex"), "default": "grevlex"}))),
    "eliminate": (_cmd_eliminate, "elimination ideal (zetabar block, or map source block)",
                  (_INPUT,)),
    "probe-osgood": (_cmd_probe_osgood, "relation probe on the Osgood map", _PROBE),
    "probe": (_cmd_probe, "relation probe on user jet components", (_INPUT,) + _PROBE),
}


def build_arg_parser(command: str | None = None):
    """The argparse parser over the table, holding ``command``'s subparser only or every one.

    It reads each command line that is not plain, and prints help and usage.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            # argparse 3.11 drops the value of "--flag=--" and stores []; it is "--"
            if action.option_strings and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    parser = Parser(
        prog="holoclosure",
        description="holomorphic closure dimension, CR strata, and Gabrielov ranks "
                    "for real algebraic subsets of C^n",
    )
    # a lone subparser is listed under every command, as all of them are
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        _, help_text, arguments = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        for flag, keywords in _COMMON + arguments:
            subparser.add_argument(flag, **keywords)
    return parser


def _dest(name):
    return name.lstrip("-").replace("-", "_")


def _read_plain(argv):
    """The namespace of a plain command line, or None.

    A plain line is the command, then its exact flags, a valued one followed
    by a value that does not start with "-" or written ``--flag=value``, and
    the input at most once; it gives every required argument, and each value
    converts by its row's ``type`` and is among its ``choices``.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = _COMMON + _COMMANDS[argv[0]][2]
    table = dict(rows)
    values = {"command": argv[0], **{_dest(name): keywords.get("default") for name, keywords in rows}}
    args = iter(argv[1:])
    for arg in args:
        if arg[:1] != "-" or arg == "-":
            name, text = "input", arg
            if name not in table or values[name] is not None:
                return None
        else:
            name, eq, text = arg.partition("=")
            if name not in table:
                return None
            if table[name].get("action") == "store_true":
                if eq:
                    return None
                values[_dest(name)] = True
                continue
            if not eq:
                text = next(args, "-")
                if text[:1] == "-":
                    return None
        keywords = table[name]
        # a value refused here is converted again by argparse, which reports a
        # ValueError or an ArgumentTypeError and raises any other exception
        try:
            value = keywords.get("type", str)(text)
        except Exception:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        dest = _dest(name)
        values[dest] = [*(values[dest] or ()), value] if keywords.get("action") == "append" else value
    if any(values[_dest(name)] is None for name, keywords in rows
           if name == "input" or keywords.get("required")):
        return None
    return SimpleNamespace(**values)


def _parse_args(argv):
    """The namespace of ``argv``: a plain line read from the table, any other by argparse."""
    args = _read_plain(argv)
    if args is None:
        args = build_arg_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    return args


def run(argv, stdout=None) -> int:
    """Execute one command; writes the report and returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    args = _parse_args(argv)
    config = GroebnerConfig(max_pairs=args.max_pairs, max_degree=args.max_degree)
    report = Report(command=args.command)
    code = EXIT_OK
    try:
        doc = None
        if hasattr(args, "input"):
            doc = parse(_read_input(args.input))
            report.inputs = _echo_inputs(doc)
        _COMMANDS[args.command][0](args, doc, config, report)
    except (ParseError, InputReadError) as exc:
        report.diagnostics.append(f"parse error: {exc}")
        code = EXIT_PARSE_ERROR
    except ResourceLimitError as exc:
        report.diagnostics.append(f"resource limit: {exc}")
        code = EXIT_RESOURCE_LIMIT
    except (EmptySetError, PointNotOnSetError, NonSmoothPointError,
            SamplingError, ValueError) as exc:
        report.diagnostics.append(f"error: {exc}")
        code = EXIT_SEMANTIC
    except InvariantError as exc:
        report.diagnostics.append(f"internal invariant violated: {exc}")
        code = EXIT_INVARIANT
    stdout.write(report.to_json() if args.json else report.to_text())
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
