"""Command-line surface: parses input documents, runs the computations,
and emits deterministic human-readable or JSON reports.

Exit codes: 0 success, 2 parse error, unreadable or non-UTF-8 input, or a
refused command line (such as a budget, jet order or probe degree below 1),
3 resource-limit abort, 4 semantic precondition failure (empty set, point
off the set, non-smooth point, ...), 5 internal invariant violated (a
defect in the toolkit, not in the input).
Errors are also echoed in the report diagnostics.

Command lines are read from the ``_COMMANDS`` table by argparse's rules,
without argparse, so a valid command imports neither argparse nor gettext.
Help (-h, --help) and a refused command line import it to print what argparse
prints, through the parser that argparse reports from: the top-level parser,
which lists every command, or the command's own.
"""

from __future__ import annotations

import gc
import json
import re
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


class _BadValue(ValueError):
    """A command-line value refused with its own message, as argparse's ArgumentTypeError is."""


def _budget(text: str) -> int:
    """A budget or degree bound from the command line: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise _BadValue(f"invalid int value: {text!r}") from None
    if value < 1:
        raise _BadValue(f"must be at least 1, got {value}")
    return value


def _jet_orders(text: str) -> list:
    """Truncation orders from the command line: a nonempty comma-separated list, each at least 1."""
    orders = [_budget(part) for part in text.split(",") if part.strip()]
    if not orders:
        raise _BadValue(f"expects a comma-separated list of orders, got {text!r}")
    return orders


# (name or flag, add_argument keywords): the flags every subcommand takes
_COMMON = (
    ("--json", {"action": "store_true", "help": "emit a JSON report"}),
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


_HELP_FLAGS = dict.fromkeys(("-h", "--help"), {"action": "help"})  # every parser takes them


def build_arg_parser(command: str | None = None):
    """The argparse parser that prints ``command``'s help and usage, or the top-level one's.

    It parses nothing: ``_parse_args`` reads every command line.  The top-level
    parser lists every command, so it builds a subparser for each.
    """
    import argparse

    if command is not None:
        parser = argparse.ArgumentParser(prog="holoclosure " + command)
        for flag, keywords in _COMMON + _COMMANDS[command][2]:
            parser.add_argument(flag, **keywords)
        return parser
    parser = argparse.ArgumentParser(
        prog="holoclosure",
        description="holomorphic closure dimension, CR strata, and Gabrielov ranks "
                    "for real algebraic subsets of C^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _exit(command, message=None):
    """Exit through ``command``'s parser (None: the top-level one): with its help
    and status 0, or with its usage and ``message`` and status 2."""
    parser = build_arg_parser(command)
    if message is None:
        parser.print_help()
        parser.exit()
    parser.error(message)


def _option(arg, flags, command):
    """How argparse reads one string before ``--``, given a parser's ``flags``.

    None for a value, (None, None) for an unknown option, else the flag and
    the value written into the same string (None if there is none).
    """
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return arg, None
    head, eq, tail = arg.partition("=")
    if eq and head in flags:
        return head, tail
    if arg[1] == "-":  # a long option may be abbreviated to a unique prefix
        matches, explicit = [flag for flag in flags if flag.startswith(head)], tail if eq else None
    else:  # the one short option, with text attached
        matches, explicit = (["-h"], arg[2:]) if arg.startswith("-h") else ([], None)
    if len(matches) > 1:
        _exit(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    if " " in arg or re.match(r"-\d+$|-\d*\.\d+$", arg):  # a negative number or text
        return None
    return None, None


def _help(command, flag, explicit):
    """-h or --help: the help, unless text is attached (``-hh`` asks twice, ``-hx`` attaches x)."""
    if explicit is not None and (flag != "-h" or not explicit or explicit.lstrip("h")):
        rest = explicit.lstrip("h") if flag == "-h" else explicit
        _exit(command, f"argument -h/--help: ignored explicit argument {rest!r}")
    _exit(command)


def _dest(name):
    return name.lstrip("-").replace("-", "_")


def _check_choice(command, name, value, choices):
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        _exit(command, f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _parse_args(argv):
    """The namespace argparse gives ``argv`` with the parsers of ``build_arg_parser``.

    Read from the table by argparse's rules for it: exact long flags or unique
    prefixes, ``--flag=value``, ``--`` ending the options, the last repeat
    winning (an ``append`` flag collects), negative numbers and text holding
    a space taken as values.  One difference: ``--flag=--`` gives the value
    ``--``, where argparse 3.11 gives an empty list.  Help, and a refused
    command line, leave through ``_exit``.
    """
    argv = list(argv)
    extras = []  # unrecognized strings, which the top-level parser reports
    at = 0
    while at < len(argv) and argv[at] != "--" and (option := _option(argv[at], _HELP_FLAGS, None)):
        if option[0]:
            _help(None, *option)
        extras.append(argv[at])
        at += 1
    if argv[at:] in ([], ["--"]):
        _exit(None, "the following arguments are required: command")
    command = argv[at]
    _check_choice(None, "command", command, _COMMANDS)
    rows = _COMMON + _COMMANDS[command][2]
    flags = {**_HELP_FLAGS, **{name: keywords for name, keywords in rows if name[0] == "-"}}
    values = {"command": command}
    for name, keywords in rows:
        default = False if keywords.get("action") == "store_true" else None
        values[_dest(name)] = keywords.get("default", default)
    args = argv[at + 1:]
    end = args.index("--") if "--" in args else len(args)
    # every option string is read before any is acted on, as argparse does
    options = [_option(arg, flags, command) for arg in args[:end]] + [None] * (len(args) - end)
    wanted = _INPUT in rows  # the input is the one positional argument
    at = 0
    while at < len(args):
        arg, option = args[at], options[at]
        at += 1
        if option is None or option[0] is None:  # a value, or an unknown option
            if option is None and wanted and (at - 1 != end or at < len(args)):
                if at - 1 == end:  # the input after "--"
                    arg, at = args[at], at + 1
                values["input"], wanted = arg, False
                at += at == end  # a "--" right after the input goes with it
            else:
                extras.append(arg)
            continue
        flag, explicit = option
        keywords = flags[flag]
        action = keywords.get("action")
        if action == "help":
            _help(command, flag, explicit)
        if action == "store_true":
            if explicit is not None:
                _exit(command, f"argument {flag}: ignored explicit argument {explicit!r}")
            value = True
        else:
            if explicit is None:
                if at in (len(args), end) or options[at] is not None:
                    _exit(command, f"argument {flag}: expected one argument")
                explicit, at = args[at], at + 1
            kind = keywords.get("type", str)
            try:
                value = kind(explicit)
            except _BadValue as exc:
                _exit(command, f"argument {flag}: {exc}")
            except ValueError:
                _exit(command, f"argument {flag}: invalid {kind.__name__} value: {explicit!r}")
            if "choices" in keywords:
                _check_choice(command, flag, value, keywords["choices"])
        dest = _dest(flag)
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    missing = [name for name, keywords in rows
               if (name == "input" or keywords.get("required")) and values[_dest(name)] is None]
    if missing:
        _exit(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _exit(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


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
