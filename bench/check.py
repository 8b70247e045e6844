"""Correctness gate: compare one command's report with its reference.

A reference is either a golden report, compared byte for byte, or a JSON file
from ``make_refs.py`` holding the expected exit code and ``results``.  In the
latter, lists of polynomials are compared as sets of exact polynomials and a
probe witness as one polynomial.  Polynomial text is parsed here by a small
parser of its own, so the check does not trust the toolkit's parser or
printer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

POLY_LIST_KEYS = {"hc_ideal", "basis", "generators", "kernel"}
POLY_KEYS = {"witness"}

_TOKEN = re.compile(r"\s*(?:(\d+)|(conj\(\w+\)|[A-Za-z_]\w*)|(.))")


def _tokens(text: str) -> list:
    out = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            out.append(("num", int(num)))
        elif name:
            out.append(("name", name))
        elif op.strip():
            out.append(("op", op))
    out.append(("end", None))
    return out


# A polynomial is a dict: monomial -> (re, im) with Fraction parts, where a
# monomial is a sorted tuple of (variable name, exponent).


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, (ar, ai) in a.items():
        for mb, (br, bi) in b.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            cr, ci = out.get(m, (Fraction(0), Fraction(0)))
            out[m] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return {m: c for m, c in out.items() if c != (0, 0)}


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, (br, bi) in b.items():
        cr, ci = out.get(m, (Fraction(0), Fraction(0)))
        out[m] = (cr + sign * br, ci + sign * bi)
    return {m: c for m, c in out.items() if c != (0, 0)}


def _const(re_part, im_part=0) -> dict:
    c = (Fraction(re_part), Fraction(im_part))
    return {(): c} if c != (0, 0) else {}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str):
        tok = self.take()
        if tok != ("op", op):
            raise ValueError(f"expected {op!r}, got {tok[1]!r}")

    def parse(self) -> dict:
        value = self.sum()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at {self.peek()[1]!r}")
        return value

    def sum(self) -> dict:
        value = self.product()
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self.take()[1] == "+" else -1
            value = _add(value, self.product(), sign)
        return value

    def product(self) -> dict:
        value = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            if self.take()[1] == "*":
                value = _mul(value, self.unary())
            else:
                den = self.unary()
                if set(den) != {()} or den[()][1]:
                    raise ValueError("division by a non-rational")
                value = _mul(value, _const(1 / den[()][0]))
        return value

    def unary(self) -> dict:
        if self.peek() == ("op", "-"):
            self.take()
            return _mul(_const(-1), self.unary())
        return self.power()

    def power(self) -> dict:
        base = self.primary()
        if self.peek() == ("op", "^"):
            self.take()
            kind, e = self.take()
            if kind != "num":
                raise ValueError("exponent must be an integer literal")
            result = _const(1)
            for _ in range(e):
                result = _mul(result, base)
            return result
        return base

    def primary(self) -> dict:
        kind, value = self.take()
        if kind == "num":
            return _const(value)
        if kind == "name":
            return _const(0, 1) if value == "i" else {((value, 1),): (Fraction(1), Fraction(0))}
        if (kind, value) == ("op", "("):
            inner = self.sum()
            self.expect(")")
            return inner
        raise ValueError(f"unexpected {value!r}")


def parse_poly(text: str) -> frozenset:
    """Exact polynomial from text, as a hashable set of (monomial, re, im)."""
    return frozenset((m, re_, im_) for m, (re_, im_) in _Parser(text).parse().items())


def _compare(expected, actual, key: str, path: str) -> list:
    if key in POLY_LIST_KEYS:
        if not isinstance(actual, list):
            return [f"{path}: expected a polynomial list"]
        want = {parse_poly(t) for t in expected}
        got = [parse_poly(t) for t in actual]
        if len(got) != len(set(got)) or set(got) != want:
            return [f"{path}: polynomial set differs ({len(got)} given, {len(want)} expected)"]
        return []
    if key in POLY_KEYS and expected is not None:
        if not isinstance(actual, str) or parse_poly(actual) != parse_poly(expected):
            return [f"{path}: polynomial differs"]
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        errors = []
        for k in expected:
            errors += _compare(expected[k], actual[k], k, f"{path}.{k}")
        return errors
    if isinstance(expected, list) and expected and isinstance(expected[0], dict):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: row count differs"]
        errors = []
        for n, (e, a) in enumerate(zip(expected, actual)):
            errors += _compare(e, a, key, f"{path}[{n}]")
        return errors
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def check_output(reference: dict, code: int, output: str) -> list:
    """Reasons why a command's exit code and report miss the reference."""
    if "golden" in reference:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        return [] if output == reference["golden"] else ["report differs from its golden file"]
    if code != reference["exit"]:
        return [f"exit code {code}, expected {reference['exit']}"]
    try:
        report = json.loads(output)
        return _compare(reference["results"], report["results"], "results", "results")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
