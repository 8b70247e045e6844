"""``src`` holds only what the program runs or exports.

A top-level function, class or method in ``src/holoclosure`` passes when
its name is read (an ``ast.Name`` or ``ast.Attribute``) somewhere in
``src`` outside its own body, ``__init__.py`` aside; when it is named in
``holoclosure.__all__``; or when it is a dunder.  Code that only tests
call lives in the tests, written on the public API.

Each number format has one owner: only ``arith`` reads a Q(i) value's
triple and only ``poly`` names the packed field layout, no module imports
another's private name, and README's source line count is the one ``src``
has.
"""

import ast
import re
from pathlib import Path

import holoclosure

PACKAGE = Path(holoclosure.__file__).resolve().parent
SPANS = PACKAGE.parent.parent / "bench" / "spans.py"

# Unused by the program, but the benchmark's tracer binds it by name.
ALLOWED = {"Polynomial.sub_scaled"}


def _definitions(tree):
    """(qualified name, name, node) of each top-level function, class and method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item


def definitions_in_src():
    """Each definition's qualified name, mapped to whether it passes the rule."""
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = {}  # name -> [(path, line)] of every read of it
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    passes = {}
    for path, tree in modules.items():
        for qualname, name, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            passes[qualname] = (
                name.startswith("__") and name.endswith("__")
                or name in holoclosure.__all__
                or any(p != path or line not in own for p, line in reads.get(name, ()))
            )
    return passes


def test_every_definition_in_src_is_used_or_public():
    passes = definitions_in_src()
    unused = {qualname for qualname, ok in passes.items() if not ok}
    assert sorted(unused - ALLOWED) == []
    # an allow-list entry stays only while its reason holds
    spans = ast.walk(ast.parse(SPANS.read_text(encoding="utf-8")))
    bound = {n.value if isinstance(n, ast.Constant) else n.attr
             for n in spans if isinstance(n, (ast.Constant, ast.Attribute))}
    for qualname in sorted(ALLOWED):
        assert qualname in passes, f"{qualname} is no longer defined"
        assert qualname in unused, f"{qualname} is used by src now"
        assert qualname.rsplit(".", 1)[-1] in bound, f"bench/spans.py no longer binds {qualname}"


def test_public_names_are_pinned():
    assert holoclosure.__all__ == [
        "Block",
        "CRReport",
        "GaussianRational",
        "GroebnerBasis",
        "GroebnerConfig",
        "HCReport",
        "Ideal",
        "InputDocument",
        "Jet",
        "MonomialOrder",
        "ParseError",
        "Polynomial",
        "ProbeResult",
        "RankReport",
        "System",
        "VariableContext",
        "buchberger",
        "complexify_complex_set",
        "complexify_ideal",
        "conjugation_closure",
        "cr_dimension_at",
        "cr_strata_ideal",
        "eliminate",
        "gabrielov_r1",
        "gabrielov_r3",
        "hc_dimension_parametrized",
        "holomorphic_closure",
        "ideal_dimension",
        "ideal_membership",
        "jet_compose",
        "jet_exp",
        "normal_form",
        "osgood_probe",
        "parse",
        "parse_point",
        "polynomial_to_text",
        "print_document",
        "pullback_kernel",
        "real_dimension",
        "real_to_zeta",
        "relation_probe",
        "tangent_space",
        "verify_d_minus_m",
        "zeta_to_real",
        "__version__",
    ]


def test_only_arith_reads_the_triple_and_no_module_imports_a_private_name():
    """``arith`` alone knows a Q(i) value is ``(a, b, d)``, ``poly`` alone a monomial's
    field layout; no private name crosses modules."""
    triple, layout, private = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names bound to holoclosure modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "holoclosure":
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
                if node.module == "holoclosure":
                    modules.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names if a.name.startswith("holoclosure"))
        for node in ast.walk(tree):
            # a name read, an attribute read or an imported name (an ast.alias)
            named = {getattr(node, field, None) for field in ("id", "attr", "name")}
            if path.name != "poly.py" and named & {"FIELD_BITS", "MAX_EXPONENT"}:
                layout.append((path.name, node.lineno))
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in ("_a", "_b", "_d") and path.name != "arith.py":
                triple.append((path.name, node.lineno))
            if (isinstance(node.value, ast.Name) and node.value.id in modules
                    and node.attr.startswith("_") and not node.attr.endswith("__")):
                private.append((path.name, node.attr))
    assert triple == []
    assert layout == []
    assert private == []


def test_the_readme_states_the_source_line_count():
    """README's cold-start figure is ``wc -l src/holoclosure/*.py``; a change of size updates it."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"compiling the package's ([\d,]+) source lines", readme)
    assert stated, "README no longer states the source line count"
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines
