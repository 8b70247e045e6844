"""``src`` holds only what the program runs or exports.

A top-level function, class or method in ``src/holoclosure`` passes when
its name is read (an ``ast.Name`` or ``ast.Attribute``) somewhere in
``src`` outside its own body, ``__init__.py`` aside; when it is named in
``holoclosure.__all__``; or when it is a dunder.  Code that only tests
call lives in the tests, written on the public API.
"""

import ast
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
