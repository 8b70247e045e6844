"""Value types: NamedTuples or ``__slots__`` classes, never dataclasses.

Importing ``dataclasses`` pulls in ``inspect`` and builds each class by
``exec`` at import, a cost every CLI command pays before it runs.  The
slotted classes keep what the dataclasses gave: equality, hashing,
validation on construction and refusal of attribute assignment.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holoclosure
from conftest import system_fixture
from holoclosure.cli import Report
from holoclosure.closure import gabrielov_r1, holomorphic_closure
from holoclosure.complexify import System, zeta_to_real
from holoclosure.crgeom import cr_dimension_at, tangent_space, verify_d_minus_m
from holoclosure.groebner import GroebnerBasis, GroebnerConfig, Ideal, buchberger
from holoclosure.jets import osgood_probe
from holoclosure.poly import (
    GREVLEX,
    LEX,
    Block,
    BlockElimination,
    Grevlex,
    Lex,
    VariableContext,
    param_context,
)
from holoclosure.syntax import Token, parse, parse_point

SRC = Path(holoclosure.__file__).resolve().parent.parent


def test_no_module_imports_dataclasses():
    importers = set()
    for path in sorted(Path(holoclosure.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.add(path.name)
    assert importers == set()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the modules the import adds, so the test holds whatever site loaded before it
    code = (
        "import sys; before = set(sys.modules); import holoclosure.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_orders_without_parameters_equal_by_class():
    assert Grevlex() == GREVLEX and hash(Grevlex()) == hash(GREVLEX)
    assert Lex() == LEX and hash(Lex()) == hash(LEX)
    assert Lex() != Grevlex()
    assert GREVLEX != () and BlockElimination(((0, 1),)) != ((0, 1),)


def test_block_orders_equal_by_groups():
    order = BlockElimination(((4, 5), (0, 2), (1, 3)))
    basis = GroebnerBasis(param_context(["a", "b", "c", "d", "e", "f"]), order, ())
    after = basis.elimination(1).order
    fresh = BlockElimination(((0, 2), (1, 3)))
    assert after == fresh and hash(after) == hash(fresh)
    assert {fresh: "view"}[after] == "view"
    assert basis.elimination(2).order == GREVLEX
    assert fresh != BlockElimination(((1, 3), (0, 2)))
    assert fresh != GREVLEX and GREVLEX != fresh


def test_contexts_equal_by_names_and_blocks():
    assert param_context(["t", "u"]) == VariableContext(("t", "u"), (Block.PARAM, Block.PARAM))
    assert hash(param_context(["t"])) == hash(param_context(["t"]))
    assert param_context(["t"]) != VariableContext(("t",), (Block.Z,))


def test_system_rejects_unpaired_zeta_blocks():
    unpaired = VariableContext(("z1", "z2", "conj(z1)"), (Block.ZETA, Block.ZETA, Block.ZETABAR))
    with pytest.raises(ValueError, match="paired zeta/zetabar"):
        System(unpaired, "zeta", ())
    with pytest.raises(ValueError, match="paired zeta/zetabar"):
        System(VariableContext(("z1",), (Block.ZETA,)), "zeta", ())
    with pytest.raises(ValueError, match="unknown system form"):
        System(system_fixture("sphere.sys").context, "polar", ())


def test_systems_equal_by_value():
    assert system_fixture("sphere.sys") == system_fixture("sphere.sys")
    assert hash(system_fixture("sphere.sys")) == hash(system_fixture("sphere.sys"))
    assert system_fixture("sphere.sys") != system_fixture("paraboloid.sys")


def _immutable_values():
    """One value of each immutable type the package defines, by name."""
    sphere = system_fixture("sphere.sys")
    point = parse_point("1, 0", 2)
    whitney = parse("mapvars v t\nmap v\nmap v*t\nmap v*t^2\n")
    dm = verify_d_minus_m(sphere, [point])
    return {
        "VariableContext": sphere.context,
        "Lex": LEX,
        "Grevlex": GREVLEX,
        "BlockElimination": BlockElimination.of_blocks(sphere.context, Block.ZETABAR),
        "GroebnerConfig": GroebnerConfig(),
        "Ideal": sphere.ideal(),
        "GroebnerBasis": buchberger(sphere.ideal(), GREVLEX),
        "System": sphere,
        "HCReport": holomorphic_closure(sphere),
        "RankReport": gabrielov_r1(whitney.map_components, Ideal.from_polys(whitney.context, ())),
        "TangentReport": tangent_space(zeta_to_real(sphere), point),
        "CRReport": cr_dimension_at(sphere, point),
        "DMEntry": dm.entries[0],
        "DMReport": dm,
        "ProbeResult": osgood_probe([3], 2)[0],
        "Token": Token("int", "1", 1, 1),
        "InputDocument": whitney,
    }


def test_immutable_values_refuse_attribute_assignment():
    for name, value in _immutable_values().items():
        assert type(value).__name__ == name
        assert not hasattr(value, "__dict__"), name
        fields = getattr(value, "_fields", None) or [
            s for s in type(value).__slots__ if not s.startswith("_")
        ]
        for attr in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, attr, None)


def test_report_json_keeps_its_key_order():
    report = Report("hcdim")
    report.results = {"real_dimension": 3, "hc_dimension": 2}
    report.diagnostics.append("note")
    fields = json.loads(report.to_json(), object_pairs_hook=list)
    assert [key for key, _ in fields] == ["command", "inputs", "results", "diagnostics"]
    assert json.loads(report.to_json()) == {
        "command": "hcdim",
        "inputs": {},
        "results": {"real_dimension": 3, "hc_dimension": 2},
        "diagnostics": ["note"],
    }
    assert Report("a").inputs is not Report("b").inputs
