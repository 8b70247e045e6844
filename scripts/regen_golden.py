#!/usr/bin/env python3
"""Regenerate the golden JSON reports for the fixture corpus.

One golden file per fixture, produced by that fixture's primary command with
a fixed seed.  Run from the repository root:

    python scripts/regen_golden.py          # rewrite fixtures/golden
    python scripts/regen_golden.py --check  # write nothing; exit 1 naming each file that differs
"""

import argparse
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from holoclosure.cli import run  # noqa: E402

GOLDEN = ROOT / "fixtures" / "golden"

COMMANDS = {
    "totally_real_r1.sys": ["hcdim"],
    "totally_real_r2.sys": ["hcdim"],
    "totally_real_r3.sys": ["hcdim"],
    "complex_line_c2.sys": ["hcdim"],
    "complex_hyperplane_c3.sys": ["hcdim"],
    "sphere.sys": ["hcdim"],
    "line_times_real.sys": ["hcdim"],
    "umbrella.sys": ["hcdim"],
    "umbrella_stick_germ.sys": ["hcdim"],
    "paraboloid.sys": ["hcdim"],
    "mixed_graph.sys": ["crdim", "--point", "1+2*i, 2"],
    "whitney.map": ["ranks"],
    "osgood.jets": ["probe", "--jets", "3,5,7", "--maxdeg", "2"],
    "surface_param.par": ["param-hcdim"],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the golden reports of the fixtures.")
    parser.add_argument("--check", action="store_true",
                        help="compare with fixtures/golden without writing; exit 1 if any differs")
    args = parser.parse_args(argv)
    if not args.check:
        GOLDEN.mkdir(parents=True, exist_ok=True)
    differ = []
    for fixture, argv in COMMANDS.items():
        command = argv[0]
        full = [command, str(ROOT / "fixtures" / fixture)] + argv[1:] + ["--json", "--seed", "0"]
        out = io.StringIO()
        code = run(full, stdout=out)
        if code != 0:
            raise SystemExit(f"{fixture}: exit {code}\n{out.getvalue()}")
        name = f"{fixture.replace('.', '_')}__{command}.json"
        path = GOLDEN / name
        if args.check:
            if not path.is_file() or path.read_text(encoding="utf-8") != out.getvalue():
                differ.append(name)
        else:
            path.write_text(out.getvalue(), encoding="utf-8")
            print(f"wrote {name}")
    if differ:
        print("\n".join(f"differs: {name}" for name in differ))
        raise SystemExit(1)
    if args.check:
        print(f"all {len(COMMANDS)} golden reports match")


if __name__ == "__main__":
    main()
