#!/usr/bin/env python3
"""Regularity experiment: seeded random polynomial maps C^2 -> C^3.

For each sampled map, computes r1 by fibre sampling and r3 by elimination
and prints the pair; polynomial maps are always regular (r1 = r3), so any
mismatch would point at a bug.  Usage:

    python scripts/random_regularity.py [count [seed]]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fractions import Fraction  # noqa: E402

from holoclosure.arith import GaussianRational  # noqa: E402
from holoclosure.closure import gabrielov_r1  # noqa: E402
from holoclosure.poly import Block, Polynomial, VariableContext, polynomial_to_text  # noqa: E402


def rand_gq(rng):
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
    )


def random_map(rng, ctx):
    comps = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(0, 3)
            a = rng.randint(0, d)
            c = rand_gq(rng)
            if c:
                terms[(a, d - a)] = c
        comps.append(Polynomial(ctx, terms))
    return comps


def main(argv):
    count = int(argv[0]) if argv else 20
    seed = int(argv[1]) if len(argv) > 1 else 20260808
    rng = random.Random(seed)
    ctx = VariableContext(("v", "t"), (Block.PARAM, Block.PARAM))
    done = mismatches = 0
    while done < count:
        comps = random_map(rng, ctx)
        if any(f.is_zero for f in comps):
            continue
        done += 1
        rr = gabrielov_r1(comps, seed=done)
        mismatches += not rr.regular
        status = "ok" if rr.regular else "MISMATCH"
        print(f"[{done:>2}] r1={rr.r1} r3={rr.r3} lambda={rr.lam} {status}  "
              + "; ".join(polynomial_to_text(f) for f in comps))
    print("all regular" if not mismatches else f"{mismatches} of {count} not regular")


if __name__ == "__main__":
    main(sys.argv[1:])
