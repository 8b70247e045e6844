#!/usr/bin/env python3
"""holoclosure benchmark: cold CLI commands, end to end and layer by layer.

    python3 bench/run.py --workload hc-hard --seed 1 --seconds 30 --trace 0

Run from the repository root.  This parent process starts one child
interpreter at a time (``bench/child.py``) and each child runs one command
through ``holoclosure.cli.run``: a CLI user pays a cold start on every
command, so nothing cached in a process survives from one command to the
next.  One untimed warm-up child first fills ``__pycache__``.  Every command
is checked against its reference (``bench/refs``, or the golden report);
a wrong exit code, a wrong answer or a timeout counts as a failed command.

All workloads are closed loops with one client.  A pass runs each of the
workload's commands once, in an order shuffled by the seed; the seed also
permutes the equations of the hard-tier inputs, afresh for every pass.
Passes repeat until ``--seconds`` would be exceeded.  Every reported time is
scaled to a nominal host speed by the children's interpreter start (see
CAL_NOMINAL_S); the unscaled values are kept in the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes on one fixed permutation, prints the per-layer
metrics of ``bench/spans.py``, and writes every span to
``.bench_build/trace/``.  The last stdout line is the result object; the line
before it holds the environment and one row per command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_build"

sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402

DEADLINE_S = 150.0  # no command starts, or keeps running, past this point of a run
MIN_PASSES = 3      # untraced; a traced run needs one untraced and one traced pass

# Host-speed calibration.  On a shared 2-vCPU VM, speed drifts by up to 35%
# between runs a minute apart, evenly across everything a child does.  Each
# child's interpreter start (spawn until child.py runs, before any holoclosure
# code) is a probe of that speed, and every reported time is scaled by
# CAL_NOMINAL_S / (median interpreter start of the run's commands).
# CAL_NOMINAL_S is that median on a 2-vCPU x86-64 VM under Python 3.11.7.
CAL_NOMINAL_S = 0.045


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    input: str | None = None      # path under the repository root, read as "-"
    permute: bool = False         # shuffle the order of its "eq" lines by the seed
    ref: str | None = None        # bench/refs/<ref>.json
    golden: str | None = None     # fixtures/golden/<golden>


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple
    timeout_s: float


def _golden(fixture: str, command: str, *extra: str) -> Command:
    golden = f"{fixture.replace('.', '_')}__{command}.json"
    return Command(f"{fixture}:{command}", (command, "-", *extra, "--json", "--seed", "0"),
                   input=f"fixtures/{fixture}", golden=golden)


def _fixture(name: str, fixture: str, command: str, *extra: str) -> Command:
    return Command(name, (command, "-", *extra, "--json", "--seed", "0"),
                   input=f"fixtures/{fixture}", ref=name)


WORKLOADS = {
    "hc-hard": Workload(
        "hcdim on the cubic CR surface and the degree-30 ladder: five Buchberger calls per "
        "question under grevlex and block orders, many small S-pairs against few 500-term ones",
        (
            Command("cubic_hcdim", ("hcdim", "-", "--json"), "bench/inputs/cubic.sys", True, "cubic_hcdim"),
            Command("ladder30_hcdim", ("hcdim", "-", "--json"), "bench/inputs/ladder30.sys", True,
                    "ladder30_hcdim"),
        ),
        timeout_s=60.0,
    ),
    "gb-classic": Workload(
        "groebner on katsura-4 and cyclic-5 (grevlex) and katsura-3 (lex): the pure engine, "
        "one Buchberger call per command and no complexification",
        (
            Command("katsura4_groebner", ("groebner", "-", "--json"), "bench/inputs/katsura4.sys", True,
                    "katsura4_groebner"),
            Command("cyclic5_groebner", ("groebner", "-", "--json"), "bench/inputs/cyclic5.sys", True,
                    "cyclic5_groebner"),
            Command("katsura3_groebner_lex", ("groebner", "-", "--order", "lex", "--json"),
                    "bench/inputs/katsura3.sys", True, "katsura3_groebner_lex"),
        ),
        timeout_s=30.0,
    ),
    "fixture-sweep": Workload(
        "22 small commands of a few ms over the fixtures: fixed per-command costs of parse, "
        "complexification, rendering, sampling and small linear algebra",
        (
            _golden("totally_real_r1.sys", "hcdim"),
            _golden("totally_real_r2.sys", "hcdim"),
            _golden("totally_real_r3.sys", "hcdim"),
            _golden("complex_line_c2.sys", "hcdim"),
            _golden("complex_hyperplane_c3.sys", "hcdim"),
            _golden("sphere.sys", "hcdim"),
            _golden("line_times_real.sys", "hcdim"),
            _golden("umbrella.sys", "hcdim"),
            _golden("umbrella_stick_germ.sys", "hcdim"),
            _golden("paraboloid.sys", "hcdim"),
            _golden("mixed_graph.sys", "crdim", "--point", "1+2*i, 2"),
            _golden("whitney.map", "ranks"),
            _golden("osgood.jets", "probe", "--jets", "3,5,7", "--maxdeg", "2"),
            _golden("surface_param.par", "param-hcdim"),
            _fixture("umbrella_realdim", "umbrella.sys", "realdim"),
            _fixture("sphere_strata1", "sphere.sys", "strata", "--k", "1"),
            _fixture("umbrella_strata1", "umbrella.sys", "strata", "--k", "1"),
            _fixture("sphere_verify_dm", "sphere.sys", "verify-dm",
                     "--point", "1, 0", "--point", "0, i", "--point", "3/5, 4/5*i"),
            _fixture("sphere_crdim", "sphere.sys", "crdim", "--point", "3/5, 4/5"),
            _fixture("paraboloid_eliminate", "paraboloid.sys", "eliminate"),
            _fixture("whitney_eliminate", "whitney.map", "eliminate"),
            _fixture("umbrella_groebner_lex", "umbrella.sys", "groebner", "--order", "lex"),
        ),
        timeout_s=20.0,
    ),
    "jet-probe": Workload(
        "probe-osgood at jet orders 20 and 24 up to degree 10: truncated jet products and "
        "Fraction elimination at real sizes, no Groebner code",
        (Command("osgood_probe", ("probe-osgood", "--jets", "20,24", "--maxdeg", "10", "--json"),
                 ref="osgood_probe"),),
        timeout_s=40.0,
    ),
}


# -- inputs and references --------------------------------------------------------


def load_inputs(workload: Workload) -> tuple:
    """(input text per command, reference per command); raises OSError if absent."""
    texts, refs = {}, {}
    for cmd in workload.commands:
        texts[cmd.name] = (ROOT / cmd.input).read_text(encoding="utf-8") if cmd.input else None
        if cmd.golden:
            golden = (ROOT / "fixtures" / "golden" / cmd.golden).read_text(encoding="utf-8")
            refs[cmd.name] = {"golden": golden}
        else:
            refs[cmd.name] = json.loads((BENCH / "refs" / f"{cmd.ref}.json").read_text(encoding="utf-8"))
    return texts, refs


def permute_equations(text: str, rng: random.Random) -> str:
    """Same document with its ``eq`` lines in a seeded random order."""
    lines = text.splitlines()
    eqs = [ln for ln in lines if ln.lstrip().startswith("eq ")]
    rest = [ln for ln in lines if not ln.lstrip().startswith("eq ")]
    rng.shuffle(eqs)
    return "\n".join(rest + eqs) + "\n"


# -- children -----------------------------------------------------------------------


def run_child(job: dict, timeout: float) -> dict:
    """One cold child; adds ``setup_s``, or ``error`` when it failed to report."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no message"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    try:
        result = json.loads(out)
    except ValueError:
        return {"error": "child wrote no result"}
    result["setup_s"] = result["ready"] - start
    result["start_s"] = result["entry"] - start
    return result


# -- environment ---------------------------------------------------------------------


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "holoclosure").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- the run ----------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles(method="inclusive")."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, workload: Workload, texts: dict, refs: dict) -> tuple:
    """(complete passes, every sample attempted, failure records)."""
    rng = random.Random(args.seed)
    fixed = {c.name: permute_equations(texts[c.name], rng) if c.permute else texts[c.name]
             for c in workload.commands}
    t0 = time.monotonic()
    passes, attempted, failures = [], [], []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if len(passes) >= (2 if args.trace else MIN_PASSES):
            walls = [p["wall"] for p in passes if p["traced"] == traced]
            if time.monotonic() - t0 + statistics.median(walls) > args.seconds:
                break
        order = list(workload.commands)
        rng.shuffle(order)
        pass_start = time.monotonic()
        samples = []
        for cmd in order:
            remaining = DEADLINE_S - (time.monotonic() - t0)
            if remaining <= 1.0:
                return passes, attempted, failures
            if args.trace:
                text = fixed[cmd.name]
            else:
                text = permute_equations(texts[cmd.name], rng) if cmd.permute else texts[cmd.name]
            job = {"argv": list(cmd.argv), "input": text, "trace": traced}
            result = run_child(job, min(workload.timeout_s * (3 if traced else 1), remaining))
            result["name"] = cmd.name
            errors = [result["error"]] if "error" in result else check.check_output(
                refs[cmd.name], result["code"], result["output"])
            if errors:
                failures.append({"command": cmd.name, "pass": len(passes), "errors": errors[:3]})
                result["failed"] = True
            samples.append(result)
            attempted.append(result)
        passes.append({"traced": traced, "samples": samples, "wall": time.monotonic() - pass_start})
    return passes, attempted, failures


def end_to_end(passes) -> tuple:
    ok = [s for p in passes for s in p["samples"] if not s.get("failed")]
    walls = [sum(s["run_s"] for s in p["samples"] if not s.get("failed")) for p in passes]
    latencies = [s["run_s"] * 1000.0 for s in ok]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_ms": (statistics.median(latencies), "ms"),
        "cmd_p90_ms": (percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in ok), "s"),
        "peak_rss_mb": (max(s["rss_kb"] for s in ok) / 1024.0, "MB"),
    }
    rows = {}
    for s in ok:
        rows.setdefault(s["name"], []).append(s["run_s"] * 1000.0)
    per_command = {n: {"median_ms": statistics.median(v), "samples": len(v)} for n, v in sorted(rows.items())}
    return metrics, per_command, len(latencies)


def traced_metrics(passes, failures) -> tuple:
    """Per-layer metrics; also checks traced reports against untraced ones."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    reports = {}
    for p in plain:
        for s in p["samples"]:
            reports.setdefault(s["name"], s.get("output"))
    for k, p in enumerate(traced):
        for s in p["samples"]:
            if not s.get("failed") and s["output"] != reports.get(s["name"]):
                s["failed"] = True
                failures.append({"command": s["name"], "pass": 2 * k + 1,
                                 "errors": ["traced report differs from the untraced one"]})
    summaries = [spans.pass_metrics([s["trace"] for s in p["samples"] if "trace" in s]) for p in traced]
    metrics, agreed = spans.layer_summary(summaries)
    def wall(group):
        return statistics.median(sum(s["run_s"] for s in p["samples"]) for p in group)

    metrics["trace.overhead_ratio"] = wall(traced) / wall(plain)
    per_command = {}
    for s in traced[0]["samples"]:
        if "trace" in s:
            counts = s["trace"]["counts"]
            per_command[s["name"]] = {o: counts.get(f"groebner.buchberger.calls.{o}", 0)
                                      for o in spans.ORDERS}
    return metrics, agreed, per_command


def write_trace(env: dict, passes) -> Path:
    """All spans of the run, one record per command sharing one id."""
    records = []
    for k, p in enumerate(passes):
        for s in p["samples"]:
            if "trace" in s:
                records.append({"id": len(records), "command": s["name"], "pass": k,
                                "spans": s["trace"]["spans"], "counts": s["trace"]["counts"]})
    path = OUT / "trace" / f"{env['workload']}-seed{env['seed']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"environment": env, "commands": records}), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds run_child, which stops its child
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "holoclosure" / "cli.py").is_file():
        print("bench: src/holoclosure is missing; run from a full checkout", file=sys.stderr)
        return 2
    try:
        texts, refs = load_inputs(workload)
    except OSError as exc:
        print(f"bench: missing input or reference: {exc}", file=sys.stderr)
        return 2
    warm = run_child({}, 120.0)
    if "error" in warm:
        print(f"bench: warm-up child failed: {warm['error']}", file=sys.stderr)
        return 2

    env = environment(args)
    passes, attempted, failures = measure(args, workload, texts, refs)
    if not passes or not any(not s.get("failed") for p in passes for s in p["samples"]):
        print(f"bench: no command completed: {failures[:3]}", file=sys.stderr)
        return 1
    starts = [s["start_s"] for s in attempted if "start_s" in s]
    scale = CAL_NOMINAL_S / statistics.median(starts)
    detail = {"environment": env, "why": workload.why, "passes": len(passes),
              "calibration": {"median_start_s": statistics.median(starts),
                              "samples": len(starts), "time_scale": scale}}
    correct = True
    if args.trace:
        if not any(p["traced"] for p in passes):
            print("bench: no traced pass completed", file=sys.stderr)
            return 1
        layer, agreed, calls = traced_metrics(passes, failures)
        correct = agreed
        if not agreed:
            failures.append({"command": "*", "errors": ["counts differ between traced passes"]})
        layer["fail_ratio"] = sum(1 for s in attempted if s.get("failed")) / len(attempted)
        metrics = {name: {"value": layer[name] * scale if unit == "ms" else layer[name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
        detail["buchberger_calls_per_command"] = calls
        detail["trace_file"] = str(write_trace(env, passes).relative_to(ROOT))
    else:
        e2e, per_command, samples = end_to_end(passes)
        metrics = {name: {"value": v * scale if u in ("s", "ms") else v, "unit": u}
                   for name, (v, u) in e2e.items()}
        detail["unscaled"] = {name: v for name, (v, _) in e2e.items()}
        detail["samples"] = samples
        detail["commands"] = per_command
    failed = sum(1 for s in attempted if s.get("failed"))
    detail["failures"] = failures
    correct = correct and not failures
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
