"""Tests of the benchmark itself: tracing leaves no trace, bad output fails, counts repeat.

    python3 -m pytest bench/tests -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from holoclosure import cli, closure, complexify, groebner, jets, poly  # noqa: E402

SPHERE = (BENCH.parent / "fixtures" / "sphere.sys").read_text(encoding="utf-8")


def _bindings():
    """Every attribute of every holoclosure module and traced class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "holoclosure" or name.startswith("holoclosure."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    for cls in (poly.Polynomial, jets.Jet, cli.Report):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def _run_cli(argv, text):
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        out = io.StringIO()
        code = cli.run(argv, stdout=out)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def test_wrappers_are_removed_after_a_traced_command():
    before = _bindings()
    plain = _run_cli(["hcdim", "-", "--json"], SPHERE)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert closure.buchberger is not before[("holoclosure.closure", "buchberger")]
        assert groebner.buchberger is not before[("holoclosure.groebner", "buchberger")]
        assert complexify.ideal_membership is not before[("holoclosure.complexify", "ideal_membership")]
        traced = _run_cli(["hcdim", "-", "--json"], SPHERE)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"syntax.parse", "complexify", "groebner.buchberger.grevlex",
            "groebner.buchberger.block", "groebner.normal_form", "cli.render"} <= names
    assert tracer.counts["groebner.buchberger.calls.grevlex"] == 2
    assert tracer.counts["groebner.buchberger.calls.block"] == 1
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_self_time_subtracts_direct_children():
    records = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    times = spans.self_times(records)
    assert times == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_reference_check_accepts_the_answer_and_rejects_a_tampered_one():
    text = (BENCH / "inputs" / "katsura3.sys").read_text(encoding="utf-8")
    code, output = _run_cli(["groebner", "-", "--order", "lex", "--json"], text)
    ref = json.loads((BENCH / "refs" / "katsura3_groebner_lex.json").read_text(encoding="utf-8"))
    assert check.check_output(ref, code, output) == []

    report = json.loads(output)
    basis = report["results"]["basis"]
    tampered = dict(report, results=dict(report["results"], basis=[basis[0] + " + x3"] + basis[1:]))
    assert check.check_output(ref, code, json.dumps(tampered))
    dropped = dict(report, results=dict(report["results"], basis=basis[1:]))
    assert check.check_output(ref, code, json.dumps(dropped))
    assert check.check_output(ref, 3, output)


def test_tampered_reports_count_as_failures(monkeypatch):
    """The whole run reports incorrect, with one failure per tampered command."""

    def fake_child(job, timeout):
        if "argv" not in job:  # the warm-up child
            return {"ready": 0.0, "rss_kb": 1, "setup_s": 0.1}
        code, output = _run_cli(job["argv"], job["input"] or "")
        if job["argv"][0] == "strata":
            output = output.replace('"k": 1', '"k": 2')
        return {"code": code, "output": output, "run_s": 0.01, "setup_s": 0.1, "start_s": 0.05,
                "rss_kb": 20000}

    monkeypatch.setattr(run, "run_child", fake_child)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "fixture-sweep", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 22 * run.MIN_PASSES
    assert result["failed"] == 2 * run.MIN_PASSES


def test_a_hung_command_times_out():
    text = (BENCH / "inputs" / "cubic.sys").read_text(encoding="utf-8")
    result = run.run_child({"argv": ["hcdim", "-", "--json"], "input": text, "trace": False}, 0.5)
    assert "timed out" in result["error"]


def _traced_run(seed):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "gb-classic", "--seed", str(seed), "--seconds", "0", "--trace", "1"]) == 0
    detail, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return detail, result


def test_counts_repeat_across_two_traced_runs():
    first_detail, first = _traced_run(5)
    _, second = _traced_run(5)
    assert first["correct"] and second["correct"]
    counts = {k for k, (unit, _) in spans.PER_LAYER.items() if unit == "count"}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["groebner.spairs_reduced"]["value"] > 0
    for calls in first_detail["buchberger_calls_per_command"].values():
        assert sum(calls.values()) == 1


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, (u, _) in spans.PER_LAYER.items()}
    passes = [{"traced": False, "samples": [{"name": "a", "run_s": 0.5, "setup_s": 0.1, "rss_kb": 2048}]}]
    metrics, _, _ = run.end_to_end(passes)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {n: u for n, (_, u) in metrics.items()}
