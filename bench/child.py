"""Run one holoclosure command cold, in this fresh interpreter.

Reads one JSON job from stdin: ``argv`` for ``holoclosure.cli.run``, the
``input`` text that the command reads as its ``-`` input, and ``trace``.
Writes one JSON object to stdout: exit code, report, the monotonic times at
which the interpreter had started (``entry``) and had imported the CLI and
read its input (``ready``), the seconds ``cli.run`` took, peak RSS, and the
spans when traced.
"""

import time

ENTRY = time.monotonic()  # interpreter started; nothing of holoclosure loaded yet

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from holoclosure import cli

    sys.stdin = io.StringIO(job.get("input") or "")
    ready = time.monotonic()
    result = {"entry": ENTRY, "ready": ready}
    if "argv" in job:
        tracer = None
        run = cli.run
        if job.get("trace"):
            import spans

            tracer = spans.Tracer()
            tracer.install()
            run = tracer.span("cli.run", run)
        out = io.StringIO()
        start = time.perf_counter()
        code = run(job["argv"], stdout=out)
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.record()
        result.update(code=code, output=out.getvalue())
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.__stdout__.write(json.dumps(result))


if __name__ == "__main__":
    main()
