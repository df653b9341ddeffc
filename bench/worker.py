"""Benchmark worker: runs a task list through ``cltcert.cli.main`` in passes.

Usage: ``python3 bench/worker.py PLAN.json RESULT.json``

The plan names the source tree, the tasks (argv lists), the time budget, the
pass limits and whether to trace.  Tasks run one at a time in this process
(a closed loop with one client).  Each task's stdout is captured and hashed;
the first pass keeps the text for the caller's checks.  Passes repeat until
the next one would overrun the budget.  With tracing, per-layer metrics are
computed for every pass; the first pass's spans are kept in memory and
written out at the end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def run_task(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is a failed task, not a failed benchmark
        code = "exception"
        err.write(traceback.format_exc())
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    wall = time.perf_counter() - t0
    text = out.getvalue()
    return {"code": code, "wall_s": wall, "stdout": text,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stderr_tail": err.getvalue()[-400:]}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import cltcert.cli

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    entry = cltcert.cli.main

    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        c0, t0 = time.process_time(), time.perf_counter()
        tasks = [run_task(entry, t["argv"]) for t in plan["tasks"]]
        record = {"wall_s": time.perf_counter() - t0,
                  "cpu_s": time.process_time() - c0, "tasks": tasks}
        if tracer is not None:
            spans = tracer.reset()
            record["layers"] = tracing.layer_metrics(spans)
            if not passes:
                first_spans = tracing.spans_json(spans, t0)
        if passes:  # only the first pass keeps the output text
            for task in tasks:
                del task["stdout"]
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= plan["max_passes"] or (
                len(passes) >= plan["min_passes"]
                and elapsed + typical > plan["seconds"]):
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(plan["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(first_spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
