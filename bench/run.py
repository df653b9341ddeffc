"""cltcert benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload certify-wide --seed 1 --seconds 28 --trace 0

The benchmark writes the workload's input CSVs from ``--seed`` (outside any
timed phase), then runs the task list through ``cltcert.cli.main`` in one
worker process, one task at a time, pass after pass, for ``--seconds``.
Every task's output is checked and hashed; a task fails if it exits
non-zero, prints output that does not parse or fails its check, or if its
stdout digest differs between passes, between worker processes, or from an
earlier run of the same source tree and seed in this checkout.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time to
  ``import cltcert.cli``, which every CLI invocation pays;
* ``run_s``: time to finish the task list, as the sum over tasks of each
  task's median wall time across the passes (a burst of load on the shared
  host then spoils one task's sample, not a whole pass);
* ``peak_rss_mb``: peak resident memory of the worker.

The share of failed tasks is ``failed / attempted`` in the result line.

``--trace 1`` runs an untraced worker and then a traced one (half the time
each) and reports per-layer metrics from the traced passes: medians for
times, exact counts, ``trace.overhead_s`` (traced minus untraced pass time),
``process.cpu_s`` and one ``task.<name>.s`` per task (both untraced).

The last stdout line is the JSON result; the line before it is the run
record (machine, versions, BLAS threads, seed, passes, failures).
Everything the benchmark writes stays under ``bench/.work``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 5
MIN_PASSES = 3
MAX_PASSES = 50
# a run must end within 180 s; leave room for set-up and checks
WORKER_TIMEOUT_S = 140.0
THREAD_VARS = ("CLTCERT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cltcert.cli; "
                "print(repr(time.perf_counter() - t))")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken import)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tree_hash() -> str:
    """Digest of the program and benchmark sources, keying stored digests."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "cltcert"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def measure_setup(samples: int) -> list:
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                              capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError("import cltcert.cli failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(tasks: list, seconds: float, min_passes: int, trace: bool,
               rundir: str, tag: str, deadline: float) -> dict:
    plan = {"src": SRC, "trace": trace, "seconds": seconds,
            "min_passes": min_passes, "max_passes": MAX_PASSES,
            "spans_out": os.path.join(rundir, f"spans-{tag}.json"),
            "tasks": [{"name": t.name, "argv": t.argv} for t in tasks]}
    plan_path = os.path.join(rundir, f"plan-{tag}.json")
    result_path = os.path.join(rundir, f"result-{tag}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
             result_path], env=_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": "worker failed:\n" + proc.stderr[-2000:]}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


class Ledger:
    """Task attempts and failures, with the reason for each failure."""

    def __init__(self, tasks: list, reference: dict):
        self.tasks = tasks
        self.reference = reference  # task name -> expected stdout digest
        self.attempted = 0
        self.failures = []
        self.bad = {}  # stdout digest -> why its text failed the check

    def fail(self, where: str, task: str, reason: str) -> None:
        self.failures.append({"where": where, "task": task,
                              "reason": reason[:300]})

    def account(self, tag: str, result: dict) -> None:
        if "error" in result:
            self.attempted += len(self.tasks)
            for t in self.tasks:
                self.fail(tag, t.name, result["error"])
            return
        for p, record in enumerate(result["passes"]):
            for t, out in zip(self.tasks, record["tasks"]):
                self.attempted += 1
                where = f"{tag} pass {p + 1}"
                if out["code"] != 0:
                    self.fail(where, t.name, f"exit {out['code']}: "
                              + out["stderr_tail"])
                    continue
                if "stdout" in out:
                    try:
                        t.check(out["stdout"])
                    except ValueError as exc:
                        self.bad[out["sha256"]] = f"check: {exc}"
                if out["sha256"] in self.bad:
                    self.fail(where, t.name, self.bad[out["sha256"]])
                    continue
                expected = self.reference.setdefault(t.name, out["sha256"])
                if out["sha256"] != expected:
                    self.fail(where, t.name, "stdout digest differs")

    @property
    def failed(self) -> int:
        hit = {(f["where"], f["task"]) for f in self.failures}
        return min(len(hit), self.attempted)


def load_digests(key: str) -> dict:
    text = _read(os.path.join(WORK, "digests.json"))
    return json.loads(text).get(key, {}) if text else {}


def store_digests(key: str, digests: dict) -> None:
    path = os.path.join(WORK, "digests.json")
    text = _read(path)
    table = json.loads(text) if text else {}
    table[key] = digests
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _median(values) -> float:
    return float(statistics.median(values))


def task_medians(result: dict) -> list:
    passes = result["passes"]
    return [_median(p["tasks"][i]["wall_s"] for p in passes)
            for i in range(len(passes[0]["tasks"]))]


def end_to_end(result: dict, setup: list) -> dict:
    return {
        "setup_s": {"value": _median(setup), "unit": "s"},
        "run_s": {"value": sum(task_medians(result)), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def _unit(key: str) -> str:
    if key.endswith("_share"):
        return "share"
    if key.endswith(".mb"):
        return "MB"
    return "s" if key.endswith(("_s", ".s")) else "count"


def per_layer(plain: dict, traced: dict, ledger: Ledger) -> dict:
    layers = [p["layers"] for p in traced["passes"]]
    for p, other in enumerate(layers[1:], start=2):
        for key in tracing.COUNTS:
            if other[key] != layers[0][key]:
                ledger.fail(f"traced pass {p}", key, "count differs from "
                            f"pass 1: {other[key]} != {layers[0][key]}")
    metrics = {}
    for key in layers[0]:
        value = layers[0][key] if key in tracing.COUNTS else _median(
            layer[key] for layer in layers)
        metrics[key] = {"value": value, "unit": _unit(key)}
    plain_run = sum(task_medians(plain))
    traced_run = sum(task_medians(traced))
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run - plain_run,
                                   "unit": "s"}
    metrics["process.cpu_s"] = {
        "value": _median(p["cpu_s"] for p in plain["passes"]), "unit": "s"}
    task_s = {name: 0.0 for name in workloads.task_names()}
    for task, value in zip(ledger.tasks, task_medians(plain)):
        task_s[task.name] = value
    for name, value in task_s.items():
        metrics[f"task.{name}.s"] = {"value": value, "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", min_passes: int = MIN_PASSES,
        setup_samples: int = SETUP_SAMPLES, corrupt=None) -> tuple:
    """Run one benchmark; return (result line dict, run record dict).

    ``corrupt(directory)`` may damage the generated inputs before the
    timed phase (the benchmark's tests use it).
    """
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if not os.path.isfile(os.path.join(SRC, "cltcert", "cli.py")):
        raise BenchError(f"no cltcert source tree under {SRC}")
    tag = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    rundir = os.path.join(WORK, tag)
    shutil.rmtree(rundir, ignore_errors=True)
    t0 = time.perf_counter()
    tasks = workloads.build(workload, seed, size,
                            os.path.relpath(os.path.join(rundir, "inputs"),
                                            ROOT))
    inputs_s = time.perf_counter() - t0
    if corrupt is not None:
        corrupt(os.path.join(rundir, "inputs"))

    key = f"{workload}|{size}|{seed}|{tree_hash()}"
    stored = load_digests(key)
    ledger = Ledger(tasks, dict(stored))
    record = {"workload": workload, "seed": seed, "size": size,
              "seconds": seconds, "trace": trace, "inputs_s": inputs_s,
              "sizes": workloads.SIZES[size], "machine": machine_record(),
              "tasks": [t.argv for t in tasks]}
    if trace:
        plain = run_worker(tasks, seconds / 2, min(min_passes, 2), False,
                           rundir, "plain", deadline)
        ledger.account("plain", plain)
        traced = run_worker(tasks, seconds / 2, min(min_passes, 2), True,
                            rundir, "traced", deadline)
        ledger.account("traced", traced)
        ok = "error" not in plain and "error" not in traced
        metrics = per_layer(plain, traced, ledger) if ok else {}
        results = (plain, traced)
    else:
        setup = measure_setup(setup_samples)
        record["setup_samples_s"] = setup
        plain = run_worker(tasks, seconds, min_passes, False, rundir,
                           "plain", deadline)
        ledger.account("plain", plain)
        ok = "error" not in plain
        metrics = end_to_end(plain, setup) if ok else {}
        results = (plain,)
    if not stored and not ledger.failures:
        store_digests(key, ledger.reference)

    record["passes_s"] = [[p["wall_s"] for p in r["passes"]]
                          for r in results if "passes" in r]
    record["digests"] = ledger.reference
    record["failures"] = ledger.failures
    record["failed_share"] = ledger.failed / max(ledger.attempted, 1)
    shutil.rmtree(os.path.join(rundir, "inputs"), ignore_errors=True)
    with open(os.path.join(rundir, "record.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    line = {"correct": ok and not ledger.failures,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
