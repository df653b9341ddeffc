"""Tests of the benchmark itself, at the tiny sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _tiny(workload: str, trace: bool, seed: int = 3, corrupt=None) -> dict:
    line, _ = run.run(workload, seed, 0.1, trace, size="tiny", min_passes=1,
                      setup_samples=1, corrupt=corrupt)
    return line


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_is_correct_and_reports_every_end_to_end_metric(workload):
    line = _tiny(workload, trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_malformed_csv_counts_as_failed_not_fast():
    def corrupt(directory):
        for path in glob.glob(os.path.join(directory, "*.csv")):
            with open(path, encoding="ascii") as fh:
                lines = fh.readlines()
            cells = lines[1].rstrip("\n").split(",")
            lines[1] = ",".join(f"np.float64({c})" for c in cells) + "\n"
            with open(path, "w", encoding="ascii") as fh:
                fh.writelines(lines)

    line = _tiny("certify-wide", trace=False, corrupt=corrupt)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digest(seed, name):
        directory = tmp_path / f"{name}-{seed}"
        workloads.build("distance", seed, "tiny", str(directory))
        return (directory / "dist_a.csv").read_bytes()

    assert digest(5, "a") == digest(5, "b")
    assert digest(5, "a") != digest(6, "a")


@pytest.mark.parametrize("workload,counters", [
    ("certify-wide", ("tensors.operator_norm.iterations",
                      "engine.bound.calls", "engine.optimize_beta.evals")),
    ("distance", ("distances.ks_two_sample_1d.calls",
                  "distances.ks_two_sample_1d.rows")),
    ("bootstrap", ("bootstrap.replicates", "bootstrap.resample_cells")),
])
def test_traced_run_repeats_counts_and_matches_untraced_output(workload,
                                                               counters):
    first = _tiny(workload, trace=True)
    second = _tiny(workload, trace=True)
    # correct implies equal stdout digests of the traced and untraced workers
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for key in counters:
        assert first["metrics"][key]["value"] > 0
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]


def test_exits_nonzero_without_result_when_only_the_benchmark_is_present(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in glob.glob(os.path.join(run.HERE, "*.py")):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bootstrap", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
