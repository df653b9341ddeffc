"""Workload definitions: seeded inputs, CLI task lists and output checks.

Every input CSV is drawn with numpy from the workload seed and written by
:func:`write_csv` below, never by ``cltcert`` itself, so a change to the
program cannot change the data it is measured on.  Each task is one
``cltcert`` command line; its check raises :class:`CheckError` when the
output is wrong.

Two sizes exist: ``full`` is what the benchmark measures, ``tiny`` keeps the
same commands and checks at sizes that finish in seconds (used by the
benchmark's own tests).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# 0.9-quantile of the chi distribution with 3 degrees of freedom: the limit
# of the bootstrap ball quantile for N(0, I_3) data at alpha = 0.1
CHI3_Q90 = 2.5002777
ALPHA = 0.1

# Sizes per workload.  ``full`` keeps each pass of a task list at a few
# seconds on 2 vCPU so that one run holds several passes; ``tiny`` is for
# tests.  Two floors are fixed by the program, not by speed: with
# sigma2 = 1 at d = 3 the bootstrap certificate is feasible only for
# n >~ 3.5e4, and the experiments refuse B < 200 or coverage trials < 200.
SIZES = {
    "full": {
        "wide_n": 20_000, "wide_d": 5, "pair_n": 10_000, "pair_d": 3,
        "tall_n": 300_000,
        "boot_n": 40_000, "boot_B": 800,
        "level_n": 200, "level_B": 500, "level_trials": 100,
        "cov_n": 200, "cov_B": 400, "cov_trials": 200,
        "dist_n": 25_000, "dist_centers": 64, "dist_boot": 50,
        "null_runs": 10,
    },
    "tiny": {
        "wide_n": 2_000, "wide_d": 4, "pair_n": 2_000, "pair_d": 3,
        "tall_n": 50_000,
        "boot_n": 40_000, "boot_B": 200,
        "level_n": 100, "level_B": 200, "level_trials": 20,
        "cov_n": 100, "cov_B": 200, "cov_trials": 200,
        "dist_n": 2_000, "dist_centers": 8, "dist_boot": 10,
        "null_runs": 3,
    },
}


class CheckError(ValueError):
    """A task's output is malformed or outside its tolerance."""


@dataclass(frozen=True)
class Task:
    name: str
    argv: list
    check: Callable[[str], None] = field(repr=False)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_csv(path: str, x: np.ndarray) -> None:
    """Header x1..xd, then rows of shortest round-trip float reprs.

    ``tolist`` yields Python floats, whose ``repr`` is the shortest string
    that reads back to the same double; numpy scalars would print as
    ``np.float64(...)``, which the CLI rejects.
    """
    header = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for row in x.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _centered_exponential(rng, n: int, d: int) -> np.ndarray:
    return rng.exponential(size=(n, d)) - 1.0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckError("stdout is not a JSON object")
    return payload


def _finite(value, what: str, lo: float = 0.0, hi: float = math.inf) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"{what} is not a number: {value!r}")
    if not (math.isfinite(value) and lo <= value <= hi):
        raise CheckError(f"{what} = {value!r} is outside [{lo}, {hi}]")
    return float(value)


def _check_certificate(cert: dict, n: int) -> None:
    terms = cert.get("terms")
    if not isinstance(terms, list) or not terms:
        raise CheckError("certificate has no terms")
    total = 0.0
    for term in terms:
        total += _finite(term.get("value"), f"term {term.get('name')}")
    reported = _finite(cert.get("total"), "total")
    if abs(reported - total) > 1e-9 * max(1.0, total):
        raise CheckError(f"total {reported} is not the sum of terms {total}")
    inputs = cert.get("inputs", {})
    if inputs.get("n") != n:
        raise CheckError(f"inputs.n = {inputs.get('n')!r}, CSV has {n} rows")


def _bound_check(n: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        cert = _json(text)
        _check_certificate(cert, n)
        _finite(cert.get("beta"), "beta", 0.0, 1.0)
    return check


def _ball_quantile_check(n: int) -> Callable[[str], None]:
    # the quantile's sd is about 0.05 at B = 800, and the sample covariance
    # moves it by well under 1%; 0.35 is more than six sd
    def check(text: str) -> None:
        payload = _json(text)
        q = _finite(payload.get("quantile"), "quantile")
        if abs(q - CHI3_Q90) > 0.35:
            raise CheckError(f"ball quantile {q} is far from {CHI3_Q90}")
        if payload.get("certificate") is not None:
            _check_certificate(payload["certificate"], n)
    return check


def _sweep_row(text: str) -> list:
    lines = text.strip().splitlines()
    if len(lines) != 2 or not lines[0].startswith("d,n,family,"):
        raise CheckError(f"expected a header and one CSV row, got {lines!r}")
    cells = lines[1].split(",")
    if len(cells) != 7:
        raise CheckError(f"expected 7 cells, got {cells!r}")
    return cells


def _rate_check(nominal: float, trials: int) -> Callable[[str], None]:
    # small-n bootstrap rates are biased by a few points, so allow 0.05 of
    # bias plus five binomial standard errors at the nominal rate
    tol = 0.05 + 5.0 * math.sqrt(nominal * (1.0 - nominal) / trials)

    def check(text: str) -> None:
        cells = _sweep_row(text)
        rate = _finite(float(cells[3]), "rate", 0.0, 1.0)
        _finite(float(cells[4]), "stderr")
        if abs(rate - nominal) > tol:
            raise CheckError(f"rate {rate} is not within {tol:.3f} of "
                             f"{nominal}")
    return check


# Both samples of every distance task are N(0, I_3): a KS value above
# 10/sqrt(n) has null tail probability about exp(-100) per center.  (A test
# at the estimator's own 99% null quantile would fail one seed in 100.)

def _distance_check(n: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        payload = _json(text)
        value = _finite(payload.get("value"), "value", 0.0, 1.0)
        _finite(payload.get("stderr"), "stderr")
        if payload.get("n_mc") != n:
            raise CheckError(f"n_mc = {payload.get('n_mc')!r}, expected {n}")
        if value > 10.0 / math.sqrt(n):
            raise CheckError(f"distance {value} between two N(0, I) samples")
    return check


def _same_law_check(n: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        cells = _sweep_row(text)
        value = _finite(float(cells[3]), "estimate", 0.0, 1.0)
        _finite(float(cells[4]), "stderr")
        threshold = _finite(float(cells[5]), "threshold", 0.0, 1.0)
        if threshold <= 0.0:
            raise CheckError("null threshold is not positive")
        if value > 10.0 / math.sqrt(n):
            raise CheckError(f"distance {value} between two N(0, I) samples")
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _certify_wide(seed, z, path):
    """Moment tensors and power iteration: no bootstrap, no distances."""
    x = path("wide.csv", _centered_exponential(_rng(seed, 1),
                                               z["wide_n"], z["wide_d"]))
    a = path("pair_a.csv", _centered_exponential(_rng(seed, 2),
                                                 z["pair_n"], z["pair_d"]))
    b = path("pair_b.csv", _centered_exponential(_rng(seed, 3),
                                                 z["pair_n"], z["pair_d"]))
    bound = ["bound", "--beta", "optimize", "--from-sample"]
    return [
        Task("wide-ball-normal", bound + [x, "--theorem", "ball-normal"],
             _bound_check(z["wide_n"])),
        Task("wide-halfspace-normal",
             bound + [x, "--theorem", "halfspace-normal"],
             _bound_check(z["wide_n"])),
        Task("wide-ball-same-cov",
             bound + [a, "--second-sample", b, "--theorem", "ball-same-cov"],
             _bound_check(z["pair_n"])),
    ]


def _certify_tall(seed, z, path):
    """Large n at d = 3: CSV parsing and O(n) passes, tiny tensor norms."""
    x = path("tall.csv", _rng(seed, 1).standard_normal((z["tall_n"], 3)))
    bound = ["bound", "--beta", "optimize", "--from-sample", x]
    return [
        Task("tall-ball-normal", bound + ["--theorem", "ball-normal"],
             _bound_check(z["tall_n"])),
        Task("tall-bootstrap-ball",
             bound + ["--theorem", "bootstrap-ball", "--sigma2", "1.0"],
             _bound_check(z["tall_n"])),
    ]


def _bootstrap(seed, z, path):
    """One memory-bound resample (B x n counts) beside hundreds of small
    ones; sigma2 = 1 is the exact factor of N(0, 1)."""
    x = path("boot.csv", _rng(seed, 1).standard_normal((z["boot_n"], 3)))
    s = str(seed)
    return [
        Task("boot-ball-quantile",
             ["bootstrap", "--test", "ball", "--data", x, "--alpha",
              str(ALPHA), "--B", str(z["boot_B"]), "--seed", s,
              "--sigma2", "1.0"],
             _ball_quantile_check(z["boot_n"])),
        Task("boot-score-level",
             ["experiment", "--name", "score-level", "--seed", s, "--d", "3",
              "--n", str(z["level_n"]), "--B", str(z["level_B"]),
              "--trials", str(z["level_trials"]), "--alpha", str(ALPHA)],
             _rate_check(ALPHA, z["level_trials"])),
        Task("boot-coverage",
             ["experiment", "--name", "coverage", "--seed", s, "--d", "3",
              "--n", str(z["cov_n"]), "--B", str(z["cov_B"]),
              "--trials", str(z["cov_trials"]), "--alpha", str(ALPHA)],
             _rate_check(1.0 - ALPHA, z["cov_trials"])),
    ]


def _distance(seed, z, path):
    """The 1-D KS kernel, on large radii/projections and on many small
    null-calibration samples."""
    n = z["dist_n"]
    a = path("dist_a.csv", _rng(seed, 1).standard_normal((n, 3)))
    b = path("dist_b.csv", _rng(seed, 2).standard_normal((n, 3)))
    s = str(seed)
    search = ["--centers", str(z["dist_centers"]), "--boot",
              str(z["dist_boot"])]
    same_law = ["--seed", s, "--d", "3", "--n", str(n), "--null-runs",
                str(z["null_runs"])] + search
    return [
        Task("dist-ball",
             ["distance", "--kind", "ball", "--sample-a", a, "--sample-b", b,
              "--seed", s] + search, _distance_check(n)),
        Task("dist-halfspace",
             ["distance", "--kind", "halfspace", "--sample-a", a,
              "--sample-b", b, "--seed", s] + search, _distance_check(n)),
        Task("dist-same-law-ball",
             ["experiment", "--name", "same-law-ball"] + same_law,
             _same_law_check(n)),
        Task("dist-same-law-halfspace",
             ["experiment", "--name", "same-law-halfspace"] + same_law,
             _same_law_check(n)),
    ]


WORKLOADS = {
    "certify-wide": _certify_wide,
    "certify-tall": _certify_tall,
    "bootstrap": _bootstrap,
    "distance": _distance,
}


def build(workload: str, seed: int, size: str, directory: str) -> list:
    """Write the workload's input CSVs into ``directory``; return its tasks."""
    os.makedirs(directory, exist_ok=True)

    def path(name: str, x: np.ndarray) -> str:
        p = os.path.join(directory, name)
        write_csv(p, x)
        return p

    return WORKLOADS[workload](seed, SIZES[size], path)


def task_names() -> list:
    """Names of every task of every workload, without writing inputs."""
    names = []
    for builder in WORKLOADS.values():
        tasks = builder(0, SIZES["tiny"], lambda name, x: name)
        names.extend(t.name for t in tasks)
    return names
