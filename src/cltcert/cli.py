"""Command-line front end tying the toolkit together.

Machine-readable results (JSON or CSV) go to stdout; human-oriented notes go
to stderr.  Exit codes: 0 success, 2 configuration error, 3 certificate
infeasibility.  Stochastic commands require ``--seed``, and rerunning any
command with the same configuration and seed produces byte-identical output
(no timestamps are emitted).

A JSON config file can supply defaults via ``--config``; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bootstrap import (
    bootstrap_ball_quantile,
    bootstrap_score_test,
    elliptical_coverage_experiment,
    rao_score_test,
    score_level_experiment,
)
from .distances import (
    _search,
    anti_concentration_probe,
    ks_two_sample_1d,
    levy_distance_1d,
    portnoy_scaling_experiment,
    same_law_threshold,
)
from .engine import (
    CONSTANT_TUPLES,
    THEOREM_TABLE,
    ConstantsLedger,
    InfeasibleError,
    MomentSummary,
    Theorem,
    bootstrap_summary,
    bound_ball_normal,
    optimize_beta,
    score_summary,
    summarize_pair,
    summarize_sample,
    verify_constants_constraint,
)
from .samplers import FAMILIES, DistributionSpec, sample_gaussian, substream
from .tensors import Sample

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

SWEEP_HEADER = "d,n,family,estimate,stderr,bound_total,seed"


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _load_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _load_moments(path: str) -> MomentSummary:
    with open(path, "r", encoding="utf-8") as fh:
        return MomentSummary.from_json(fh.read())


def _csv_cell(value) -> str:
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# bound command
# ---------------------------------------------------------------------------

# the flags of ``bound`` that each route reads: a supplied summary
# ("moments") or the Theorem.regime of a --from-sample route
_ROUTE_READS = {
    "moments": (),
    "sample": ("from_sample", "sigma"),
    "same-cov": ("from_sample", "second_sample", "sigma"),
    "diff-cov": ("from_sample", "second_sample", "sigma", "sigma_t"),
    "bootstrap": ("from_sample", "sigma2", "sigma", "weight"),
    "score": ("from_sample", "sigma2", "info"),
}


def _warn_unread_flags(args, dests, route: str) -> None:
    """Warn on stderr about each supplied flag of ``dests``, the flags that
    ``route`` does not read; stdout and the exit code do not change."""
    for dest in dests:
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            _note(f"warning: {flag} is ignored: {route} does not read it")


def _bound_summary(args, theorem: Theorem) -> MomentSummary:
    reads = _ROUTE_READS.get("moments" if args.moments else theorem.regime)
    if reads is None:
        raise ValueError(f"--theorem {args.theorem} needs --moments "
                         "(sample moments cannot determine the matching law)")
    source = "--moments" if args.moments else "--from-sample"
    _warn_unread_flags(
        args, [dest for dest in ("from_sample", "second_sample", "sigma",
                                 "sigma_t", "weight", "info", "sigma2")
               if dest not in reads],
        f"--theorem {args.theorem} with {source}")
    if args.moments:
        return _load_moments(args.moments)
    if not args.from_sample:
        raise ValueError("supply either --moments or --from-sample")
    x = Sample.from_csv(args.from_sample)
    # the matrices of the flags this route reads: an ignored flag's file is
    # never opened
    mat = {dest: _load_matrix(getattr(args, dest)) for dest in reads
           if dest in ("sigma", "sigma_t", "weight", "info")
           and getattr(args, dest)}
    regime = theorem.regime
    if regime == "sample":
        return summarize_sample(x, sigma=mat.get("sigma"),
                                with_op_norms=theorem.op_norms)
    if regime in ("same-cov", "diff-cov"):
        if not args.second_sample:
            raise ValueError(f"--theorem {args.theorem} needs --second-sample")
        t = Sample.from_csv(args.second_sample)
        return summarize_pair(x, t, sigma=mat.get("sigma"),
                              sigma_t=mat.get("sigma_t"),
                              same_cov=regime == "same-cov",
                              with_op_norms=theorem.op_norms)
    if args.sigma2 is None:
        raise ValueError(f"--theorem {args.theorem} needs --sigma2")
    if regime == "bootstrap":
        return bootstrap_summary(x, sigma2=args.sigma2, sigma=mat.get("sigma"),
                                 weight=mat.get("weight"))
    return score_summary(x, sigma2_s=args.sigma2, info=mat.get("info"))


def _cmd_bound(args) -> int:
    ledger = ConstantsLedger()
    if args.ledger_overrides:
        overrides = json.loads(args.ledger_overrides)
        if not isinstance(overrides, dict):
            raise ValueError("--ledger-overrides must be a JSON object")
        ledger = ledger.with_overrides(**overrides)
    theorem = THEOREM_TABLE[args.theorem]
    ms = _bound_summary(args, theorem)
    if args.n is not None:
        ms = dataclasses.replace(ms, n=args.n)
    if not theorem.uses_beta:
        breakdown = theorem.evaluate(ms, None, ledger)
    elif args.beta == "optimize":
        _, breakdown = optimize_beta(
            lambda b: theorem.evaluate(ms, b, ledger))
    else:
        breakdown = theorem.evaluate(ms, float(args.beta), ledger)
    _emit(breakdown.to_json(), args.out)
    _note(f"{args.theorem}: total = {breakdown.total:.6g}")
    return EXIT_OK


def _cmd_verify_constants(args) -> int:
    rows = []
    all_ok = True
    for k, m, a, b in CONSTANT_TUPLES:
        lhs, ok = verify_constants_constraint(k, m, a, b)
        rows.append({"K": k, "M": m, "a": a, "b": b, "lhs": lhs, "ok": ok})
        all_ok = all_ok and ok
    _emit(json.dumps({"rows": rows, "all_ok": all_ok}, sort_keys=True),
          args.out)
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# distance command
# ---------------------------------------------------------------------------

def _cmd_distance(args) -> int:
    a = Sample.from_csv(args.sample_a)
    b = Sample.from_csv(args.sample_b)
    if args.kind in ("ball", "halfspace"):
        est = _search(args.kind, a, b, args.centers, args.seed, args.boot)
        _emit(est.to_json(), args.out)
    else:
        if a.dim != 1 or b.dim != 1:
            raise ValueError(f"--kind {args.kind} needs one-dimensional data")
        fn = ks_two_sample_1d if args.kind == "ks" else levy_distance_1d
        value = fn(a.data[:, 0], b.data[:, 0])
        _emit(json.dumps({"kind": args.kind, "value": value},
                         sort_keys=True), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bootstrap / score-test commands
# ---------------------------------------------------------------------------

def _breakdown_payload(bb):
    return None if bb is None else json.loads(bb.to_json())


def _score_payload(res) -> dict:
    """The decision, statistic, quantile and certificate of a score test."""
    return {"decision": "reject" if res.reject else "accept",
            "statistic": res.statistic, "quantile": res.threshold,
            "certificate": _breakdown_payload(res.certificate)}


def _cmd_bootstrap(args) -> int:
    _warn_unread_flags(args, ("info",) if args.test == "ball" else ("weight",),
                       f"--test {args.test}")
    data = Sample.from_csv(args.data)
    if args.test == "ball":
        w = _load_matrix(args.weight) if args.weight else np.eye(data.dim)
        res = bootstrap_ball_quantile(data, w, alpha=args.alpha, B=args.B,
                                      seed=args.seed, sigma2=args.sigma2)
        payload = {"test": "ball-quantile", "alpha": args.alpha, "B": args.B,
                   "seed": args.seed, "quantile": res.quantile,
                   "certificate": _breakdown_payload(res.certificate)}
    else:
        info = _load_matrix(args.info) if args.info else None
        res = bootstrap_score_test(data, alpha=args.alpha, B=args.B,
                                   seed=args.seed, sigma2_s=args.sigma2,
                                   info=info)
        payload = {"test": "bootstrap-score", "alpha": args.alpha,
                   "B": args.B, "seed": args.seed,
                   "certificate_error": res.certificate_error,
                   **_score_payload(res)}
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_score_test(args) -> int:
    data = Sample.from_csv(args.data)
    if not args.info:
        raise ValueError("score-test requires --info (Fisher information of "
                         "the full sample)")
    moments = _load_moments(args.moments) if args.moments else None
    res = rao_score_test(data, _load_matrix(args.info), alpha=args.alpha,
                         moments=moments)
    payload = {"test": "rao", "alpha": args.alpha, **_score_payload(res)}
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment command (CSV sweeps)
# ---------------------------------------------------------------------------

def _sweep_row(d, n, family, estimate, stderr, bound_total, seed) -> str:
    return ",".join([str(d), str(n), family, _csv_cell(estimate),
                     _csv_cell(stderr), _csv_cell(bound_total), str(seed)])


def _experiment_portnoy(args) -> list[str]:
    d_list = [int(v) for v in args.d_list.split(",")]
    fit = portnoy_scaling_experiment(d_list, n=args.n, reps=args.reps,
                                     seed=args.seed)
    rows = [_sweep_row(d, args.n, "portnoy_mixed", msq, None, None, args.seed)
            for d, msq in zip(fit.d_list, fit.median_sq)]
    rows.append(_sweep_row(0, args.n, "portnoy_slope_fit", fit.slope,
                           fit.stderr, None, args.seed))
    _note(f"slope of log median(D^2) vs log d: {fit.slope:.3f} "
          f"+/- {fit.stderr:.3f}")
    return rows


def _experiment_coverage(args) -> list[str]:
    spec = DistributionSpec(family=args.family, d=args.d)
    res = elliptical_coverage_experiment(
        spec, np.eye(args.d), alpha=args.alpha, n=args.n, B=args.B,
        trials=args.trials, seed=args.seed, sigma2=args.sigma2)
    total = res.certificate.total if res.certificate else None
    if res.certificate_error:
        _note("certificate infeasible: " + res.certificate_error)
    elif total is not None and res.certificate.inputs["sigma2_below_variance"]:
        _note(f"warning: sigma2 = {args.sigma2:g} is below the largest "
              "coordinate variance of the data, so bound_total does not "
              "hold as stated")
    return [_sweep_row(args.d, args.n, args.family, res.coverage, res.stderr,
                       total, args.seed)]


def _experiment_score_level(args) -> list[str]:
    res = score_level_experiment(d=args.d, n=args.n, alpha=args.alpha,
                                 B=args.B, trials=args.trials, seed=args.seed)
    return [_sweep_row(args.d, args.n, "gaussian", res.level, res.stderr,
                       None, args.seed)]


def _experiment_same_law(args, estimator: str) -> list[str]:
    spec = DistributionSpec(family=args.family, d=args.d)
    # each sample draws from its own substream, so runs at seeds s and s + 1
    # share none
    a, b = (spec.sample(args.n, seed=int(substream(
        args.seed, f"same-law:{role}").integers(2 ** 63 - 1)))
        for role in ("a", "b"))
    threshold = same_law_threshold(args.d, args.n, estimator=estimator,
                                   n_null=args.null_runs,
                                   n_cal=args.calibration_n, seed=args.seed,
                                   n_centers=args.centers)
    est = _search(estimator, a, b, args.centers, args.seed, args.boot)
    verdict = "below" if est.value < threshold else "ABOVE"
    _note(f"same-law {estimator}: estimate {est.value:.5f} is {verdict} "
          f"the calibrated null threshold {threshold:.5f}")
    return [_sweep_row(args.d, args.n, args.family, est.value, est.stderr,
                       threshold, args.seed)]


def _experiment_anticoncentration(args) -> list[str]:
    d_list = [int(v) for v in args.d_list.split(",")]
    return [_sweep_row(d, 0, "gaussian_shell",
                       anti_concentration_probe(d, args.eps), 0.0, None,
                       args.seed)
            for d in d_list]


def _experiment_normal_sweep(args) -> list[str]:
    """Empirical ball distance to the matching Gaussian vs the certificate."""
    n_list = [int(v) for v in args.n_list.split(",")]
    if min(n_list) < 1 or args.blocks < 1:
        raise ValueError("--n-list entries and --blocks must be >= 1")
    rows = []
    spec = DistributionSpec(family=args.family, d=args.d)
    cov, blocks = spec.covariance(), args.blocks
    for n in n_list:
        # the certificate's rows, the block sums and the Gaussian reference
        # each draw from their own substream, keyed by n
        rows_seed, sums_seed, reference_seed = (
            int(substream(args.seed, f"normal-sweep:{role}", n).integers(
                2 ** 63 - 1)) for role in ("rows", "sums", "reference"))
        x = spec.sample(n, seed=rows_seed)
        # empirical law of the normalized sum via independent block sums
        data = spec.sample(n * blocks, seed=sums_seed)
        s_n = data.data.reshape(blocks, n, args.d).sum(axis=1) / np.sqrt(n)
        z = sample_gaussian(cov, blocks, reference_seed)
        est = _search("ball", Sample(s_n), z, args.centers, args.seed,
                      args.boot)
        ms = summarize_sample(x, sigma=cov, with_op_norms=False)
        bound = bound_ball_normal(ms)
        rows.append(_sweep_row(args.d, n, args.family, est.value, est.stderr,
                               bound.total, args.seed))
    return rows


EXPERIMENTS = {
    "portnoy": _experiment_portnoy,
    "coverage": _experiment_coverage,
    "score-level": _experiment_score_level,
    "same-law-ball": lambda args: _experiment_same_law(args, "ball"),
    "same-law-halfspace": lambda args: _experiment_same_law(args, "halfspace"),
    "anticoncentration": _experiment_anticoncentration,
    "normal-sweep": _experiment_normal_sweep,
}


def _cmd_experiment(args) -> int:
    rows = EXPERIMENTS[args.name](args)
    _emit("\n".join([SWEEP_HEADER] + rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps the arguments added to it, so that a
    config file can be checked against them and fill them in."""

    def __init__(self, *args, **kwargs):
        self.arguments = []
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.arguments.append(action)
        return action


def _build_parser() -> tuple[_Parser, list[_Parser]]:
    parser = _Parser(
        prog="cltcert",
        description="Finite-sample CLT and bootstrap accuracy toolkit: "
                    "certificates (JSON), distance estimates (JSON), and "
                    "experiment sweeps (CSV) on stdout; notes on stderr.")
    parser.add_argument("--config", help="JSON file of flag defaults "
                                         "(explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate a certificate")
    p.add_argument("--theorem", required=True, choices=tuple(THEOREM_TABLE))
    p.add_argument("--beta", default="0.829",
                   help="smoothing parameter in (0,1), or 'optimize'")
    p.add_argument("--moments", help="moment summary JSON file")
    p.add_argument("--from-sample", help="sample CSV (header x1..xd)")
    p.add_argument("--second-sample", help="comparison sample CSV")
    p.add_argument("--sigma", help="covariance CSV (defaults to sample cov)")
    p.add_argument("--sigma-t", help="second-law covariance CSV")
    p.add_argument("--weight", help="weight matrix W CSV")
    p.add_argument("--info", help="Fisher information CSV")
    p.add_argument("--sigma2", type=float,
                   help="sub-Gaussian variance factor (user-supplied)")
    p.add_argument("--n", type=int, help="evaluate at this n instead of the "
                                         "sample size or the summary's n")
    p.add_argument("--ledger-overrides",
                   help='JSON dict, e.g. \'{"c_phi4": 1.2}\'')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify-constants",
                       help="check the admissible smoothing-constant tuples")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_constants)

    p = sub.add_parser("distance", help="Monte Carlo distance estimate")
    p.add_argument("--kind", required=True,
                   choices=("ball", "halfspace", "ks", "levy"))
    p.add_argument("--sample-a", required=True)
    p.add_argument("--sample-b", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--centers", type=int, default=256,
                   help="random centers/directions in the search set")
    p.add_argument("--boot", type=int, default=100,
                   help="bootstrap replicates for the stderr (0 for none, "
                        "else at least 2)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("bootstrap", help="bootstrap quantile / score test")
    p.add_argument("--test", required=True, choices=("ball", "score"))
    p.add_argument("--data", required=True, help="sample or score CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--B", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--weight", help="weight matrix W CSV (ball test)")
    p.add_argument("--info", help="Fisher information CSV (score test)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("score-test",
                       help="Rao score test against the χ² quantile")
    p.add_argument("--data", required=True, help="per-observation score CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--info", help="Fisher information CSV")
    p.add_argument("--moments", help="moment summary JSON for the "
                                     "χ²-level certificate")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_score_test)

    p = sub.add_parser("experiment", help="reproducible sweep (CSV)")
    p.add_argument("--name", required=True, choices=tuple(EXPERIMENTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--B", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--family", default="gaussian", choices=tuple(FAMILIES))
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--d-list", default="8,16,32,64")
    p.add_argument("--n-list", default="1000,4000,16000")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--centers", type=int, default=64)
    p.add_argument("--boot", type=int, default=50)
    p.add_argument("--blocks", type=int, default=4096,
                   help="replicates of the normalized sum (normal-sweep)")
    p.add_argument("--null-runs", type=int, default=200)
    p.add_argument("--calibration-n", type=int, default=4096)
    p.set_defaults(func=_cmd_experiment, out=None)

    return parser, list(sub.choices.values())


def _apply_config(commands: list[_Parser], argv: list[str]) -> None:
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("--config must contain a JSON object")
    valid = {a.dest for p in commands for a in p.arguments}
    unknown = sorted(set(cfg) - valid)
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(unknown))
    # a value goes to the flag's own parser as the text a command line would
    # give it: a JSON string as itself, any other value as its JSON text
    given = {k: v if isinstance(v, str) else json.dumps(v)
             for k, v in cfg.items() if v is not None}
    for p in commands:
        hit = {a.dest: given[a.dest] for a in p.arguments if a.dest in given}
        p.set_defaults(**hit)
        for action in p.arguments:
            if action.dest in hit:
                action.required = False


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        _apply_config(commands, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleError as exc:
        _note(f"certificate infeasible: {exc}")
        return EXIT_INFEASIBLE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _note(f"configuration error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
