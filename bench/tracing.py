"""Span tracing of the cltcert modules from outside the package.

:func:`install` wraps every public function of the six modules and rebinds
the wrapper at each place the original is bound: the defining module, every
module that imported it by name (``cli`` binds names from ``engine``,
``bootstrap`` and ``distances``; ``engine`` binds names from ``tensors``) and
the package namespace.  ``Sample.from_csv`` (a classmethod) and
``DistributionSpec.sample`` are wrapped on their classes.  Spans stay in
memory; :func:`layer_metrics` turns one pass's spans into per-layer metrics.

A layer's self time is its span durations minus the time covered by direct
child spans.  Counts are read from arguments and return values at the module
boundary, for example ``OperatorNormResult.iterations``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("tensors", "samplers", "engine", "distances", "bootstrap", "cli")

# engine functions that evaluate a certificate from a summary
BOUNDS = frozenset((
    "bound_ball_normal", "bound_ball_general", "bound_halfspace_normal",
    "bound_halfspace_general", "bound_ball_symmetric", "bootstrap_delta",
    "delta_W", "delta_R", "score2_bound"))
SUMMARIES = frozenset((
    "summarize_gaussian", "summarize_sample", "summarize_pair",
    "bootstrap_summary", "score_summary"))
# bootstrap entry points that resample: name -> (B, n, trials) parameters
RESAMPLERS = {
    "bootstrap_ball_quantile": ("B", "s", None),
    "bootstrap_score_test": ("B", "scores", None),
    "score_level_experiment": ("B", "n", "trials"),
    "elliptical_coverage_experiment": ("B", "n", "trials"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Collects nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, counter=None, prepare=None):
        """Wrap ``fn`` in a span.  ``prepare(args, kwargs, span)`` may
        rewrite the arguments; ``counter(args, kwargs, result)`` returns the
        span's info after a successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs, span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.info = counter(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters read at the module boundary
# ---------------------------------------------------------------------------

def _operator_norm_info(args, kwargs, result):
    return (result.iterations, bool(result.converged))


def _moment_order(args, kwargs, result):
    return result.order


def _csv_bytes(args, kwargs, result):
    # args[0] is the class: from_csv is a classmethod
    src = args[1] if len(args) > 1 else kwargs.get("path_or_buf")
    return os.path.getsize(src) if isinstance(src, str) else 0


def _ks_rows(args, kwargs, result):
    return sum(int(np.size(v)) for v in args[:2])


def _resample_counter(fn, b_name, n_name, trials_name):
    def counter(args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        n = a[n_name]
        n = n if isinstance(n, int) else n.n  # a Sample
        trials = a[trials_name] if trials_name else 1
        return (a[b_name] * trials, a[b_name] * n * trials)
    return counter


def _count_evals(args, kwargs, span):
    """Replace optimize_beta's evaluator by one that counts its calls."""
    evaluator = args[0] if args else kwargs.pop("evaluator")
    span.info = 0

    def counted(beta):
        span.info += 1
        return evaluator(beta)

    return (counted,) + tuple(args[1:]), kwargs


def _hooks(module: str, name: str, fn):
    if module == "tensors" and name == "operator_norm":
        return _operator_norm_info, None
    if module == "tensors" and name == "empirical_moment":
        return _moment_order, None
    if module == "distances" and name == "ks_two_sample_1d":
        return _ks_rows, None
    if module == "engine" and name == "optimize_beta":
        return None, _count_evals
    if module == "bootstrap" and name in RESAMPLERS:
        return _resample_counter(fn, *RESAMPLERS[name]), None
    return None, None


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap the public functions of the six modules."""
    import cltcert

    mods = {m: importlib.import_module(f"cltcert.{m}") for m in MODULES}
    replace = {}
    for short, mod in mods.items():
        public = getattr(mod, "__all__", None) or [
            k for k in vars(mod) if not k.startswith("_")]
        for name in public:
            fn = getattr(mod, name, None)
            if (inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                counter, prepare = _hooks(short, name, fn)
                replace[fn] = tracer.wrap(f"{short}.{name}", fn, counter,
                                          prepare)
    for mod in list(mods.values()) + [cltcert]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replace:
                setattr(mod, attr, replace[val])

    sample = mods["tensors"].Sample
    from_csv = sample.__dict__["from_csv"].__func__
    sample.from_csv = classmethod(tracer.wrap(
        "tensors.Sample.from_csv", from_csv, _csv_bytes))
    spec = mods["samplers"].DistributionSpec
    spec.sample = tracer.wrap("samplers.DistributionSpec.sample", spec.sample)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _func(name: str) -> str:
    return name.split(".", 1)[1]


LAYERS = (
    "tensors.s", "tensors.operator_norm.s", "tensors.operator_norm.calls",
    "tensors.operator_norm.iterations", "tensors.empirical_moment.s",
    "tensors.empirical_moment.calls", "tensors.empirical_moment.o3_s",
    "tensors.empirical_moment.o4_s", "tensors.Sample.from_csv.s",
    "tensors.Sample.from_csv.calls", "tensors.Sample.from_csv.mb",
    "tensors.whiten.s", "engine.summarize.self_s", "engine.bound.calls",
    "engine.bound.s", "engine.optimize_beta.calls",
    "engine.optimize_beta.evals", "bootstrap.self_s", "bootstrap.replicates",
    "bootstrap.resample_cells", "distances.ks_two_sample_1d.s",
    "distances.ks_two_sample_1d.calls", "distances.ks_two_sample_1d.rows",
    "distances.self_s", "samplers.s", "samplers.calls", "cli.main.self_s")


def layer_metrics(spans: list) -> dict:
    """Per-layer times (s) and counts of one pass."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start

    def outermost(i: int, group) -> bool:
        p = spans[i].parent
        while p >= 0:
            if group(spans[p].name):
                return False
            p = spans[p].parent
        return True

    m = dict.fromkeys(LAYERS, 0.0)

    def add(key: str, value: float) -> None:
        m[key] += value

    converged = 0
    for i, span in enumerate(spans):
        dur = span.end - span.start
        self_s = dur - child_time[i]
        mod, func = _module(span.name), _func(span.name)
        if mod in ("tensors", "samplers") and outermost(
                i, lambda n, mod=mod: _module(n) == mod):
            add(f"{mod}.s", dur)
            if mod == "samplers":
                add("samplers.calls", 1)
        if span.name == "tensors.operator_norm":
            add("tensors.operator_norm.s", dur)
            add("tensors.operator_norm.calls", 1)
            if span.info is not None:
                add("tensors.operator_norm.iterations", span.info[0])
                converged += span.info[1]
        elif span.name == "tensors.empirical_moment":
            add("tensors.empirical_moment.s", dur)
            add("tensors.empirical_moment.calls", 1)
            if span.info in (3, 4):
                add(f"tensors.empirical_moment.o{span.info}_s", dur)
        elif span.name == "tensors.Sample.from_csv":
            add("tensors.Sample.from_csv.s", dur)
            add("tensors.Sample.from_csv.calls", 1)
            add("tensors.Sample.from_csv.mb", (span.info or 0) / 1e6)
        elif span.name == "tensors.whiten":
            add("tensors.whiten.s", dur)
        elif mod == "engine" and func in SUMMARIES:
            add("engine.summarize.self_s", self_s)
        elif mod == "engine" and func in BOUNDS:
            if outermost(i, lambda n: _module(n) == "engine"
                         and _func(n) in BOUNDS):
                add("engine.bound.calls", 1)
                add("engine.bound.s", dur)
        elif span.name == "engine.optimize_beta":
            add("engine.optimize_beta.calls", 1)
            add("engine.optimize_beta.evals", span.info or 0)
        elif mod == "bootstrap":
            add("bootstrap.self_s", self_s)
            if span.info is not None:
                add("bootstrap.replicates", span.info[0])
                add("bootstrap.resample_cells", span.info[1])
        elif span.name == "distances.ks_two_sample_1d":
            add("distances.ks_two_sample_1d.s", dur)
            add("distances.ks_two_sample_1d.calls", 1)
            add("distances.ks_two_sample_1d.rows", span.info or 0)
        elif mod == "distances":
            add("distances.self_s", self_s)
        elif span.name == "cli.main":
            add("cli.main.self_s", self_s)
    calls = m["tensors.operator_norm.calls"]
    m["tensors.operator_norm.converged_share"] = (
        converged / calls if calls else 0.0)
    return m


COUNTS = ("tensors.operator_norm.calls", "tensors.operator_norm.iterations",
          "tensors.empirical_moment.calls", "tensors.Sample.from_csv.calls",
          "tensors.Sample.from_csv.mb", "engine.bound.calls",
          "engine.optimize_beta.calls", "engine.optimize_beta.evals",
          "bootstrap.replicates", "bootstrap.resample_cells",
          "distances.ks_two_sample_1d.calls",
          "distances.ks_two_sample_1d.rows", "samplers.calls",
          "tensors.operator_norm.converged_share")


def spans_json(spans: list, origin: float) -> list:
    """Compact rows [name, parent, start, end, info] relative to ``origin``."""
    return [[s.name, s.parent, round(s.start - origin, 7),
             round(s.end - origin, 7), s.info] for s in spans]

