"""Every name a cltcert module exports resolves, and so does every name the
benchmark's tracer hooks.

The benchmark's tracer wraps each module's functions by their ``__all__``,
so a name left there after its function is deleted would hide a missing
function instead of failing.  A hooked name that is renamed or deleted
would silently read 0 in a per-layer metric, so the tracer's tables are
checked against the package here, without installing the tracer.

A defaulted parameter of a public function that no call inside the package
passes is a setting nothing uses, so every such parameter must be passed
somewhere in ``src/cltcert`` or be listed, with its reason, as an
exception.  Likewise every name a package or test module imports must be
read in that module or listed in its ``__all__``, and every private
function or constant a package module defines must be read somewhere in the
package outside its own definition.  The one environment access in the
package is the BLAS thread default that ``import cltcert`` sets.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import math
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from cltcert import bootstrap, engine, samplers
from cltcert.samplers import DistributionSpec
from cltcert.tensors import MomentTensor, OperatorNormResult, Sample

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the (module, function) pairs whose spans the tracer reads counts from
HOOKED = (("tensors", "operator_norm"), ("tensors", "empirical_moment"),
          ("distances", "ks_two_sample_1d"), ("engine", "optimize_beta"))


@pytest.mark.parametrize("name", (
    "cltcert", "cltcert.tensors", "cltcert.samplers", "cltcert.engine",
    "cltcert.distances", "cltcert.bootstrap"))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__all__, name
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, (name, missing)


def _exported_function(mod, name):
    fn = getattr(mod, name, None)
    return inspect.isfunction(fn) and name in mod.__all__


def test_every_name_the_tracer_hooks_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    for name in tracing.BOUNDS | tracing.SUMMARIES:
        assert _exported_function(engine, name), name
    for name, params in tracing.RESAMPLERS.items():
        assert _exported_function(bootstrap, name), name
        signature = inspect.signature(getattr(bootstrap, name)).parameters
        assert all(p in signature for p in params if p is not None), name
    for module, name in HOOKED:
        mod = importlib.import_module(f"cltcert.{module}")
        assert _exported_function(mod, name), (module, name)
        assert tracing._hooks(module, name, getattr(mod, name)) != (
            None, None), (module, name)
    assert isinstance(Sample.__dict__["from_csv"], classmethod)
    assert inspect.isfunction(DistributionSpec.__dict__["sample"])
    assert {"iterations", "converged"} <= {
        f.name for f in dataclasses.fields(OperatorNormResult)}
    assert "order" in {f.name for f in dataclasses.fields(MomentTensor)}


def test_resample_kernel_is_not_exported():
    # the tracer would wrap it and count every resample chunk as a sampler
    # call, moving resampling time into the sampler metrics
    assert "_resample_counts" not in samplers.__all__


SRC = Path(__file__).resolve().parents[1] / "src" / "cltcert"

# defaulted parameters that no call inside the package passes, and why each
# stays: (module, function, parameter)
UNPASSED_DEFAULTS = {
    ("cli", "main", "argv"):
        "the console entry point; tests and the benchmark pass argv",
    ("samplers", "construct_Y", "spec"):
        "the paper's smoothing construction, called by the acceptance "
        "criteria with and without a parametric spec",
}


def _public_functions(tree):
    """(name, defaulted parameters with their positional index or None)
    for each public module-level function and public method."""
    classes = [node.body for node in tree.body
               if isinstance(node, ast.ClassDef)
               and not node.name.startswith("_")]
    for fn in itertools.chain(tree.body, *classes):
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        defaulted = [(p.arg, i) for i, p in enumerate(positional)
                     if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                      if d is not None]
        yield fn.name, defaulted


def _passed(trees):
    """The keywords and the most positional arguments passed to each
    called name over every call in ``trees``; ``*args`` passes every
    position and ``**kwargs`` every keyword."""
    keywords, positions = defaultdict(set), defaultdict(int)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            keywords[name].update(k.arg or "**" for k in call.keywords)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positions[name] = max(positions[name],
                                  math.inf if starred else len(call.args))
    return keywords, positions


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # code with no caller in the library or CLI is deleted: a default that
    # no call inside the package overrides is a setting nothing uses
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    keywords, positions = _passed(trees.values())
    unpassed = set()
    for module, tree in trees.items():
        for name, defaulted in _public_functions(tree):
            for param, index in defaulted:
                if not ({param, "**"} & keywords[name]
                        or (index is not None and index < positions[name])):
                    unpassed.add((module, name, param))
    assert unpassed == set(UNPASSED_DEFAULTS)


TESTS = Path(__file__).resolve().parent


def _unused_imports(tree) -> set:
    """The names ``tree`` imports but neither reads nor lists in its
    ``__all__``; ``from __future__`` imports are compiler directives."""
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[f"{path.parent.name}/{path.name}"] = sorted(names)
    assert unused == {}


def _reads(node) -> list:
    """The names ``node`` reads, as a ``Name`` or as an ``Attribute``."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)]


def _private_functions_and_constants(tree):
    """(name, defining node) of each module-level private function and each
    module-level assigned name but ``__all__`` and ``__version__``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, ast.Name)
                        and t.id not in ("__all__", "__version__")):
                    yield t.id, node


def test_every_private_function_and_constant_is_read():
    # the names no public-name check sees: a private helper or a module
    # constant that nothing in the package reads outside its own
    # definition has no caller, so it is deleted
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = Counter(itertools.chain.from_iterable(map(_reads,
                                                      trees.values())))
    unread = [(module, name) for module, tree in trees.items()
              for name, node in _private_functions_and_constants(tree)
              if reads[name] <= _reads(node).count(name)]
    assert unread == []


def _random_constructions(tree) -> list:
    """The lines of ``tree`` that call into ``np.random`` (or
    ``numpy.random``) or import from it; an annotation such as
    ``np.random.Generator`` calls nothing."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("numpy.random"):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "random"
              and isinstance(node.func.value.value, ast.Name)
              and node.func.value.value.id in ("np", "numpy")):
            lines.append(node.lineno)
    return lines


def test_only_samplers_constructs_random_generators():
    # one seed path: every generator comes from a samplers function or a
    # named substream, so a seeded run's streams are all keyed off its seed
    found = {path.name: _random_constructions(
                 ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))
             if path.name != "samplers.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    put_back = ("def f(rng: np.random.Generator):\n"
                "    return np.random.default_rng(0)\n")
    assert _random_constructions(ast.parse(put_back)) == [2]


BLAS_THREAD_VARS = {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv",
               "unsetenv"}


def _blas_defaults(tree) -> set:
    """The ``environ`` nodes of each ``os.environ.setdefault(var, "1")`` in
    ``tree`` inside a loop of ``var`` over a literal tuple of BLAS thread
    variables."""
    found = set()
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For)
                and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, ast.Tuple)
                and all(getattr(e, "value", None) in BLAS_THREAD_VARS
                        for e in loop.iter.elts)):
            continue
        found.update(node.func.value for node in ast.walk(loop)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "setdefault"
                     and isinstance(node.func.value, ast.Attribute)
                     and node.func.value.attr == "environ"
                     and not node.keywords
                     and [ast.unparse(arg) for arg in node.args] == [
                         loop.target.id, "'1'"])
    return found


def _environment_accesses(tree, blas_default: bool) -> list:
    """The lines of ``tree`` that read or write the environment, but, with
    ``blas_default``, those of :func:`_blas_defaults`."""
    allowed = _blas_defaults(tree) if blas_default else set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "os" and {a.name for a in node.names} & (
                    ENVIRONMENT):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
              and node not in allowed):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_only_environment_access_is_the_blas_thread_default():
    # one thread setting: importing cltcert makes one thread the default of
    # the standard BLAS variables, and nothing in the package reads any
    # variable of its own
    found = {path.name: _environment_accesses(
                 ast.parse(path.read_text(encoding="utf-8")),
                 path.name == "__init__.py")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    put_back = ("import os\n"
                "for var in ('OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
                "    os.environ.setdefault(var, '1')\n"
                "    os.environ.setdefault(var, '2')\n"
                "threads = os.environ.get('OMP_NUM_THREADS')\n"
                "for var in ('OMP_NUM_THREADS', 'OTHER'):\n"
                "    os.environ.setdefault(var, '1')\n")
    assert _environment_accesses(ast.parse(put_back), True) == [4, 5, 7]
    assert _environment_accesses(ast.parse(put_back), False) == [3, 4, 5, 7]
