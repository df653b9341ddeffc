"""The BLAS thread count that ``import cltcert`` sets, read in fresh
interpreters: the environment is only read before numpy loads, and this
process has loaded it already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cltcert

THREAD_VARS = ("CLTCERT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

# prints OpenBLAS's variable and the process's thread count after the import
PROBE = ("import os, cltcert\n"
         "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
         "with open('/proc/self/status') as fh:\n"
         "    print(next(line.split()[1] for line in fh\n"
         "               if line.startswith('Threads:')))\n")

# prints the import's error and whether numpy had loaded when it was raised
REFUSAL_PROBE = ("import sys\n"
                 "try:\n"
                 "    import cltcert\n"
                 "except ValueError as exc:\n"
                 "    print(exc)\n"
                 "    print('numpy' in sys.modules)\n")


def _python(*args, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(cltcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the thread count from /proc")


@needs_proc
def test_blas_runs_on_one_thread_by_default():
    proc = _python("-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


@needs_proc
def test_cltcert_threads_sets_the_blas_variables():
    proc = _python("-c", PROBE, CLTCERT_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "2"


@needs_proc
def test_an_explicit_blas_variable_wins_over_the_default():
    proc = _python("-c", PROBE, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "2"


# never a large count: the check must come before any thread starts, and a
# value that passed it would start that many
@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
def test_an_invalid_thread_count_is_refused(value):
    proc = _python("-c", REFUSAL_PROBE, CLTCERT_THREADS=value)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"CLTCERT_THREADS must be a positive integer, got {value!r}",
        "False"]


def test_the_cli_refuses_an_invalid_thread_count_before_any_command():
    proc = _python("-m", "cltcert.cli", "bound", "--help",
                   CLTCERT_THREADS="abc")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "ValueError: CLTCERT_THREADS must be a positive integer, got 'abc'")
