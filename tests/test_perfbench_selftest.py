"""The benchmark under perfbench/ still runs against this package.

The benchmark imports the package by name (``Instance``, ``SearchConstraints``,
``validate``, ``tightness_instance``, ...), so an API change that breaks it
shows up here rather than only when the benchmark is run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_perfbench_selftest_passes():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_micro_imports():
    # the micro-timings are only loaded by traced runs, which the self-test skips
    proc = _run("-c", "from perfbench import run; run.import_program(); import perfbench.micro")
    assert proc.returncode == 0, proc.stderr


def test_perfbench_micro_runs_clean():
    # a traced run takes these timings; each checks the answer it times, so
    # an API change the traced run trips over leaves a problem or a traceback
    proc = _run(
        "-c",
        "from perfbench import run; run.import_program(); import perfbench.micro\n"
        "problems = []\n"
        "perfbench.micro.run(1, problems)\n"
        "print(problems)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
