"""Smoke runs of the benchmark scripts, so an API change cannot silently break them.

Each script runs as its own process on the package in ``src``, as its usage
line runs it.  ``bench_harmonics.py`` takes about 45 s, so it is run by
hand; here it is only imported, which resolves every library name it imports.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / name), *args],
                          capture_output=True, text=True, env=env, check=True, cwd=ROOT).stdout


def test_bench_groups_runs():
    out = run_script("bench_groups.py", "--json")
    timings = json.loads(out.splitlines()[-1])
    assert {"spinor_map", "su2_product", "SU2Element * h"} <= set(timings)
    assert all(t["single_us"] > 0 and t["stack_us"] > 0 for t in timings.values())


def test_bench_checks_runs_one_check():
    out = run_script("bench_checks.py", "--seeds", "1", "--check", "spinor-homomorphism")
    assert "spinor-homomorphism" in out


def test_bench_harmonics_imports():
    spec = importlib.util.spec_from_file_location(
        "bench_harmonics", ROOT / "benchmarks" / "bench_harmonics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)               # the __main__ guard keeps main() from running
    assert callable(module.main)
