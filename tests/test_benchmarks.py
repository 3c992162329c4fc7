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


def test_bench_operators_runs():
    out = run_script("bench_operators.py", "--json")
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"ms_per_call", "minor_faults_per_call"}
    timings, faults = result["ms_per_call"], result["minor_faults_per_call"]
    assert set(timings) == {"weyl_U", "weyl_V", "rep_heisenberg", "check_weyl_relation",
                            "act_canonical"}
    assert set(timings["weyl_U"]) == {"N=1024", "N=65536"}
    assert set(timings["rep_heisenberg"]) == set(timings["check_weyl_relation"]) == {
        "N=1024", "N=65536", "N=1024 20 looped", "N=1024 20 stacked"}
    assert set(timings["act_canonical"]) == {"lmax=16", "lmax=32"}
    assert all(ms > 0 for cases in timings.values() for ms in cases.values())
    assert {k: set(v) for k, v in faults.items()} == {k: set(v) for k, v in timings.items()}
    assert all(f >= 0 for cases in faults.values() for f in cases.values())


def test_bench_checks_runs_one_check():
    out = run_script("bench_checks.py", "--seeds", "1", "--check", "spinor-homomorphism")
    assert "spinor-homomorphism" in out


def test_bench_harmonics_imports():
    spec = importlib.util.spec_from_file_location(
        "bench_harmonics", ROOT / "benchmarks" / "bench_harmonics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)               # the __main__ guard keeps main() from running
    assert callable(module.main)
