"""Median wall time of every harness check over several seeds.

Runs ``run_suite`` once per seed (0, 1, ..., seeds-1) at one lmax and prints
each check's median ``wall_time_ms``, slowest first, then the per-suite sums
of those medians and their total.  Every run is a full verified report in one
process, so the first seed also pays the quadrature-grid and eigenvector
caches; the median keeps that one-off cost out.  The first line names the
environment: numpy's version, the BLAS it was built against, the BLAS
thread variables (None when unset) and the CPU count.  Small BLAS products
can stall on a second OpenBLAS thread, so set OPENBLAS_NUM_THREADS when
comparing runs.  Point PYTHONPATH at another checkout's ``src`` to time
that tree the same way.  ``--check NAME`` (repeatable) times only the named
checks, each on its own seeded stream as in a report, without running the
rest of the report.

Run:
    PYTHONPATH=src python benchmarks/bench_checks.py                 # lmax 8, 5 seeds
    PYTHONPATH=src python benchmarks/bench_checks.py --lmax 16 --seeds 7
    PYTHONPATH=src python benchmarks/bench_checks.py --suite classical
    PYTHONPATH=src python benchmarks/bench_checks.py --check lift-composition --check moment-injectivity
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_checks.py
"""

import argparse
import os
import statistics
import time

import numpy as np

from rp2quant.checks import REGISTRY, SUITES, SuiteConfig, check_rng
from rp2quant.cli import run_suite

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


# read from numpy here rather than from rp2quant, so that older checkouts
# without a report ``env`` block are timed the same way
def env_line() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS)
    return (f"env numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"{threads}, cpu_count {os.cpu_count()}")


def timed_checks(names, cfg):
    """(suite, name, wall ms, passed) of each named check, run on its stream as a report runs it."""
    for check in REGISTRY:
        if check.name in names:
            rng = check_rng(cfg.rng_seed, check.name)
            t0 = time.perf_counter()
            residual = float(check.fn(rng, cfg))
            yield check.suite, check.name, (time.perf_counter() - t0) * 1e3, residual <= check.tolerance


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lmax", type=int, default=8)
    parser.add_argument("--seeds", type=int, default=5)
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--suite", choices=SUITES + ("all",), default="all")
    which.add_argument("--check", action="append", metavar="NAME",
                       help="time only this check (repeatable)")
    args = parser.parse_args()
    if args.check:
        unknown = set(args.check) - {c.name for c in REGISTRY}
        if unknown:
            parser.error(f"unknown check(s): {', '.join(sorted(unknown))}")
    print(env_line())

    times: dict[tuple[str, str], list[float]] = {}
    failed = set()
    for seed in range(args.seeds):
        cfg = SuiteConfig(lmax=args.lmax, rng_seed=seed)
        if args.check:
            rows = timed_checks(set(args.check), cfg)
        else:
            rows = ((r.suite, r.name, r.wall_time_ms, r.passed) for r in run_suite(args.suite, cfg))
        for suite, name, ms, passed in rows:
            times.setdefault((suite, name), []).append(ms)
            if not passed:
                failed.add(name)
    medians = {key: statistics.median(ts) for key, ts in times.items()}

    print(f"median wall_time_ms over {args.seeds} seeds, lmax {args.lmax}")
    width = max(len(name) for _, name in medians)
    for (suite, name), ms in sorted(medians.items(), key=lambda kv: -kv[1]):
        mark = "  FAILED on some seed" if name in failed else ""
        print(f"{name:<{width}}  {suite:<14} {ms:9.2f} ms{mark}")
    print("\nper suite (sum of medians)")
    for suite in SUITES:
        total = sum(ms for (s, _), ms in medians.items() if s == suite)
        if total:
            print(f"{suite:<14} {total:9.2f} ms")
    print(f"{'total':<14} {sum(medians.values()):9.2f} ms")


if __name__ == "__main__":
    main()
