"""Benchmark of rp2quant: time to a verified result, per workload and per layer.

Usage (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload harness-default --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Each workload is a closed loop with one client: the next unit starts when
the previous one has been verified.  Every unit draws its inputs from its
own master seed, derived from --seed and the unit's index.  The run stops
starting units once the next one would likely end after --seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the first half of
the time untraced and the second half with every public rp2quant function
wrapped in spans (see tracer.py), and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A fuller record
of the run, with the machine facts, goes to perfbench/out/.
"""

import os


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Pin the BLAS pool before anything imports numpy; recorded in every result.
# On a 2-vCPU VM, two threads made an lmax-32 operator step 0.48 s instead of
# 0.65 s and cut its run-to-run spread from 17% to 3%.
BLAS_THREADS = min(2, usable_cpus())
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5          # set-up samples per run: this process + 4 children
TAIL_BEYOND = 10           # units that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 170


def use_checkout_source() -> None:
    """Import rp2quant from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rp2quant" / "__init__.py").is_file():
        sys.exit(f"error: no rp2quant package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


def unit_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def timed_setup(name: str):
    wl = workloads.WORKLOADS[name]()
    t0 = time.perf_counter()
    wl.setup()
    return wl, time.perf_counter() - t0


def setup_in_child(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_units(wl, name, seed, gate, budget_s, first_index, tracer=None):
    """Closed loop: run units until the next would likely end past budget_s."""
    walls, cpus = [], []
    t_start = time.perf_counter()
    index = first_index
    while True:
        span = tracer.unit_span(index) if tracer else contextlib.nullcontext()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with span:
                wl.unit(unit_seed(name, seed, index), gate)
        except Exception as exc:  # a unit that raises is a reported failure
            gate.error(f"unit {index}", exc)
        gate.close_unit()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        index += 1
        if time.perf_counter() - t_start + statistics.median(walls) > budget_s:
            return walls, cpus


def tail(walls):
    """(percentile, value) of the highest percentile with TAIL_BEYOND units
    beyond it; with fewer than 2·TAIL_BEYOND units that is the median."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(walls)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(walls)[n - TAIL_BEYOND - 1]


def machine_facts() -> dict:
    import numpy
    import rp2quant

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "backend": rp2quant.backend_name(),
    }


def unit_of(key: str) -> str:
    return {
        "self_s": "s", "other_s": "s", "share": "frac", "hit_ratio": "frac",
        "overhead_frac": "frac", "us_per_call": "us", "ms_per_call": "ms",
        "bytes": "bytes-computed",
    }.get(key.rsplit(".", 1)[-1], "count")


def end_to_end(walls, cpus, setup_samples, gate) -> tuple[dict, dict]:
    pct, tail_s = tail(walls)
    metrics = {
        "unit_s_p50": (statistics.median(walls), "s"),
        "unit_s_tail": (tail_s, "s"),
        "unit_cpu_s_p50": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": (1.0 - gate.fail_frac, "frac"),
        "resid_tol_ratio_mean": (statistics.fmean(gate.unit_worst), "ratio"),
    }
    notes = {
        "unit_s_tail": f"p{pct:.1f} of {len(walls)} units",
        "setup_s": f"median of {len(setup_samples)}",
        "pass_frac": f"fail_frac {gate.fail_frac:.6g} ({gate.failed}/{gate.attempted})",
        "resid_tol_ratio_mean": f"margin_max {gate.margin_max:.4f} log10, {gate.worst_name}",
    }
    return metrics, notes


def run(args) -> int:
    use_checkout_source()
    if args.setup_only:
        print(repr(timed_setup(args.workload)[1]))
        return 0
    wl, first_setup = timed_setup(args.workload)
    setup_samples = [first_setup] + [
        setup_in_child(args.workload) for _ in range(SETUP_REPEATS - 1)
    ]
    gate = workloads.Gate()
    t0 = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, cpus = run_units(wl, args.workload, args.seed, gate, budget, 0)
    metrics, notes = end_to_end(walls, cpus, setup_samples, gate)
    shown = dict(metrics)
    record = {"walls_s": walls, "cpus_s": cpus, "setup_s": setup_samples}

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            twalls, _ = run_units(
                wl, args.workload, args.seed, gate,
                args.seconds - (time.perf_counter() - t0), len(walls), tracer,
            )
        finally:
            tracer.uninstall()
        layer = tracer.summarize(list(range(len(walls), len(walls) + len(twalls))))
        layer["trace.overhead_frac"] = statistics.median(twalls) / statistics.median(walls) - 1
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.npz")
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        shown = {**metrics, "unit_s_p50 (untraced)": shown["unit_s_p50"]}
        record["traced_walls_s"] = twalls
    record["unit_worst_ratio"] = gate.unit_worst

    env = machine_facts()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in shown.items():
        print(f"{key:<46} {value:>14.6g} {unit:<14} {notes.get(key, '')}".rstrip())

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "worst_check": gate.worst_name,
                   "notes": notes, **record, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample, for run()
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.setup_only:
            parser.error("--setup-only needs a single workload")
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
