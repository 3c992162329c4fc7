"""Alternating pairs of perfbench runs on two checkouts, and the rule a claimed gain must meet.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``, as it is
in each checkout, once per side per pair.  Pair i runs the parent first when
i is even and the change first when i is odd, so a drift of the machine over
the runs falls on both sides alike.  Every run uses the same seed, so both
sides verify the same units.

For each end-to-end metric it prints the median and quartiles (numpy's
linear percentiles) of each side, and how many pairs the change wins (is
strictly better in, in the metric's direction).  A gain holds when the change
wins at least 90 % of the pairs (9 of 10) and its median beats the parent's
median by more than the parent's interquartile range.  The directions come
from the change's ``BENCHMARK.json``.  The exit status is 0 when the gain
holds on ``unit_s_p50``, else 1.

Run (each checkout a directory holding ``perfbench/run.py`` and ``src/``):
    python benchmarks/perf_pairs.py PARENT CHANGE --workload operator-stream-lmax32 \\
        --pairs 10 --seconds 40 --seed 11
    python benchmarks/perf_pairs.py PARENT CHANGE --workload harness-lmax16 --json
"""

import argparse
import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_FRACTION = 0.9
CLAIMED = "unit_s_p50"


def quartiles(values) -> tuple[float, float, float]:
    """(25th percentile, median, 75th percentile), numpy's linear interpolation."""
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def gain_rule(parent, change, better: str = "lower") -> dict:
    """The claim rule on paired samples of one metric (pair i is parent[i], change[i]).

    ``wins`` counts the pairs in which the change is strictly better.  The
    gain holds when wins ≥ ⌈0.9·pairs⌉ and the median gap (parent minus
    change for "lower", change minus parent for "higher") exceeds the
    parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap, iqr = sign * (pq[1] - cq[1]), pq[2] - pq[0]
    need = math.ceil(WIN_FRACTION * len(parent))
    return {"parent": pq, "change": cq, "wins": wins, "pairs": len(parent), "wins_needed": need,
            "gap": gap, "parent_iqr": iqr, "holds": wins >= need and gap > iqr}


def run_perfbench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced perfbench run in ``checkout``: the metrics of its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seconds: float,
              seed: int, run=run_perfbench,
              log=functools.partial(print, flush=True)) -> dict[str, list[list[float]]]:
    """{metric: [parent values, change values]} over ``pairs`` alternating pairs."""
    sides = {"parent": parent, "change": change}
    samples: dict[str, list[list[float]]] = {}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run(sides[side], workload, seconds, seed) for side in order}
        for metric in got["parent"].keys() & got["change"].keys():
            pair = samples.setdefault(metric, [[], []])
            pair[0].append(got["parent"][metric])
            pair[1].append(got["change"][metric])
        log(f"# pair {i + 1}/{pairs} ({order[0]} first): {CLAIMED} "
            f"{got['parent'].get(CLAIMED)} -> {got['change'].get(CLAIMED)}")
    return samples


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json (if any)."""
    path = checkout / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="end with one JSON line of the rows")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    samples = run_pairs(args.parent, args.change, args.workload, args.pairs, args.seconds,
                        args.seed)
    better = directions(args.change)
    rows = {m: {**gain_rule(p, c, better.get(m, "lower")), "better": better.get(m, "lower")}
            for m, (p, c) in sorted(samples.items())}
    print(f"{'metric':<22} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>6} {'gap':>11} {'parent IQR':>11}  holds")
    for m, r in rows.items():
        side = {k: "/".join(f"{x:.4g}" for x in r[k]) for k in ("parent", "change")}
        print(f"{m:<22} {side['parent']:>32} {side['change']:>32} "
              f"{r['wins']:>3}/{r['pairs']:<2} {r['gap']:>11.4g} {r['parent_iqr']:>11.4g}  "
              f"{r['holds']}")
    if args.json:
        print(json.dumps({"workload": args.workload, "seed": args.seed, "rows": rows,
                          "samples": samples}, sort_keys=True))
    return 0 if rows.get(CLAIMED, {}).get("holds") else 1


if __name__ == "__main__":
    sys.exit(main())
