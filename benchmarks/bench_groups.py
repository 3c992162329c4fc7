"""Per-sample cost of the group-layer primitives, scalar and batch.

For each primitive the scalar form is timed one sample per call and the
batch form on one (n, 2) or (n, 3) array; both report microseconds per
sample (best of REPEATS).  The cases are the ones the harness applies per
sample: the spinor map, the SU(2) product, the ℝP² canonical representative
and the chart transition signs (all nine at one point).

Run:
    PYTHONPATH=src python benchmarks/bench_groups.py            # table
    PYTHONPATH=src python benchmarks/bench_groups.py --json     # plus one JSON line
"""

import json
import sys
import time

import numpy as np

from rp2quant.groups import (
    SU2Element,
    quotient_to_sphere_batch,
    rp2_point,
    rp2_rep_batch,
    spinor_map,
    spinor_map_batch,
    su2_from_normals,
    su2_product_batch,
)
from rp2quant.manifold import transition_function, transition_signs_batch

N = 2000
REPEATS = 5


def best_us_per_sample(fn, n: int) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) / n * 1e6


def cases():
    rng = np.random.default_rng(0)
    rows = su2_from_normals(rng.normal(size=(N, 4)))
    other = rows[::-1].copy()
    els = [SU2Element(*z) for z in rows]
    pairs = list(zip(els, els[::-1]))
    pts = -quotient_to_sphere_batch(rows)       # negated: most need a sign flip
    points = [rp2_point(x) for x in pts]
    charts = (1, 2, 3)
    return {
        "spinor_map": (
            lambda: [spinor_map(g) for g in els],
            lambda: spinor_map_batch(rows),
        ),
        "su2_product": (
            lambda: [g * h for g, h in pairs],
            lambda: su2_product_batch(rows, other),
        ),
        "rp2_canonical": (
            lambda: [rp2_point(x) for x in pts],
            lambda: rp2_rep_batch(pts),
        ),
        "transition_signs": (
            lambda: [[transition_function(a, b, p) for a in charts for b in charts]
                     for p in points],
            lambda: transition_signs_batch(pts),
        ),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out = {}
    print(f"{'primitive':>18} {'scalar us/sample':>17} {'batch us/sample':>16} {'ratio':>7}")
    for name, (scalar, batch) in cases().items():
        s, b = best_us_per_sample(scalar, N), best_us_per_sample(batch, N)
        out[name] = {"scalar_us": round(s, 4), "batch_us": round(b, 4), "samples": N}
        print(f"{name:>18} {s:>17.3f} {b:>16.4f} {s / b:>6.0f}x")
    if "--json" in argv:
        print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
