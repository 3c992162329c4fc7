"""Cost of the group-layer primitives on one object and on one stack.

Each primitive has one name that takes one element or point, or a stack of
them.  For each case the name is timed once per sample on single objects
(microseconds per call) and once on an (n, 2) or (n, 3) stack (microseconds
per row), best of REPEATS.  The cases are the ones the harness applies, on
(2,) SU(2) rows as it passes them: the spinor map, the SU(2) product, the
unit-vector check, the ℝP² canonical representative, the chart transition
signs (all nine at one point) and the sphere section.  One more case times
the product of the public ``SU2Element`` object (``g * h``, one
``su2_product`` and one constructor call) against the stacked product.

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
    quotient_to_sphere,
    rp2_rep,
    spinor_map,
    su2_from_normals,
    su2_from_sphere_point,
    su2_product,
    unit_vector,
)
from rp2quant.manifold import transition_signs

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
    """name -> (the name called once per sample, the name called on the stack)."""
    rng = np.random.default_rng(0)
    rows = su2_from_normals(rng.normal(size=(N, 4)))
    other = rows[::-1].copy()
    els = [SU2Element(*z) for z in rows]
    pts = -quotient_to_sphere(rows)       # negated: most need a sign flip
    return {
        "spinor_map": (lambda: [spinor_map(g) for g in rows], lambda: spinor_map(rows)),
        "su2_product": (lambda: [su2_product(g, h) for g, h in zip(rows, other)],
                        lambda: su2_product(rows, other)),
        "SU2Element * h": (lambda: [g * h for g, h in zip(els, other)],
                           lambda: su2_product(rows, other)),
        "unit_vector": (lambda: [unit_vector(x) for x in pts], lambda: unit_vector(pts)),
        "rp2_rep": (lambda: [rp2_rep(x) for x in pts], lambda: rp2_rep(pts)),
        "transition_signs": (lambda: [transition_signs(x) for x in pts],
                             lambda: transition_signs(pts)),
        "su2_from_sphere_point": (lambda: [su2_from_sphere_point(x) for x in pts],
                                  lambda: su2_from_sphere_point(pts)),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out = {}
    print(f"{'primitive':>22} {'single us/call':>15} {'stack us/row':>13} {'ratio':>7}")
    for name, (single, stack) in cases().items():
        s, b = best_us_per_sample(single, N), best_us_per_sample(stack, N)
        out[name] = {"single_us": round(s, 4), "stack_us": round(b, 4), "samples": N}
        print(f"{name:>22} {s:>15.3f} {b:>13.4f} {s / b:>6.0f}x")
    if "--json" in argv:
        print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
