"""Cost of the two operator layers: the Weyl/Heisenberg operators and the canonical operator.

Times ``weyl_U``, ``weyl_V``, ``rep_heisenberg`` and ``check_weyl_relation``
on the Gaussian packet of the harness (L = 20, x₀ = 0.4, σ = 1, k₀ = 0.6) at
N = 1024 (the harness grid) and N = 65536 (perfbench's operator stream), and
``act_canonical`` at lmax 16 and 32 on a 64-node radial stack drawn as the
stream draws it (odd content up to l = 4, |w| = 0.0025, λ ∈ e^{±0.13}).
At N = 1024 two more cases time 20 samples as the harness draws them,
``check_weyl_relation`` on 20 (a, b) shift pairs and ``rep_heisenberg`` on 20
group elements, once as 20 single calls and once as one stacked call.
Each case is the median over REPEATS samples of the mean of LOOPS calls, in
milliseconds per call; the inputs are fixed, and the packet's spectrum is
cached after the first call, as it is on a packet that a workload reuses.
Beside the time, each case reports its minor page faults per call (the
process's ``getrusage`` count over all timed calls, divided by their number):
a fresh 1 MB array at N = 65536 costs about 256 of them.
The first line names the environment, as ``bench_checks.py`` does; set
OPENBLAS_NUM_THREADS when comparing runs.  Point PYTHONPATH at another
checkout's ``src`` to time that tree the same way.

Run:
    PYTHONPATH=src python benchmarks/bench_operators.py            # table
    PYTHONPATH=src python benchmarks/bench_operators.py --json     # plus one JSON line
"""

import json
import resource
import statistics
import sys
import time

import numpy as np

from bench_checks import env_line
from rp2quant import build_quadrature, classical, groups, harmonics, heisenberg, representation

REPEATS = 7
LOOPS = 5
PACKET_N = (1024, 65536)
STACK_N, STACK_ROWS = 1024, 20
CANONICAL_LMAX = (16, 32)
RADIAL_NODES = 64


def median_ms(fn) -> tuple[float, float]:
    """(median ms per call, minor page faults per timed call)."""
    fn()                                   # warm the per-grid caches
    samples = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(LOOPS):
            fn()
        samples.append((time.perf_counter() - t0) / LOOPS * 1e3)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return statistics.median(samples), faults / (REPEATS * LOOPS)


def heisenberg_cases(n: int):
    psi = heisenberg.gaussian_packet(n, 20.0, 0.4, 1.0, 0.6)
    e = heisenberg.HeisenbergElement([0.37], [-1.21], 0.45)
    return {
        "weyl_U": lambda: heisenberg.weyl_U(0.83, psi),
        "weyl_V": lambda: heisenberg.weyl_V(-1.9, psi),
        "rep_heisenberg": lambda: heisenberg.rep_heisenberg(e, psi),
        "check_weyl_relation": lambda: heisenberg.check_weyl_relation(0.83, -1.9, psi),
    }


def stacked_cases():
    """20 samples at N = 1024, drawn as the harness draws them: looped, then stacked."""
    rng = np.random.default_rng(0)
    psi = heisenberg.gaussian_packet(STACK_N, 20.0, 0.4, 1.0, 0.6)
    a, b = rng.uniform((-1.5, -3), (1.5, 3), size=(STACK_ROWS, 2)).T
    d = rng.uniform((-1, -2, -1), (1, 2, 1), size=(STACK_ROWS, 3))
    stack = heisenberg.HeisenbergElement(d[:, :1], d[:, 1:2], d[:, 2])
    singles = [heisenberg.HeisenbergElement(x[:1], x[1:2], x[2]) for x in d]
    looped, stacked = f"N={STACK_N} {STACK_ROWS} looped", f"N={STACK_N} {STACK_ROWS} stacked"
    return {
        ("check_weyl_relation", looped):
            lambda: [heisenberg.check_weyl_relation(x, y, psi) for x, y in zip(a, b)],
        ("check_weyl_relation", stacked): lambda: heisenberg.check_weyl_relation(a, b, psi),
        ("rep_heisenberg", looped): lambda: [heisenberg.rep_heisenberg(e, psi) for e in singles],
        ("rep_heisenberg", stacked): lambda: heisenberg.rep_heisenberg(stack, psi),
    }


def canonical_case(lmax: int):
    rng = np.random.default_rng(0)
    grid = build_quadrature(lmax)
    radial = representation.log_uniform_grid(0.0625, 32.0, RADIAL_NODES)
    u = np.log(radial.nodes)
    profile = np.exp(-((u - 0.347) ** 2) / (2 * 0.4**2))
    c = np.array(harmonics.random_coeffs(lmax, "odd", rng).c)
    c[25:] = 0.0
    fs = representation.separable_section(
        radial, profile, harmonics.HarmonicCoeffs(lmax, "odd", c / np.linalg.norm(c)))
    cm = classical.w_matrix(rng.normal(size=5))
    w = classical.WFunctional(cm * (0.0025 / np.linalg.norm(cm)), rng.normal() * 0.05)
    g = groups.random_su2(rng)
    lam = float(np.exp(rng.uniform(-0.13, 0.13)))
    return lambda: representation.act_canonical(w, g, lam, fs, grid)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    print(env_line())
    cases = {}
    for n in PACKET_N:
        for name, fn in heisenberg_cases(n).items():
            cases[name, f"N={n}"] = fn
    cases.update(stacked_cases())
    for lmax in CANONICAL_LMAX:
        cases["act_canonical", f"lmax={lmax}"] = canonical_case(lmax)
    ms, faults = {}, {}
    print(f"{'operator':>20} {'case':>18} {'ms/call':>9} {'faults/call':>12}")
    for (name, case), fn in cases.items():
        t, f = median_ms(fn)
        ms.setdefault(name, {})[case] = round(t, 4)
        faults.setdefault(name, {})[case] = round(f, 1)
        print(f"{name:>20} {case:>18} {t:>9.3f} {f:>12.1f}")
    if "--json" in argv:
        print(json.dumps({"ms_per_call": ms, "minor_faults_per_call": faults}, sort_keys=True))


if __name__ == "__main__":
    main()
