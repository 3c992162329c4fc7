"""Timing comparison of the numba and pure-numpy harmonic kernels.

The basis build dominates synthesis and projection, so it is the quantity
benchmarked here.  Rotation is timed as two labelled cases: the coefficient
route (``rotate_coeffs``, per-degree Wigner blocks, no basis build) and the
resampling cross-check route (``analyze(rotate_values(...))``, a basis build
at the rotated nodes on the default backend).

Run:
    python benchmarks/bench_harmonics.py
    RP2QUANT_NO_NUMBA=1 rp2quant all        # full suite on the fallback path
"""

import time

import numpy as np

from rp2quant._kernels import HAVE_NUMBA, ylm_basis_numba, ylm_basis_numpy

REPEATS = 5
CASES = [
    (162, 8),        # default verification grid
    (2178, 16),
    (4422, 32),      # largest supported band limit
    (100_000, 16),
]


def best_of(fn, *args):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    rng = np.random.default_rng(0)
    print(f"{'points':>8} {'lmax':>5} {'numpy':>12} {'numba':>12} {'speedup':>8}")
    for n, lmax in CASES:
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        t_np = best_of(ylm_basis_numpy, pts, lmax)
        if HAVE_NUMBA:
            ylm_basis_numba(pts, lmax)          # trigger compilation outside timing
            t_nb = best_of(ylm_basis_numba, pts, lmax)
            print(f"{n:>8} {lmax:>5} {t_np*1e3:>10.2f}ms {t_nb*1e3:>10.2f}ms "
                  f"{t_np/t_nb:>7.1f}x")
        else:
            print(f"{n:>8} {lmax:>5} {t_np*1e3:>10.2f}ms {'n/a':>12} {'':>8}")

    from rp2quant.groups import su2_from_axis_angle
    from rp2quant.harmonics import analyze, random_coeffs, rotate_coeffs, rotate_values
    from rp2quant.manifold import build_quadrature

    g = su2_from_axis_angle(0.7, np.array([0.6, 0.0, 0.8]))
    print("\nrotation: rotate_coeffs (coefficients) vs analyze(rotate_values) (resampling)")
    print(f"{'lmax':>5} {'coefficients':>14} {'resampling':>12}")
    for lmax in (8, 16, 32):
        grid = build_quadrature(lmax)
        grid.basis(lmax)                        # cached projection basis, as in use
        a = random_coeffs(lmax, "full", rng)
        t_coef = best_of(rotate_coeffs, g, a, grid)
        t_res = best_of(lambda: analyze(rotate_values(g, a, grid.nodes), lmax, grid))
        print(f"{lmax:>5} {t_coef*1e3:>12.2f}ms {t_res*1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
