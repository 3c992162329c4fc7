"""Timings of harmonic evaluation, the grid transform and rotation.

Evaluation at arbitrary points is timed as two labelled routes: the dense
basis build followed by a matmul (``ylm_basis(x) @ c``, the route
``evaluate`` took before) and ``ylm_synthesize`` (one real matmul per order
m, times the running power e^{imφ}, no basis).  The same case times the
``exchange-statistics`` check as one chunked batch against its former
per-sample loop on dense bases (kept below).  The grid transform is timed as
two labelled routes for ``analyze`` and for ``act_canonical`` on a 64-node
radial stack: the separable route in use (``QuadratureGrid.project`` /
``synthesize``: FFT over azimuth, one Legendre matmul per m) and the dense
route it replaced (a cached (n × (lmax+1)²) basis matrix and full matmuls;
its bodies are kept below).  Rotation is timed as two labelled cases: the
coefficient route (``rotate_coeffs``, per-degree Wigner blocks, no
harmonics) and the resampling cross-check route
(``analyze(rotate_values(...))``, a synthesis at the rotated nodes).  The
"Wigner D^j" case times the one spin-j primitive (``wigner_d``, Euler phases
around cached S₂ eigenvectors) against the symmetrized-power oracle the
checks keep, then ``wigner_d(1, ·)`` and the transport frame built on it
(``TransportFrame(1).unitary``) per row of a 1000-row stack beside the same
rows in a per-call loop.

Run:
    PYTHONPATH=src python benchmarks/bench_harmonics.py
"""

import time

import numpy as np

from rp2quant._kernels import ylm_basis, ylm_synthesize
from rp2quant.berry_robbins import TransportFrame
from rp2quant.checks import REGISTRY, SuiteConfig, _symmetrized_power_d, check_rng
from rp2quant.classical import w_matrix
from rp2quant.groups import random_su2, spinor_map, su2_from_axis_angle, su2_from_normals
from rp2quant.harmonics import (
    HarmonicCoeffs,
    analyze,
    off_sector_mask,
    parity_decompose,
    random_coeffs,
    rotate_coeffs,
    rotate_stack,
    rotate_values,
    wigner_d,
)
from rp2quant.manifold import WFunctional, build_quadrature
from rp2quant.representation import (
    FullSection,
    _spectral_log_shift,
    act_canonical,
    log_uniform_grid,
    separable_section,
)

REPEATS = 5
STACK_ROWS = 1000
CASES = [
    (162, 8),        # default verification grid
    (578, 16),
    (1250, 24),
    (2178, 32),      # the lmax-32 grid: evaluate(a, grid.nodes) on the stream
]


def analyze_dense(values, lmax, grid):
    """The dense projection analyze used before the separable transform."""
    return HarmonicCoeffs(lmax, "full", grid.basis(lmax).conj().T @ (grid.weights * values))


def act_canonical_dense(w, g, lam, fs, grid):
    """act_canonical's former dense body, less its radial-window guard."""
    m = _spectral_log_shift(fs.c, fs.radial, np.log(lam))
    basis = grid.basis(fs.lmax)
    phase = lam**1.5 * np.exp(-1j * np.outer(fs.radial.nodes, w(grid.nodes)))
    vals = (rotate_stack(g, m) @ basis.T) * phase * grid.weights
    out = (vals.conj() @ basis).conj()
    out = np.where(off_sector_mask(fs.lmax, fs.sector), 0, out)
    return FullSection(fs.radial, fs.lmax, fs.sector, out)


def exchange_statistics_dense(rng, cfg):
    """exchange-statistics as a per-sample loop on dense bases, as it ran before.

    Parity from the cached node basis and a basis at the antipodes; the
    resampled table from a basis built at each sample's rotated nodes.
    """
    grid = build_quadrature(cfg.lmax)
    basis, anti = grid.basis(cfg.lmax), ylm_basis(-grid.nodes, cfg.lmax)
    worst = 0.0
    for _ in range(cfg.samples):
        sector = "odd" if rng.normal() < 0 else "even"
        a = random_coeffs(cfg.lmax, sector, rng)
        rotated = rotate_coeffs(random_su2(rng), a, grid)
        vals, flipped = basis @ rotated.c, anti @ rotated.c
        off = flipped + vals if sector == "odd" else flipped - vals
        if np.max(np.abs(off)) > 1e-10 * np.max(np.abs(vals)):
            return 1.0
        values = ylm_basis(grid.nodes @ spinor_map(random_su2(rng)), cfg.lmax) @ a.c
        even, odd = parity_decompose(analyze(values, cfg.lmax, grid))
        worst = max(worst, (odd if sector == "even" else even).norm())
    return worst


def best_of(fn, *args):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    rng = np.random.default_rng(0)
    print("evaluate at arbitrary points: ylm_basis(x) @ c vs ylm_synthesize (no basis)")
    print(f"{'points':>8} {'lmax':>5} {'ylm_basis':>11} {'basis @ c':>11} {'synthesize':>11}")
    for n, lmax in CASES:
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        c = random_coeffs(lmax, "full", rng).c
        t_basis = best_of(ylm_basis, pts, lmax)
        t_dense = best_of(lambda: ylm_basis(pts, lmax) @ c)
        t_syn = best_of(ylm_synthesize, pts, lmax, c)
        print(f"{n:>8} {lmax:>5} {t_basis*1e3:>9.2f}ms {t_dense*1e3:>9.2f}ms {t_syn*1e3:>9.2f}ms")

    print("\nexchange-statistics (200 samples): chunked batch vs per-sample dense loop")
    print(f"{'lmax':>5} {'batch':>10} {'loop':>10}")
    check = next(c for c in REGISTRY if c.name == "exchange-statistics")
    for lmax in (8, 16, 24):
        cfg = SuiteConfig(lmax=lmax)
        t_batch = best_of(lambda: check.fn(check_rng(0, check.name), cfg))
        t_loop = best_of(lambda: exchange_statistics_dense(check_rng(0, check.name), cfg))
        print(f"{lmax:>5} {t_batch*1e3:>8.0f}ms {t_loop*1e3:>8.0f}ms")

    g = su2_from_axis_angle(0.7, np.array([0.6, 0.0, 0.8]))
    cm = w_matrix(np.array([0.3, -0.2, 0.5, 0.1, -0.4]))
    w = WFunctional(cm * (0.0025 / np.linalg.norm(cm)), 0.01)
    radial = log_uniform_grid(0.0625, 32.0, 64)
    profile = np.exp(-((np.log(radial.nodes) - 0.347) ** 2) / (2 * 0.4**2))

    print("\ngrid transform: separable (FFT + Legendre) vs dense basis matmul")
    print(f"{'lmax':>5} {'analyze sep':>12} {'dense':>10} {'act_canonical sep':>18} {'dense':>10}")
    for lmax in (8, 16, 32):
        grid = build_quadrature(lmax)
        grid.basis(lmax)                        # cached dense basis, as the old route kept it
        a = random_coeffs(lmax, "full", rng)
        v = grid.synthesize(a.c)
        fs = separable_section(radial, profile, random_coeffs(lmax, "odd", rng))
        t_an = best_of(analyze, v, lmax, grid)
        t_an_dense = best_of(analyze_dense, v, lmax, grid)
        t_act = best_of(act_canonical, w, g, 1.1, fs, grid)
        t_act_dense = best_of(act_canonical_dense, w, g, 1.1, fs, grid)
        print(f"{lmax:>5} {t_an*1e3:>10.2f}ms {t_an_dense*1e3:>8.2f}ms "
              f"{t_act*1e3:>16.2f}ms {t_act_dense*1e3:>8.2f}ms")

    print("\nrotation: rotate_coeffs (coefficients) vs analyze(rotate_values) (resampling)")
    print(f"{'lmax':>5} {'coefficients':>14} {'resampling':>12}")
    for lmax in (8, 16, 32):
        grid = build_quadrature(lmax)
        a = random_coeffs(lmax, "full", rng)
        t_coef = best_of(rotate_coeffs, g, a, grid)
        t_res = best_of(lambda: analyze(rotate_values(g, a.c, grid.nodes), lmax, grid))
        print(f"{lmax:>5} {t_coef*1e3:>12.2f}ms {t_res*1e3:>10.2f}ms")

    print("\nWigner D^j: wigner_d (primitive) vs symmetrized power (oracle), per call")
    print(f"{'j':>5} {'primitive':>11} {'oracle':>11}")
    h = random_su2(rng)
    for j in (0.5, 1.0, 2.0, 4.0, 20.0):
        wigner_d(j, h)                          # fill the eigenvector cache
        t_prim = best_of(lambda: [wigner_d(j, h) for _ in range(100)]) / 100
        t_orac = best_of(lambda: [_symmetrized_power_d(j, h) for _ in range(10)]) / 10
        print(f"{j:>5} {t_prim*1e6:>9.1f}us {t_orac*1e6:>9.1f}us")
    print(f"\nstacks of {STACK_ROWS} rows against a per-call loop, time per row")
    print(f"{'':>26} {'stack':>9} {'loop':>9}")
    rows = su2_from_normals(rng.normal(size=(STACK_ROWS, 4)))    # STACK_ROWS random_su2 draws
    t_stack = best_of(wigner_d, 1.0, rows) / STACK_ROWS
    t_loop = best_of(lambda: [wigner_d(1.0, row) for row in rows]) / STACK_ROWS
    print(f"{'wigner_d(1, .)':>26} {t_stack*1e6:>7.2f}us {t_loop*1e6:>7.2f}us")
    frame = TransportFrame(1.0)
    pts = rng.normal(size=(STACK_ROWS, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[:, 2] = np.abs(pts[:, 2])                # the northern hemisphere: no south-pole row
    t_stack = best_of(frame.unitary, pts) / STACK_ROWS
    t_loop = best_of(lambda: [frame.unitary(r) for r in pts]) / STACK_ROWS
    print(f"{'TransportFrame(1).unitary':>26} {t_stack*1e6:>7.2f}us {t_loop*1e6:>7.2f}us")


if __name__ == "__main__":
    main()
