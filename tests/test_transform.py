"""The separable grid transform against the dense basis route it replaced.

``QuadratureGrid.synthesize`` / ``project`` (FFT over azimuth, Legendre
matmul per m) must agree with the dense Y_lm basis matmuls at the grid nodes,
and every caller (``act_canonical``, the module maps) with its former dense
body, kept here as the reference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rp2quant.bundles import module_iso_forward, module_iso_inverse, projector_residual
from rp2quant.groups import random_su2
from rp2quant.harmonics import (
    HarmonicCoeffs,
    analyze,
    evaluate,
    num_coeffs,
    off_sector_mask,
    random_coeffs,
    rotate_stack,
)
from rp2quant import manifold
from rp2quant.manifold import MAX_GRID_LMAX, build_quadrature
from rp2quant.representation import (
    _spectral_log_shift,
    act_canonical,
    log_uniform_grid,
    separable_section,
)
from test_representation import gaussian_profile, small_w

REL_TOL = 1e-13


def rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def zero_degrees(c, lmax, parity):
    """The old per-degree loop: zero every block of degree l ≡ parity (mod 2)."""
    c = np.array(c)
    for l in range(parity, lmax + 1, 2):
        c[..., l * l : (l + 1) * (l + 1)] = 0.0
    return c


class TestAgainstDenseBasis:
    @pytest.mark.parametrize("lmax_exact", range(1, MAX_GRID_LMAX + 1))
    def test_every_table_lmax_and_stack_shape(self, lmax_exact, rng):
        grid = build_quadrature(lmax_exact)
        # lower bands are leading rows of the transposed basis: contiguous slices
        rows = np.ascontiguousarray(grid.basis(lmax_exact).T)
        rows_conj = rows.conj()
        for lmax in range(lmax_exact + 1):
            k = num_coeffs(lmax)
            for lead in ((), (3,), (2, 3)):
                c = complex_normal(rng, lead + (k,))
                want = (c.reshape(-1, k) @ rows[:k]).reshape(lead + (grid.n,))
                assert grid.synthesize(c).shape == want.shape
                assert rel_gap(grid.synthesize(c), want) < REL_TOL
                v = complex_normal(rng, lead + (grid.n,))
                want = (rows_conj[:k] @ (v * grid.weights).reshape(-1, grid.n).T).T
                assert grid.project(v, lmax).shape == lead + (k,)
                assert rel_gap(grid.project(v, lmax), want.reshape(lead + (k,))) < REL_TOL

    def test_project_inverts_synthesize(self, grid8, rng):
        c = complex_normal(rng, (4, num_coeffs(8)))
        assert rel_gap(grid8.project(grid8.synthesize(c), 8), c) < REL_TOL

    def test_analyze_is_one_projection(self, grid8, rng):
        v = complex_normal(rng, grid8.n)
        want = grid8.basis(8).conj().T @ (grid8.weights * v)
        assert rel_gap(analyze(v, 8, grid8).c, want) < REL_TOL

    def test_ring_table_cached_and_read_only(self, rng, monkeypatch):
        monkeypatch.setattr(manifold, "_dense_basis", None)   # the transform never builds it
        grid = build_quadrature(5)
        grid.project(complex_normal(rng, grid.n), 4)
        monkeypatch.setattr(manifold, "ylm_basis", None)      # an equal grid reuses the table
        build_quadrature(5).synthesize(complex_normal(rng, num_coeffs(4)))
        assert not any(t.flags.writeable for t in manifold._ring_tables(5, 4))

    def test_lmax_beyond_grid_raises(self, grid8, rng):
        with pytest.raises(ValueError, match="cannot project"):
            grid8.synthesize(complex_normal(rng, num_coeffs(9)))
        with pytest.raises(ValueError, match="cannot project"):
            grid8.project(complex_normal(rng, grid8.n), 9)
        with pytest.raises(ValueError, match="cannot project"):
            analyze(complex_normal(rng, grid8.n), 9, grid8)

    def test_bad_shapes_raise(self, grid8, rng):
        with pytest.raises(ValueError):
            grid8.synthesize(complex_normal(rng, 10))
        with pytest.raises(ValueError):
            grid8.project(complex_normal(rng, grid8.n - 1), 8)

    def test_foreign_node_layout_rejected(self, grid8):
        # the grid is built from its order alone: a shuffled or short node
        # layout cannot be handed in, and the ring-major one cannot be swapped
        with pytest.raises(TypeError):
            type(grid8)(grid8.nodes[::-1].copy(), grid8.weights, 8)
        with pytest.raises(TypeError):
            type(grid8)(nodes=grid8.nodes[:-1], weights=grid8.weights[:-1], lmax_exact=8)
        with pytest.raises(AttributeError):
            grid8.nodes = grid8.nodes[::-1].copy()
        assert not grid8.nodes.flags.writeable and not grid8.weights.flags.writeable


class TestAntipode:
    @pytest.mark.parametrize("lmax_exact", range(1, MAX_GRID_LMAX + 1))
    def test_maps_nodes_to_their_antipodes(self, lmax_exact):
        grid = build_quadrature(lmax_exact)
        perm = grid.antipode
        assert np.array_equal(np.sort(perm), np.arange(grid.n))
        assert np.max(np.abs(grid.nodes[perm] + grid.nodes)) <= 1e-15
        assert np.array_equal(perm[perm], np.arange(grid.n))

    def test_cached_and_read_only(self):
        grid = build_quadrature(4)
        perm = grid.antipode
        assert grid.antipode is perm
        assert not perm.flags.writeable

    def test_foreign_node_layout_rejected(self, grid8):
        # no foreign layout reaches the antipode: the grid takes only its order
        with pytest.raises(TypeError):
            type(grid8)(grid8.nodes[::-1].copy(), grid8.weights, 8)
        with pytest.raises(AttributeError):
            grid8.nodes = grid8.nodes[::-1].copy()
        assert np.max(np.abs(grid8.nodes[grid8.antipode] + grid8.nodes)) <= 1e-15


def act_canonical_dense(w, g, lam, fs, grid):
    """The former body: dense basis synthesis and projection per radial stack."""
    m = fs.c
    if lam != 1.0:
        m = _spectral_log_shift(m, fs.radial, np.log(lam))
    basis = grid.basis(fs.lmax)
    phase = lam**1.5 * np.exp(-1j * np.outer(fs.radial.nodes, w(grid.nodes)))
    vals = (rotate_stack(g, m) @ basis.T) * phase * grid.weights
    out = (vals.conj() @ basis).conj()
    return np.where(off_sector_mask(fs.lmax, fs.sector), 0, out)


class TestActCanonical:
    @pytest.mark.parametrize("lmax", [8, 32])
    @pytest.mark.parametrize("sector", ["odd", "even", "full"])
    def test_matches_dense_body(self, lmax, sector, rng):
        grid = build_quadrature(lmax)
        radial = log_uniform_grid(0.0625, 32.0, 64)
        fs = separable_section(radial, gaussian_profile(radial), random_coeffs(lmax, sector, rng))
        for scale in (0.0025, 1.0):        # 1.0 puts real weight beyond the band
            w, g, lam = small_w(rng, scale), random_su2(rng), 1.1
            got = act_canonical(w, g, lam, fs, grid)
            assert got.sector == sector
            assert rel_gap(got.c, act_canonical_dense(w, g, lam, fs, grid)) < 1e-12


def forward_dense(a, grid):
    lout = a.lmax + 1 if a.lmax % 2 else a.lmax
    vals = np.asarray(evaluate(a, grid.nodes))
    basis = grid.basis(lout)
    c = ((grid.weights * vals)[:, None] * grid.nodes).T @ basis.conj()
    return zero_degrees(c, lout, 1)


def inverse_dense(f, grid):
    lout = f[0].lmax + 1
    vals = sum(np.asarray(evaluate(fi, grid.nodes)) * grid.nodes[:, i] for i, fi in enumerate(f))
    return zero_degrees(grid.basis(lout).conj().T @ (grid.weights * vals), lout, 0)


def even_triple(f):
    """A (3, n') triple as three even ``HarmonicCoeffs``, for the ``evaluate`` oracles."""
    lmax = int(np.sqrt(f.shape[-1])) - 1
    return [HarmonicCoeffs(lmax, "even", fi) for fi in f]


class TestModuleMaps:
    @pytest.mark.parametrize("lmax", [7, 8])
    def test_match_evaluate_route(self, lmax, grid9, rng):
        a = random_coeffs(lmax, "odd", rng)
        f = module_iso_forward(a.c, grid9)
        assert rel_gap(f, forward_dense(a, grid9)) < REL_TOL
        vals = np.stack([np.asarray(evaluate(fi, grid9.nodes)) for fi in even_triple(f)], axis=1)
        want = np.max(np.abs(grid9.nodes * np.sum(vals * grid9.nodes, axis=1)[:, None] - vals))
        assert abs(projector_residual(f, grid9) - want) < 1e-14
        assert rel_gap(module_iso_inverse(f, grid9), inverse_dense(even_triple(f), grid9)) < REL_TOL

    def test_parity_zeroing_matches_degree_loop(self, grid9, rng):
        # zeroed entries are exact zeros, as the per-degree loop left them
        f = module_iso_forward(random_coeffs(8, "odd", rng).c, grid9)
        for fi in f:
            assert np.array_equal(fi, zero_degrees(fi, 8, 1))


def test_residuals_do_not_depend_on_blas_threads():
    """Every residual of two suites is bit-identical under 1 and 2 BLAS threads."""
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    reports = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for suite in ("bundles", "representation"):
            out = subprocess.run(
                [sys.executable, "-m", "rp2quant", suite, "--lmax", "8", "--format", "json"],
                capture_output=True, text=True, env=env, check=True,
            ).stdout
            reports[threads, suite] = {c["name"]: c["residual"] for c in json.loads(out)["checks"]}
    for suite in ("bundles", "representation"):
        assert reports["1", suite] == reports["2", suite]
