import tracemalloc

import numpy as np
import pytest

from rp2quant._kernels import ylm_basis
from rp2quant.classical import w_matrix
from rp2quant.errors import RadialRangeError
from rp2quant.groups import SU2_IDENTITY, random_su2, spinor_map
from rp2quant.checks import REGISTRY, SuiteConfig, check_rng
from rp2quant.harmonics import (
    HarmonicCoeffs,
    analyze,
    parity_decompose,
    random_coeffs,
    rotate_coeffs,
    rotate_values,
    unit,
)
from rp2quant.manifold import WFunctional, build_quadrature
from rp2quant.representation import (
    RadialGrid,
    _spectral_log_shift,
    act_canonical,
    canonical_product,
    check_group_law,
    check_intertwining,
    exchange_parities,
    exchange_parity,
    generator_J,
    generator_vs_ladder_residual,
    log_uniform_grid,
    separable_section,
    su2_closure_residual,
)

W0 = WFunctional(np.zeros((3, 3)))


def exchange_statistics_loop(rng, lmax, samples, grid):
    """The per-sample body of exchange-statistics before it ran in chunks."""
    worst = 0.0
    for _ in range(samples):
        sector = "odd" if rng.random() < 0.5 else "even"
        a = random_coeffs(lmax, sector, rng)
        rotated = rotate_coeffs(random_su2(rng), a, grid)
        if exchange_parity(rotated, grid) != (-1 if sector == "odd" else 1):
            return 1.0
        raw = analyze(rotate_values(random_su2(rng), a, grid.nodes), lmax, grid)
        even, odd = parity_decompose(raw)
        worst = max(worst, (odd if sector == "even" else even).norm())
    return worst


def dense_exchange_parity(a, grid):
    """Exchange parity from dense bases at the nodes and at their negatives."""
    vals = grid.basis(a.lmax) @ a.c
    anti = ylm_basis(-grid.nodes, a.lmax) @ a.c
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if np.max(np.abs(vals - anti)) <= 1e-10 * scale:
        return 1
    if np.max(np.abs(vals + anti)) <= 1e-10 * scale:
        return -1
    raise ValueError("section is not an exchange eigenstate")


def radial64():
    return log_uniform_grid(0.0625, 32.0, 64)


def gaussian_profile(radial, center=0.347, width=0.4):
    u = np.log(radial.nodes)
    return np.exp(-((u - center) ** 2) / (2 * width**2))


def low_degree_odd(rng, lmax=8, cut=25):
    c = np.array(random_coeffs(lmax, "odd", rng).c)
    c[cut:] = 0.0
    c /= np.linalg.norm(c)
    return HarmonicCoeffs(lmax, "odd", c)


def small_w(rng, scale=0.0025):
    c = w_matrix(rng.normal(size=5))
    c *= scale / np.linalg.norm(c)
    return WFunctional(c, rng.normal() * 0.05)


def random_canonical_element(rng):
    return (small_w(rng), random_su2(rng), float(np.exp(rng.uniform(-0.13, 0.13))))


class TestActU:
    """The induced action U(g) on sections, which is ``rotate_coeffs``."""

    def test_identity(self, grid8, rng):
        a = random_coeffs(8, "odd", rng)
        out = rotate_coeffs(SU2_IDENTITY, a, grid8)
        assert np.max(np.abs(out.c - a.c)) < 1e-12

    def test_unitary(self, grid8, rng):
        a = random_coeffs(8, "odd", rng)
        out = rotate_coeffs(random_su2(rng), a, grid8)
        assert abs(out.norm() - a.norm()) < 1e-10

    def test_homomorphism(self, grid8, rng):
        for _ in range(10):
            a = random_coeffs(8, "odd", rng)
            g1, g2 = random_su2(rng), random_su2(rng)
            seq = rotate_coeffs(g1, rotate_coeffs(g2, a, grid8), grid8)
            prod = rotate_coeffs(g1 * g2, a, grid8)
            assert np.linalg.norm(seq.c - prod.c) < 1e-9


class TestGeneratorJ:
    def test_j3_kills_m0(self):
        out = generator_J(3, unit(8, 1, 0))
        assert out.norm() < 1e-8

    def test_j3_eigenvalue_on_y11(self):
        a = unit(8, 1, 1)
        out = generator_J(3, a)
        assert np.linalg.norm(out.c - a.c) < 1e-8

    def test_matches_exact_ladders(self, rng):
        for _ in range(5):
            sector = "odd" if rng.random() < 0.5 else "even"
            a = random_coeffs(8, sector, rng)
            for i in (1, 2, 3):
                assert generator_vs_ladder_residual(i, a) < 1e-8


class TestIntertwining:
    def test_y10_with_j3(self, grid9):
        assert check_intertwining(3, unit(8, 1, 0), grid9) < 1e-10

    def test_y11_with_j3(self, grid9):
        assert check_intertwining(3, unit(8, 1, 1), grid9) < 1e-8

    def test_random_sections_all_components(self, grid9, rng):
        for _ in range(3):
            a = random_coeffs(8, "odd", rng)
            for i in (1, 2, 3):
                assert check_intertwining(i, a, grid9) < 1e-7


class TestClosure:
    def test_su2_commutator(self, rng):
        assert su2_closure_residual(random_coeffs(8, "odd", rng)) < 1e-6


class TestRadialGrid:
    def test_log_uniform_required(self):
        with pytest.raises(ValueError):
            RadialGrid(np.linspace(1.0, 2.0, 16))

    def test_positivity(self):
        with pytest.raises(ValueError):
            RadialGrid(np.exp(np.linspace(-1, 1, 16)) - 1.5)

    def test_weights_integrate_r2dr(self):
        radial = log_uniform_grid(0.02, 100.0, 256)
        # log-normal profile: ∫ r² e^{-(ln r)²/(2σ²)} dr = σ√(2π) e^{9σ²/2}
        sig = 0.5
        vals = np.exp(-np.log(radial.nodes) ** 2 / (2 * sig**2))
        want = sig * np.sqrt(2 * np.pi) * np.exp(9 * sig**2 / 2)
        assert abs(np.sum(radial.weights_r2dr() * vals) - want) < 1e-10 * want


def act_canonical_per_node(w, g, lam, fs, grid):
    """Reference: resample at the pulled-back nodes, one radial node at a time."""
    m = fs.matrix()
    if lam != 1.0:
        m = _spectral_log_shift(m, fs.radial, np.log(lam))
    w_nodes = np.array([w(x) for x in grid.nodes])
    rot_basis = ylm_basis(grid.nodes @ spinor_map(g), fs.lmax)
    proj = (grid.basis(fs.lmax).conj() * grid.weights[:, None]).T
    out = np.empty_like(m)
    for k, r_k in enumerate(fs.radial.nodes):
        out[k] = proj @ (lam**1.5 * np.exp(-1j * r_k * w_nodes) * (rot_basis @ m[k]))
    return out


class TestActCanonical:
    def test_matches_per_node_resampling_loop(self, grid8, rng):
        radial = radial64()
        a = random_coeffs(8, "full", rng)
        fs = separable_section(radial, gaussian_profile(radial), a)
        for scale in (0.0025, 1.0):        # 1.0 puts real weight beyond the band
            w, g, lam = small_w(rng, scale), random_su2(rng), 1.1
            want = act_canonical_per_node(w, g, lam, fs, grid8)
            got = act_canonical(w, g, lam, fs, grid8).matrix()
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    def test_identity_element(self, grid8, rng):
        fs = separable_section(radial64(), gaussian_profile(radial64()), low_degree_odd(rng))
        out = act_canonical(W0, SU2_IDENTITY, 1.0, fs, grid8)
        assert np.max(np.abs(out.matrix() - fs.matrix())) < 1e-12

    def test_pure_phase_preserves_pointwise_magnitude(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        w = small_w(rng)
        out = act_canonical(w, SU2_IDENTITY, 1.0, fs, grid8)
        basis = grid8.basis(8)
        for k in (10, 32, 50):
            before = np.abs(basis @ fs.matrix()[k])
            after = np.abs(basis @ out.matrix()[k])
            # limited only by re-projection of the phase tail beyond lmax
            assert np.max(np.abs(after - before)) < 1e-8

    def test_dilation_norm_preserved(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        out = act_canonical(W0, SU2_IDENTITY, 2.0, fs, grid8)
        assert abs(out.norm() - fs.norm()) / fs.norm() < 1e-6

    def test_unitarity_generic_elements(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        for _ in range(5):
            out = act_canonical(*random_canonical_element(rng), fs, grid8)
            assert abs(out.norm() - fs.norm()) / fs.norm() < 1e-6

    def test_sector_preserved(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        out = act_canonical(*random_canonical_element(rng), fs, grid8)
        assert out.sector == "odd"

    def test_radial_range_guard(self, grid8, rng):
        radial = radial64()
        profile = gaussian_profile(radial, width=1.2)   # fat tails hit the ends
        fs = separable_section(radial, profile, low_degree_odd(rng))
        with pytest.raises(RadialRangeError):
            act_canonical(W0, SU2_IDENTITY, 1.5, fs, grid8)


class TestGroupLaw:
    def test_identity_pair(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        ident = (W0, SU2_IDENTITY, 1.0)
        assert check_group_law(ident, ident, fs, grid8) < 1e-12

    def test_commuting_phases_add(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        e1 = (small_w(rng, scale=0.0015), SU2_IDENTITY, 1.0)
        e2 = (small_w(rng, scale=0.0015), SU2_IDENTITY, 1.0)
        assert check_group_law(e1, e2, fs, grid8) < 1e-12

    def test_generic_pairs(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        for _ in range(5):
            e1, e2 = random_canonical_element(rng), random_canonical_element(rng)
            assert check_group_law(e1, e2, fs, grid8) < 1e-6

    def test_product_structure(self, rng):
        e1, e2 = random_canonical_element(rng), random_canonical_element(rng)
        w, g, lam = canonical_product(e1, e2)
        assert abs(lam - e1[2] * e2[2]) < 1e-15
        assert np.max(np.abs(g.matrix() - (e1[1] * e2[1]).matrix())) < 1e-14
        from rp2quant.groups import spinor_map

        r1 = spinor_map(e1[1])
        want_c = e1[0].c + e1[2] * (r1 @ e2[0].c @ r1.T)
        assert np.max(np.abs(w.c - want_c)) < 1e-14


class TestExchangeParity:
    def test_even_sector(self, grid8, rng):
        assert exchange_parity(random_coeffs(8, "even", rng), grid8) == 1

    def test_odd_sector(self, grid8, rng):
        assert exchange_parity(random_coeffs(8, "odd", rng), grid8) == -1

    def test_survives_rotation(self, grid8, rng):
        for _ in range(20):
            a = random_coeffs(8, "odd", rng)
            assert exchange_parity(rotate_coeffs(random_su2(rng), a, grid8), grid8) == -1

    def test_statistics_check_runs_samples_iterations(self, grid8):
        """exchange-statistics draws cfg.samples sections, not a fixed count."""
        check = next(c for c in REGISTRY if c.name == "exchange-statistics")
        cfg = SuiteConfig(lmax=8, samples=3)
        rng_ref, rng_new = check_rng(5, check.name), check_rng(5, check.name)
        assert check.fn(rng_new, cfg) == exchange_statistics_loop(rng_ref, 8, 3, grid8)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_matches_dense_basis_oracle(self, grid8, rng, sector):
        for _ in range(5):
            a = random_coeffs(8, sector, rng)
            for section in (a, rotate_coeffs(random_su2(rng), a, grid8)):
                assert exchange_parity(section, grid8) == dense_exchange_parity(section, grid8)

    def test_mixed_section_raises(self, grid8, rng):
        full = random_coeffs(8, "full", rng)
        with pytest.raises(ValueError, match="not an exchange eigenstate"):
            dense_exchange_parity(full, grid8)
        with pytest.raises(ValueError, match="not an exchange eigenstate"):
            exchange_parity(full, grid8)
        even, odd = parity_decompose(full)
        stack = np.stack([even.c, odd.c, full.c])
        assert exchange_parities(stack, grid8).tolist() == [1, -1, 0]

    @pytest.mark.parametrize("samples", [1, 3, 200])
    def test_batched_statistics_equal_reference_loop(self, grid8, samples):
        check = next(c for c in REGISTRY if c.name == "exchange-statistics")
        cfg = SuiteConfig(lmax=8, samples=samples)
        rng_ref, rng_new = check_rng(11, check.name), check_rng(11, check.name)
        assert check.fn(rng_new, cfg) == exchange_statistics_loop(rng_ref, 8, samples, grid8)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_batched_statistics_at_lmax16_agree_to_rounding(self):
        # several chunks, and a projection stack whose matmul may round differently
        check = next(c for c in REGISTRY if c.name == "exchange-statistics")
        cfg = SuiteConfig(lmax=16, samples=40)
        rng_ref, rng_new = check_rng(2, check.name), check_rng(2, check.name)
        want = exchange_statistics_loop(rng_ref, 16, 40, build_quadrature(16))
        assert abs(check.fn(rng_new, cfg) - want) <= 64 * np.finfo(float).eps
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize(
        "faults, outcome",
        [({120: "flip"}, 1.0), ({120: "full"}, ValueError),
         ({5: "flip", 9: "full"}, 1.0), ({5: "full", 9: "flip"}, ValueError)],
    )
    def test_first_failing_sample_decides(self, monkeypatch, faults, outcome):
        """A flipped sector returns 1.0, a non-eigenstate raises, in sample order."""
        from rp2quant import checks

        drawn = []

        def faulty_coeffs(lmax, sector, rng):
            fault = faults.get(len(drawn))
            drawn.append(sector)
            if fault == "flip":
                return random_coeffs(lmax, "even" if sector == "odd" else "odd", rng)
            return random_coeffs(lmax, "full" if fault else sector, rng)

        monkeypatch.setattr(checks, "random_coeffs", faulty_coeffs)
        check = next(c for c in REGISTRY if c.name == "exchange-statistics")
        cfg = SuiteConfig(lmax=8)
        if outcome is ValueError:
            with pytest.raises(ValueError, match="not an exchange eigenstate"):
                check.fn(check_rng(0, check.name), cfg)
        else:
            assert check.fn(check_rng(0, check.name), cfg) == outcome

    def test_statistics_memory_is_chunked(self):
        check = next(c for c in REGISTRY if c.name == "exchange-statistics")
        cfg = SuiteConfig(lmax=16)
        check.fn(check_rng(1, check.name), cfg)          # grid and ring tables cached
        tracemalloc.start()
        try:
            check.fn(check_rng(0, check.name), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1024 * 1024, peak
