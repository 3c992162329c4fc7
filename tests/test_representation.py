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
    rotate_values,
    unit,
)
from rp2quant.manifold import WFunctional
from rp2quant.representation import (
    RadialGrid,
    Section,
    _spectral_log_shift,
    act_U,
    act_canonical,
    canonical_product,
    check_group_law,
    check_intertwining,
    exchange_parity,
    full_section_from_matrix,
    generator_J,
    generator_vs_ladder_residual,
    load_full_section,
    log_uniform_grid,
    save_full_section,
    separable_section,
    su2_closure_residual,
)

W0 = WFunctional(np.zeros((3, 3)))


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


class TestSection:
    def test_sector_bundle_pairing(self, rng):
        Section(random_coeffs(6, "odd", rng), "minus")
        Section(random_coeffs(6, "even", rng), "plus")
        with pytest.raises(ValueError):
            Section(random_coeffs(6, "even", rng), "minus")
        with pytest.raises(ValueError):
            Section(random_coeffs(6, "odd", rng), "plus")


class TestActU:
    def test_identity(self, grid8, rng):
        s = Section(random_coeffs(8, "odd", rng), "minus")
        out = act_U(SU2_IDENTITY, s, grid8)
        assert np.max(np.abs(out.a.c - s.a.c)) < 1e-12

    def test_unitary(self, grid8, rng):
        s = Section(random_coeffs(8, "odd", rng), "minus")
        out = act_U(random_su2(rng), s, grid8)
        assert abs(out.a.norm() - s.a.norm()) < 1e-10

    def test_homomorphism(self, grid8, rng):
        for _ in range(10):
            s = Section(random_coeffs(8, "odd", rng), "minus")
            g1, g2 = random_su2(rng), random_su2(rng)
            seq = act_U(g1, act_U(g2, s, grid8), grid8)
            prod = act_U(g1 * g2, s, grid8)
            assert np.linalg.norm(seq.a.c - prod.a.c) < 1e-9


class TestGeneratorJ:
    def test_j3_kills_m0(self, grid8):
        s = Section(unit(8, 1, 0), "minus")
        out = generator_J(3, s, grid8)
        assert out.a.norm() < 1e-8

    def test_j3_eigenvalue_on_y11(self, grid8):
        s = Section(unit(8, 1, 1), "minus")
        out = generator_J(3, s, grid8)
        assert np.linalg.norm(out.a.c - s.a.c) < 1e-8

    def test_matches_exact_ladders(self, grid8, rng):
        for _ in range(5):
            sector = "odd" if rng.random() < 0.5 else "even"
            bundle = "minus" if sector == "odd" else "plus"
            s = Section(random_coeffs(8, sector, rng), bundle)
            for i in (1, 2, 3):
                assert generator_vs_ladder_residual(i, s, grid8) < 1e-8

    def test_step_validation(self, grid8, rng):
        s = Section(random_coeffs(8, "odd", rng), "minus")
        with pytest.raises(ValueError):
            generator_J(1, s, grid8, h_step=1.0)


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
    def test_su2_commutator(self, grid8, rng):
        s = Section(random_coeffs(8, "odd", rng), "minus")
        assert su2_closure_residual(s, grid8) < 1e-6


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
        s = Section(random_coeffs(8, "even", rng), "plus")
        assert exchange_parity(s, grid8) == 1

    def test_odd_sector(self, grid8, rng):
        s = Section(random_coeffs(8, "odd", rng), "minus")
        assert exchange_parity(s, grid8) == -1

    def test_survives_rotation(self, grid8, rng):
        for _ in range(20):
            s = Section(random_coeffs(8, "odd", rng), "minus")
            assert exchange_parity(act_U(random_su2(rng), s, grid8), grid8) == -1

    def test_statistics_check_runs_samples_iterations(self, grid8):
        """exchange-statistics draws cfg.samples sections, not a fixed count."""

        def reference(rng, lmax, iterations):
            worst = 0.0
            for _ in range(iterations):
                sector = "odd" if rng.random() < 0.5 else "even"
                s = Section(random_coeffs(lmax, sector, rng), "minus" if sector == "odd" else "plus")
                rotated = act_U(random_su2(rng), s, grid8)
                if exchange_parity(rotated, grid8) != (-1 if sector == "odd" else 1):
                    return 1.0
                raw = analyze(rotate_values(random_su2(rng), s.a, grid8.nodes), lmax, grid8)
                even, odd = parity_decompose(raw)
                worst = max(worst, (odd if sector == "even" else even).norm())
            return worst

        check = next(c for c in REGISTRY if c.name == "exchange-statistics")
        cfg = SuiteConfig(lmax=8, samples=3)
        rng_ref, rng_new = check_rng(5, check.name), check_rng(5, check.name)
        assert check.fn(rng_new, cfg) == reference(rng_ref, 8, 3)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        radial = log_uniform_grid(0.25, 4.0, 16)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        for l in (0, 2):
            m[:, l * l : (l + 1) * (l + 1)] = 0.0
        fs = full_section_from_matrix(radial, m, 3, "odd")
        path = tmp_path / "fs.txt"
        save_full_section(fs, path)
        back = load_full_section(path)
        assert back.sector == fs.sector and back.lmax == fs.lmax
        assert np.array_equal(back.matrix(), fs.matrix())
        assert np.array_equal(back.radial.nodes, fs.radial.nodes)
