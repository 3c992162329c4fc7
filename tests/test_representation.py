import importlib
import tracemalloc

import numpy as np
import pytest

from rp2quant import representation
from rp2quant._kernels import ylm_basis
from rp2quant.berry_robbins import fixed_basis_lift, total_generator_exact, total_generator_fd
from rp2quant.bundles import module_iso_forward, module_iso_inverse, projector_residual
from rp2quant.classical import w_matrix
from rp2quant.errors import RadialRangeError
from rp2quant.groups import random_su2, spinor_map, su2_from_axis_angle, su2_product
from rp2quant.checks import REGISTRY, SuiteConfig, check_rng
from rp2quant.harmonics import (
    HarmonicCoeffs,
    analyze,
    apply_L,
    parity_decompose,
    random_coeffs,
    rotate_coeffs,
    rotate_stack,
    rotate_values,
    unit,
)
from rp2quant.manifold import WFunctional, build_quadrature
from rp2quant.representation import (
    FullSection,
    RadialGrid,
    _log_uniform_nodes,
    _richardson,
    _spectral_log_shift,
    act_canonical,
    canonical_product,
    check_group_law,
    check_intertwining,
    exchange_parities,
    generator_J,
    generator_vs_ladder_residual,
    log_uniform_grid,
    separable_section,
    su2_closure_residual,
)
from tests.scalar_reference import richardson_offsets, su2_matrix

IDENTITY = np.array([1, 0], dtype=complex)   # the SU(2) identity row

W0 = WFunctional(np.zeros((3, 3)))


def exchange_statistics_loop(rng, lmax, samples, grid):
    """The per-sample body of exchange-statistics before it ran in chunks."""
    worst = 0.0
    for _ in range(samples):
        sector = "odd" if rng.random() < 0.5 else "even"
        a = random_coeffs(lmax, sector, rng)
        rotated = rotate_coeffs(random_su2(rng), a, grid)
        if exchange_parities(rotated.c, grid) != (-1 if sector == "odd" else 1):
            return 1.0
        raw = analyze(rotate_values(random_su2(rng), a.c, grid.nodes), lmax, grid)
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
        out = rotate_coeffs(IDENTITY, a, grid8)
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
            prod = rotate_coeffs(su2_product(g1, g2), a, grid8)
            assert np.linalg.norm(seq.c - prod.c) < 1e-9


class TestGeneratorJ:
    def test_j3_kills_m0(self):
        out = generator_J(3, unit(8, 1, 0).c)
        assert np.linalg.norm(out) < 1e-8

    def test_j3_eigenvalue_on_y11(self):
        a = unit(8, 1, 1)
        out = generator_J(3, a.c)
        assert np.linalg.norm(out - a.c) < 1e-8

    def test_matches_exact_ladders(self, rng):
        for _ in range(5):
            sector = "odd" if rng.random() < 0.5 else "even"
            a = random_coeffs(8, sector, rng)
            for i in (1, 2, 3):
                assert generator_vs_ladder_residual(i, a.c) < 1e-8


def per_offset_generator(i, c):
    """J_i of one table as it was differentiated before: one rotation per offset."""
    axis = np.eye(3)[i - 1]
    return 1j * _richardson([rotate_stack(su2_from_axis_angle(t, axis), c)
                             for t in richardson_offsets()])


class TestFDStep:
    """FD_STEP alone sets the offsets, the elements and the divisor of every FD generator."""

    @pytest.mark.parametrize("h", [5e-4, 2.5e-4])
    def test_patching_fd_step_moves_every_generator(self, h, grid9, monkeypatch):
        a = random_coeffs(8, "odd", np.random.default_rng(0)).c
        before = [generator_J(i, a).tobytes() for i in (1, 2, 3)]
        with monkeypatch.context() as m:
            m.setattr(representation, "FD_STEP", h)
            for i in (1, 2, 3):
                assert generator_J(i, a).tobytes() == per_offset_generator(i, a).tobytes()
                assert generator_vs_ladder_residual(i, a) <= 1e-10
            assert np.max(check_intertwining(a, grid9)) <= 1e-10
        assert [generator_J(i, a).tobytes() for i in (1, 2, 3)] == before


class TestStackedGenerators:
    """Stacked generators and residuals against one table at a time, bit for bit."""

    @pytest.mark.parametrize("lmax", [1, 2, 8])
    def test_generator_stack_equals_single_tables(self, lmax, rng):
        tables = [random_coeffs(lmax, s, rng) for s in ("odd", "even", "full", "odd")]
        stack = np.stack([a.c for a in tables]).reshape(2, 2, -1)
        for i in (1, 2, 3):
            out = generator_J(i, stack).reshape(4, -1)
            for row, a in zip(out, tables):
                assert row.tobytes() == generator_J(i, a.c).tobytes()
                assert row.tobytes() == per_offset_generator(i, a.c).tobytes()

    @pytest.mark.parametrize("lmax", [1, 2, 8])
    def test_residual_stacks_equal_single_tables(self, lmax, grid9, rng):
        grid = grid9 if lmax == 8 else build_quadrature(lmax + 1 + lmax % 2)
        odd = [random_coeffs(lmax, "odd", rng) for _ in range(3)]
        mixed = odd[:2] + [random_coeffs(lmax, "even", rng)]
        for i in (1, 2, 3):
            got = generator_vs_ladder_residual(i, np.stack([a.c for a in mixed]))
            assert got.tolist() == [generator_vs_ladder_residual(i, a.c) for a in mixed]
        got = check_intertwining(np.stack([a.c for a in odd]), grid)      # (axis, table)
        assert got.tobytes() == np.stack([check_intertwining(a.c, grid) for a in odd], 1).tobytes()
        got = su2_closure_residual(np.stack([a.c for a in odd]))
        assert got.tolist() == [su2_closure_residual(a.c) for a in odd]

    def test_one_residual_per_table(self, grid9, rng):
        c = np.stack([random_coeffs(8, "odd", rng).c for _ in range(2)])
        for residual in (lambda t: generator_vs_ladder_residual(1, t),
                         lambda t: check_intertwining(t, grid9)[1], su2_closure_residual):
            single, stack = residual(c[0]), residual(c)
            assert (single.shape, single.dtype) == ((), np.float64)
            assert (stack.shape, stack.dtype) == ((2,), np.float64)

    def test_intertwining_rejects_even_table(self, grid9, rng):
        with pytest.raises(ValueError):
            check_intertwining(random_coeffs(8, "even", rng).c, grid9)


class TestIntertwining:
    def test_y10_with_j3(self, grid9):
        assert check_intertwining(unit(8, 1, 0).c, grid9)[2] < 1e-10

    def test_y11_with_j3(self, grid9):
        assert check_intertwining(unit(8, 1, 1).c, grid9)[2] < 1e-8

    def test_random_sections_all_components(self, grid9, rng):
        for _ in range(3):
            a = random_coeffs(8, "odd", rng)
            residuals = check_intertwining(a.c, grid9)
            assert residuals.shape == (3,) and np.max(residuals) < 1e-7


class TestClosure:
    def test_su2_commutator(self, rng):
        assert su2_closure_residual(random_coeffs(8, "odd", rng).c) < 1e-6


class TestRadialGrid:
    # (rmin, rmax, n) of the grids the harness (every radial_nodes from the
    # floor up), the benchmarks and these tests build
    BUILT = [(0.0625, 32.0, n) for n in (24, 25, 63, 64, 65, 128, 257)] + [(0.02, 100.0, 256)]

    def test_nodes_are_the_log_uniform_formula(self):
        for rmin, rmax, n in self.BUILT:
            radial = log_uniform_grid(rmin, rmax, n)
            want = np.exp(np.linspace(np.log(rmin), np.log(rmax), n))
            assert radial.nodes.dtype == want.dtype and radial.nodes.tobytes() == want.tobytes()
            assert not radial.nodes.flags.writeable
            assert RadialGrid(float(rmin), float(rmax), np.int64(n)).nodes is radial.nodes

    def test_equal_parameters_are_one_value(self):
        radial = radial64()
        again = RadialGrid(0.0625, 32.0, 64)
        assert again is not radial and again == radial and hash(again) == hash(radial)
        assert len({radial, again, RadialGrid(0.0625, 32.0, 65), RadialGrid(0.0625, 16.0, 64)}) == 3
        assert type(again.n) is int and again.n == again.nodes.size

    def test_node_cache_is_bounded(self):
        # a sweep of node counts keeps only the last few arrays; an evicted
        # grid's nodes are rebuilt byte for byte
        first = log_uniform_grid(0.0625, 32.0, 8).nodes.tobytes()
        for n in range(8, 64):
            log_uniform_grid(0.0625, 32.0, n).nodes
        info = _log_uniform_nodes.cache_info()
        assert info.maxsize == 8 and info.currsize <= 8
        assert log_uniform_grid(0.0625, 32.0, 8).nodes.tobytes() == first
        for rmin, rmax, n in self.BUILT:
            want = np.exp(np.linspace(np.log(rmin), np.log(rmax), n))
            assert RadialGrid(rmin, rmax, n).nodes.tobytes() == want.tobytes()

    def test_positivity(self):
        for rmin in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                RadialGrid(rmin, 2.0, 16)

    def test_window_and_node_floor(self):
        for rmin, rmax, n in ((2.0, 2.0, 16), (2.0, 1.0, 16), (1.0, 2.0, 7), (1.0, 2.0, 0)):
            with pytest.raises(ValueError):
                RadialGrid(rmin, rmax, n)
        with pytest.raises(TypeError):
            RadialGrid(1.0, 2.0, 16.0)
        with pytest.raises(TypeError):
            RadialGrid(np.exp(np.linspace(-1, 1, 16)))

    def test_weights_integrate_r2dr(self):
        radial = log_uniform_grid(0.02, 100.0, 256)
        # log-normal profile: ∫ r² e^{-(ln r)²/(2σ²)} dr = σ√(2π) e^{9σ²/2}
        sig = 0.5
        vals = np.exp(-np.log(radial.nodes) ** 2 / (2 * sig**2))
        want = sig * np.sqrt(2 * np.pi) * np.exp(9 * sig**2 / 2)
        assert abs(np.sum(radial.weights_r2dr() * vals) - want) < 1e-10 * want


class TestFullSection:
    def test_holds_one_read_only_matrix(self, rng):
        radial = radial64()
        a = random_coeffs(8, "odd", rng)
        m = gaussian_profile(radial)[:, None] * a.c[None, :]
        fs = FullSection(radial, 8, "odd", m)
        assert (fs.lmax, fs.sector, fs.c.shape) == (8, "odd", (64, 81))
        assert fs.c.tobytes() == m.tobytes()
        m[0, 1] = 5.0                      # the section keeps its own copy
        assert fs.c[0, 1] != 5.0
        with pytest.raises(ValueError):
            fs.c[0, 1] = 0.0
        assert fs.c.tobytes() == separable_section(radial, gaussian_profile(radial), a).c.tobytes()

    def test_rejects_off_sector_matrix(self, rng):
        radial = radial64()
        m = np.zeros((64, 81), dtype=complex)
        m[:, 1] = 1.0                          # degree 1
        FullSection(radial, 8, "odd", m)
        m[10, 0] = 1e-13                       # degree 0 content in an odd section
        with pytest.raises(ValueError, match="sector 'odd' violated by 1.000e-13"):
            FullSection(radial, 8, "odd", m)
        with pytest.raises(ValueError, match="sector 'even' violated"):
            FullSection(radial, 8, "even", m)
        m[10, 0] = 1e-15                       # within SECTOR_PURITY_TOL, as per table
        FullSection(radial, 8, "odd", m)

    def test_rejects_non_finite_entry(self):
        m = np.zeros((64, 81), dtype=complex)
        m[:, 1] = 1.0
        m[10, 1] = np.nan                      # degree 1: in the odd sector
        with pytest.raises(ValueError, match="finite"):
            FullSection(radial64(), 8, "odd", m)

    def test_rejects_bad_shapes_and_sector(self):
        radial = radial64()
        with pytest.raises(ValueError):
            FullSection(radial, 8, "odd", np.zeros((63, 81)))
        with pytest.raises(ValueError):
            FullSection(radial, 8, "odd", np.zeros((64, 80)))
        with pytest.raises(ValueError):
            FullSection(radial, 8, "odd", np.zeros(81))
        with pytest.raises(ValueError):
            FullSection(radial, 8, "neither", np.zeros((64, 81)))


def act_canonical_per_node(w, g, lam, fs, grid):
    """Reference: resample at the pulled-back nodes, one radial node at a time."""
    m = fs.c
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
            got = act_canonical(w, g, lam, fs, grid8).c
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    def test_identity_element(self, grid8, rng):
        fs = separable_section(radial64(), gaussian_profile(radial64()), low_degree_odd(rng))
        out = act_canonical(W0, IDENTITY, 1.0, fs, grid8)
        assert np.max(np.abs(out.c - fs.c)) < 1e-12

    def test_pure_phase_preserves_pointwise_magnitude(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        w = small_w(rng)
        out = act_canonical(w, IDENTITY, 1.0, fs, grid8)
        basis = grid8.basis(8)
        for k in (10, 32, 50):
            before = np.abs(basis @ fs.c[k])
            after = np.abs(basis @ out.c[k])
            # limited only by re-projection of the phase tail beyond lmax
            assert np.max(np.abs(after - before)) < 1e-8

    def test_dilation_norm_preserved(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        out = act_canonical(W0, IDENTITY, 2.0, fs, grid8)
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
            act_canonical(W0, IDENTITY, 1.5, fs, grid8)


class TestGroupLaw:
    def test_identity_pair(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        ident = (W0, IDENTITY, 1.0)
        assert check_group_law(ident, ident, fs, grid8) < 1e-12

    def test_commuting_phases_add(self, grid8, rng):
        radial = radial64()
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        e1 = (small_w(rng, scale=0.0015), IDENTITY, 1.0)
        e2 = (small_w(rng, scale=0.0015), IDENTITY, 1.0)
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
        assert np.max(np.abs(su2_matrix(g) - su2_matrix(e1[1]) @ su2_matrix(e2[1]))) < 1e-14
        from rp2quant.groups import spinor_map

        r1 = spinor_map(e1[1])
        want_c = e1[0].c + e1[2] * (r1 @ e2[0].c @ r1.T)
        assert np.max(np.abs(w.c - want_c)) < 1e-14


class TestExchangeParity:
    def test_even_sector(self, grid8, rng):
        assert exchange_parities(random_coeffs(8, "even", rng).c, grid8) == 1

    def test_odd_sector(self, grid8, rng):
        assert exchange_parities(random_coeffs(8, "odd", rng).c, grid8) == -1

    def test_survives_rotation(self, grid8, rng):
        for _ in range(20):
            a = random_coeffs(8, "odd", rng)
            assert exchange_parities(rotate_coeffs(random_su2(rng), a, grid8).c, grid8) == -1

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
                assert exchange_parities(section.c, grid8) == dense_exchange_parity(section, grid8)

    def test_mixed_section_raises(self, grid8, rng):
        full = random_coeffs(8, "full", rng)
        with pytest.raises(ValueError, match="not an exchange eigenstate"):
            dense_exchange_parity(full, grid8)
        assert exchange_parities(full.c, grid8) == 0
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

        drawn = [0]
        tables_from_normals = checks._tables_from_normals

        def faulty_tables(normals, lmax, off):
            # samples drawn so far, then this chunk's: flip a sector (the other
            # sector's off mask is the complement), or keep the off-sector draws
            # of a table (neither parity)
            first, drawn[0] = drawn[0], drawn[0] + len(normals)
            kinds = [faults.get(first + k) for k in range(len(normals))]
            flip = np.array([kind == "flip" for kind in kinds])
            tables = tables_from_normals(normals, lmax, off != flip[:, None])
            size = (lmax + 1) ** 2
            for k, kind in enumerate(kinds):
                if kind == "full":
                    c = normals[k, :size] + 1j * normals[k, size:2 * size]
                    tables[k] = c / np.linalg.norm(c)
            return tables

        monkeypatch.setattr(checks, "_tables_from_normals", faulty_tables)
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


# stack-only name -> a call handing it the tagged table (module maps and fields:
# the tuple of tables they took before)
STACK_ONLY = {
    "harmonics.apply_L": lambda a, grid: apply_L(1, a),
    "representation.generator_J": lambda a, grid: generator_J(1, a),
    "representation.generator_vs_ladder_residual":
        lambda a, grid: generator_vs_ladder_residual(1, a),
    "representation.check_intertwining": lambda a, grid: check_intertwining(a, grid),
    "representation.su2_closure_residual": lambda a, grid: su2_closure_residual(a),
    "bundles.module_iso_forward": lambda a, grid: module_iso_forward(a, grid),
    "bundles.module_iso_inverse": lambda a, grid: module_iso_inverse((a, a, a), grid),
    "bundles.projector_residual": lambda a, grid: projector_residual((a, a, a), grid),
    "berry_robbins.fixed_basis_lift": lambda a, grid: fixed_basis_lift(IDENTITY, 0.5, (a, a)),
    "berry_robbins.total_generator_fd": lambda a, grid: total_generator_fd(1, 0.5, (a, a)),
    "berry_robbins.total_generator_exact": lambda a, grid: total_generator_exact(1, 0.5, (a, a)),
}


@pytest.mark.parametrize("name", sorted(STACK_ONLY))
def test_stack_only_names_refuse_tagged_tables(name, grid9):
    # HarmonicCoeffs stays at the public edge; below it a table is a stack
    with pytest.raises(TypeError):
        STACK_ONLY[name](unit(8, 1, 0), grid9)
    for module, gone in (("berry_robbins", "SpinorField"), ("representation", "exchange_parity"),
                         ("harmonics", "project_sector")):
        assert not hasattr(importlib.import_module(f"rp2quant.{module}"), gone)
