import numpy as np
import pytest
from scipy.special import sph_harm_y

from rp2quant.checks import _symmetrized_power_d
from rp2quant.groups import SU2Element, random_su2, su2_from_axis_angle, su2_product
from rp2quant.harmonics import (
    HarmonicCoeffs,
    _tables_from_normals,
    analyze,
    apply_L,
    angular_momentum_matrices,
    coeff_index,
    evaluate,
    num_coeffs,
    off_sector_mask,
    parity_decompose,
    random_coeffs,
    rotate_coeffs,
    rotate_stack,
    rotate_values,
    unit,
    wigner_d,
    zeros,
)
from rp2quant.manifold import build_quadrature
from tests.scalar_reference import as_row, su2_matrix

IDENTITY = np.array([1, 0], dtype=complex)   # the SU(2) identity row


class TestBasisAgainstScipy:
    def test_matches_reference_harmonics(self, rng):
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        theta = np.arccos(pts[:, 2])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        for l in range(7):
            for m in range(-l, l + 1):
                a = unit(6, l, m)
                mine = np.asarray(evaluate(a, pts))
                ref = sph_harm_y(l, m, theta, phi)
                assert np.max(np.abs(mine - ref)) < 1e-13


class TestEvaluate:
    def test_constant_mode(self, rng):
        a = unit(4, 0, 0)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert abs(evaluate(a, x) - 1.0 / np.sqrt(4 * np.pi)) < 1e-15

    def test_y10_at_pole(self):
        a = unit(4, 1, 0)
        assert abs(evaluate(a, [0.0, 0.0, 1.0]) - np.sqrt(3 / (4 * np.pi))) < 1e-15

    def test_zero_table(self, rng):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert evaluate(zeros(5), x) == 0.0


class TestAnalyze:
    def test_constant_function(self, grid8):
        c = analyze(np.ones(grid8.n, dtype=complex), 8, grid8)
        assert abs(c.get(0, 0) - np.sqrt(4 * np.pi)) < 1e-12
        rest = np.array(c.c)
        rest[0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_coordinate_function(self, grid8):
        c = analyze(grid8.nodes[:, 2].astype(complex), 8, grid8)
        assert abs(c.get(1, 0) - np.sqrt(4 * np.pi / 3)) < 1e-12

    def test_roundtrip(self, grid8, rng):
        a = random_coeffs(8, "full", rng)
        back = analyze(np.asarray(evaluate(a, grid8.nodes)), 8, grid8)
        assert np.linalg.norm(back.c - a.c) / a.norm() < 1e-10

    def test_insufficient_grid(self, grid8):
        with pytest.raises(ValueError):
            analyze(np.ones(grid8.n, dtype=complex), 9, grid8)


class TestSectors:
    def test_constructor_enforces_purity(self):
        c = np.zeros(num_coeffs(3), dtype=complex)
        c[coeff_index(2, 1)] = 1e-10
        with pytest.raises(ValueError):
            HarmonicCoeffs(3, "odd", c)

    def test_nan_off_sector_rejected(self):
        c = np.zeros(num_coeffs(3), dtype=complex)
        c[1] = np.nan                               # degree 1: off the even sector
        with pytest.raises(ValueError, match="violated by nan"):
            HarmonicCoeffs(3, "even", c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("sector", ["odd", "full"])
    def test_non_finite_in_sector_rejected(self, bad, sector):
        c = np.zeros(num_coeffs(8), dtype=complex)
        c[1] = bad                                  # degree 1: in the odd sector
        with pytest.raises(ValueError, match="finite"):
            HarmonicCoeffs(8, sector, c)

    @pytest.mark.parametrize("sector", ["even", "odd", "full"])
    def test_stacked_draw_equals_single_draws(self, sector):
        # one (n, 2·(lmax+1)²) block of normals gives the n tables that n
        # random_coeffs calls draw, bit for bit
        for lmax in (1, 2, 8, 24):
            off = off_sector_mask(lmax, sector)
            rng_single, rng_stack = np.random.default_rng(lmax), np.random.default_rng(lmax)
            singles = np.stack([random_coeffs(lmax, sector, rng_single).c for _ in range(4)])
            normals = rng_stack.normal(size=(4, 2 * num_coeffs(lmax)))
            stack = _tables_from_normals(normals, lmax, off)
            assert stack.tobytes() == singles.tobytes()
            assert not np.any(stack[:, off])
            assert np.allclose(np.linalg.norm(stack, axis=1), 1.0, rtol=0, atol=1e-15)
        # a row with nothing in its sector stays zero
        assert not np.any(_tables_from_normals(np.ones(8), 1, np.ones(4, dtype=bool)))

    def test_parity_decompose_splits_and_sums(self, rng):
        a = random_coeffs(6, "full", rng)
        even, odd = parity_decompose(a)
        assert np.array_equal(even.c + odd.c, a.c)
        assert even.sector == "even" and odd.sector == "odd"

    def test_pure_inputs(self):
        even, odd = parity_decompose(
            HarmonicCoeffs(4, "full", unit(4, 2, 1).c)
        )
        assert np.array_equal(even.c, unit(4, 2, 1).c) and odd.norm() == 0.0
        even, odd = parity_decompose(
            HarmonicCoeffs(4, "full", unit(4, 1, 0).c)
        )
        assert np.array_equal(odd.c, unit(4, 1, 0).c) and even.norm() == 0.0

    def test_antipodal_parity_identity(self, grid8, rng):
        for l in range(9):
            a = unit(8, l, int(rng.integers(-l, l + 1)))
            plus = np.asarray(evaluate(a, grid8.nodes))
            minus = np.asarray(evaluate(a, -grid8.nodes))
            assert np.max(np.abs(minus - (-1.0) ** l * plus)) < 1e-10


class TestLadders:
    def test_l3_eigenvalue(self):
        a = unit(3, 1, 1)
        assert np.array_equal(apply_L(3, a.c), a.c)

    def test_raising_coefficient(self):
        out = apply_L(1, unit(3, 1, 0).c) + 1j * apply_L(2, unit(3, 1, 0).c)
        # L+ = L1 + i L2 sends Y10 to sqrt(2) Y11
        want = np.sqrt(2.0) * unit(3, 1, 1).c
        assert np.max(np.abs(out - want)) < 1e-15

    def test_commutator(self, rng):
        c = random_coeffs(6, "full", rng).c
        comm = apply_L(1, apply_L(2, c)) - apply_L(2, apply_L(1, c))
        assert np.linalg.norm(comm - 1j * apply_L(3, c)) < 1e-12

    def test_sector_preserved(self, rng):
        a = random_coeffs(5, "odd", rng)
        for i in (1, 2, 3):
            assert not np.any(apply_L(i, a.c)[off_sector_mask(5, "odd")])

    def test_stack_equals_single_tables_and_degree_loop_bitwise(self, rng):
        # the per-degree loop apply_L ran before it gathered over all degrees
        def degree_loop(i, c, lmax):
            out = np.zeros_like(c)
            for l in range(lmax + 1):
                sl = slice(l * l, (l + 1) * (l + 1))
                block, m = c[sl], np.arange(-l, l + 1)
                if i == 3:
                    out[sl] = m * block
                    continue
                up, down = np.zeros_like(block), np.zeros_like(block)
                if l > 0:
                    ladder = np.sqrt(l * (l + 1.0) - np.arange(-l, l) * (np.arange(-l, l) + 1.0))
                    up[1:] = ladder * block[:-1]
                    down[:-1] = ladder * block[1:]
                out[sl] = 0.5 * (up + down) if i == 1 else -0.5j * (up - down)
            return out

        for lmax in (0, 1, 2, 3, 8, 17):
            tables = [random_coeffs(lmax, s, rng) for s in ("odd", "even", "full") * 2]
            stack = np.stack([a.c for a in tables]).reshape(2, 3, -1)
            for i in (1, 2, 3):
                out = apply_L(i, stack).reshape(6, -1)
                for row, a in zip(out, tables):
                    assert row.tobytes() == apply_L(i, a.c).tobytes()
                    assert row.tobytes() == degree_loop(i, a.c, lmax).tobytes()

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError):
            apply_L(1, np.zeros((2, 10)))
        with pytest.raises(ValueError):
            apply_L(4, np.zeros(9))

    def test_matrices_algebra(self):
        for j in (0.5, 1.0, 2.5):
            s1, s2, s3 = angular_momentum_matrices(j)
            assert np.max(np.abs(s1 @ s2 - s2 @ s1 - 1j * s3)) < 1e-13
            assert np.allclose(np.diag(s3), j - np.arange(int(2 * j) + 1))


class TestRotation:
    def test_identity(self, grid8, rng):
        a = random_coeffs(8, "full", rng)
        out = rotate_coeffs(IDENTITY, a, grid8)
        assert np.max(np.abs(out.c - a.c)) < 1e-12

    def test_norm_preserved(self, grid8, rng):
        a = random_coeffs(8, "full", rng)
        out = rotate_coeffs(random_su2(rng), a, grid8)
        assert abs(out.norm() - a.norm()) < 1e-10

    def test_wigner_block_cross_check(self, grid8, rng):
        for _ in range(20):
            g = random_su2(rng)
            a = random_coeffs(8, "full", rng)
            rot = rotate_coeffs(g, a, grid8)
            for l in range(1, 5):
                d = _symmetrized_power_d(l, g)
                # coefficient blocks run m = -l..l, Wigner rows m = +l..-l
                want = d @ a.block(l)[::-1]
                assert np.max(np.abs(rot.block(l)[::-1] - want)) < 1e-9

    def test_sector_tag_survives(self, grid8, rng):
        a = random_coeffs(8, "odd", rng)
        assert rotate_coeffs(random_su2(rng), a, grid8).sector == "odd"

    def test_z_rotation_phases(self, grid8):
        g = su2_from_axis_angle(0.31, (0, 0, 1))
        a = unit(8, 2, 2)
        out = rotate_coeffs(g, a, grid8)
        assert abs(out.get(2, 2) - np.exp(-2j * 0.31)) < 1e-12


def special_and_random_elements(rng):
    """Random elements plus the Euler-angle edge cases and FD step sizes."""
    out = [random_su2(rng) for _ in range(3)]
    out += [IDENTITY, SU2Element(-1.0, 0.0)]
    out += [SU2Element(np.exp(0.3j), 0.0), SU2Element(0.0, np.exp(-0.7j))]   # z1 = 0, z0 = 0
    for axis in np.eye(3):
        for t in (1e-3, -1e-3, 5e-4, -5e-4):      # generator_J steps h and h/2
            out.append(su2_from_axis_angle(t, axis))
    return out


def wigner_blocks(g, lmax):
    """The degree blocks D^l(g), l ≤ lmax, and the full matrix they sit in."""
    full = rotate_stack(g, np.eye((lmax + 1) ** 2)).T    # column k rotates table e_k
    blocks = [full[l * l : (l + 1) * (l + 1), l * l : (l + 1) * (l + 1)] for l in range(lmax + 1)]
    return blocks, full


class TestRotateStack:
    @pytest.fixture(scope="class")
    def grid32(self):
        return build_quadrature(32)

    def test_matches_resampling_every_degree(self, grid32, rng):
        for g in special_and_random_elements(rng):
            a = random_coeffs(32, "full", rng)
            resampled = analyze(rotate_values(g, a.c, grid32.nodes), 32, grid32)
            assert np.max(np.abs(rotate_stack(g, a.c) - resampled.c)) < 1e-12

    def test_blocks_unitary_and_multiplicative(self, rng):
        lmax = 32
        for _ in range(2):
            g1, g2 = random_su2(rng), random_su2(rng)
            (b1, full), (b2, _), (b12, _) = (wigner_blocks(g, lmax) for g in (g1, g2, su2_product(g1, g2)))
            for l, (d1, d2, d12) in enumerate(zip(b1, b2, b12)):
                assert np.max(np.abs(d1 @ d1.conj().T - np.eye(d1.shape[0]))) < 1e-13
                assert np.max(np.abs(d12 - d1 @ d2)) < 1e-13
                # blocks act on m = -l..l, wigner_d on m = +l..-l
                assert np.max(np.abs(d1[::-1, ::-1] - wigner_d(l, g1))) < 1e-13
            off_block = full.copy()
            for l in range(lmax + 1):
                off_block[l * l : (l + 1) * (l + 1), l * l : (l + 1) * (l + 1)] = 0.0
            assert not np.any(off_block)

    def test_stack_equals_single_tables_bitwise(self, grid8, rng):
        for lmax in (1, 8, 17):
            g = random_su2(rng)
            stack = np.stack([random_coeffs(lmax, "full", rng).c for _ in range(6)])
            out = rotate_stack(g, stack.reshape(2, 3, -1)).reshape(6, -1)
            for row, table in zip(out, stack):
                assert np.array_equal(row, rotate_stack(g, table))
                a = HarmonicCoeffs(lmax, "full", table)
                assert np.array_equal(row, rotate_coeffs(g, a, grid8).c)

    def test_element_rows_equal_single_elements_bitwise(self, rng):
        elements = [random_su2(rng) for _ in range(4)] + [SU2Element(-1.0, 0.0), SU2Element(0, 1j)]
        rows = np.array([as_row(g) for g in elements])
        for lmax in (1, 8, 17):
            stack = np.stack([random_coeffs(lmax, "full", rng).c for _ in range(6)])
            out = rotate_stack(rows, stack)
            for row, g, table in zip(out, elements, stack):
                assert row.tobytes() == rotate_stack(g, table).tobytes()
            # one table under every element, and every row of a radial stack per element
            fan = rotate_stack(rows, stack[0])
            assert fan.tobytes() == np.stack([rotate_stack(g, stack[0]) for g in elements]).tobytes()
            radial = rotate_stack(rows[:, None], np.stack([stack, stack[::-1]], axis=1))
            assert radial[:, 0].tobytes() == out.tobytes()

    def test_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            rotate_stack(IDENTITY, np.zeros((2, 10)))


class TestWignerD:
    def test_identity(self):
        for twoj in range(17):
            eye = np.eye(twoj + 1)
            assert np.max(np.abs(wigner_d(twoj / 2, IDENTITY) - eye)) < 1e-13
            # D^j(-1) = (-1)^{2j}·Id
            assert np.max(np.abs(wigner_d(twoj / 2, SU2Element(-1.0, 0.0)) - (-1) ** twoj * eye)) < 1e-13

    def test_matches_symmetrized_power_oracle(self, rng):
        for _ in range(200):
            g = random_su2(rng)
            for twoj in range(9):
                gap = wigner_d(twoj / 2, g) - _symmetrized_power_d(twoj / 2, g)
                assert np.max(np.abs(gap)) < 1e-14

    def test_defining_representation(self, rng):
        g = random_su2(rng)
        assert np.max(np.abs(wigner_d(0.5, g) - su2_matrix(g))) < 1e-15

    def test_homomorphism(self, rng):
        for _ in range(200):
            g1, g2 = random_su2(rng), random_su2(rng)
            for j in (0.5, 1.0, 1.5, 2.0, 4.5, 8.0, 20.0, 40.0):
                gap = wigner_d(j, su2_product(g1, g2)) - wigner_d(j, g1) @ wigner_d(j, g2)
                assert np.max(np.abs(gap)) < 1e-11

    def test_unitary(self, rng):
        g = random_su2(rng)
        for j in (0.5, 1.0, 2.0, 4.0, 4.5, 8.0, 20.0, 40.0):
            d = wigner_d(j, g)
            assert np.max(np.abs(d @ d.conj().T - np.eye(d.shape[0]))) < 1e-12

    def test_generators_match_spin_matrices(self):
        h = 1e-5
        for j in (0.5, 1.0, 1.5):
            mats = angular_momentum_matrices(j)
            for i in (1, 2, 3):
                axis = np.eye(3)[i - 1]
                dp = wigner_d(j, su2_from_axis_angle(h, axis))
                dm = wigner_d(j, su2_from_axis_angle(-h, axis))
                gen = 1j * (dp - dm) / (2 * h)
                assert np.max(np.abs(gen - mats[i - 1])) < 1e-9

    def test_stack_equals_single_rows_bitwise(self, rng):
        # ±identity, z1 = 0 and z0 = 0 rows beside Haar draws, in a (5, 5) stack
        special = [IDENTITY, SU2Element(-1.0, 0.0), SU2Element(np.exp(-1.1j), 0),
                   SU2Element(0, 1), SU2Element(0, np.exp(0.3j))]
        elements = special + [random_su2(rng) for _ in range(20)]
        rows = np.array([as_row(g) for g in elements])
        for twoj in range(17):
            dim = twoj + 1
            stack = wigner_d(twoj / 2, rows.reshape(5, 5, 2))
            assert stack.shape == (5, 5, dim, dim)
            for d, g, row in zip(stack.reshape(-1, dim, dim), elements, rows):
                assert d.tobytes() == wigner_d(twoj / 2, g).tobytes()
                assert d.tobytes() == wigner_d(twoj / 2, row).tobytes()

    def test_rows_must_be_pairs(self):
        with pytest.raises(ValueError):
            wigner_d(1.0, np.ones((4, 3), dtype=complex))

    def test_range_check(self):
        assert np.max(np.abs(wigner_d(4.5, IDENTITY) - np.eye(10))) < 1e-14   # no cap
        for bad in (0.3, -0.5, -1.0):
            with pytest.raises(ValueError):
                wigner_d(bad, IDENTITY)
