import numpy as np
import pytest
from scipy.linalg import expm

from rp2quant.berry_robbins import (
    BRState,
    SpinorField,
    br_lift,
    default_transport,
    fixed_basis_lift,
    recover_spin_generator,
    scalar_lift,
    total_generator_exact,
    total_generator_fd,
    transported_spin,
)
from rp2quant.groups import SU2_IDENTITY, random_su2, spinor_map
from rp2quant.harmonics import analyze, random_coeffs, rotate_values, unit, wigner_d, zeros
from rp2quant.manifold import build_quadrature


def safe_point(rng):
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] > -0.8:
            return v


class TestTransportFrame:
    def test_north_pole_identity(self):
        for j in (0.0, 0.5, 1.0, 2.0):
            frame = default_transport(j)
            assert np.array_equal(frame.unitary([0, 0, 1]), np.eye(frame.dim))

    def test_equator_quarter_turn(self):
        frame = default_transport(0.5)
        s2 = frame.spin_matrices()[1]
        want = expm(-1j * (np.pi / 2) * s2)
        assert np.max(np.abs(frame.unitary([1, 0, 0]) - want)) < 1e-14

    def test_matches_exponential_oracle(self, rng):
        frame = default_transport(1.5)
        mats = frame.spin_matrices()
        for _ in range(20):
            r = safe_point(rng)
            axis = np.array([-r[1], r[0], 0.0])
            s = np.linalg.norm(axis)
            theta = np.arctan2(s, r[2])
            h = (theta / s) * (axis[0] * mats[0] + axis[1] * mats[1]) if s > 0 else 0 * mats[0]
            assert np.max(np.abs(frame.unitary(r) - expm(-1j * h))) < 1e-12

    def test_unitarity(self, rng):
        for j in (0.5, 1.0, 2.0):
            frame = default_transport(j)
            for _ in range(200):
                u = frame.unitary(safe_point(rng))
                assert np.max(np.abs(u @ u.conj().T - np.eye(frame.dim))) < 1e-12

    def test_south_pole_excluded(self):
        frame = default_transport(0.5)
        with pytest.raises(ValueError):
            frame.unitary([0.0, 0.0, -1.0])

    def test_spin_range(self):
        with pytest.raises(ValueError):
            default_transport(2.5)


class TestTransportedSpin:
    def test_north_pole_fixed(self):
        frame = default_transport(1.0)
        for i in (1, 2, 3):
            assert np.array_equal(
                transported_spin(i, [0, 0, 1], frame), frame.spin_matrices()[i - 1]
            )

    def test_spectrum_preserved(self, rng):
        for j in (0.5, 1.0, 1.5):
            frame = default_transport(j)
            want = np.arange(-j, j + 1)
            for _ in range(50):
                r = safe_point(rng)
                for i in (1, 2, 3):
                    ev = np.sort(np.linalg.eigvalsh(transported_spin(i, r, frame)))
                    assert np.max(np.abs(ev - want)) < 1e-12

    def test_su2_relations_pointwise(self, rng):
        frame = default_transport(1.0)
        for _ in range(50):
            r = safe_point(rng)
            s = [transported_spin(i, r, frame) for i in (1, 2, 3)]
            assert np.max(np.abs(s[0] @ s[1] - s[1] @ s[0] - 1j * s[2])) < 1e-12


class TestBRLift:
    def test_identity(self, rng):
        frame = default_transport(1.0)
        st = BRState(safe_point(rng), rng.normal(size=3) + 1j * rng.normal(size=3))
        out = br_lift(SU2_IDENTITY, st, frame)
        assert np.max(np.abs(out.lam - st.lam)) < 1e-12
        assert np.max(np.abs(out.r - st.r)) < 1e-15

    def test_composition(self, rng):
        frame = default_transport(1.0)
        done = 0
        while done < 100:
            st = BRState(safe_point(rng), rng.normal(size=3) + 1j * rng.normal(size=3))
            g1, g2 = random_su2(rng), random_su2(rng)
            mid = spinor_map(g2) @ st.r
            end = spinor_map(g1) @ mid
            if mid[2] < -0.8 or end[2] < -0.8:
                continue
            lhs = br_lift(g1, br_lift(g2, st, frame), frame)
            rhs = br_lift(g1 * g2, st, frame)
            assert np.max(np.abs(lhs.lam - rhs.lam)) < 1e-10
            assert np.max(np.abs(lhs.r - rhs.r)) < 1e-10
            done += 1

    def test_base_covers_rotation(self, rng):
        frame = default_transport(0.5)
        st = BRState(safe_point(rng), rng.normal(size=2) + 0j)
        g = random_su2(rng)
        if (spinor_map(g) @ st.r)[2] > -0.8:
            out = br_lift(g, st, frame)
            assert np.max(np.abs(out.r - spinor_map(g) @ st.r)) < 1e-14

    def test_norm_preserved(self, rng):
        frame = default_transport(1.5)
        done = 0
        while done < 50:
            st = BRState(safe_point(rng), rng.normal(size=4) + 1j * rng.normal(size=4))
            g = random_su2(rng)
            if (spinor_map(g) @ st.r)[2] < -0.8:
                continue
            out = br_lift(g, st, frame)
            assert abs(np.linalg.norm(out.lam) - np.linalg.norm(st.lam)) < 1e-12
            done += 1

    def test_spin_zero_reduces_to_scalar_lift_bitwise(self, rng):
        frame = default_transport(0.0)
        done = 0
        while done < 100:
            st = BRState(safe_point(rng), [rng.normal() + 1j * rng.normal()])
            g = random_su2(rng)
            if (spinor_map(g) @ st.r)[2] < -0.8:
                continue
            lifted = br_lift(g, st, frame)
            scalar = scalar_lift(g, st)
            assert np.array_equal(lifted.r, scalar.r)
            assert np.array_equal(lifted.lam, scalar.lam)
            done += 1


class TestGeneratorRecovery:
    def test_north_pole_z_component(self):
        frame = default_transport(0.5)
        rec = recover_spin_generator(3, [0, 0, 1], frame)
        assert np.max(np.abs(rec - frame.spin_matrices()[2])) < 1e-8

    def test_random_points_all_components(self, rng):
        for j in (0.5, 1.0):
            frame = default_transport(j)
            for _ in range(10):
                r = safe_point(rng)
                for i in (1, 2, 3):
                    gap = recover_spin_generator(i, r, frame) - transported_spin(i, r, frame)
                    assert np.max(np.abs(gap)) < 1e-7

    def test_spin_zero_gives_zero(self, rng):
        frame = default_transport(0.0)
        rec = recover_spin_generator(1, safe_point(rng), frame)
        assert np.max(np.abs(rec)) < 1e-9


class TestFixedBasisLift:
    def test_identity(self, rng):
        grid = build_quadrature(6)
        field = SpinorField(0.5, (random_coeffs(5, "full", rng), random_coeffs(5, "full", rng)))
        out = fixed_basis_lift(SU2_IDENTITY, field, grid)
        assert np.max(np.abs(out.stack() - field.stack())) < 1e-12

    def test_composition(self, rng):
        grid = build_quadrature(6)
        field = SpinorField(0.5, (random_coeffs(5, "full", rng), random_coeffs(5, "full", rng)))
        g1, g2 = random_su2(rng), random_su2(rng)
        seq = fixed_basis_lift(g1, fixed_basis_lift(g2, field, grid), grid)
        prod = fixed_basis_lift(g1 * g2, field, grid)
        assert np.max(np.abs(seq.stack() - prod.stack())) < 1e-9

    def test_matches_componentwise_resampling(self, rng):
        grid = build_quadrature(6)
        field = SpinorField(1.0, tuple(random_coeffs(6, "full", rng) for _ in range(3)))
        for _ in range(3):
            g = random_su2(rng)
            resampled = np.stack(
                [analyze(rotate_values(g, c, grid.nodes), 6, grid).c for c in field.components]
            )
            want = wigner_d(1.0, g) @ resampled
            assert np.max(np.abs(fixed_basis_lift(g, field, grid).stack() - want)) < 1e-12

    def test_product_state_addition_oracle(self):
        # Y10 ⊗ |1/2, +1/2⟩: total generator = orbital part + spin part
        grid = build_quadrature(6)
        field = SpinorField(0.5, (unit(5, 1, 0), zeros(5)))
        for i in (1, 2, 3):
            fd = total_generator_fd(i, field, grid)
            exact = total_generator_exact(i, field)
            assert np.max(np.abs(fd - exact)) < 1e-7

    def test_random_fields_addition(self, rng):
        grid = build_quadrature(6)
        for j in (0.5, 1.0):
            dim = int(2 * j) + 1
            field = SpinorField(j, tuple(random_coeffs(5, "full", rng) for _ in range(dim)))
            for i in (1, 2, 3):
                gap = total_generator_fd(i, field, grid) - total_generator_exact(i, field)
                assert np.max(np.abs(gap)) < 1e-7
