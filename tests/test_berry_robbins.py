import numpy as np
import pytest
from scipy.linalg import expm

from rp2quant.berry_robbins import (
    SOUTH_POLE_TOL,
    BRState,
    TransportFrame,
    br_lift,
    fixed_basis_lift,
    recover_spin_generator,
    scalar_lift,
    total_generator_exact,
    total_generator_fd,
    transported_spin,
)
from rp2quant.groups import (
    random_su2,
    spinor_map,
    su2_from_axis_angle,
    su2_from_sphere_point,
    su2_product,
)
from rp2quant.harmonics import random_coeffs, rotate_values, unit, wigner_d, zeros
from rp2quant.manifold import build_quadrature
from rp2quant.representation import RICHARDSON_OFFSETS, _richardson

IDENTITY = np.array([1, 0], dtype=complex)   # the SU(2) identity row


def safe_point(rng):
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] > -0.8:
            return v


class TestTransportFrame:
    def test_north_pole_identity(self):
        for j in (0.0, 0.5, 1.0, 2.0):
            frame = TransportFrame(j)
            assert np.array_equal(frame.unitary([0, 0, 1]), np.eye(frame.dim))

    def test_equator_quarter_turn(self):
        frame = TransportFrame(0.5)
        s2 = frame.spin_matrices()[1]
        want = expm(-1j * (np.pi / 2) * s2)
        assert np.max(np.abs(frame.unitary([1, 0, 0]) - want)) < 1e-14

    def test_matches_exponential_oracle(self, rng):
        for twoj in range(9):
            frame = TransportFrame(twoj / 2)
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
            frame = TransportFrame(j)
            for _ in range(200):
                u = frame.unitary(safe_point(rng))
                assert np.max(np.abs(u @ u.conj().T - np.eye(frame.dim))) < 1e-12

    def test_south_pole_excluded(self):
        frame = TransportFrame(0.5)
        with pytest.raises(ValueError):
            frame.unitary([0.0, 0.0, -1.0])

    def test_stack_equals_single_points_with_exact_north_pole(self, rng):
        pts = np.array([safe_point(rng) for _ in range(30)] + [[0.0, 0.0, 1.0], [1e-17, 0.0, 1.0]])
        for j in (0.0, 0.5, 1.0, 2.5):
            frame = TransportFrame(j)
            u = frame.unitary(pts.reshape(4, 8, 3)).reshape(-1, frame.dim, frame.dim)
            for ui, r in zip(u, pts):
                assert ui.tobytes() == frame.unitary(r).tobytes()
            for north in u[-2:]:
                assert np.array_equal(north, np.eye(frame.dim))

    def test_near_north_points_give_identity_exactly(self, rng):
        # 1e-15 ≤ ρ < ZERO_TOL: groups returns the exact identity element there
        near = [[rho, 0.0, np.sqrt(1.0 - rho * rho)] for rho in (1e-14, 5e-13)]
        assert np.array_equal(su2_from_sphere_point(near), [[1.0, 0.0], [1.0, 0.0]])
        pts = np.array([safe_point(rng) for _ in range(4)] + near)
        for j in (0.5, 1.0, 2.0):
            frame = TransportFrame(j)
            for r in near:
                assert np.array_equal(frame.unitary(r), np.eye(frame.dim))
            for u in frame.unitary(pts)[-2:]:
                assert np.array_equal(u, np.eye(frame.dim))

    def test_stack_with_a_south_pole_row_raises(self, rng):
        z = -1.0 + 0.5 * SOUTH_POLE_TOL                  # inside the excluded cap
        near_south = [np.sqrt(1.0 - z * z), 0.0, z]
        for bad in ([0.0, 0.0, -1.0], near_south):
            pts = np.array([safe_point(rng) for _ in range(5)] + [bad])
            with pytest.raises(ValueError):
                TransportFrame(1.0).unitary(pts)

    def test_spin_range(self, rng):
        frame = TransportFrame(2.5)          # no cap on the spin
        u = frame.unitary(safe_point(rng))
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12
        for bad in (0.3, -0.5, -1.0):
            with pytest.raises(ValueError):
                TransportFrame(bad)


class TestTransportedSpin:
    def test_north_pole_fixed(self):
        frame = TransportFrame(1.0)
        for i in (1, 2, 3):
            assert np.array_equal(
                transported_spin(i, [0, 0, 1], frame), frame.spin_matrices()[i - 1]
            )

    def test_spectrum_preserved(self, rng):
        for j in (0.5, 1.0, 1.5):
            frame = TransportFrame(j)
            want = np.arange(-j, j + 1)
            for _ in range(50):
                r = safe_point(rng)
                for i in (1, 2, 3):
                    ev = np.sort(np.linalg.eigvalsh(transported_spin(i, r, frame)))
                    assert np.max(np.abs(ev - want)) < 1e-12

    def test_su2_relations_pointwise(self, rng):
        frame = TransportFrame(1.0)
        for _ in range(50):
            r = safe_point(rng)
            s = [transported_spin(i, r, frame) for i in (1, 2, 3)]
            assert np.max(np.abs(s[0] @ s[1] - s[1] @ s[0] - 1j * s[2])) < 1e-12


class TestBRLift:
    def test_identity(self, rng):
        frame = TransportFrame(1.0)
        st = BRState(safe_point(rng), rng.normal(size=3) + 1j * rng.normal(size=3))
        out = br_lift(IDENTITY, st, frame)
        assert np.max(np.abs(out.lam - st.lam)) < 1e-12
        assert np.max(np.abs(out.r - st.r)) < 1e-15

    def test_composition(self, rng):
        frame = TransportFrame(1.0)
        done = 0
        while done < 100:
            st = BRState(safe_point(rng), rng.normal(size=3) + 1j * rng.normal(size=3))
            g1, g2 = random_su2(rng), random_su2(rng)
            mid = spinor_map(g2) @ st.r
            end = spinor_map(g1) @ mid
            if mid[2] < -0.8 or end[2] < -0.8:
                continue
            lhs = br_lift(g1, br_lift(g2, st, frame), frame)
            rhs = br_lift(su2_product(g1, g2), st, frame)
            assert np.max(np.abs(lhs.lam - rhs.lam)) < 1e-10
            assert np.max(np.abs(lhs.r - rhs.r)) < 1e-10
            done += 1

    def test_base_covers_rotation(self, rng):
        frame = TransportFrame(0.5)
        st = BRState(safe_point(rng), rng.normal(size=2) + 0j)
        g = random_su2(rng)
        if (spinor_map(g) @ st.r)[2] > -0.8:
            out = br_lift(g, st, frame)
            assert np.max(np.abs(out.r - spinor_map(g) @ st.r)) < 1e-14

    def test_norm_preserved(self, rng):
        frame = TransportFrame(1.5)
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
        frame = TransportFrame(0.0)
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


class TestStacks:
    """Stacks of points, coefficients and elements against scalar loops."""

    def test_transported_spin_stack(self, rng):
        pts = np.array([safe_point(rng) for _ in range(12)])
        for j in (0.5, 1.0, 1.5):
            frame = TransportFrame(j)
            for i in (1, 2, 3):
                stack = transported_spin(i, pts, frame)
                for s, r in zip(stack, pts):
                    assert s.tobytes() == transported_spin(i, r, frame).tobytes()

    def test_br_lift_stack(self, rng):
        n = 16
        pts = np.array([safe_point(rng) for _ in range(n)])
        # rotations by 0.2 rad keep every image off the south pole
        elements = [su2_from_axis_angle(0.2, safe_point(rng)) for _ in range(n)]
        rows = np.array(elements)
        for j in (0.0, 1.0, 1.5):
            frame = TransportFrame(j)
            lam = rng.normal(size=(n, frame.dim)) + 1j * rng.normal(size=(n, frame.dim))
            out = br_lift(rows, BRState(pts, lam), frame)
            shared = br_lift(elements[0], BRState(pts, lam), frame)
            for k in range(n):
                ref = br_lift(elements[k], BRState(pts[k], lam[k]), frame)
                assert np.array_equal(out.r[k], ref.r) and np.array_equal(out.lam[k], ref.lam)
                ref = br_lift(elements[0], BRState(pts[k], lam[k]), frame)
                assert np.array_equal(shared.r[k], ref.r)
                assert np.array_equal(shared.lam[k], ref.lam)

    def test_scalar_lift_stack(self, rng):
        pts = np.array([safe_point(rng) for _ in range(8)])
        elements = [random_su2(rng) for _ in range(8)]
        lam = rng.normal(size=(8, 1)) + 0j
        out = scalar_lift(np.array(elements), BRState(pts, lam))
        for k, g in enumerate(elements):
            assert np.array_equal(out.r[k], scalar_lift(g, BRState(pts[k], lam[k])).r)

    def test_state_shapes_must_pair(self, rng):
        with pytest.raises(ValueError):
            BRState(np.array([safe_point(rng) for _ in range(3)]), np.ones((2, 3)))

    def test_generator_recovery_stack(self, rng):
        pts = np.array([safe_point(rng) for _ in range(6)])
        for j in (0.5, 1.0):
            frame = TransportFrame(j)
            for i in (1, 2, 3):
                stack = recover_spin_generator(i, pts, frame)
                for s, r in zip(stack, pts):
                    assert s.tobytes() == recover_spin_generator(i, r, frame).tobytes()


class TestGeneratorRecovery:
    def test_north_pole_z_component(self):
        frame = TransportFrame(0.5)
        rec = recover_spin_generator(3, [0, 0, 1], frame)
        assert np.max(np.abs(rec - frame.spin_matrices()[2])) < 1e-8

    def test_random_points_all_components(self, rng):
        for j in (0.5, 1.0):
            frame = TransportFrame(j)
            for _ in range(10):
                r = safe_point(rng)
                for i in (1, 2, 3):
                    gap = recover_spin_generator(i, r, frame) - transported_spin(i, r, frame)
                    assert np.max(np.abs(gap)) < 1e-7

    def test_spin_zero_gives_zero(self, rng):
        frame = TransportFrame(0.0)
        rec = recover_spin_generator(1, safe_point(rng), frame)
        assert np.max(np.abs(rec)) < 1e-9


def random_field(j, lmax, rng):
    """A spin-j field: 2j + 1 random tables, one per m value, as a (2j+1, n) stack."""
    return np.stack([random_coeffs(lmax, "full", rng).c for _ in range(int(2 * j) + 1)])


class TestFixedBasisLift:
    def test_identity(self, rng):
        field = random_field(0.5, 5, rng)
        out = fixed_basis_lift(IDENTITY, 0.5, field)
        assert np.max(np.abs(out - field)) < 1e-12

    def test_composition(self, rng):
        field = random_field(0.5, 5, rng)
        g1, g2 = random_su2(rng), random_su2(rng)
        seq = fixed_basis_lift(g1, 0.5, fixed_basis_lift(g2, 0.5, field))
        prod = fixed_basis_lift(su2_product(g1, g2), 0.5, field)
        assert np.max(np.abs(seq - prod)) < 1e-9

    def test_matches_componentwise_resampling(self, rng):
        grid = build_quadrature(6)
        field = np.stack([random_coeffs(6, "full", rng).c for _ in range(3)])
        for _ in range(3):
            g = random_su2(rng)
            resampled = grid.project(rotate_values(g, field, grid.nodes), 6)
            want = wigner_d(1.0, g) @ resampled
            assert np.max(np.abs(fixed_basis_lift(g, 1.0, field) - want)) < 1e-12

    def test_product_state_addition_oracle(self):
        # Y10 ⊗ |1/2, +1/2⟩: total generator = orbital part + spin part
        field = np.stack([unit(5, 1, 0).c, zeros(5).c])
        for i in (1, 2, 3):
            fd = total_generator_fd(i, 0.5, field)
            exact = total_generator_exact(i, 0.5, field)
            assert np.max(np.abs(fd - exact)) < 1e-7

    def test_stacked_offsets_equal_per_offset_lifts(self, rng):
        # before, each offset t lifted the field on its own, one element at a time
        for j in (0.0, 0.5, 1.0):
            field = random_field(j, 5, rng)
            for i in (1, 2, 3):
                axis = np.eye(3)[i - 1]
                lifts = [fixed_basis_lift(su2_from_axis_angle(t, axis), j, field)
                         for t in RICHARDSON_OFFSETS]
                want = 1j * _richardson(lifts)
                assert total_generator_fd(i, j, field).tobytes() == want.tobytes()

    def test_random_fields_addition(self, rng):
        for j in (0.5, 1.0):
            field = random_field(j, 5, rng)
            for i in (1, 2, 3):
                gap = total_generator_fd(i, j, field) - total_generator_exact(i, j, field)
                assert np.max(np.abs(gap)) < 1e-7

    def test_field_stack_equals_single_fields(self, rng):
        fields = np.stack([random_field(1.0, 4, rng) for _ in range(3)])     # (3, 3, n)
        rows = np.stack([su2_from_axis_angle(0.3 * k, np.eye(3)[k]) for k in range(3)])
        lifted = fixed_basis_lift(rows, 1.0, fields)
        for i in (1, 2, 3):
            fd, exact = total_generator_fd(i, 1.0, fields), total_generator_exact(i, 1.0, fields)
            for k, field in enumerate(fields):
                assert fd[k].tobytes() == total_generator_fd(i, 1.0, field).tobytes()
                assert exact[k].tobytes() == total_generator_exact(i, 1.0, field).tobytes()
                assert lifted[k].tobytes() == fixed_basis_lift(rows[k], 1.0, field).tobytes()

    def test_component_count_checked(self, rng):
        with pytest.raises(ValueError, match="2j \\+ 1"):
            total_generator_exact(1, 1.0, random_field(0.5, 4, rng))
