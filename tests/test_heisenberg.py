import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2quant.heisenberg import (
    GridWavefunction,
    HeisenbergElement,
    boundary_mass,
    check_weyl_relation,
    gaussian_packet,
    gvh_discrepancy,
    gvh_expansion_residual,
    halfline_breakdown_demo,
    heisenberg_product,
    op_p,
    op_q,
    rep_heisenberg,
    weyl_U,
    weyl_V,
)

N, L = 1024, 20.0


@pytest.fixture()
def packet():
    return gaussian_packet(N, L, x0=0.4, sigma=1.0, k0=0.6)


class TestGridWavefunction:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            GridWavefunction(1000, L, np.zeros(1000, dtype=complex))

    def test_norm(self, packet):
        assert abs(packet.norm() - 1.0) < 1e-12

    def test_boundary_mass_small(self, packet):
        assert boundary_mass(packet) < 1e-12


class TestPositionMomentum:
    def test_position_expectation_symmetric_packet(self):
        psi = gaussian_packet(N, L, x0=0.0, sigma=1.0)
        val = psi.inner(op_q(psi)).real
        assert abs(val) < 1e-10

    def test_momentum_expectation_plane_wave(self):
        k0 = 0.9
        psi = gaussian_packet(N, L, x0=0.0, sigma=1.2, k0=k0)
        val = psi.inner(op_p(psi)).real
        assert abs(val - k0) < 1e-8

    def test_ccr(self, packet):
        comm = op_q(op_p(packet)).values - op_p(op_q(packet)).values
        resid = np.linalg.norm(comm - 1j * packet.values) / np.linalg.norm(packet.values)
        assert resid < 1e-8

    def test_support_warning(self):
        psi = gaussian_packet(N, L, x0=9.0, sigma=1.0)
        with pytest.warns(UserWarning):
            op_q(psi)


class TestWeylOperators:
    def test_u_zero_identity(self, packet):
        assert np.array_equal(weyl_U(0.0, packet).values, packet.values)

    def test_translation_against_analytic_gaussian(self):
        x0, sig, a = -1.0, 1.0, 2.2
        psi = gaussian_packet(N, L, x0=x0, sigma=sig)
        shifted = weyl_U(a, psi)
        x = psi.x
        want = np.exp(-((x - x0 - a) ** 2) / (4 * sig**2))
        want /= np.sqrt(psi.dx * np.sum(np.abs(want) ** 2))
        assert np.max(np.abs(shifted.values - want)) < 1e-10

    def test_translated_position_conjugation(self, packet):
        # U(a) q U(a)^{-1} = q - hbar a, checked as U(a) q psi vs (q - a) U(a) psi
        a = 1.7
        lhs = weyl_U(a, op_q(packet)).values
        moved = weyl_U(a, packet)
        rhs = (moved.x - a) * moved.values
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_momentum_conjugation_under_v(self, packet):
        # V(b) p V(b)^{-1} = p + hbar b, i.e. V(b) p psi = (p + b) V(b) psi
        b = 2.3
        lhs = weyl_V(b, op_p(packet)).values
        moved = weyl_V(b, packet)
        rhs = op_p(moved).values + b * moved.values
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_unitarity(self, packet, rng):
        for _ in range(20):
            assert abs(weyl_U(rng.uniform(-2, 2), packet).norm() - 1.0) < 1e-10
            assert abs(weyl_V(rng.uniform(-4, 4), packet).norm() - 1.0) < 1e-10

    def test_weyl_relation(self, packet):
        assert check_weyl_relation(0.0, 1.0, packet) < 1e-14
        assert check_weyl_relation(1.0, 0.0, packet) < 1e-14
        assert check_weyl_relation(1.0, 1.0, packet) < 1e-9

    def test_phase_sign_flips_with_order(self, packet, rng):
        a, b = 1.2, -0.8
        mu = packet.hbar
        fwd = weyl_U(a, weyl_V(b, packet)).values
        rev = weyl_V(b, weyl_U(a, packet)).values
        assert np.linalg.norm(fwd - np.exp(1j * mu * a * b) * rev) < 1e-9
        assert np.linalg.norm(rev - np.exp(-1j * mu * a * b) * fwd) < 1e-9


small_floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


class TestHeisenbergGroup:
    def test_identity_neutral(self, rng):
        e = HeisenbergElement(rng.normal(size=2), rng.normal(size=2), rng.normal())
        ident = HeisenbergElement(np.zeros(2), np.zeros(2), 0.0)
        prod = heisenberg_product(ident, e)
        assert np.array_equal(prod.a, e.a) and prod.r == e.r

    def test_product_formula(self):
        prod = heisenberg_product(
            HeisenbergElement([2.0], [0.0], 0.0), HeisenbergElement([0.0], [3.0], 0.0)
        )
        assert prod.a[0] == 2.0 and prod.b[0] == 3.0 and prod.r == -3.0

    def test_group_commutator(self, rng):
        e1 = HeisenbergElement(rng.normal(size=1), rng.normal(size=1), rng.normal())
        e2 = HeisenbergElement(rng.normal(size=1), rng.normal(size=1), rng.normal())
        comm = heisenberg_product(
            heisenberg_product(e1, e2),
            heisenberg_product(e1.inverse(), e2.inverse()),
        )
        want = e1.b @ e2.a - e2.b @ e1.a
        assert np.max(np.abs(comm.a)) < 1e-14 and np.max(np.abs(comm.b)) < 1e-14
        assert abs(comm.r - want) < 1e-13

    @given(st.tuples(*[small_floats] * 9))
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, vals):
        es = [
            HeisenbergElement([vals[3 * i]], [vals[3 * i + 1]], vals[3 * i + 2])
            for i in range(3)
        ]
        lhs = heisenberg_product(heisenberg_product(es[0], es[1]), es[2])
        rhs = heisenberg_product(es[0], heisenberg_product(es[1], es[2]))
        assert np.max(np.abs(lhs.a - rhs.a)) < 1e-14
        assert np.max(np.abs(lhs.b - rhs.b)) < 1e-14
        assert abs(lhs.r - rhs.r) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            heisenberg_product(
                HeisenbergElement([1.0], [0.0], 0.0),
                HeisenbergElement([1.0, 2.0], [0.0, 0.0], 0.0),
            )


class TestRepresentation:
    def test_central_element_global_phase(self, packet):
        out = rep_heisenberg(HeisenbergElement([0.0], [0.0], 0.37), packet)
        want = np.exp(-1j * packet.hbar * 0.37) * packet.values
        assert np.max(np.abs(out.values - want)) < 1e-14

    def test_central_element_commutes(self, packet, rng):
        center = HeisenbergElement([0.0], [0.0], rng.normal())
        e = HeisenbergElement([0.4], [-1.1], 0.2)
        lhs = rep_heisenberg(center, rep_heisenberg(e, packet))
        rhs = rep_heisenberg(e, rep_heisenberg(center, packet))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_homomorphism(self, packet, rng):
        for _ in range(30):
            e1 = HeisenbergElement(
                rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
            )
            e2 = HeisenbergElement(
                rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
            )
            lhs = rep_heisenberg(e1, rep_heisenberg(e2, packet))
            rhs = rep_heisenberg(heisenberg_product(e1, e2), packet)
            resid = np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(
                packet.values
            )
            assert resid < 1e-9

    def test_unitarity(self, packet):
        out = rep_heisenberg(HeisenbergElement([0.9], [1.4], -0.6), packet)
        assert abs(out.norm() - packet.norm()) < 1e-10


class TestTwoRouteGap:
    def test_fitted_constant(self, packet):
        diff, scalar = gvh_discrepancy(packet)
        assert abs(scalar - 0.75) / 0.75 < 1e-7

    def test_hbar_scaling(self):
        psi = gaussian_packet(N, L, x0=0.4, sigma=1.0, k0=0.6, hbar=2.0)
        _, scalar = gvh_discrepancy(psi)
        assert abs(scalar - 3.0) / 3.0 < 1e-7

    def test_difference_is_proportional_to_state(self, packet):
        diff, _ = gvh_discrepancy(packet)
        corr = abs(packet.inner(diff)) / (packet.norm() * diff.norm())
        assert corr > 1.0 - 1e-10

    def test_expansion_matches_composition(self, packet):
        assert gvh_expansion_residual(packet) < 1e-8

    def test_grid_doubling_stability(self, packet):
        psi2 = gaussian_packet(2 * N, L, x0=0.4, sigma=1.0, k0=0.6)
        _, s1 = gvh_discrepancy(packet)
        _, s2 = gvh_discrepancy(psi2)
        assert abs(s1 - s2) < 1e-9


class TestHalfLine:
    def test_no_translation(self):
        psi = gaussian_packet(N, L, x0=4.0, sigma=0.5)
        assert halfline_breakdown_demo(0.0, psi)["escaped_mass"] < 1e-12

    def test_small_translation(self):
        psi = gaussian_packet(N, L, x0=4.0, sigma=0.5)
        assert halfline_breakdown_demo(1.0, psi)["escaped_mass"] < 1e-8

    def test_large_translation_escapes(self):
        psi = gaussian_packet(N, L, x0=4.0, sigma=0.5)
        rep = halfline_breakdown_demo(4.0 + 10 * 0.5, psi)
        assert rep["escaped_mass"] > 0.999
