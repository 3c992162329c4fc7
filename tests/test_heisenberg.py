import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2quant._kernels import _phase
from rp2quant.heisenberg import (
    GridWavefunction,
    HeisenbergElement,
    _grid_axes,
    _lattice,
    _lattice_phase,
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

    @pytest.mark.parametrize("n", [64.0, 64.5, "64", None])
    def test_non_integer_size_is_a_value_error(self, n):
        with pytest.raises(ValueError, match="integer power of two"):
            GridWavefunction(n, L, np.zeros(64, dtype=complex))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_length_and_hbar_must_be_positive_and_finite(self, bad):
        # each would give a NaN packet or divide by zero on the grid
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_packet(64, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_packet(64, L, hbar=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            GridWavefunction(64, bad, np.zeros(64, dtype=complex))

    def test_norm(self, packet):
        assert abs(packet.norm() - 1.0) < 1e-12

    def test_boundary_mass_small(self, packet):
        assert boundary_mass(packet) < 1e-12

    @pytest.mark.parametrize("n, length", [(N, L), (2048, 20.0), (64, 3.5)])
    def test_grid_axes_are_shared_read_only_formulas(self, n, length):
        psi = GridWavefunction(n, length, np.zeros(n, dtype=complex))
        dx = 2.0 * length / n
        assert psi.x.tobytes() == (-length + dx * np.arange(n)).tobytes()
        assert psi.k.tobytes() == (2.0 * np.pi * np.fft.fftfreq(n, dx)).tobytes()
        assert not psi.x.flags.writeable and not psi.k.flags.writeable
        with pytest.raises(ValueError):
            psi.x[0] = 0.0
        other = psi.with_values(np.ones(n, dtype=complex))
        assert other.x is psi.x and other.k is psi.k

    def test_boundary_mass_matches_formula(self, rng):
        psi = GridWavefunction(N, L, rng.normal(size=N) + 1j * rng.normal(size=N))
        outside = np.abs(-L + psi.dx * np.arange(N)) >= L / 2.0
        want = float(psi.dx * np.sum(np.abs(psi.values[outside]) ** 2))
        assert boundary_mass(psi) == want

    @pytest.mark.parametrize("p", range(13))
    def test_boundary_ends_are_the_outside_points(self, p):
        n = 1 << p
        x, _, (lo, hi) = _grid_axes(n, L)
        outside = np.zeros(n, dtype=bool)
        outside[:lo] = outside[hi:] = True
        assert np.array_equal(outside, np.abs(x) >= L / 2.0)


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

    @pytest.mark.filterwarnings("ignore:tail mass")
    @pytest.mark.parametrize("p", range(17))
    def test_whole_grid_steps_roll(self, p, rng):
        # U by n grid steps is np.roll of the values; V by n·Δk, Δk = π/L,
        # rolls the spectrum by -n with the sign e^{iπn} of x_0 = -L
        n_pts = 1 << p
        psi = GridWavefunction(n_pts, L, rng.normal(size=n_pts) + 1j * rng.normal(size=n_pts))
        for n in (1, -2, 7):
            want = np.roll(psi.values, n)
            got = weyl_U(n * psi.dx / psi.hbar, psi).values
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            want = (-1) ** n * np.roll(psi.spectrum, -n)
            got = np.fft.fft(weyl_V(n * np.pi / L, psi).values)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [1, 2, 8, 1024, 2048, 65536])
    def test_phases_are_accurate(self, n, rng):
        # e^{iθ} of the lattice tables and of the former whole-array phase are
        # both within a few ulp·(1 + |θ|) of a long-double reference, entry by entry
        x, k, _ = _grid_axes(n, L)
        h_k, h_x, l = _lattice(n)
        pi = 4 * np.arctan(np.longdouble(1))
        j_k = np.fft.fftfreq(n, 1.0 / n).astype(np.longdouble)
        bound = 4 * np.finfo(float).eps
        for _ in range(5):
            shift, b = rng.uniform(-3, 3), rng.uniform(-4, 4)
            cases = [
                (-np.longdouble(shift) * pi / L * j_k,
                 _phase(-k * shift), _lattice_phase(-shift * (np.pi / L), h_k, l)),
                (-np.longdouble(b) * x.astype(np.longdouble),
                 _phase(-b * x), _lattice_phase(-b * (2.0 * L / n), h_x, l)),
            ]
            for theta, *phases in cases:
                scale = bound * (1.0 + np.abs(theta.astype(float)))
                for phase in phases:
                    err = np.hypot((phase.real - np.cos(theta)).astype(float),
                                   (phase.imag - np.sin(theta)).astype(float))
                    assert np.all(err <= scale)

    def test_spectrum_is_cached_read_only_fft(self, packet):
        spec = packet.spectrum
        assert spec is packet.spectrum
        assert spec.tobytes() == np.fft.fft(packet.values).tobytes()
        assert not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0] = 0.0
        want = np.fft.ifft(packet.hbar * packet.k * np.fft.fft(packet.values))
        assert op_p(packet).values.tobytes() == want.tobytes()

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

    def test_stacked_product_matches_single_rows(self, rng):
        # (k, 2) stacks of a and b with (k,) r, against one element per row and
        # against the np.dot form of the central part, bit for bit
        d = rng.normal(size=(2, 50, 5))
        e1, e2 = (HeisenbergElement(x[:, :2], x[:, 2:4], x[:, 4]) for x in d)
        prod = heisenberg_product(e1, e2)
        for k in range(50):
            (a1, b1, r1), (a2, b2, r2) = ((x[k, :2], x[k, 2:4], x[k, 4]) for x in d)
            one = heisenberg_product(HeisenbergElement(a1, b1, r1), HeisenbergElement(a2, b2, r2))
            assert prod.a[k].tobytes() == one.a.tobytes()
            assert prod.b[k].tobytes() == one.b.tobytes()
            assert prod.r[k] == one.r == r1 + r2 + 0.5 * (np.dot(b1, a2) - np.dot(b2, a1))

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
