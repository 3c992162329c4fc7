import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2quant.groups import (
    PAULI,
    ZERO_TOL,
    HElement,
    SU2Element,
    SU2_IDENTITY,
    h_embed_batch,
    h_membership,
    quotient_to_rp2,
    quotient_to_sphere,
    quotient_to_sphere_batch,
    random_su2,
    rotation_from_axis_angle,
    rotation_from_axis_angle_batch,
    rp2_point,
    rp2_rep_batch,
    spinor_map,
    spinor_map_batch,
    su2_batch,
    su2_from_axis_angle,
    su2_from_axis_angle_batch,
    su2_from_normals,
    su2_from_sphere_point,
    su2_from_sphere_point_batch,
    su2_product_batch,
    unit_vector,
    unit_vector_batch,
)


def pauli_vector(x):
    return sum(x[i] * PAULI[i] for i in range(3))


class TestSU2Element:
    def test_constructor_normalizes(self):
        g = SU2Element(1.0 + 1e-10, 0.0)
        assert abs(abs(g.z0) ** 2 + abs(g.z1) ** 2 - 1.0) < 1e-15

    def test_constructor_rejects_non_unit(self):
        with pytest.raises(ValueError):
            SU2Element(1.0, 1.0)

    def test_matrix_determinant_one(self, rng):
        for _ in range(50):
            m = random_su2(rng).matrix()
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_inverse(self, rng):
        g = random_su2(rng)
        prod = g * g.inverse()
        assert abs(prod.z0 - 1.0) < 1e-12 and abs(prod.z1) < 1e-12

    def test_product_matches_matrix_product(self, rng):
        for _ in range(50):
            g1, g2 = random_su2(rng), random_su2(rng)
            assert np.allclose((g1 * g2).matrix(), g1.matrix() @ g2.matrix(), atol=1e-12)


class TestAxisAngle:
    def test_identity_angle(self):
        g = su2_from_axis_angle(0.0, (0.0, 1.0, 0.0))
        assert g.z0 == 1.0 and g.z1 == 0.0

    def test_full_turn_is_minus_identity(self):
        g = su2_from_axis_angle(2 * np.pi, (0.0, 0.0, 1.0))
        assert abs(g.z0 + 1.0) < 1e-15 and abs(g.z1) < 1e-15

    def test_half_turn_about_z(self):
        # cos(pi/2) - i sin(pi/2) = -i in the upper-left entry
        g = su2_from_axis_angle(np.pi, (0.0, 0.0, 1.0))
        assert abs(g.z0 - (-1j)) < 1e-15 and abs(g.z1) < 1e-15

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            su2_from_axis_angle(1.0, (1.0, 1.0, 0.0))


class TestSpinorMap:
    def test_identity_and_kernel(self):
        assert np.allclose(spinor_map(SU2_IDENTITY), np.eye(3), atol=1e-15)
        assert np.allclose(spinor_map(-SU2_IDENTITY), np.eye(3), atol=1e-15)

    def test_pauli_conjugation_oracle(self, rng):
        # R x must satisfy g (x·σ) g† = (Rx)·σ
        for _ in range(100):
            g, x = random_su2(rng), rng.normal(size=3)
            r = spinor_map(g)
            lhs = g.matrix() @ pauli_vector(x) @ g.matrix().conj().T
            assert np.max(np.abs(lhs - pauli_vector(r @ x))) < 1e-12

    def test_homomorphism(self, rng):
        for _ in range(200):
            g1, g2 = random_su2(rng), random_su2(rng)
            gap = spinor_map(g1 * g2) - spinor_map(g1) @ spinor_map(g2)
            assert np.linalg.norm(gap) < 1e-12

    def test_double_cover(self, rng):
        g = random_su2(rng)
        assert np.max(np.abs(spinor_map(g) - spinor_map(-g))) < 1e-15

    def test_orthogonal_unit_determinant(self, rng):
        r = spinor_map(random_su2(rng))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestRotationFormula:
    def test_zero_angle(self):
        assert np.allclose(rotation_from_axis_angle(0.0, (1, 0, 0)), np.eye(3))

    def test_half_turn_about_x(self):
        want = np.diag([1.0, -1.0, -1.0])
        assert np.allclose(rotation_from_axis_angle(np.pi, (1, 0, 0)), want, atol=1e-15)

    def test_agrees_with_spinor_map(self, rng):
        for _ in range(100):
            psi = rng.uniform(0, 2 * np.pi)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            gap = rotation_from_axis_angle(psi, n) - spinor_map(su2_from_axis_angle(psi, n))
            assert np.max(np.abs(gap)) < 1e-12

    def test_reproduces_planar_rotation_family(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, 20):
            want = np.array(
                [[np.cos(phi), -np.sin(phi), 0.0],
                 [np.sin(phi), np.cos(phi), 0.0],
                 [0.0, 0.0, 1.0]]
            )
            got = rotation_from_axis_angle(phi, (0.0, 0.0, 1.0))
            assert np.max(np.abs(got - want)) < 1e-14

    def test_reproduces_planar_reflection_family(self, rng):
        # half turn about the in-plane axis (sin(phi/2), cos(phi/2), 0)
        for phi in rng.uniform(0, 2 * np.pi, 20):
            axis = (np.sin(phi / 2), np.cos(phi / 2), 0.0)
            want = np.array(
                [[-np.cos(phi), np.sin(phi), 0.0],
                 [np.sin(phi), np.cos(phi), 0.0],
                 [0.0, 0.0, -1.0]]
            )
            got = rotation_from_axis_angle(np.pi, axis)
            assert np.max(np.abs(got - want)) < 1e-14


class TestH:
    def test_membership_diagonal(self):
        h = h_membership(SU2Element(1.0, 0.0))
        assert h is not None and h.kind == "diagonal" and abs(h.lam - 1.0) < 1e-15

    def test_membership_antidiagonal(self):
        h = h_membership(SU2Element(0.0, 1j))
        assert h is not None and h.kind == "antidiagonal" and abs(h.lam - 1j) < 1e-15

    def test_membership_rejects_generic(self):
        s = 1.0 / np.sqrt(2.0)
        assert h_membership(SU2Element(s, s)) is None

    def test_embed_matrices(self):
        lam = np.exp(0.7j)
        d = HElement("diagonal", lam).embed().matrix()
        assert np.allclose(d, np.diag([lam, np.conj(lam)]), atol=1e-15)
        a = HElement("antidiagonal", lam).embed().matrix()
        want = np.array([[0, np.conj(lam)], [-lam, 0]])
        assert np.allclose(a, want, atol=1e-15)

    def test_closure_under_product(self, rng):
        for _ in range(200):
            kinds = rng.random(2) < 0.5
            hs = [
                HElement("diagonal" if k else "antidiagonal",
                         np.exp(1j * rng.uniform(0, 2 * np.pi)))
                for k in kinds
            ]
            assert h_membership(hs[0].embed() * hs[1].embed()) is not None

    def test_orbit_diagonal_formula(self):
        out = SU2_IDENTITY * HElement("diagonal", 1j).embed()
        assert abs(out.z0 - 1j) < 1e-15 and abs(out.z1) < 1e-15

    def test_orbit_antidiagonal_matches_matrix_oracle(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            h = HElement("antidiagonal", np.exp(1j * rng.uniform(0, 2 * np.pi)))
            out = g * h.embed()
            oracle = g.matrix() @ h.embed().matrix()
            assert np.max(np.abs(out.matrix() - oracle)) < 1e-14
            # displayed component form (-conj(b)λ, conj(a)λ)
            assert abs(out.z0 - (-np.conj(g.z1) * h.lam)) < 1e-14
            assert abs(out.z1 - np.conj(g.z0) * h.lam) < 1e-14

    def test_antidiagonal_identity_example(self):
        out = SU2_IDENTITY * HElement("antidiagonal", 1.0).embed()
        assert abs(out.z0) < 1e-15 and abs(out.z1 - 1.0) < 1e-15

    def test_two_antidiagonals_compose_to_diagonal(self, rng):
        l1, l2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        prod = HElement("antidiagonal", l1).embed() * HElement("antidiagonal", l2).embed()
        h = h_membership(prod)
        assert h is not None and h.kind == "diagonal"
        assert abs(h.lam - (-np.conj(l1) * l2)) < 1e-14


class TestQuotients:
    def test_base_point(self):
        assert np.allclose(quotient_to_sphere(SU2_IDENTITY), [0, 0, 1], atol=1e-15)

    def test_u1_invariance(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            h = HElement("diagonal", np.exp(1j * rng.uniform(0, 2 * np.pi)))
            gap = quotient_to_sphere(g) - quotient_to_sphere(g * h.embed())
            assert np.max(np.abs(gap)) < 1e-12

    def test_antidiagonal_flips_to_antipode(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            h = HElement("antidiagonal", np.exp(1j * rng.uniform(0, 2 * np.pi)))
            gap = quotient_to_sphere(g * h.embed()) + quotient_to_sphere(g)
            assert np.max(np.abs(gap)) < 1e-12

    def test_rp2_identity(self):
        assert np.allclose(quotient_to_rp2(SU2_IDENTITY).rep, [0, 0, 1])

    def test_rp2_h_invariance_sweep(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            kind = "diagonal" if rng.random() < 0.5 else "antidiagonal"
            h = HElement(kind, np.exp(1j * rng.uniform(0, 2 * np.pi)))
            p1, p2 = quotient_to_rp2(g), quotient_to_rp2(g * h.embed())
            assert np.max(np.abs(p1.rep - p2.rep)) < 1e-12

    def test_rotated_base_point_canonicalizes(self):
        # x-axis half turn sends e3 to -e3, whose class representative is e3
        g = su2_from_axis_angle(np.pi, (1.0, 0.0, 0.0))
        assert np.allclose(quotient_to_rp2(g).rep, [0, 0, 1], atol=1e-12)

    def test_section_covers_point(self, rng):
        for _ in range(50):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            g = su2_from_sphere_point(x)
            assert np.max(np.abs(quotient_to_sphere(g) - x)) < 1e-12


unit_triples = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: 0.1 < np.linalg.norm(t))


class TestCanonicalization:
    @given(unit_triples)
    @settings(max_examples=100, deadline=None)
    def test_antipodal_pair_identifies(self, t):
        x = np.asarray(t) / np.linalg.norm(t)
        assert np.array_equal(rp2_point(x).rep, rp2_point(-x).rep)

    @given(unit_triples)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, t):
        x = np.asarray(t) / np.linalg.norm(t)
        p = rp2_point(x)
        assert np.array_equal(rp2_point(p.rep).rep, p.rep)

    def test_scan_order(self):
        assert np.allclose(rp2_point([0.0, 0.0, -1.0]).rep, [0, 0, 1])
        assert np.allclose(rp2_point([0.0, -1.0, 0.0]).rep, [0, 1, 0])
        assert np.allclose(rp2_point([-1.0, 0.0, 0.0]).rep, [1, 0, 0])

    def test_equality_and_hash(self):
        p, q = rp2_point([0.6, 0.0, -0.8]), rp2_point([-0.6, 0.0, 0.8])
        assert p == q and hash(p) == hash(q)


def _pauli_trace_map(g):
    """R_ij = ½ tr(σ_i g σ_j g†), the defining formula the closed form replaces."""
    u = g.matrix()
    r = np.empty((3, 3))
    for j in range(3):
        m = u @ PAULI[j] @ u.conj().T
        for i in range(3):
            r[i, j] = 0.5 * np.trace(PAULI[i] @ m).real
    return r


def _edge_rows():
    """Identity, -identity, z0 = 0, z1 = 0, ±ZERO_TOL and -0.0 components."""
    t = ZERO_TOL
    c = np.sqrt(1.0 - t * t)
    return np.array([
        [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1j], [np.exp(0.3j), 0.0],
        [0.0, np.exp(-2.1j)], [c, t], [c, -t], [t * 1j, c], [-t, -c * 1j],
        [complex(-0.0, -0.0), 1.0], [1.0, complex(-0.0, 0.0)],
        [complex(0.6, -0.0), complex(-0.0, 0.8)],
    ], dtype=complex)


def _elements(rng, n=200):
    """Scalar elements over the edge rows and n Haar draws, with their batch."""
    rows = np.concatenate([_edge_rows(), su2_from_normals(rng.normal(size=(n, 4)))])
    gs = [SU2Element(*z) for z in rows]
    return gs, np.array([[g.z0, g.z1] for g in gs])


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBatchForms:
    def test_closed_form_matches_pauli_traces(self, rng):
        for _ in range(500):
            g = random_su2(rng)
            assert np.max(np.abs(spinor_map(g) - _pauli_trace_map(g))) < 2e-15
        for z in _edge_rows():
            g = SU2Element(*z)
            assert np.max(np.abs(spinor_map(g) - _pauli_trace_map(g))) < 2e-15

    def test_from_normals_matches_random_su2(self):
        r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
        rows = su2_from_normals(r1.normal(size=(50, 4)))
        for row in rows:
            g = random_su2(r2)
            assert complex(row[0]) == g.z0 and complex(row[1]) == g.z1
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_constructor_rows(self, rng):
        scaled = _elements(rng)[1] * (1.0 + 1e-10)
        got = su2_batch(scaled)
        for z, row in zip(scaled, got):
            g = SU2Element(*z)
            assert _same_bits(row, [g.z0, g.z1])
        with pytest.raises(ValueError):
            su2_batch([[1.0, 1.0]])

    def test_product_rows(self, rng):
        gs, rows = _elements(rng)
        prod = su2_product_batch(rows, rows[::-1])
        for g, h, p in zip(gs, gs[::-1], prod):
            assert _same_bits(p, [(g * h).z0, (g * h).z1])

    def test_spinor_map_and_sphere_rows(self, rng):
        gs, rows = _elements(rng)
        spins, xs = spinor_map_batch(rows), quotient_to_sphere_batch(rows)
        assert spins.shape == (len(rows), 3, 3) and xs.shape == (len(rows), 3)
        for g, r, x in zip(gs, spins, xs):
            assert _same_bits(r, spinor_map(g))
            assert _same_bits(x, quotient_to_sphere(g))

    def test_canonical_representatives_bit_identical(self, rng):
        t = ZERO_TOL
        edge = np.array([
            [0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0],
            [-0.0, -0.0, -1.0], [0.6, 0.8, -0.0], [-0.6, -0.0, 0.8],
            [0.6, -0.8, t], [0.6, -0.8, -t], [-1.0, t, -0.5 * t],
            [-0.8, -t, 0.6], [0.6, 0.8, t * (1 - 1e-3)], [0.6, -0.8, -t * (1 - 1e-3)],
            [-1.0, t, -t], [1.0 + 1e-12, 0.0, 0.0], [0.0, -(1.0 - 5e-10), 0.0],
        ])
        pts = np.concatenate([edge, quotient_to_sphere_batch(_elements(rng)[1]), -edge])
        reps = rp2_rep_batch(pts)
        for x, r in zip(pts, reps):
            assert _same_bits(r, rp2_point(x).rep)

    def test_axis_angle_and_rodrigues_rows(self, rng):
        psi = np.concatenate([[0.0, np.pi, 2 * np.pi, -0.0], rng.uniform(-7, 7, 100)])
        axes = rng.normal(size=(psi.size, 3))
        axes[:4] = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.6, 0.0, 0.8]]
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        us = su2_from_axis_angle_batch(psi, axes)
        rs = rotation_from_axis_angle_batch(psi, axes)
        for p, n, u, r in zip(psi, axes, us, rs):
            g = su2_from_axis_angle(p, n)
            assert _same_bits(u, [g.z0, g.z1])
            assert _same_bits(r, rotation_from_axis_angle(p, n))
        with pytest.raises(ValueError):
            su2_from_axis_angle_batch([1.0], [[1.0, 1.0, 0.0]])

    def test_sphere_section_rows(self, rng):
        pts = np.concatenate([
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [ZERO_TOL, 0.0, -1.0],
             [0.0, -ZERO_TOL / 2, 1.0], [1.0, 0.0, 0.0], [-0.0, 0.6, -0.8]],
            quotient_to_sphere_batch(_elements(rng)[1]),
        ])
        for x, row in zip(pts, su2_from_sphere_point_batch(pts)):
            g = su2_from_sphere_point(x)
            assert _same_bits(row, [g.z0, g.z1])

    def test_h_embedding_rows(self, rng):
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, 60))
        lam[:3] = [1.0, -1.0, 1j]
        anti = rng.random(60) < 0.5
        for a, l, row in zip(anti, lam, h_embed_batch(anti, lam)):
            g = HElement("antidiagonal" if a else "diagonal", l).embed()
            assert _same_bits(row, [g.z0, g.z1])
        with pytest.raises(ValueError):
            h_embed_batch([True], [2.0])


NAN = float("nan")
UNIT_ROWS = np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])
SU2_ROWS = np.array([[1.0, 0.0], [0.6, 0.8j], [0.0, 1.0]], dtype=complex)


def _nan_at(a, index):
    a = np.array(a)
    a[index] = NAN
    return a


class TestRejectsNaN:
    """NaN fails every unit-norm and unimodular test (it compares False)."""

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("build", [
        unit_vector,
        rp2_point,
        su2_from_sphere_point,
        lambda x: su2_from_axis_angle(0.3, x),
        lambda x: rotation_from_axis_angle(0.3, x),
    ])
    def test_vector_component(self, build, k):
        with pytest.raises(ValueError):
            build(_nan_at([0.0, 0.0, 1.0], k))

    @pytest.mark.parametrize("z", [
        (NAN, 0.0), (0.0, NAN), (complex(0.0, NAN), 1.0), (1.0, complex(NAN, 0.0)),
    ])
    def test_su2_element(self, z):
        with pytest.raises(ValueError):
            SU2Element(*z)

    @pytest.mark.parametrize("kind", ["diagonal", "antidiagonal"])
    @pytest.mark.parametrize("lam", [NAN, complex(NAN, 1.0), complex(1.0, NAN)])
    def test_h_element(self, kind, lam):
        with pytest.raises(ValueError):
            HElement(kind, lam)

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("build", [
        unit_vector_batch,
        rp2_rep_batch,
        su2_from_sphere_point_batch,
        lambda x: su2_from_axis_angle_batch(np.full(len(x), 0.3), x),
        lambda x: rotation_from_axis_angle_batch(np.full(len(x), 0.3), x),
    ])
    def test_batch_with_one_nan_row(self, build, k):
        build(UNIT_ROWS)
        with pytest.raises(ValueError):
            build(_nan_at(UNIT_ROWS, (1, k)))

    @pytest.mark.parametrize("k", range(2))
    def test_su2_batch_with_one_nan_row(self, k):
        su2_batch(SU2_ROWS)
        with pytest.raises(ValueError):
            su2_batch(_nan_at(SU2_ROWS, (1, k)))

    def test_h_embed_batch_with_one_nan_row(self):
        lam = np.array([1.0, 1j, -1.0])
        h_embed_batch([False, True, False], lam)
        with pytest.raises(ValueError):
            h_embed_batch([False, True, False], _nan_at(lam, 1))
