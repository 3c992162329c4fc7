import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rp2quant
from rp2quant import bundles, groups
from rp2quant.groups import (
    PAULI,
    ZERO_TOL,
    SU2Element,
    h_embed,
    quotient_to_sphere,
    random_su2,
    rotation_from_axis_angle,
    rp2_rep,
    spinor_map,
    su2_from_axis_angle,
    su2_from_normals,
    su2_from_sphere_point,
    su2_product,
    unit_vector,
    validate_normalize_su2,
)
from tests import scalar_reference as ref
from tests.scalar_reference import (
    as_row,
    check_raise_alike,
    check_single_and_stack,
    same_bits,
    su2_matrix,
)

IDENTITY = np.array([1, 0], dtype=complex)   # the SU(2) identity row

# object forms that left the library when SU(2) elements became rows
RETIRED = ("HElement", "h_membership", "RP2Point", "rp2_point", "quotient_to_rp2", "SU2_IDENTITY")


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
            m = su2_matrix(random_su2(rng))
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_inverse(self, rng):
        z0, z1 = g = random_su2(rng)
        prod = su2_product(g, (z0.conjugate(), -z1))
        assert abs(prod[0] - 1.0) < 1e-12 and abs(prod[1]) < 1e-12

    def test_product_matches_matrix_product(self, rng):
        for _ in range(50):
            g1, g2 = random_su2(rng), random_su2(rng)
            want = su2_matrix(g1) @ su2_matrix(g2)
            assert np.allclose(su2_matrix(su2_product(g1, g2)), want, atol=1e-12)

    def test_product_is_su2_product_bitwise(self, rng):
        # g * h for an element h and for a (2,) row h: one normalization, su2_product's
        for z in su2_from_normals(rng.normal(size=(200, 4))):
            g, h = SU2Element(*z), random_su2(rng)
            for other in (h, SU2Element(*h)):
                out = g * other
                assert type(out) is SU2Element
                assert same_bits(as_row(out), su2_product(g, other))


@pytest.mark.parametrize("name", RETIRED)
def test_retired_object_forms_stay_gone(name):
    assert not hasattr(groups, name)
    assert name not in rp2quant.__all__ and not hasattr(rp2quant, name)


class TestAxisAngle:
    def test_identity_angle(self):
        z0, z1 = su2_from_axis_angle(0.0, (0.0, 1.0, 0.0))
        assert z0 == 1.0 and z1 == 0.0

    def test_full_turn_is_minus_identity(self):
        z0, z1 = su2_from_axis_angle(2 * np.pi, (0.0, 0.0, 1.0))
        assert abs(z0 + 1.0) < 1e-15 and abs(z1) < 1e-15

    def test_half_turn_about_z(self):
        # cos(pi/2) - i sin(pi/2) = -i in the upper-left entry
        z0, z1 = su2_from_axis_angle(np.pi, (0.0, 0.0, 1.0))
        assert abs(z0 - (-1j)) < 1e-15 and abs(z1) < 1e-15

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            su2_from_axis_angle(1.0, (1.0, 1.0, 0.0))


class TestSpinorMap:
    def test_identity_and_kernel(self):
        assert np.allclose(spinor_map(IDENTITY), np.eye(3), atol=1e-15)
        assert np.allclose(spinor_map(SU2Element(-1.0, 0.0)), np.eye(3), atol=1e-15)

    def test_pauli_conjugation_oracle(self, rng):
        # R x must satisfy g (x·σ) g† = (Rx)·σ
        for _ in range(100):
            g, x = random_su2(rng), rng.normal(size=3)
            r = spinor_map(g)
            lhs = su2_matrix(g) @ pauli_vector(x) @ su2_matrix(g).conj().T
            assert np.max(np.abs(lhs - pauli_vector(r @ x))) < 1e-12

    def test_homomorphism(self, rng):
        for _ in range(200):
            g1, g2 = random_su2(rng), random_su2(rng)
            gap = spinor_map(su2_product(g1, g2)) - spinor_map(g1) @ spinor_map(g2)
            assert np.linalg.norm(gap) < 1e-12

    def test_double_cover(self, rng):
        g = random_su2(rng)
        assert np.max(np.abs(spinor_map(g) - spinor_map(validate_normalize_su2(-g)))) < 1e-15

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


def _random_lam(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi))


class TestH:
    def test_membership_diagonal(self):
        assert bundles.kappa(SU2Element(1.0, 0.0)) == 1

    def test_membership_antidiagonal(self):
        assert bundles.kappa(SU2Element(0.0, 1j)) == -1

    def test_membership_rejects_generic(self):
        s = 1.0 / np.sqrt(2.0)
        assert bundles.kappa(SU2Element(s, s)) == 0

    def test_embed_matrices(self):
        lam = np.exp(0.7j)
        d = su2_matrix(h_embed(False, lam))
        assert np.allclose(d, np.diag([lam, np.conj(lam)]), atol=1e-15)
        a = su2_matrix(h_embed(True, lam))
        want = np.array([[0, np.conj(lam)], [-lam, 0]])
        assert np.allclose(a, want, atol=1e-15)

    def test_closure_under_product(self, rng):
        for _ in range(200):
            h1, h2 = (h_embed(rng.random() >= 0.5, _random_lam(rng)) for _ in range(2))
            assert bundles.kappa(su2_product(h1, h2)) != 0

    def test_orbit_diagonal_formula(self):
        out = su2_product(IDENTITY, h_embed(False, 1j))
        assert abs(out[0] - 1j) < 1e-15 and abs(out[1]) < 1e-15

    def test_orbit_antidiagonal_matches_matrix_oracle(self, rng):
        for _ in range(100):
            g, lam = random_su2(rng), _random_lam(rng)
            h = h_embed(True, lam)
            out = su2_product(g, h)
            oracle = su2_matrix(g) @ su2_matrix(h)
            assert np.max(np.abs(su2_matrix(out) - oracle)) < 1e-14
            # displayed component form (-conj(b)λ, conj(a)λ)
            assert abs(out[0] - (-np.conj(g[1]) * lam)) < 1e-14
            assert abs(out[1] - np.conj(g[0]) * lam) < 1e-14

    def test_antidiagonal_identity_example(self):
        out = su2_product(IDENTITY, h_embed(True, 1.0))
        assert abs(out[0]) < 1e-15 and abs(out[1] - 1.0) < 1e-15

    def test_two_antidiagonals_compose_to_diagonal(self, rng):
        l1, l2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        prod = su2_product(h_embed(True, l1), h_embed(True, l2))
        assert bundles.kappa(prod) == 1
        assert abs(prod[0] - (-np.conj(l1) * l2)) < 1e-14


class TestQuotients:
    def test_base_point(self):
        assert np.allclose(quotient_to_sphere(IDENTITY), [0, 0, 1], atol=1e-15)

    def test_u1_invariance(self, rng):
        for _ in range(100):
            g, h = random_su2(rng), h_embed(False, _random_lam(rng))
            gap = quotient_to_sphere(g) - quotient_to_sphere(su2_product(g, h))
            assert np.max(np.abs(gap)) < 1e-12

    def test_antidiagonal_flips_to_antipode(self, rng):
        for _ in range(100):
            g, h = random_su2(rng), h_embed(True, _random_lam(rng))
            gap = quotient_to_sphere(su2_product(g, h)) + quotient_to_sphere(g)
            assert np.max(np.abs(gap)) < 1e-12

    def test_rp2_identity(self):
        assert np.allclose(rp2_rep(quotient_to_sphere(IDENTITY)), [0, 0, 1])

    def test_rp2_h_invariance_sweep(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            h = h_embed(rng.random() >= 0.5, _random_lam(rng))
            p1, p2 = (rp2_rep(quotient_to_sphere(e)) for e in (g, su2_product(g, h)))
            assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_rotated_base_point_canonicalizes(self):
        # x-axis half turn sends e3 to -e3, whose class representative is e3
        g = su2_from_axis_angle(np.pi, (1.0, 0.0, 0.0))
        assert np.allclose(rp2_rep(quotient_to_sphere(g)), [0, 0, 1], atol=1e-12)

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
        assert np.array_equal(rp2_rep(x), rp2_rep(-x))

    @given(unit_triples)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, t):
        x = np.asarray(t) / np.linalg.norm(t)
        p = rp2_rep(x)
        assert same_bits(rp2_rep(p), p)

    def test_scan_order(self):
        assert np.allclose(rp2_rep([0.0, 0.0, -1.0]), [0, 0, 1])
        assert np.allclose(rp2_rep([0.0, -1.0, 0.0]), [0, 1, 0])
        assert np.allclose(rp2_rep([-1.0, 0.0, 0.0]), [1, 0, 0])

    def test_equality_and_hash(self):
        # one class, one representative, byte for byte (so it can key a dict)
        p, q = rp2_rep([0.6, 0.0, -0.8]), rp2_rep([-0.6, 0.0, 0.8])
        assert p.tobytes() == q.tobytes()

    def test_negative_zero_entries_hash_alike(self):
        for x in ([-0.0, 0.6, 0.8], [0.6, -0.0, -0.8], [-0.0, -0.0, -1.0]):
            p, q = rp2_rep(x), rp2_rep(np.asarray(x) + 0.0)   # -0.0 entries made +0.0
            assert p.tobytes() == q.tobytes() == ref.rp2_rep(x).tobytes()


def _pauli_trace_map(g):
    """R_ij = ½ tr(σ_i g σ_j g†), the defining formula the closed form replaces."""
    u = su2_matrix(g)
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


_RNG = np.random.default_rng(2009)
# the edge rows and 200 Haar draws, as the frozen scalar SU2Element objects
ELEMENTS = [ref.SU2Element(*z) for z in
            np.concatenate([_edge_rows(), su2_from_normals(_RNG.normal(size=(200, 4)))])]
_T = ZERO_TOL
EDGE_POINTS = np.array([
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-14, 0.0, 1.0], [5e-13, 0.0, 1.0],
    [_T, 0.0, -1.0], [0.0, -_T / 2, 1.0], [1.0, 0.0, 0.0], [-0.0, 0.6, -0.8],
    [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [-0.0, -0.0, -1.0], [0.6, 0.8, -0.0],
    [-0.6, -0.0, 0.8], [0.6, -0.8, _T], [0.6, -0.8, -_T], [-1.0, _T, -0.5 * _T],
    [-0.8, -_T, 0.6], [0.6, 0.8, _T * (1 - 1e-3)], [0.6, -0.8, -_T * (1 - 1e-3)],
    [-1.0, _T, -_T], [1.0 + 1e-12, 0.0, 0.0], [0.0, -(1.0 - 5e-10), 0.0],
])
POINTS = np.concatenate([EDGE_POINTS, quotient_to_sphere(np.array([as_row(g) for g in ELEMENTS])),
                         -EDGE_POINTS])
PSI = np.concatenate([[0.0, np.pi, 2 * np.pi, -0.0], _RNG.uniform(-7, 7, 100)])
AXES = _RNG.normal(size=(PSI.size, 3))
AXES[:4] = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.6, 0.0, 0.8]]
AXES /= np.linalg.norm(AXES, axis=1)[:, None]
LAM = np.exp(1j * _RNG.uniform(0, 2 * np.pi, 60))
LAM[:3] = [1.0, -1.0, 1j]
ANTI = _RNG.random(60) < 0.5


def _h_row(antidiagonal, lam):
    return as_row(ref.HElement("antidiagonal" if antidiagonal else "diagonal", lam).embed())


# merged name -> (the name, its frozen one-object reference, single inputs);
# check_single_and_stack runs each single input and their stack
BITWISE = {
    "validate_normalize_su2": (validate_normalize_su2, lambda z: as_row(ref.SU2Element(*z)),
                               [(as_row(g) * (1.0 + 1e-10),) for g in ELEMENTS]),
    "su2_product": (su2_product, lambda g, h: as_row(g * h), list(zip(ELEMENTS, ELEMENTS[::-1]))),
    "h_embed": (h_embed, _h_row, list(zip(ANTI, LAM))),
    "su2_from_axis_angle": (su2_from_axis_angle,
                            lambda p, n: as_row(ref.su2_from_axis_angle(p, n)), list(zip(PSI, AXES))),
    "spinor_map": (spinor_map, ref.spinor_map, [(g,) for g in ELEMENTS]),
    "rotation_from_axis_angle": (rotation_from_axis_angle, ref.rotation_from_axis_angle,
                                 list(zip(PSI, AXES))),
    "unit_vector": (unit_vector, ref.unit_vector, [(x,) for x in POINTS]),
    "rp2_rep": (rp2_rep, ref.rp2_rep, [(x,) for x in POINTS]),
    "quotient_to_sphere": (quotient_to_sphere, ref.quotient_to_sphere, [(g,) for g in ELEMENTS]),
    "su2_from_sphere_point": (su2_from_sphere_point,
                              lambda x: as_row(ref.su2_from_sphere_point(x)), [(x,) for x in POINTS]),
}
# public names with no one-object twin to merge
NOT_MERGED = {"random_su2", "skew_matrix", "su2_from_normals"}

OFF, NAN = 1.0 + 2e-9, float("nan")
_POINT_CASES = (((0.0, 0.0, 1.0),), [((0.0, 0.0, OFF),), ((0.0, NAN, 1.0),)])
_AXIS_CASES = ((0.3, (0.0, 0.0, 1.0)), [(0.3, (0.0, 0.0, OFF)), (0.3, (0.0, NAN, 1.0))])
# merged name -> (the name, a good input, bad inputs: a norm off by 2e-9, a NaN, ...)
RAISES = {
    "validate_normalize_su2": (validate_normalize_su2, ((1.0, 0.0),),
                               [((OFF, 0.0),), ((NAN, 0.0),), ((1.0, complex(0.0, NAN)),)]),
    "su2_product": (su2_product, ((1.0, 0.0), (0.6, 0.8j)),
                    [((OFF, 0.0), (0.6, 0.8j)), ((NAN, 0.0), (0.6, 0.8j))]),
    "h_embed": (h_embed, (False, 1.0), [(True, OFF), (False, NAN), (True, complex(1.0, NAN))]),
    "su2_from_axis_angle": (su2_from_axis_angle, *_AXIS_CASES),
    "rotation_from_axis_angle": (rotation_from_axis_angle, *_AXIS_CASES),
    "unit_vector": (unit_vector, *_POINT_CASES),
    "rp2_rep": (rp2_rep, *_POINT_CASES),
    "su2_from_sphere_point": (su2_from_sphere_point, *_POINT_CASES),
}


def _check(name):
    check_single_and_stack(*BITWISE[name])


class TestBatchForms:
    """Each name on one element or point, and on a stack, against its frozen reference."""

    def test_one_row_per_public_name(self):
        public = {name for name, obj in vars(groups).items()
                  if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                  and obj.__module__ == groups.__name__}
        assert set(BITWISE) == public - NOT_MERGED
        assert set(RAISES) <= set(BITWISE)

    def test_closed_form_matches_pauli_traces(self, rng):
        for _ in range(500):
            g = random_su2(rng)
            assert np.max(np.abs(spinor_map(g) - _pauli_trace_map(g))) < 2e-15
        for g in _edge_rows():
            assert np.max(np.abs(spinor_map(g) - _pauli_trace_map(g))) < 2e-15

    def test_from_normals_matches_random_su2(self):
        # rows, the row form and the retired scalar object draw the same elements
        r1, r2, r3 = (np.random.default_rng(4) for _ in range(3))
        rows = su2_from_normals(r1.normal(size=(50, 4)))
        for row in rows:
            assert same_bits(random_su2(r2), row)
            assert same_bits(as_row(ref.random_su2(r3)), row)
        assert r1.bit_generator.state == r2.bit_generator.state == r3.bit_generator.state

    def test_constructor_rows(self):
        _check("validate_normalize_su2")
        with pytest.raises(ValueError):
            validate_normalize_su2([[1.0, 1.0]])

    def test_product_rows(self):
        _check("su2_product")

    def test_spinor_map_and_sphere_rows(self):
        _check("spinor_map")
        _check("quotient_to_sphere")
        assert spinor_map(np.array([as_row(g) for g in ELEMENTS])).shape == (len(ELEMENTS), 3, 3)

    def test_canonical_representatives_bit_identical(self):
        _check("unit_vector")
        _check("rp2_rep")

    def test_axis_angle_and_rodrigues_rows(self):
        _check("su2_from_axis_angle")
        _check("rotation_from_axis_angle")

    def test_sphere_section_rows(self):
        _check("su2_from_sphere_point")

    def test_h_embedding_rows(self):
        _check("h_embed")

    @pytest.mark.parametrize("name, case", [(name, k) for name, (_, _, bad) in RAISES.items()
                                            for k in range(len(bad))])
    def test_single_and_stack_raise_alike(self, name, case):
        fn, good, bad = RAISES[name]
        check_raise_alike(fn, good, bad[case])


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
        rp2_rep,
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
            h_embed(kind == "antidiagonal", lam)

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("build", [
        unit_vector,
        rp2_rep,
        su2_from_sphere_point,
        lambda x: su2_from_axis_angle(np.full(len(x), 0.3), x),
        lambda x: rotation_from_axis_angle(np.full(len(x), 0.3), x),
    ], ids=lambda f: None if f.__name__ == "<lambda>" else f"{f.__name__}_batch")  # on a stack
    def test_batch_with_one_nan_row(self, build, k):
        build(UNIT_ROWS)
        with pytest.raises(ValueError):
            build(_nan_at(UNIT_ROWS, (1, k)))

    @pytest.mark.parametrize("k", range(2))
    def test_su2_batch_with_one_nan_row(self, k):
        validate_normalize_su2(SU2_ROWS)
        with pytest.raises(ValueError):
            validate_normalize_su2(_nan_at(SU2_ROWS, (1, k)))

    def test_h_embed_batch_with_one_nan_row(self):
        lam = np.array([1.0, 1j, -1.0])
        h_embed([False, True, False], lam)
        with pytest.raises(ValueError):
            h_embed([False, True, False], _nan_at(lam, 1))


@pytest.mark.parametrize("module", ["groups", "manifold", "bundles", "classical"])
def test_one_name_per_operation(module):
    # one name takes one object or a stack: no separate `*_batch` twins
    import importlib

    mod = importlib.import_module(f"rp2quant.{module}")
    assert [name for name in vars(mod) if name.endswith("_batch") and not name.startswith("_")] == []
