import numpy as np

from rp2quant.classical import (
    P_observable,
    W_BASIS,
    homomorphism_defect,
    infinitesimal_action,
    lie_bracket,
    poisson_bracket,
    poisson_bracket_fd,
    w_coords,
    w_matrix,
)
from rp2quant.groups import skew_matrix
from rp2quant.manifold import WFunctional, moment_embedding

ZERO = np.zeros((3, 3))


def random_element(rng):
    """(c, A) of a semidirect element with zero offset."""
    return w_matrix(rng.normal(size=5)), rng.normal(size=3)


def random_phase_point(rng):
    """(u, ψ) matrices of a phase point."""
    return w_matrix(rng.normal(size=5)), w_matrix(rng.normal(size=5))


def check_homomorphism(e1, e2, pts):
    """max |{P(e₁), P(e₂)}(pt) - P([e₁, e₂])(pt)| over the phase points."""
    u, psi = (np.stack(m) for m in zip(*pts))
    return homomorphism_defect(e1[0][None], e1[1][None], e2[0][None], e2[1][None], u, psi)


def functional_picking_M12():
    c = np.zeros((3, 3))
    c[0, 1] = c[1, 0] = 0.5
    return WFunctional(c)


class TestBasis:
    def test_orthonormal(self):
        gram = np.einsum("aij,bji->ab", W_BASIS, W_BASIS)
        assert np.max(np.abs(gram - np.eye(5))) < 1e-14

    def test_coords_roundtrip(self, rng):
        coords = rng.normal(size=5)
        assert np.max(np.abs(w_coords(w_matrix(coords)) - coords)) < 1e-14


class TestObservable:
    def test_zero_element(self, rng):
        assert P_observable(ZERO, np.zeros(3), *random_phase_point(rng)) == 0.0

    def test_pure_functional_part(self, rng):
        c = w_matrix(rng.normal(size=5))
        u, psi = random_phase_point(rng)
        assert abs(P_observable(c, np.zeros(3), u, psi) - np.trace(c @ u)) < 1e-14

    def test_rotation_part_commutator_oracle(self):
        # A = e3, u = M(e1), momentum functional picking the (1,2) entry
        e = (ZERO, np.array([0.0, 0.0, 1.0]))
        u = moment_embedding([1.0, 0.0, 0.0])
        pt = (u, functional_picking_M12().c)
        moved = skew_matrix([0, 0, 1]) @ u - u @ skew_matrix([0, 0, 1])
        assert abs(P_observable(*e, *pt) - moved[0, 1]) < 1e-14

    def test_linearity(self, rng):
        e1, e2 = random_element(rng), random_element(rng)
        al, be = rng.normal(), rng.normal()
        combo = (al * e1[0] + be * e2[0], al * e1[1] + be * e2[1])
        pt = random_phase_point(rng)
        want = al * P_observable(*e1, *pt) + be * P_observable(*e2, *pt)
        assert abs(P_observable(*combo, *pt) - want) < 1e-12

    def test_infinitesimal_action_is_rotation_derivative(self, rng):
        from rp2quant.groups import rotation_from_axis_angle

        a = rng.normal(size=3)
        u = w_matrix(rng.normal(size=5))
        h = 1e-6
        n = a / np.linalg.norm(a)
        rp = rotation_from_axis_angle(h * np.linalg.norm(a), n)
        rm = rotation_from_axis_angle(-h * np.linalg.norm(a), n)
        fd = (rp @ u @ rp.T - rm @ u @ rm.T) / (2 * h)
        assert np.max(np.abs(fd - infinitesimal_action(a, u))) < 1e-6


class TestBracket:
    def test_self_bracket_vanishes(self, rng):
        e = random_element(rng)
        assert poisson_bracket(*e, *e, *random_phase_point(rng)) == 0.0

    def test_pure_functionals_commute(self, rng):
        e1 = (w_matrix(rng.normal(size=5)), np.zeros(3))
        e2 = (w_matrix(rng.normal(size=5)), np.zeros(3))
        assert poisson_bracket(*e1, *e2, *random_phase_point(rng)) == 0.0

    def test_pure_rotations_give_cross_product(self, rng):
        e1 = (ZERO, np.array([1.0, 0, 0]))
        e2 = (ZERO, np.array([0, 1.0, 0]))
        e3 = (ZERO, np.array([0, 0, 1.0]))
        pt = random_phase_point(rng)
        assert abs(poisson_bracket(*e1, *e2, *pt) - P_observable(*e3, *pt)) < 1e-13

    def test_antisymmetry(self, rng):
        e1, e2 = random_element(rng), random_element(rng)
        pt = random_phase_point(rng)
        assert abs(poisson_bracket(*e1, *e2, *pt) + poisson_bracket(*e2, *e1, *pt)) < 1e-13

    def test_finite_difference_cross_check(self, rng):
        for _ in range(50):
            e1, e2 = random_element(rng), random_element(rng)
            pt = random_phase_point(rng)
            gap = poisson_bracket(*e1, *e2, *pt) - poisson_bracket_fd(*e1, *e2, *pt)
            assert abs(gap) < 1e-7


class TestHomomorphism:
    def test_equal_elements(self, rng):
        e = random_element(rng)
        pts = [random_phase_point(rng) for _ in range(10)]
        assert check_homomorphism(e, e, pts) < 1e-14

    def test_pure_rotations(self, rng):
        e1 = (ZERO, rng.normal(size=3))
        e2 = (ZERO, rng.normal(size=3))
        _, br_a = lie_bracket(*e1, *e2)
        assert np.allclose(br_a, np.cross(e1[1], e2[1]))
        pts = [random_phase_point(rng) for _ in range(50)]
        assert check_homomorphism(e1, e2, pts) < 1e-12

    def test_mixed_pairs(self, rng):
        pts = [random_phase_point(rng) for _ in range(100)]
        worst = 0.0
        for _ in range(200):
            worst = max(
                worst, check_homomorphism(random_element(rng), random_element(rng), pts)
            )
        assert worst < 1e-9

    def test_no_central_term_needed(self, rng):
        # residual vanishes identically, not merely up to a constant shift
        e1, e2 = random_element(rng), random_element(rng)
        br = lie_bracket(*e1, *e2)
        vals = []
        for _ in range(50):
            pt = random_phase_point(rng)
            vals.append(poisson_bracket(*e1, *e2, *pt) - P_observable(*br, *pt))
        assert np.max(np.abs(vals)) < 1e-12


    def test_defect_keeps_a_nan(self):
        # the no-obstruction ensemble with one NaN generator, in the first pairs'
        # chunk and in a later one: the defect is NaN, not the other pairs' peak
        rng = np.random.default_rng(0)
        pts = w_matrix(rng.normal(size=(100, 2, 5)))
        e = rng.normal(size=(1000, 16))
        c1, c2 = w_matrix(e[:, 0:5]), w_matrix(e[:, 8:13])
        a1, a2 = e[:, 5:8], e[:, 13:16]
        assert homomorphism_defect(c1, a1, c2, a2, pts[:, 0], pts[:, 1]) < 1e-12
        for row in (3, 500):
            spoiled = a1.copy()
            spoiled[row] = np.nan
            assert np.isnan(homomorphism_defect(c1, spoiled, c2, a2, pts[:, 0], pts[:, 1]))


class TestJacobi:
    def test_jacobi_identity(self, rng):
        for _ in range(50):
            es = [random_element(rng) for _ in range(3)]
            pt = random_phase_point(rng)
            cyc = 0.0
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                cyc += P_observable(*lie_bracket(*lie_bracket(*es[i], *es[j]), *es[k]), *pt)
            assert abs(cyc) < 1e-8
