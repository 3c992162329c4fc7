import numpy as np
import pytest

from rp2quant.errors import PointNotInChart
from rp2quant.groups import random_su2, rp2_point, spinor_map
from rp2quant.manifold import (
    WFunctional,
    build_quadrature,
    chart_coords,
    eval_w,
    f_embedding,
    f_from_moment,
    moment_embedding,
    transition_function,
    w_action,
)


class TestCharts:
    def test_chart_center(self):
        assert chart_coords(rp2_point([0, 0, 1]), 3) == (0.0, 0.0)

    def test_ratio_formula(self):
        p = rp2_point(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
        x, y = chart_coords(p, 1)
        assert abs(x - 1.0) < 1e-12 and abs(y - 1.0) < 1e-12

    def test_out_of_chart(self):
        with pytest.raises(PointNotInChart):
            chart_coords(rp2_point([1, 0, 0]), 3)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            chart_coords(rp2_point([0, 0, 1]), 4)


class TestTransitions:
    def test_diagonal_is_plus_one(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if np.min(np.abs(v)) < 0.05:
                continue
            p = rp2_point(v)
            for a in (1, 2, 3):
                assert transition_function(a, a, p) == 1

    def test_sign_formula(self):
        assert transition_function(1, 2, rp2_point([2 / 3, 1 / 3, 2 / 3])) == 1
        assert transition_function(1, 2, rp2_point([2 / 3, -1 / 3, 2 / 3])) == -1

    def test_vanishing_coordinate_raises(self):
        with pytest.raises(PointNotInChart):
            transition_function(1, 3, rp2_point([1, 0, 0]))

    def test_cocycle(self, rng):
        for _ in range(200):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if np.min(np.abs(v)) < 0.05:
                continue
            p = rp2_point(v)
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    for c in (1, 2, 3):
                        lhs = transition_function(a, b, p) * transition_function(b, c, p)
                        assert lhs == transition_function(a, c, p)


class TestEmbeddings:
    def test_f_at_poles(self):
        assert np.allclose(f_embedding(rp2_point([0, 0, 1])), [0, 0, 0, -1])
        assert np.allclose(f_embedding(rp2_point([0, 1, 0])), [0, 0, 0, 1])
        assert np.allclose(f_embedding(rp2_point([1, 0, 0])), [0, 0, 0, 0])

    def test_f_even(self, rng):
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert np.array_equal(
                f_embedding(rp2_point(v)), f_embedding(rp2_point(-v))
            )

    def test_moment_at_pole(self):
        assert np.allclose(
            moment_embedding([0, 0, 1]), np.diag([-1 / 3, -1 / 3, 2 / 3])
        )

    def test_moment_even_and_traceless(self, rng):
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            m = moment_embedding(v)
            assert np.array_equal(m, moment_embedding(-v))
            assert abs(np.trace(m)) < 1e-14
            assert np.max(np.abs(m - m.T)) == 0.0

    def test_f_components_are_linear_in_moment(self, rng):
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p = rp2_point(v)
            assert np.allclose(
                f_embedding(p), f_from_moment(moment_embedding(p.rep)), atol=1e-14
            )

    def test_f_separates_sampled_classes(self, rng):
        # randomized separation scan: no distinct-class collisions of the
        # 4-component embedding were found (near-coincidences arise only
        # from antipodal representatives close to the x3 = 0 ambiguity set)
        pts = rng.normal(size=(2000, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        F = np.array([f_embedding(rp2_point(p)) for p in pts])
        reps = np.array([rp2_point(p).rep for p in pts])
        from scipy.spatial import cKDTree

        for i, j in cKDTree(F).query_pairs(1e-4):
            class_dist = min(
                np.linalg.norm(reps[i] - reps[j]), np.linalg.norm(reps[i] + reps[j])
            )
            assert class_dist < 1e-2

    def test_moment_injectivity_sweep(self, rng):
        for _ in range(2000):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            s = -1.0 if rng.random() < 0.5 else 1.0
            y = s * x + rng.normal(size=3) * 1e-10
            y /= np.linalg.norm(y)
            if np.linalg.norm(moment_embedding(x) - moment_embedding(y)) < 1e-8:
                assert np.max(np.abs(rp2_point(x).rep - rp2_point(y).rep)) < 1e-6


class TestWAction:
    def test_identity(self):
        m = moment_embedding([0, 0, 1])
        assert np.allclose(w_action(np.eye(3), m), m)

    def test_equivariance(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            r = spinor_map(g)
            gap = w_action(r, moment_embedding(x)) - moment_embedding(r @ x)
            assert np.max(np.abs(gap)) < 1e-12

    def test_stabilizer_of_pole(self):
        from rp2quant.groups import rotation_from_axis_angle

        m = moment_embedding([0, 0, 1])
        r = rotation_from_axis_angle(0.83, (0, 0, 1))
        assert np.max(np.abs(w_action(r, m) - m)) < 1e-15


class TestWFunctional:
    def test_constant(self):
        w = WFunctional(np.zeros((3, 3)), 1.0)
        assert eval_w(w, rp2_point([0, 0, 1])) == 1.0

    def test_single_entry_functional(self):
        c = np.zeros((3, 3))
        c[0, 1] = c[1, 0] = 0.5          # picks out M12
        w = WFunctional(c)
        val = eval_w(w, rp2_point(np.array([1.0, 1.0, 0.0]) / np.sqrt(2)))
        assert abs(val - 0.5) < 1e-14

    def test_evenness_machine_exact(self, rng):
        from rp2quant.classical import w_matrix

        w = WFunctional(w_matrix(rng.normal(size=5)), 0.3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert w(v) == w(-v)

    def test_batch_matches_scalar_loop(self, grid8, rng):
        from rp2quant.classical import w_matrix

        for _ in range(20):
            c = w_matrix(rng.normal(size=5))
            w = WFunctional(c / np.linalg.norm(c), rng.normal())
            # reference: the scalar formula tr(c·M(x)) + c0, one node at a time
            want = np.array([np.trace(w.c @ moment_embedding(x)) + w.c0 for x in grid8.nodes])
            got = w(grid8.nodes)
            assert got.shape == (grid8.n,)
            assert np.max(np.abs(got - want)) < 1e-15
        assert isinstance(w(grid8.nodes[0]), float)

    def test_rejects_non_unit_rows(self, grid8):
        w = WFunctional(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            w(np.vstack([grid8.nodes[:3], [[0.0, 0.0, 2.0]]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WFunctional(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))


class TestQuadrature:
    def test_total_mass(self, grid8):
        assert abs(np.sum(grid8.weights) - 4 * np.pi) < 1e-12

    def test_orthonormality(self, grid8):
        basis = grid8.basis(8)
        gram = (basis.conj() * grid8.weights[:, None]).T @ basis
        assert np.max(np.abs(gram - np.eye(81))) < 1e-10

    def test_degree_bound_rejected(self):
        with pytest.raises(ValueError):
            build_quadrature(0)
        with pytest.raises(ValueError):
            build_quadrature(33)

    def test_cross_degree_orthogonality(self, grid8):
        # Y21 against Y31 via explicit node sums
        from rp2quant.harmonics import unit, evaluate

        y21 = np.asarray(evaluate(unit(8, 2, 1), grid8.nodes))
        y31 = np.asarray(evaluate(unit(8, 3, 1), grid8.nodes))
        assert abs(grid8.integrate(np.conj(y21) * y31)) < 1e-10
        assert abs(grid8.integrate(np.conj(y21) * y21) - 1.0) < 1e-10

    def test_csv_export(self, grid8, tmp_path):
        path = tmp_path / "grid.csv"
        grid8.to_csv(path)
        rows = np.loadtxt(path, delimiter=",")
        assert rows.shape == (grid8.n, 4)
        assert np.array_equal(rows[:, :3], grid8.nodes)
        assert np.array_equal(rows[:, 3], grid8.weights)
