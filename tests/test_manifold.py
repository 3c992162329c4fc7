from dataclasses import fields

import numpy as np
import pytest

from rp2quant.errors import PointNotInChart
from rp2quant.classical import w_matrix
from rp2quant import manifold
from rp2quant.groups import ZERO_TOL, random_su2, rp2_rep, spinor_map, su2_from_normals
from rp2quant.manifold import (
    CHART_TOL,
    QuadratureGrid,
    WFunctional,
    build_quadrature,
    chart_coords,
    f_embedding,
    f_from_moment,
    moment_embedding,
    transition_signs,
    w_action,
    w_values,
)
from tests import scalar_reference as ref
from tests.scalar_reference import check_raise_alike, check_single_and_stack


class TestCharts:
    def test_chart_center(self):
        assert tuple(chart_coords(rp2_rep([0, 0, 1]), 3)) == (0.0, 0.0)

    def test_ratio_formula(self):
        p = rp2_rep(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
        x, y = chart_coords(p, 1)
        assert abs(x - 1.0) < 1e-12 and abs(y - 1.0) < 1e-12

    def test_out_of_chart(self):
        with pytest.raises(PointNotInChart):
            chart_coords(rp2_rep([1, 0, 0]), 3)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            chart_coords(rp2_rep([0, 0, 1]), 4)


class TestTransitions:
    def test_diagonal_is_plus_one(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if np.min(np.abs(v)) < 0.05:
                continue
            g = transition_signs(rp2_rep(v))
            for a in (1, 2, 3):
                assert g[a - 1, a - 1] == 1

    def test_sign_formula(self):
        assert transition_signs(rp2_rep([2 / 3, 1 / 3, 2 / 3]))[0, 1] == 1
        assert transition_signs(rp2_rep([2 / 3, -1 / 3, 2 / 3]))[0, 1] == -1

    def test_vanishing_coordinate_raises(self):
        with pytest.raises(PointNotInChart):
            transition_signs(rp2_rep([1, 0, 0]))

    def test_cocycle(self, rng):
        for _ in range(200):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if np.min(np.abs(v)) < 0.05:
                continue
            g = transition_signs(rp2_rep(v))
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        lhs = g[a, b] * g[b, c]
                        assert lhs == g[a, c]


class TestEmbeddings:
    def test_f_at_poles(self):
        assert np.allclose(f_embedding(rp2_rep([0, 0, 1])), [0, 0, 0, -1])
        assert np.allclose(f_embedding(rp2_rep([0, 1, 0])), [0, 0, 0, 1])
        assert np.allclose(f_embedding(rp2_rep([1, 0, 0])), [0, 0, 0, 0])

    def test_f_even(self, rng):
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert np.array_equal(
                f_embedding(rp2_rep(v)), f_embedding(rp2_rep(-v))
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
            p = rp2_rep(v)
            assert np.allclose(
                f_embedding(p), f_from_moment(moment_embedding(p)), atol=1e-14
            )

    def test_f_separates_sampled_classes(self, rng):
        # randomized separation scan: no distinct-class collisions of the
        # 4-component embedding were found (near-coincidences arise only
        # from antipodal representatives close to the x3 = 0 ambiguity set)
        pts = rng.normal(size=(2000, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        F = np.array([f_embedding(rp2_rep(p)) for p in pts])
        reps = np.array([rp2_rep(p) for p in pts])
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
                assert np.max(np.abs(rp2_rep(x) - rp2_rep(y))) < 1e-6


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
        assert w(rp2_rep([0, 0, 1])) == 1.0

    def test_single_entry_functional(self):
        c = np.zeros((3, 3))
        c[0, 1] = c[1, 0] = 0.5          # picks out M12
        w = WFunctional(c)
        val = w(rp2_rep(np.array([1.0, 1.0, 0.0]) / np.sqrt(2)))
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
        with pytest.raises(ValueError):
            w(np.vstack([grid8.nodes[:3], [[0.0, float("nan"), 1.0]]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WFunctional(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    @pytest.mark.parametrize("c", [np.full((3, 3), np.nan), np.diag([np.inf, -np.inf, 0.0]),
                                   np.zeros((2, 2)), np.zeros((3, 3, 3)), np.zeros(9)])
    def test_rejects_non_finite_or_misshapen_matrix(self, c):
        with pytest.raises(ValueError, match=r"finite \(3, 3\) array"):
            WFunctional(c)

    @pytest.mark.parametrize("c0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_offset(self, c0):
        with pytest.raises(ValueError, match="c0"):
            WFunctional(np.zeros((3, 3)), c0)


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
        assert abs(np.dot(grid8.weights, np.conj(y21) * y31)) < 1e-10
        assert abs(np.dot(grid8.weights, np.conj(y21) * y21) - 1.0) < 1e-10

    def test_takes_only_its_order(self, grid8):
        # a grid is its order: no node layout or cache to pass in or get wrong
        assert [f.name for f in fields(QuadratureGrid)] == ["lmax_exact"]
        with pytest.raises(TypeError):
            QuadratureGrid(grid8.nodes[::-1].copy(), grid8.weights, 8)
        with pytest.raises(TypeError):
            QuadratureGrid(nodes=grid8.nodes, weights=grid8.weights, lmax_exact=8)
        with pytest.raises(TypeError):
            QuadratureGrid(8.0)
        for gone in ("integrate", "_basis_cache", "_ring_shape", "_ring_tables"):
            assert not hasattr(grid8, gone)

    def test_equal_orders_are_one_value(self, grid8):
        again = QuadratureGrid(8)
        assert again is not grid8 and again == grid8 and hash(again) == hash(grid8)
        assert again == build_quadrature(8) != build_quadrature(9)
        assert len({grid8, again, build_quadrature(np.int64(8)), build_quadrature(9)}) == 2
        assert again.nodes is grid8.nodes and again.weights is grid8.weights


def _points():
    """300 unit points and edge rows: poles, ρ = 1e-14, ±ZERO_TOL, ±CHART_TOL and -0.0."""
    rng = np.random.default_rng(2009)
    x = rng.normal(size=(300, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    t, c = ZERO_TOL, CHART_TOL
    edge = np.array([
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-14, 0.0, 1.0], [-0.0, 1.0, -0.0],
        [0.6, -0.8, t], [-t, 0.6, -0.8], [0.6, -0.8, 1.5 * c], [-0.8, 1.5 * c, -0.6],
        [0.6, 0.8, c], [-c, 0.8, 0.6], [0.6, -0.0, -0.8], [1.0 + 1e-12, 0.0, 0.0],
    ])
    return np.concatenate([edge, x, -edge])


PTS = _points()
REPS = rp2_rep(PTS)


def _inside(alphas):
    """Representatives whose coordinates at the given chart indices exceed CHART_TOL."""
    return [(x,) for x in REPS if all(abs(x[a - 1]) > CHART_TOL for a in alphas)]


def _signs(x):
    return np.array([[ref.transition_function(a, b, ref.rp2_point(x)) for b in (1, 2, 3)]
                     for a in (1, 2, 3)])


# merged name -> [(the name, its frozen one-object reference, single inputs), ...]
BITWISE = {
    "chart_coords": [(lambda x, a=a: chart_coords(x, a),
                      lambda x, a=a: np.array(ref.chart_coords(ref.rp2_point(x), a)), _inside([a]))
                     for a in (1, 2, 3)],
    "transition_signs": [(transition_signs, _signs, _inside([1, 2, 3]))],
    "f_embedding": [(f_embedding, lambda x: ref.f_embedding(ref.rp2_point(x)), [(x,) for x in REPS])],
    "moment_embedding": [(moment_embedding, ref.moment_embedding, [(x,) for x in PTS])],
}
# public names with no one-object twin to merge
NOT_MERGED = {"build_quadrature", "check_symmetric_traceless", "f_from_moment", "w_action",
              "w_values"}

OFF, NAN = 1.0 + 2e-9, float("nan")
# merged name -> (the name, a good input, bad inputs)
RAISES = {
    "chart_coords": (lambda x: chart_coords(x, 3), ((0.6, 0.0, 0.8),),
                     [((0.6, 0.8, CHART_TOL),), ((0.8, 0.6, -0.0),)]),
    "transition_signs": (transition_signs, ((0.6, 0.48, 0.64),),
                         [((0.6, 0.8, CHART_TOL),), ((-CHART_TOL, 0.6, 0.8),)]),
    "moment_embedding": (moment_embedding, ((0.0, 0.0, 1.0),),
                         [((0.0, 0.0, OFF),), ((0.0, NAN, 1.0),)]),
}


def _check(name):
    for row in BITWISE[name]:
        check_single_and_stack(*row)


class TestBatchForms:
    """Each name on one point and on a stack, against its frozen reference."""

    def test_one_row_per_public_name(self):
        public = {name for name, obj in vars(manifold).items()
                  if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                  and obj.__module__ == manifold.__name__}
        assert set(BITWISE) == public - NOT_MERGED
        assert set(RAISES) <= set(BITWISE)

    def test_transition_signs_match_scalar(self):
        _check("transition_signs")
        # representative-independent
        pts = np.array(_inside([1, 2, 3]))[:, 0]
        assert np.array_equal(transition_signs(-pts), transition_signs(pts))

    def test_transition_signs_reject_points_outside_a_chart(self):
        with pytest.raises(PointNotInChart):
            transition_signs(PTS)

    def test_moment_rows_match_scalar(self):
        _check("moment_embedding")

    def test_chart_and_embedding_rows_match_scalar(self):
        _check("chart_coords")
        _check("f_embedding")
        for alpha in (1, 2, 3):
            reps = np.array(_inside([alpha]))[:, 0]
            assert np.array_equal(chart_coords(-reps, alpha), chart_coords(reps, alpha))
        with pytest.raises(PointNotInChart):
            chart_coords(PTS, 3)
        for x, m in zip(REPS, f_from_moment(moment_embedding(REPS))):
            assert m.tobytes() == f_from_moment(ref.moment_embedding(x)).tobytes()

    @pytest.mark.parametrize("name, case", [(name, k) for name, (_, _, bad) in RAISES.items()
                                            for k in range(len(bad))])
    def test_single_and_stack_raise_alike(self, name, case):
        fn, good, bad = RAISES[name]
        check_raise_alike(fn, good, bad[case])

    def test_w_values_and_action_rows_match_scalar(self, rng):
        pts = PTS
        c, c0 = w_matrix(rng.normal(size=(len(pts), 5))), rng.normal(size=len(pts))
        r = spinor_map(su2_from_normals(rng.normal(size=(len(pts), 4))))
        values = w_values(c, c0, pts)
        moved = w_action(r, c)
        for k, x in enumerate(pts):
            assert values[k] == WFunctional(c[k], c0[k])(x)
            assert moved[k].tobytes() == w_action(r[k], c[k]).tobytes()
        with pytest.raises(ValueError):
            w_values(c, c0, 1.1 * pts)
