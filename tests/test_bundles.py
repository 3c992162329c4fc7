import math

import numpy as np
import pytest

from rp2quant import bundles
from rp2quant.bundles import (
    _module_grid_order,
    iso_Phi,
    iso_Phi_inverse,
    kappa,
    lift_tau,
    local_trivialization,
    module_iso_forward,
    module_iso_inverse,
    phi,
    projector,
    projector_residual,
)
from rp2quant.errors import PointNotInChart, ProjectorConstraintViolated
from rp2quant.groups import (
    h_embed,
    quotient_to_sphere,
    random_su2,
    rp2_rep,
    spinor_map,
    su2_product,
)
from rp2quant.harmonics import HarmonicCoeffs, evaluate, off_sector_mask, random_coeffs, unit, zeros
from rp2quant.manifold import CHART_TOL, build_quadrature, transition_signs
from tests import scalar_reference as ref
from tests.scalar_reference import as_row, check_raise_alike, check_single_and_stack

IDENTITY = np.array([1, 0], dtype=complex)   # the SU(2) identity row


def random_h(rng):
    """An embedded H element: its kind (antidiagonal for random() ≥ 0.5), then the phase of λ."""
    return h_embed(rng.random() >= 0.5, np.exp(1j * rng.uniform(0, 2 * np.pi)))


def random_assoc(rng):
    """A representative (g, v) of a class in SU(2) ×_κ ℂ."""
    return random_su2(rng), rng.normal() + 1j * rng.normal()


def translate(g, v, h):
    """The representative (g h, κ(h⁻¹) v) of the same class; κ(h⁻¹) = κ(h)."""
    return su2_product(g, h), kappa(h) * v


def projection(g):
    """π_κ[(g, v)] = [x(g)], the canonical representative of the base point."""
    return rp2_rep(quotient_to_sphere(g))


class TestKappa:
    def test_values(self):
        assert kappa(h_embed(False, np.exp(0.4j))) == 1
        assert kappa(h_embed(True, np.exp(0.4j))) == -1

    def test_multiplicative(self, rng):
        for _ in range(100):
            h1, h2 = random_h(rng), random_h(rng)
            prod = kappa(su2_product(h1, h2))
            assert prod != 0
            assert prod == kappa(h1) * kappa(h2)

    def test_two_antidiagonals(self, rng):
        h1, h2 = h_embed(True, np.exp(1j * rng.uniform(0, 6, 2)))
        assert kappa(su2_product(h1, h2)) == 1


class TestPhi:
    def test_pole(self):
        assert np.array_equal(phi([0.0, 0.0, 1.0]), np.array([0, 0, 1], dtype=complex))

    def test_odd(self, rng):
        for _ in range(100):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            assert np.array_equal(phi(-x), -phi(x))

    def test_unit_norm(self, rng):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert abs(np.linalg.norm(phi(x)) - 1.0) < 1e-12


class TestAssociatedBundle:
    def test_projection_at_identity(self):
        assert np.allclose(projection(IDENTITY), [0, 0, 1])

    def test_projection_ignores_fiber(self, rng):
        g = random_su2(rng)
        p1, _ = iso_Phi(g, 1.0)
        p2, _ = iso_Phi(g, -3.7j)
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, projection(g))

    def test_projection_representative_independent(self, rng):
        for _ in range(100):
            g, v = random_assoc(rng)
            g2, _ = translate(g, v, random_h(rng))
            assert np.max(np.abs(projection(g) - projection(g2))) < 1e-12


class TestIsoPhi:
    def test_identity_element(self):
        base, fiber = iso_Phi(IDENTITY, 1.0)
        assert np.allclose(base, [0, 0, 1])
        assert np.allclose(fiber, [0, 0, 1])

    def test_zero_fiber(self, rng):
        _, fiber = iso_Phi(random_su2(rng), 0.0)
        assert np.max(np.abs(fiber)) == 0.0

    def test_well_defined_on_classes(self, rng):
        for _ in range(100):
            e = random_assoc(rng)
            base1, fiber1 = iso_Phi(*e)
            base2, fiber2 = iso_Phi(*translate(*e, random_h(rng)))
            assert np.max(np.abs(fiber1 - fiber2)) < 1e-12
            assert np.max(np.abs(base1 - base2)) < 1e-12

    def test_antidiagonal_sign_cancellation(self, rng):
        g, v = random_assoc(rng)
        h = h_embed(True, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        flipped = (su2_product(g, h), -v)
        # kappa(h) = -1 so (g·h, -v) is the same class as (g, v)
        assert np.max(np.abs(iso_Phi(g, v)[1] - iso_Phi(*flipped)[1])) < 1e-12

    def test_roundtrip(self, rng):
        for _ in range(100):
            base, fiber = iso_Phi(*random_assoc(rng))
            back_base, back_fiber = iso_Phi(*iso_Phi_inverse(base, fiber))
            assert np.max(np.abs(back_fiber - fiber)) < 1e-10
            assert np.max(np.abs(back_base - base)) < 1e-10

    def test_inverse_zero_fiber(self):
        _, v = iso_Phi_inverse(rp2_rep([0, 0, 1]), np.zeros(3, dtype=complex))
        assert v == 0.0

    def test_inverse_solves_fiber_scale(self):
        fiber = np.array([0, 0, 2j])
        g, v = iso_Phi_inverse(rp2_rep([0, 0, 1]), fiber)
        assert abs(abs(v) - 2.0) < 1e-12
        _, back = iso_Phi(g, v)
        assert np.max(np.abs(back - fiber)) < 1e-12


class TestLifts:
    def test_natural_covers_base_action(self, rng):
        # the natural lift l↑_g[(p, v)] = [(g p, v)] moves the base by Spin(g)
        for _ in range(50):
            g, (p, _) = random_su2(rng), random_assoc(rng)
            lifted = projection(su2_product(g, p))
            moved = rp2_rep(spinor_map(g) @ projection(p))
            assert np.max(np.abs(lifted - moved)) < 1e-12

    def test_tau_identity(self, rng):
        base, fiber = iso_Phi(*random_assoc(rng))
        _, out = lift_tau(IDENTITY, base, fiber)
        assert np.max(np.abs(out - fiber)) < 1e-12

    def test_tau_is_conjugated_natural_lift(self, rng):
        # oracle path uses a random non-canonical representative
        for _ in range(100):
            g, e = random_su2(rng), random_assoc(rng)
            tau_base, tau_fiber = lift_tau(g, *iso_Phi(*e))
            p, v = translate(*e, random_h(rng))
            assoc_base, assoc_fiber = iso_Phi(su2_product(g, p), v)
            assert np.max(np.abs(tau_fiber - assoc_fiber)) < 1e-10
            assert np.max(np.abs(tau_base - assoc_base)) < 1e-12

    def test_tau_composition_and_covering(self, rng):
        for _ in range(50):
            g1, g2 = random_su2(rng), random_su2(rng)
            base, fiber = iso_Phi(*random_assoc(rng))
            _, seq_fiber = lift_tau(g1, *lift_tau(g2, base, fiber))
            g12 = su2_product(g1, g2)
            prod_base, prod_fiber = lift_tau(g12, base, fiber)
            assert np.max(np.abs(seq_fiber - prod_fiber)) < 1e-10
            covered = rp2_rep(spinor_map(g12) @ base)
            assert np.max(np.abs(prod_base - covered)) < 1e-12

    def test_fiberwise_linear(self, rng):
        g = random_su2(rng)
        p, v = random_assoc(rng)
        _, fiber1 = lift_tau(g, *iso_Phi(p, v))
        _, fiber2 = lift_tau(g, *iso_Phi(p, 2.5 * v))
        assert np.max(np.abs(fiber2 - 2.5 * fiber1)) < 1e-10


class TestTrivializations:
    def test_north_pole_chart3(self):
        c = local_trivialization(3, [0.0, 0.0, 1.0], np.array([0, 0, 1], dtype=complex))
        assert abs(c - 1.0) < 1e-14

    def test_out_of_chart(self):
        with pytest.raises(PointNotInChart):
            local_trivialization(3, [1.0, 0.0, 0.0], np.array([1, 0, 0], dtype=complex))

    def test_transition_consistency(self, rng):
        for _ in range(100):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            if np.min(np.abs(x)) < 0.05:
                continue
            p = rp2_rep(x)
            lam = rng.normal() + 1j * rng.normal()
            fiber = lam * phi(p)
            signs = transition_signs(p)
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    ca = local_trivialization(a, p, fiber)
                    cb = local_trivialization(b, p, fiber)
                    assert cb == signs[b - 1, a - 1] * ca


class TestProjector:
    def test_north_pole(self):
        p = projector([0, 0, 1])
        want = np.zeros((3, 3))
        want[2, 2] = 1.0
        assert np.array_equal(p, want.astype(complex))

    def test_idempotent_hermitian_rank_one(self, rng):
        for _ in range(100):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            p = projector(x)
            assert np.max(np.abs(p @ p - p)) < 1e-13
            assert np.max(np.abs(p - p.conj().T)) == 0.0
            assert abs(np.trace(p).real - 1.0) < 1e-13

    def test_descends_to_quotient(self, rng):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert np.array_equal(projector(-x), projector(x))

    def test_equivariance(self, rng):
        for _ in range(50):
            g = random_su2(rng)
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            r = spinor_map(g)
            gap = projector(r @ x) - r @ projector(x) @ r.T
            assert np.max(np.abs(gap)) < 1e-12


class TestModuleIsomorphism:
    def test_y10_forward_content(self):
        f = module_iso_forward(unit(8, 1, 0).c)
        # x3·Y10 expands in Y00 and Y20 only
        f3 = f[2]
        support = {l for l in range(9) if np.linalg.norm(f3[l * l:(l + 1) ** 2]) > 1e-12}
        assert support == {0, 2}
        assert not np.any(f[:, off_sector_mask(8, "even")])

    def test_zero_input(self):
        f = module_iso_forward(zeros(8, "odd").c)
        assert f.shape == (3, 81) and not np.any(f)

    def test_pointwise_reconstruction(self, grid9, rng):
        a = random_coeffs(8, "odd", rng)
        f = module_iso_forward(a.c)
        recon = sum(
            np.asarray(evaluate(HarmonicCoeffs(8, "even", fi), grid9.nodes)) * grid9.nodes[:, i]
            for i, fi in enumerate(f)
        )
        want = np.asarray(evaluate(a, grid9.nodes))
        assert np.max(np.abs(recon - want)) < 1e-9

    def test_projector_constraint(self, rng):
        a = random_coeffs(8, "odd", rng)
        f = module_iso_forward(a.c)
        assert projector_residual(f) < 1e-9

    def test_roundtrip(self, rng):
        for _ in range(10):
            a = random_coeffs(8, "odd", rng)
            back = module_iso_inverse(module_iso_forward(a.c))
            assert np.linalg.norm(back[: a.c.size] - a.c) < 1e-9
            assert np.linalg.norm(back[a.c.size:]) < 1e-9

    @pytest.mark.parametrize("lmax", [1, 2, 3, 29, 30])
    def test_roundtrip_on_the_derived_grid(self, lmax, rng):
        # each map picks the grid of order _module_grid_order(band); at band 30
        # that is order 31, below the quadrature cap
        a = np.stack([random_coeffs(lmax, "odd", rng).c for _ in range(3)])
        f = module_iso_forward(a)
        back = module_iso_inverse(f)
        assert np.max(projector_residual(f)) < 1e-9
        assert np.max(np.linalg.norm(back[:, :a.shape[-1]] - a, axis=-1)) < 1e-9
        assert np.max(np.linalg.norm(back[:, a.shape[-1]:], axis=-1)) < 1e-9

    def test_constraint_violation_rejected(self):
        bad = np.stack([unit(2, 0, 0).c, zeros(2, "even").c, zeros(2, "even").c])
        with pytest.raises(ProjectorConstraintViolated):
            module_iso_inverse(bad)

    def test_nan_entry_rejected(self, rng):
        f = module_iso_forward(random_coeffs(8, "odd", rng).c)
        f[1, 4] = np.nan
        with pytest.raises(ProjectorConstraintViolated, match="nan"):
            module_iso_inverse(f)

    def test_forward_requires_odd(self, rng):
        with pytest.raises(ValueError):
            module_iso_forward(random_coeffs(4, "even", rng).c)

    def test_forward_rejects_non_finite_entry(self, rng):
        a = np.array(random_coeffs(8, "odd", rng).c)
        a[1] = np.nan                                   # degree 1: in the odd sector
        with pytest.raises(ValueError, match="finite"):
            module_iso_forward(a)


class TestSectionWellDefined:
    def test_values_independent_of_representative(self, rng):
        a = random_coeffs(6, "odd", rng)
        x = rng.normal(size=(20, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        # Ψ_a = a·φ at x and at -x
        plus = evaluate(a, x)[:, None] * x
        minus = evaluate(a, -x)[:, None] * -x
        assert np.max(np.abs(plus - minus)) < 1e-12


def _samples():
    """Elements (edges, H elements and Haar draws), fiber values, and canonical base points.

    The elements are the frozen scalar objects, which the library takes as elements.
    """
    rng = np.random.default_rng(2009)
    edge = [ref.SU2_IDENTITY, -ref.SU2_IDENTITY, ref.SU2Element(0.0, 1.0), ref.SU2Element(1j, 0.0),
            ref.SU2Element(np.sqrt(0.5), np.sqrt(0.5) * 1j)]
    hs = [ref.HElement("diagonal" if rng.random() < 0.5 else "antidiagonal",
                       np.exp(1j * rng.uniform(0, 2 * np.pi))).embed() for _ in range(40)]
    elements = edge + hs + [ref.random_su2(rng) for _ in range(100)]
    values = [0.0, -0.0, 1.0, -2.5j] + list(rng.normal(size=len(elements) - 4)
                                           + 1j * rng.normal(size=len(elements) - 4))
    x = rng.normal(size=(len(elements) - 6, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    t = 1e-12
    edge_x = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-14, 0.0, 1.0], [0.6, 0.8, -0.0],
              [0.6, -0.8, t], [-0.0, 0.6, -0.8]]
    base = rp2_rep(np.concatenate([edge_x, x]))
    return elements, values, base


ELEMENTS, VALUES, BASE = _samples()
FIBER = np.array(VALUES)[:, None] * phi(BASE)


def _el(base, fiber):
    return ref.LMinusElement(ref.rp2_point(base), fiber)


def _kappa_ref(g):
    h = ref.h_membership(g)
    return 0 if h is None else ref.kappa(h)


def _phi_ref(g, v):
    el = ref.iso_Phi(ref.AssocElement(g, v))
    return el.base.rep, el.fiber


def _phi_inverse_ref(base, fiber):
    e = ref.iso_Phi_inverse(_el(base, fiber))
    return as_row(e.g), np.asarray(e.v)


def _tau_ref(g, base, fiber):
    el = ref.lift_tau(g, _el(base, fiber))
    return el.base.rep, el.fiber


def _chart(alpha):
    inside = [(b, f) for b, f in zip(BASE, FIBER) if abs(b[alpha - 1]) > CHART_TOL]
    return (lambda b, f: local_trivialization(alpha, b, f),
            lambda b, f: np.asarray(ref.local_trivialization(alpha, _el(b, f))[1]), inside)


def _band(c):
    return math.isqrt(np.shape(c)[-1]) - 1


def _module_grid(c):
    """The grid the module maps pick for a table or triple of this band."""
    return build_quadrature(_module_grid_order(_band(c)))


def _triple(f):
    """A (3, n') triple as the tuple of even tables the frozen module maps take."""
    return tuple(HarmonicCoeffs(_band(f), "even", row) for row in f)


def _forward_ref(c):
    return np.stack([t.c for t in ref.module_iso_forward(HarmonicCoeffs(_band(c), "odd", c),
                                                         _module_grid(c))])


def _odd_singles(lmax, seed):
    """Edge tables (zero, Y10, the top odd degree at m = -top) and random odd draws."""
    rng = np.random.default_rng(seed)
    top = lmax if lmax % 2 else lmax - 1
    edges = [zeros(lmax, "odd").c, unit(lmax, 1, 0).c, unit(lmax, top, -top).c]
    return edges + [random_coeffs(lmax, "odd", rng).c for _ in range(5)]


def _module_rows(fn, reference, triples):
    """One table row per band: odd tables in, or their forward triples in."""
    rows = []
    for lmax in (1, 2, 8, 9):
        singles = _odd_singles(lmax, lmax)
        if triples:
            singles = [_forward_ref(c) for c in singles]
        rows.append((fn, reference, [(x,) for x in singles]))
    return rows


# merged name -> [(the name, its frozen one-object reference, single inputs), ...]
BITWISE = {
    "kappa": [(kappa, _kappa_ref, [(g,) for g in ELEMENTS])],
    "iso_Phi": [(iso_Phi, _phi_ref, list(zip(ELEMENTS, VALUES)))],
    "iso_Phi_inverse": [(iso_Phi_inverse, _phi_inverse_ref, list(zip(BASE, FIBER)))],
    "lift_tau": [(lift_tau, _tau_ref, list(zip(ELEMENTS, BASE, FIBER)))],
    "local_trivialization": [_chart(alpha) for alpha in (1, 2, 3)],
    "module_iso_forward": _module_rows(module_iso_forward, _forward_ref, triples=False),
    "module_iso_inverse": _module_rows(
        module_iso_inverse, lambda f: ref.module_iso_inverse(_triple(f), _module_grid(f)).c,
        triples=True),
    "projector_residual": _module_rows(
        projector_residual,
        lambda f: np.float64(ref.projector_residual(_triple(f), _module_grid(f))), triples=True),
}
# public names with no one-object twin to merge
NOT_MERGED = {"phi", "projector"}

OFF, NAN = 1.0 + 2e-9, float("nan")
_F = np.array([0.0, 0.0, 1.0 + 0j])
_POINT_CASES = [((0.0, 0.0, OFF), _F), ((0.0, NAN, 1.0), _F)]
# merged name -> (the name, a good input, bad inputs)
RAISES = {
    "iso_Phi": (iso_Phi, ((1.0, 0.0), 1.0), [((OFF, 0.0), 1.0), ((NAN, 0.0), 1.0)]),
    "iso_Phi_inverse": (iso_Phi_inverse, ((0.0, 0.0, 1.0), _F), _POINT_CASES),
    "lift_tau": (lambda b, f: lift_tau(IDENTITY, b, f), ((0.0, 0.0, 1.0), _F), _POINT_CASES),
    "local_trivialization": (lambda b, f: local_trivialization(3, b, f), ((0.6, 0.0, 0.8), _F),
                             [((0.6, 0.8, CHART_TOL), _F), ((0.8, 0.6, -0.0), _F)]),
    "module_iso_forward": (module_iso_forward, (unit(4, 1, 0).c,),
                           [(unit(4, 2, 1).c,), (unit(4, 1, 0).c + 1e-13 * unit(4, 0, 0).c,)]),
    "module_iso_inverse": (module_iso_inverse, (_forward_ref(unit(4, 1, 0).c),),
                           [(np.stack([unit(4, 0, 0).c, zeros(4).c, zeros(4).c]),)]),
}


def _check(name):
    for row in BITWISE[name]:
        check_single_and_stack(*row)


class TestBatchForms:
    """Each name on one element or point and on a stack, against its frozen reference."""

    def test_one_row_per_public_name(self):
        public = {name for name, obj in vars(bundles).items()
                  if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                  and obj.__module__ == bundles.__name__}
        assert set(BITWISE) == public - NOT_MERGED
        assert set(RAISES) <= set(BITWISE)

    def test_iso_and_lift_rows_match_scalar(self):
        _check("iso_Phi")
        _check("lift_tau")

    def test_frame_projector_and_trivialization_rows_match_scalar(self):
        frames, projectors = phi(BASE), projector(BASE)
        for k, x in enumerate(BASE):
            assert frames[k].tobytes() == phi(x).tobytes()
            assert projectors[k].tobytes() == projector(x).tobytes()
        _check("local_trivialization")
        _check("iso_Phi_inverse")
        with pytest.raises(PointNotInChart):
            local_trivialization(3, [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_kappa_rows_classify_as_h_membership(self):
        _check("kappa")
        assert kappa(np.array([[0.6, 0.8j]])).tolist() == [0]

    def test_module_map_rows_match_tuple_bodies(self):
        _check("module_iso_forward")
        _check("projector_residual")
        _check("module_iso_inverse")

    def test_module_map_stack_rounding_at_lmax_16(self):
        # a (k, ...) stack goes through one grid transform, which rounds its rows
        # apart from single calls at this band: measured 3.1e-17 (forward),
        # 1.2e-17 (projector residual), 1.1e-16 (inverse), on unit-norm tables
        tables = np.stack(_odd_singles(16, 16))
        triples = module_iso_forward(tables)
        residuals, back = projector_residual(triples), module_iso_inverse(triples)
        for k, c in enumerate(tables):
            single = module_iso_forward(c)
            assert single.tobytes() == _forward_ref(c).tobytes()
            assert np.max(np.abs(triples[k] - single)) < 1e-15
            assert abs(residuals[k] - projector_residual(single)) < 1e-15
            assert np.max(np.abs(back[k] - module_iso_inverse(single))) < 1e-15

    @pytest.mark.parametrize("name, case", [(name, k) for name, (_, _, bad) in RAISES.items()
                                            for k in range(len(bad))])
    def test_single_and_stack_raise_alike(self, name, case):
        fn, good, bad = RAISES[name]
        check_raise_alike(fn, good, bad[case])
