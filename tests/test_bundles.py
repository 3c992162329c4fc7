import numpy as np
import pytest

from rp2quant.bundles import (
    AssocElement,
    LMinusElement,
    assoc_translate,
    iso_Phi,
    iso_Phi_batch,
    iso_Phi_inverse,
    kappa,
    lift_tau,
    lift_tau_batch,
    local_trivialization,
    module_iso_forward,
    module_iso_inverse,
    natural_lift,
    phi,
    projector,
    projector_residual,
)
from rp2quant.errors import PointNotInChart, ProjectorConstraintViolated
from rp2quant.groups import (
    SU2_IDENTITY,
    HElement,
    h_membership,
    quotient_to_rp2,
    random_su2,
    rp2_point,
    spinor_map,
)
from rp2quant.harmonics import evaluate, random_coeffs, unit, zeros
from rp2quant.manifold import transition_function


def random_h(rng):
    kind = "diagonal" if rng.random() < 0.5 else "antidiagonal"
    return HElement(kind, np.exp(1j * rng.uniform(0, 2 * np.pi)))


def random_assoc(rng):
    return AssocElement(random_su2(rng), rng.normal() + 1j * rng.normal())


class TestKappa:
    def test_values(self):
        assert kappa(HElement("diagonal", np.exp(0.4j))) == 1
        assert kappa(HElement("antidiagonal", np.exp(0.4j))) == -1

    def test_multiplicative(self, rng):
        for _ in range(100):
            h1, h2 = random_h(rng), random_h(rng)
            prod = h_membership(h1.embed() * h2.embed())
            assert prod is not None
            assert kappa(prod) == kappa(h1) * kappa(h2)

    def test_two_antidiagonals(self, rng):
        h1, h2 = (HElement("antidiagonal", np.exp(1j * t)) for t in rng.uniform(0, 6, 2))
        prod = h_membership(h1.embed() * h2.embed())
        assert prod.kind == "diagonal" and kappa(prod) == 1


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
    # the projection π_κ[(g, v)] = [x(g)] is quotient_to_rp2(g)

    def test_projection_at_identity(self):
        assert np.allclose(quotient_to_rp2(AssocElement(SU2_IDENTITY, 2.0).g).rep, [0, 0, 1])

    def test_projection_ignores_fiber(self, rng):
        g = random_su2(rng)
        p1 = iso_Phi(AssocElement(g, 1.0)).base
        p2 = iso_Phi(AssocElement(g, -3.7j)).base
        assert np.array_equal(p1.rep, p2.rep)
        assert p1 == quotient_to_rp2(g)

    def test_projection_representative_independent(self, rng):
        for _ in range(100):
            e = random_assoc(rng)
            e2 = assoc_translate(e, random_h(rng))
            assert np.max(np.abs(quotient_to_rp2(e.g).rep - quotient_to_rp2(e2.g).rep)) < 1e-12


class TestIsoPhi:
    def test_identity_element(self):
        el = iso_Phi(AssocElement(SU2_IDENTITY, 1.0))
        assert np.allclose(el.base.rep, [0, 0, 1])
        assert np.allclose(el.fiber, [0, 0, 1])

    def test_zero_fiber(self, rng):
        el = iso_Phi(AssocElement(random_su2(rng), 0.0))
        assert np.max(np.abs(el.fiber)) == 0.0

    def test_well_defined_on_classes(self, rng):
        for _ in range(100):
            e = random_assoc(rng)
            el1 = iso_Phi(e)
            el2 = iso_Phi(assoc_translate(e, random_h(rng)))
            assert np.max(np.abs(el1.fiber - el2.fiber)) < 1e-12
            assert np.max(np.abs(el1.base.rep - el2.base.rep)) < 1e-12

    def test_antidiagonal_sign_cancellation(self, rng):
        e = random_assoc(rng)
        h = HElement("antidiagonal", np.exp(1j * rng.uniform(0, 2 * np.pi)))
        flipped = AssocElement(e.g * h.embed(), -e.v)
        # kappa(h) = -1 so (g·h, -v) is the same class as (g, v)
        assert np.max(np.abs(iso_Phi(e).fiber - iso_Phi(flipped).fiber)) < 1e-12

    def test_roundtrip(self, rng):
        for _ in range(100):
            el = iso_Phi(random_assoc(rng))
            back = iso_Phi(iso_Phi_inverse(el))
            assert np.max(np.abs(back.fiber - el.fiber)) < 1e-10
            assert np.max(np.abs(back.base.rep - el.base.rep)) < 1e-10

    def test_inverse_zero_fiber(self):
        el = LMinusElement(rp2_point([0, 0, 1]), np.zeros(3, dtype=complex))
        assert iso_Phi_inverse(el).v == 0.0

    def test_inverse_solves_fiber_scale(self):
        el = LMinusElement(rp2_point([0, 0, 1]), np.array([0, 0, 2j]))
        e = iso_Phi_inverse(el)
        assert abs(abs(e.v) - 2.0) < 1e-12
        back = iso_Phi(e)
        assert np.max(np.abs(back.fiber - el.fiber)) < 1e-12

    def test_fiber_constraint_enforced(self):
        with pytest.raises(ValueError):
            LMinusElement(rp2_point([0, 0, 1]), np.array([1.0, 0, 0], dtype=complex))


class TestLifts:
    def test_natural_identity(self, rng):
        e = random_assoc(rng)
        out = natural_lift(SU2_IDENTITY, e)
        assert out.g.z0 == e.g.z0 and out.v == e.v

    def test_natural_composition(self, rng):
        g1, g2, e = random_su2(rng), random_su2(rng), random_assoc(rng)
        seq = natural_lift(g1, natural_lift(g2, e))
        prod = natural_lift(g1 * g2, e)
        assert np.max(np.abs(seq.g.matrix() - prod.g.matrix())) < 1e-14
        assert seq.v == prod.v

    def test_natural_covers_base_action(self, rng):
        for _ in range(50):
            g, e = random_su2(rng), random_assoc(rng)
            lifted = quotient_to_rp2(natural_lift(g, e).g)
            moved = rp2_point(spinor_map(g) @ quotient_to_rp2(e.g).rep)
            assert np.max(np.abs(lifted.rep - moved.rep)) < 1e-12

    def test_tau_identity(self, rng):
        el = iso_Phi(random_assoc(rng))
        out = lift_tau(SU2_IDENTITY, el)
        assert np.max(np.abs(out.fiber - el.fiber)) < 1e-12

    def test_tau_is_conjugated_natural_lift(self, rng):
        # oracle path uses a random non-canonical representative
        for _ in range(100):
            g, e = random_su2(rng), random_assoc(rng)
            el = iso_Phi(e)
            via_tau = lift_tau(g, el)
            via_assoc = iso_Phi(natural_lift(g, assoc_translate(e, random_h(rng))))
            assert np.max(np.abs(via_tau.fiber - via_assoc.fiber)) < 1e-10
            assert np.max(np.abs(via_tau.base.rep - via_assoc.base.rep)) < 1e-12

    def test_tau_composition_and_covering(self, rng):
        for _ in range(50):
            g1, g2 = random_su2(rng), random_su2(rng)
            el = iso_Phi(random_assoc(rng))
            seq = lift_tau(g1, lift_tau(g2, el))
            prod = lift_tau(g1 * g2, el)
            assert np.max(np.abs(seq.fiber - prod.fiber)) < 1e-10
            covered = rp2_point(spinor_map(g1 * g2) @ el.base.rep)
            assert np.max(np.abs(prod.base.rep - covered.rep)) < 1e-12

    def test_fiberwise_linear(self, rng):
        g = random_su2(rng)
        e = random_assoc(rng)
        el1 = lift_tau(g, iso_Phi(e))
        el2 = lift_tau(g, iso_Phi(AssocElement(e.g, 2.5 * e.v)))
        assert np.max(np.abs(el2.fiber - 2.5 * el1.fiber)) < 1e-10


class TestTrivializations:
    def test_north_pole_chart3(self):
        el = LMinusElement(rp2_point([0, 0, 1]), np.array([0, 0, 1], dtype=complex))
        base, c = local_trivialization(3, el)
        assert abs(c - 1.0) < 1e-14

    def test_out_of_chart(self):
        el = LMinusElement(rp2_point([1, 0, 0]), np.array([1, 0, 0], dtype=complex))
        with pytest.raises(PointNotInChart):
            local_trivialization(3, el)

    def test_transition_consistency(self, rng):
        for _ in range(100):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            if np.min(np.abs(x)) < 0.05:
                continue
            p = rp2_point(x)
            lam = rng.normal() + 1j * rng.normal()
            el = LMinusElement(p, lam * phi(p.rep))
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    _, ca = local_trivialization(a, el)
                    _, cb = local_trivialization(b, el)
                    assert cb == transition_function(b, a, p) * ca


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
    def test_y10_forward_content(self, grid9):
        f = module_iso_forward(unit(8, 1, 0), grid9)
        # x3·Y10 expands in Y00 and Y20 only
        f3 = f[2]
        support = {l for l in range(f3.lmax + 1) if np.linalg.norm(f3.block(l)) > 1e-12}
        assert support == {0, 2}
        for fi in f:
            assert fi.sector == "even"

    def test_zero_input(self, grid9):
        f = module_iso_forward(zeros(8, "odd"), grid9)
        assert all(fi.norm() == 0.0 for fi in f)

    def test_pointwise_reconstruction(self, grid9, rng):
        a = random_coeffs(8, "odd", rng)
        f = module_iso_forward(a, grid9)
        recon = sum(
            np.asarray(evaluate(fi, grid9.nodes)) * grid9.nodes[:, i]
            for i, fi in enumerate(f)
        )
        want = np.asarray(evaluate(a, grid9.nodes))
        assert np.max(np.abs(recon - want)) < 1e-9

    def test_projector_constraint(self, grid9, rng):
        a = random_coeffs(8, "odd", rng)
        f = module_iso_forward(a, grid9)
        assert projector_residual(f, grid9) < 1e-9

    def test_roundtrip(self, grid9, rng):
        for _ in range(10):
            a = random_coeffs(8, "odd", rng)
            back = module_iso_inverse(module_iso_forward(a, grid9), grid9)
            assert np.linalg.norm(back.c[: a.c.size] - a.c) < 1e-9
            assert np.linalg.norm(back.c[a.c.size:]) < 1e-9

    def test_constraint_violation_rejected(self, grid9):
        bad = (unit(2, 0, 0), zeros(2, "even"), zeros(2, "even"))
        with pytest.raises(ProjectorConstraintViolated):
            module_iso_inverse(bad, grid9)

    def test_forward_requires_odd(self, grid9, rng):
        with pytest.raises(ValueError):
            module_iso_forward(random_coeffs(4, "even", rng), grid9)


class TestSectionWellDefined:
    def test_values_independent_of_representative(self, rng):
        a = random_coeffs(6, "odd", rng)
        x = rng.normal(size=(20, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        # Ψ_a = a·φ at x and at -x
        plus = evaluate(a, x)[:, None] * x
        minus = evaluate(a, -x)[:, None] * -x
        assert np.max(np.abs(plus - minus)) < 1e-12


class TestBatchForms:
    def test_iso_and_lift_rows_match_scalar(self, rng):
        es = [random_assoc(rng) for _ in range(100)]
        gs = [random_su2(rng) for _ in es]
        g = np.array([[e.g.z0, e.g.z1] for e in es])
        v = np.array([e.v for e in es])
        base, fiber = iso_Phi_batch(g, v)
        moved = lift_tau_batch(np.array([[h.z0, h.z1] for h in gs]), base, fiber)
        for k, (e, h) in enumerate(zip(es, gs)):
            el = iso_Phi(e)
            assert base[k].tobytes() == el.base.rep.tobytes()
            assert fiber[k].tobytes() == el.fiber.tobytes()
            want = lift_tau(h, el)
            assert moved[0][k].tobytes() == want.base.rep.tobytes()
            assert moved[1][k].tobytes() == want.fiber.tobytes()
