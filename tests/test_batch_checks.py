"""Each batched harness check against the scalar loop it replaced.

The reference loops below are the per-sample check bodies as they were
written before the checks ran over batches; they use the one-object forms
frozen in ``scalar_reference`` (``random_su2`` there draws the retired
scalar ``SU2Element``, with its own product, matrix and negation).
For every rewritten check the batched body must consume its RNG stream
exactly as the loop does (same generator state afterwards) and give the same
residual: bit for bit where only the layout changed, and within a tolerance
fixed from float64 eps where a matmul, a batched evaluation or numpy's
complex kernels round differently.  The samples themselves are compared bit
for bit with those the scalar helpers draw.  Each batched check must
also stay within 2 MB of traced allocations at the default configuration.
"""

import tracemalloc

import numpy as np
import pytest

from rp2quant import bundles, classical, heisenberg
from rp2quant._kernels import ylm_synthesize
from rp2quant.berry_robbins import (
    BRState,
    TransportFrame,
    br_lift,
    recover_spin_generator,
    scalar_lift,
    transported_spin,
)
from rp2quant.checks import (
    _EXCHANGE_POINTS,
    REGISTRY,
    SuiteConfig,
    _assoc_and_h,
    _assoc_rows,
    _draw_rows,
    _h_rows,
    _haar_and_h,
    _interior,
    _kept_attempts,
    _kept_points,
    _module_grid_order,
    INTERIOR_MARGIN,
    _off_south_cap,
    check_rng,
)
from rp2quant.groups import su2_from_normals
from rp2quant.harmonics import (
    evaluate,
    off_sector_mask,
    random_coeffs,
    rotate_stack,
    unit,
    wigner_d,
)
from rp2quant.manifold import WFunctional, build_quadrature, f_from_moment, w_action
from rp2quant.representation import (
    check_intertwining,
    exchange_parities,
    generator_vs_ladder_residual,
    su2_closure_residual,
)
from tests import scalar_reference as ref
from tests.scalar_reference import (
    HElement,
    _random_axis,
    chart_coords,
    f_embedding,
    h_membership,
    moment_embedding,
    quotient_to_rp2,
    random_su2,
    rotation_from_axis_angle,
    rp2_point,
    spinor_map,
    su2_from_axis_angle,
    transition_function,
)

EPS = np.finfo(float).eps
# Residuals are maxima of |a - b| over quantities of size ≤ ~5 (unit-modulus
# products, section values times unit vectors); a different rounding order
# moves a and b by a few ulps each.
REORDERED_TOL = 64 * EPS
# no-obstruction pairs terms of size up to ~|A|²·|u|·|ψ| ≈ 1e2 with normal draws.
NO_OBSTRUCTION_TOL = 1024 * EPS
PEAK_BYTES = 2 * 1024 * 1024


# The H and associated-bundle ensembles the bundles and groups loops draw from.
def _random_h(rng) -> HElement:
    kind = "diagonal" if rng.random() < 0.5 else "antidiagonal"
    return HElement(kind, np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _random_assoc(rng) -> ref.AssocElement:
    v = rng.normal() + 1j * rng.normal()
    return ref.AssocElement(random_su2(rng), v)


# The rejection-sampled points the manifold, bundles and berry-robbins loops draw.
def _random_interior_point(rng):
    while True:
        v = _random_axis(rng)
        if np.min(np.abs(v)) > INTERIOR_MARGIN:
            return v


def _safe_point(rng):
    while True:
        v = _random_axis(rng)
        if v[2] > -0.8:
            return v


def ref_spinor_hom(rng, cfg):
    worst = 0.0
    for _ in range(1000):
        g1, g2 = random_su2(rng), random_su2(rng)
        gap = spinor_map(g1 * g2) - spinor_map(g1) @ spinor_map(g2)
        worst = max(worst, np.linalg.norm(gap))
    return worst


def ref_spinor_kernel(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g = random_su2(rng)
        worst = max(worst, np.max(np.abs(spinor_map(g) - spinor_map(-g))))
    return worst


def ref_axis_angle(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        psi, n = rng.uniform(0, 2 * np.pi), _random_axis(rng)
        gap = rotation_from_axis_angle(psi, n) - spinor_map(su2_from_axis_angle(psi, n))
        worst = max(worst, np.max(np.abs(gap)))
    return worst


def ref_h_closure(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        prod = _random_h(rng).embed() * _random_h(rng).embed()
        worst = max(worst, min(abs(prod.z0), abs(prod.z1)))
        if h_membership(prod) is None:
            worst = max(worst, 1.0)
    return worst


def ref_h_orbit(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g, h = random_su2(rng), _random_h(rng)
        out = g * h.embed()
        a, b, lam = g.z0, g.z1, h.lam
        if h.kind == "diagonal":
            want = (a * lam, b * lam)
        else:
            want = (-np.conj(b) * lam, np.conj(a) * lam)
        worst = max(worst, abs(out.z0 - want[0]), abs(out.z1 - want[1]))
    return worst


def ref_h_o2(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        h = _random_h(rng)
        r = spinor_map(h.embed())
        block = max(abs(r[0, 2]), abs(r[1, 2]), abs(r[2, 0]), abs(r[2, 1]))
        if h.kind == "diagonal":
            worst = max(worst, block, abs(r[2, 2] - 1.0),
                        abs(r[0, 0] - r[1, 1]), abs(r[0, 1] + r[1, 0]))
        else:
            worst = max(worst, block, abs(r[2, 2] + 1.0),
                        abs(r[0, 0] + r[1, 1]), abs(r[0, 1] - r[1, 0]))
    return worst


def ref_rp2_invariance(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g, h = random_su2(rng), _random_h(rng)
        p1 = quotient_to_rp2(g)
        p2 = quotient_to_rp2(g * h.embed())
        worst = max(worst, float(np.max(np.abs(p1.rep - p2.rep))))
    return worst


def ref_cocycle(rng, cfg):
    worst = 0.0
    for _ in range(1000):
        p = rp2_point(_random_interior_point(rng))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for c in (1, 2, 3):
                    gap = transition_function(a, b, p) * transition_function(
                        b, c, p
                    ) - transition_function(a, c, p)
                    worst = max(worst, abs(gap))
    return worst


def ref_moment_inject(rng, cfg):
    worst = 0.0
    for _ in range(10_000):
        x = _random_axis(rng)
        if rng.random() < 0.5:
            y = _random_axis(rng)
        else:
            s = -1.0 if rng.random() < 0.5 else 1.0
            y = s * x + rng.normal(size=3) * 1e-10
            y /= np.linalg.norm(y)
        if np.linalg.norm(moment_embedding(x) - moment_embedding(y)) < 1e-8:
            gap = np.max(np.abs(rp2_point(x).rep - rp2_point(y).rep))
            worst = max(worst, float(gap))
    return worst


def ref_iso_well_defined(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        e = _random_assoc(rng)
        e2 = ref.assoc_translate(e, _random_h(rng))
        el1, el2 = ref.iso_Phi(e), ref.iso_Phi(e2)
        worst = max(worst, float(np.max(np.abs(el1.base.rep - el2.base.rep))))
        worst = max(worst, float(np.max(np.abs(el1.fiber - el2.fiber))))
    return worst


def ref_lift_intertwine(rng, cfg):
    worst = 0.0
    for _ in range(200):
        g, e = random_su2(rng), _random_assoc(rng)
        via_assoc = ref.iso_Phi(ref.natural_lift(g, e))
        via_tau = ref.lift_tau(g, ref.iso_Phi(e))
        worst = max(worst, float(np.max(np.abs(via_assoc.fiber - via_tau.fiber))))
        worst = max(
            worst, float(np.max(np.abs(via_assoc.base.rep - via_tau.base.rep)))
        )
    return worst


def ref_lift_compose(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g1, g2 = random_su2(rng), random_su2(rng)
        el = ref.iso_Phi(_random_assoc(rng))
        seq = ref.lift_tau(g1, ref.lift_tau(g2, el))
        prod = ref.lift_tau(g1 * g2, el)
        worst = max(worst, float(np.max(np.abs(seq.fiber - prod.fiber))))
        covered = rp2_point(spinor_map(g1 * g2) @ el.base.rep)
        worst = max(worst, float(np.max(np.abs(prod.base.rep - covered.rep))))
    return worst


def ref_section_well_defined(rng, cfg):
    worst = 0.0
    a = random_coeffs(cfg.lmax, "odd", rng)
    for _ in range(cfg.samples):
        x = _random_axis(rng)
        plus = np.asarray(evaluate(a, x)) * bundles.phi(x)
        minus = np.asarray(evaluate(a, -x)) * bundles.phi(-x)
        worst = max(worst, float(np.max(np.abs(plus - minus))))
    return worst


def ref_antipodal(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    worst = 0.0
    for l in range(cfg.lmax + 1):
        a = unit(cfg.lmax, l, int(rng.integers(-l, l + 1)))
        plus = np.asarray(evaluate(a, grid.nodes))
        minus = np.asarray(evaluate(a, -grid.nodes))
        worst = max(worst, float(np.max(np.abs(minus - (-1.0) ** l * plus))))
    return worst


def ref_no_obstruction(rng, cfg):
    worst = 0.0
    pts = [ref.random_phase_point(rng) for _ in range(100)]
    for _ in range(1000):
        e1, e2 = ref.random_element(rng), ref.random_element(rng)
        worst = max(worst, ref.check_homomorphism(e1, e2, pts))
    return worst


def ref_wigner_hom(rng, cfg):
    worst = 0.0
    for _ in range(200):
        g1, g2 = random_su2(rng), random_su2(rng)
        for j in (0.5, 1.0, 1.5, 2.0):
            gap = wigner_d(j, g1 * g2) - wigner_d(j, g1) @ wigner_d(j, g2)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def ref_wigner_defining(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g = random_su2(rng)
        worst = max(worst, float(np.max(np.abs(wigner_d(0.5, g) - g.matrix()))))
        for j in (0.5, 1.0, 2.0):
            d = wigner_d(j, g)
            dim = d.shape[0]
            worst = max(worst, float(np.max(np.abs(d @ d.conj().T - np.eye(dim)))))
    return worst


def ref_exchange(rng, cfg):
    # one HarmonicCoeffs and two SU2Element objects per sample
    grid = build_quadrature(cfg.lmax)
    chunk = max(1, _EXCHANGE_POINTS // grid.n)
    worst = 0.0
    for first in range(0, cfg.samples, chunk):
        draws = []
        for _ in range(min(chunk, cfg.samples - first)):
            sector = "odd" if rng.random() < 0.5 else "even"
            table = random_coeffs(cfg.lmax, sector, rng).c
            draws.append((sector, table, random_su2(rng), random_su2(rng)))
        sectors, tables, g1s, g2s = zip(*draws)
        rotated = rotate_stack(np.array([(g.z0, g.z1) for g in g1s]), np.stack(tables))
        parities = exchange_parities(rotated, grid)
        wrong = np.flatnonzero(parities != [-1 if s == "odd" else 1 for s in sectors])
        if wrong.size:
            if parities[wrong[0]] == 0:
                raise ValueError("section is not an exchange eigenstate")
            return 1.0
        nodes = np.stack([grid.nodes @ spinor_map(g) for g in g2s])
        raw = grid.project(ylm_synthesize(nodes, cfg.lmax, np.stack(tables)), cfg.lmax)
        leak = np.where([off_sector_mask(cfg.lmax, s) for s in sectors], raw, 0.0)
        worst = max([worst] + [float(np.linalg.norm(row)) for row in leak])
    return worst


def ref_gen_vs_ladder(rng, cfg):
    worst = 0.0
    for _ in range(10):
        sector = "odd" if rng.random() < 0.5 else "even"
        a = random_coeffs(cfg.lmax, sector, rng)
        for i in (1, 2, 3):
            worst = max(worst, float(generator_vs_ladder_residual(i, a.c)))
    return worst


def ref_intertwining(rng, cfg):
    grid = build_quadrature(cfg.lmax + 1)
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(cfg.lmax, "odd", rng)
        worst = max(worst, float(np.max(check_intertwining(a.c, grid))))    # the three axes
    return worst


def ref_closure(rng, cfg):
    worst = 0.0
    for _ in range(3):
        worst = max(worst, float(su2_closure_residual(random_coeffs(cfg.lmax, "odd", rng).c)))
    return worst


def ref_transport_unitary(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        for _ in range(500):
            u = frame.unitary(_safe_point(rng))
            worst = max(
                worst, float(np.max(np.abs(u @ u.conj().T - np.eye(frame.dim))))
            )
    return worst


def ref_spin_props(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0, 1.5):
        frame = TransportFrame(j)
        want = np.arange(-j, j + 1)
        for _ in range(20):
            r = _safe_point(rng)
            mats = [transported_spin(i, r, frame) for i in (1, 2, 3)]
            for s in mats:
                ev = np.sort(np.linalg.eigvalsh(s))
                worst = max(worst, float(np.max(np.abs(ev - want))))
            comm = mats[0] @ mats[1] - mats[1] @ mats[0]
            worst = max(worst, float(np.max(np.abs(comm - 1j * mats[2]))))
    return worst


def ref_br_compose(rng, cfg):
    frame = TransportFrame(1.0)
    worst = 0.0
    done = 0
    while done < 200:
        st = BRState(_safe_point(rng), rng.normal(size=3) + 1j * rng.normal(size=3))
        g1, g2 = random_su2(rng), random_su2(rng)
        mid = spinor_map(g2) @ st.r
        end = spinor_map(g1) @ mid
        if mid[2] < -0.8 or end[2] < -0.8:
            continue
        lhs = br_lift(g1, br_lift(g2, st, frame), frame)
        rhs = br_lift(g1 * g2, st, frame)
        worst = max(worst, float(np.max(np.abs(lhs.lam - rhs.lam))))
        worst = max(worst, float(np.max(np.abs(lhs.r - rhs.r))))
        worst = max(
            worst, abs(np.linalg.norm(rhs.lam) - np.linalg.norm(st.lam))
        )
        done += 1
    return worst


def ref_br_recover(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        for _ in range(10):
            r = _safe_point(rng)
            for i in (1, 2, 3):
                gap = recover_spin_generator(i, r, frame) - transported_spin(
                    i, r, frame
                )
                worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def ref_j0_reduction(rng, cfg):
    frame = TransportFrame(0.0)
    for _ in range(cfg.samples):
        st = BRState(_safe_point(rng), [rng.normal() + 1j * rng.normal()])
        g = random_su2(rng)
        if (spinor_map(g) @ st.r)[2] < -0.8:
            continue
        lifted = br_lift(g, st, frame)
        scalar = scalar_lift(g, st)
        if not (
            np.array_equal(lifted.r, scalar.r)
            and np.array_equal(lifted.lam, scalar.lam)
        ):
            return 1.0
    return 0.0


def ref_assoc(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        es = [
            heisenberg.HeisenbergElement(
                rng.normal(size=2), rng.normal(size=2), rng.normal()
            )
            for _ in range(3)
        ]
        lhs = heisenberg.heisenberg_product(
            heisenberg.heisenberg_product(es[0], es[1]), es[2]
        )
        rhs = heisenberg.heisenberg_product(
            es[0], heisenberg.heisenberg_product(es[1], es[2])
        )
        worst = max(
            worst,
            float(np.max(np.abs(lhs.a - rhs.a))),
            float(np.max(np.abs(lhs.b - rhs.b))),
            abs(lhs.r - rhs.r),
        )
        inv = heisenberg.heisenberg_product(es[0], es[0].inverse())
        worst = max(worst, float(np.max(np.abs(inv.a))), abs(inv.r))
    return worst


def ref_p_linear(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        e1 = ref.random_element(rng)
        e2 = ref.random_element(rng)
        al, be = rng.normal(), rng.normal()
        combo = ref.SemidirectLieElement(
            WFunctional(al * e1.phi_w.c + be * e2.phi_w.c, 0.0),
            al * e1.A + be * e2.A,
        )
        pt = ref.random_phase_point(rng)
        gap = ref.P_observable(combo, pt) - (
            al * ref.P_observable(e1, pt) + be * ref.P_observable(e2, pt)
        )
        worst = max(worst, abs(gap))
    return worst


def ref_bracket_fd(rng, cfg):
    worst = 0.0
    for _ in range(50):
        e1, e2 = ref.random_element(rng), ref.random_element(rng)
        pt = ref.random_phase_point(rng)
        gap = ref.poisson_bracket(e1, e2, pt) - ref.poisson_bracket_fd(
            e1, e2, pt
        )
        worst = max(worst, abs(gap))
    return worst


def ref_jacobi(rng, cfg):
    worst = 0.0
    for _ in range(50):
        es = [ref.random_element(rng) for _ in range(3)]
        pt = ref.random_phase_point(rng)
        worst = max(worst, abs(ref.poisson_bracket(es[0], es[0], pt)))
        worst = max(
            worst,
            abs(
                ref.poisson_bracket(es[0], es[1], pt)
                + ref.poisson_bracket(es[1], es[0], pt)
            ),
        )
        cyc = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            cyc += ref.P_observable(
                ref.lie_bracket(ref.lie_bracket(es[i], es[j]), es[k]), pt
            )
        worst = max(worst, abs(cyc))
    return worst


def ref_w_even(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        c = classical.w_matrix(rng.normal(size=5))
        w = WFunctional(c, rng.normal())
        x = _random_axis(rng)
        worst = max(worst, abs(w(x) - w(-x)))
        worst = max(worst, abs(w(x) - w(rp2_point(x).rep)))
    return worst


def ref_chart_rep(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        v = _random_interior_point(rng)
        for alpha in (1, 2, 3):
            c1 = chart_coords(rp2_point(v), alpha)
            c2 = chart_coords(rp2_point(-v), alpha)
            worst = max(worst, abs(c1[0] - c2[0]), abs(c1[1] - c2[1]))
    return worst


def ref_f_components(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        v = _random_axis(rng)
        p = rp2_point(v)
        gap = f_embedding(p) - f_from_moment(moment_embedding(p.rep))
        worst = max(worst, np.max(np.abs(gap)))
        worst = max(worst, np.max(np.abs(f_embedding(p) - f_embedding(rp2_point(-v)))))
    return worst


def ref_moment_equiv(rng, cfg):
    worst = 0.0
    for _ in range(100):
        g, x = random_su2(rng), _random_axis(rng)
        r = spinor_map(g)
        gap = w_action(r, moment_embedding(x)) - moment_embedding(r @ x)
        worst = max(worst, np.max(np.abs(gap)))
    return worst


def ref_triv_transitions(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        x = _random_interior_point(rng)
        lam = rng.normal() + 1j * rng.normal()
        el = ref.LMinusElement(rp2_point(x), lam * bundles.phi(rp2_point(x).rep))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                _, ca = ref.local_trivialization(a, el)
                _, cb = ref.local_trivialization(b, el)
                sign = transition_function(b, a, el.base)
                worst = max(worst, abs(cb - sign * ca))
    return worst


def ref_projector_props(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        x = _random_axis(rng)
        p = bundles.projector(x)
        worst = max(worst, float(np.max(np.abs(p @ p - p))))
        worst = max(worst, float(np.max(np.abs(p - p.conj().T))))
        worst = max(worst, float(np.max(np.abs(bundles.projector(-x) - p))))
        g = random_su2(rng)
        r = spinor_map(g)
        worst = max(worst, float(np.max(np.abs(bundles.projector(r @ x) - r @ p @ r.T))))
    return worst


def ref_module_roundtrip(rng, cfg):
    # one table at a time through the tuple-of-tables module maps
    grid = build_quadrature(_module_grid_order(cfg.lmax))
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(cfg.lmax, "odd", rng)
        f = ref.module_iso_forward(a, grid)
        worst = max(worst, ref.projector_residual(f, grid))
        back = ref.module_iso_inverse(f, grid)
        worst = max(worst, float(np.linalg.norm(back.c[: a.c.size] - a.c)))
        worst = max(worst, float(np.linalg.norm(back.c[a.c.size :])))
    return worst


def ref_iso_roundtrip(rng, cfg):
    worst = 0.0
    for _ in range(100):
        el = ref.iso_Phi(_random_assoc(rng))
        back = ref.iso_Phi(ref.iso_Phi_inverse(el))
        worst = max(worst, float(np.max(np.abs(back.fiber - el.fiber))))
        worst = max(worst, float(np.max(np.abs(back.base.rep - el.base.rep))))
    return worst


def ref_kappa_mult(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        h1, h2 = _random_h(rng), _random_h(rng)
        prod = h_membership(h1.embed() * h2.embed())
        if prod is None:
            return 1.0
        worst = max(
            worst, abs(ref.kappa(prod) - ref.kappa(h1) * ref.kappa(h2))
        )
    return worst


def ref_phi_props(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        x = _random_axis(rng)
        worst = max(worst, float(np.max(np.abs(bundles.phi(-x) + bundles.phi(x)))))
        worst = max(worst, abs(np.linalg.norm(bundles.phi(x)) - 1.0))
    return worst


# name -> (reference loop, allowed |batched - reference|)
REWRITTEN = {
    "spinor-homomorphism": (ref_spinor_hom, 0.0),
    "spinor-double-cover-kernel": (ref_spinor_kernel, 0.0),
    "axis-angle-cross-check": (ref_axis_angle, 0.0),
    "h-subgroup-closure": (ref_h_closure, 0.0),
    # numpy's complex kernels against Python's complex product and abs
    "h-orbit-component-formulas": (ref_h_orbit, REORDERED_TOL),
    "h-image-in-o2": (ref_h_o2, 0.0),
    "rp2-h-invariance": (ref_rp2_invariance, 0.0),
    "transition-cocycle": (ref_cocycle, 0.0),
    "moment-injectivity": (ref_moment_inject, 0.0),
    "iso-well-defined": (ref_iso_well_defined, 0.0),
    "lift-intertwining": (ref_lift_intertwine, 0.0),
    "lift-composition-covering": (ref_lift_compose, 0.0),
    # one batched evaluate (a gemv over all points) against one per point
    "section-well-defined": (ref_section_well_defined, REORDERED_TOL),
    # all unit tables in one ylm_synthesize matmul per m, against one call each
    "antipodal-parity": (ref_antipodal, REORDERED_TOL),
    # pairings rewritten as matmuls; see test_no_obstruction_draws_match_elements
    "no-obstruction": (ref_no_obstruction, NO_OBSTRUCTION_TOL),
    "wigner-homomorphism": (ref_wigner_hom, 0.0),
    "wigner-defining-unitary": (ref_wigner_defining, 0.0),
    "exchange-statistics": (ref_exchange, 0.0),
    "generator-vs-ladder": (ref_gen_vs_ladder, 0.0),
    "section-intertwining": (ref_intertwining, 0.0),
    "su2-closure-fd": (ref_closure, 0.0),
    "transport-unitarity": (ref_transport_unitary, 0.0),
    "transported-spin-spectrum-algebra": (ref_spin_props, 0.0),
    "lift-composition": (ref_br_compose, 0.0),
    "generator-recovery": (ref_br_recover, 0.0),
    "spin-zero-reduction": (ref_j0_reduction, 0.0),
    "product-associativity": (ref_assoc, 0.0),
    "observable-linearity": (ref_p_linear, 0.0),
    "bracket-closed-vs-fd": (ref_bracket_fd, 0.0),
    "antisymmetry-jacobi": (ref_jacobi, 0.0),
    "w-functional-evenness": (ref_w_even, 0.0),
    "chart-representative-independence": (ref_chart_rep, 0.0),
    "quartic-embedding-components": (ref_f_components, 0.0),
    "moment-equivariance": (ref_moment_equiv, 0.0),
    "trivialization-transitions": (ref_triv_transitions, 0.0),
    "projector-properties": (ref_projector_props, 0.0),
    "module-roundtrip": (ref_module_roundtrip, 0.0),
    "iso-roundtrip": (ref_iso_roundtrip, 0.0),
    "kappa-multiplicative": (ref_kappa_mult, 0.0),
    "frame-map-odd-unit": (ref_phi_props, 0.0),
}
CHECKS = {c.name: c for c in REGISTRY}


@pytest.mark.parametrize("name", sorted(REWRITTEN))
@pytest.mark.parametrize("seed", [0, 7])
def test_batched_check_matches_reference_loop(name, seed):
    ref, tol = REWRITTEN[name]
    cfg = SuiteConfig(rng_seed=seed, samples=60)
    rng_ref, rng_new = check_rng(seed, name), check_rng(seed, name)
    want = float(ref(rng_ref, cfg))
    got = float(CHECKS[name].fn(rng_new, cfg))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize(
    "name, samples",
    [("spinor-double-cover-kernel", 4100), ("h-subgroup-closure", 4100),
     ("rp2-h-invariance", 4100), ("section-well-defined", 500),
     ("wigner-defining-unitary", 4100), ("spin-zero-reduction", 4100),
     ("observable-linearity", 4100), ("w-functional-evenness", 4100),
     ("trivialization-transitions", 4100), ("projector-properties", 4100),
     ("kappa-multiplicative", 4100), ("chart-representative-independence", 4100),
     ("product-associativity", 4100)],
)
def test_chunked_check_matches_reference_loop(name, samples):
    # more samples than one chunk holds: the chunks draw in stream order
    ref, tol = REWRITTEN[name]
    cfg = SuiteConfig(rng_seed=3, samples=samples)
    rng_ref, rng_new = check_rng(3, name), check_rng(3, name)
    want = float(ref(rng_ref, cfg))
    got = float(CHECKS[name].fn(rng_new, cfg))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize(
    "name", ["generator-vs-ladder", "section-intertwining", "su2-closure-fd", "exchange-statistics",
             "module-roundtrip"])
@pytest.mark.parametrize("lmax", [1, 2, 3, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_representation_check_matches_reference_loop_at_each_lmax(name, lmax, seed):
    # the harness's own sample counts; the honest low-lmax residuals included
    ref, tol = REWRITTEN[name]
    cfg = SuiteConfig(lmax=lmax, rng_seed=seed)
    rng_ref, rng_new = check_rng(seed, name), check_rng(seed, name)
    want = float(ref(rng_ref, cfg))
    got = float(CHECKS[name].fn(rng_new, cfg))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize("seed", [0, 7])
def test_spin_zero_reduction_is_exact(seed):
    name = "spin-zero-reduction"
    assert CHECKS[name].fn(check_rng(seed, name), SuiteConfig(rng_seed=seed)) == 0.0


@pytest.mark.parametrize("name", sorted(REWRITTEN))
def test_batched_check_memory_at_defaults(name):
    cfg = SuiteConfig()
    tracemalloc.start()
    try:
        CHECKS[name].fn(check_rng(cfg.rng_seed, name), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES, peak


def _north_cap(v):
    # keeps z > 0.8, a tenth of the sphere: rejects about 90 % of the points
    return v[:, 2] > 0.8


def _polar_cap(v):
    # keeps z > 0.98: rejects about 99 %, so short blocks hold no whole attempt
    return v[:, 2] > 0.98


def _scalar_point(ok):
    # the per-sample loop: one _random_axis at a time until ok keeps it
    def draw(rng):
        while True:
            v = _random_axis(rng)
            if ok(v[None])[0]:
                return v
    return draw


def _scalar_attempt(ok, tail, keep):
    # a point as _scalar_point draws it, then tail normals; redrawn whole until kept
    def draw(rng):
        while True:
            point, normals = _scalar_point(ok)(rng), rng.normal(size=tail)
            if keep is None or keep(point[None], normals[None])[0]:
                return np.concatenate([point, normals])
    return draw


def _rare_tail(points, tails):
    # P(normal > 1.2816) ≈ 0.1: rejects about 90 % of the attempts
    return tails[:, 0] > 1.2816


@pytest.mark.parametrize("ok", [_interior, _off_south_cap, _north_cap])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_kept_points_match_scalar_loop(ok, n, seed):
    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _draw_rows(ref, n, _scalar_point(ok))
    got = _kept_points(new, n, ok)
    assert new.bit_generator.state == ref.bit_generator.state
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "ok, tail, keep",
    [(_off_south_cap, 6, None), (_interior, 2, None), (_north_cap, 2, None),
     (_polar_cap, 2, None), (_off_south_cap, 4, _rare_tail), (_north_cap, 14, _rare_tail)])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_kept_attempts_match_scalar_loop(ok, tail, keep, n, seed):
    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _draw_rows(ref, n, _scalar_attempt(ok, tail, keep))
    got = _kept_attempts(new, n, ok, tail, keep)
    assert new.bit_generator.state == ref.bit_generator.state
    assert got.tobytes() == want.tobytes()


def _same_rows(rows, elements):
    want = np.array([[e.z0, e.z1] for e in elements])
    return rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_haar_and_h_draws_match_scalar_helpers(seed):
    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    pairs = [(random_su2(ref), _random_h(ref)) for _ in range(300)]
    draws = _draw_rows(new, 300, _haar_and_h)
    assert new.bit_generator.state == ref.bit_generator.state
    assert _same_rows(su2_from_normals(draws[:, :4]), [g for g, _ in pairs])
    assert _same_rows(_h_rows(draws[:, 4:]), [h.embed() for _, h in pairs])


@pytest.mark.parametrize("seed", [0, 7])
def test_assoc_and_h_draws_match_scalar_helpers(seed):
    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    pairs = [(_random_assoc(ref), _random_h(ref)) for _ in range(300)]
    draws = _draw_rows(new, 300, _assoc_and_h)
    assert new.bit_generator.state == ref.bit_generator.state
    g, v = _assoc_rows(draws)
    assert _same_rows(g, [e.g for e, _ in pairs])
    assert v.tobytes() == np.array([e.v for e, _ in pairs]).tobytes()
    assert _same_rows(_h_rows(draws[:, 6:]), [h.embed() for _, h in pairs])


def test_no_obstruction_draws_match_elements():
    # the same draws turned into objects by the scalar helpers, then checked as
    # one stack of pairs, give the batched check's residual bit for bit
    def from_elements(rng, cfg):
        pts = [ref.random_phase_point(rng) for _ in range(100)]
        pairs = [(ref.random_element(rng), ref.random_element(rng))
                 for _ in range(1000)]
        return ref.check_homomorphism(*zip(*pairs), pts)

    for seed in (0, 7):
        cfg = SuiteConfig(rng_seed=seed)
        want = from_elements(check_rng(seed, "no-obstruction"), cfg)
        got = CHECKS["no-obstruction"].fn(check_rng(seed, "no-obstruction"), cfg)
        assert got == want


def test_homomorphism_accepts_pair_stacks(rng):
    pts = [ref.random_phase_point(rng) for _ in range(30)]
    e1 = [ref.random_element(rng) for _ in range(40)]
    e2 = [ref.random_element(rng) for _ in range(40)]
    stacked = ref.check_homomorphism(e1, e2, pts)
    single = max(ref.check_homomorphism(a, b, pts) for a, b in zip(e1, e2))
    assert stacked == single
    assert stacked < 1e-12


def test_stacked_classical_forms_match_dataclass_rows():
    # row k of each stacked form equals the dataclass call on row k bit for bit
    rng = np.random.default_rng(11)
    n = 64
    e1 = [ref.random_element(rng) for _ in range(n)]
    e2 = [ref.random_element(rng) for _ in range(n)]
    pts = [ref.random_phase_point(rng) for _ in range(n)]
    c1, a1 = np.stack([e.phi_w.c for e in e1]), np.stack([e.A for e in e1])
    c2, a2 = np.stack([e.phi_w.c for e in e2]), np.stack([e.A for e in e2])
    u, psi = np.stack([p.u for p in pts]), np.stack([p.psi.c for p in pts])
    observable = classical.P_observable(c1, a1, u, psi)
    closed = classical.poisson_bracket(c1, a1, c2, a2, u, psi)
    fd = classical.poisson_bracket_fd(c1, a1, c2, a2, u, psi)
    bracket_c, bracket_a = classical.lie_bracket(c1, a1, c2, a2)
    coords = classical.w_coords(u)
    for k in range(n):
        assert observable[k] == ref.P_observable(e1[k], pts[k])
        assert closed[k] == ref.poisson_bracket(e1[k], e2[k], pts[k])
        assert fd[k] == ref.poisson_bracket_fd(e1[k], e2[k], pts[k])
        want = ref.lie_bracket(e1[k], e2[k])
        assert bracket_c[k].tobytes() == want.phi_w.c.tobytes()
        assert bracket_a[k].tobytes() == want.A.tobytes()
        assert coords[k].tobytes() == classical.w_coords(u[k]).tobytes()
