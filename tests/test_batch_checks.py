"""Each batched harness check against the scalar loop it replaced.

The reference loops below are the per-sample check bodies as they were
written before the checks ran over batches; they use the one-object forms
frozen in ``scalar_reference`` (``random_su2`` there draws the retired
scalar ``SU2Element``, with its own product, matrix and negation).
For every rewritten check the batched body must consume its RNG stream
exactly as the loop does (same generator state afterwards) and give the same
residual: bit for bit where only the layout changed, and within a tolerance
fixed from float64 eps where a matmul, a batched evaluation or numpy's
complex kernels round differently.  A loop draws each sample as one row of
normals, as the harness does (see the ``checks`` module docstring), and
``_kept_rows`` is compared bit for bit with a loop drawing one row at a
time.  Each batched check must also stay within 2 MB of traced allocations
at the default configuration.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from rp2quant import bundles, classical, groups, heisenberg
from rp2quant._kernels import ylm_synthesize
from rp2quant.bundles import _module_grid_order
from rp2quant.berry_robbins import (
    BRState,
    TransportFrame,
    br_lift,
    recover_spin_generator,
    scalar_lift,
    total_generator_exact,
    total_generator_fd,
    transported_spin,
)
from rp2quant.checks import (
    _EXCHANGE_POINTS,
    REGISTRY,
    SUITES,
    SuiteConfig,
    _worst,
    _interior,
    _kept_rows,
    _wave_chunks,
    _unit,
    INTERIOR_MARGIN,
    _off_south_cap,
    check_rng,
)
from rp2quant.harmonics import (
    analyze,
    apply_L,
    evaluate,
    off_sector_mask,
    parity_decompose,
    random_coeffs,
    rotate_coeffs,
    rotate_stack,
    rotate_values,
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
    # the kind is one normal's sign, λ the phase of the next two
    kind = "diagonal" if rng.normal() < 0 else "antidiagonal"
    a, b = rng.normal(size=2)
    r = np.hypot(a, b)
    return HElement(kind, complex(a / r, b / r))


def _random_assoc(rng) -> ref.AssocElement:
    v = rng.normal() + 1j * rng.normal()
    return ref.AssocElement(random_su2(rng), v)


# The rejection-sampled points the manifold and berry-robbins loops draw.
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
        a, b = rng.normal(size=2)
        psi, n = np.arctan2(a, b) % (2 * np.pi), _random_axis(rng)
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
        near, s = rng.normal() >= 0, -1.0 if rng.normal() < 0 else 1.0
        y = rng.normal(size=3)
        if near:
            y = s * x + y * 1e-10
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


# The harmonics and rotation bodies as they were written on one table at a
# time: generators, as check bodies are, whose residual is the registry's
# ``_worst`` of what they yield.  Their elements are ``groups.random_su2``'s
# (2,) rows.
def _yielding(body):
    return functools.wraps(body)(lambda rng, cfg: _worst(body(rng, cfg)))


@_yielding
def ref_roundtrip(rng, cfg):
    lmax = min(cfg.lmax + 4, 12)
    grid = build_quadrature(lmax)
    for _ in range(5):
        a = random_coeffs(lmax, "full", rng)
        back = analyze(np.asarray(evaluate(a, grid.nodes)), lmax, grid)
        yield np.linalg.norm(back.c - a.c) / a.norm()


@_yielding
def ref_sector_closure(rng, cfg):
    # the sector is one normal's sign, odd where it is negative
    grid = build_quadrature(cfg.lmax)
    for _ in range(10):
        sector = "odd" if rng.normal() < 0 else "even"
        a = random_coeffs(cfg.lmax, sector, rng)
        raw = analyze(rotate_values(groups.random_su2(rng), a.c, grid.nodes), cfg.lmax, grid)
        even, odd = parity_decompose(raw)
        yield (odd if sector == "even" else even).norm()    # the leak out of the sector


@_yielding
def ref_rot_unitary(rng, cfg):
    for _ in range(10):
        a = random_coeffs(cfg.lmax, "full", rng)
        b = rotate_stack(groups.random_su2(rng), a.c)
        yield abs(np.linalg.norm(b) - a.norm())


@_yielding
def ref_ladder_algebra(rng, cfg):
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for _ in range(5):
        c = random_coeffs(cfg.lmax, "full", rng).c
        for (i, j), k in eps.items():
            comm = apply_L(i, apply_L(j, c)) - apply_L(j, apply_L(i, c))
            yield np.linalg.norm(comm - 1j * apply_L(k, c))


@_yielding
def ref_rot_wigner(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    for _ in range(10):
        g = groups.random_su2(rng)
        a = random_coeffs(cfg.lmax, "full", rng)
        rot = rotate_coeffs(g, a, grid)
        resampled = analyze(rotate_values(g, a.c, grid.nodes), cfg.lmax, grid)
        yield np.abs(rot.c - resampled.c)
        for l in range(1, min(cfg.lmax, 4) + 1):
            d = ref.symmetrized_power_d(l, g)
            want = d @ a.block(l)[::-1]      # blocks are m = -l..l, D rows m = +l..-l
            yield np.abs(rot.block(l)[::-1] - want)


@_yielding
def ref_act_u(rng, cfg):
    for _ in range(10):
        a = random_coeffs(cfg.lmax, "odd", rng)
        g1, g2 = groups.random_su2(rng), groups.random_su2(rng)
        seq = rotate_stack(g1, rotate_stack(g2, a.c))
        prod = rotate_stack(groups.su2_product(g1, g2), a.c)
        yield np.linalg.norm(seq - prod)
        yield abs(np.linalg.norm(seq) - a.norm())


@_yielding
def ref_fixed_basis(rng, cfg):
    lmax = min(cfg.lmax, 6) - 1
    for j in (0.5, 1.0):
        field_ = np.stack([random_coeffs(lmax, "full", rng).c for _ in range(int(2 * j) + 1)])
        for i in (1, 2, 3):
            yield np.abs(total_generator_fd(i, j, field_) - total_generator_exact(i, j, field_))


# The four heisenberg checks on a wave function as they looped over one shift
# or group element at a time, through the public single-call operators.
def _reference_packet(cfg):
    return heisenberg.gaussian_packet(cfg.grid_n, 20.0, 0.4, 1.0, 0.6, 1.0)


@_yielding
def ref_weyl(rng, cfg):
    psi = _reference_packet(cfg)
    for _ in range(20):
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        yield heisenberg.check_weyl_relation(a, b, psi)


@_yielding
def ref_weyl_swap(rng, cfg):
    psi = _reference_packet(cfg)
    for _ in range(10):
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        lhs = heisenberg.weyl_V(b, heisenberg.weyl_U(a, psi)).values
        rhs = heisenberg.weyl_U(a, heisenberg.weyl_V(b, psi)).values
        diff = lhs - np.exp(-1j * psi.hbar * a * b) * rhs
        yield np.linalg.norm(diff) / np.linalg.norm(psi.values)


@_yielding
def ref_rep_hom(rng, cfg):
    psi = _reference_packet(cfg)
    for _ in range(20):
        e1 = heisenberg.HeisenbergElement(
            rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
        )
        e2 = heisenberg.HeisenbergElement(
            rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
        )
        lhs = heisenberg.rep_heisenberg(e1, heisenberg.rep_heisenberg(e2, psi))
        rhs = heisenberg.rep_heisenberg(heisenberg.heisenberg_product(e1, e2), psi)
        yield np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(psi.values)


@_yielding
def ref_op_unitary(rng, cfg):
    psi = _reference_packet(cfg)
    for _ in range(20):
        yield abs(heisenberg.weyl_U(rng.uniform(-2, 2), psi).norm() - psi.norm())
        yield abs(heisenberg.weyl_V(rng.uniform(-4, 4), psi).norm() - psi.norm())


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
            sector = "odd" if rng.normal() < 0 else "even"
            table = random_coeffs(cfg.lmax, sector, rng).c
            draws.append((sector, table, random_su2(rng), random_su2(rng)))
        sectors, tables, g1s, g2s = zip(*draws)
        rotated = rotate_stack(np.array([(g.z0, g.z1) for g in g1s]), np.stack(tables))
        parities = exchange_parities(rotated)
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
        sector = "odd" if rng.normal() < 0 else "even"
        a = random_coeffs(cfg.lmax, sector, rng)
        for i in (1, 2, 3):
            worst = max(worst, float(generator_vs_ladder_residual(i, a.c)))
    return worst


def ref_intertwining(rng, cfg):
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(cfg.lmax, "odd", rng)
        worst = max(worst, float(np.max(check_intertwining(a.c))))    # the three axes
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
        # a sample is drawn whole, then redrawn whole if any of its points is on the cap
        x = _random_axis(rng)
        lam = rng.normal(size=3) + 1j * rng.normal(size=3)
        g1, g2 = random_su2(rng), random_su2(rng)
        if x[2] <= -0.8:
            continue
        st = BRState(x, lam)
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
        while True:     # a point, the scalar's (re, im) and g, redrawn whole on the cap
            x, lam, g = _random_axis(rng), rng.normal() + 1j * rng.normal(), random_su2(rng)
            if x[2] > -0.8:
                break
        st = BRState(x, [lam])
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
        while True:     # a point and λ's (re, im), redrawn whole outside the charts' interior
            x, lam = _random_axis(rng), rng.normal() + 1j * rng.normal()
            if np.min(np.abs(x)) > INTERIOR_MARGIN:
                break
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
    # one table at a time through the tuple-of-tables module maps, on the grid
    # both maps derive from the band (a table's and its triple's give one order)
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
    "analyze-evaluate-roundtrip": (ref_roundtrip, 0.0),
    "rotation-sector-closure": (ref_sector_closure, 0.0),
    "rotation-unitarity": (ref_rot_unitary, 0.0),
    "ladder-su2-algebra": (ref_ladder_algebra, 0.0),
    # the oracle's numpy complex powers and products on a stack of rows round
    # apart from the same operations on numpy scalars (the residual moves at
    # lmax 2); the stacked grid.project rounds apart from single projections
    # at lmax 16 and 24
    "rotation-wigner-cross-check": (ref_rot_wigner, REORDERED_TOL),
    "rotation-action-unitary-hom": (ref_act_u, 0.0),
    "fixed-basis-addition": (ref_fixed_basis, 0.0),
    "weyl-exchange-relation": (ref_weyl, 0.0),
    "weyl-phase-swap-sign": (ref_weyl_swap, 0.0),
    "representation-homomorphism": (ref_rep_hom, 0.0),
    "operator-unitarity": (ref_op_unitary, 0.0),
}
# the checks that keep a per-sample loop or draw nothing, each with the reason
LOOPED = {
    "quadrature-orthonormality": "draws nothing",
    "canonical-operator-unitarity": "act_canonical takes one (w, g, λ) element",
    "canonical-group-law": "check_group_law takes one pair of elements",
    "ccr-residual": "draws nothing",
    "two-route-quantization-gap": "draws nothing",
    "two-route-gap-grid-stability": "draws nothing",
    "symmetrized-square-expansion": "draws nothing",
    "halfline-translation-escape": "draws nothing",
}
CHECKS = {c.name: c for c in REGISTRY}


def test_every_check_is_rewritten_or_looped():
    # a new check must join REWRITTEN with its reference loop, or LOOPED with its reason
    names = {c.name for c in REGISTRY}
    assert not set(REWRITTEN) & set(LOOPED)
    assert names - set(REWRITTEN) - set(LOOPED) == set()
    assert set(REWRITTEN) | set(LOOPED) <= names
    assert {c.suite for c in REGISTRY} <= set(SUITES)


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
     ("product-associativity", 4100), ("axis-angle-cross-check", 4100),
     ("h-orbit-component-formulas", 4100), ("h-image-in-o2", 4100),
     ("iso-well-defined", 4100), ("quartic-embedding-components", 4100),
     ("frame-map-odd-unit", 4100), ("lift-composition-covering", 4100)],
)
def test_chunked_check_matches_reference_loop(name, samples):
    # more samples than one chunk holds: the chunks draw in stream order
    # (moment-injectivity's 10,000 pairs and exchange-statistics' chunks of a
    # few dozen samples cross chunks at any sample count)
    ref, tol = REWRITTEN[name]
    cfg = SuiteConfig(rng_seed=3, samples=samples)
    rng_ref, rng_new = check_rng(3, name), check_rng(3, name)
    want = float(ref(rng_ref, cfg))
    got = float(CHECKS[name].fn(rng_new, cfg))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize(
    "name", ["generator-vs-ladder", "section-intertwining", "su2-closure-fd", "exchange-statistics",
             "module-roundtrip", "analyze-evaluate-roundtrip", "rotation-sector-closure",
             "rotation-unitarity", "ladder-su2-algebra", "rotation-wigner-cross-check",
             "rotation-action-unitary-hom", "fixed-basis-addition"])
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


@pytest.mark.parametrize("name", ["weyl-exchange-relation", "weyl-phase-swap-sign",
                                  "representation-homomorphism", "operator-unitarity"])
@pytest.mark.parametrize("grid_n", [4096, 65536])
def test_wave_function_check_matches_reference_loop_across_chunks(name, grid_n):
    # 16 rows a chunk at N = 4096 and one at 65536: the chunks draw in stream order
    ref, tol = REWRITTEN[name]
    cfg = SuiteConfig(grid_n=grid_n, rng_seed=3)
    rng_ref, rng_new = check_rng(3, name), check_rng(3, name)
    want = float(ref(rng_ref, cfg))
    got = float(CHECKS[name].fn(rng_new, cfg))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize(
    "n, grid_n, sizes",
    [(20, 128, [20]), (20, 1024, [20]), (200, 1024, [64, 64, 64, 8]), (20, 4096, [16, 4]),
     (3, 65536, [1, 1, 1]), (3, 1 << 17, [1, 1, 1])],
)
def test_wave_chunks_hold_at_most_two_to_the_sixteen_entries(n, grid_n, sizes):
    assert list(_wave_chunks(n, grid_n)) == sizes
    # a chunk exceeds 2¹⁶ entries only where one wave function alone does
    assert all(rows * grid_n <= max(1 << 16, grid_n) for rows in sizes)


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


def _north_cap(rows):
    # keeps z > 0.8, a tenth of the sphere: rejects about 90 % of the points
    return _unit(rows[:, :3])[:, 2] > 0.8


def _polar_cap(rows):
    # keeps z > 0.98: rejects about 99 %, so most blocks keep few rows
    return _unit(rows[:, :3])[:, 2] > 0.98


def _rare_tail(rows):
    # P(normal > 1.2816) ≈ 0.1: rejects about 90 % of the rows
    return rows[:, 3] > 1.2816


def _row_loop(rng, n, width, ok):
    # the per-sample loop: one row of normals at a time until ok keeps it
    rows = []
    while len(rows) < n:
        row = rng.normal(size=width)
        if ok(row[None])[0]:
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("ok", [_interior, _off_south_cap, _north_cap])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_kept_points_match_scalar_loop(ok, n, seed):
    # the kept axes as the manifold and berry-robbins checks draw them, against
    # the per-point loop's, each scaled as _random_axis scales it
    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.array([v / np.linalg.norm(v) for v in _row_loop(ref, n, 3, ok)])
    got = _unit(_kept_rows(new, n, 3, ok))
    assert new.bit_generator.state == ref.bit_generator.state
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "ok, tail, keep",
    [(_off_south_cap, 6, None), (_interior, 2, None), (_north_cap, 2, None),
     (_polar_cap, 2, None), (_off_south_cap, 4, _rare_tail), (_north_cap, 14, _rare_tail)])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_kept_attempts_match_scalar_loop(ok, tail, keep, n, seed):
    # _kept_rows against the loop drawing one whole row (a point's three
    # normals, then tail more) at a time, kept when ok and keep both hold
    def flags(rows):
        return ok(rows) & (True if keep is None else keep(rows))

    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _row_loop(ref, n, 3 + tail, flags)
    got = _kept_rows(new, n, 3 + tail, flags)
    assert new.bit_generator.state == ref.bit_generator.state
    assert got.tobytes() == want.tobytes()


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
