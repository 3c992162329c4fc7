"""Registry of the verification checks run by the command-line harness.

Each check draws from its own RNG stream (derived from the master seed and a
stable hash of the check name, so results do not depend on execution order),
computes a residual, and is compared against its pinned tolerance.  Checks
are grouped into suites mirroring the package modules.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import bundles, classical, heisenberg
from .berry_robbins import (
    BRState,
    SpinorField,
    br_lift,
    default_transport,
    recover_spin_generator,
    scalar_lift,
    total_generator_exact,
    total_generator_fd,
    transported_spin,
)
from .errors import ConfigError
from .groups import (
    HElement,
    h_membership,
    h_orbit_action,
    quotient_to_rp2,
    random_su2,
    rotation_from_axis_angle,
    rp2_point,
    spinor_map,
    su2_from_axis_angle,
)
from .harmonics import (
    HarmonicCoeffs,
    analyze,
    apply_L,
    evaluate,
    parity_decompose,
    random_coeffs,
    rotate_coeffs,
    rotate_values,
    unit,
    wigner_d,
)
from .manifold import (
    QuadratureGrid,
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
from .representation import (
    Section,
    act_U,
    act_canonical,
    check_group_law,
    check_intertwining,
    exchange_parity,
    generator_vs_ladder_residual,
    log_uniform_grid,
    separable_section,
    su2_closure_residual,
)

SUITES = (
    "groups",
    "manifold",
    "harmonics",
    "bundles",
    "representation",
    "classical",
    "heisenberg",
    "berry-robbins",
)


@dataclass(frozen=True)
class SuiteConfig:
    lmax: int = 8
    grid_n: int = 1024
    radial_nodes: int = 64
    samples: int = 200
    rng_seed: int = 0
    tol_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (1 <= self.lmax <= 32):
            raise ConfigError("lmax must lie in [1, 32]")
        if self.grid_n <= 0 or self.grid_n & (self.grid_n - 1):
            raise ConfigError("grid_n must be a positive power of two")
        if self.radial_nodes < 8:
            raise ConfigError("radial_nodes must be at least 8")
        if self.samples <= 0:
            raise ConfigError("samples must be positive")


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    anchor: str
    tolerance: float
    fn: object


REGISTRY: list[Check] = []


def register(suite: str, name: str, anchor: str, tolerance: float):
    def deco(fn):
        REGISTRY.append(Check(name, suite, anchor, tolerance, fn))
        return fn

    return deco


def check_rng(master_seed: int, name: str) -> np.random.Generator:
    """Per-check stream: master seed mixed with a stable hash of the name."""
    digest = hashlib.sha256(name.encode()).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng([master_seed & 0xFFFFFFFFFFFFFFFF, tag])


_GRID_CACHE: dict[int, QuadratureGrid] = {}


def _grid(lmax: int) -> QuadratureGrid:
    if lmax not in _GRID_CACHE:
        _GRID_CACHE[lmax] = build_quadrature(lmax)
    return _GRID_CACHE[lmax]


def _random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_h(rng) -> HElement:
    kind = "diagonal" if rng.random() < 0.5 else "antidiagonal"
    return HElement(kind, np.exp(1j * rng.uniform(0, 2 * np.pi)))


# ---------------------------------------------------------------- groups

@register("groups", "spinor-homomorphism", "su2-so3-double-cover", 1e-12)
def _spinor_hom(rng, cfg):
    worst = 0.0
    for _ in range(1000):
        g1, g2 = random_su2(rng), random_su2(rng)
        gap = spinor_map(g1 * g2) - spinor_map(g1) @ spinor_map(g2)
        worst = max(worst, np.linalg.norm(gap))
    return worst


@register("groups", "spinor-double-cover-kernel", "su2-so3-double-cover", 1e-15)
def _spinor_kernel(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g = random_su2(rng)
        worst = max(worst, np.max(np.abs(spinor_map(g) - spinor_map(-g))))
    return worst


@register("groups", "axis-angle-cross-check", "rodrigues-vs-spinor-map", 1e-12)
def _axis_angle(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        psi, n = rng.uniform(0, 2 * np.pi), _random_axis(rng)
        gap = rotation_from_axis_angle(psi, n) - spinor_map(su2_from_axis_angle(psi, n))
        worst = max(worst, np.max(np.abs(gap)))
    return worst


@register("groups", "h-subgroup-closure", "stabilizer-subgroup-closure", 1e-12)
def _h_closure(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        prod = _random_h(rng).embed() * _random_h(rng).embed()
        # distance from H = size of the entry that should vanish
        worst = max(worst, min(abs(prod.z0), abs(prod.z1)))
        if h_membership(prod) is None:
            worst = max(worst, 1.0)
    return worst


@register("groups", "h-orbit-component-formulas", "stabilizer-orbit-products", 1e-13)
def _h_orbit(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g, h = random_su2(rng), _random_h(rng)
        out = h_orbit_action(g, h)
        a, b, lam = g.z0, g.z1, h.lam
        if h.kind == "diagonal":
            want = (a * lam, b * lam)
        else:
            want = (-np.conj(b) * lam, np.conj(a) * lam)
        worst = max(worst, abs(out.z0 - want[0]), abs(out.z1 - want[1]))
    return worst


@register("groups", "h-image-in-o2", "stabilizer-image-in-so3", 1e-12)
def _h_o2(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        h = _random_h(rng)
        r = spinor_map(h.embed())
        block = max(abs(r[0, 2]), abs(r[1, 2]), abs(r[2, 0]), abs(r[2, 1]))
        if h.kind == "diagonal":
            # rotation about e3: orthogonal 2x2 block with det +1, R33 = 1
            worst = max(worst, block, abs(r[2, 2] - 1.0),
                        abs(r[0, 0] - r[1, 1]), abs(r[0, 1] + r[1, 0]))
        else:
            # reflection-type component: R33 = -1, symmetric traceless block
            worst = max(worst, block, abs(r[2, 2] + 1.0),
                        abs(r[0, 0] + r[1, 1]), abs(r[0, 1] - r[1, 0]))
    return worst


@register("groups", "rp2-h-invariance", "projective-quotient-invariance", 1e-12)
def _rp2_invariance(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g, h = random_su2(rng), _random_h(rng)
        p1 = quotient_to_rp2(g)
        p2 = quotient_to_rp2(h_orbit_action(g, h))
        worst = max(worst, float(np.max(np.abs(p1.rep - p2.rep))))
    return worst


# -------------------------------------------------------------- manifold

def _random_interior_point(rng, margin=0.05) -> np.ndarray:
    while True:
        v = _random_axis(rng)
        if np.min(np.abs(v)) > margin:
            return v


@register("manifold", "transition-cocycle", "chart-transition-signs", 1e-15)
def _cocycle(rng, cfg):
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


@register("manifold", "chart-representative-independence", "chart-transition-signs", 1e-13)
def _chart_rep(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        v = _random_interior_point(rng)
        for alpha in (1, 2, 3):
            c1 = chart_coords(rp2_point(v), alpha)
            c2 = chart_coords(rp2_point(-v), alpha)
            worst = max(worst, abs(c1[0] - c2[0]), abs(c1[1] - c2[1]))
    return worst


@register("manifold", "moment-injectivity", "projective-orbit-embedding", 1e-6)
def _moment_inject(rng, cfg):
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


@register("manifold", "moment-equivariance", "linear-action-on-orbit", 1e-12)
def _moment_equiv(rng, cfg):
    worst = 0.0
    for _ in range(100):
        g, x = random_su2(rng), _random_axis(rng)
        r = spinor_map(g)
        gap = w_action(r, moment_embedding(x)) - moment_embedding(r @ x)
        worst = max(worst, np.max(np.abs(gap)))
    return worst


@register("manifold", "quartic-embedding-components", "even-quadratic-embedding", 1e-14)
def _f_components(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        v = _random_axis(rng)
        p = rp2_point(v)
        gap = f_embedding(p) - f_from_moment(moment_embedding(p.rep))
        worst = max(worst, np.max(np.abs(gap)))
        worst = max(worst, np.max(np.abs(f_embedding(p) - f_embedding(rp2_point(-v)))))
    return worst


@register("manifold", "quadrature-orthonormality", "sphere-quadrature-exactness", 1e-10)
def _quad_ortho(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    basis = grid.basis(cfg.lmax)
    gram = (basis.conj() * grid.weights[:, None]).T @ basis
    worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    worst = max(worst, abs(float(np.sum(grid.weights)) - 4 * np.pi))
    return worst


@register("manifold", "w-functional-evenness", "orbit-functionals", 1e-15)
def _w_even(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        c = classical.w_matrix(rng.normal(size=5))
        w = WFunctional(c, rng.normal())
        x = _random_axis(rng)
        worst = max(worst, abs(w(x) - w(-x)))
        worst = max(worst, abs(w(x) - eval_w(w, rp2_point(x))))
    return worst


# ------------------------------------------------------------- harmonics

@register("harmonics", "analyze-evaluate-roundtrip", "harmonic-transform-pair", 1e-10)
def _roundtrip(rng, cfg):
    lmax = min(cfg.lmax + 4, 12)
    grid = _grid(lmax)
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(lmax, "full", rng)
        back = analyze(np.asarray(evaluate(a, grid.nodes)), lmax, grid)
        worst = max(worst, float(np.linalg.norm(back.c - a.c) / a.norm()))
    return worst


@register("harmonics", "antipodal-parity", "parity-split-of-sphere-functions", 1e-10)
def _antipodal(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for l in range(cfg.lmax + 1):
        m = int(rng.integers(-l, l + 1))
        a = unit(cfg.lmax, l, m)
        plus = np.asarray(evaluate(a, grid.nodes))
        minus = np.asarray(evaluate(a, -grid.nodes))
        worst = max(worst, float(np.max(np.abs(minus - (-1.0) ** l * plus))))
    return worst


@register("harmonics", "rotation-sector-closure", "parity-split-of-sphere-functions", 1e-10)
def _sector_closure(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        sector = "even" if rng.random() < 0.5 else "odd"
        a = random_coeffs(cfg.lmax, sector, rng)
        raw = analyze(rotate_values(random_su2(rng), a, grid.nodes), cfg.lmax, grid)
        even, odd = parity_decompose(raw)
        leak = odd if sector == "even" else even
        worst = max(worst, leak.norm())
    return worst


@register("harmonics", "rotation-unitarity", "rotation-resampling", 1e-10)
def _rot_unitary(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        a = random_coeffs(cfg.lmax, "full", rng)
        b = rotate_coeffs(random_su2(rng), a, grid)
        worst = max(worst, abs(b.norm() - a.norm()))
    return worst


@register("harmonics", "ladder-su2-algebra", "angular-momentum-ladders", 1e-12)
def _ladder_algebra(rng, cfg):
    worst = 0.0
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for _ in range(5):
        a = random_coeffs(cfg.lmax, "full", rng)
        for (i, j), k in eps.items():
            comm = apply_L(i, apply_L(j, a)).c - apply_L(j, apply_L(i, a)).c
            worst = max(worst, float(np.linalg.norm(comm - 1j * apply_L(k, a).c)))
    return worst


@register("harmonics", "rotation-wigner-cross-check", "wigner-matrix-blocks", 1e-9)
def _rot_wigner(rng, cfg):
    # the coefficient route against resampling on every degree, and against
    # the symmetrized-power Wigner matrices where those exist (l ≤ 4)
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        g = random_su2(rng)
        a = random_coeffs(cfg.lmax, "full", rng)
        rot = rotate_coeffs(g, a, grid)
        resampled = analyze(rotate_values(g, a, grid.nodes), cfg.lmax, grid)
        worst = max(worst, float(np.max(np.abs(rot.c - resampled.c))))
        for l in range(1, min(cfg.lmax, 4) + 1):
            d = wigner_d(l, g)
            want = d @ a.block(l)[::-1]      # blocks are m = -l..l, D rows m = +l..-l
            worst = max(worst, float(np.max(np.abs(rot.block(l)[::-1] - want))))
    return worst


@register("harmonics", "wigner-homomorphism", "wigner-matrix-products", 1e-11)
def _wigner_hom(rng, cfg):
    worst = 0.0
    for _ in range(200):
        g1, g2 = random_su2(rng), random_su2(rng)
        for j in (0.5, 1.0, 1.5, 2.0):
            gap = wigner_d(j, g1 * g2) - wigner_d(j, g1) @ wigner_d(j, g2)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


@register("harmonics", "wigner-defining-unitary", "wigner-matrix-products", 1e-12)
def _wigner_defining(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g = random_su2(rng)
        worst = max(worst, float(np.max(np.abs(wigner_d(0.5, g) - g.matrix()))))
        for j in (0.5, 1.0, 2.0):
            d = wigner_d(j, g)
            dim = d.shape[0]
            worst = max(worst, float(np.max(np.abs(d @ d.conj().T - np.eye(dim)))))
    return worst


# --------------------------------------------------------------- bundles

@register("bundles", "kappa-multiplicative", "stabilizer-character", 1e-15)
def _kappa_mult(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        h1, h2 = _random_h(rng), _random_h(rng)
        prod = h_membership(h1.embed() * h2.embed())
        if prod is None:
            return 1.0
        worst = max(
            worst, abs(bundles.kappa(prod) - bundles.kappa(h1) * bundles.kappa(h2))
        )
    return worst


@register("bundles", "frame-map-odd-unit", "odd-frame-map", 1e-12)
def _phi_props(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        x = _random_axis(rng)
        worst = max(worst, float(np.max(np.abs(bundles.phi(-x) + bundles.phi(x)))))
        worst = max(worst, abs(np.linalg.norm(bundles.phi(x)) - 1.0))
    return worst


def _random_assoc(rng) -> bundles.AssocElement:
    v = rng.normal() + 1j * rng.normal()
    return bundles.AssocElement(random_su2(rng), v)


@register("bundles", "iso-well-defined", "bundle-isomorphism", 1e-12)
def _iso_well_defined(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        e = _random_assoc(rng)
        e2 = bundles.assoc_translate(e, _random_h(rng))
        el1, el2 = bundles.iso_Phi(e), bundles.iso_Phi(e2)
        worst = max(worst, float(np.max(np.abs(el1.base.rep - el2.base.rep))))
        worst = max(worst, float(np.max(np.abs(el1.fiber - el2.fiber))))
    return worst


@register("bundles", "iso-roundtrip", "bundle-isomorphism", 1e-10)
def _iso_roundtrip(rng, cfg):
    worst = 0.0
    for _ in range(100):
        el = bundles.iso_Phi(_random_assoc(rng))
        back = bundles.iso_Phi(bundles.iso_Phi_inverse(el))
        worst = max(worst, float(np.max(np.abs(back.fiber - el.fiber))))
        worst = max(worst, float(np.max(np.abs(back.base.rep - el.base.rep))))
    return worst


@register("bundles", "lift-intertwining", "lift-transport-conjugation", 1e-10)
def _lift_intertwine(rng, cfg):
    worst = 0.0
    for _ in range(200):
        g, e = random_su2(rng), _random_assoc(rng)
        via_assoc = bundles.iso_Phi(bundles.natural_lift(g, e))
        via_tau = bundles.lift_tau(g, bundles.iso_Phi(e))
        worst = max(worst, float(np.max(np.abs(via_assoc.fiber - via_tau.fiber))))
        worst = max(
            worst, float(np.max(np.abs(via_assoc.base.rep - via_tau.base.rep)))
        )
    return worst


@register("bundles", "lift-composition-covering", "lift-transport-conjugation", 1e-10)
def _lift_compose(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        g1, g2 = random_su2(rng), random_su2(rng)
        el = bundles.iso_Phi(_random_assoc(rng))
        seq = bundles.lift_tau(g1, bundles.lift_tau(g2, el))
        prod = bundles.lift_tau(g1 * g2, el)
        worst = max(worst, float(np.max(np.abs(seq.fiber - prod.fiber))))
        covered = rp2_point(spinor_map(g1 * g2) @ el.base.rep)
        worst = max(worst, float(np.max(np.abs(prod.base.rep - covered.rep))))
    return worst


@register("bundles", "trivialization-transitions", "chart-transition-signs", 1e-12)
def _triv_transitions(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        x = _random_interior_point(rng)
        lam = rng.normal() + 1j * rng.normal()
        el = bundles.LMinusElement(rp2_point(x), lam * bundles.phi(rp2_point(x).rep))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                _, ca = bundles.local_trivialization(a, el)
                _, cb = bundles.local_trivialization(b, el)
                sign = transition_function(b, a, el.base)
                worst = max(worst, abs(cb - sign * ca))
    return worst


@register("bundles", "projector-properties", "tautological-projector", 1e-13)
def _projector_props(rng, cfg):
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


@register("bundles", "module-roundtrip", "projective-module-isomorphism", 1e-9)
def _module_roundtrip(rng, cfg):
    grid = _grid(cfg.lmax + 1)
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(cfg.lmax, "odd", rng)
        f = bundles.module_iso_forward(a, grid)
        worst = max(worst, bundles.projector_residual(f, grid))
        back = bundles.module_iso_inverse(f, grid)
        gap = back.c[: a.c.size] - a.c
        worst = max(worst, float(np.linalg.norm(gap)))
        worst = max(worst, float(np.linalg.norm(back.c[a.c.size :])))
    return worst


@register("bundles", "section-well-defined", "odd-sections-from-functions", 1e-12)
def _section_well_defined(rng, cfg):
    worst = 0.0
    a = random_coeffs(cfg.lmax, "odd", rng)
    for _ in range(cfg.samples):
        x = _random_axis(rng)
        plus = np.asarray(evaluate(a, x)) * bundles.phi(x)
        minus = np.asarray(evaluate(a, -x)) * bundles.phi(-x)
        worst = max(worst, float(np.max(np.abs(plus - minus))))
    return worst


# -------------------------------------------------------- representation

def _random_section(rng, cfg, sector="odd") -> Section:
    return Section(random_coeffs(cfg.lmax, sector, rng), "minus" if sector == "odd" else "plus")


@register("representation", "generator-vs-ladder", "orbital-generator-match", 1e-8)
def _gen_vs_ladder(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        sector = "odd" if rng.random() < 0.5 else "even"
        s = _random_section(rng, cfg, sector)
        for i in (1, 2, 3):
            worst = max(worst, generator_vs_ladder_residual(i, s, grid))
    return worst


@register("representation", "section-intertwining", "generator-intertwines-module-map", 1e-7)
def _intertwining(rng, cfg):
    grid = _grid(cfg.lmax + 1)
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(cfg.lmax, "odd", rng)
        for i in (1, 2, 3):
            worst = max(worst, check_intertwining(i, a, grid))
    return worst


@register("representation", "su2-closure-fd", "generator-commutators", 1e-6)
def _closure(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(3):
        s = _random_section(rng, cfg, "odd")
        worst = max(worst, su2_closure_residual(s, grid))
    return worst


@register("representation", "rotation-action-unitary-hom", "induced-rotation-action", 1e-9)
def _act_u(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        s = _random_section(rng, cfg, "odd")
        g1, g2 = random_su2(rng), random_su2(rng)
        seq = act_U(g1, act_U(g2, s, grid), grid)
        prod = act_U(g1 * g2, s, grid)
        worst = max(worst, float(np.linalg.norm(seq.a.c - prod.a.c)))
        worst = max(worst, abs(seq.a.norm() - s.a.norm()))
    return worst


def _canonical_ensemble(rng, cfg):
    # window wide enough that composed dilations never wrap tail mass
    radial = log_uniform_grid(0.0625, 32.0, cfg.radial_nodes)
    u = np.log(radial.nodes)
    profile = np.exp(-((u - 0.347) ** 2) / (2 * 0.4**2))
    c = np.array(random_coeffs(cfg.lmax, "odd", rng).c)
    cut = min(25, c.size)
    c[cut:] = 0.0                      # low-degree content keeps phases in band
    c /= np.linalg.norm(c)
    a = HarmonicCoeffs(cfg.lmax, "odd", c)
    fs = separable_section(radial, profile, a)

    def element():
        cm = classical.w_matrix(rng.normal(size=5))
        cm *= 0.0025 / np.linalg.norm(cm)
        w = WFunctional(cm, rng.normal() * 0.05)
        lam = float(np.exp(rng.uniform(-0.13, 0.13)))
        return (w, random_su2(rng), lam)

    return fs, element


@register("representation", "canonical-operator-unitarity", "canonical-operator-action", 1e-6)
def _canonical_unitary(rng, cfg):
    grid = _grid(cfg.lmax)
    fs, element = _canonical_ensemble(rng, cfg)
    worst = 0.0
    for _ in range(5):
        out = act_canonical(*element(), fs, grid)
        worst = max(worst, abs(out.norm() - fs.norm()) / fs.norm())
    return worst


@register("representation", "canonical-group-law", "semidirect-composition", 1e-6)
def _canonical_law(rng, cfg):
    grid = _grid(cfg.lmax)
    fs, element = _canonical_ensemble(rng, cfg)
    worst = 0.0
    for _ in range(5):
        worst = max(worst, check_group_law(element(), element(), fs, grid))
    return worst


@register("representation", "exchange-statistics", "parity-statistics-bookkeeping", 1e-10)
def _exchange(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(200):
        sector = "odd" if rng.random() < 0.5 else "even"
        s = _random_section(rng, cfg, sector)
        rotated = act_U(random_su2(rng), s, grid)
        want = -1 if sector == "odd" else 1
        if exchange_parity(rotated, grid) != want:
            return 1.0
        raw = analyze(
            rotate_values(random_su2(rng), s.a, grid.nodes), cfg.lmax, grid
        )
        even, odd = parity_decompose(raw)
        leak = odd if sector == "even" else even
        worst = max(worst, leak.norm())
    return worst


# -------------------------------------------------------------- classical

@register("classical", "observable-linearity", "lie-algebra-to-observables", 1e-12)
def _p_linear(rng, cfg):
    worst = 0.0
    for _ in range(cfg.samples):
        e1 = classical.random_element(rng)
        e2 = classical.random_element(rng)
        al, be = rng.normal(), rng.normal()
        combo = classical.SemidirectLieElement(
            WFunctional(al * e1.phi_w.c + be * e2.phi_w.c, 0.0),
            al * e1.A + be * e2.A,
        )
        pt = classical.random_phase_point(rng)
        gap = classical.P_observable(combo, pt) - (
            al * classical.P_observable(e1, pt) + be * classical.P_observable(e2, pt)
        )
        worst = max(worst, abs(gap))
    return worst


@register("classical", "bracket-closed-vs-fd", "canonical-bracket", 1e-7)
def _bracket_fd(rng, cfg):
    worst = 0.0
    for _ in range(50):
        e1, e2 = classical.random_element(rng), classical.random_element(rng)
        pt = classical.random_phase_point(rng)
        gap = classical.poisson_bracket(e1, e2, pt) - classical.poisson_bracket_fd(
            e1, e2, pt
        )
        worst = max(worst, abs(gap))
    return worst


@register("classical", "no-obstruction", "bracket-homomorphism", 1e-9)
def _no_obstruction(rng, cfg):
    worst = 0.0
    pts = [classical.random_phase_point(rng) for _ in range(100)]
    for _ in range(1000):
        e1, e2 = classical.random_element(rng), classical.random_element(rng)
        worst = max(worst, classical.check_homomorphism(e1, e2, pts))
    return worst


@register("classical", "antisymmetry-jacobi", "bracket-homomorphism", 1e-8)
def _jacobi(rng, cfg):
    worst = 0.0
    for _ in range(50):
        es = [classical.random_element(rng) for _ in range(3)]
        pt = classical.random_phase_point(rng)
        worst = max(worst, abs(classical.poisson_bracket(es[0], es[0], pt)))
        worst = max(
            worst,
            abs(
                classical.poisson_bracket(es[0], es[1], pt)
                + classical.poisson_bracket(es[1], es[0], pt)
            ),
        )
        cyc = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            cyc += classical.P_observable(
                classical.lie_bracket(classical.lie_bracket(es[i], es[j]), es[k]), pt
            )
        worst = max(worst, abs(cyc))
    return worst


# -------------------------------------------------------------- heisenberg

def _packet(cfg, x0=0.4, sigma=1.0, k0=0.6, hbar=1.0):
    return heisenberg.gaussian_packet(cfg.grid_n, 20.0, x0, sigma, k0, hbar)


@register("heisenberg", "ccr-residual", "position-momentum-commutator", 1e-8)
def _ccr(rng, cfg):
    psi = _packet(cfg)
    comm = heisenberg.op_q(heisenberg.op_p(psi)).values - heisenberg.op_p(
        heisenberg.op_q(psi)
    ).values
    return float(
        np.linalg.norm(comm - 1j * psi.hbar * psi.values) / np.linalg.norm(psi.values)
    )


@register("heisenberg", "weyl-exchange-relation", "weyl-exchange-phase", 1e-9)
def _weyl(rng, cfg):
    psi = _packet(cfg)
    worst = 0.0
    for _ in range(20):
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        worst = max(worst, heisenberg.check_weyl_relation(a, b, psi))
    return worst


@register("heisenberg", "weyl-phase-swap-sign", "weyl-exchange-phase", 1e-9)
def _weyl_swap(rng, cfg):
    psi = _packet(cfg)
    worst = 0.0
    for _ in range(10):
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        lhs = heisenberg.weyl_V(b, heisenberg.weyl_U(a, psi)).values
        rhs = heisenberg.weyl_U(a, heisenberg.weyl_V(b, psi)).values
        diff = lhs - np.exp(-1j * psi.hbar * a * b) * rhs
        worst = max(worst, float(np.linalg.norm(diff) / np.linalg.norm(psi.values)))
    return worst


@register("heisenberg", "representation-homomorphism", "heisenberg-representation", 1e-9)
def _rep_hom(rng, cfg):
    psi = _packet(cfg)
    worst = 0.0
    for _ in range(20):
        e1 = heisenberg.HeisenbergElement(
            rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
        )
        e2 = heisenberg.HeisenbergElement(
            rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
        )
        lhs = heisenberg.rep_heisenberg(e1, heisenberg.rep_heisenberg(e2, psi))
        rhs = heisenberg.rep_heisenberg(heisenberg.heisenberg_product(e1, e2), psi)
        worst = max(
            worst,
            float(np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(psi.values)),
        )
    return worst


@register("heisenberg", "operator-unitarity", "heisenberg-representation", 1e-10)
def _op_unitary(rng, cfg):
    psi = _packet(cfg)
    worst = 0.0
    for _ in range(20):
        out = heisenberg.weyl_U(rng.uniform(-2, 2), psi)
        worst = max(worst, abs(out.norm() - psi.norm()))
        out = heisenberg.weyl_V(rng.uniform(-4, 4), psi)
        worst = max(worst, abs(out.norm() - psi.norm()))
    return worst


@register("heisenberg", "product-associativity", "heisenberg-group-product", 1e-14)
def _assoc(rng, cfg):
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


@register("heisenberg", "two-route-quantization-gap", "symmetrized-square-discrepancy", 1e-7)
def _gvh(rng, cfg):
    psi = _packet(cfg)
    _, scalar = heisenberg.gvh_discrepancy(psi)
    return abs(scalar - 0.75) / 0.75


@register("heisenberg", "two-route-gap-grid-stability", "symmetrized-square-discrepancy", 1e-9)
def _gvh_stable(rng, cfg):
    psi1 = _packet(cfg)
    psi2 = heisenberg.gaussian_packet(2 * cfg.grid_n, 20.0, 0.4, 1.0, 0.6)
    _, s1 = heisenberg.gvh_discrepancy(psi1)
    _, s2 = heisenberg.gvh_discrepancy(psi2)
    return abs(s1 - s2)


@register("heisenberg", "symmetrized-square-expansion", "symmetrized-square-discrepancy", 1e-8)
def _gvh_expansion(rng, cfg):
    return heisenberg.gvh_expansion_residual(_packet(cfg))


@register("heisenberg", "halfline-translation-escape", "halfline-momentum-breakdown", 1e-6)
def _halfline(rng, cfg):
    psi = heisenberg.gaussian_packet(cfg.grid_n, 20.0, x0=4.0, sigma=0.5)
    at_rest = heisenberg.halfline_breakdown_demo(0.0, psi)["escaped_mass"]
    small = heisenberg.halfline_breakdown_demo(1.0, psi)["escaped_mass"]
    far = heisenberg.halfline_breakdown_demo(4.0 + 10 * 0.5, psi)["escaped_mass"]
    return max(at_rest, small, 1.0 - far)


# ---------------------------------------------------------- berry-robbins

def _safe_point(rng):
    while True:
        v = _random_axis(rng)
        if v[2] > -0.8:
            return v


@register("berry-robbins", "transport-unitarity", "transported-frame", 1e-12)
def _transport_unitary(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = default_transport(j)
        for _ in range(500):
            u = frame.unitary(_safe_point(rng))
            worst = max(
                worst, float(np.max(np.abs(u @ u.conj().T - np.eye(frame.dim))))
            )
    return worst


@register("berry-robbins", "transported-spin-spectrum-algebra", "conjugated-spin-operators", 1e-12)
def _spin_props(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0, 1.5):
        frame = default_transport(j)
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


@register("berry-robbins", "lift-composition", "transported-basis-lift", 1e-10)
def _br_compose(rng, cfg):
    frame = default_transport(1.0)
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


@register("berry-robbins", "generator-recovery", "spin-operators-from-lift", 1e-7)
def _br_recover(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = default_transport(j)
        for _ in range(10):
            r = _safe_point(rng)
            for i in (1, 2, 3):
                gap = recover_spin_generator(i, r, frame) - transported_spin(
                    i, r, frame
                )
                worst = max(worst, float(np.max(np.abs(gap))))
    return worst


@register("berry-robbins", "spin-zero-reduction", "transported-basis-lift", 1e-15)
def _j0_reduction(rng, cfg):
    frame = default_transport(0.0)
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


@register("berry-robbins", "fixed-basis-addition", "angular-momentum-addition", 1e-7)
def _fixed_basis(rng, cfg):
    grid = _grid(min(cfg.lmax, 6))
    lmax = grid.lmax_exact - 1
    worst = 0.0
    for j in (0.5, 1.0):
        dim = int(2 * j) + 1
        comps = tuple(random_coeffs(lmax, "full", rng) for _ in range(dim))
        field_ = SpinorField(j, comps)
        for i in (1, 2, 3):
            gap = total_generator_fd(i, field_, grid) - total_generator_exact(i, field_)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def checks_for_suite(suite: str) -> list[Check]:
    if suite == "all":
        return list(REGISTRY)
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    return [c for c in REGISTRY if c.suite == suite]
