"""Registry of the verification checks run by the command-line harness.

Each check draws from its own RNG stream (derived from the master seed and a
stable hash of the check name, so results do not depend on execution order),
computes a residual, and is compared against its pinned tolerance.  Checks
are grouped into suites mirroring the package modules.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import bundles, classical, heisenberg
from .berry_robbins import (
    BRState,
    SpinorField,
    TransportFrame,
    br_lift,
    recover_spin_generator,
    scalar_lift,
    total_generator_exact,
    total_generator_fd,
    transported_spin,
)
from ._kernels import ylm_synthesize
from .errors import ConfigError
from .groups import (
    H_CLASSIFY_TOL,
    HElement,
    h_embed_batch,
    h_membership,
    quotient_to_sphere_batch,
    random_su2,
    rotation_from_axis_angle_batch,
    rp2_point,
    rp2_rep_batch,
    spinor_map,
    spinor_map_batch,
    su2_batch,
    su2_from_axis_angle_batch,
    su2_from_normals,
    su2_product_batch,
    unit_vector,
    unit_vector_batch,
)
from .harmonics import (
    HarmonicCoeffs,
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
from .manifold import (
    MAX_GRID_LMAX,
    QuadratureGrid,
    WFunctional,
    build_quadrature,
    chart_coords,
    f_embedding,
    f_from_moment,
    moment_embedding,
    moment_embedding_batch,
    transition_function,
    transition_signs_batch,
    w_action,
)
from .representation import (
    act_canonical,
    check_group_law,
    check_intertwining,
    exchange_parities,
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


# the fewest radial nodes on which the canonical ensemble's composed dilations
# keep the section off the window ends (``canonical-group-law`` raises
# RadialRangeError at every N below it)
RADIAL_NODES_MIN = 24


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
        if _module_grid_order(self.lmax) > MAX_GRID_LMAX:
            raise ConfigError(
                f"lmax {self.lmax} needs a grid of order {_module_grid_order(self.lmax)}, "
                f"above the quadrature cap {MAX_GRID_LMAX}"
            )
        if self.grid_n <= 0 or self.grid_n & (self.grid_n - 1):
            raise ConfigError("grid_n must be a positive power of two")
        if self.radial_nodes < RADIAL_NODES_MIN:
            raise ConfigError(
                f"radial_nodes must be at least {RADIAL_NODES_MIN}: on fewer nodes the "
                "canonical-group-law dilations reach the radial window's ends"
            )
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


def _module_grid_order(lmax: int) -> int:
    """Grid order of the module maps at band lmax: the largest any check asks for.

    ``module_iso_inverse`` needs order top + 2 for the top odd degree, which is
    lmax + 2 when lmax is odd and lmax + 1 when it is even.
    """
    return lmax + 1 + lmax % 2


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


def _h_rows(u) -> np.ndarray:
    """Embedded H rows from (n, 2) raw ``random()`` draws, as n ``_random_h`` calls make them.

    ``_random_h`` draws ``random()`` then ``uniform(0, 2π)``; both consume one
    double u, and uniform(low, high) = low + (high - low)·u.
    """
    u = np.asarray(u, dtype=float)
    angle = 0.0 + (2 * np.pi - 0.0) * u[:, 1]
    return h_embed_batch(u[:, 0] >= 0.5, np.exp(1j * angle))


def _draw_rows(rng, n: int, draw) -> np.ndarray:
    """n rows of ``draw(rng)``, drawn one row at a time in stream order."""
    first = np.asarray(draw(rng), dtype=float)
    rows = np.empty((n,) + first.shape)
    rows[0] = first
    for k in range(1, n):
        rows[k] = draw(rng)
    return rows


def _h_draws(rng) -> list[float]:
    """The two doubles one ``_random_h`` call consumes, raw (see ``_h_rows``)."""
    return [rng.random(), rng.random()]


def _haar_and_h(rng) -> np.ndarray:
    """The draws of one ``random_su2`` call followed by one ``_random_h`` call."""
    return np.concatenate([rng.normal(size=4), _h_draws(rng)])


def _assoc_and_h(rng) -> np.ndarray:
    """The draws of one ``_random_assoc`` call followed by one ``_random_h`` call."""
    return np.concatenate([rng.normal(size=6), _h_draws(rng)])


def _unit_rows(v) -> np.ndarray:
    """v / |v| per row, rounded as ``_random_axis`` normalizes one vector."""
    return v / np.sqrt(np.vecdot(v, v))[:, None]


_CHUNK_ROWS = 4096   # samples per batch: an (n, 3, 3) float64 temporary stays near 300 KB


def _worst_over_chunks(n: int, batch, rows: int = _CHUNK_ROWS) -> float:
    """max of ``batch(k)`` over consecutive chunks of k ≤ rows of the n samples.

    Each chunk draws its k samples in stream order, so the chunks together
    draw what one batch of n would.
    """
    return max(batch(min(rows, n - lo)) for lo in range(0, n, rows))


def _frobenius(m) -> np.ndarray:
    """np.linalg.norm of each (3, 3) matrix of a stack, rounded the same way."""
    flat = m.reshape(-1, 9)
    return np.sqrt(np.vecdot(flat, flat))


def _row_norms(v) -> np.ndarray:
    """np.linalg.norm of each complex row of a stack, rounded the same way."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


# ---------------------------------------------------------------- groups

@register("groups", "spinor-homomorphism", "su2-so3-double-cover", 1e-12)
def _spinor_hom(rng, cfg):
    g = su2_from_normals(rng.normal(size=(2000, 4)))
    g1, g2 = g[0::2], g[1::2]
    gap = spinor_map_batch(su2_product_batch(g1, g2)) - (
        spinor_map_batch(g1) @ spinor_map_batch(g2)
    )
    return float(np.max(_frobenius(gap)))


@register("groups", "spinor-double-cover-kernel", "su2-so3-double-cover", 1e-15)
def _spinor_kernel(rng, cfg):
    def batch(n):
        g = su2_from_normals(rng.normal(size=(n, 4)))
        return float(np.max(np.abs(spinor_map_batch(g) - spinor_map_batch(su2_batch(-g)))))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "axis-angle-cross-check", "rodrigues-vs-spinor-map", 1e-12)
def _axis_angle(rng, cfg):
    def batch(n):
        draws = _draw_rows(
            rng, n, lambda r: np.concatenate([[r.uniform(0, 2 * np.pi)], _random_axis(r)])
        )
        psi, axes = draws[:, 0], draws[:, 1:]
        gap = rotation_from_axis_angle_batch(psi, axes) - spinor_map_batch(
            su2_from_axis_angle_batch(psi, axes)
        )
        return float(np.max(np.abs(gap)))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "h-subgroup-closure", "stabilizer-subgroup-closure", 1e-12)
def _h_closure(rng, cfg):
    def batch(n):
        u = rng.random(size=(n, 4))
        prod = su2_product_batch(_h_rows(u[:, :2]), _h_rows(u[:, 2:]))
        # distance from H = size of the entry that should vanish (abs() rounding)
        dist = np.min(np.hypot(prod.real, prod.imag), axis=1)
        if np.any(dist > H_CLASSIFY_TOL):          # h_membership would be None
            return 1.0
        return float(np.max(dist))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "h-orbit-component-formulas", "stabilizer-orbit-products", 1e-13)
def _h_orbit(rng, cfg):
    def batch(n):
        draws = _draw_rows(rng, n, _haar_and_h)
        g, h = su2_from_normals(draws[:, :4]), _h_rows(draws[:, 4:])
        anti = draws[:, 4] >= 0.5                   # _random_h's kind draw
        lam = np.where(anti, h[:, 1], h[:, 0])[:, None]
        swapped = np.stack([-g[:, 1].conj(), g[:, 0].conj()], axis=1)
        gap = su2_product_batch(g, h) - np.where(anti[:, None], swapped, g) * lam
        return float(np.max(np.hypot(gap.real, gap.imag)))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "h-image-in-o2", "stabilizer-image-in-so3", 1e-12)
def _h_o2(rng, cfg):
    def batch(n):
        u = rng.random(size=(n, 2))
        r = spinor_map_batch(_h_rows(u))
        s = np.where(u[:, 0] < 0.5, 1.0, -1.0)      # +1 diagonal, -1 antidiagonal
        # diagonal: rotation about e3 (orthogonal 2x2 block with det +1, R33 = 1);
        # antidiagonal: reflection type (R33 = -1, symmetric traceless block)
        gaps = np.stack([
            r[:, 0, 2], r[:, 1, 2], r[:, 2, 0], r[:, 2, 1],
            r[:, 2, 2] - s, r[:, 0, 0] - s * r[:, 1, 1], r[:, 0, 1] + s * r[:, 1, 0],
        ])
        return float(np.max(np.abs(gaps)))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "rp2-h-invariance", "projective-quotient-invariance", 1e-12)
def _rp2_invariance(rng, cfg):
    def batch(n):
        draws = _draw_rows(rng, n, _haar_and_h)
        g = su2_from_normals(draws[:, :4])
        gh = su2_product_batch(g, _h_rows(draws[:, 4:]))
        p1, p2 = rp2_rep_batch(quotient_to_sphere_batch(g)), rp2_rep_batch(quotient_to_sphere_batch(gh))
        return float(np.max(np.abs(p1 - p2)))

    return _worst_over_chunks(cfg.samples, batch)


# -------------------------------------------------------------- manifold

INTERIOR_MARGIN = 0.05   # least |coordinate| of a point drawn inside all three charts


def _random_interior_point(rng) -> np.ndarray:
    while True:
        v = _random_axis(rng)
        if np.min(np.abs(v)) > INTERIOR_MARGIN:
            return v


@register("manifold", "transition-cocycle", "chart-transition-signs", 1e-15)
def _cocycle(rng, cfg):
    s = transition_signs_batch(rp2_rep_batch(_draw_rows(rng, 1000, _random_interior_point)))
    # gap[k, a, b, c] = g_ab g_bc - g_ac
    gap = s[:, :, :, None] * s[:, None, :, :] - s[:, :, None, :]
    return float(np.max(np.abs(gap)))


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


def _moment_draws(rng) -> np.ndarray:
    """Raw draws of one pair: x, the branch, then y or the sign and the noise.

    Row layout (x₀, x₁, x₂, s, n₀, n₁, n₂): s = 0 marks an independent y
    (n is its normal draw), s = ±1 marks y = s·x + 1e-10·n.
    """
    x = rng.normal(size=3)
    if rng.random() < 0.5:
        return np.concatenate([x, [0.0], rng.normal(size=3)])
    s = -1.0 if rng.random() < 0.5 else 1.0
    return np.concatenate([x, [s], rng.normal(size=3)])


@register("manifold", "moment-injectivity", "projective-orbit-embedding", 1e-6)
def _moment_inject(rng, cfg):
    worst = 0.0
    for _ in range(5):                               # 5 chunks of 2000 pairs
        d = _draw_rows(rng, 2000, _moment_draws)
        x, s = _unit_rows(d[:, :3]), d[:, 3:4]
        y = _unit_rows(np.where(s != 0.0, s * x + d[:, 4:] * 1e-10, d[:, 4:]))
        close = _frobenius(moment_embedding_batch(x) - moment_embedding_batch(y)) < 1e-8
        if np.any(close):
            gap = np.abs(rp2_rep_batch(x[close]) - rp2_rep_batch(y[close]))
            worst = max(worst, float(np.max(gap)))
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
        worst = max(worst, abs(w(x) - w(rp2_point(x).rep)))
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
    degrees = np.arange(cfg.lmax + 1)
    tables = np.stack([unit(cfg.lmax, l, int(rng.integers(-l, l + 1))).c for l in degrees])
    plus = ylm_synthesize(grid.nodes, cfg.lmax, tables)
    minus = ylm_synthesize(-grid.nodes, cfg.lmax, tables)
    return float(np.max(np.abs(minus - (-1.0) ** degrees[:, None] * plus)))


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


def _symmetrized_power_d(j: float, g) -> np.ndarray:
    """Oracle for ``wigner_d``: the 2j-fold symmetrized power of g.matrix().

    With [[a, b], [c, d]] = g.matrix() acting as x ↦ ax + cy, y ↦ bx + dy on
    f_m = x^{j+m} y^{j-m} / sqrt((j+m)!(j-m)!), m = +j ... -j:

        D_{m'm} = sqrt((j+m')!(j-m')!/((j+m)!(j-m)!)) ·
                  Σ_k C(j+m, k) C(j-m, j-m'-k) a^{j+m-k} c^k b^{m'-m+k} d^{j-m'-k}.
    """
    n = round(2 * j)
    (a, b), (c, d) = g.matrix()
    f = [math.factorial(k) for k in range(n + 1)]
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for p, q in np.ndindex(n + 1, n + 1):           # row m' = j - p, column m = j - q
        out[p, q] = math.sqrt(f[n - p] * f[p] / (f[n - q] * f[q])) * sum(
            math.comb(n - q, k) * math.comb(q, p - k)
            * a ** (n - q - k) * c**k * b ** (q - p + k) * d ** (p - k)
            for k in range(max(0, p - q), min(n - q, p) + 1)
        )
    return out


@register("harmonics", "rotation-wigner-cross-check", "wigner-matrix-blocks", 1e-9)
def _rot_wigner(rng, cfg):
    # the coefficient route against resampling on every degree, and against
    # the symmetrized-power oracle on l ≤ 4
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        g = random_su2(rng)
        a = random_coeffs(cfg.lmax, "full", rng)
        rot = rotate_coeffs(g, a, grid)
        resampled = analyze(rotate_values(g, a, grid.nodes), cfg.lmax, grid)
        worst = max(worst, float(np.max(np.abs(rot.c - resampled.c))))
        for l in range(1, min(cfg.lmax, 4) + 1):
            d = _symmetrized_power_d(l, g)
            want = d @ a.block(l)[::-1]      # blocks are m = -l..l, D rows m = +l..-l
            worst = max(worst, float(np.max(np.abs(rot.block(l)[::-1] - want))))
    return worst


@register("harmonics", "wigner-homomorphism", "wigner-matrix-products", 1e-11)
def _wigner_hom(rng, cfg):
    pairs = su2_from_normals(rng.normal(size=(200, 2, 4)))   # (g1, g2) per sample
    g1, g2 = pairs[:, 0], pairs[:, 1]
    g12 = su2_product_batch(g1, g2)
    worst = 0.0
    for j in (0.5, 1.0, 1.5, 2.0):
        gap = wigner_d(j, g12) - wigner_d(j, g1) @ wigner_d(j, g2)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


@register("harmonics", "wigner-defining-unitary", "wigner-matrix-products", 1e-12)
def _wigner_defining(rng, cfg):
    def batch(k):
        g = su2_from_normals(rng.normal(size=(k, 4)))
        z0, z1 = g[:, 0], g[:, 1]
        matrix = np.stack([np.stack([z0, z1.conj()], -1), np.stack([-z1, z0.conj()], -1)], -2)
        worst = float(np.max(np.abs(wigner_d(0.5, g) - matrix)))
        for j in (0.5, 1.0, 2.0):
            d = wigner_d(j, g)
            gap = d @ d.conj().mT - np.eye(d.shape[-1])
            worst = max(worst, float(np.max(np.abs(gap))))
        return worst

    return _worst_over_chunks(cfg.samples, batch)


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


def _assoc_rows(draws) -> tuple[np.ndarray, np.ndarray]:
    """(g, v) rows from (n, 6) normal draws, as n ``_random_assoc`` calls make them."""
    v = draws[:, 0] + 1j * draws[:, 1]
    return su2_from_normals(draws[:, 2:6]), v


@register("bundles", "iso-well-defined", "bundle-isomorphism", 1e-12)
def _iso_well_defined(rng, cfg):
    def batch(n):
        draws = _draw_rows(rng, n, _assoc_and_h)
        g, v = _assoc_rows(draws)
        kappa = np.where(draws[:, 6] < 0.5, 1, -1)  # +1 diagonal, -1 antidiagonal
        base1, fiber1 = bundles.iso_Phi_batch(g, v)
        base2, fiber2 = bundles.iso_Phi_batch(su2_product_batch(g, _h_rows(draws[:, 6:])), kappa * v)
        return max(float(np.max(np.abs(base1 - base2))), float(np.max(np.abs(fiber1 - fiber2))))

    return _worst_over_chunks(cfg.samples, batch)


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
    draws = rng.normal(size=(200, 10))              # random_su2, then _random_assoc
    g = su2_from_normals(draws[:, :4])
    eg, v = _assoc_rows(draws[:, 4:])
    base_a, fiber_a = bundles.iso_Phi_batch(su2_product_batch(g, eg), v)
    base_t, fiber_t = bundles.lift_tau_batch(g, *bundles.iso_Phi_batch(eg, v))
    return max(float(np.max(np.abs(fiber_a - fiber_t))), float(np.max(np.abs(base_a - base_t))))


@register("bundles", "lift-composition-covering", "lift-transport-conjugation", 1e-10)
def _lift_compose(rng, cfg):
    def batch(n):
        draws = rng.normal(size=(n, 14))            # g1, g2, then _random_assoc
        g1, g2 = su2_from_normals(draws[:, :4]), su2_from_normals(draws[:, 4:8])
        g12 = su2_product_batch(g1, g2)
        base, fiber = bundles.iso_Phi_batch(*_assoc_rows(draws[:, 8:]))
        _, seq_fiber = bundles.lift_tau_batch(g1, *bundles.lift_tau_batch(g2, base, fiber))
        prod_base, prod_fiber = bundles.lift_tau_batch(g12, base, fiber)
        covered = rp2_rep_batch(np.matmul(spinor_map_batch(g12), base[:, :, None])[:, :, 0])
        return max(float(np.max(np.abs(seq_fiber - prod_fiber))),
                   float(np.max(np.abs(prod_base - covered))))

    return _worst_over_chunks(cfg.samples, batch)


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
    grid = _grid(_module_grid_order(cfg.lmax))
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
    a = random_coeffs(cfg.lmax, "odd", rng)

    def batch(n):
        x = _unit_rows(rng.normal(size=(n, 3)))     # n _random_axis draws
        plus = evaluate(a, x)[:, None] * unit_vector_batch(x).astype(complex)
        minus = evaluate(a, -x)[:, None] * unit_vector_batch(-x).astype(complex)
        return float(np.max(np.abs(plus - minus)))

    # at most 2¹⁵/(lmax+1)² points per chunk; chunks draw in stream order, so the
    # size only bounds memory (ylm_synthesize keeps an (lmax+1) × n float slab)
    return _worst_over_chunks(cfg.samples, batch, rows=max(1, (1 << 15) // a.c.size))


# -------------------------------------------------------- representation

@register("representation", "generator-vs-ladder", "orbital-generator-match", 1e-8)
def _gen_vs_ladder(rng, cfg):
    worst = 0.0
    for _ in range(10):
        sector = "odd" if rng.random() < 0.5 else "even"
        a = random_coeffs(cfg.lmax, sector, rng)
        for i in (1, 2, 3):
            worst = max(worst, generator_vs_ladder_residual(i, a))
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
    worst = 0.0
    for _ in range(3):
        worst = max(worst, su2_closure_residual(random_coeffs(cfg.lmax, "odd", rng)))
    return worst


@register("representation", "rotation-action-unitary-hom", "induced-rotation-action", 1e-9)
def _act_u(rng, cfg):
    grid = _grid(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        a = random_coeffs(cfg.lmax, "odd", rng)
        g1, g2 = random_su2(rng), random_su2(rng)
        seq = rotate_coeffs(g1, rotate_coeffs(g2, a, grid), grid)
        prod = rotate_coeffs(g1 * g2, a, grid)
        worst = max(worst, float(np.linalg.norm(seq.c - prod.c)))
        worst = max(worst, abs(seq.norm() - a.norm()))
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


# points per exchange-statistics chunk: at lmax 8 a chunk's temporaries stay
# near 1 MB, so the harness's peak RSS does not rise over the per-sample loop
_EXCHANGE_POINTS = 1 << 12


@register("representation", "exchange-statistics", "parity-statistics-bookkeeping", 1e-10)
def _exchange(rng, cfg):
    # Each sample draws (sector, table, g₁, g₂) in stream order.  A chunk of
    # samples is drawn, then checked as one stack: the parity of the table
    # rotated by g₁ on coefficients, and the parity leak of the table
    # resampled at the nodes rotated by g₂ (the ``rotate_values`` route).
    # The first failing sample decides: a wrong parity gives 1.0, a
    # non-eigenstate raises.
    grid = _grid(cfg.lmax)
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
    # 100 random_phase_point draws (u, ψ coordinates), then 1000 pairs of
    # random_element draws (φ coordinates, A) for e1 and e2
    pts = classical.w_matrix(rng.normal(size=(100, 2, 5)))
    e = rng.normal(size=(1000, 16))
    c1, c2 = classical.w_matrix(e[:, 0:5]), classical.w_matrix(e[:, 8:13])
    return classical.homomorphism_defect(c1, e[:, 5:8], c2, e[:, 13:16], pts[:, 0], pts[:, 1])


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
        frame = TransportFrame(j)
        u = frame.unitary(_draw_rows(rng, 500, _safe_point))
        worst = max(worst, float(np.max(np.abs(u @ u.conj().mT - np.eye(frame.dim)))))
    return worst


@register("berry-robbins", "transported-spin-spectrum-algebra", "conjugated-spin-operators", 1e-12)
def _spin_props(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0, 1.5):
        frame = TransportFrame(j)
        want = np.arange(-j, j + 1)
        r = _draw_rows(rng, 20, _safe_point)
        mats = [transported_spin(i, r, frame) for i in (1, 2, 3)]
        for s in mats:
            ev = np.sort(np.linalg.eigvalsh(s))
            worst = max(worst, float(np.max(np.abs(ev - want))))
        comm = mats[0] @ mats[1] - mats[1] @ mats[0]
        worst = max(worst, float(np.max(np.abs(comm - 1j * mats[2]))))
    return worst


@register("berry-robbins", "lift-composition", "transported-basis-lift", 1e-10)
def _br_compose(rng, cfg):
    # samples are drawn one at a time and kept while both images avoid the
    # south cap, then lifted as one stack
    frame = TransportFrame(1.0)
    kept = []
    while len(kept) < 200:
        r = unit_vector(_safe_point(rng))
        lam = rng.normal(size=3) + 1j * rng.normal(size=3)
        g1, g2 = random_su2(rng), random_su2(rng)
        mid = spinor_map(g2) @ r
        end = spinor_map(g1) @ mid
        if mid[2] < -0.8 or end[2] < -0.8:
            continue
        kept.append((r, lam, (g1.z0, g1.z1), (g2.z0, g2.z1)))
    r, lam, g1, g2 = (np.array(column) for column in zip(*kept))
    st = BRState(r, lam)
    lhs = br_lift(g1, br_lift(g2, st, frame), frame)
    rhs = br_lift(su2_product_batch(g1, g2), st, frame)
    norm_gap = _row_norms(rhs.lam) - _row_norms(st.lam)
    return max(float(np.max(np.abs(lhs.lam - rhs.lam))),
               float(np.max(np.abs(lhs.r - rhs.r))),
               float(np.max(np.abs(norm_gap))))


@register("berry-robbins", "generator-recovery", "spin-operators-from-lift", 1e-7)
def _br_recover(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        r = _draw_rows(rng, 10, _safe_point)
        for i in (1, 2, 3):
            gap = recover_spin_generator(i, r, frame) - transported_spin(i, r, frame)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def _j0_draws(rng) -> np.ndarray:
    """One spin-zero-reduction sample: base point, scalar (re, im), ``random_su2`` normals."""
    return np.concatenate([_safe_point(rng), [rng.normal(), rng.normal()], rng.normal(size=4)])


@register("berry-robbins", "spin-zero-reduction", "transported-basis-lift", 1e-15)
def _j0_reduction(rng, cfg):
    frame = TransportFrame(0.0)

    def batch(k):
        draws = _draw_rows(rng, k, _j0_draws)
        st = BRState(draws[:, :3], (draws[:, 3] + 1j * draws[:, 4])[:, None])
        g = su2_from_normals(draws[:, 5:])
        scalar = scalar_lift(g, st)
        keep = ~(scalar.r[:, 2] < -0.8)        # samples whose image leaves the south cap
        lifted = br_lift(g[keep], BRState(st.r[keep], st.lam[keep]), frame)
        same = (np.array_equal(lifted.r, scalar.r[keep])
                and np.array_equal(lifted.lam, scalar.lam[keep]))
        return 0.0 if same else 1.0

    return _worst_over_chunks(cfg.samples, batch)


@register("berry-robbins", "fixed-basis-addition", "angular-momentum-addition", 1e-7)
def _fixed_basis(rng, cfg):
    lmax = min(cfg.lmax, 6) - 1
    worst = 0.0
    for j in (0.5, 1.0):
        dim = int(2 * j) + 1
        comps = tuple(random_coeffs(lmax, "full", rng) for _ in range(dim))
        field_ = SpinorField(j, comps)
        for i in (1, 2, 3):
            gap = total_generator_fd(i, field_) - total_generator_exact(i, field_)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def checks_for_suite(suite: str) -> list[Check]:
    if suite == "all":
        return list(REGISTRY)
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    return [c for c in REGISTRY if c.suite == suite]
