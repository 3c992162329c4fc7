"""Registry of the verification checks run by the command-line harness.

Each check draws from its own RNG stream (derived from the master seed and a
stable hash of the check name, so results do not depend on execution order),
computes a residual, and is compared against its pinned tolerance.  Checks
are grouped into suites mirroring the package modules.
"""

import hashlib
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import bundles, classical, heisenberg
from .berry_robbins import (
    BRState,
    TransportFrame,
    _apply,
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
    _norm,
    h_embed,
    quotient_to_sphere,
    random_su2,
    rotation_from_axis_angle,
    rp2_rep,
    spinor_map,
    su2_from_axis_angle,
    su2_from_normals,
    su2_product,
    unit_vector,
    validate_normalize_su2,
)
from .harmonics import (
    HarmonicCoeffs,
    _row_norms,
    _tables_from_normals,
    analyze,
    apply_L,
    evaluate,
    num_coeffs,
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

# the fewest position-grid points on which the heisenberg suite passes: at 64 its
# momentum grid ends at |k| = πN/2L ≈ 5, short of the packets' tails and the Weyl
# kicks |b| ≤ 3, and half the suite fails by decades
GRID_N_MIN = 128


@dataclass(frozen=True)
class SuiteConfig:
    lmax: int = 8
    grid_n: int = 1024
    radial_nodes: int = 64
    samples: int = 200
    rng_seed: int = 0
    tol_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("lmax", "grid_n", "radial_nodes", "samples", "rng_seed"):
            try:
                object.__setattr__(self, key, operator.index(getattr(self, key)))
            except TypeError as exc:
                raise ConfigError(f"{key} must be an integer, got {getattr(self, key)!r}") from exc
        unknown = set(self.tol_overrides) - {c.name for c in REGISTRY}
        if unknown:
            raise ConfigError(f"tolerance overrides for unknown checks: {sorted(unknown)}")
        for name, tol in self.tol_overrides.items():
            if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
                raise ConfigError(f"tolerance for {name} must be a positive finite number, "
                                  f"got {tol!r}")
        object.__setattr__(self, "tol_overrides",
                           {name: float(tol) for name, tol in self.tol_overrides.items()})
        if not (1 <= self.lmax <= 32):
            raise ConfigError("lmax must lie in [1, 32]")
        if _module_grid_order(self.lmax) > MAX_GRID_LMAX:
            raise ConfigError(
                f"lmax {self.lmax} needs a grid of order {_module_grid_order(self.lmax)}, "
                f"above the quadrature cap {MAX_GRID_LMAX}"
            )
        if self.grid_n < GRID_N_MIN or self.grid_n & (self.grid_n - 1):
            raise ConfigError(f"grid_n must be a power of two of at least {GRID_N_MIN}: on fewer "
                              "points the heisenberg suite's momentum grid cuts off its packets")
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


def _module_grid_order(lmax: int) -> int:
    """Grid order of the module maps at band lmax: the largest any check asks for.

    ``module_iso_inverse`` needs order top + 2 for the top odd degree, which is
    lmax + 2 when lmax is odd and lmax + 1 when it is even.
    """
    return lmax + 1 + lmax % 2


def _h_rows(u) -> np.ndarray:
    """Embedded H rows from (n, 2) raw ``random()`` draws, one H sample per row.

    An H sample draws its kind, ``random()`` < 0.5 for diagonal and
    antidiagonal otherwise, then the phase of λ, ``uniform(0, 2π)``.  Both
    consume one double u, and uniform(low, high) = low + (high - low)·u.
    """
    u = np.asarray(u, dtype=float)
    angle = 0.0 + (2 * np.pi - 0.0) * u[:, 1]
    return h_embed(u[:, 0] >= 0.5, np.exp(1j * angle))


def _draw_rows(rng, n: int, draw) -> np.ndarray:
    """n rows of ``draw(rng)``, drawn one row at a time in stream order."""
    first = np.asarray(draw(rng), dtype=float)
    rows = np.empty((n,) + first.shape)
    rows[0] = first
    for k in range(1, n):
        rows[k] = draw(rng)
    return rows


def _h_draws(rng) -> list[float]:
    """The two doubles one H sample consumes, raw (see ``_h_rows``)."""
    return [rng.random(), rng.random()]


def _haar_and_h(rng) -> np.ndarray:
    """The draws of one ``random_su2`` call followed by one H sample."""
    return np.concatenate([rng.normal(size=4), _h_draws(rng)])


def _assoc_and_h(rng) -> np.ndarray:
    """The draws of one associated-bundle sample (see ``_assoc_rows``) and one H sample."""
    return np.concatenate([rng.normal(size=6), _h_draws(rng)])


def _kept_points(rng, n: int, ok) -> np.ndarray:
    """n unit points that ``ok`` keeps, as a loop drawing one point at a time would keep them.

    A point is three normals scaled to unit norm, v / |v|.

    ``ok`` maps (k, 3) unit rows to k flags.  Only the rows still missing are
    drawn, as one (need, 3) block, and its kept rows are taken in order: the
    loop draws at least that many more rows, so the stream ends where the
    loop's does.
    """
    kept, need = [], n
    while need:
        v = rng.normal(size=(need, 3))
        v = v / _norm(v)[:, None]
        v = v[ok(v)]
        kept.append(v)
        need -= len(v)
    return np.concatenate(kept)


def _kept_attempts(rng, n: int, ok, tail: int, keep=None) -> np.ndarray:
    """(n, 3 + tail) rows: the attempts a per-sample rejection loop keeps, in stream order.

    An attempt draws a point as ``_kept_points(rng, 1, ok)`` does (three
    normals a try), then ``tail`` normals, and is kept when
    ``keep(points, tails)`` holds, where ``points`` are (k, 3) unit rows and
    ``tails`` (k, tail) normals.  A row is the point, then the tail.

    The rejections decide where each attempt starts, so each round saves the
    generator state and draws one block of normals, with ``ok`` and ``keep``
    evaluated at every offset as if an attempt started there.  The block is
    walked with integer logic only; then the state is restored and exactly
    the normals the walked attempts consumed are drawn again, so the stream
    ends where the loop's does.
    """
    width = 3 + tail
    kept, need, grow = [], n, 1
    while need:
        # about (width + 3) normals per kept attempt; a short block costs one more round
        size = (need + 8) * (width + 3) * 5 // 4 * grow
        state = rng.bit_generator.state
        windows = np.lib.stride_tricks.sliding_window_view(rng.normal(size=size), width)
        points, tails = windows[:, :3] / _norm(windows[:, :3])[:, None], windows[:, 3:]
        head_ok = ok(points).tolist()
        kept_at = None if keep is None else keep(points, tails).tolist()
        last = len(head_ok)                        # attempts start below this offset
        taken, pos = [], 0
        while len(taken) < need:
            q = pos
            while q < last and not head_ok[q]:
                q += 3
            if q >= last:
                break                              # the block ends inside this attempt
            if kept_at is None or kept_at[q]:
                taken.append(q)
            pos = q + width
        rng.bit_generator.state = state
        if pos == 0:                               # not one whole attempt: draw a longer block
            grow *= 2
            continue
        rng.normal(size=pos)
        kept.append(np.concatenate([points[taken], tails[taken]], axis=1))
        need -= len(taken)
    return np.concatenate(kept)


def _off_masks(lmax: int, odd) -> np.ndarray:
    """(n, (lmax+1)²) off-sector masks: the odd sector's where ``odd`` (n,) holds, else even's."""
    return np.where(odd[:, None], off_sector_mask(lmax, "odd"), off_sector_mask(lmax, "even"))


def _odd_tables(rng, n: int, lmax: int) -> np.ndarray:
    """n draws of ``random_coeffs(lmax, "odd", rng)`` as one (n, (lmax+1)²) stack."""
    normals = rng.normal(size=(n, 2 * num_coeffs(lmax)))
    return _tables_from_normals(normals, lmax, off_sector_mask(lmax, "odd"))


_CHUNK_ROWS = 4096   # samples per batch: an (n, 3, 3) float64 temporary stays near 300 KB


def _worst_over_chunks(n: int, batch, rows: int = _CHUNK_ROWS) -> float:
    """max of ``batch(k)`` over consecutive chunks of k ≤ rows of the n samples.

    Each chunk draws its k samples in stream order, so the chunks together
    draw what one batch of n would.
    """
    return max(batch(min(rows, n - lo)) for lo in range(0, n, rows))


# ---------------------------------------------------------------- groups

@register("groups", "spinor-homomorphism", "su2-so3-double-cover", 1e-12)
def _spinor_hom(rng, cfg):
    g = su2_from_normals(rng.normal(size=(2000, 4)))
    g1, g2 = g[0::2], g[1::2]
    gap = spinor_map(su2_product(g1, g2)) - spinor_map(g1) @ spinor_map(g2)
    return float(np.max(_norm(gap.reshape(-1, 9))))     # Frobenius norm per matrix


@register("groups", "spinor-double-cover-kernel", "su2-so3-double-cover", 1e-15)
def _spinor_kernel(rng, cfg):
    def batch(n):
        g = su2_from_normals(rng.normal(size=(n, 4)))
        return float(np.max(np.abs(spinor_map(g) - spinor_map(validate_normalize_su2(-g)))))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "axis-angle-cross-check", "rodrigues-vs-spinor-map", 1e-12)
def _axis_angle(rng, cfg):
    def batch(n):
        draws = _draw_rows(
            rng, n, lambda r: np.concatenate([[r.uniform(0, 2 * np.pi)], r.normal(size=3)])
        )
        psi, axes = draws[:, 0], draws[:, 1:] / _norm(draws[:, 1:])[:, None]
        gap = rotation_from_axis_angle(psi, axes) - spinor_map(su2_from_axis_angle(psi, axes))
        return float(np.max(np.abs(gap)))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "h-subgroup-closure", "stabilizer-subgroup-closure", 1e-12)
def _h_closure(rng, cfg):
    def batch(n):
        u = rng.random(size=(n, 4))
        prod = su2_product(_h_rows(u[:, :2]), _h_rows(u[:, 2:]))
        # distance from H = size of the entry that should vanish (abs() rounding)
        dist = np.min(np.hypot(prod.real, prod.imag), axis=1)
        if np.any(dist > H_CLASSIFY_TOL):          # a product outside H
            return 1.0
        return float(np.max(dist))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "h-orbit-component-formulas", "stabilizer-orbit-products", 1e-13)
def _h_orbit(rng, cfg):
    def batch(n):
        draws = _draw_rows(rng, n, _haar_and_h)
        g, h = su2_from_normals(draws[:, :4]), _h_rows(draws[:, 4:])
        anti = draws[:, 4] >= 0.5                   # the H sample's kind draw
        lam = np.where(anti, h[:, 1], h[:, 0])[:, None]
        swapped = np.stack([-g[:, 1].conj(), g[:, 0].conj()], axis=1)
        gap = su2_product(g, h) - np.where(anti[:, None], swapped, g) * lam
        return float(np.max(np.hypot(gap.real, gap.imag)))

    return _worst_over_chunks(cfg.samples, batch)


@register("groups", "h-image-in-o2", "stabilizer-image-in-so3", 1e-12)
def _h_o2(rng, cfg):
    def batch(n):
        u = rng.random(size=(n, 2))
        r = spinor_map(_h_rows(u))
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
        gh = su2_product(g, _h_rows(draws[:, 4:]))
        p1, p2 = rp2_rep(quotient_to_sphere(g)), rp2_rep(quotient_to_sphere(gh))
        return float(np.max(np.abs(p1 - p2)))

    return _worst_over_chunks(cfg.samples, batch)


# -------------------------------------------------------------- manifold

INTERIOR_MARGIN = 0.05   # least |coordinate| of a point drawn inside all three charts


def _interior(v) -> np.ndarray:
    """Which unit rows lie inside all three charts, each |coordinate| above INTERIOR_MARGIN."""
    return np.min(np.abs(v), axis=1) > INTERIOR_MARGIN


@register("manifold", "transition-cocycle", "chart-transition-signs", 1e-15)
def _cocycle(rng, cfg):
    s = transition_signs(rp2_rep(_kept_points(rng, 1000, _interior)))
    # gap[k, a, b, c] = g_ab g_bc - g_ac
    gap = s[:, :, :, None] * s[:, None, :, :] - s[:, :, None, :]
    return float(np.max(np.abs(gap)))


@register("manifold", "chart-representative-independence", "chart-transition-signs", 1e-13)
def _chart_rep(rng, cfg):
    def batch(n):
        v = _kept_points(rng, n, _interior)
        p, q = rp2_rep(v), rp2_rep(-v)
        gaps = [chart_coords(p, a) - chart_coords(q, a) for a in (1, 2, 3)]
        return float(np.max(np.abs(gaps)))

    return _worst_over_chunks(cfg.samples, batch)


@register("manifold", "moment-injectivity", "projective-orbit-embedding", 1e-6)
def _moment_inject(rng, cfg):
    # A pair draws x, then the branch: y is independent (s = 0, n its normals)
    # or y = s·x + 1e-10·n with the sign s drawn next.  The branch decides how
    # many doubles a pair consumes, so pairs are drawn one at a time, each
    # straight into its rows.
    normal, random = rng.standard_normal, rng.random
    worst = 0.0
    for _ in range(5):                               # 5 chunks of 2000 pairs
        x, n, s = np.empty((2000, 3)), np.empty((2000, 3)), []
        for xk, nk in zip(x, n):
            normal(out=xk)
            s.append(0.0 if random() < 0.5 else -1.0 if random() < 0.5 else 1.0)
            normal(out=nk)
        x, s = x / _norm(x)[:, None], np.array(s)[:, None]
        y = np.where(s != 0.0, s * x + n * 1e-10, n)
        y = y / _norm(y)[:, None]
        close = _norm((moment_embedding(x) - moment_embedding(y)).reshape(-1, 9)) < 1e-8
        if np.any(close):
            gap = np.abs(rp2_rep(x[close]) - rp2_rep(y[close]))
            worst = max(worst, float(np.max(gap)))
    return worst


@register("manifold", "moment-equivariance", "linear-action-on-orbit", 1e-12)
def _moment_equiv(rng, cfg):
    draws = rng.normal(size=(100, 7))               # random_su2, then an axis
    r, x = spinor_map(su2_from_normals(draws[:, :4])), draws[:, 4:]
    x = x / _norm(x)[:, None]
    gap = w_action(r, moment_embedding(x)) - moment_embedding(_apply(r, x))
    return float(np.max(np.abs(gap)))


@register("manifold", "quartic-embedding-components", "even-quadratic-embedding", 1e-14)
def _f_components(rng, cfg):
    def batch(n):
        v = rng.normal(size=(n, 3))                 # n axes
        v = v / _norm(v)[:, None]
        p, q = rp2_rep(v), rp2_rep(-v)
        f = f_embedding(p)
        return max(float(np.max(np.abs(f - f_from_moment(moment_embedding(p))))),
                   float(np.max(np.abs(f - f_embedding(q)))))

    return _worst_over_chunks(cfg.samples, batch)


@register("manifold", "quadrature-orthonormality", "sphere-quadrature-exactness", 1e-10)
def _quad_ortho(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    worst = 0.0
    basis = grid.basis(cfg.lmax)
    gram = (basis.conj() * grid.weights[:, None]).T @ basis
    worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    worst = max(worst, abs(float(np.sum(grid.weights)) - 4 * np.pi))
    return worst


@register("manifold", "w-functional-evenness", "orbit-functionals", 1e-15)
def _w_even(rng, cfg):
    def batch(n):
        draws = rng.normal(size=(n, 9))             # w_matrix coordinates, c0, then the axis
        c, c0, x = classical.w_matrix(draws[:, :5]), draws[:, 5], draws[:, 6:]
        x = x / _norm(x)[:, None]
        wx = w_values(c, c0, x)
        return max(float(np.max(np.abs(wx - w_values(c, c0, -x)))),
                   float(np.max(np.abs(wx - w_values(c, c0, rp2_rep(x))))))

    return _worst_over_chunks(cfg.samples, batch)


# ------------------------------------------------------------- harmonics

@register("harmonics", "analyze-evaluate-roundtrip", "harmonic-transform-pair", 1e-10)
def _roundtrip(rng, cfg):
    lmax = min(cfg.lmax + 4, 12)
    grid = build_quadrature(lmax)
    worst = 0.0
    for _ in range(5):
        a = random_coeffs(lmax, "full", rng)
        back = analyze(np.asarray(evaluate(a, grid.nodes)), lmax, grid)
        worst = max(worst, float(np.linalg.norm(back.c - a.c) / a.norm()))
    return worst


@register("harmonics", "antipodal-parity", "parity-split-of-sphere-functions", 1e-10)
def _antipodal(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    degrees = np.arange(cfg.lmax + 1)
    tables = np.stack([unit(cfg.lmax, l, int(rng.integers(-l, l + 1))).c for l in degrees])
    plus = ylm_synthesize(grid.nodes, cfg.lmax, tables)
    minus = ylm_synthesize(-grid.nodes, cfg.lmax, tables)
    return float(np.max(np.abs(minus - (-1.0) ** degrees[:, None] * plus)))


@register("harmonics", "rotation-sector-closure", "parity-split-of-sphere-functions", 1e-10)
def _sector_closure(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        sector = "even" if rng.random() < 0.5 else "odd"
        a = random_coeffs(cfg.lmax, sector, rng)
        raw = analyze(rotate_values(random_su2(rng), a.c, grid.nodes), cfg.lmax, grid)
        even, odd = parity_decompose(raw)
        leak = odd if sector == "even" else even
        worst = max(worst, leak.norm())
    return worst


@register("harmonics", "rotation-unitarity", "rotation-resampling", 1e-10)
def _rot_unitary(rng, cfg):
    grid = build_quadrature(cfg.lmax)
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
        c = random_coeffs(cfg.lmax, "full", rng).c
        for (i, j), k in eps.items():
            comm = apply_L(i, apply_L(j, c)) - apply_L(j, apply_L(i, c))
            worst = max(worst, float(np.linalg.norm(comm - 1j * apply_L(k, c))))
    return worst


def _symmetrized_power_d(j: float, g) -> np.ndarray:
    """Oracle for ``wigner_d``: the 2j-fold symmetrized power of the matrix of a row g.

    With [[a, b], [c, d]] = [[z0, conj(z1)], [-z1, conj(z0)]] for g = (z0, z1),
    acting as x ↦ ax + cy, y ↦ bx + dy on
    f_m = x^{j+m} y^{j-m} / sqrt((j+m)!(j-m)!), m = +j ... -j:

        D_{m'm} = sqrt((j+m')!(j-m')!/((j+m)!(j-m)!)) ·
                  Σ_k C(j+m, k) C(j-m, j-m'-k) a^{j+m-k} c^k b^{m'-m+k} d^{j-m'-k}.
    """
    n = round(2 * j)
    z0, z1 = g
    a, b, c, d = z0, z1.conjugate(), -z1, z0.conjugate()
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
    grid = build_quadrature(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        g = random_su2(rng)
        a = random_coeffs(cfg.lmax, "full", rng)
        rot = rotate_coeffs(g, a, grid)
        resampled = analyze(rotate_values(g, a.c, grid.nodes), cfg.lmax, grid)
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
    g12 = su2_product(g1, g2)
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
    def batch(n):
        u = rng.random(size=(n, 4))                 # two H samples per sample
        h1, h2 = _h_rows(u[:, :2]), _h_rows(u[:, 2:])
        prod = bundles.kappa(su2_product(h1, h2))
        if np.any(prod == 0):                       # a product outside H
            return 1.0
        return float(np.max(np.abs(prod - bundles.kappa(h1) * bundles.kappa(h2))))

    return _worst_over_chunks(cfg.samples, batch)


@register("bundles", "frame-map-odd-unit", "odd-frame-map", 1e-12)
def _phi_props(rng, cfg):
    def batch(n):
        x = rng.normal(size=(n, 3))                 # n axes
        x = x / _norm(x)[:, None]
        f = bundles.phi(x)
        return max(float(np.max(np.abs(bundles.phi(-x) + f))),
                   float(np.max(np.abs(_row_norms(f) - 1.0))))

    return _worst_over_chunks(cfg.samples, batch)


def _assoc_rows(draws) -> tuple[np.ndarray, np.ndarray]:
    """(g, v) rows from (n, 6) normal draws, one associated-bundle sample per row.

    A sample draws the fiber v = normal() + i·normal(), then g as ``random_su2``.
    """
    v = draws[:, 0] + 1j * draws[:, 1]
    return su2_from_normals(draws[:, 2:6]), v


@register("bundles", "iso-well-defined", "bundle-isomorphism", 1e-12)
def _iso_well_defined(rng, cfg):
    def batch(n):
        draws = _draw_rows(rng, n, _assoc_and_h)
        g, v = _assoc_rows(draws)
        kappa = np.where(draws[:, 6] < 0.5, 1, -1)  # +1 diagonal, -1 antidiagonal
        base1, fiber1 = bundles.iso_Phi(g, v)
        base2, fiber2 = bundles.iso_Phi(su2_product(g, _h_rows(draws[:, 6:])), kappa * v)
        return max(float(np.max(np.abs(base1 - base2))), float(np.max(np.abs(fiber1 - fiber2))))

    return _worst_over_chunks(cfg.samples, batch)


@register("bundles", "iso-roundtrip", "bundle-isomorphism", 1e-10)
def _iso_roundtrip(rng, cfg):
    base, fiber = bundles.iso_Phi(*_assoc_rows(rng.normal(size=(100, 6))))
    back_base, back_fiber = bundles.iso_Phi(*bundles.iso_Phi_inverse(base, fiber))
    return max(float(np.max(np.abs(back_fiber - fiber))), float(np.max(np.abs(back_base - base))))


@register("bundles", "lift-intertwining", "lift-transport-conjugation", 1e-10)
def _lift_intertwine(rng, cfg):
    draws = rng.normal(size=(200, 10))              # random_su2, then an assoc sample
    g = su2_from_normals(draws[:, :4])
    eg, v = _assoc_rows(draws[:, 4:])
    base_a, fiber_a = bundles.iso_Phi(su2_product(g, eg), v)
    base_t, fiber_t = bundles.lift_tau(g, *bundles.iso_Phi(eg, v))
    return max(float(np.max(np.abs(fiber_a - fiber_t))), float(np.max(np.abs(base_a - base_t))))


@register("bundles", "lift-composition-covering", "lift-transport-conjugation", 1e-10)
def _lift_compose(rng, cfg):
    def batch(n):
        draws = rng.normal(size=(n, 14))            # g1, g2, then an assoc sample
        g1, g2 = su2_from_normals(draws[:, :4]), su2_from_normals(draws[:, 4:8])
        g12 = su2_product(g1, g2)
        base, fiber = bundles.iso_Phi(*_assoc_rows(draws[:, 8:]))
        _, seq_fiber = bundles.lift_tau(g1, *bundles.lift_tau(g2, base, fiber))
        prod_base, prod_fiber = bundles.lift_tau(g12, base, fiber)
        covered = rp2_rep(_apply(spinor_map(g12), base))
        return max(float(np.max(np.abs(seq_fiber - prod_fiber))),
                   float(np.max(np.abs(prod_base - covered))))

    return _worst_over_chunks(cfg.samples, batch)


@register("bundles", "trivialization-transitions", "chart-transition-signs", 1e-12)
def _triv_transitions(rng, cfg):
    def batch(n):
        draws = _kept_attempts(rng, n, _interior, 2)   # an interior point, then (re, im)
        base = rp2_rep(draws[:, :3])
        fiber = (draws[:, 3] + 1j * draws[:, 4])[:, None] * bundles.phi(base)
        # c[k, a-1] is the chart-a coordinate; gap[k, a-1, b-1] = c_b - g_ba c_a
        c = np.stack([bundles.local_trivialization(a, base, fiber) for a in (1, 2, 3)], -1)
        gap = c[:, None, :] - transition_signs(base).mT * c[:, :, None]
        return float(np.max(np.abs(gap)))

    return _worst_over_chunks(cfg.samples, batch)


@register("bundles", "projector-properties", "tautological-projector", 1e-13)
def _projector_props(rng, cfg):
    def batch(n):
        draws = rng.normal(size=(n, 7))             # an axis, then random_su2
        x, r = draws[:, :3], spinor_map(su2_from_normals(draws[:, 3:]))
        x = x / _norm(x)[:, None]
        p = bundles.projector(x)
        gaps = (p @ p - p, p - p.conj().mT, bundles.projector(-x) - p,
                bundles.projector(_apply(r, x)) - r @ p @ r.mT)
        return max(float(np.max(np.abs(gap))) for gap in gaps)

    return _worst_over_chunks(cfg.samples, batch)


@register("bundles", "module-roundtrip", "projective-module-isomorphism", 1e-9)
def _module_roundtrip(rng, cfg):
    grid = build_quadrature(_module_grid_order(cfg.lmax))
    a = _odd_tables(rng, 5, cfg.lmax)
    f = bundles.module_iso_forward(a, grid)
    back = bundles.module_iso_inverse(f, grid)
    n = a.shape[-1]
    return max(float(np.max(bundles.projector_residual(f, grid))),
               float(np.max(_row_norms(back[:, :n] - a))),
               float(np.max(_row_norms(back[:, n:]))))


@register("bundles", "section-well-defined", "odd-sections-from-functions", 1e-12)
def _section_well_defined(rng, cfg):
    a = random_coeffs(cfg.lmax, "odd", rng)

    def batch(n):
        x = rng.normal(size=(n, 3))                 # n axes
        x = x / _norm(x)[:, None]
        plus = evaluate(a, x)[:, None] * unit_vector(x).astype(complex)
        minus = evaluate(a, -x)[:, None] * unit_vector(-x).astype(complex)
        return float(np.max(np.abs(plus - minus)))

    # at most 2¹⁵/(lmax+1)² points per chunk; chunks draw in stream order, so the
    # size only bounds memory (ylm_synthesize keeps an (lmax+1) × n float slab)
    return _worst_over_chunks(cfg.samples, batch, rows=max(1, (1 << 15) // a.c.size))


# -------------------------------------------------------- representation

def _sector_draw(rng, extra: int, lmax: int) -> np.ndarray:
    """One sample's raw draws: the sector's ``random()``, a table's normals, then ``extra`` normals."""
    return np.concatenate(([rng.random()], rng.normal(size=2 * num_coeffs(lmax) + extra)))


@register("representation", "generator-vs-ladder", "orbital-generator-match", 1e-8)
def _gen_vs_ladder(rng, cfg):
    # ten (sector, table) samples, then each generator on the whole stack
    rows = _draw_rows(rng, 10, lambda r: _sector_draw(r, 0, cfg.lmax))
    tables = _tables_from_normals(rows[:, 1:], cfg.lmax, _off_masks(cfg.lmax, rows[:, 0] < 0.5))
    return max(float(np.max(generator_vs_ladder_residual(i, tables))) for i in (1, 2, 3))


@register("representation", "section-intertwining", "generator-intertwines-module-map", 1e-7)
def _intertwining(rng, cfg):
    grid = build_quadrature(cfg.lmax + 1)
    tables = _odd_tables(rng, 5, cfg.lmax)
    return float(np.max(check_intertwining(tables, grid)))


@register("representation", "su2-closure-fd", "generator-commutators", 1e-6)
def _closure(rng, cfg):
    return float(np.max(su2_closure_residual(_odd_tables(rng, 3, cfg.lmax))))


@register("representation", "rotation-action-unitary-hom", "induced-rotation-action", 1e-9)
def _act_u(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    worst = 0.0
    for _ in range(10):
        a = random_coeffs(cfg.lmax, "odd", rng)
        g1, g2 = random_su2(rng), random_su2(rng)
        seq = rotate_coeffs(g1, rotate_coeffs(g2, a, grid), grid)
        prod = rotate_coeffs(su2_product(g1, g2), a, grid)
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
    grid = build_quadrature(cfg.lmax)
    fs, element = _canonical_ensemble(rng, cfg)
    worst = 0.0
    for _ in range(5):
        out = act_canonical(*element(), fs, grid)
        worst = max(worst, abs(out.norm() - fs.norm()) / fs.norm())
    return worst


@register("representation", "canonical-group-law", "semidirect-composition", 1e-6)
def _canonical_law(rng, cfg):
    grid = build_quadrature(cfg.lmax)
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
    # Each sample draws (sector, table, g₁, g₂) in stream order, as
    # ``random()``, ``random_coeffs`` and two ``random_su2``.  A chunk of
    # samples is drawn into one array, then checked as one stack: the parity
    # of the table rotated by g₁ on coefficients, and the parity leak of the
    # table resampled at the nodes rotated by g₂ (the ``rotate_values``
    # route).  The first failing sample decides: a wrong parity gives 1.0, a
    # non-eigenstate raises.
    grid = build_quadrature(cfg.lmax)
    chunk = max(1, _EXCHANGE_POINTS // grid.n)
    size = num_coeffs(cfg.lmax)
    worst = 0.0
    for first in range(0, cfg.samples, chunk):
        rows = _draw_rows(rng, min(chunk, cfg.samples - first),
                          lambda r: _sector_draw(r, 8, cfg.lmax))
        odd = rows[:, 0] < 0.5
        off = _off_masks(cfg.lmax, odd)
        tables = _tables_from_normals(rows[:, 1:], cfg.lmax, off)
        g1 = su2_from_normals(rows[:, 1 + 2 * size:5 + 2 * size])
        g2 = su2_from_normals(rows[:, 5 + 2 * size:])
        parities = exchange_parities(rotate_stack(g1, tables), grid)
        wrong = np.flatnonzero(parities != np.where(odd, -1, 1))
        if wrong.size:
            if parities[wrong[0]] == 0:
                raise ValueError("section is not an exchange eigenstate")
            return 1.0
        raw = grid.project(rotate_values(g2, tables, grid.nodes), cfg.lmax)
        leak = np.where(off, raw, 0.0)
        worst = max(worst, float(np.max(_row_norms(leak))))
    return worst


# -------------------------------------------------------------- classical

def _elements(draws) -> list[tuple[np.ndarray, np.ndarray]]:
    """(c, A) stacks from (n, 8k) normal draws: per element, five W coordinates, then A."""
    return [(classical.w_matrix(draws[:, lo:lo + 5]), draws[:, lo + 5:lo + 8])
            for lo in range(0, draws.shape[1], 8)]


def _phase_points(draws) -> tuple[np.ndarray, np.ndarray]:
    """(u, ψ) stacks from (n, 10) normal draws: five W coordinates each."""
    return classical.w_matrix(draws[:, :5]), classical.w_matrix(draws[:, 5:])


@register("classical", "observable-linearity", "lie-algebra-to-observables", 1e-12)
def _p_linear(rng, cfg):
    def batch(n):
        draws = rng.normal(size=(n, 28))            # e1, e2, (α, β), then the phase point
        (c1, a1), (c2, a2) = _elements(draws[:, :16])
        al, be = draws[:, 16], draws[:, 17]
        pt = _phase_points(draws[:, 18:])
        combo = classical.P_observable(
            al[:, None, None] * c1 + be[:, None, None] * c2,
            al[:, None] * a1 + be[:, None] * a2, *pt,
        )
        gap = combo - (al * classical.P_observable(c1, a1, *pt)
                       + be * classical.P_observable(c2, a2, *pt))
        return float(np.max(np.abs(gap)))

    return _worst_over_chunks(cfg.samples, batch)


@register("classical", "bracket-closed-vs-fd", "canonical-bracket", 1e-7)
def _bracket_fd(rng, cfg):
    draws = rng.normal(size=(50, 26))               # e1, e2, then the phase point
    (c1, a1), (c2, a2) = _elements(draws[:, :16])
    args = (c1, a1, c2, a2, *_phase_points(draws[:, 16:]))
    gap = classical.poisson_bracket(*args) - classical.poisson_bracket_fd(*args)
    return float(np.max(np.abs(gap)))


@register("classical", "no-obstruction", "bracket-homomorphism", 1e-9)
def _no_obstruction(rng, cfg):
    # 100 phase points (u, ψ coordinates), then 1000 pairs of elements
    # (φ coordinates, A) for e1 and e2
    pts = classical.w_matrix(rng.normal(size=(100, 2, 5)))
    e = rng.normal(size=(1000, 16))
    c1, c2 = classical.w_matrix(e[:, 0:5]), classical.w_matrix(e[:, 8:13])
    return classical.homomorphism_defect(c1, e[:, 5:8], c2, e[:, 13:16], pts[:, 0], pts[:, 1])


@register("classical", "antisymmetry-jacobi", "bracket-homomorphism", 1e-8)
def _jacobi(rng, cfg):
    draws = rng.normal(size=(50, 34))               # three elements, then the phase point
    es, pt = _elements(draws[:, :24]), _phase_points(draws[:, 24:])
    self_bracket = classical.poisson_bracket(*es[0], *es[0], *pt)
    swapped = (classical.poisson_bracket(*es[0], *es[1], *pt)
               + classical.poisson_bracket(*es[1], *es[0], *pt))
    cyc = 0.0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        nested = classical.lie_bracket(*classical.lie_bracket(*es[i], *es[j]), *es[k])
        cyc += classical.P_observable(*nested, *pt)
    return float(np.max(np.abs([self_bracket, swapped, cyc])))


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
    product = heisenberg.heisenberg_product

    def batch(n):
        draws = rng.normal(size=(n, 3, 5))          # three elements: a (2), b (2), then r
        e0, e1, e2 = (heisenberg.HeisenbergElement(d[:, :2], d[:, 2:4], d[:, 4])
                      for d in draws.transpose(1, 0, 2))
        lhs, rhs = product(product(e0, e1), e2), product(e0, product(e1, e2))
        inv = product(e0, e0.inverse())
        gaps = (lhs.a - rhs.a, lhs.b - rhs.b, lhs.r - rhs.r, inv.a, inv.r)
        return max(float(np.max(np.abs(gap))) for gap in gaps)

    return _worst_over_chunks(cfg.samples, batch)


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

def _off_south_cap(v) -> np.ndarray:
    """Which unit rows keep clear of the frame's excluded south cap (z ≤ -0.8)."""
    return v[:, 2] > -0.8


@register("berry-robbins", "transport-unitarity", "transported-frame", 1e-12)
def _transport_unitary(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        u = frame.unitary(_kept_points(rng, 500, _off_south_cap))
        worst = max(worst, float(np.max(np.abs(u @ u.conj().mT - np.eye(frame.dim)))))
    return worst


@register("berry-robbins", "transported-spin-spectrum-algebra", "conjugated-spin-operators", 1e-12)
def _spin_props(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0, 1.5):
        frame = TransportFrame(j)
        want = np.arange(-j, j + 1)
        r = _kept_points(rng, 20, _off_south_cap)
        mats = [transported_spin(i, r, frame) for i in (1, 2, 3)]
        for s in mats:
            ev = np.sort(np.linalg.eigvalsh(s))
            worst = max(worst, float(np.max(np.abs(ev - want))))
        comm = mats[0] @ mats[1] - mats[1] @ mats[0]
        worst = max(worst, float(np.max(np.abs(comm - 1j * mats[2]))))
    return worst


@register("berry-robbins", "lift-composition", "transported-basis-lift", 1e-10)
def _br_compose(rng, cfg):
    # an attempt draws a base point off the south cap, λ's (re, im) normals
    # and g1, g2 as two random_su2; it is kept while both images of the point
    # avoid the cap.  The kept samples are lifted as one stack.
    def images_off_cap(points, tails):
        mid = _apply(spinor_map(su2_from_normals(tails[:, 10:])), unit_vector(points))
        end = _apply(spinor_map(su2_from_normals(tails[:, 6:10])), mid)
        return ~((mid[:, 2] < -0.8) | (end[:, 2] < -0.8))

    frame = TransportFrame(1.0)
    rows = _kept_attempts(rng, 200, _off_south_cap, 14, images_off_cap)
    g1, g2 = su2_from_normals(rows[:, 9:13]), su2_from_normals(rows[:, 13:])
    st = BRState(unit_vector(rows[:, :3]), rows[:, 3:6] + 1j * rows[:, 6:9])
    lhs = br_lift(g1, br_lift(g2, st, frame), frame)
    rhs = br_lift(su2_product(g1, g2), st, frame)
    norm_gap = _row_norms(rhs.lam) - _row_norms(st.lam)
    return max(float(np.max(np.abs(lhs.lam - rhs.lam))),
               float(np.max(np.abs(lhs.r - rhs.r))),
               float(np.max(np.abs(norm_gap))))


@register("berry-robbins", "generator-recovery", "spin-operators-from-lift", 1e-7)
def _br_recover(rng, cfg):
    worst = 0.0
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        r = _kept_points(rng, 10, _off_south_cap)
        for i in (1, 2, 3):
            gap = recover_spin_generator(i, r, frame) - transported_spin(i, r, frame)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


@register("berry-robbins", "spin-zero-reduction", "transported-basis-lift", 1e-15)
def _j0_reduction(rng, cfg):
    frame = TransportFrame(0.0)

    def batch(k):
        # a base point off the south cap, the scalar's (re, im), random_su2's normals
        draws = _kept_attempts(rng, k, _off_south_cap, 6)
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
        field_ = np.stack([random_coeffs(lmax, "full", rng).c for _ in range(int(2 * j) + 1)])
        for i in (1, 2, 3):
            gap = total_generator_fd(i, j, field_) - total_generator_exact(i, j, field_)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def checks_for_suite(suite: str) -> list[Check]:
    if suite == "all":
        return list(REGISTRY)
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    return [c for c in REGISTRY if c.suite == suite]
