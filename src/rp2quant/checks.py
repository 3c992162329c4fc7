"""Registry of the verification checks run by the command-line harness.

Each check draws from its own RNG stream (derived from the master seed and a
stable hash of the check name, so results do not depend on execution order),
computes a residual, and is compared against its pinned tolerance.  Checks
are grouped into suites mirroring the package modules.

A check body is a generator: it yields its residuals, each a number or an
array, and ``register`` reduces them to the check's one residual, the worst
entry of any of them (``_worst``).  A NaN anywhere is the residual, so the
check fails; a body that yields nothing reads 0.0.

A check that samples draws each sample as one row of standard normals (a
chunk as one ``rng.normal(size=(n, k))`` block) and computes on the stack,
except the two canonical-operator checks and the heisenberg checks on a wave
function, whose operators take one element at a time.  A coin flip is the
sign of one normal, a phase the direction of a pair (λ = (a + ib)/|a + ib|,
ψ = arctan2(a, b) mod 2π) and an axis three normals scaled to unit norm, so a
block of rows is exactly the samples a loop drawing one row at a time gets.
A rejected sample is a rejected row (``_kept_rows``); ``antipodal-parity``
draws its orders m with ``rng.integers``.
"""

import functools
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
from .bundles import _module_grid_order
from .errors import ConfigError
from .groups import (
    H_CLASSIFY_TOL,
    _complex,
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
    validate_normalize_su2,
)
from .harmonics import (
    HarmonicCoeffs,
    _row_norms,
    _tables_from_normals,
    apply_L,
    evaluate,
    num_coeffs,
    off_sector_mask,
    random_coeffs,
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
        if not (1 <= self.lmax <= LMAX_MAX):
            raise ConfigError(f"lmax must lie in [1, {LMAX_MAX}]: the module maps at a larger "
                              f"lmax need a grid above the quadrature cap {MAX_GRID_LMAX}")
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
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError(f"rng_seed must lie in [0, 2**64), got {self.rng_seed}")


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    anchor: str
    tolerance: float
    fn: object


REGISTRY: list[Check] = []


def _worst(parts) -> float:
    """The largest entry of any part (numbers or arrays), NaN if any entry is NaN; 0.0 if none."""
    peaks = [float(np.max(p)) for p in parts]
    return float(np.max(peaks)) if peaks else 0.0


def register(suite: str, name: str, anchor: str, tolerance: float):
    """Register a body that yields residuals; the check's ``fn`` returns their ``_worst``."""
    def deco(body):
        fn = functools.wraps(body)(lambda rng, cfg: _worst(body(rng, cfg)))
        REGISTRY.append(Check(name, suite, anchor, tolerance, fn))
        return body

    return deco


def check_rng(master_seed: int, name: str) -> np.random.Generator:
    """Per-check stream: master seed mixed with a stable hash of the name."""
    digest = hashlib.sha256(name.encode()).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng([master_seed, tag])


# the largest lmax whose module maps fit the quadrature cap; SuiteConfig accepts [1, LMAX_MAX]
LMAX_MAX = max(l for l in range(1, MAX_GRID_LMAX + 1) if _module_grid_order(l) <= MAX_GRID_LMAX)


def _unit(v) -> np.ndarray:
    """Rows scaled to unit norm: three normals so scaled are an axis uniform on the sphere."""
    return v / _norm(v)[:, None]


def _h_rows(draws) -> np.ndarray:
    """Embedded H rows from (n, 3) normals, one H sample per row.

    The kind is the sign of the first normal, diagonal where it is negative;
    λ = (a + ib)/|a + ib| from the other two, a, b, is uniform on the circle.
    """
    a, b = draws[:, 1], draws[:, 2]
    r = np.hypot(a, b)
    return h_embed(draws[:, 0] >= 0, _complex(a / r, b / r))


def _kept_rows(rng, n: int, width: int, ok) -> np.ndarray:
    """n rows of ``width`` normals that ``ok`` keeps, as a loop drawing one row at a time keeps them.

    ``ok`` maps (k, width) rows to k flags.  Only the rows still missing are
    drawn, as one (need, width) block, and its kept rows are taken in order:
    the loop draws at least that many more rows, so the stream ends where the
    loop's does.
    """
    kept, need = [], n
    while need:
        rows = rng.normal(size=(need, width))
        rows = rows[ok(rows)]
        kept.append(rows)
        need -= len(rows)
    return np.concatenate(kept)


def _off_masks(lmax: int, odd) -> np.ndarray:
    """(n, (lmax+1)²) off-sector masks: the odd sector's where ``odd`` (n,) holds, else even's."""
    return np.where(odd[:, None], off_sector_mask(lmax, "odd"), off_sector_mask(lmax, "even"))


def _odd_tables(rng, n: int, lmax: int) -> np.ndarray:
    """n draws of ``random_coeffs(lmax, "odd", rng)`` as one (n, (lmax+1)²) stack."""
    normals = rng.normal(size=(n, 2 * num_coeffs(lmax)))
    return _tables_from_normals(normals, lmax, off_sector_mask(lmax, "odd"))


_CHUNK_ROWS = 4096   # samples per batch: an (n, 3, 3) float64 temporary stays near 300 KB


def _chunks(n: int, rows: int = _CHUNK_ROWS):
    """Sizes of consecutive chunks of at most ``rows`` of the n samples.

    Each chunk draws its samples as rows in stream order, so the chunks
    together draw what one batch of n would.
    """
    for lo in range(0, n, rows):
        yield min(rows, n - lo)


# ---------------------------------------------------------------- groups

@register("groups", "spinor-homomorphism", "su2-so3-double-cover", 1e-12)
def _spinor_hom(rng, cfg):
    g = su2_from_normals(rng.normal(size=(2000, 4)))
    g1, g2 = g[0::2], g[1::2]
    gap = spinor_map(su2_product(g1, g2)) - spinor_map(g1) @ spinor_map(g2)
    yield _norm(gap.reshape(-1, 9))                 # Frobenius norm per matrix


@register("groups", "spinor-double-cover-kernel", "su2-so3-double-cover", 1e-15)
def _spinor_kernel(rng, cfg):
    for n in _chunks(cfg.samples):
        g = su2_from_normals(rng.normal(size=(n, 4)))
        yield np.abs(spinor_map(g) - spinor_map(validate_normalize_su2(-g)))


@register("groups", "axis-angle-cross-check", "rodrigues-vs-spinor-map", 1e-12)
def _axis_angle(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 5))             # ψ's pair, then the axis
        psi, axes = np.arctan2(draws[:, 0], draws[:, 1]) % (2 * np.pi), _unit(draws[:, 2:])
        gap = rotation_from_axis_angle(psi, axes) - spinor_map(su2_from_axis_angle(psi, axes))
        yield np.abs(gap)


@register("groups", "h-subgroup-closure", "stabilizer-subgroup-closure", 1e-12)
def _h_closure(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 6))             # two H samples
        prod = su2_product(_h_rows(draws[:, :3]), _h_rows(draws[:, 3:]))
        # distance from H = size of the entry that should vanish (abs() rounding)
        dist = np.min(np.hypot(prod.real, prod.imag), axis=1)
        yield 1.0 if np.any(dist > H_CLASSIFY_TOL) else dist    # 1.0: a product outside H


@register("groups", "h-orbit-component-formulas", "stabilizer-orbit-products", 1e-13)
def _h_orbit(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 7))             # random_su2, then an H sample
        g, h = su2_from_normals(draws[:, :4]), _h_rows(draws[:, 4:])
        anti = draws[:, 4] >= 0                     # the H sample's kind
        lam = np.where(anti, h[:, 1], h[:, 0])[:, None]
        swapped = np.stack([-g[:, 1].conj(), g[:, 0].conj()], axis=1)
        gap = su2_product(g, h) - np.where(anti[:, None], swapped, g) * lam
        yield np.hypot(gap.real, gap.imag)


@register("groups", "h-image-in-o2", "stabilizer-image-in-so3", 1e-12)
def _h_o2(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 3))             # an H sample
        r = spinor_map(_h_rows(draws))
        s = np.where(draws[:, 0] < 0, 1.0, -1.0)    # +1 diagonal, -1 antidiagonal
        # diagonal: rotation about e3 (orthogonal 2x2 block with det +1, R33 = 1);
        # antidiagonal: reflection type (R33 = -1, symmetric traceless block)
        yield np.abs(np.stack([
            r[:, 0, 2], r[:, 1, 2], r[:, 2, 0], r[:, 2, 1],
            r[:, 2, 2] - s, r[:, 0, 0] - s * r[:, 1, 1], r[:, 0, 1] + s * r[:, 1, 0],
        ]))


@register("groups", "rp2-h-invariance", "projective-quotient-invariance", 1e-12)
def _rp2_invariance(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 7))             # random_su2, then an H sample
        g = su2_from_normals(draws[:, :4])
        gh = su2_product(g, _h_rows(draws[:, 4:]))
        yield np.abs(rp2_rep(quotient_to_sphere(g)) - rp2_rep(quotient_to_sphere(gh)))


# -------------------------------------------------------------- manifold

INTERIOR_MARGIN = 0.05   # least |coordinate| of a point drawn inside all three charts


def _interior(rows) -> np.ndarray:
    """Which rows' points (their first three normals, as a unit axis) lie inside all three charts.

    Inside means each |coordinate| above INTERIOR_MARGIN.
    """
    return np.min(np.abs(_unit(rows[:, :3])), axis=1) > INTERIOR_MARGIN


@register("manifold", "transition-cocycle", "chart-transition-signs", 1e-15)
def _cocycle(rng, cfg):
    s = transition_signs(rp2_rep(_unit(_kept_rows(rng, 1000, 3, _interior))))
    # gap[k, a, b, c] = g_ab g_bc - g_ac
    gap = s[:, :, :, None] * s[:, None, :, :] - s[:, :, None, :]
    yield np.abs(gap)


@register("manifold", "chart-representative-independence", "chart-transition-signs", 1e-13)
def _chart_rep(rng, cfg):
    for n in _chunks(cfg.samples):
        v = _unit(_kept_rows(rng, n, 3, _interior))
        p, q = rp2_rep(v), rp2_rep(-v)
        for a in (1, 2, 3):
            yield np.abs(chart_coords(p, a) - chart_coords(q, a))


@register("manifold", "moment-injectivity", "projective-orbit-embedding", 1e-6)
def _moment_inject(rng, cfg):
    # A pair draws x, the branch, the sign s, then normals n: y is the axis of
    # n, or of s·x + 1e-10·n where the branch's normal is not negative.
    for k in _chunks(10_000):
        draws = rng.normal(size=(k, 8))
        x, n = _unit(draws[:, :3]), draws[:, 5:]
        s = np.where(draws[:, 4:5] < 0, -1.0, 1.0)
        y = _unit(np.where(draws[:, 3:4] >= 0, s * x + n * 1e-10, n))
        close = _norm((moment_embedding(x) - moment_embedding(y)).reshape(-1, 9)) < 1e-8
        if np.any(close):
            yield np.abs(rp2_rep(x[close]) - rp2_rep(y[close]))


@register("manifold", "moment-equivariance", "linear-action-on-orbit", 1e-12)
def _moment_equiv(rng, cfg):
    draws = rng.normal(size=(100, 7))               # random_su2, then an axis
    r, x = spinor_map(su2_from_normals(draws[:, :4])), _unit(draws[:, 4:])
    yield np.abs(w_action(r, moment_embedding(x)) - moment_embedding(_apply(r, x)))


@register("manifold", "quartic-embedding-components", "even-quadratic-embedding", 1e-14)
def _f_components(rng, cfg):
    for n in _chunks(cfg.samples):
        v = _unit(rng.normal(size=(n, 3)))          # n axes
        p, q = rp2_rep(v), rp2_rep(-v)
        f = f_embedding(p)
        yield np.abs(f - f_from_moment(moment_embedding(p)))
        yield np.abs(f - f_embedding(q))


@register("manifold", "quadrature-orthonormality", "sphere-quadrature-exactness", 1e-10)
def _quad_ortho(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    basis = grid.basis(cfg.lmax)
    gram = (basis.conj() * grid.weights[:, None]).T @ basis
    yield np.abs(gram - np.eye(gram.shape[0]))
    yield abs(float(np.sum(grid.weights)) - 4 * np.pi)


@register("manifold", "w-functional-evenness", "orbit-functionals", 1e-15)
def _w_even(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 9))             # w_matrix coordinates, c0, then the axis
        c, c0, x = classical.w_matrix(draws[:, :5]), draws[:, 5], _unit(draws[:, 6:])
        wx = w_values(c, c0, x)
        yield np.abs(wx - w_values(c, c0, -x))
        yield np.abs(wx - w_values(c, c0, rp2_rep(x)))


# ------------------------------------------------------------- harmonics

@register("harmonics", "analyze-evaluate-roundtrip", "harmonic-transform-pair", 1e-10)
def _roundtrip(rng, cfg):
    lmax = min(cfg.lmax + 4, 12)
    grid = build_quadrature(lmax)
    tables = _tables_from_normals(rng.normal(size=(5, 2 * num_coeffs(lmax))), lmax, False)
    back = grid.project(ylm_synthesize(grid.nodes, lmax, tables), lmax)
    yield _row_norms(back - tables) / _row_norms(tables)


@register("harmonics", "antipodal-parity", "parity-split-of-sphere-functions", 1e-10)
def _antipodal(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    degrees = np.arange(cfg.lmax + 1)
    tables = np.stack([unit(cfg.lmax, l, int(rng.integers(-l, l + 1))).c for l in degrees])
    plus = ylm_synthesize(grid.nodes, cfg.lmax, tables)
    minus = ylm_synthesize(-grid.nodes, cfg.lmax, tables)
    yield np.abs(minus - (-1.0) ** degrees[:, None] * plus)


@register("harmonics", "rotation-sector-closure", "parity-split-of-sphere-functions", 1e-10)
def _sector_closure(rng, cfg):
    # a row is (sector, table, g): odd where the sector's normal is negative
    grid = build_quadrature(cfg.lmax)
    rows = rng.normal(size=(10, 5 + 2 * num_coeffs(cfg.lmax)))
    off = _off_masks(cfg.lmax, rows[:, 0] < 0)
    tables = _tables_from_normals(rows[:, 1:], cfg.lmax, off)
    raw = grid.project(rotate_values(su2_from_normals(rows[:, -4:]), tables, grid.nodes), cfg.lmax)
    yield _row_norms(np.where(off, raw, 0.0))              # the leak out of the sector


@register("harmonics", "rotation-unitarity", "rotation-resampling", 1e-10)
def _rot_unitary(rng, cfg):
    rows = rng.normal(size=(10, 2 * num_coeffs(cfg.lmax) + 4))    # the table, then g
    tables = _tables_from_normals(rows, cfg.lmax, False)
    b = rotate_stack(su2_from_normals(rows[:, -4:]), tables)
    yield np.abs(_row_norms(b) - _row_norms(tables))


@register("harmonics", "ladder-su2-algebra", "angular-momentum-ladders", 1e-12)
def _ladder_algebra(rng, cfg):
    c = _tables_from_normals(rng.normal(size=(5, 2 * num_coeffs(cfg.lmax))), cfg.lmax, False)
    for (i, j), k in {(1, 2): 3, (2, 3): 1, (3, 1): 2}.items():
        comm = apply_L(i, apply_L(j, c)) - apply_L(j, apply_L(i, c))
        yield _row_norms(comm - 1j * apply_L(k, c))


def _symmetrized_power_d(j: float, g) -> np.ndarray:
    """Oracle for ``wigner_d``: the 2j-fold symmetrized power of the matrix of each row g.

    g is one (2,) row or (..., 2) rows, giving (..., 2j+1, 2j+1).  With
    [[a, b], [c, d]] = [[z0, conj(z1)], [-z1, conj(z0)]] for g = (z0, z1),
    acting as x ↦ ax + cy, y ↦ bx + dy on
    f_m = x^{j+m} y^{j-m} / sqrt((j+m)!(j-m)!), m = +j ... -j:

        D_{m'm} = sqrt((j+m')!(j-m')!/((j+m)!(j-m)!)) ·
                  Σ_k C(j+m, k) C(j-m, j-m'-k) a^{j+m-k} c^k b^{m'-m+k} d^{j-m'-k}.
    """
    n, g = round(2 * j), np.asarray(g)
    z0, z1 = g[..., 0], g[..., 1]
    a, b, c, d = z0, z1.conj(), -z1, z0.conj()
    f = [math.factorial(k) for k in range(n + 1)]
    out = np.zeros(g.shape[:-1] + (n + 1, n + 1), dtype=complex)
    for p, q in np.ndindex(n + 1, n + 1):           # row m' = j - p, column m = j - q
        out[..., p, q] = math.sqrt(f[n - p] * f[p] / (f[n - q] * f[q])) * sum(
            math.comb(n - q, k) * math.comb(q, p - k)
            * a ** (n - q - k) * c**k * b ** (q - p + k) * d ** (p - k)
            for k in range(max(0, p - q), min(n - q, p) + 1)
        )
    return out


@register("harmonics", "rotation-wigner-cross-check", "wigner-matrix-blocks", 1e-9)
def _rot_wigner(rng, cfg):
    # the coefficient route against resampling on every degree, and against
    # the symmetrized-power oracle on l ≤ 4; a row is g, then the table
    grid = build_quadrature(cfg.lmax)
    rows = rng.normal(size=(10, 4 + 2 * num_coeffs(cfg.lmax)))
    g, tables = su2_from_normals(rows[:, :4]), _tables_from_normals(rows[:, 4:], cfg.lmax, False)
    rot = rotate_stack(g, tables)
    yield np.abs(rot - grid.project(rotate_values(g, tables, grid.nodes), cfg.lmax))
    for l in range(1, min(cfg.lmax, 4) + 1):
        block = slice(l * l, (l + 1) ** 2)          # m = -l..l; D rows run m = +l..-l
        want = _symmetrized_power_d(l, g) @ tables[:, block, None][:, ::-1]
        yield np.abs(rot[:, block][:, ::-1] - want[..., 0])


@register("harmonics", "wigner-homomorphism", "wigner-matrix-products", 1e-11)
def _wigner_hom(rng, cfg):
    pairs = su2_from_normals(rng.normal(size=(200, 2, 4)))   # (g1, g2) per sample
    g1, g2 = pairs[:, 0], pairs[:, 1]
    g12 = su2_product(g1, g2)
    for j in (0.5, 1.0, 1.5, 2.0):
        yield np.abs(wigner_d(j, g12) - wigner_d(j, g1) @ wigner_d(j, g2))


@register("harmonics", "wigner-defining-unitary", "wigner-matrix-products", 1e-12)
def _wigner_defining(rng, cfg):
    for k in _chunks(cfg.samples):
        g = su2_from_normals(rng.normal(size=(k, 4)))
        z0, z1 = g[:, 0], g[:, 1]
        matrix = np.stack([np.stack([z0, z1.conj()], -1), np.stack([-z1, z0.conj()], -1)], -2)
        yield np.abs(wigner_d(0.5, g) - matrix)
        for j in (0.5, 1.0, 2.0):
            d = wigner_d(j, g)
            yield np.abs(d @ d.conj().mT - np.eye(d.shape[-1]))


# --------------------------------------------------------------- bundles

@register("bundles", "kappa-multiplicative", "stabilizer-character", 1e-15)
def _kappa_mult(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 6))             # two H samples
        h1, h2 = _h_rows(draws[:, :3]), _h_rows(draws[:, 3:])
        prod = bundles.kappa(su2_product(h1, h2))
        # 1.0: a product outside H
        yield 1.0 if np.any(prod == 0) else np.abs(prod - bundles.kappa(h1) * bundles.kappa(h2))


@register("bundles", "frame-map-odd-unit", "odd-frame-map", 1e-12)
def _phi_props(rng, cfg):
    for n in _chunks(cfg.samples):
        x = _unit(rng.normal(size=(n, 3)))          # n axes
        f = bundles.phi(x)
        yield np.abs(bundles.phi(-x) + f)
        yield np.abs(_row_norms(f) - 1.0)


def _assoc_rows(draws) -> tuple[np.ndarray, np.ndarray]:
    """(g, v) rows from (n, 6) normal draws, one associated-bundle sample per row.

    A sample draws the fiber v = normal() + i·normal(), then g as ``random_su2``.
    """
    v = draws[:, 0] + 1j * draws[:, 1]
    return su2_from_normals(draws[:, 2:6]), v


@register("bundles", "iso-well-defined", "bundle-isomorphism", 1e-12)
def _iso_well_defined(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 9))             # an assoc sample, then an H sample
        g, v = _assoc_rows(draws)
        kappa = np.where(draws[:, 6] < 0, 1, -1)    # +1 diagonal, -1 antidiagonal
        base1, fiber1 = bundles.iso_Phi(g, v)
        base2, fiber2 = bundles.iso_Phi(su2_product(g, _h_rows(draws[:, 6:])), kappa * v)
        yield np.abs(base1 - base2)
        yield np.abs(fiber1 - fiber2)


@register("bundles", "iso-roundtrip", "bundle-isomorphism", 1e-10)
def _iso_roundtrip(rng, cfg):
    base, fiber = bundles.iso_Phi(*_assoc_rows(rng.normal(size=(100, 6))))
    back_base, back_fiber = bundles.iso_Phi(*bundles.iso_Phi_inverse(base, fiber))
    yield np.abs(back_fiber - fiber)
    yield np.abs(back_base - base)


@register("bundles", "lift-intertwining", "lift-transport-conjugation", 1e-10)
def _lift_intertwine(rng, cfg):
    draws = rng.normal(size=(200, 10))              # random_su2, then an assoc sample
    g = su2_from_normals(draws[:, :4])
    eg, v = _assoc_rows(draws[:, 4:])
    base_a, fiber_a = bundles.iso_Phi(su2_product(g, eg), v)
    base_t, fiber_t = bundles.lift_tau(g, *bundles.iso_Phi(eg, v))
    yield np.abs(fiber_a - fiber_t)
    yield np.abs(base_a - base_t)


@register("bundles", "lift-composition-covering", "lift-transport-conjugation", 1e-10)
def _lift_compose(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 14))            # g1, g2, then an assoc sample
        g1, g2 = su2_from_normals(draws[:, :4]), su2_from_normals(draws[:, 4:8])
        g12 = su2_product(g1, g2)
        base, fiber = bundles.iso_Phi(*_assoc_rows(draws[:, 8:]))
        _, seq_fiber = bundles.lift_tau(g1, *bundles.lift_tau(g2, base, fiber))
        prod_base, prod_fiber = bundles.lift_tau(g12, base, fiber)
        yield np.abs(seq_fiber - prod_fiber)
        yield np.abs(prod_base - rp2_rep(_apply(spinor_map(g12), base)))


@register("bundles", "trivialization-transitions", "chart-transition-signs", 1e-12)
def _triv_transitions(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = _kept_rows(rng, n, 5, _interior)    # an interior point, then (re, im)
        base = rp2_rep(_unit(draws[:, :3]))
        fiber = (draws[:, 3] + 1j * draws[:, 4])[:, None] * bundles.phi(base)
        # c[k, a-1] is the chart-a coordinate; gap[k, a-1, b-1] = c_b - g_ba c_a
        c = np.stack([bundles.local_trivialization(a, base, fiber) for a in (1, 2, 3)], -1)
        yield np.abs(c[:, None, :] - transition_signs(base).mT * c[:, :, None])


@register("bundles", "projector-properties", "tautological-projector", 1e-13)
def _projector_props(rng, cfg):
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 7))             # an axis, then random_su2
        x, r = _unit(draws[:, :3]), spinor_map(su2_from_normals(draws[:, 3:]))
        p = bundles.projector(x)
        for gap in (p @ p - p, p - p.conj().mT, bundles.projector(-x) - p,
                    bundles.projector(_apply(r, x)) - r @ p @ r.mT):
            yield np.abs(gap)


@register("bundles", "module-roundtrip", "projective-module-isomorphism", 1e-9)
def _module_roundtrip(rng, cfg):
    a = _odd_tables(rng, 5, cfg.lmax)
    f = bundles.module_iso_forward(a)
    back = bundles.module_iso_inverse(f)
    n = a.shape[-1]
    yield bundles.projector_residual(f)
    yield _row_norms(back[:, :n] - a)
    yield _row_norms(back[:, n:])


@register("bundles", "section-well-defined", "odd-sections-from-functions", 1e-12)
def _section_well_defined(rng, cfg):
    a = random_coeffs(cfg.lmax, "odd", rng)
    # at most 2¹⁵/(lmax+1)² points per chunk; chunks draw in stream order, so the
    # size only bounds memory (ylm_synthesize keeps an (lmax+1) × n float slab)
    for n in _chunks(cfg.samples, max(1, (1 << 15) // a.c.size)):
        x = _unit(rng.normal(size=(n, 3)))          # n axes
        plus = evaluate(a, x)[:, None] * bundles.phi(x)
        minus = evaluate(a, -x)[:, None] * bundles.phi(-x)
        yield np.abs(plus - minus)


# -------------------------------------------------------- representation

@register("representation", "generator-vs-ladder", "orbital-generator-match", 1e-8)
def _gen_vs_ladder(rng, cfg):
    # ten (sector, table) samples, odd where the sector's normal is negative,
    # then each generator on the whole stack
    rows = rng.normal(size=(10, 1 + 2 * num_coeffs(cfg.lmax)))
    tables = _tables_from_normals(rows[:, 1:], cfg.lmax, _off_masks(cfg.lmax, rows[:, 0] < 0))
    for i in (1, 2, 3):
        yield generator_vs_ladder_residual(i, tables)


@register("representation", "section-intertwining", "generator-intertwines-module-map", 1e-7)
def _intertwining(rng, cfg):
    yield check_intertwining(_odd_tables(rng, 5, cfg.lmax))


@register("representation", "su2-closure-fd", "generator-commutators", 1e-6)
def _closure(rng, cfg):
    yield su2_closure_residual(_odd_tables(rng, 3, cfg.lmax))


@register("representation", "rotation-action-unitary-hom", "induced-rotation-action", 1e-9)
def _act_u(rng, cfg):
    rows = rng.normal(size=(10, 2 * num_coeffs(cfg.lmax) + 8))    # the odd table, then g1, g2
    a = _tables_from_normals(rows, cfg.lmax, off_sector_mask(cfg.lmax, "odd"))
    g1, g2 = su2_from_normals(rows[:, -8:].reshape(10, 2, 4)).transpose(1, 0, 2)
    seq = rotate_stack(g1, rotate_stack(g2, a))
    yield _row_norms(seq - rotate_stack(su2_product(g1, g2), a))
    yield np.abs(_row_norms(seq) - _row_norms(a))


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
    for _ in range(5):
        out = act_canonical(*element(), fs, grid)
        yield abs(out.norm() - fs.norm()) / fs.norm()


@register("representation", "canonical-group-law", "semidirect-composition", 1e-6)
def _canonical_law(rng, cfg):
    grid = build_quadrature(cfg.lmax)
    fs, element = _canonical_ensemble(rng, cfg)
    for _ in range(5):
        yield check_group_law(element(), element(), fs, grid)


# points per exchange-statistics chunk: at lmax 8 a chunk's temporaries stay
# near 1 MB, so the harness's peak RSS does not rise over the per-sample loop
_EXCHANGE_POINTS = 1 << 12


@register("representation", "exchange-statistics", "parity-statistics-bookkeeping", 1e-10)
def _exchange(rng, cfg):
    # A sample is a row (sector, table, g₁, g₂): one normal, odd where it is
    # negative, a table's normals and two ``random_su2``.  A chunk of samples
    # is drawn as one block, then checked as one stack: the parity
    # of the table rotated by g₁ on coefficients, and the parity leak of the
    # table resampled at the nodes rotated by g₂ (the ``rotate_values``
    # route).  The first failing sample decides: a wrong parity gives 1.0, a
    # non-eigenstate raises.
    grid = build_quadrature(cfg.lmax)
    size = num_coeffs(cfg.lmax)
    for n in _chunks(cfg.samples, max(1, _EXCHANGE_POINTS // grid.n)):
        rows = rng.normal(size=(n, 9 + 2 * size))
        odd = rows[:, 0] < 0
        off = _off_masks(cfg.lmax, odd)
        tables = _tables_from_normals(rows[:, 1:], cfg.lmax, off)
        g1 = su2_from_normals(rows[:, 1 + 2 * size:5 + 2 * size])
        g2 = su2_from_normals(rows[:, 5 + 2 * size:])
        parities = exchange_parities(rotate_stack(g1, tables))
        wrong = np.flatnonzero(parities != np.where(odd, -1, 1))
        if wrong.size:
            if parities[wrong[0]] == 0:
                raise ValueError("section is not an exchange eigenstate")
            yield 1.0
            return
        raw = grid.project(rotate_values(g2, tables, grid.nodes), cfg.lmax)
        yield _row_norms(np.where(off, raw, 0.0))


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
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 28))            # e1, e2, (α, β), then the phase point
        (c1, a1), (c2, a2) = _elements(draws[:, :16])
        al, be = draws[:, 16], draws[:, 17]
        pt = _phase_points(draws[:, 18:])
        combo = classical.P_observable(
            al[:, None, None] * c1 + be[:, None, None] * c2,
            al[:, None] * a1 + be[:, None] * a2, *pt,
        )
        yield np.abs(combo - (al * classical.P_observable(c1, a1, *pt)
                              + be * classical.P_observable(c2, a2, *pt)))


@register("classical", "bracket-closed-vs-fd", "canonical-bracket", 1e-7)
def _bracket_fd(rng, cfg):
    draws = rng.normal(size=(50, 26))               # e1, e2, then the phase point
    (c1, a1), (c2, a2) = _elements(draws[:, :16])
    args = (c1, a1, c2, a2, *_phase_points(draws[:, 16:]))
    yield np.abs(classical.poisson_bracket(*args) - classical.poisson_bracket_fd(*args))


@register("classical", "no-obstruction", "bracket-homomorphism", 1e-9)
def _no_obstruction(rng, cfg):
    # 100 phase points (u, ψ coordinates), then 1000 pairs of elements
    # (φ coordinates, A) for e1 and e2
    pts = classical.w_matrix(rng.normal(size=(100, 2, 5)))
    e = rng.normal(size=(1000, 16))
    c1, c2 = classical.w_matrix(e[:, 0:5]), classical.w_matrix(e[:, 8:13])
    yield classical.homomorphism_defect(c1, e[:, 5:8], c2, e[:, 13:16], pts[:, 0], pts[:, 1])


@register("classical", "antisymmetry-jacobi", "bracket-homomorphism", 1e-8)
def _jacobi(rng, cfg):
    draws = rng.normal(size=(50, 34))               # three elements, then the phase point
    es, pt = _elements(draws[:, :24]), _phase_points(draws[:, 24:])
    yield np.abs(classical.poisson_bracket(*es[0], *es[0], *pt))
    yield np.abs(classical.poisson_bracket(*es[0], *es[1], *pt)
                 + classical.poisson_bracket(*es[1], *es[0], *pt))
    cyc = 0.0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        nested = classical.lie_bracket(*classical.lie_bracket(*es[i], *es[j]), *es[k])
        cyc += classical.P_observable(*nested, *pt)
    yield np.abs(cyc)


# -------------------------------------------------------------- heisenberg

def _packet(cfg, x0=0.4, sigma=1.0, k0=0.6, hbar=1.0):
    return heisenberg.gaussian_packet(cfg.grid_n, 20.0, x0, sigma, k0, hbar)


@register("heisenberg", "ccr-residual", "position-momentum-commutator", 1e-8)
def _ccr(rng, cfg):
    psi = _packet(cfg)
    comm = heisenberg.op_q(heisenberg.op_p(psi)).values - heisenberg.op_p(
        heisenberg.op_q(psi)
    ).values
    yield np.linalg.norm(comm - 1j * psi.hbar * psi.values) / np.linalg.norm(psi.values)


@register("heisenberg", "weyl-exchange-relation", "weyl-exchange-phase", 1e-9)
def _weyl(rng, cfg):
    psi = _packet(cfg)
    for _ in range(20):
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        yield heisenberg.check_weyl_relation(a, b, psi)


@register("heisenberg", "weyl-phase-swap-sign", "weyl-exchange-phase", 1e-9)
def _weyl_swap(rng, cfg):
    psi = _packet(cfg)
    for _ in range(10):
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        lhs = heisenberg.weyl_V(b, heisenberg.weyl_U(a, psi)).values
        rhs = heisenberg.weyl_U(a, heisenberg.weyl_V(b, psi)).values
        diff = lhs - np.exp(-1j * psi.hbar * a * b) * rhs
        yield np.linalg.norm(diff) / np.linalg.norm(psi.values)


@register("heisenberg", "representation-homomorphism", "heisenberg-representation", 1e-9)
def _rep_hom(rng, cfg):
    psi = _packet(cfg)
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


@register("heisenberg", "operator-unitarity", "heisenberg-representation", 1e-10)
def _op_unitary(rng, cfg):
    psi = _packet(cfg)
    for _ in range(20):
        yield abs(heisenberg.weyl_U(rng.uniform(-2, 2), psi).norm() - psi.norm())
        yield abs(heisenberg.weyl_V(rng.uniform(-4, 4), psi).norm() - psi.norm())


@register("heisenberg", "product-associativity", "heisenberg-group-product", 1e-14)
def _assoc(rng, cfg):
    product = heisenberg.heisenberg_product
    for n in _chunks(cfg.samples):
        draws = rng.normal(size=(n, 3, 5))          # three elements: a (2), b (2), then r
        e0, e1, e2 = (heisenberg.HeisenbergElement(d[:, :2], d[:, 2:4], d[:, 4])
                      for d in draws.transpose(1, 0, 2))
        lhs, rhs = product(product(e0, e1), e2), product(e0, product(e1, e2))
        inv = product(e0, e0.inverse())
        for gap in (lhs.a - rhs.a, lhs.b - rhs.b, lhs.r - rhs.r, inv.a, inv.r):
            yield np.abs(gap)


@register("heisenberg", "two-route-quantization-gap", "symmetrized-square-discrepancy", 1e-7)
def _gvh(rng, cfg):
    _, scalar = heisenberg.gvh_discrepancy(_packet(cfg))
    yield abs(scalar - 0.75) / 0.75


@register("heisenberg", "two-route-gap-grid-stability", "symmetrized-square-discrepancy", 1e-9)
def _gvh_stable(rng, cfg):
    psi1 = _packet(cfg)
    psi2 = heisenberg.gaussian_packet(2 * cfg.grid_n, 20.0, 0.4, 1.0, 0.6)
    _, s1 = heisenberg.gvh_discrepancy(psi1)
    _, s2 = heisenberg.gvh_discrepancy(psi2)
    yield abs(s1 - s2)


@register("heisenberg", "symmetrized-square-expansion", "symmetrized-square-discrepancy", 1e-8)
def _gvh_expansion(rng, cfg):
    yield heisenberg.gvh_expansion_residual(_packet(cfg))


@register("heisenberg", "halfline-translation-escape", "halfline-momentum-breakdown", 1e-6)
def _halfline(rng, cfg):
    psi = heisenberg.gaussian_packet(cfg.grid_n, 20.0, x0=4.0, sigma=0.5)
    yield heisenberg.halfline_breakdown_demo(0.0, psi)["escaped_mass"]       # at rest
    yield heisenberg.halfline_breakdown_demo(1.0, psi)["escaped_mass"]       # a small step
    yield 1.0 - heisenberg.halfline_breakdown_demo(4.0 + 10 * 0.5, psi)["escaped_mass"]


# ---------------------------------------------------------- berry-robbins

SOUTH_CAP_Z = -0.8      # the spin checks keep their points above it, clear of the frame's pole


def _off_south_cap(rows) -> np.ndarray:
    """Which rows' points (their first three normals, as a unit axis) keep clear of the south cap.

    The cap, z ≤ SOUTH_CAP_Z, is where the transport frame is excluded.
    """
    return _unit(rows[:, :3])[:, 2] > SOUTH_CAP_Z


@register("berry-robbins", "transport-unitarity", "transported-frame", 1e-12)
def _transport_unitary(rng, cfg):
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        u = frame.unitary(_unit(_kept_rows(rng, 500, 3, _off_south_cap)))
        yield np.abs(u @ u.conj().mT - np.eye(frame.dim))


@register("berry-robbins", "transported-spin-spectrum-algebra", "conjugated-spin-operators", 1e-12)
def _spin_props(rng, cfg):
    for j in (0.5, 1.0, 1.5):
        frame = TransportFrame(j)
        want = np.arange(-j, j + 1)
        r = _unit(_kept_rows(rng, 20, 3, _off_south_cap))
        mats = [transported_spin(i, r, frame) for i in (1, 2, 3)]
        for s in mats:
            yield np.abs(np.sort(np.linalg.eigvalsh(s)) - want)
        yield np.abs(mats[0] @ mats[1] - mats[1] @ mats[0] - 1j * mats[2])


@register("berry-robbins", "lift-composition", "transported-basis-lift", 1e-10)
def _br_compose(rng, cfg):
    # a row draws a base point, λ's (re, im) normals and g1, g2 as two
    # random_su2; it is kept while the point and both its images avoid the
    # south cap.  The kept samples are lifted as one stack.
    def off_cap(rows):
        mid = _apply(spinor_map(su2_from_normals(rows[:, 13:])), _unit(rows[:, :3]))
        end = _apply(spinor_map(su2_from_normals(rows[:, 9:13])), mid)
        return _off_south_cap(rows) & ~((mid[:, 2] < SOUTH_CAP_Z) | (end[:, 2] < SOUTH_CAP_Z))

    frame = TransportFrame(1.0)
    rows = _kept_rows(rng, 200, 17, off_cap)
    g1, g2 = su2_from_normals(rows[:, 9:13]), su2_from_normals(rows[:, 13:])
    st = BRState(_unit(rows[:, :3]), rows[:, 3:6] + 1j * rows[:, 6:9])
    lhs = br_lift(g1, br_lift(g2, st, frame), frame)
    rhs = br_lift(su2_product(g1, g2), st, frame)
    yield np.abs(lhs.lam - rhs.lam)
    yield np.abs(lhs.r - rhs.r)
    yield np.abs(_row_norms(rhs.lam) - _row_norms(st.lam))


@register("berry-robbins", "generator-recovery", "spin-operators-from-lift", 1e-7)
def _br_recover(rng, cfg):
    for j in (0.5, 1.0):
        frame = TransportFrame(j)
        r = _unit(_kept_rows(rng, 10, 3, _off_south_cap))
        for i in (1, 2, 3):
            yield np.abs(recover_spin_generator(i, r, frame) - transported_spin(i, r, frame))


@register("berry-robbins", "spin-zero-reduction", "transported-basis-lift", 1e-15)
def _j0_reduction(rng, cfg):
    frame = TransportFrame(0.0)
    for k in _chunks(cfg.samples):
        # a base point off the south cap, the scalar's (re, im), random_su2's normals
        draws = _kept_rows(rng, k, 9, _off_south_cap)
        st = BRState(_unit(draws[:, :3]), (draws[:, 3] + 1j * draws[:, 4])[:, None])
        g = su2_from_normals(draws[:, 5:])
        scalar = scalar_lift(g, st)
        keep = ~(scalar.r[:, 2] < SOUTH_CAP_Z)   # samples whose image leaves the south cap
        lifted = br_lift(g[keep], BRState(st.r[keep], st.lam[keep]), frame)
        same = (np.array_equal(lifted.r, scalar.r[keep])
                and np.array_equal(lifted.lam, scalar.lam[keep]))
        yield 0.0 if same else 1.0


@register("berry-robbins", "fixed-basis-addition", "angular-momentum-addition", 1e-7)
def _fixed_basis(rng, cfg):
    lmax = min(cfg.lmax, 6) - 1
    for j in (0.5, 1.0):
        field_ = _tables_from_normals(rng.normal(size=(int(2 * j) + 1, 2 * num_coeffs(lmax))),
                                      lmax, False)
        for i in (1, 2, 3):
            yield np.abs(total_generator_fd(i, j, field_) - total_generator_exact(i, j, field_))


def checks_for_suite(suite: str) -> list[Check]:
    if suite == "all":
        return list(REGISTRY)
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    return [c for c in REGISTRY if c.suite == suite]
