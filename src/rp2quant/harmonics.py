"""Spherical-harmonic analysis/synthesis and the even/odd parity split.

Functions on S² are carried as coefficient tables c[l, m] over complex
harmonics with the Condon-Shortley phase (ħ = 1 throughout).  The antipodal
map acts as (-1)^l on degree l, so the even-l/odd-l subspaces are exactly the
functions that descend to ℝP² and the sections of the nontrivial line bundle
respectively; coefficient tables carry a sector tag ("even" | "odd" | "full")
enforcing the split through one cached mask of odd degrees per lmax.  The
tagged ``HarmonicCoeffs`` is the public form of one table (``random_coeffs``,
``unit``, ``zeros``, ``analyze``, ``evaluate``, ``rotate_coeffs``,
``parity_decompose``); below it, ``apply_L``, ``rotate_stack``,
``rotate_values`` and the generators, module maps and spinor fields built on
them take bare (..., (lmax+1)²) coefficient stacks.  Random tables have one
formula, ``_tables_from_normals``: ``random_coeffs`` is its one-row call, and
the harness draws whole stacks through it.

Analysis and synthesis on a quadrature grid are separable
(``QuadratureGrid.project`` / ``synthesize``): an FFT over the azimuths of
each ring and one Legendre sum per m, O(L³) per table; in a parity sector
they run on one hemisphere over that sector's degrees.  ``evaluate`` and
``rotate_values`` at arbitrary points call ``ylm_synthesize``, which adds
each order m times e^{imφ} and forms no (n × (lmax+1)²) basis.

Angular momentum acts exactly in this basis:
    L₃ c[l, m] = m c[l, m],
    L± c[l, m] = sqrt(l(l+1) - m(m∓1)) c[l, m∓1]   (as coefficient maps);
``apply_L`` applies them to a (..., (lmax+1)²) stack, all degrees at once.
One primitive builds every spin-j rotation matrix, for any half-integer j:
``wigner_d`` is D^j(g) = e^{-iαS₃} V e^{-iβΛ} V† e^{-iγS₃}, with V from a
read-only cache of S₂ eigenvectors keyed by 2j and (α, β, γ) read from
g = (z0, z1).  g is one (2,) row or a stack of (..., 2) rows, and a stack
of matrices equals its single-row calls bit for bit.  ``rotate_stack``
applies the same factors to each degree-l block of a coefficient stack (one
element, or one per table); ``_rotate_blocks`` is its loop over a chosen set
of degrees, for a caller whose tables hold content in a few of them, and
``berry_robbins.TransportFrame`` is D^j of the geodesic element.  Blocks
never mix, so rotations preserve parity sectors exactly and need no
quadrature.  Two independent oracles are kept
for cross-checks: resampling at rotated nodes followed by re-projection
(``rotate_values`` + ``analyze``), and the symmetrized tensor powers of the
defining 2×2 matrix (in ``checks``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _read_only, _table_band, ylm_synthesize
from .groups import _su2_rows, spinor_map
from .manifold import QuadratureGrid

SECTORS = ("even", "odd", "full")
SECTOR_PURITY_TOL = 1e-14


def coeff_index(l: int, m: int) -> int:
    """Position of c[l, m] in a table; l < 0 or |m| > l raises ValueError."""
    if abs(m) > l:
        raise ValueError(f"no harmonic Y_lm at l = {l}, m = {m}: need 0 ≤ |m| ≤ l")
    return l * l + l + m


def _band_index(lmax: int, l: int, m: int) -> int:
    """``coeff_index(l, m)`` in a table of band lmax; a degree above lmax raises ValueError."""
    if l > lmax:
        raise ValueError(f"degree {l} lies above the band's lmax {lmax}")
    return coeff_index(l, m)


def num_coeffs(lmax: int) -> int:
    return (lmax + 1) * (lmax + 1)


@functools.cache
def _odd_degree_mask(lmax: int) -> np.ndarray:
    """Read-only boolean mask over table entries, True where l is odd (cached)."""
    degrees = np.arange(lmax + 1)
    return _read_only(np.repeat(degrees % 2 == 1, 2 * degrees + 1))


def off_sector_mask(lmax: int, sector: str) -> np.ndarray:
    """Mask of the table entries a sector holds at zero (none for "full")."""
    odd = _odd_degree_mask(lmax)
    if sector == "even":
        return odd
    return ~odd if sector == "odd" else np.zeros_like(odd)


def _sector_checked(c, lmax: int, sector: str) -> np.ndarray:
    """Read-only complex copy of a table or stack (..., (lmax+1)²) in ``sector``.

    Raises ValueError for an unknown sector, a last axis of the wrong length,
    content off the sector above SECTOR_PURITY_TOL (one mask for the whole
    stack), or a NaN or infinite entry anywhere.
    """
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    c = np.asarray(c, dtype=np.complex128)
    if c.shape[-1:] != (num_coeffs(lmax),):
        raise ValueError("coefficient array has wrong length")
    if sector != "full":
        v = float(np.abs(c[..., off_sector_mask(lmax, sector)]).max(initial=0.0))
        if not v <= SECTOR_PURITY_TOL:      # NaN fails too
            raise ValueError(f"sector {sector!r} violated by {v:.3e} (> {SECTOR_PURITY_TOL})")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return _read_only(c.copy())


def _row_norms(v) -> np.ndarray:
    """np.linalg.norm of each complex row of a stack (..., n), rounded the same way."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Coefficient table c[l, m], 0 ≤ l ≤ lmax, |m| ≤ l, with a parity tag."""

    lmax: int
    sector: str
    c: np.ndarray

    def __post_init__(self):
        c = _sector_checked(self.c, self.lmax, self.sector)
        if c.ndim != 1:
            raise ValueError("coefficient array has wrong length")
        object.__setattr__(self, "c", c)

    def get(self, l: int, m: int) -> complex:
        return complex(self.c[_band_index(self.lmax, l, m)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def block(self, l: int) -> np.ndarray:
        """Coefficients of degree l, ordered m = -l ... +l."""
        return self.c[_band_index(self.lmax, l, -l) : _band_index(self.lmax, l, l) + 1].copy()


def zeros(lmax: int, sector: str = "full") -> HarmonicCoeffs:
    return HarmonicCoeffs(lmax, sector, np.zeros(num_coeffs(lmax), dtype=complex))


def unit(lmax: int, l: int, m: int) -> HarmonicCoeffs:
    """The table of the single harmonic Y_lm, tagged with the parity of l."""
    c = np.zeros(num_coeffs(lmax), dtype=complex)
    c[_band_index(lmax, l, m)] = 1.0
    return HarmonicCoeffs(lmax, "odd" if l % 2 else "even", c)


def _tables_from_normals(normals, lmax: int, off) -> np.ndarray:
    """Unit tables from normal draws (..., ≥ 2·(lmax+1)²), one per row.

    A row's first (lmax+1)² draws are the real parts and the next (lmax+1)²
    the imaginary parts; entries where ``off`` holds (an off-sector mask
    broadcasting against the tables) are zeroed, and each nonzero row is
    scaled to unit norm.  ``random_coeffs`` is its one-row call, so n rows
    drawn as one (n, 2·(lmax+1)²) block equal n ``random_coeffs`` tables.
    """
    size = num_coeffs(lmax)
    c = np.where(off, 0.0, normals[..., :size] + 1j * normals[..., size:2 * size])
    norms = _row_norms(c)
    return c / np.where(norms > 0, norms, 1.0)[..., None]


def random_coeffs(lmax: int, sector: str, rng: np.random.Generator) -> HarmonicCoeffs:
    """Random unit-norm table restricted to the requested parity sector."""
    normals = rng.normal(size=2 * num_coeffs(lmax))
    return HarmonicCoeffs(lmax, sector,
                          _tables_from_normals(normals, lmax, off_sector_mask(lmax, sector)))


def evaluate(a: HarmonicCoeffs, x) -> complex | np.ndarray:
    """Σ c[l, m] Y_lm at one unit vector or a batch of them (``ylm_synthesize``)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    vals = ylm_synthesize(pts, a.lmax, a.c)
    return complex(vals[0]) if np.asarray(x).ndim == 1 else vals


def analyze(values, lmax: int, grid: QuadratureGrid) -> HarmonicCoeffs:
    """Project node values: c[l, m] = Σ_k w_k conj(Y_lm(x_k)) v_k.

    ``values`` holds one value v_k per node x_k of ``grid.nodes``.  The sum
    is ``grid.project`` (FFT over azimuth, Legendre sum per m).  Exact on
    band-limited input when the grid integrates degree-2·lmax products,
    i.e. lmax ≤ grid.lmax_exact; larger lmax raises.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n,):
        raise ValueError("node values have wrong shape")
    return HarmonicCoeffs(lmax, "full", grid.project(values, lmax))


def parity_decompose(a: HarmonicCoeffs) -> tuple[HarmonicCoeffs, HarmonicCoeffs]:
    """Split a full table into its even-l and odd-l parts (exact)."""
    odd_l = _odd_degree_mask(a.lmax)
    even = np.where(odd_l, 0.0, a.c)
    odd = np.where(odd_l, a.c, 0.0)
    return (
        HarmonicCoeffs(a.lmax, "even", even),
        HarmonicCoeffs(a.lmax, "odd", odd),
    )


def _ladder(j: float) -> np.ndarray:
    """sqrt(j(j+1) - m(m+1)) for m = -j ... j-1: the J₊ entry from m to m+1.

    j is any non-negative half-integer (an integer degree l for ``apply_L``).
    J₋ has the same entries from m+1 to m, so one array serves both ladders.
    """
    m = np.arange(-j, j)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


@functools.cache
def _ladder_tables(lmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (m, src, ladder) over a table's entries at band lmax (cached).

    m is the order of each entry; src lists the entries with m < l, and
    ladder[k] = sqrt(l(l+1) - m(m+1)) is the L₊ factor from entry src[k] to
    src[k] + 1 (and the L₋ factor back).
    """
    degrees = range(lmax + 1)
    m = np.concatenate([np.arange(-l, l + 1) for l in degrees]).astype(float)
    src = np.concatenate([l * l + np.arange(2 * l) for l in degrees])
    ladder = np.concatenate([_ladder(l) for l in degrees])
    return tuple(map(_read_only, (m, src, ladder)))


def apply_L(i: int, c) -> np.ndarray:
    """Exact orbital angular momentum L_i on a stack of tables (..., (lmax+1)²).

    Each row of the result equals its single-table call bit for bit, and
    degree is preserved, so a sector-pure row stays pure.  L₃ is diagonal
    (eigenvalue m); L₁ = (L₊+L₋)/2 and L₂ = (L₊-L₋)/(2i) act through the
    ladder coefficients sqrt(l(l+1) - m(m±1)), gathered over all degrees at
    once from the cached ``_ladder_tables``.
    """
    if i not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3")
    c, lmax = _table_band(c)
    m, src, ladder = _ladder_tables(lmax)
    if i == 3:
        return m * c
    up = np.zeros_like(c)      # L₊: Y_lm -> sqrt(l(l+1)-m(m+1)) Y_{l,m+1}
    down = np.zeros_like(c)    # L₋: Y_lm -> sqrt(l(l+1)-m(m-1)) Y_{l,m-1}
    up[..., src + 1] = ladder * c[..., src]
    down[..., src] = ladder * c[..., src + 1]
    return 0.5 * (up + down) if i == 1 else -0.5j * (up - down)


def _twice_spin(j: float) -> int:
    """2j for a non-negative half-integer j; anything else raises ValueError."""
    if not (math.isfinite(j) and j >= 0 and abs(2 * j - round(2 * j)) <= 1e-12):
        raise ValueError("j must be a nonnegative half-integer")
    return round(2 * j)


def angular_momentum_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S₁, S₂, S₃) in the |j, m⟩ basis ordered m = +j ... -j."""
    m = j - np.arange(_twice_spin(j) + 1)
    sp = np.diag(_ladder(j)[::-1], 1).astype(complex)     # S₊: m -> m + 1
    sm = sp.conj().T
    return 0.5 * (sp + sm), -0.5j * (sp - sm), np.diag(m.astype(complex))


def rotate_values(g, c, points: np.ndarray) -> np.ndarray:
    """Values of x ↦ a(Spin(g)⁻¹ x) at the given points, for each table a of a stack.

    ``c`` has shape (..., (lmax+1)²) and g is one (2,) row or (..., 2) rows;
    the tables, the elements and the (n, 3) points broadcast as in
    ``ylm_synthesize``, giving (..., n).  With ``analyze`` or
    ``QuadratureGrid.project`` this is the resampling route, kept as the
    independent cross-check of ``rotate_stack``.  Spin(g)⁻¹ = Spin(g)ᵀ, so
    the rotated points are the rows ``points @ Spin(g)``.
    """
    c, lmax = _table_band(c)
    return ylm_synthesize(points @ spinor_map(g), lmax, c)


@functools.cache
def _s2_eigvecs(twoj: int) -> np.ndarray:
    """Unitary V with S₂ = V diag(-j ... j) V† at spin j = twoj/2 (cached, read-only).

    ``eigh`` returns the exact spectrum -j ... j in ascending order, so only
    the eigenvectors are kept.
    """
    return _read_only(np.linalg.eigh(angular_momentum_matrices(twoj / 2)[1])[1])


_ARG_SIGNS = _read_only(np.array([1.0, -1.0]))


def _euler_phases(g, twoj: int) -> np.ndarray:
    """Rows e^{-iαm}, e^{-iβλ}, e^{-iγm} (m = +j ... -j, λ = -j ... +j) of g.

    g is (..., 2) rows (z0, z1); the result has shape
    (3, ..., 2j+1).  g = e^{-iασ₃/2} e^{-iβσ₂/2} e^{-iγσ₃/2} with
    β = 2·atan2(|z1|, |z0|), α+γ = -2·arg z0 and α-γ = 2·arg(-z1); α and γ
    are not reduced mod 2π, so half-integer m gets the right sign.  The
    angles do not depend on the scale of (z0, z1).
    """
    rows = _su2_rows(g)
    re, im = rows.real * _ARG_SIGNS, rows.imag * _ARG_SIGNS     # (z0, -z1)
    moduli, args = np.hypot(re, im), np.arctan2(im, re)
    beta = 2.0 * np.arctan2(moduli[..., 1], moduli[..., 0])
    half_sum, half_diff = -args[..., 0], args[..., 1]
    angles = np.array([-(half_sum + half_diff), beta, half_diff - half_sum])   # -α, β, -γ
    return np.exp(1j * (angles[..., None] * (twoj / 2 - np.arange(twoj + 1))))


def wigner_d(j: float, g) -> np.ndarray:
    """Spin-j matrix of g in the |j, m⟩ basis (m = +j ... -j), any half-integer j.

        D^j(g) = e^{-iαS₃} V e^{-iβΛ} V† e^{-iγS₃},   Λ = diag(-j ... j),

    with V = ``_s2_eigvecs(2j)`` and the Euler angles of ``_euler_phases``.
    g is (..., 2) rows (z0, z1), giving a (..., 2j+1, 2j+1) stack whose
    matrices equal the single-row calls bit for bit.  D^{1/2}(g) is the
    defining matrix [[z0, conj(z1)], [-z1, conj(z0)]], and
    i·d/dt D(e^{-it σ_i/2})|₀ = S_i.
    """
    twoj = _twice_spin(j)
    v = _s2_eigvecs(twoj)
    pa, pb, pg = _euler_phases(g, twoj)
    return pa[..., :, None] * ((v * pb[..., None, :]) @ v.conj().T) * pg[..., None, :]


def _rotate_blocks(g, c, degrees) -> np.ndarray:
    """``rotate_stack`` of the degree-l blocks of c for l in ``degrees``; other entries are 0.

    Each block goes through the same factor products as in ``rotate_stack``,
    so it gets the same bits: a caller whose table holds content in a few
    degrees rotates those alone.
    """
    c, lmax = _table_band(c)
    phase_alpha, phase_beta, phase_gamma = _euler_phases(g, 2 * lmax)[..., None, :]
    n = c.shape[-1]
    out = np.zeros(np.broadcast_shapes(phase_alpha.shape[:-2], c.shape[:-1]) + (n,),
                   dtype=np.complex128)
    # reversed (..., 1, n) row stacks: degree-l blocks in the order m = +l ... -l,
    # and every product a matrix-vector one
    rev_in, rev_out = c[..., None, ::-1], out[..., None, ::-1]
    for l in degrees:
        v = _s2_eigvecs(2 * l)
        ms, block = slice(lmax - l, lmax + l + 1), slice(n - (l + 1) ** 2, n - l * l)
        rows = ((rev_in[..., block] * phase_gamma[..., ms]) @ v.conj()) * phase_beta[..., ms]
        rev_out[..., block] = (rows @ v.T) * phase_alpha[..., ms]
    return out


def rotate_stack(g, c: np.ndarray) -> np.ndarray:
    """Coefficients of x ↦ a(Spin(g)⁻¹ x) for each table a in a stack.

    ``c`` has shape (..., (lmax+1)²); g is (..., 2) rows whose leading axes
    broadcast against those of ``c``.  Each degree-l
    block, read as m = +l ... -l, is multiplied by ``wigner_d(l, g)`` factor
    by factor (the same phases and cached V, no dense D^l).  Every row goes
    through the same matrix-vector products, so a stack gives bit for bit the
    rows of its single tables and single elements.  Every block is computed,
    zero ones too (they come out ±0.0); ``_rotate_blocks`` takes a subset.
    """
    c, lmax = _table_band(c)
    return _rotate_blocks(g, c, range(lmax + 1))


def rotate_coeffs(
    g, a: HarmonicCoeffs, grid: QuadratureGrid
) -> HarmonicCoeffs:
    """Coefficients of x ↦ a(Spin(g)⁻¹ x), on coefficients via ``rotate_stack``.

    Degree blocks do not mix, so the sector is preserved exactly.  ``grid``
    is not used by this route; resampling on it (``rotate_values`` +
    ``analyze``) is the independent cross-check.
    """
    return HarmonicCoeffs(a.lmax, a.sector, rotate_stack(g, a.c))

