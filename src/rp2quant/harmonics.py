"""Spherical-harmonic analysis/synthesis and the even/odd parity split.

Functions on S² are carried as coefficient tables c[l, m] over complex
harmonics with the Condon-Shortley phase (ħ = 1 throughout).  The antipodal
map acts as (-1)^l on degree l, so the even-l/odd-l subspaces are exactly the
functions that descend to ℝP² and the sections of the nontrivial line bundle
respectively; coefficient tables carry a sector tag ("even" | "odd" | "full")
enforcing the split through one cached mask of odd degrees per lmax.

Analysis and synthesis on a quadrature grid are separable
(``QuadratureGrid.project`` / ``synthesize``): an FFT over the azimuths of
each ring and one Legendre sum per m, O(L³) per table.  ``evaluate`` and
``rotate_values`` at arbitrary points call ``ylm_synthesize``, which adds
each order m times e^{imφ} and forms no (n × (lmax+1)²) basis.

Angular momentum acts exactly in this basis:
    L₃ c[l, m] = m c[l, m],
    L± c[l, m] = sqrt(l(l+1) - m(m∓1)) c[l, m∓1]   (as coefficient maps).
One primitive builds every spin-j rotation matrix, for any half-integer j:
``wigner_d`` is D^j(g) = e^{-iαS₃} V e^{-iβΛ} V† e^{-iγS₃}, with V from a
read-only cache of S₂ eigenvectors keyed by 2j and (α, β, γ) read from
g = (z0, z1).  g is one ``SU2Element`` or a stack of (..., 2) rows, and a
stack of matrices equals its single-row calls bit for bit.  ``rotate_stack``
applies the same factors to each degree-l block of a coefficient stack (one
element, or one per table), and ``berry_robbins.TransportFrame`` is D^j of
the geodesic element.  Blocks never mix, so rotations preserve parity
sectors exactly and need no quadrature.  Two independent oracles are kept
for cross-checks: resampling at rotated nodes followed by re-projection
(``rotate_values`` + ``analyze``), and the symmetrized tensor powers of the
defining 2×2 matrix (in ``checks``).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ylm_synthesize
from .groups import SU2Element, _su2_rows, spinor_map
from .manifold import QuadratureGrid

SECTORS = ("even", "odd", "full")
SECTOR_PURITY_TOL = 1e-14


def coeff_index(l: int, m: int) -> int:
    return l * l + l + m


def num_coeffs(lmax: int) -> int:
    return (lmax + 1) * (lmax + 1)


_ODD_DEGREE: dict[int, np.ndarray] = {}


def _odd_degree_mask(lmax: int) -> np.ndarray:
    """Read-only boolean mask over table entries, True where l is odd (cached)."""
    if lmax not in _ODD_DEGREE:
        degrees = np.arange(lmax + 1)
        mask = np.repeat(degrees % 2 == 1, 2 * degrees + 1)
        mask.flags.writeable = False
        _ODD_DEGREE[lmax] = mask
    return _ODD_DEGREE[lmax]


def off_sector_mask(lmax: int, sector: str) -> np.ndarray:
    """Mask of the table entries a sector holds at zero (none for "full")."""
    odd = _odd_degree_mask(lmax)
    if sector == "even":
        return odd
    return ~odd if sector == "odd" else np.zeros_like(odd)


def _sector_violation(c: np.ndarray, lmax: int, sector: str) -> float:
    return float(np.max(np.abs(c[off_sector_mask(lmax, sector)]), initial=0.0))


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Coefficient table c[l, m], 0 ≤ l ≤ lmax, |m| ≤ l, with a parity tag."""

    lmax: int
    sector: str
    c: np.ndarray

    def __post_init__(self):
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        c = np.asarray(self.c, dtype=np.complex128)
        if c.shape != (num_coeffs(self.lmax),):
            raise ValueError("coefficient array has wrong length")
        if self.sector != "full":
            v = _sector_violation(c, self.lmax, self.sector)
            if v > SECTOR_PURITY_TOL:
                raise ValueError(
                    f"sector {self.sector!r} violated by {v:.3e} (> {SECTOR_PURITY_TOL})"
                )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    def get(self, l: int, m: int) -> complex:
        return complex(self.c[coeff_index(l, m)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def block(self, l: int) -> np.ndarray:
        """Coefficients of degree l, ordered m = -l ... +l."""
        return self.c[l * l : (l + 1) * (l + 1)].copy()


def zeros(lmax: int, sector: str = "full") -> HarmonicCoeffs:
    return HarmonicCoeffs(lmax, sector, np.zeros(num_coeffs(lmax), dtype=complex))


def unit(lmax: int, l: int, m: int) -> HarmonicCoeffs:
    """The table of the single harmonic Y_lm, tagged with the parity of l."""
    c = np.zeros(num_coeffs(lmax), dtype=complex)
    c[coeff_index(l, m)] = 1.0
    return HarmonicCoeffs(lmax, "odd" if l % 2 else "even", c)


def random_coeffs(lmax: int, sector: str, rng: np.random.Generator) -> HarmonicCoeffs:
    """Random unit-norm table restricted to the requested parity sector."""
    c = rng.normal(size=num_coeffs(lmax)) + 1j * rng.normal(size=num_coeffs(lmax))
    c[off_sector_mask(lmax, sector)] = 0.0
    n = np.linalg.norm(c)
    if n > 0:
        c = c / n
    return HarmonicCoeffs(lmax, sector, c)


def evaluate(a: HarmonicCoeffs, x) -> complex | np.ndarray:
    """Σ c[l, m] Y_lm at one unit vector or a batch of them (``ylm_synthesize``)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    vals = ylm_synthesize(pts, a.lmax, a.c)
    return complex(vals[0]) if np.asarray(x).ndim == 1 else vals


def analyze(f, lmax: int, grid: QuadratureGrid) -> HarmonicCoeffs:
    """Project a pointwise function: c[l, m] = Σ_k w_k conj(Y_lm(x_k)) f(x_k).

    ``f`` may be a callable on (n, 3) arrays or precomputed node values.
    The sum is ``grid.project`` (FFT over azimuth, Legendre sum per m).
    Exact on band-limited input when the grid integrates degree-2·lmax
    products, i.e. lmax ≤ grid.lmax_exact; larger lmax raises.
    """
    values = f(grid.nodes) if callable(f) else np.asarray(f, dtype=complex)
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


def project_sector(a: HarmonicCoeffs, sector: str) -> HarmonicCoeffs:
    """Drop the opposite parity content and retag."""
    return HarmonicCoeffs(a.lmax, sector, np.where(off_sector_mask(a.lmax, sector), 0, a.c))


def _ladder(j: float) -> np.ndarray:
    """sqrt(j(j+1) - m(m+1)) for m = -j ... j-1: the J₊ entry from m to m+1.

    j is any non-negative half-integer (an integer degree l for ``apply_L``).
    J₋ has the same entries from m+1 to m, so one array serves both ladders.
    """
    m = np.arange(-j, j)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def apply_L(i: int, a: HarmonicCoeffs) -> HarmonicCoeffs:
    """Exact orbital angular momentum L_i on the coefficient table.

    L₃ is diagonal (eigenvalue m); L₁ = (L₊+L₋)/2 and L₂ = (L₊-L₋)/(2i) act
    through the ladder coefficients sqrt(l(l+1) - m(m±1)).  Degree is
    preserved, so the sector tag survives.
    """
    if i not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3")
    out = np.zeros_like(np.asarray(a.c))
    for l in range(a.lmax + 1):
        sl = slice(l * l, (l + 1) * (l + 1))
        block = a.c[sl]
        m = np.arange(-l, l + 1)
        if i == 3:
            out[sl] = m * block
            continue
        up = np.zeros_like(block)      # L₊: Y_lm -> sqrt(l(l+1)-m(m+1)) Y_{l,m+1}
        down = np.zeros_like(block)    # L₋: Y_lm -> sqrt(l(l+1)-m(m-1)) Y_{l,m-1}
        if l > 0:
            ladder = _ladder(l)
            up[1:] = ladder * block[:-1]
            down[:-1] = ladder * block[1:]
        out[sl] = 0.5 * (up + down) if i == 1 else -0.5j * (up - down)
    return HarmonicCoeffs(a.lmax, a.sector, out)


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


def rotate_values(g: SU2Element, a: HarmonicCoeffs, points: np.ndarray) -> np.ndarray:
    """Values of x ↦ a(Spin(g)⁻¹ x) at the given points.

    With ``analyze`` this is the resampling route, kept as the independent
    cross-check of ``rotate_stack``.  Spin(g)⁻¹ = Spin(g)ᵀ, so the rotated
    points are the rows ``points @ Spin(g)``.
    """
    return ylm_synthesize(points @ spinor_map(g), a.lmax, a.c)


_S2_EIGVECS: dict[int, np.ndarray] = {}


def _s2_eigvecs(twoj: int) -> np.ndarray:
    """Unitary V with S₂ = V diag(-j ... j) V† at spin j = twoj/2 (cached, read-only).

    ``eigh`` returns the exact spectrum -j ... j in ascending order, so only
    the eigenvectors are kept.
    """
    if twoj not in _S2_EIGVECS:
        _, v = np.linalg.eigh(angular_momentum_matrices(twoj / 2)[1])
        v.flags.writeable = False
        _S2_EIGVECS[twoj] = v
    return _S2_EIGVECS[twoj]


_ARG_SIGNS = np.array([1.0, -1.0])


def _euler_phases(g, twoj: int) -> np.ndarray:
    """Rows e^{-iαm}, e^{-iβλ}, e^{-iγm} (m = +j ... -j, λ = -j ... +j) of g.

    g is an ``SU2Element`` or (..., 2) rows (z0, z1); the result has shape
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
    g is an ``SU2Element`` (a (2j+1, 2j+1) matrix) or (..., 2) rows (z0, z1)
    (a (..., 2j+1, 2j+1) stack whose matrices equal the single-row calls bit
    for bit).  D^{1/2}(g) = g.matrix() and i·d/dt D(e^{-it σ_i/2})|₀ = S_i.
    """
    twoj = _twice_spin(j)
    v = _s2_eigvecs(twoj)
    pa, pb, pg = _euler_phases(g, twoj)
    return pa[..., :, None] * ((v * pb[..., None, :]) @ v.conj().T) * pg[..., None, :]


def rotate_stack(g, c: np.ndarray) -> np.ndarray:
    """Coefficients of x ↦ a(Spin(g)⁻¹ x) for each table a in a stack.

    ``c`` has shape (..., (lmax+1)²); g is an ``SU2Element`` or (..., 2)
    rows whose leading axes broadcast against those of ``c``.  Each degree-l
    block, read as m = +l ... -l, is multiplied by ``wigner_d(l, g)`` factor
    by factor (the same phases and cached V, no dense D^l).  Every row goes
    through the same matrix-vector products, so a stack gives bit for bit the
    rows of its single tables and single elements.
    """
    c = np.asarray(c, dtype=np.complex128)
    lmax = math.isqrt(c.shape[-1]) - 1
    if num_coeffs(lmax) != c.shape[-1]:
        raise ValueError("last axis must hold (lmax+1)² coefficients")
    phase_alpha, phase_beta, phase_gamma = _euler_phases(g, 2 * lmax)[..., None, :]
    n = c.shape[-1]
    out = np.empty(np.broadcast_shapes(phase_alpha.shape[:-2], c.shape[:-1]) + (n,),
                   dtype=np.complex128)
    # reversed (..., 1, n) row stacks: degree-l blocks in the order m = +l ... -l,
    # and every product a matrix-vector one
    rev_in, rev_out = c[..., None, ::-1], out[..., None, ::-1]
    for l in range(lmax + 1):
        v = _s2_eigvecs(2 * l)
        ms, block = slice(lmax - l, lmax + l + 1), slice(n - (l + 1) ** 2, n - l * l)
        rows = ((rev_in[..., block] * phase_gamma[..., ms]) @ v.conj()) * phase_beta[..., ms]
        rev_out[..., block] = (rows @ v.T) * phase_alpha[..., ms]
    return out


def rotate_coeffs(
    g: SU2Element, a: HarmonicCoeffs, grid: QuadratureGrid
) -> HarmonicCoeffs:
    """Coefficients of x ↦ a(Spin(g)⁻¹ x), on coefficients via ``rotate_stack``.

    Degree blocks do not mix, so the sector is preserved exactly.  ``grid``
    is not used by this route; resampling on it (``rotate_values`` +
    ``analyze``) is the independent cross-check.
    """
    return HarmonicCoeffs(a.lmax, a.sector, rotate_stack(g, a.c))

