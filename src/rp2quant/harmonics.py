"""Spherical-harmonic analysis/synthesis and the even/odd parity split.

Functions on S² are carried as coefficient tables c[l, m] over complex
harmonics with the Condon-Shortley phase (ħ = 1 throughout).  The antipodal
map acts as (-1)^l on degree l, so the even-l/odd-l subspaces are exactly the
functions that descend to ℝP² and the sections of the nontrivial line bundle
respectively; coefficient tables carry a sector tag ("even" | "odd" | "full")
enforcing the split.

Angular momentum acts exactly in this basis:
    L₃ c[l, m] = m c[l, m],
    L± c[l, m] = sqrt(l(l+1) - m(m∓1)) c[l, m∓1]   (as coefficient maps),
and finite rotations act on coefficients: ``rotate_stack`` multiplies each
degree-l block by D^l(g) = e^{-iαL₃} e^{-iβL₂} e^{-iγL₃}, with e^{-iβL₂}
taken from a cached eigendecomposition of the L₂ ladder matrix.  Blocks never
mix, so rotations preserve parity sectors exactly and need no quadrature.
Two independent routes are kept for cross-checks: resampling at rotated
nodes followed by re-projection (``rotate_values`` + ``analyze``), and Wigner
D matrices built from the defining 2×2 representation by symmetrized tensor
powers (``wigner_d``).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ylm_basis
from .groups import SU2Element, spinor_map
from .manifold import QuadratureGrid

SECTORS = ("even", "odd", "full")
SECTOR_PURITY_TOL = 1e-14


def coeff_index(l: int, m: int) -> int:
    return l * l + l + m


def num_coeffs(lmax: int) -> int:
    return (lmax + 1) * (lmax + 1)


def _sector_violation(c: np.ndarray, lmax: int, sector: str) -> float:
    bad = 0.0
    start = 1 if sector == "even" else 0
    for l in range(start, lmax + 1, 2):
        block = c[l * l : (l + 1) * (l + 1)]
        bad = max(bad, float(np.max(np.abs(block))) if block.size else 0.0)
    return bad


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


def unit(lmax: int, l: int, m: int, sector: str | None = None) -> HarmonicCoeffs:
    """The table of the single harmonic Y_lm."""
    c = np.zeros(num_coeffs(lmax), dtype=complex)
    c[coeff_index(l, m)] = 1.0
    if sector is None:
        sector = "odd" if l % 2 else "even"
    return HarmonicCoeffs(lmax, sector, c)


def random_coeffs(
    lmax: int, sector: str, rng: np.random.Generator, normalize: bool = True
) -> HarmonicCoeffs:
    """Random table restricted to the requested parity sector."""
    c = rng.normal(size=num_coeffs(lmax)) + 1j * rng.normal(size=num_coeffs(lmax))
    if sector != "full":
        keep = 0 if sector == "even" else 1
        for l in range(lmax + 1):
            if l % 2 != keep:
                c[l * l : (l + 1) * (l + 1)] = 0.0
    if normalize:
        n = np.linalg.norm(c)
        if n > 0:
            c = c / n
    return HarmonicCoeffs(lmax, sector, c)


def evaluate(a: HarmonicCoeffs, x) -> complex | np.ndarray:
    """Σ c[l, m] Y_lm at one unit vector or a batch of them."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    vals = ylm_basis(pts, a.lmax) @ a.c
    return complex(vals[0]) if np.asarray(x).ndim == 1 else vals


def analyze(f, lmax: int, grid: QuadratureGrid) -> HarmonicCoeffs:
    """Project a pointwise function: c[l, m] = Σ_k w_k conj(Y_lm(x_k)) f(x_k).

    ``f`` may be a callable on (n, 3) arrays or precomputed node values.
    Exact on band-limited input when the grid integrates degree-2·lmax
    products, i.e. lmax ≤ grid.lmax_exact.
    """
    if lmax > grid.lmax_exact:
        raise ValueError(
            f"grid exact to lmax {grid.lmax_exact} cannot project lmax {lmax}"
        )
    values = f(grid.nodes) if callable(f) else np.asarray(f, dtype=complex)
    if values.shape != (grid.n,):
        raise ValueError("node values have wrong shape")
    c = grid.basis(lmax).conj().T @ (grid.weights * values)
    return HarmonicCoeffs(lmax, "full", c)


def parity_decompose(a: HarmonicCoeffs) -> tuple[HarmonicCoeffs, HarmonicCoeffs]:
    """Split a full table into its even-l and odd-l parts (exact)."""
    even = np.array(a.c)
    odd = np.array(a.c)
    for l in range(a.lmax + 1):
        sl = slice(l * l, (l + 1) * (l + 1))
        if l % 2:
            even[sl] = 0.0
        else:
            odd[sl] = 0.0
    return (
        HarmonicCoeffs(a.lmax, "even", even),
        HarmonicCoeffs(a.lmax, "odd", odd),
    )


def project_sector(a: HarmonicCoeffs, sector: str) -> HarmonicCoeffs:
    """Drop the opposite parity content and retag."""
    if sector == "full":
        return HarmonicCoeffs(a.lmax, "full", a.c)
    even, odd = parity_decompose(HarmonicCoeffs(a.lmax, "full", a.c))
    return even if sector == "even" else odd


def _ladder(l: int) -> np.ndarray:
    """sqrt(l(l+1) - m(m+1)) for m = -l ... l-1: the L₊ entry from m to m+1.

    L₋ has the same entries from m+1 to m, so one array serves both ladders.
    """
    m = np.arange(-l, l)
    return np.sqrt(l * (l + 1.0) - m * (m + 1.0))


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


def rotate_values(g: SU2Element, a: HarmonicCoeffs, points: np.ndarray) -> np.ndarray:
    """Values of x ↦ a(Spin(g)⁻¹ x) at the given points.

    With ``analyze`` this is the resampling route, kept as the independent
    cross-check of ``rotate_stack``.
    """
    r_inv = spinor_map(g).T
    return ylm_basis(points @ r_inv.T, a.lmax) @ a.c


_L2_EIGVECS: dict[int, np.ndarray] = {}


def _l2_eigvecs(l: int) -> np.ndarray:
    """Unitary V with L₂ = V diag(-l ... l) V† on the degree-l block (read-only).

    L₂ = (L₊ - L₋)/(2i) is built from the same ladder entries as ``apply_L``.
    Its spectrum is exactly the integers -l ... l, which ``eigh`` returns in
    ascending order, so only the eigenvectors are kept.
    """
    if l not in _L2_EIGVECS:
        up = np.diag(_ladder(l), -1)              # L₊ as a matrix on m = -l ... l
        _, v = np.linalg.eigh(-0.5j * (up - up.T))
        v.flags.writeable = False
        _L2_EIGVECS[l] = v
    return _L2_EIGVECS[l]


def rotate_stack(g: SU2Element, c: np.ndarray) -> np.ndarray:
    """Coefficients of x ↦ a(Spin(g)⁻¹ x) for each table a in a stack.

    ``c`` has shape (..., (lmax+1)²).  Each degree-l block is multiplied by

        D^l(g) = e^{-iαL₃} V_l e^{-iβΛ_l} V_l† e^{-iγL₃},   Λ_l = diag(-l ... l),

    factor by factor, where V_l diagonalizes L₂ and the Euler angles come
    from g = (z0, z1): β = 2·atan2(|z1|, |z0|), α+γ = -2·arg z0 and
    α-γ = 2·arg(-z1).  Every row goes through the same matrix-vector
    products, so a stack gives bit for bit the rows of its single tables.
    """
    c = np.asarray(c, dtype=np.complex128)
    lmax = math.isqrt(c.shape[-1]) - 1
    if num_coeffs(lmax) != c.shape[-1]:
        raise ValueError("last axis must hold (lmax+1)² coefficients")
    beta = 2.0 * math.atan2(abs(g.z1), abs(g.z0))
    half_sum, half_diff = -cmath.phase(g.z0), cmath.phase(-g.z1)
    m = np.arange(-lmax, lmax + 1)
    phase_alpha = np.exp(-1j * (half_sum + half_diff) * m)
    phase_beta = np.exp(-1j * beta * m)
    phase_gamma = np.exp(-1j * (half_sum - half_diff) * m)
    out = np.empty_like(c)
    for l in range(lmax + 1):
        v = _l2_eigvecs(l)
        ms = slice(lmax - l, lmax + l + 1)
        # a (..., 1, 2l+1) row stack keeps every product a matrix-vector one
        rows = c[..., None, l * l : (l + 1) * (l + 1)] * phase_gamma[ms]
        rows = ((rows @ v.conj()) * phase_beta[ms]) @ v.T
        out[..., l * l : (l + 1) * (l + 1)] = rows[..., 0, :] * phase_alpha[ms]
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


def save_coeffs(a: HarmonicCoeffs, path) -> None:
    """Text serialization, one line "l m re im" per entry, 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(f"# lmax {a.lmax} sector {a.sector}\n")
        for l in range(a.lmax + 1):
            for m in range(-l, l + 1):
                v = a.get(l, m)
                fh.write(f"{l} {m} {v.real:.17g} {v.imag:.17g}\n")


def load_coeffs(path) -> HarmonicCoeffs:
    """Inverse of save_coeffs; round trips exactly."""
    with open(path) as fh:
        header = fh.readline().split()
        lmax, sector = int(header[2]), header[4]
        c = np.zeros(num_coeffs(lmax), dtype=complex)
        for line in fh:
            l_s, m_s, re_s, im_s = line.split()
            c[coeff_index(int(l_s), int(m_s))] = float(re_s) + 1j * float(im_s)
    return HarmonicCoeffs(lmax, sector, c)


def angular_momentum_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S₁, S₂, S₃) in the |j, m⟩ basis ordered m = +j ... -j."""
    dim = int(round(2 * j)) + 1
    if abs(2 * j - round(2 * j)) > 1e-12 or j < 0:
        raise ValueError("j must be a nonnegative half-integer")
    m = j - np.arange(dim)
    s3 = np.diag(m.astype(complex))
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        # raises m[k] -> m[k] + 1 = m[k-1]
        sp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    return 0.5 * (sp + sm), -0.5j * (sp - sm), s3


def wigner_d(j: float, g: SU2Element) -> np.ndarray:
    """Spin-j matrix of g in the |j, m⟩ basis (m = +j ... -j).

    Built as the 2j-fold symmetrized power of the defining matrix
    [[a, b], [c, d]] = g.matrix(): with the monomial basis
    f_m = x^{j+m} y^{j-m} / sqrt((j+m)!(j-m)!) and x ↦ ax + cy, y ↦ bx + dy,

        D_{m'm} = sqrt((j+m')!(j-m')!/((j+m)!(j-m)!)) ·
                  Σ_k C(j+m, k) C(j-m, j-m'-k) a^{j+m-k} c^k b^{m'-m+k} d^{j-m'-k}.

    In particular D^{1/2}(g) = g.matrix() and i·d/dt D(e^{-it σ_i/2})|₀ = S_i.
    """
    twoj = int(round(2 * j))
    if abs(2 * j - twoj) > 1e-12 or not 0 <= twoj <= 8:
        raise ValueError("j must be a half-integer with 0 ≤ j ≤ 4")
    u = g.matrix()
    a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    dim = twoj + 1
    out = np.zeros((dim, dim), dtype=complex)
    fact = [math.factorial(n) for n in range(twoj + 1)]
    for im in range(dim):
        jm = twoj - im                                   # j + m
        jn = twoj - jm                                   # j - m
        for imp in range(dim):
            jmp = twoj - imp                             # j + m'
            jnp = twoj - jmp                             # j - m'
            norm = math.sqrt(fact[jmp] * fact[jnp] / (fact[jm] * fact[jn]))
            total = 0.0 + 0.0j
            for k in range(max(0, jnp - jn), min(jm, jnp) + 1):
                total += (
                    math.comb(jm, k)
                    * math.comb(jn, jnp - k)
                    * a ** (jm - k)
                    * c**k
                    * b ** (jn - jnp + k)
                    * d ** (jnp - k)
                )
            out[imp, im] = norm * total
    return out
