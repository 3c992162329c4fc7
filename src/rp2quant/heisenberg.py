"""Weyl operators, the Heisenberg group, and the two-route quantization gap.

Wave functions live on a uniform periodic grid over [-L, L); momentum acts
spectrally, so the translation U(a): ψ(x) ↦ ψ(x - ħa) is exact on
band-limited data provided the support stays inside the window.  With

    U(a) = e^{-ia p̂},   V(b) = e^{-ib q̂},   [q̂, p̂] = iħ,

direct computation gives the exchange phase

    U(a) V(b) = V(b) U(a) e^{+iμab},      μ ≡ ħ,

and the Heisenberg group (a, b, r) with product
(a₁,b₁,r₁)·(a₂,b₂,r₂) = (a₁+a₂, b₁+b₂, r₁+r₂+½(b₁·a₂ - b₂·a₁)) is represented
by 𝒰(a, b, r) = U(a) V(b) e^{-iμ(r + ab/2)}.  (For this U and V the exchange
phase must carry the + sign and the representation the compensating - sign;
the opposite pairing fails the homomorphism identity, as the sign test
below makes explicit.)  The central element acts by e^{-iμr}, and the
derived algebra reproduces [q̂, p̂] = iħ with central charge ħ.

The two-route inconsistency: squaring the symmetrized product
sym(pq) = (p̂q̂ + q̂p̂)/2 yields p̂²q̂² + 2iħ p̂q̂ - ¼ħ², while the route through
p²q² = ½((p²+q²)² - p⁴ - q⁴) yields p̂²q̂² + 2iħ p̂q̂ - ħ²; the two candidate
operators differ by the constant (3/4)ħ².

The Weyl phases are formed on the lattice they live on.  With θ = step·j on
the integer wavenumbers (U) or grid points (V), j is split as cols·h + l with
cols = 2^⌊log₂N / 2⌋, and e^{iθ} is the outer product of two ``_phase`` tables
of about √N entries (``_lattice_phase``).  A wave function computes its FFT
once, on first use, as a read-only ``spectrum`` that ``weyl_U`` and ``op_p``
share; ``boundary_mass`` reads the two ends of the grid where |x| ≥ L/2.
"""

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._kernels import _phase, _read_only

SUPPORT_TOL = 1e-12


@lru_cache(maxsize=8)
def _grid_axes(N: int, L: float) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Read-only (x, k) of the (N, L) grid and the range [lo, hi) of |x| < L/2.

    Built once per grid.  x increases, so the points with |x| ≥ L/2 are the
    two ends x[:lo] and x[hi:].
    """
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    inside = np.flatnonzero(~(np.abs(x) >= L / 2.0))
    ends = (int(inside[0]), int(inside[-1]) + 1) if inside.size else (N, N)
    return _read_only(x), _read_only(2.0 * np.pi * np.fft.fftfreq(N, dx)), ends


@lru_cache(maxsize=8)
def _lattice(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid index i = cols·h + (l mod cols) of N = 2^p, cols = 2^⌊p/2⌋, l = -cols/2 … cols/2 - 1.

    Returns read-only (h of the wavenumbers, h of the points, l), with l in
    FFT order so that entry i is column l mod cols.  Entry i of ``k`` is
    (π/L)·j and entry i of ``x`` is dx·j, where j = cols·h + l + cols·[l < 0],
    h = fftfreq(rows)·rows for ``k`` and h = 0 … rows - 1 minus rows/2 for
    ``x`` (rows = N / cols).
    """
    cols = 1 << (N.bit_length() - 1) // 2
    rows = N // cols
    return (_read_only(np.fft.fftfreq(rows, 1.0 / rows)),
            _read_only(np.arange(rows) - rows / 2.0),
            _read_only(np.fft.fftfreq(cols, 1.0 / cols)))


def _lattice_phase(step: float, h: np.ndarray, l: np.ndarray) -> np.ndarray:
    """e^{i·step·j} on the ``_lattice`` split j = cols·h + l + cols·[l < 0], flat.

    The outer product of two ``_phase`` tables of about √N entries: 2√N
    trig calls and N complex multiplies, not 2N trig calls.  With centred
    columns every rounded argument is at most 4|step·j|, so each entry stays
    within a few ulp·(1 + |step·j|) of e^{i·step·j}, as one ``_phase`` of the
    whole array does; columns 0 … cols-1 would let the error near j = 0 grow
    to ulp·|step|·cols.
    """
    cols = l.size
    col = _phase(step * l)
    col[l < 0] *= _phase(step * cols)
    return np.multiply.outer(_phase(step * cols * h), col).ravel()


@dataclass(frozen=True)
class GridWavefunction:
    """N complex samples on the periodic grid x_k = -L + k·(2L/N)."""

    N: int
    L: float
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.N, numbers.Integral) and self.N > 0 and not self.N & (self.N - 1)):
            raise ValueError("N must be an integer power of two")
        if not (0 < self.L < np.inf and 0 < self.hbar < np.inf):
            raise ValueError("L and hbar must be positive and finite")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.N,):
            raise ValueError("values must have shape (N,)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Read-only grid points, shared by every wave function on the same (N, L)."""
        return _grid_axes(self.N, self.L)[0]

    @property
    def k(self) -> np.ndarray:
        """Read-only angular wavenumbers in FFT order, shared like ``x``."""
        return _grid_axes(self.N, self.L)[1]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only ``np.fft.fft(values)``, computed on first use and kept."""
        return _read_only(np.fft.fft(self.values))

    def with_values(self, values: np.ndarray) -> "GridWavefunction":
        return GridWavefunction(self.N, self.L, values, self.hbar)

    def norm(self) -> float:
        return float(np.sqrt(self.dx * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "GridWavefunction") -> complex:
        return complex(self.dx * np.vdot(self.values, other.values))


def gaussian_packet(
    N: int, L: float, x0: float = 0.0, sigma: float = 1.0, k0: float = 0.0,
    hbar: float = 1.0,
) -> GridWavefunction:
    """Normalized Gaussian e^{ik₀x} exp(-(x-x₀)²/4σ²) on the grid."""
    psi = GridWavefunction(N, L, np.zeros(N, dtype=complex), hbar)
    x = psi.x
    vals = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    vals /= np.sqrt(psi.dx * np.sum(np.abs(vals) ** 2))
    return psi.with_values(vals)


def boundary_mass(psi: GridWavefunction) -> float:
    """Probability mass outside |x| < L/2 (should be < 1e-12 for safe use)."""
    lo, hi = _grid_axes(psi.N, psi.L)[2]
    ends = np.concatenate((psi.values[:lo], psi.values[hi:]))
    return float(psi.dx * np.sum(np.abs(ends) ** 2))


def _support_check(psi: GridWavefunction) -> None:
    m = boundary_mass(psi)
    if m > SUPPORT_TOL:
        warnings.warn(
            f"tail mass {m:.3e} outside |x| < L/2; spectral operators degrade",
            stacklevel=3,
        )


def op_q(psi: GridWavefunction) -> GridWavefunction:
    """Position operator: pointwise multiplication by x."""
    _support_check(psi)
    return psi.with_values(psi.x * psi.values)


def op_p(psi: GridWavefunction) -> GridWavefunction:
    """Momentum operator -iħ d/dx by spectral differentiation."""
    _support_check(psi)
    return psi.with_values(
        np.fft.ifft(psi.hbar * psi.k * psi.spectrum)
    )


def weyl_U(a: float, psi: GridWavefunction) -> GridWavefunction:
    """U(a) = e^{-ia p̂}: translation ψ(x) ↦ ψ(x - ħa), spectrally exact."""
    _support_check(psi)
    if a == 0.0:
        return psi
    h, _, l = _lattice(psi.N)
    phase = _lattice_phase(-psi.hbar * a * (np.pi / psi.L), h, l)
    return psi.with_values(np.fft.ifft(np.multiply(phase, psi.spectrum, out=phase)))


def weyl_V(b: float, psi: GridWavefunction) -> GridWavefunction:
    """V(b) = e^{-ib q̂}: multiplication by e^{-ibx}."""
    _, h, l = _lattice(psi.N)
    phase = _lattice_phase(-b * psi.dx, h, l)
    return psi.with_values(np.multiply(phase, psi.values, out=phase))


def check_weyl_relation(a: float, b: float, psi: GridWavefunction) -> float:
    """‖U(a)V(b)ψ - e^{+iμab} V(b)U(a)ψ‖ / ‖ψ‖ with μ = ħ."""
    mu = psi.hbar
    lhs = weyl_U(a, weyl_V(b, psi))
    rhs = weyl_V(b, weyl_U(a, psi))
    diff = lhs.values - np.exp(1j * mu * a * b) * rhs.values
    return float(np.sqrt(psi.dx * np.sum(np.abs(diff) ** 2)) / psi.norm())


@dataclass(frozen=True)
class HeisenbergElement:
    """(a, b, r) with n-vector translation parts and central coordinate r.

    a and b may also be (..., n) stacks with r of shape (...): one element per row.
    """

    a: np.ndarray
    b: np.ndarray
    r: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must have the same dimension")

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.a, -self.b, -self.r)


def heisenberg_product(
    e1: HeisenbergElement, e2: HeisenbergElement
) -> HeisenbergElement:
    """(a₁,b₁,r₁)·(a₂,b₂,r₂) = (a₁+a₂, b₁+b₂, r₁+r₂+½(b₁·a₂ - b₂·a₁)), row by row on stacks."""
    if e1.a.shape != e2.a.shape:
        raise ValueError("dimension mismatch")
    r = e1.r + e2.r + 0.5 * (np.vecdot(e1.b, e2.a) - np.vecdot(e2.b, e1.a))
    return HeisenbergElement(e1.a + e2.a, e1.b + e2.b, r)


def rep_heisenberg(e: HeisenbergElement, psi: GridWavefunction) -> GridWavefunction:
    """𝒰(a, b, r) = U(a) V(b) e^{-iμ(r + ab/2)} on the grid (n = 1)."""
    if e.a.shape != (1,):
        raise ValueError("grid representation is one-dimensional")
    mu = psi.hbar
    a, b = float(e.a[0]), float(e.b[0])
    out = weyl_U(a, weyl_V(b, psi))
    return out.with_values(np.exp(-1j * mu * (e.r + a * b / 2.0)) * out.values)


def _sym_pq(psi: GridWavefunction) -> GridWavefunction:
    """sym(pq) = (p̂q̂ + q̂p̂)/2."""
    return psi.with_values(
        0.5 * (op_p(op_q(psi)).values + op_q(op_p(psi)).values)
    )


def _shared_terms(psi: GridWavefunction) -> np.ndarray:
    """(p̂²q̂² + 2iħ p̂q̂)ψ, the part both quantizations of (pq)² write out."""
    return op_p(op_p(op_q(op_q(psi)))).values + 2j * psi.hbar * op_p(op_q(psi)).values


def gvh_discrepancy(psi: GridWavefunction) -> tuple[GridWavefunction, float]:
    """Difference field of the two quantizations of (pq)² and its fitted scale.

    Route 1 expands (sym(pq))² as p̂²q̂² + 2iħ p̂q̂ - ¼ħ²; route 2 quantizes
    p²q² as p̂²q̂² + 2iħ p̂q̂ - ħ².  Returns (A₁ψ - A₂ψ, fitted constant); the
    fitted constant is ⟨ψ, (A₁-A₂)ψ⟩/⟨ψ, ψ⟩ and equals (3/4)ħ².  Route 1's
    expansion is verified on its own by ``gvh_expansion_residual``.
    """
    hbar = psi.hbar
    shared = _shared_terms(psi)
    route1 = shared - 0.25 * hbar**2 * psi.values
    route2 = shared - 1.0 * hbar**2 * psi.values

    diff = psi.with_values(route1 - route2)
    scalar = (psi.inner(diff) / psi.inner(psi)).real
    return diff, float(scalar)


def gvh_expansion_residual(psi: GridWavefunction) -> float:
    """‖(sym(pq))²ψ - (p̂²q̂² + 2iħ p̂q̂ - ¼ħ²)ψ‖ / ‖ψ‖."""
    route1 = _shared_terms(psi) - 0.25 * psi.hbar**2 * psi.values
    composed = _sym_pq(_sym_pq(psi))
    return float(
        np.sqrt(
            np.sum(np.abs(composed.values - route1) ** 2)
            / np.sum(np.abs(psi.values) ** 2)
        )
    )


def halfline_breakdown_demo(a: float, psi: GridWavefunction) -> dict:
    """Mass escaping the half-line after translating toward the origin.

    ψ must be supported in (0, L/2).  The packet is translated left by ħ|a|;
    once ħ|a| exceeds the support's right edge the escaped mass
    ∫_{x<0} |U ψ|² dx approaches 1, which is the sense in which a self-adjoint
    momentum (hence its translation group) cannot exist on the half-line.
    """
    x = psi.x
    mass_neg = psi.dx * np.sum(np.abs(psi.values[x < 0]) ** 2)
    if mass_neg > SUPPORT_TOL or boundary_mass(psi) > SUPPORT_TOL:
        warnings.warn("demo packet should be supported in (0, L/2)", stacklevel=2)
    shifted = weyl_U(-abs(a), psi)
    escaped = float(psi.dx * np.sum(np.abs(shifted.values[x < 0]) ** 2))
    return {
        "a": float(a),
        "translation": float(psi.hbar * abs(a)),
        "escaped_mass": escaped,
        "initial_negative_mass": float(mass_neg),
    }

