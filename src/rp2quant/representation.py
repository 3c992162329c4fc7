"""Induced unitary representations on sections and their generators.

Sections of the two line bundles are parity-constrained coefficient tables:
the sector tag of a ``HarmonicCoeffs`` names the bundle (odd ⇔ nontrivial
ℒ₋, even ⇔ trivial ℒ₊).  The rotation subgroup acts by
(U(g)a)(x) = a(Spin(g)⁻¹x), which is ``rotate_coeffs``; infinitesimal
generators are recovered by Richardson-extrapolated central differences
(steps FD_STEP and FD_STEP/2) along one-parameter subgroups
g_t = exp(-it σ_i/2), with the Hermitian convention

    J_i := i · d/dt|₀ U(g_t),

which reproduces the exact ladder action L_i on coefficients.  FD_STEP alone
sets the offsets, the twelve elements g_t (``_fd_rows``, cached per step)
and the divisor; each generator rotates all four offsets of its axis in one
``rotate_stack`` call.  The generators and the residuals built on them take
a (..., (lmax+1)²) stack of tables; a (n,) table is a stack with no leading
axes and gives a 0-d residual.

The full canonical operator on ℝP² × ℝ₊ acts on radial stacks of tables
(``FullSection``: one (n_radial, (lmax+1)²) matrix in one sector) by

    (𝒰(w, g, λ) Ψ)([x], r) = λ^{3/2} e^{-i r w([x])} Ψ([g⁻¹x], λr),

with the measure r² dr on the radial factor (λ^{3/2} is then exactly the
square-root Radon-Nikodym factor of the dilation, making the operator
unitary).  Composition obeys the semidirect law

    (w₁, g₁, λ₁)·(w₂, g₂, λ₂) = (w₁ + λ₁·(w₂ ∘ g₁⁻¹), g₁g₂, λ₁λ₂).

A radial grid is its parameters, ``RadialGrid(rmin, rmax, n)``: n log-uniform
nodes, so the dilation r ↦ λr is a constant shift in log-coordinates, applied
as an exact spectral translation (the same device the periodic position grid
uses for e^{-iap̂}); section support must stay clear of the window's ends.
The phase e^{-i r w([x])} on the radial nodes × quadrature nodes is written
as cos and sin (``_kernels._phase``), bit for bit ``np.exp`` of -i r w.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import _phase, _read_only
from .errors import RadialRangeError
from .groups import spinor_map, su2_from_axis_angle, su2_product
from .harmonics import (
    HarmonicCoeffs,
    _row_norms,
    _sector_checked,
    apply_L,
    off_sector_mask,
    rotate_stack,
)
from .manifold import QuadratureGrid, WFunctional
from .bundles import module_iso_forward

BOUNDARY_FRACTION_TOL = 1e-5   # max boundary coefficient relative to peak
FD_STEP = 1e-3                 # Richardson step h of every finite-difference generator


@functools.lru_cache(maxsize=8)
def _log_uniform_nodes(rmin: float, rmax: float, n: int) -> np.ndarray:
    return _read_only(np.exp(np.linspace(np.log(rmin), np.log(rmax), n)))


@dataclass(frozen=True)
class RadialGrid:
    """Nodes exp(linspace(log rmin, log rmax, n)), measure r² dr; equal grids share them."""

    rmin: float
    rmax: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        if not (0 < self.rmin < self.rmax and self.n >= 8):
            raise ValueError("need 0 < rmin < rmax and at least 8 nodes")

    @property
    def nodes(self) -> np.ndarray:
        return _log_uniform_nodes(self.rmin, self.rmax, self.n)

    @property
    def log_step(self) -> float:
        return float(np.log(self.nodes[1] / self.nodes[0]))

    def weights_r2dr(self) -> np.ndarray:
        """Trapezoid weights in log-space for ∫ f(r) r² dr = ∫ f e^{3u} du."""
        w = self.log_step * self.nodes**3
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def log_uniform_grid(rmin: float, rmax: float, n: int) -> RadialGrid:
    return RadialGrid(rmin, rmax, n)


@dataclass(frozen=True)
class FullSection:
    """Coefficient tables on every radial node: one (n_radial, (lmax+1)²) matrix.

    Row k is the table at radial node k; every row lies in ``sector``.  The
    matrix is stored as a read-only complex copy, checked once for sector
    purity (``harmonics._sector_checked``).
    """

    radial: RadialGrid
    lmax: int
    sector: str
    c: np.ndarray

    def __post_init__(self):
        if np.ndim(self.c) != 2 or np.shape(self.c)[0] != self.radial.n:
            raise ValueError("need one table per radial node")
        object.__setattr__(self, "c", _sector_checked(self.c, self.lmax, self.sector))

    def matrix(self) -> np.ndarray:
        """``c``; kept because perfbench's self-test reads it."""
        return self.c

    def norm(self) -> float:
        w = self.radial.weights_r2dr()
        per_node = np.sum(np.abs(self.c) ** 2, axis=1)
        return float(np.sqrt(np.sum(w * per_node)))


def full_section_from_matrix(
    radial: RadialGrid, m: np.ndarray, lmax: int, sector: str
) -> FullSection:
    """``FullSection(radial, lmax, sector, m)``; kept because perfbench's self-test calls it."""
    return FullSection(radial, lmax, sector, m)


def separable_section(
    radial: RadialGrid, profile: np.ndarray, a: HarmonicCoeffs
) -> FullSection:
    """Profile(r) × a(x) as a radial stack."""
    m = np.asarray(profile, dtype=complex)[:, None] * a.c[None, :]
    return FullSection(radial, a.lmax, a.sector, m)


def _boundary_fraction(m: np.ndarray) -> float:
    peak = np.max(np.abs(m))
    if peak == 0.0:
        return 0.0
    edge = max(np.max(np.abs(m[:2])), np.max(np.abs(m[-2:])))
    return float(edge / peak)


def _spectral_log_shift(m: np.ndarray, radial: RadialGrid, shift: float) -> np.ndarray:
    """Sample the columns of m at log-position u_k + shift (periodic spectral)."""
    freqs = 2.0 * np.pi * np.fft.fftfreq(radial.n, d=radial.log_step)
    return np.fft.ifft(
        np.fft.fft(m, axis=0) * np.exp(1j * freqs * shift)[:, None], axis=0
    )


def act_canonical(
    w: WFunctional,
    g,
    lam: float,
    fs: FullSection,
    grid: QuadratureGrid,
) -> FullSection:
    """(𝒰(w, g, λ)Ψ)([x], r) = λ^{3/2} e^{-i r w([x])} Ψ([g⁻¹x], λr).

    Dilation via exact spectral shift on the log-radial axis, rotation of the
    whole radial stack on coefficients (``rotate_stack``), phase as pointwise
    multiplication on the quadrature nodes (e^{-i r w} as cos and sin,
    ``_kernels._phase``, the bits of ``np.exp``): the stack is synthesized and
    re-projected with the grid's separable transform (``grid.synthesize`` /
    ``grid.project``), and the sector is restored with one mask.
    Raises RadialRangeError when section support touches the radial window
    ends (the shift would wrap around); for supported input the residual
    unitarity error is set by the interior tail within |ln λ| of the ends,
    which wraps onto the opposite side of the window.
    """
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    m = fs.c
    if lam != 1.0:
        if _boundary_fraction(m) > BOUNDARY_FRACTION_TOL:
            raise RadialRangeError(
                "section support reaches the radial window boundary; "
                "dilation would wrap"
            )
        m = _spectral_log_shift(m, fs.radial, np.log(lam))

    vals = grid.synthesize(rotate_stack(g, m))
    vals *= lam**1.5 * _phase(-np.outer(fs.radial.nodes, w(grid.nodes)))
    out = grid.project(vals, fs.lmax)
    out[:, off_sector_mask(fs.lmax, fs.sector)] = 0.0
    return FullSection(fs.radial, fs.lmax, fs.sector, out)


def canonical_product(
    e1: tuple[WFunctional, np.ndarray, float],
    e2: tuple[WFunctional, np.ndarray, float],
) -> tuple[WFunctional, np.ndarray, float]:
    """Semidirect product matching 𝒰(e₁)∘𝒰(e₂) = 𝒰(e₁·e₂).

    The functional part of the right factor is pushed forward by the left
    rotation and scaled by the left dilation:
    (w₁, g₁, λ₁)·(w₂, g₂, λ₂) = (w₁ + λ₁·(w₂ ∘ g₁⁻¹), g₁g₂, λ₁λ₂).
    """
    w1, g1, l1 = e1
    w2, g2, l2 = e2
    moved = w2.pushforward(spinor_map(g1)).scaled(l1)
    w = WFunctional(w1.c + moved.c, w1.c0 + moved.c0)
    return (w, su2_product(g1, g2), l1 * l2)


def check_group_law(
    e1: tuple[WFunctional, np.ndarray, float],
    e2: tuple[WFunctional, np.ndarray, float],
    fs: FullSection,
    grid: QuadratureGrid,
) -> float:
    """‖𝒰(e₁)𝒰(e₂)Ψ - 𝒰(e₁·e₂)Ψ‖ / ‖Ψ‖ in the r²dr ⊗ quadrature norm."""
    seq = act_canonical(*e1, act_canonical(*e2, fs, grid), grid)
    prod = act_canonical(*canonical_product(e1, e2), fs, grid)
    diff = seq.c - prod.c
    w = fs.radial.weights_r2dr()
    num = np.sqrt(np.sum(w * np.sum(np.abs(diff) ** 2, axis=1)))
    return float(num / fs.norm())


@functools.lru_cache(maxsize=8)
def _fd_rows(h: float) -> np.ndarray:
    """Rows g_t = e^{-itσ_i/2} at the Richardson offsets t = h, -h, h/2, -h/2 (cached).

    Axis i = 1, 2, 3 on the first index, t on the second: read-only, (3, 4, 2).
    """
    return _read_only(su2_from_axis_angle(np.array([h, -h, h / 2.0, -h / 2.0]),
                                          np.eye(3)[:, None, :]))


def _fd_elements(i: int, ndim: int = 1) -> np.ndarray:
    """Axis i's four rows at FD_STEP, shaped (4, 1, ..., 1, 2) to broadcast on ndim - 1 axes.

    Stacked in front of tables (..., n) with ndim - 1 leading axes, one
    ``rotate_stack`` call gives every offset on a new leading axis.
    """
    if i not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3")
    return _fd_rows(FD_STEP)[i - 1].reshape((4,) + (1,) * (ndim - 1) + (2,))


def _richardson(values) -> np.ndarray:
    """O(h⁴) derivative at t = 0 from values at t = h, -h, h/2, -h/2 (h = FD_STEP) on axis 0.

    Central differences at h and h/2, combined as (4·d_{h/2} - d_h)/3.
    """
    h = FD_STEP
    d_h = (values[0] - values[1]) / (2.0 * h)
    d_h2 = (values[2] - values[3]) / h
    return (4.0 * d_h2 - d_h) / 3.0


def generator_J(i: int, c) -> np.ndarray:
    """J_i c = i · d/dt|₀ U(e^{-it σ_i/2}) c on a stack of tables (..., (lmax+1)²).

    Richardson finite differences; one ``rotate_stack`` call takes the four
    offsets of ``_fd_elements(i)``.  Each row equals its single-table call
    bit for bit, and rotation never mixes degree blocks, so a sector-pure row
    stays pure.  Normalized so that J₃ on a Y₁₁ section returns the section
    itself.
    """
    c = np.asarray(c, dtype=np.complex128)
    return 1j * _richardson(rotate_stack(_fd_elements(i, c.ndim), c))


def generator_vs_ladder_residual(i: int, c) -> np.ndarray:
    """Coefficientwise relative gap between the FD generator and exact L_i, per table."""
    c = np.asarray(c, dtype=np.complex128)
    exact = apply_L(i, c)
    scale = np.maximum(_row_norms(exact), _row_norms(c))
    return _row_norms(generator_J(i, c) - exact) / scale


def check_intertwining(c, grid: QuadratureGrid) -> np.ndarray:
    """Residuals of (J_i ∘ Φ)(a) = (Φ ∘ L_i)(a) per axis i and odd table a, relative to ‖a‖.

    Φ(a) is the frame-valued section a·φ, realized as the triple of even
    component functions a(x)·x_i (``module_iso_forward``).  One Φ call takes
    the tables and their exact ladder images L₁a, L₂a, L₃a together.  The
    generator on the Φ side is computed by finite differences of the full
    vector rotation (base motion plus fiber mixing, one stacked call over the
    three axes and four offsets).  Returns shape (3,) + c.shape[:-1], axis i - 1
    on the first index.  Content off the odd sector raises ValueError.
    """
    c = np.asarray(c, dtype=np.complex128)
    images = [apply_L(i, c) for i in (1, 2, 3)]
    triples, *rhs = module_iso_forward(np.stack([c, *images]), grid)      # (..., 3, n')
    # offsets on axis 0, the three axes on axis 1, then one axis per leading axis of triples
    g = _fd_rows(FD_STEP).swapaxes(0, 1).reshape((4, 3) + (1,) * c.ndim + (2,))
    lhs = 1j * _richardson(spinor_map(g[..., 0, :]) @ rotate_stack(g, triples))
    gap = (lhs - np.stack(rhs)).reshape((3,) + c.shape[:-1] + (-1,))
    return _row_norms(gap) / _row_norms(c)


def su2_closure_residual(c) -> np.ndarray:
    """‖[J₁, J₂]a - i J₃ a‖ / ‖a‖ per table, with all generators finite-differenced."""
    c = np.asarray(c, dtype=np.complex128)
    comm = generator_J(1, generator_J(2, c)) - generator_J(2, generator_J(1, c))
    return _row_norms(comm - 1j * generator_J(3, c)) / _row_norms(c)


EXCHANGE_TOL = 1e-10     # off-parity part of an exchange eigenstate, relative to its peak


def exchange_parities(c, grid: QuadratureGrid) -> np.ndarray:
    """Exchange (antipodal) eigenvalue of each table in a stack (..., (lmax+1)²).

    +1 or -1 where the node values are even or odd under x ↦ -x to
    EXCHANGE_TOL of their peak, 0 where they are neither.  One
    ``grid.synthesize`` call, read back through ``grid.antipode``.
    """
    vals = grid.synthesize(c)
    anti = vals[..., grid.antipode]
    scale = np.maximum(np.max(np.abs(vals), axis=-1), 1e-300)
    even = np.max(np.abs(vals - anti), axis=-1) <= EXCHANGE_TOL * scale
    odd = np.max(np.abs(vals + anti), axis=-1) <= EXCHANGE_TOL * scale
    return np.where(even, 1, np.where(odd, -1, 0))
