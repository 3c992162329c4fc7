"""Induced unitary representations on sections and their generators.

Sections of the two line bundles are parity-constrained coefficient tables:
the sector tag of a ``HarmonicCoeffs`` names the bundle (odd ⇔ nontrivial
ℒ₋, even ⇔ trivial ℒ₊).  The rotation subgroup acts by
(U(g)a)(x) = a(Spin(g)⁻¹x), which is ``rotate_coeffs``; infinitesimal
generators are recovered by Richardson-extrapolated central differences
(steps FD_STEP and FD_STEP/2) along one-parameter subgroups
g_t = exp(-it σ_i/2), with the Hermitian convention

    J_i := i · d/dt|₀ U(g_t),

which reproduces the exact ladder action L_i on coefficients.

The full canonical operator on ℝP² × ℝ₊ acts on radial stacks of tables by

    (𝒰(w, g, λ) Ψ)([x], r) = λ^{3/2} e^{-i r w([x])} Ψ([g⁻¹x], λr),

with the measure r² dr on the radial factor (λ^{3/2} is then exactly the
square-root Radon-Nikodym factor of the dilation, making the operator
unitary).  Composition obeys the semidirect law

    (w₁, g₁, λ₁)·(w₂, g₂, λ₂) = (w₁ + λ₁·(w₂ ∘ g₁⁻¹), g₁g₂, λ₁λ₂).

Radial grids are log-uniform, so the dilation r ↦ λr is a constant shift in
log-coordinates and is applied as an exact spectral translation (the same
device the periodic position grid uses for e^{-iap̂}); section support must
stay clear of the radial window's ends.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RadialRangeError
from .groups import SU2Element, spinor_map, su2_from_axis_angle
from .harmonics import HarmonicCoeffs, apply_L, off_sector_mask, project_sector, rotate_stack
from .manifold import QuadratureGrid, WFunctional
from .bundles import module_iso_forward

BOUNDARY_FRACTION_TOL = 1e-5   # max boundary coefficient relative to peak
FD_STEP = 1e-3                 # Richardson step h of every finite-difference generator


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing log-uniform nodes r_k > 0, measure r² dr."""

    nodes: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        if r.ndim != 1 or r.size < 8 or np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("need at least 8 strictly increasing positive nodes")
        steps = np.diff(np.log(r))
        if np.max(np.abs(steps - steps[0])) > 1e-10:
            raise ValueError("nodes must be log-uniform")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "nodes", r)

    @property
    def n(self) -> int:
        return self.nodes.size

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
    return RadialGrid(np.exp(np.linspace(np.log(rmin), np.log(rmax), n)))


@dataclass(frozen=True)
class FullSection:
    """One coefficient table per radial node, all in the same sector."""

    radial: RadialGrid
    tables: tuple[HarmonicCoeffs, ...]

    def __post_init__(self):
        if len(self.tables) != self.radial.n:
            raise ValueError("need one table per radial node")
        sectors = {t.sector for t in self.tables}
        lmaxes = {t.lmax for t in self.tables}
        if len(sectors) != 1 or len(lmaxes) != 1:
            raise ValueError("tables must share sector and lmax")

    @property
    def sector(self) -> str:
        return self.tables[0].sector

    @property
    def lmax(self) -> int:
        return self.tables[0].lmax

    def matrix(self) -> np.ndarray:
        """(n_radial, n_coeff) stack of the coefficient tables."""
        return np.stack([t.c for t in self.tables])

    def norm(self) -> float:
        w = self.radial.weights_r2dr()
        per_node = np.sum(np.abs(self.matrix()) ** 2, axis=1)
        return float(np.sqrt(np.sum(w * per_node)))


def full_section_from_matrix(
    radial: RadialGrid, m: np.ndarray, lmax: int, sector: str
) -> FullSection:
    tables = tuple(HarmonicCoeffs(lmax, sector, row) for row in m)
    return FullSection(radial, tables)


def separable_section(
    radial: RadialGrid, profile: np.ndarray, a: HarmonicCoeffs
) -> FullSection:
    """Profile(r) × a(x) as a radial stack."""
    m = np.asarray(profile, dtype=complex)[:, None] * a.c[None, :]
    return full_section_from_matrix(radial, m, a.lmax, a.sector)


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
    g: SU2Element,
    lam: float,
    fs: FullSection,
    grid: QuadratureGrid,
) -> FullSection:
    """(𝒰(w, g, λ)Ψ)([x], r) = λ^{3/2} e^{-i r w([x])} Ψ([g⁻¹x], λr).

    Dilation via exact spectral shift on the log-radial axis, rotation of the
    whole radial stack on coefficients (``rotate_stack``), phase as pointwise
    multiplication on the quadrature nodes: the stack is synthesized and
    re-projected with the grid's separable transform (``grid.synthesize`` /
    ``grid.project``), and the sector is restored with one mask.
    Raises RadialRangeError when section support touches the radial window
    ends (the shift would wrap around); for supported input the residual
    unitarity error is set by the interior tail within |ln λ| of the ends,
    which wraps onto the opposite side of the window.
    """
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    m = fs.matrix()
    if lam != 1.0:
        if _boundary_fraction(m) > BOUNDARY_FRACTION_TOL:
            raise RadialRangeError(
                "section support reaches the radial window boundary; "
                "dilation would wrap"
            )
        m = _spectral_log_shift(m, fs.radial, np.log(lam))

    vals = grid.synthesize(rotate_stack(g, m))
    vals *= lam**1.5 * np.exp(-1j * np.outer(fs.radial.nodes, w(grid.nodes)))
    out = grid.project(vals, fs.lmax)
    out[:, off_sector_mask(fs.lmax, fs.sector)] = 0.0
    return full_section_from_matrix(fs.radial, out, fs.lmax, fs.sector)


def canonical_product(
    e1: tuple[WFunctional, SU2Element, float],
    e2: tuple[WFunctional, SU2Element, float],
) -> tuple[WFunctional, SU2Element, float]:
    """Semidirect product matching 𝒰(e₁)∘𝒰(e₂) = 𝒰(e₁·e₂).

    The functional part of the right factor is pushed forward by the left
    rotation and scaled by the left dilation:
    (w₁, g₁, λ₁)·(w₂, g₂, λ₂) = (w₁ + λ₁·(w₂ ∘ g₁⁻¹), g₁g₂, λ₁λ₂).
    """
    w1, g1, l1 = e1
    w2, g2, l2 = e2
    moved = w2.pushforward(spinor_map(g1)).scaled(l1)
    w = WFunctional(w1.c + moved.c, w1.c0 + moved.c0)
    return (w, g1 * g2, l1 * l2)


def check_group_law(
    e1: tuple[WFunctional, SU2Element, float],
    e2: tuple[WFunctional, SU2Element, float],
    fs: FullSection,
    grid: QuadratureGrid,
) -> float:
    """‖𝒰(e₁)𝒰(e₂)Ψ - 𝒰(e₁·e₂)Ψ‖ / ‖Ψ‖ in the r²dr ⊗ quadrature norm."""
    seq = act_canonical(*e1, act_canonical(*e2, fs, grid), grid)
    prod = act_canonical(*canonical_product(e1, e2), fs, grid)
    diff = seq.matrix() - prod.matrix()
    w = fs.radial.weights_r2dr()
    num = np.sqrt(np.sum(w * np.sum(np.abs(diff) ** 2, axis=1)))
    return float(num / fs.norm())


def _richardson_derivative(apply_at) -> np.ndarray:
    """O(h⁴) derivative at t = 0 from central differences at h = FD_STEP and h/2."""
    h = FD_STEP
    d_h = (apply_at(h) - apply_at(-h)) / (2.0 * h)
    d_h2 = (apply_at(h / 2.0) - apply_at(-h / 2.0)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def generator_J(i: int, a: HarmonicCoeffs) -> HarmonicCoeffs:
    """J_i a = i · d/dt|₀ U(e^{-it σ_i/2}) a, Richardson finite differences.

    Normalized so that J₃ on a Y₁₁ section returns the section itself.
    """
    axis = np.eye(3)[i - 1]

    def apply_at(t: float) -> np.ndarray:
        return rotate_stack(su2_from_axis_angle(t, axis), a.c)

    deriv = 1j * _richardson_derivative(apply_at)
    return project_sector(HarmonicCoeffs(a.lmax, "full", deriv), a.sector)


def generator_vs_ladder_residual(i: int, a: HarmonicCoeffs) -> float:
    """Coefficientwise relative gap between the FD generator and exact L_i."""
    fd = generator_J(i, a)
    exact = apply_L(i, a)
    scale = max(exact.norm(), a.norm())
    return float(np.linalg.norm(fd.c - exact.c) / scale)


def check_intertwining(i: int, a: HarmonicCoeffs, grid: QuadratureGrid) -> float:
    """Residual of (J_i ∘ Φ)(a) = (Φ ∘ L_i)(a), relative to ‖a‖.

    Φ(a) is the frame-valued section a·φ, realized as the triple of even
    component functions a(x)·x_i; the generator on that side is computed by
    finite differences of the full vector rotation (base motion plus fiber
    mixing), the other side by the exact ladder action pushed through Φ.
    """
    if a.sector != "odd":
        raise ValueError("intertwining check expects an odd-sector table")
    triple = np.stack([t.c for t in module_iso_forward(a, grid)])
    axis = np.eye(3)[i - 1]
    ncoef = triple.shape[1]

    def apply_at(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return (spinor_map(g) @ rotate_stack(g, triple)).ravel()

    lhs = 1j * _richardson_derivative(apply_at)
    rhs = np.concatenate([t.c for t in module_iso_forward(apply_L(i, a), grid)])
    assert lhs.shape == rhs.shape == (3 * ncoef,)
    return float(np.linalg.norm(lhs - rhs) / a.norm())


def su2_closure_residual(a: HarmonicCoeffs) -> float:
    """‖[J₁, J₂]a - i J₃ a‖ / ‖a‖ with all generators finite-differenced."""
    comm = generator_J(1, generator_J(2, a)).c - generator_J(2, generator_J(1, a)).c
    return float(np.linalg.norm(comm - 1j * generator_J(3, a).c) / a.norm())


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


def exchange_parity(a: HarmonicCoeffs, grid: QuadratureGrid) -> int:
    """Eigenvalue of the particle-exchange (antipodal) map on the section a."""
    parity = int(exchange_parities(a.c, grid))
    if parity == 0:
        raise ValueError("section is not an exchange eigenstate")
    return parity

