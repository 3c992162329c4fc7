"""Induced unitary representations on sections and their generators.

Sections of the two line bundles are parity-constrained coefficient tables
(odd ⇔ nontrivial bundle, even ⇔ trivial bundle).  The rotation subgroup acts
by (U(g)a)(x) = a(Spin(g)⁻¹x); infinitesimal generators are recovered by
Richardson-extrapolated central differences along one-parameter subgroups
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
from .harmonics import (
    HarmonicCoeffs,
    apply_L,
    project_sector,
    rotate_coeffs,
    rotate_stack,
)
from .manifold import QuadratureGrid, WFunctional
from .bundles import module_iso_forward

SECTOR_OF_BUNDLE = {"minus": "odd", "plus": "even"}
BOUNDARY_FRACTION_TOL = 1e-5   # max boundary coefficient relative to peak
FD_STEP_RANGE = (1e-6, 1e-2)


@dataclass(frozen=True)
class Section:
    """Parity-tagged wave function: odd tables for ℒ₋, even for ℒ₊."""

    a: HarmonicCoeffs
    bundle: str

    def __post_init__(self):
        if self.bundle not in SECTOR_OF_BUNDLE:
            raise ValueError("bundle must be 'plus' or 'minus'")
        if self.a.sector != SECTOR_OF_BUNDLE[self.bundle]:
            raise ValueError(
                f"bundle {self.bundle!r} requires sector "
                f"{SECTOR_OF_BUNDLE[self.bundle]!r}, got {self.a.sector!r}"
            )


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


def act_U(g: SU2Element, s: Section, grid: QuadratureGrid) -> Section:
    """(U(g)a)(x) = a(Spin(g)⁻¹ x); unitary in the quadrature inner product."""
    return Section(rotate_coeffs(g, s.a, grid), s.bundle)


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
    multiplication on the quadrature nodes followed by re-projection.
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

    basis = grid.basis(fs.lmax)
    phase = lam**1.5 * np.exp(-1j * np.outer(fs.radial.nodes, w(grid.nodes)))
    vals = (rotate_stack(g, m) @ basis.T) * phase * grid.weights
    # projection v @ conj(B) as conj(conj(v) @ B): no conjugated basis copy
    out = (vals.conj() @ basis).conj()
    result = full_section_from_matrix(fs.radial, out, fs.lmax, "full")
    if fs.sector == "full":
        return result
    tables = tuple(project_sector(t, fs.sector) for t in result.tables)
    return FullSection(fs.radial, tables)


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


def _validate_step(h_step: float) -> None:
    if not FD_STEP_RANGE[0] <= h_step <= FD_STEP_RANGE[1]:
        raise ValueError(f"h_step must lie in {FD_STEP_RANGE}")


def _richardson_derivative(apply_at, h: float) -> np.ndarray:
    """O(h⁴) derivative at t = 0 from central differences at h and h/2."""
    d_h = (apply_at(h) - apply_at(-h)) / (2.0 * h)
    d_h2 = (apply_at(h / 2.0) - apply_at(-h / 2.0)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def generator_J(
    i: int, s: Section, grid: QuadratureGrid, h_step: float = 1e-3
) -> Section:
    """J_i s = i · d/dt|₀ U(e^{-it σ_i/2}) s, Richardson finite differences.

    Normalized so that J₃ on a Y₁₁ section returns the section itself.
    """
    _validate_step(h_step)
    axis = np.eye(3)[i - 1]

    def apply_at(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return np.asarray(rotate_coeffs(g, s.a, grid).c)

    deriv = 1j * _richardson_derivative(apply_at, h_step)
    table = project_sector(
        HarmonicCoeffs(s.a.lmax, "full", deriv), s.a.sector
    )
    return Section(table, s.bundle)


def generator_vs_ladder_residual(
    i: int, s: Section, grid: QuadratureGrid, h_step: float = 1e-3
) -> float:
    """Coefficientwise relative gap between the FD generator and exact L_i."""
    fd = generator_J(i, s, grid, h_step)
    exact = apply_L(i, s.a)
    scale = max(exact.norm(), s.a.norm())
    return float(np.linalg.norm(fd.a.c - exact.c) / scale)


def check_intertwining(
    i: int,
    a: HarmonicCoeffs,
    grid: QuadratureGrid,
    h_step: float = 1e-3,
) -> float:
    """Residual of (J_i ∘ Φ)(a) = (Φ ∘ L_i)(a), relative to ‖a‖.

    Φ(a) is the frame-valued section a·φ, realized as the triple of even
    component functions a(x)·x_i; the generator on that side is computed by
    finite differences of the full vector rotation (base motion plus fiber
    mixing), the other side by the exact ladder action pushed through Φ.
    """
    _validate_step(h_step)
    if a.sector != "odd":
        raise ValueError("intertwining check expects an odd-sector table")
    triple = np.stack([t.c for t in module_iso_forward(a, grid)])
    axis = np.eye(3)[i - 1]
    ncoef = triple.shape[1]

    def apply_at(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return (spinor_map(g) @ rotate_stack(g, triple)).ravel()

    lhs = 1j * _richardson_derivative(apply_at, h_step)
    rhs = np.concatenate([t.c for t in module_iso_forward(apply_L(i, a), grid)])
    assert lhs.shape == rhs.shape == (3 * ncoef,)
    return float(np.linalg.norm(lhs - rhs) / a.norm())


def su2_closure_residual(
    s: Section, grid: QuadratureGrid, h_step: float = 1e-3
) -> float:
    """‖[J₁, J₂]s - i J₃ s‖ / ‖s‖ with all generators finite-differenced."""
    j1j2 = generator_J(1, generator_J(2, s, grid, h_step), grid, h_step)
    j2j1 = generator_J(2, generator_J(1, s, grid, h_step), grid, h_step)
    j3 = generator_J(3, s, grid, h_step)
    comm = j1j2.a.c - j2j1.a.c
    return float(np.linalg.norm(comm - 1j * j3.a.c) / s.a.norm())


def exchange_parity(s: Section, grid: QuadratureGrid) -> int:
    """Eigenvalue of the particle-exchange (antipodal) map on the section."""
    vals = grid.basis(s.a.lmax) @ s.a.c
    anti = grid.antipodal_basis(s.a.lmax) @ s.a.c
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    odd_part = float(np.max(np.abs(vals + anti)))
    even_part = float(np.max(np.abs(vals - anti)))
    if even_part <= 1e-10 * scale:
        return 1
    if odd_part <= 1e-10 * scale:
        return -1
    raise ValueError("section is not an exchange eigenstate")


def save_full_section(fs: FullSection, path) -> None:
    """Header (lmax, sector, radial nodes), then one coefficient block per node."""
    with open(path, "w") as fh:
        fh.write(f"# lmax {fs.lmax} sector {fs.sector} radial {fs.radial.n}\n")
        fh.write(" ".join(f"{r:.17g}" for r in fs.radial.nodes) + "\n")
        for t in fs.tables:
            fh.write(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in t.c) + "\n")


def load_full_section(path) -> FullSection:
    with open(path) as fh:
        header = fh.readline().split()
        lmax, sector = int(header[2]), header[4]
        nodes = np.array([float(v) for v in fh.readline().split()])
        rows = []
        for line in fh:
            flat = np.array([float(v) for v in line.split()])
            rows.append(flat[0::2] + 1j * flat[1::2])
    m = np.stack(rows)
    return full_section_from_matrix(RadialGrid(nodes), m, lmax, sector)
