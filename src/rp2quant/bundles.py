"""The two line bundles over ℝP², their lifts, and the projective-module maps.

The nontrivial bundle is handled in two equivalent presentations:

* the associated bundle SU(2) ×_κ ℂ, classes [(g, v)] with
  (g, v) ~ (g h, κ(h⁻¹) v), where κ is +1 on diagonal and -1 on antidiagonal
  H elements;
* the sub-bundle of ℝP² × ℂ³ whose fiber over [x] is spanned by
  φ(x) := (x₁, x₂, x₃) — a smooth, nonvanishing, odd frame map.

The isomorphism Φ sends [(g, v)] to ([x(g)], v·φ(x(g))); it intertwines the
natural left lift l↑_g[(p, v)] = [(g p, v)] with the transported lift τ_g on
the sub-bundle picture.  Sections of the nontrivial bundle are odd functions
a on S² through Ψ_a([x]) = a(x)·φ(x), and the projector p(x) = |φ(x)⟩⟨φ(x)|
realizes them inside a free rank-3 module over the even functions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PointNotInChart, ProjectorConstraintViolated
from .groups import (
    HElement,
    RP2Point,
    SU2Element,
    quotient_to_sphere,
    quotient_to_sphere_batch,
    rp2_point,
    rp2_rep_batch,
    su2_from_sphere_point,
    su2_from_sphere_point_batch,
    su2_product_batch,
    unit_vector,
    unit_vector_batch,
)
from .harmonics import HarmonicCoeffs, off_sector_mask
from .manifold import CHART_TOL, QuadratureGrid

FIBER_TOL = 1e-10
PROJECTOR_CONSTRAINT_TOL = 1e-8   # p·f - f accepted by module_iso_inverse, relative


def kappa(h: HElement) -> int:
    """The nontrivial character of H: +1 on diagonal, -1 on antidiagonal."""
    return 1 if h.kind == "diagonal" else -1


def phi(x) -> np.ndarray:
    """Frame map φ(x) = (x₁, x₂, x₃) as a complex 3-vector; φ(-x) = -φ(x)."""
    return unit_vector(x).astype(complex)


@dataclass(frozen=True)
class AssocElement:
    """Representative (g, v) of the class [(g, v)] in SU(2) ×_κ ℂ."""

    g: SU2Element
    v: complex


@dataclass(frozen=True)
class LMinusElement:
    """Point of the sub-bundle: base class plus a fiber vector ∝ φ(rep)."""

    base: RP2Point
    fiber: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.fiber, dtype=complex)
        frame = phi(self.base.rep)
        lam = np.vdot(frame, f)
        if np.linalg.norm(f - lam * frame) > FIBER_TOL * max(1.0, np.linalg.norm(f)):
            raise ValueError("fiber vector is not proportional to the frame")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "fiber", f)

    def coefficient(self) -> complex:
        """λ with fiber = λ·φ(rep(base))."""
        return complex(np.vdot(phi(self.base.rep), self.fiber))


def assoc_translate(e: AssocElement, h: HElement) -> AssocElement:
    """The equivalent representative (g h, κ(h⁻¹) v) of the same class."""
    # κ(h⁻¹) = κ(h) since κ is ±1-valued
    return AssocElement(e.g * h.embed(), kappa(h) * e.v)


def iso_Phi(e: AssocElement) -> LMinusElement:
    """Φ[(g, v)] = ([x(g)], v·φ(x(g))); well defined on classes."""
    x = quotient_to_sphere(e.g)
    return LMinusElement(rp2_point(x), e.v * phi(x))


def iso_Phi_inverse(el: LMinusElement) -> AssocElement:
    """A class representative mapping to el under Φ (canonical section)."""
    x = el.base.rep
    g = su2_from_sphere_point(x)
    lam = complex(np.vdot(phi(x), el.fiber))
    return AssocElement(g, lam)


def natural_lift(g: SU2Element, e: AssocElement) -> AssocElement:
    """l↑_g[(p, v)] = [(g p, v)]: left multiplication, fiber fixed."""
    return AssocElement(g * e.g, e.v)


def lift_tau(g: SU2Element, el: LMinusElement) -> LMinusElement:
    """τ_g = Φ ∘ l↑_g ∘ Φ⁻¹: ([x], λ φ(x)) ↦ ([g·x], λ φ(g·x)).

    The fiber coefficient λ rides along unchanged relative to the
    transported frame; g·x is computed through the class representative.
    """
    rep = iso_Phi_inverse(el)
    return iso_Phi(natural_lift(g, rep))


def iso_Phi_batch(g, v) -> tuple[np.ndarray, np.ndarray]:
    """Φ on rows: (n, 2) group rows and (n,) values ↦ (base reps, fibers).

    Row k holds ``iso_Phi(AssocElement(g_k, v_k))``: its canonical base
    representative (n, 3) and its fiber v_k·φ(x(g_k)) (n, 3, complex).
    """
    x = quotient_to_sphere_batch(g)
    fiber = np.asarray(v, dtype=complex)[:, None] * unit_vector_batch(x).astype(complex)
    return rp2_rep_batch(x), fiber


def lift_tau_batch(g, base, fiber) -> tuple[np.ndarray, np.ndarray]:
    """τ_g on rows (base reps, fibers), composed as ``lift_tau`` composes it."""
    lam = np.vecdot(unit_vector_batch(base).astype(complex), fiber)
    return iso_Phi_batch(su2_product_batch(g, su2_from_sphere_point_batch(base)), lam)


def local_trivialization(alpha: int, el: LMinusElement) -> tuple[RP2Point, complex]:
    """Chart-α trivialization ([x], λ φ(x)) ↦ ([x], sign(x_α) λ)."""
    if alpha not in (1, 2, 3):
        raise ValueError("chart index must be 1, 2 or 3")
    x = el.base.rep
    if abs(x[alpha - 1]) <= CHART_TOL:
        raise PointNotInChart(f"x_{alpha} vanishes for {x}")
    sign = 1.0 if x[alpha - 1] > 0 else -1.0
    return (el.base, sign * el.coefficient())


def projector(x) -> np.ndarray:
    """Rank-1 projector p(x) = |φ(x)⟩⟨φ(x)|; even in x, equivariant."""
    f = phi(x)
    return np.outer(f, f.conj())


def module_iso_forward(
    a: HarmonicCoeffs, grid: QuadratureGrid
) -> tuple[HarmonicCoeffs, ...]:
    """Odd function a ↦ triple f_i = coefficients of x ↦ a(x)·x_i (all even).

    The triple satisfies the pointwise constraint p·f = f, exhibiting the
    odd functions as the projective module cut out by the projector.
    """
    if a.sector != "odd":
        raise ValueError("forward module map expects an odd-sector table")
    top = a.lmax if a.lmax % 2 else a.lmax - 1   # largest populated odd degree
    lout = top + 1
    if lout > grid.lmax_exact:
        raise ValueError("grid not exact enough for the product coefficients")
    c = grid.project(grid.synthesize(a.c) * grid.nodes.T, lout)
    c[:, off_sector_mask(lout, "even")] = 0.0   # odd-degree residue is quadrature noise
    return tuple(HarmonicCoeffs(lout, "even", row) for row in c)


def _component_values(f: tuple[HarmonicCoeffs, ...], grid: QuadratureGrid) -> np.ndarray:
    """Node values of the triple's components: shape (n, 3)."""
    return np.stack([grid.synthesize(fi.c) for fi in f], axis=1)


def _projector_gap(vals: np.ndarray, grid: QuadratureGrid) -> float:
    """Sup-norm of (p·f - f) from the (n, 3) component values at the nodes."""
    proj = grid.nodes * np.sum(vals * grid.nodes, axis=1)[:, None]
    return float(np.max(np.abs(proj - vals)))


def projector_residual(
    f: tuple[HarmonicCoeffs, ...], grid: QuadratureGrid
) -> float:
    """Sup-norm of (p·f - f) over the grid nodes."""
    return _projector_gap(_component_values(f, grid), grid)


def module_iso_inverse(f: tuple[HarmonicCoeffs, ...], grid: QuadratureGrid) -> HarmonicCoeffs:
    """Triple f ↦ odd function a(x) = Σ_i f_i(x)·x_i = ⟨φ(x), f(x)⟩."""
    scale = max(max(fi.norm() for fi in f), 1.0)
    vals = _component_values(f, grid)
    res = _projector_gap(vals, grid)
    if res > PROJECTOR_CONSTRAINT_TOL * scale:
        raise ProjectorConstraintViolated(
            f"p·f - f residual {res:.3e} exceeds {PROJECTOR_CONSTRAINT_TOL:.1e} (scaled)"
        )
    lout = max(fi.lmax for fi in f) + 1
    if lout > grid.lmax_exact:
        raise ValueError("grid not exact enough for the product coefficients")
    c = grid.project(np.sum(vals * grid.nodes, axis=1), lout)
    c[off_sector_mask(lout, "odd")] = 0.0
    return HarmonicCoeffs(lout, "odd", c)
