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

Both presentations are carried as arrays, one point or a stack: a
representative (g, v) as (z0, z1) rows and fiber values, a point of the
sub-bundle as its canonical base representative and fiber vector.  The
module maps carry odd tables (..., n) to even triples (..., 3, n′) and
back, through one transform for the whole stack on the grid its band fixes.
"""

import numpy as np

from .errors import PointNotInChart, ProjectorConstraintViolated
from .groups import (
    H_CLASSIFY_TOL,
    _su2_rows,
    quotient_to_sphere,
    rp2_rep,
    su2_from_sphere_point,
    su2_product,
    unit_vector,
)
from ._kernels import _table_band
from .harmonics import _row_norms, _sector_checked, off_sector_mask
from .manifold import CHART_TOL, QuadratureGrid

PROJECTOR_CONSTRAINT_TOL = 1e-8   # p·f - f accepted by module_iso_inverse, relative


def _module_grid_order(lmax: int) -> int:
    """Grid order both module maps use at band lmax: top + 2, top the largest odd degree.

    ``module_iso_inverse`` projects onto degree top + 2; a table and its triple give one order.
    """
    return lmax + 1 + lmax % 2


def kappa(g) -> np.ndarray:
    """The nontrivial character κ of H at an element or at each row of a stack.

    +1 where |z1| ≤ H_CLASSIFY_TOL (diagonal), else -1 where |z0| ≤
    H_CLASSIFY_TOL (antidiagonal), and 0 for an element outside H.
    """
    g = _su2_rows(g)
    return np.where(np.abs(g[..., 1]) <= H_CLASSIFY_TOL, 1,
                    np.where(np.abs(g[..., 0]) <= H_CLASSIFY_TOL, -1, 0))


def phi(x) -> np.ndarray:
    """Frame map φ(x) = (x₁, x₂, x₃) as a complex 3-vector; φ(-x) = -φ(x).

    An (..., 3) stack gives one frame vector per row.
    """
    return unit_vector(x).astype(complex)


def iso_Phi(g, v) -> tuple[np.ndarray, np.ndarray]:
    """Φ[(g, v)] = ([x(g)], v·φ(x(g))); well defined on classes.

    Takes an element g (or (..., 2) rows) and fiber values v; returns the
    canonical base representative (..., 3) and the fiber (..., 3, complex).
    """
    x = quotient_to_sphere(g)
    fiber = np.asarray(v, dtype=complex)[..., None] * phi(x)
    return rp2_rep(x), fiber


def iso_Phi_inverse(base, fiber) -> tuple[np.ndarray, np.ndarray]:
    """A class representative (g, v) mapping to (base, fiber) under Φ.

    g is the canonical section ``su2_from_sphere_point(base)`` as (z0, z1)
    rows and v = ⟨φ(base), fiber⟩; stacks give one pair per row.
    """
    return su2_from_sphere_point(base), np.vecdot(phi(base), fiber)


def lift_tau(g, base, fiber) -> tuple[np.ndarray, np.ndarray]:
    """τ_g = Φ ∘ l↑_g ∘ Φ⁻¹: ([x], λ φ(x)) ↦ ([g·x], λ φ(g·x)).

    l↑_g[(p, v)] = [(g p, v)] is the natural left lift.  The fiber
    coefficient λ rides along unchanged relative to the transported frame;
    g·x is computed through the class representative.
    """
    h, lam = iso_Phi_inverse(base, fiber)
    return iso_Phi(su2_product(g, h), lam)


def local_trivialization(alpha: int, base, fiber) -> np.ndarray:
    """Chart-α fiber coordinate sign(x_α)·λ of ([x], λ φ(x)), λ = ⟨φ(x), fiber⟩.

    A point gives one complex value, (..., 3) stacks one per row.  A point
    with |x_α| ≤ CHART_TOL raises PointNotInChart.
    """
    if alpha not in (1, 2, 3):
        raise ValueError("chart index must be 1, 2 or 3")
    x = np.asarray(base, dtype=float)
    xa = x[..., alpha - 1]
    if np.any(np.abs(xa) <= CHART_TOL):
        raise PointNotInChart(f"x_{alpha} vanishes for {x[np.abs(xa) <= CHART_TOL][0]}")
    return np.where(xa > 0, 1.0, -1.0) * np.vecdot(phi(x), fiber)


def projector(x) -> np.ndarray:
    """Rank-1 projector p(x) = |φ(x)⟩⟨φ(x)|; even in x, equivariant.

    An (..., 3) stack gives an (..., 3, 3) stack of projectors.
    """
    f = phi(x)
    return f[..., :, None] * f.conj()[..., None, :]


def module_iso_forward(c) -> np.ndarray:
    """Odd tables (..., n) ↦ triples (..., 3, n′): coefficients of x ↦ a(x)·x_i.

    Each component is even, and the triple satisfies the pointwise
    constraint p·f = f, exhibiting the odd functions as the projective
    module cut out by the projector.  Content off the odd sector raises
    ValueError.
    """
    c, lmax = _table_band(c)
    c = _sector_checked(c, lmax, "odd")
    grid = QuadratureGrid(_module_grid_order(lmax))
    top = lmax if lmax % 2 else lmax - 1    # largest populated odd degree
    lout = top + 1
    f = grid.project(grid.synthesize(c)[..., None, :] * grid.nodes.T, lout)
    f[..., off_sector_mask(lout, "even")] = 0.0   # odd-degree residue is quadrature noise
    return f


def _projector_gap(vals: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Sup-norm of (p·f - f) per triple, from component values (..., 3, N) at the nodes."""
    x = grid.nodes.T
    proj = x * np.sum(vals * x, axis=-2, keepdims=True)
    return np.max(np.abs(proj - vals), axis=(-2, -1))


def projector_residual(f) -> np.ndarray:
    """Sup-norm of (p·f - f) over the module grid's nodes, one per triple of (..., 3, n′)."""
    grid = QuadratureGrid(_module_grid_order(_table_band(f)[1]))
    return _projector_gap(grid.synthesize(f), grid)


def module_iso_inverse(f) -> np.ndarray:
    """Triples (..., 3, n′) ↦ odd tables a(x) = Σ_i f_i(x)·x_i = ⟨φ(x), f(x)⟩.

    A triple off the module, with p·f - f above PROJECTOR_CONSTRAINT_TOL
    times max(1, its largest component norm), raises
    ProjectorConstraintViolated.
    """
    f, lmax = _table_band(f)
    grid = QuadratureGrid(_module_grid_order(lmax))
    vals = grid.synthesize(f)
    res = _projector_gap(vals, grid)
    scale = np.maximum(np.max(_row_norms(f), axis=-1), 1.0)
    if not np.all(res <= PROJECTOR_CONSTRAINT_TOL * scale):     # NaN fails too
        raise ProjectorConstraintViolated(
            f"p·f - f residual {np.max(res):.3e} exceeds {PROJECTOR_CONSTRAINT_TOL:.1e} (scaled)"
        )
    lout = lmax + 1
    c = grid.project(np.sum(vals * grid.nodes.T, axis=-2), lout)
    c[..., off_sector_mask(lout, "odd")] = 0.0
    return c
