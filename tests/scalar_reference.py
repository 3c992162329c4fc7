"""Frozen one-object forms of the group, manifold, bundle and classical maps.

rp2quant gives each operation one name that takes one element or point, or
a stack of them, and writes an SU(2) element as a (2,) row (z0, z1).  The
forms below are the earlier one-object API: scalar bodies on ``SU2Element``,
``HElement``, ``RP2Point`` and small dataclasses, and the module maps on
tuples of ``HarmonicCoeffs``, kept verbatim.  ``SU2Element`` here is the
retired scalar object (its own normalization, product, matrix, inverse and
negation); it subclasses the library's, so every library name takes it as
one element.  ``HElement``, ``h_membership``, ``RP2Point``, ``rp2_point`` and
``quotient_to_rp2`` left the library with it, and ``_random_axis`` is the
harness's former one-axis draw, and ``richardson_offsets`` the offsets
t = h, -h, h/2, -h/2 that per-offset generator references loop over, read
from ``representation.FD_STEP`` at call time.  ``symmetrized_power_d`` is
the harness's Wigner oracle as it was on one (2,) row, in numpy scalars.
The reference loops of ``test_batch_checks`` and the bitwise tables of the
library tests compare the library against them.  Where a form below calls
a library name, it wrapped that stacked form already.
"""

import math
from dataclasses import dataclass

import numpy as np

from rp2quant import bundles, classical, groups, manifold, representation
from rp2quant.errors import PointNotInChart, ProjectorConstraintViolated
from rp2quant.bundles import PROJECTOR_CONSTRAINT_TOL, phi
from rp2quant.classical import homomorphism_defect, w_matrix
from rp2quant.groups import (
    H_CLASSIFY_TOL,
    UNIT_TOL,
    ZERO_TOL,
    _axis_angle_pair,
    _image_of_e3,
    _norm,
    _product,
    _rodrigues_rows,
    _scan_flip,
    _spin_rows,
)
from rp2quant.harmonics import HarmonicCoeffs, off_sector_mask
from rp2quant.manifold import CHART_TOL, QuadratureGrid, WFunctional, check_symmetric_traceless

FIBER_TOL = 1e-10


# ----------------------------------------------------------------- groups

def _unit_pair(a, b, r0, i0, r1, i1):
    """(|z0|² + |z1|², and the pair scaled to unit norm) from the moduli a, b.

    a = |z0| and b = |z1| are hypot values: abs() of a complex scalar, or
    np.hypot of the components, which rounds the same way.
    """
    n = a * a + b * b
    s = 1.0 / np.sqrt(n)
    return n, r0 * s, i0 * s, r1 * s, i1 * s


@dataclass(frozen=True)
class SU2Element(groups.SU2Element):
    """Unit pair (z0, z1); normalized on construction."""

    def __post_init__(self):
        z0, z1 = complex(self.z0), complex(self.z1)
        n, r0, i0, r1, i1 = _unit_pair(abs(z0), abs(z1), z0.real, z0.imag, z1.real, z1.imag)
        if not abs(n - 1.0) <= UNIT_TOL:
            raise ValueError(f"(z0, z1) norm {n} departs from 1 beyond {UNIT_TOL}")
        object.__setattr__(self, "z0", complex(r0, i0))
        object.__setattr__(self, "z1", complex(r1, i1))

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.z0, np.conj(self.z1)], [-self.z1, np.conj(self.z0)]],
            dtype=complex,
        )

    def inverse(self) -> "SU2Element":
        return SU2Element(self.z0.conjugate(), -self.z1)

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        a, b, c, d = self.z0, self.z1, other.z0, other.z1
        p = _product(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
        return SU2Element(complex(p[0], p[1]), complex(p[2], p[3]))

    def __neg__(self) -> "SU2Element":
        return SU2Element(-self.z0, -self.z1)


SU2_IDENTITY = SU2Element(1.0, 0.0)


def random_su2(rng: np.random.Generator) -> SU2Element:
    """Haar-uniform SU(2) element via a random unit 4-vector."""
    v = rng.normal(size=4)
    v = v / _norm(v)[..., None]
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))


def _random_axis(rng) -> np.ndarray:
    """One random unit axis, as the harness checks drew it a sample at a time."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def richardson_offsets() -> tuple[float, float, float, float]:
    h = representation.FD_STEP
    return (h, -h, h / 2.0, -h / 2.0)


def su2_matrix(g) -> np.ndarray:
    """The defining matrix [[z0, conj(z1)], [-z1, conj(z0)]] of a row or an element."""
    z0, z1 = as_row(g)
    return np.array([[z0, np.conj(z1)], [-z1, np.conj(z0)]], dtype=complex)


@dataclass(frozen=True)
class HElement:
    """Element of the stabilizer subgroup H, tagged by its component."""

    kind: str        # "diagonal" | "antidiagonal"
    lam: complex     # unimodular parameter

    def __post_init__(self):
        if self.kind not in ("diagonal", "antidiagonal"):
            raise ValueError(f"unknown H component {self.kind!r}")
        lam = complex(self.lam)
        a = np.hypot(lam.real, lam.imag)
        if not abs(a - 1.0) <= UNIT_TOL:
            raise ValueError("lambda must be unimodular")
        object.__setattr__(self, "lam", complex(lam.real / a, lam.imag / a))

    def embed(self) -> SU2Element:
        """The SU(2) element this H element embeds as."""
        if self.kind == "diagonal":
            return SU2Element(self.lam, 0.0)
        return SU2Element(0.0, self.lam)


def h_membership(g: SU2Element) -> HElement | None:
    """Classify g as diagonal/antidiagonal H element, or None if outside H."""
    if abs(g.z1) <= H_CLASSIFY_TOL:
        return HElement("diagonal", g.z0)
    if abs(g.z0) <= H_CLASSIFY_TOL:
        return HElement("antidiagonal", g.z1)
    return None


def su2_from_axis_angle(psi: float, n_hat) -> SU2Element:
    """u(ψ, n̂) = cos(ψ/2)·Id - i·sin(ψ/2)·(n̂·σ) as a tuple (z0, z1)."""
    n = np.asarray(n_hat, dtype=float)
    if not abs(_norm(n) - 1.0) <= UNIT_TOL:
        raise ValueError("axis must be a unit vector")
    r0, i0, r1, i1 = _axis_angle_pair(psi, n[0], n[1], n[2])
    return SU2Element(complex(r0, i0), complex(r1, i1))


def spinor_map(g: SU2Element) -> np.ndarray:
    """The 2:1 homomorphism SU(2) → SO(3), from the closed-form rows."""
    return np.array(_spin_rows(g.z0.real, g.z0.imag, g.z1.real, g.z1.imag))


def rotation_from_axis_angle(psi: float, n_hat) -> np.ndarray:
    """Rodrigues form R(ψ, n̂) = Id + sin(ψ)·N + (1 - cos(ψ))·N²."""
    n = np.asarray(n_hat, dtype=float)
    if not abs(_norm(n) - 1.0) <= UNIT_TOL:
        raise ValueError("axis must be a unit vector")
    return np.array(_rodrigues_rows(psi, n[0], n[1], n[2]))


def unit_vector(x) -> np.ndarray:
    """Validate and renormalize a unit 3-vector (tolerance 1e-9).

    Vectors already unit to 1e-14 are passed through unchanged, which keeps
    canonicalization bitwise idempotent.
    """
    v = np.asarray(x, dtype=float)
    n = _norm(v)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ValueError(f"|x| = {n} departs from 1 beyond {UNIT_TOL}")
    if abs(n - 1.0) > 1e-14:
        return v / n
    return v.copy()


def canonical_sign(x) -> float:
    """Sign flip making the last nonzero coordinate of (x₃, x₂, x₁) positive."""
    x1, x2, x3 = np.asarray(x, dtype=float).tolist()
    return -1.0 if _scan_flip(x1, x2, x3) else 1.0


def rp2_rep(x) -> np.ndarray:
    """The canonical representative as the ``RP2Point`` constructor built it."""
    # adding 0.0 maps any -0.0 entries to +0.0 so byte-level hashing agrees
    return unit_vector(x) * canonical_sign(x) + 0.0


def quotient_to_sphere(g: SU2Element) -> np.ndarray:
    """x(g) = Spin(g)·e₃, the S² point of the class g·U(1)."""
    return np.array(_image_of_e3(g.z0.real, g.z0.imag, g.z1.real, g.z1.imag))


def su2_from_sphere_point(x) -> SU2Element:
    """A section of SU(2) → S²: the geodesic rotation taking e₃ to x.

    Deterministic choice used when a concrete class representative is needed;
    at the south pole the π-rotation about e₁ is returned.
    """
    v = unit_vector(x)
    if v[2] <= -1.0 + ZERO_TOL:
        return su2_from_axis_angle(np.pi, (1.0, 0.0, 0.0))
    s = _norm(np.array([-v[1], v[0], 0.0]))
    if s < ZERO_TOL:
        return SU2_IDENTITY
    x, y, z = v.tolist()
    r0, i0, r1, i1 = _axis_angle_pair(np.arctan2(s, z), -y / s, x / s, 0.0 / s)
    return SU2Element(complex(r0, i0), complex(r1, i1))


@dataclass(frozen=True)
class RP2Point:
    """Point of ℝP² stored through its canonical unit representative."""

    rep: np.ndarray

    def __post_init__(self):
        v = groups.rp2_rep(self.rep)   # no -0.0 entries, so byte-level hashing agrees
        if v.shape != (3,):
            raise ValueError("an RP2Point is one 3-vector")
        v.flags.writeable = False
        object.__setattr__(self, "rep", v)

    def __eq__(self, other) -> bool:
        return isinstance(other, RP2Point) and np.array_equal(self.rep, other.rep)

    def __hash__(self):
        return hash(self.rep.tobytes())


def rp2_point(x) -> RP2Point:
    """Class [x] of a unit 3-vector (antipodal points identify)."""
    return RP2Point(np.asarray(x, dtype=float))


def quotient_to_rp2(g: SU2Element) -> RP2Point:
    """[x(g)], the ℝP² point of the class g·H."""
    return rp2_point(groups.quotient_to_sphere(g))


# --------------------------------------------------------------- manifold

def chart_coords(p: RP2Point, alpha: int) -> tuple[float, float]:
    """Affine coordinates (x_i/x_α, x_j/x_α), i < j the non-chart indices."""
    c = manifold.chart_coords(p.rep, alpha)
    return (c[0], c[1])


def _transition_sign(xa, xb):
    """sign(x_α x_β) as ±1, for floats or arrays (both coordinates nonzero)."""
    return (xa * xb > 0.0) * 2 - 1


def transition_function(alpha: int, beta: int, p: RP2Point) -> int:
    """g_αβ([x]) = sign(x_α x_β) ∈ {+1, -1}; representative-independent."""
    x = p.rep.tolist()
    for idx in (alpha, beta):
        if idx not in (1, 2, 3):
            raise ValueError("chart index must be 1, 2 or 3")
        if abs(x[idx - 1]) <= CHART_TOL:
            raise PointNotInChart(f"x_{idx} vanishes for {p.rep}")
    return _transition_sign(x[alpha - 1], x[beta - 1])


def f_embedding(p: RP2Point) -> np.ndarray:
    """The 4-vector (yz, xz, xy, y² - z²) of even quadratics at [x:y:z]."""
    return manifold.f_embedding(p.rep)


def _moment(v):
    """v vᵀ - Id/3 for one unit vector or along the last axis of a stack."""
    return v[..., :, None] * v[..., None, :] - np.eye(3) / 3.0


def moment_embedding(x) -> np.ndarray:
    """M(x) = x xᵀ - Id/3, a symmetric traceless matrix; M(-x) = M(x)."""
    return _moment(unit_vector(x))


# ---------------------------------------------------------------- bundles

def kappa(h: HElement) -> int:
    """The nontrivial character of H: +1 on diagonal, -1 on antidiagonal."""
    return 1 if h.kind == "diagonal" else -1


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


def local_trivialization(alpha: int, el: LMinusElement) -> tuple[RP2Point, complex]:
    """Chart-α trivialization ([x], λ φ(x)) ↦ ([x], sign(x_α) λ)."""
    return (el.base, complex(bundles.local_trivialization(alpha, el.base.rep, el.fiber)))


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


# -------------------------------------------------------------- classical

@dataclass(frozen=True)
class PhasePoint:
    """Point (u, ψ) of W × W*; u need not lie on the projective orbit."""

    u: np.ndarray
    psi: WFunctional

    def __post_init__(self):
        object.__setattr__(self, "u", check_symmetric_traceless(self.u))
        if self.psi.c0 != 0.0:
            raise ValueError("momentum functional must have zero offset")


@dataclass(frozen=True)
class SemidirectLieElement:
    """Pair (φ, A): functional part plus rotation generator."""

    phi_w: WFunctional
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))


def P_observable(e: SemidirectLieElement, pt: PhasePoint) -> float:
    """P(Ã)(u, ψ) = ψ([Â, u]) + φ(u), trace pairings throughout."""
    return float(classical.P_observable(e.phi_w.c, e.A, pt.u, pt.psi.c, e.phi_w.c0))


def lie_bracket(
    e1: SemidirectLieElement, e2: SemidirectLieElement
) -> SemidirectLieElement:
    """[(φ₁, A₁), (φ₂, A₂)] = (φ₁∘R(A₂) - φ₂∘R(A₁), A₁ × A₂)."""
    c, a = classical.lie_bracket(e1.phi_w.c, e1.A, e2.phi_w.c, e2.A)
    return SemidirectLieElement(WFunctional(c, 0.0), a)


def poisson_bracket(
    e1: SemidirectLieElement, e2: SemidirectLieElement, pt: PhasePoint
) -> float:
    """Canonical bracket {P(e₁), P(e₂)} at pt, in closed form."""
    return float(classical.poisson_bracket(e1.phi_w.c, e1.A, e2.phi_w.c, e2.A, pt.u, pt.psi.c))


def poisson_bracket_fd(
    e1: SemidirectLieElement,
    e2: SemidirectLieElement,
    pt: PhasePoint,
) -> float:
    """Finite-difference bracket at pt (see ``classical.poisson_bracket_fd``)."""
    return float(classical.poisson_bracket_fd(e1.phi_w.c, e1.A, e2.phi_w.c, e2.A, pt.u, pt.psi.c))


def check_homomorphism(
    e1: SemidirectLieElement | list[SemidirectLieElement],
    e2: SemidirectLieElement | list[SemidirectLieElement],
    sample_points: list[PhasePoint],
) -> float:
    """max |{P(e₁), P(e₂)}(pt) - P([e₁, e₂])(pt)| over the samples.

    ``e1`` and ``e2`` are one element each or equally long lists of paired
    elements; the maximum then runs over every pair and every sample.
    Identical pointwise, up to rounding, to
    poisson_bracket(e1, e2, pt) - P_observable(lie_bracket(e1, e2), pt).
    """
    pairs = [(e1, e2)] if isinstance(e1, SemidirectLieElement) else list(zip(e1, e2))
    return homomorphism_defect(
        np.stack([p.phi_w.c for p, _ in pairs]), np.stack([p.A for p, _ in pairs]),
        np.stack([q.phi_w.c for _, q in pairs]), np.stack([q.A for _, q in pairs]),
        np.stack([pt.u for pt in sample_points]),
        np.stack([pt.psi.c for pt in sample_points]),
    )


def random_element(rng: np.random.Generator) -> SemidirectLieElement:
    c = w_matrix(rng.normal(size=5))
    return SemidirectLieElement(WFunctional(c, 0.0), rng.normal(size=3))


def random_phase_point(rng: np.random.Generator) -> PhasePoint:
    return PhasePoint(
        w_matrix(rng.normal(size=5)), WFunctional(w_matrix(rng.normal(size=5)), 0.0)
    )


# -------------------------------------------------------------- harmonics

def symmetrized_power_d(j: float, g) -> np.ndarray:
    """The 2j-fold symmetrized power of the matrix of one (2,) row g (m = +j ... -j)."""
    n = round(2 * j)
    z0, z1 = g
    a, b, c, d = z0, z1.conjugate(), -z1, z0.conjugate()
    f = [math.factorial(k) for k in range(n + 1)]
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for p, q in np.ndindex(n + 1, n + 1):           # row m' = j - p, column m = j - q
        out[p, q] = math.sqrt(f[n - p] * f[p] / (f[n - q] * f[q])) * sum(
            math.comb(n - q, k) * math.comb(q, p - k)
            * a ** (n - q - k) * c**k * b ** (q - p + k) * d ** (p - k)
            for k in range(max(0, p - q), min(n - q, p) + 1)
        )
    return out


# ---------------------------------------------------------- bitwise tables

def as_row(g):
    """(z0, z1) of an ``SU2Element`` as a (2,) array; any other argument as given."""
    return np.array([g.z0, g.z1]) if isinstance(g, groups.SU2Element) else g


def stack_args(singles):
    """The arguments of many single calls stacked position by position (elements as rows)."""
    return [np.stack([np.asarray(as_row(a)) for a in column]) for column in zip(*singles)]


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes; tuples compare entry by entry."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_single_and_stack(fn, reference, singles) -> None:
    """fn on each single input, and row k of fn on their stack, equal the reference bit for bit.

    A single ``SU2Element`` argument is also passed as its (2,) row.
    """
    out = fn(*stack_args(singles))
    for k, args in enumerate(singles):
        want = reference(*args)
        assert same_bits(fn(*args), want), args
        assert same_bits(fn(*map(as_row, args)), want), args
        row = tuple(o[k] for o in out) if isinstance(out, tuple) else out[k]
        assert same_bits(row, want), (k, args)


def raised(fn, *args):
    """The class of the ValueError (or subclass) fn(*args) raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc)
    return None


def check_raise_alike(fn, good, bad) -> None:
    """One bad input raises, and a stack holding it raises the same class."""
    single = raised(fn, *bad)
    assert single is not None
    assert raised(fn, *stack_args([good, bad, good])) is single
