"""Transported spin frames on S² and the position-dependent spin lift.

A transport frame assigns to each point r of the sphere (minus the south
pole) a unitary U(r) with U(ẑ) = Id; the concrete choice here is geodesic
transport U(r) = exp(-iθ m̂(r)·S), where (θ, m̂) is the rotation of smallest
angle taking ẑ to r.  It is built as D^j of that rotation's SU(2) element by
``harmonics.wigner_d``, the one spin-j rotation primitive, so every
half-integer j is allowed.  Transported spin operators are the conjugates
S_i(r) = U(r) S_i U†(r).

States are coefficient vectors λ in the transported basis
|j, m(r)⟩ = U(r)|j, m⟩.  A rotation g acts by the lift

    (r, λ) ↦ (Spin(g)·r, U(r')† [U(r') D^j(g) U(r)†] U(r) λ),   r' = Spin(g)·r,

i.e. the ambient vector is moved by the frame-sandwiched Wigner matrix and
re-expressed in the frame at the image point.  The bracketed operator is the
transported rotation; differentiating it along g_t = exp(-it σ_i/2) and
removing the pure frame-motion term recovers S_i(r).

Frames, transported spins, states, lifts and recovered generators take one
point or an (..., 3) stack of points (and lifts one ``SU2Element`` or
(..., 2) rows); each stacked matrix equals its single-point call bit for bit.

The fixed-basis (untransported) lift (r, v) ↦ (g·r, D^j(g) v) of a spinor of
sphere functions is included as the trivial-frame case; its generators
decompose by angular-momentum addition as J_i = L_i ⊗ Id + Id ⊗ S_i.
"""

from dataclasses import dataclass

import numpy as np

from .groups import (
    SU2Element,
    _su2_rows,
    spinor_map_batch,
    su2_from_axis_angle,
    su2_from_sphere_point_batch,
    unit_vector_batch,
)
from .harmonics import (
    HarmonicCoeffs,
    angular_momentum_matrices,
    apply_L,
    rotate_stack,
    wigner_d,
)
from .representation import _richardson_derivative

SOUTH_POLE_TOL = 1e-9


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for stacks of matrices (..., d, d) and vectors (..., d)."""
    return (m @ x[..., None])[..., 0]


def _rotate_points(g, r: np.ndarray) -> np.ndarray:
    """Spin(g)·r for an ``SU2Element`` or (..., 2) rows and (..., 3) points."""
    return _apply(spinor_map_batch(_su2_rows(g)), r)


@dataclass(frozen=True)
class TransportFrame:
    """Geodesic transport frame at half-integer spin j; excluded set: the south pole."""

    j: float

    def __post_init__(self):
        object.__setattr__(self, "_spin", angular_momentum_matrices(self.j))

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    def spin_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._spin

    def unitary(self, r) -> np.ndarray:
        """U(r) = D^j(g_r), g_r = exp(-iθ m̂·σ/2) the geodesic rotation ẑ → r.

        ``wigner_d`` of ``su2_from_sphere_point_batch(r)``; this equals
        exp(-iθ m̂·S).  r is one point (a (d, d) result) or an (..., 3) stack
        (a (..., d, d) stack).  A row whose geodesic element is the exact
        identity (1, 0), i.e. every point ``groups`` treats as the north pole,
        gives the identity exactly; any row at the south pole raises.
        """
        v = unit_vector_batch(r)
        if np.any(v[..., 2] <= -1.0 + SOUTH_POLE_TOL):
            raise ValueError("frame is undefined at the south pole")
        g = su2_from_sphere_point_batch(v)
        north = (g[..., 0] == 1.0) & (g[..., 1] == 0.0)
        return np.where(north[..., None, None], np.eye(self.dim), wigner_d(self.j, g))


def transported_spin(i: int, r, frame: TransportFrame) -> np.ndarray:
    """S_i(r) = U(r) S_i U†(r) at a point or an (..., 3) stack of points.

    Isospectral to S_i, with the same su(2) relations.
    """
    if i not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3")
    u = frame.unitary(r)
    return u @ frame.spin_matrices()[i - 1] @ u.conj().mT


@dataclass(frozen=True)
class BRState:
    """Base points (..., 3) plus coefficients (..., d) in the transported basis there."""

    r: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        r = unit_vector_batch(self.r)
        lam = np.asarray(self.lam, dtype=complex)
        if lam.shape[:-1] != r.shape[:-1]:
            raise ValueError("base points and coefficient vectors do not pair up")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "lam", lam)


def br_lift(g, st: BRState, frame: TransportFrame) -> BRState:
    """Move the base by Spin(g), the coefficients by the transported rotation.

    g is an ``SU2Element`` or (..., 2) rows that broadcast against the
    state's points.  The composition keeps all frame factors explicit (no
    algebraic cancellation is assumed); both r and Spin(g)·r must avoid the
    south pole.
    """
    if st.lam.shape[-1:] != (frame.dim,):
        raise ValueError("coefficient vector has wrong dimension")
    r_new = _rotate_points(g, st.r)
    u_old = frame.unitary(st.r)
    u_new = frame.unitary(r_new)
    transported_rotation = u_new @ wigner_d(frame.j, g) @ u_old.conj().mT
    ambient = _apply(u_old, st.lam)
    lam_new = _apply(u_new.conj().mT, _apply(transported_rotation, ambient))
    return BRState(r_new, lam_new)


def scalar_lift(g, st: BRState) -> BRState:
    """The spin-zero lift: base moves by Spin(g), the scalar rides along.

    br_lift at j = 0 reduces to this map exactly (the frame and Wigner
    factors are the 1×1 identity, and the base moves through the same
    ``_rotate_points``), so shared sample points agree bitwise.
    """
    return BRState(_rotate_points(g, st.r), st.lam)


def recover_spin_generator(i: int, r, frame: TransportFrame) -> np.ndarray:
    """Extract S_i(r) from the lift by differentiation, at a point or an (..., 3) stack.

    With g_t = exp(-it σ_i/2) and M(t) = U(g_t·r) D^j(g_t) U(r)†, the product
    rule gives i·M'(0) = i·[d/dt U(g_t·r) U(r)†]₀ + S_i(r); subtracting the
    frame-motion term leaves the transported spin matrix.
    """
    v = unit_vector_batch(r)
    axis = np.eye(3)[i - 1]
    u0d = frame.unitary(v).conj().mT

    def path_full(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return frame.unitary(_rotate_points(g, v)) @ wigner_d(frame.j, g) @ u0d

    def path_frame(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return frame.unitary(_rotate_points(g, v)) @ u0d

    total = 1j * _richardson_derivative(path_full)
    base = 1j * _richardson_derivative(path_frame)
    return total - base


@dataclass(frozen=True)
class SpinorField:
    """Fixed-basis spin-j wave function: one sphere function per m value."""

    j: float
    components: tuple[HarmonicCoeffs, ...]

    def __post_init__(self):
        if len(self.components) != int(round(2 * self.j)) + 1:
            raise ValueError("need 2j + 1 component tables")
        if len({c.lmax for c in self.components}) != 1:
            raise ValueError("components must share lmax")

    def stack(self) -> np.ndarray:
        return np.stack([c.c for c in self.components])


def fixed_basis_lift(g: SU2Element, field: SpinorField) -> SpinorField:
    """Untransported lift: rotate the base, mix components by constant D^j(g).

    All components rotate in one ``rotate_stack`` call on coefficients.
    """
    mixed = wigner_d(field.j, g) @ rotate_stack(g, field.stack())
    lmax = field.components[0].lmax
    return SpinorField(field.j, tuple(HarmonicCoeffs(lmax, "full", c) for c in mixed))


def total_generator_fd(i: int, field: SpinorField) -> np.ndarray:
    """J_i by finite differences of the fixed-basis lift, stacked layout."""
    axis = np.eye(3)[i - 1]

    def apply_at(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return fixed_basis_lift(g, field).stack().ravel()

    shape = field.stack().shape
    return 1j * _richardson_derivative(apply_at).reshape(shape)


def total_generator_exact(i: int, field: SpinorField) -> np.ndarray:
    """L_i ⊗ Id + Id ⊗ S_i on the stacked layout (angular-momentum addition)."""
    spin = angular_momentum_matrices(field.j)[i - 1]
    orbital = np.stack([apply_L(i, c).c for c in field.components])
    return orbital + np.einsum("mn,nk->mk", spin, field.stack())
