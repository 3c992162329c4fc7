"""Transported spin frames on S² and the position-dependent spin lift.

A transport frame assigns to each point r of the sphere (minus the south
pole) a unitary U(r) with U(ẑ) = Id; the concrete choice here is geodesic
transport U(r) = exp(-iθ m̂(r)·S), where (θ, m̂) is the rotation of smallest
angle taking ẑ to r.  Transported spin operators are the conjugates
S_i(r) = U(r) S_i U†(r).

States are coefficient vectors λ in the transported basis
|j, m(r)⟩ = U(r)|j, m⟩.  A rotation g acts by the lift

    (r, λ) ↦ (Spin(g)·r, U(r')† [U(r') D^j(g) U(r)†] U(r) λ),   r' = Spin(g)·r,

i.e. the ambient vector is moved by the frame-sandwiched Wigner matrix and
re-expressed in the frame at the image point.  The bracketed operator is the
transported rotation; differentiating it along g_t = exp(-it σ_i/2) and
removing the pure frame-motion term recovers S_i(r).

The fixed-basis (untransported) lift (r, v) ↦ (g·r, D^j(g) v) of a spinor of
sphere functions is included as the trivial-frame case; its generators
decompose by angular-momentum addition as J_i = L_i ⊗ Id + Id ⊗ S_i.
"""

from dataclasses import dataclass

import numpy as np

from .groups import SU2Element, spinor_map, su2_from_axis_angle, unit_vector
from .harmonics import (
    HarmonicCoeffs,
    angular_momentum_matrices,
    apply_L,
    rotate_stack,
    wigner_d,
)
from .manifold import QuadratureGrid
from .representation import _richardson_derivative, _validate_step

SOUTH_POLE_TOL = 1e-9


@dataclass(frozen=True)
class TransportFrame:
    """Geodesic transport frame at spin j; excluded set: the south pole."""

    j: float

    def __post_init__(self):
        twoj = int(round(2 * self.j))
        if abs(2 * self.j - twoj) > 1e-12 or not 0 <= twoj <= 4:
            raise ValueError("2j must lie in {0, 1, 2, 3, 4}")
        s1, s2, s3 = angular_momentum_matrices(self.j)
        object.__setattr__(self, "_spin", (s1, s2, s3))

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    def spin_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._spin

    def unitary(self, r) -> np.ndarray:
        """U(r) = exp(-iθ m̂·S) with (θ, m̂) the geodesic rotation ẑ → r."""
        v = unit_vector(r)
        if v[2] <= -1.0 + SOUTH_POLE_TOL:
            raise ValueError("frame is undefined at the south pole")
        axis = np.array([-v[1], v[0], 0.0])
        s = np.linalg.norm(axis)
        if s < 1e-15:
            return np.eye(self.dim, dtype=complex)
        theta = np.arctan2(s, v[2])
        s1, s2, s3 = self._spin
        m_hat = axis / s
        h = theta * (m_hat[0] * s1 + m_hat[1] * s2 + m_hat[2] * s3)
        evals, evecs = np.linalg.eigh(h)
        return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def default_transport(j: float) -> TransportFrame:
    return TransportFrame(j)


def transported_spin(i: int, r, frame: TransportFrame) -> np.ndarray:
    """S_i(r) = U(r) S_i U†(r); isospectral to S_i, same su(2) relations."""
    if i not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3")
    u = frame.unitary(r)
    return u @ frame.spin_matrices()[i - 1] @ u.conj().T


@dataclass(frozen=True)
class BRState:
    """Base point plus coefficients in the transported basis at that point."""

    r: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", unit_vector(self.r))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=complex))


def br_lift(g: SU2Element, st: BRState, frame: TransportFrame) -> BRState:
    """Move the base by Spin(g), the coefficients by the transported rotation.

    The composition keeps all frame factors explicit (no algebraic
    cancellation is assumed); both r and Spin(g)·r must avoid the south pole.
    """
    if st.lam.shape != (frame.dim,):
        raise ValueError("coefficient vector has wrong dimension")
    r_new = spinor_map(g) @ st.r
    u_old = frame.unitary(st.r)
    u_new = frame.unitary(r_new)
    transported_rotation = u_new @ wigner_d(frame.j, g) @ u_old.conj().T
    ambient = u_old @ st.lam
    lam_new = u_new.conj().T @ (transported_rotation @ ambient)
    return BRState(r_new, lam_new)


def scalar_lift(g: SU2Element, st: BRState) -> BRState:
    """The spin-zero lift: base moves by Spin(g), the scalar rides along.

    br_lift at j = 0 reduces to this map exactly (the frame and Wigner
    factors are the 1×1 identity), so shared sample points agree bitwise.
    """
    return BRState(spinor_map(g) @ st.r, st.lam)


def recover_spin_generator(
    i: int, r, frame: TransportFrame, h_step: float = 1e-3
) -> np.ndarray:
    """Extract S_i(r) from the lift by differentiation.

    With g_t = exp(-it σ_i/2) and M(t) = U(g_t·r) D^j(g_t) U(r)†, the product
    rule gives i·M'(0) = i·[d/dt U(g_t·r) U(r)†]₀ + S_i(r); subtracting the
    frame-motion term leaves the transported spin matrix.
    """
    _validate_step(h_step)
    v = unit_vector(r)
    axis = np.eye(3)[i - 1]
    u0d = frame.unitary(v).conj().T
    dim = frame.dim

    def path_full(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return (frame.unitary(spinor_map(g) @ v) @ wigner_d(frame.j, g) @ u0d).ravel()

    def path_frame(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return (frame.unitary(spinor_map(g) @ v) @ u0d).ravel()

    total = 1j * _richardson_derivative(path_full, h_step).reshape(dim, dim)
    base = 1j * _richardson_derivative(path_frame, h_step).reshape(dim, dim)
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


def fixed_basis_lift(
    g: SU2Element, field: SpinorField, grid: QuadratureGrid
) -> SpinorField:
    """Untransported lift: rotate the base, mix components by constant D^j(g).

    All components rotate in one ``rotate_stack`` call on coefficients, so
    ``grid`` is not used.
    """
    mixed = wigner_d(field.j, g) @ rotate_stack(g, field.stack())
    lmax = field.components[0].lmax
    return SpinorField(field.j, tuple(HarmonicCoeffs(lmax, "full", c) for c in mixed))


def total_generator_fd(
    i: int, field: SpinorField, grid: QuadratureGrid, h_step: float = 1e-3
) -> np.ndarray:
    """J_i by finite differences of the fixed-basis lift, stacked layout."""
    _validate_step(h_step)
    axis = np.eye(3)[i - 1]

    def apply_at(t: float) -> np.ndarray:
        g = su2_from_axis_angle(t, axis)
        return fixed_basis_lift(g, field, grid).stack().ravel()

    shape = field.stack().shape
    return 1j * _richardson_derivative(apply_at, h_step).reshape(shape)


def total_generator_exact(i: int, field: SpinorField) -> np.ndarray:
    """L_i ⊗ Id + Id ⊗ S_i on the stacked layout (angular-momentum addition)."""
    spin = angular_momentum_matrices(field.j)[i - 1]
    orbital = np.stack([apply_L(i, c).c for c in field.components])
    return orbital + np.einsum("mn,nk->mk", spin, field.stack())
