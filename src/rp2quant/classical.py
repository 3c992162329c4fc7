"""Classical side: the observable map P on T*W and its bracket homomorphism.

The phase space is T*W ≅ W × W* with W the symmetric traceless 3×3 matrices.
A semidirect Lie-algebra element à = (φ, A) pairs a functional φ ∈ W* with a
rotation generator A ∈ ℝ³ acting infinitesimally by R(A)u = [Â, u], Â the
skew matrix of A.  The observable map is

    P(Ã)(u, ψ) = ψ([Â, u]) + φ(u),

and with the canonical bracket normalized by {u_i, ψ_j} = δ_ij (configuration
u, momentum ψ) one computes in closed form

    {P(e₁), P(e₂)}(u, ψ) = ψ([[Â₁, Â₂], u]) + φ₁([Â₂, u]) - φ₂([Â₁, u]),

which is again P of the semidirect bracket

    [(φ₁, A₁), (φ₂, A₂)] = (φ₁∘R(A₂) - φ₂∘R(A₁), A₁ × A₂).

This sign convention is the unique one of the two candidates under which the
bracket homomorphism holds with {q, p} = +1; the identity holding without any
central correction is the no-obstruction statement verified here.
"""

from dataclasses import dataclass

import numpy as np

from .groups import skew_matrix
from .manifold import WFunctional, check_symmetric_traceless

BRACKET_FD_STEP = 1e-5   # central-difference step of poisson_bracket_fd

_SQ2 = np.sqrt(2.0)
_SQ6 = np.sqrt(6.0)

# orthonormal basis of W under <X, Y> = tr(XY)
W_BASIS = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
    ],
    dtype=float,
)
W_BASIS[0:3] /= _SQ2
W_BASIS[3] /= _SQ2
W_BASIS[4] /= _SQ6
W_BASIS.flags.writeable = False


def w_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric traceless matrix in the orthonormal basis."""
    return np.einsum("kij,ji->k", W_BASIS, m)


def w_matrix(coords: np.ndarray) -> np.ndarray:
    """Σ_k coords[k]·W_BASIS[k]; an (..., 5) array gives an (..., 3, 3) stack."""
    return np.einsum("...k,kij->...ij", coords, W_BASIS)


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


def infinitesimal_action(A, u: np.ndarray) -> np.ndarray:
    """R(A)u = [Â, u], the derivative of R·u·Rᵀ along the rotation A."""
    ahat = skew_matrix(A)
    return ahat @ u - u @ ahat


def P_observable(e: SemidirectLieElement, pt: PhasePoint) -> float:
    """P(Ã)(u, ψ) = ψ([Â, u]) + φ(u), trace pairings throughout."""
    moved = infinitesimal_action(e.A, pt.u)
    return float(np.trace(pt.psi.c @ moved) + np.trace(e.phi_w.c @ pt.u) + e.phi_w.c0)


def _commutator(x, y):
    """[X, Y] = XY - YX; stacks of matrices broadcast."""
    return x @ y - y @ x


def _bracket(c1, a1, c2, a2):
    """(c, A) of [(φ₁, A₁), (φ₂, A₂)]; single pairs or stacks of pairs."""
    # coefficient matrix of u ↦ tr(c [Â, u]) is [c, Â]
    c = _commutator(c1, skew_matrix(a2)) - _commutator(c2, skew_matrix(a1))
    return c, np.cross(a1, a2)


def lie_bracket(
    e1: SemidirectLieElement, e2: SemidirectLieElement
) -> SemidirectLieElement:
    """[(φ₁, A₁), (φ₂, A₂)] = (φ₁∘R(A₂) - φ₂∘R(A₁), A₁ × A₂)."""
    c, a = _bracket(e1.phi_w.c, e1.A, e2.phi_w.c, e2.A)
    return SemidirectLieElement(WFunctional(c, 0.0), a)


def poisson_bracket(
    e1: SemidirectLieElement, e2: SemidirectLieElement, pt: PhasePoint
) -> float:
    """Canonical bracket {P(e₁), P(e₂)} at pt, in closed form."""
    a1h, a2h = skew_matrix(e1.A), skew_matrix(e2.A)
    comm = a1h @ a2h - a2h @ a1h
    val = np.trace(pt.psi.c @ (comm @ pt.u - pt.u @ comm))
    val += np.trace(e1.phi_w.c @ infinitesimal_action(e2.A, pt.u))
    val -= np.trace(e2.phi_w.c @ infinitesimal_action(e1.A, pt.u))
    return float(val)


def poisson_bracket_fd(
    e1: SemidirectLieElement,
    e2: SemidirectLieElement,
    pt: PhasePoint,
) -> float:
    """Finite-difference bracket Σ_k (∂F/∂u_k ∂G/∂ψ_k - ∂F/∂ψ_k ∂G/∂u_k)."""
    step = BRACKET_FD_STEP

    def observable(e, uc, pc):
        p = PhasePoint(w_matrix(uc), WFunctional(w_matrix(pc), 0.0))
        return P_observable(e, p)

    uc0, pc0 = w_coords(pt.u), w_coords(pt.psi.c)
    total = 0.0
    for k in range(5):
        du = np.zeros(5)
        du[k] = step
        dfu = (observable(e1, uc0 + du, pc0) - observable(e1, uc0 - du, pc0)) / (2 * step)
        dgu = (observable(e2, uc0 + du, pc0) - observable(e2, uc0 - du, pc0)) / (2 * step)
        dfp = (observable(e1, uc0, pc0 + du) - observable(e1, uc0, pc0 - du)) / (2 * step)
        dgp = (observable(e2, uc0, pc0 + du) - observable(e2, uc0, pc0 - du)) / (2 * step)
        total += dfu * dgp - dfp * dgu
    return total


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


_CHUNK_BYTES = 1 << 17   # per (pairs × points) float64 temporary in homomorphism_defect


def _rows9(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1, 9)


def homomorphism_defect(c1, a1, c2, a2, u, psi) -> float:
    """Batch form of ``check_homomorphism`` on arrays.

    ``c1``, ``c2`` are (k, 3, 3) functional matrices and ``a1``, ``a2`` the
    (k, 3) generators of k element pairs (zero offsets); ``u``, ``psi`` are
    the (n, 3, 3) configurations and momentum matrices of n phase points.
    Every pairing tr(c [Â, u]) is rewritten as tr([c, Â]·u), and tr(ψ [K, u])
    as tr(K·[u, ψ]), so each term is one (pairs × 9) @ (9 × points) matmul.
    The bracket side uses A₁ × A₂ and the bracket's functional; the closed
    Poisson side uses [Â₁, Â₂] and the two pairings separately.  Pairs are
    taken in chunks whose (pairs × points) temporaries stay near
    ``_CHUNK_BYTES``.
    """
    n = u.shape[0]
    # tr(X Y) = X.ravel() · Yᵀ.ravel(): transpose the point-side factors once
    ut = np.swapaxes(u, 1, 2).reshape(n, 9).T
    wt = np.swapaxes(_commutator(u, psi), 1, 2).reshape(n, 9).T
    step = max(1, _CHUNK_BYTES // (8 * n))
    worst = 0.0
    for lo in range(0, len(a1), step):
        s = slice(lo, lo + step)
        a1h, a2h = skew_matrix(a1[s]), skew_matrix(a2[s])
        cb, ab = _bracket(c1[s], a1[s], c2[s], a2[s])
        lhs = _rows9(_commutator(a1h, a2h)) @ wt
        lhs += _rows9(_commutator(c1[s], a2h)) @ ut
        lhs -= _rows9(_commutator(c2[s], a1h)) @ ut
        rhs = _rows9(skew_matrix(ab)) @ wt
        rhs += _rows9(cb) @ ut
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def random_element(rng: np.random.Generator) -> SemidirectLieElement:
    c = w_matrix(rng.normal(size=5))
    return SemidirectLieElement(WFunctional(c, 0.0), rng.normal(size=3))


def random_phase_point(rng: np.random.Generator) -> PhasePoint:
    return PhasePoint(
        w_matrix(rng.normal(size=5)), WFunctional(w_matrix(rng.normal(size=5)), 0.0)
    )
