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

import numpy as np

from .groups import skew_matrix
from .manifold import WFunctional  # noqa: F401  (the type of φ, re-exported)

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
    """Coordinates of a symmetric traceless matrix in the orthonormal basis.

    An (..., 3, 3) stack gives (..., 5); each row equals its single call.
    """
    return np.einsum("kij,...ji->...k", W_BASIS, m)


def w_matrix(coords: np.ndarray) -> np.ndarray:
    """Σ_k coords[k]·W_BASIS[k]; an (..., 5) array gives an (..., 3, 3) stack."""
    return np.einsum("...k,kij->...ij", coords, W_BASIS)


def infinitesimal_action(A, u: np.ndarray) -> np.ndarray:
    """R(A)u = [Â, u], the derivative of R·u·Rᵀ along the rotation A; stacks broadcast."""
    ahat = skew_matrix(A)
    return ahat @ u - u @ ahat


def _trace(m):
    """Trace of each matrix of a stack; np.trace of one matrix, rounded the same way."""
    return np.trace(m, axis1=-2, axis2=-1)


def _commutator(x, y):
    """[X, Y] = XY - YX; stacks of matrices broadcast."""
    return x @ y - y @ x


# An element of the semidirect algebra is its functional matrix c (3, 3),
# offset c0 and generator a (3,); a phase point is u and ψ (3, 3).  Every
# form below takes these for one element and point, or stacks of them with
# leading axes that broadcast; row k of a stack equals the call on row k bit
# for bit.

def P_observable(c, a, u, psi, c0=0.0) -> np.ndarray:
    """P(Ã)(u, ψ) = ψ([Â, u]) + φ(u) with φ = tr(c ·) + c0, trace pairings throughout."""
    return _trace(psi @ infinitesimal_action(a, u)) + _trace(c @ u) + c0


def lie_bracket(c1, a1, c2, a2) -> tuple[np.ndarray, np.ndarray]:
    """(c, A) of [(φ₁, A₁), (φ₂, A₂)] = (φ₁∘R(A₂) - φ₂∘R(A₁), A₁ × A₂).

    The offsets of φ₁ and φ₂ drop out: the bracket's functional has zero offset.
    """
    # coefficient matrix of u ↦ tr(c [Â, u]) is [c, Â]
    c = _commutator(c1, skew_matrix(a2)) - _commutator(c2, skew_matrix(a1))
    return c, np.cross(a1, a2)


def poisson_bracket(c1, a1, c2, a2, u, psi) -> np.ndarray:
    """Canonical bracket {P(e₁), P(e₂)}(u, ψ), in closed form.

    It equals ψ([[Â₁, Â₂], u]) + φ₁([Â₂, u]) - φ₂([Â₁, u]).
    """
    comm = _commutator(skew_matrix(a1), skew_matrix(a2))
    val = _trace(psi @ _commutator(comm, u))
    val += _trace(c1 @ infinitesimal_action(a2, u))
    val -= _trace(c2 @ infinitesimal_action(a1, u))
    return val


def poisson_bracket_fd(c1, a1, c2, a2, u, psi) -> np.ndarray:
    """Finite-difference bracket Σ_k (∂F/∂u_k ∂G/∂ψ_k - ∂F/∂ψ_k ∂G/∂u_k).

    Central differences of step BRACKET_FD_STEP in the orthonormal
    coordinates of u and ψ; the functionals' offsets cancel in every
    difference and are left out.
    """
    step = BRACKET_FD_STEP

    def observable(c, a, uc, pc):
        return P_observable(c, a, w_matrix(uc), w_matrix(pc))

    uc0, pc0 = w_coords(u), w_coords(psi)
    total = 0.0
    for k in range(5):
        du = np.zeros(5)
        du[k] = step
        dfu = (observable(c1, a1, uc0 + du, pc0) - observable(c1, a1, uc0 - du, pc0)) / (2 * step)
        dgu = (observable(c2, a2, uc0 + du, pc0) - observable(c2, a2, uc0 - du, pc0)) / (2 * step)
        dfp = (observable(c1, a1, uc0, pc0 + du) - observable(c1, a1, uc0, pc0 - du)) / (2 * step)
        dgp = (observable(c2, a2, uc0, pc0 + du) - observable(c2, a2, uc0, pc0 - du)) / (2 * step)
        total += dfu * dgp - dfp * dgu
    return total


_CHUNK_BYTES = 1 << 17   # per (pairs × points) float64 temporary in homomorphism_defect


def _rows9(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1, 9)


def homomorphism_defect(c1, a1, c2, a2, u, psi) -> float:
    """max |{P(e₁), P(e₂)}(pt) - P([e₁, e₂])(pt)| over pairs and phase points.

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
    peaks = []
    for lo in range(0, len(a1), step):
        s = slice(lo, lo + step)
        a1h, a2h = skew_matrix(a1[s]), skew_matrix(a2[s])
        cb, ab = lie_bracket(c1[s], a1[s], c2[s], a2[s])
        lhs = _rows9(_commutator(a1h, a2h)) @ wt
        lhs += _rows9(_commutator(c1[s], a2h)) @ ut
        lhs -= _rows9(_commutator(c2[s], a1h)) @ ut
        rhs = _rows9(skew_matrix(ab)) @ wt
        rhs += _rows9(cb) @ ut
        peaks.append(np.max(np.abs(lhs - rhs)))
    return float(np.max(peaks, initial=0.0))    # np.max keeps a NaN, as Python's max does not
