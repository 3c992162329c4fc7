"""Charts on ℝP², equivariant embeddings into matrix space, quadrature on S².

The projective plane is covered by the three affine charts
U_α = {[x] : x_α ≠ 0} with transition signs g_αβ([x]) = sign(x_α x_β).

The ambient representation space W is realized as the 5-dimensional space of
real symmetric traceless 3×3 matrices with the conjugation action
R·M·Rᵀ; the orbit map is M(x) = x xᵀ - Id/3, which identifies ℝP² with an
orbit in W.  The classical 4-component embedding
F([x:y:z]) = (yz, xz, xy, y² - z²) consists of four fixed linear functionals
of M and is kept for cross-checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PointNotInChart
from ._kernels import ylm_basis
from .groups import UNIT_TOL, RP2Point, unit_vector

CHART_TOL = 1e-9


def chart_coords(p: RP2Point, alpha: int) -> tuple[float, float]:
    """Affine coordinates (x_i/x_α, x_j/x_α), i < j the non-chart indices."""
    if alpha not in (1, 2, 3):
        raise ValueError("chart index must be 1, 2 or 3")
    x = p.rep
    a = alpha - 1
    if abs(x[a]) <= CHART_TOL:
        raise PointNotInChart(f"x_{alpha} vanishes for {x}")
    i, j = [k for k in range(3) if k != a]
    return (x[i] / x[a], x[j] / x[a])


def transition_function(alpha: int, beta: int, p: RP2Point) -> int:
    """g_αβ([x]) = sign(x_α x_β) ∈ {+1, -1}; representative-independent."""
    x = p.rep
    for idx in (alpha, beta):
        if idx not in (1, 2, 3):
            raise ValueError("chart index must be 1, 2 or 3")
        if abs(x[idx - 1]) <= CHART_TOL:
            raise PointNotInChart(f"x_{idx} vanishes for {x}")
    return 1 if x[alpha - 1] * x[beta - 1] > 0 else -1


def f_embedding(p: RP2Point) -> np.ndarray:
    """The 4-vector (yz, xz, xy, y² - z²) of even quadratics at [x:y:z]."""
    x, y, z = p.rep
    return np.array([y * z, x * z, x * y, y * y - z * z])


def moment_embedding(x) -> np.ndarray:
    """M(x) = x xᵀ - Id/3, a symmetric traceless matrix; M(-x) = M(x)."""
    v = unit_vector(x)
    return np.outer(v, v) - np.eye(3) / 3.0


def f_from_moment(m: np.ndarray) -> np.ndarray:
    """The four F components as linear functionals of M."""
    return np.array([m[1, 2], m[0, 2], m[0, 1], m[1, 1] - m[2, 2]])


def w_action(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Linear action R·M·Rᵀ of a rotation on the matrix space W."""
    return r @ m @ r.T


def check_symmetric_traceless(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m - m.T)) > tol or abs(np.trace(m)) > tol:
        raise ValueError("matrix must be symmetric and traceless")
    return m


@dataclass(frozen=True)
class WFunctional:
    """Affine functional w(M) = tr(c·M) + c0 on W, restricted to the orbit."""

    c: np.ndarray
    c0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", check_symmetric_traceless(self.c))

    def __call__(self, x) -> float | np.ndarray:
        """w at one unit vector, or one value per row of an (n, 3) array.

        tr(c·M(x)) = xᵀc x - tr(c)/3 with M(x) = x xᵀ - Id/3; each row must
        be unit to ``unit_vector``'s tolerance and is normalized.
        """
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValueError(f"point norms depart from 1 beyond {UNIT_TOL}")
        pts = pts / norms[:, None]
        vals = np.einsum("ni,ij,nj->n", pts, self.c, pts)
        vals += self.c0 - np.trace(self.c) / 3.0
        return float(vals[0]) if np.ndim(x) == 1 else vals

    def pushforward(self, r: np.ndarray) -> "WFunctional":
        """The functional M ↦ w(Rᵀ·M·R), i.e. w composed with the inverse action."""
        return WFunctional(r @ self.c @ r.T, self.c0)

    def scaled(self, s: float) -> "WFunctional":
        return WFunctional(s * self.c, s * self.c0)


def eval_w(w: WFunctional, p: RP2Point) -> float:
    """Evaluate an orbit functional at a projective point."""
    return w(p.rep)


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre × uniform-azimuth grid, exact through degree 2·lmax_exact + 1."""

    nodes: np.ndarray       # (n, 3) unit vectors
    weights: np.ndarray     # (n,) positive, summing to 4π
    lmax_exact: int
    _basis_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def basis(self, lmax: int) -> np.ndarray:
        """Cached Y_lm basis matrix at the grid nodes."""
        key = ("node", lmax)
        if key not in self._basis_cache:
            self._basis_cache[key] = ylm_basis(self.nodes, lmax)
        return self._basis_cache[key]

    def antipodal_basis(self, lmax: int) -> np.ndarray:
        """Cached Y_lm basis matrix at the antipodes of the grid nodes."""
        key = ("anti", lmax)
        if key not in self._basis_cache:
            self._basis_cache[key] = ylm_basis(-self.nodes, lmax)
        return self._basis_cache[key]

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.dot(self.weights, values))

    def to_csv(self, path) -> None:
        """Write (x, y, z, weight) rows at 17 significant digits."""
        with open(path, "w") as fh:
            for (x, y, z), w in zip(self.nodes, self.weights):
                fh.write(f"{x:.17g},{y:.17g},{z:.17g},{w:.17g}\n")


def build_quadrature(lmax: int) -> QuadratureGrid:
    """Quadrature integrating products of harmonics of degree ≤ lmax exactly.

    lmax+1 Gauss-Legendre nodes in cos(θ) × (2·lmax+2) uniform azimuths,
    exact for any single harmonic of degree ≤ 2·lmax + 1.
    """
    if not 1 <= lmax <= 32:
        raise ValueError("lmax must lie in [1, 32]")
    ct, gl_w = np.polynomial.legendre.leggauss(lmax + 1)
    n_phi = 2 * lmax + 2
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - ct * ct)

    nodes = np.empty(((lmax + 1) * n_phi, 3))
    weights = np.empty((lmax + 1) * n_phi)
    k = 0
    for i in range(lmax + 1):
        for j in range(n_phi):
            nodes[k] = (st[i] * np.cos(phi[j]), st[i] * np.sin(phi[j]), ct[i])
            weights[k] = gl_w[i] * (2.0 * np.pi / n_phi)
            k += 1
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureGrid(nodes=nodes, weights=weights, lmax_exact=lmax)
