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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PointNotInChart
from ._kernels import ylm_basis
from .groups import UNIT_TOL, RP2Point, unit_vector, unit_vector_batch

CHART_TOL = 1e-9
SYMMETRIC_TRACELESS_TOL = 1e-12   # asymmetry and trace accepted for a matrix in W
MAX_GRID_LMAX = 32       # largest band build_quadrature integrates exactly


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


def transition_signs_batch(x) -> np.ndarray:
    """All transition signs at the rows of an (n, 3) array: (n, 3, 3) ints.

    Entry [k, α-1, β-1] is ``transition_function(α, β, rp2_point(x[k]))``;
    any row with a coordinate of size ≤ CHART_TOL raises PointNotInChart.
    """
    x = np.asarray(x, dtype=float)
    outside = np.abs(x) <= CHART_TOL
    if np.any(outside):
        k, i = np.argwhere(outside)[0]
        raise PointNotInChart(f"x_{i + 1} vanishes for {x[k]}")
    return _transition_sign(x[..., :, None], x[..., None, :])


def f_embedding(p: RP2Point) -> np.ndarray:
    """The 4-vector (yz, xz, xy, y² - z²) of even quadratics at [x:y:z]."""
    x, y, z = p.rep
    return np.array([y * z, x * z, x * y, y * y - z * z])


def _moment(v):
    """v vᵀ - Id/3 for one unit vector or along the last axis of a stack."""
    return v[..., :, None] * v[..., None, :] - np.eye(3) / 3.0


def moment_embedding(x) -> np.ndarray:
    """M(x) = x xᵀ - Id/3, a symmetric traceless matrix; M(-x) = M(x)."""
    return _moment(unit_vector(x))


def moment_embedding_batch(x) -> np.ndarray:
    """M at each row of an (n, 3) array of unit vectors: (n, 3, 3)."""
    return _moment(unit_vector_batch(x))


def f_from_moment(m: np.ndarray) -> np.ndarray:
    """The four F components as linear functionals of M."""
    return np.array([m[1, 2], m[0, 2], m[0, 1], m[1, 1] - m[2, 2]])


def w_action(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Linear action R·M·Rᵀ of a rotation on the matrix space W."""
    return r @ m @ r.T


def check_symmetric_traceless(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    tol = SYMMETRIC_TRACELESS_TOL
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
        if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
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


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre × uniform-azimuth grid, exact through degree 2·lmax_exact + 1.

    Nodes are ring-major: lmax_exact + 1 rings of constant cos θ, each with
    n_φ = 2·lmax_exact + 2 azimuths φ_j = 2πj/n_φ starting at φ = 0.  On
    this layout Y_lm(θ_i, φ_j) = T_lm(θ_i) e^{imφ_j} with T real, so
    ``synthesize`` and ``project`` are separable: one FFT over azimuth and
    one batched Legendre matmul per call, O(L³) where a dense basis matmul
    is O(L⁴).  The same layout is closed under x ↦ -x, which ``antipode``
    gives as a permutation of the nodes.  The dense ``basis`` remains only
    for the quadrature Gram oracle.
    """

    nodes: np.ndarray       # (n, 3) unit vectors
    weights: np.ndarray     # (n,) positive, summing to 4π
    lmax_exact: int
    _basis_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def basis(self, lmax: int) -> np.ndarray:
        """Cached dense Y_lm basis matrix at the grid nodes, for the Gram oracle."""
        key = ("node", lmax)
        if key not in self._basis_cache:
            self._basis_cache[key] = ylm_basis(self.nodes, lmax)
        return self._basis_cache[key]

    def _ring_shape(self) -> tuple[int, int]:
        """(n_θ, n_φ) of the ring layout; any other node layout raises."""
        n_theta, n_phi = self.lmax_exact + 1, 2 * self.lmax_exact + 2
        rings = self.nodes.reshape(n_theta, n_phi, 3) if self.n == n_theta * n_phi else None
        if rings is None or np.any(rings[:, :, 2] != rings[:, :1, 2]) \
                or np.any(rings[:, 0, 1] != 0.0):
            raise ValueError("grid nodes are not in build_quadrature's ring layout")
        return n_theta, n_phi

    @property
    def antipode(self) -> np.ndarray:
        """Node permutation with nodes[antipode[k]] = -nodes[k] (cached, read-only).

        The antipode of (ring i, azimuth j) is (ring n_θ-1-i, azimuth
        j + n_φ/2): the Gauss-Legendre cosines are symmetric and n_φ is even.
        So ``vals[..., grid.antipode]`` are the values at the antipodes.
        """
        if "antipode" not in self._basis_cache:
            n_theta, n_phi = self._ring_shape()
            ring = np.arange(n_theta)[::-1, None]
            azimuth = (np.arange(n_phi) + n_phi // 2) % n_phi
            perm = (ring * n_phi + azimuth).ravel()
            perm.flags.writeable = False
            self._basis_cache["antipode"] = perm
        return self._basis_cache["antipode"]

    def _ring_tables(self, lmax: int):
        """Legendre slabs of the ring layout, cached under ("ring", lmax).

        T[i, (l, m)] is ``ylm_basis`` at the φ = 0 node of ring i (real).
        With m at FFT slot s = m mod n_φ (zero where |m| > l), returns
        ``syn[s, i, l] = T`` (n_φ, n_θ, lmax+1), the ring-weighted
        ``proj[s, l, i] = w_i T`` (n_φ, lmax+1, n_θ), and the (slot, degree)
        index arrays of the coefficients in table order.
        """
        if not 0 <= lmax <= self.lmax_exact:
            raise ValueError(
                f"grid exact to lmax {self.lmax_exact} cannot project lmax {lmax}"
            )
        key = ("ring", lmax)
        if key not in self._basis_cache:
            n_theta, n_phi = self._ring_shape()
            table = ylm_basis(self.nodes[::n_phi], lmax).real.T   # ((lmax+1)², n_θ)
            deg = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
            slot = (np.arange(deg.size) - deg * deg - deg) % n_phi
            syn = np.zeros((n_phi, n_theta, lmax + 1))
            syn[slot, :, deg] = table
            proj = np.zeros((n_phi, lmax + 1, n_theta))
            proj[slot, deg] = table * self.weights[::n_phi]
            for a in (syn, proj, slot, deg):
                a.flags.writeable = False
            self._basis_cache[key] = (syn, proj, slot, deg)
        return self._basis_cache[key]

    def synthesize(self, c) -> np.ndarray:
        """Values Σ c_lm Y_lm(x_k) at the nodes for a stack (..., (lmax+1)²).

        Returns (..., n): one scatter into FFT slots, one Legendre matmul per
        slot and one inverse FFT over azimuth.
        """
        c = np.asarray(c, dtype=np.complex128)
        lmax = math.isqrt(c.shape[-1]) - 1
        if (lmax + 1) ** 2 != c.shape[-1]:
            raise ValueError("last axis must hold (lmax+1)² coefficients")
        syn, _, slot, deg = self._ring_tables(lmax)
        rows = c.reshape(-1, c.shape[-1])
        scattered = np.zeros((syn.shape[0], lmax + 1, rows.shape[0]), dtype=np.complex128)
        scattered[slot, deg] = rows.T
        # complex operands as interleaved real pairs: one real matmul per slot
        rings = (syn @ scattered.view(np.float64)).view(np.complex128)   # (n_φ, n_θ, rows)
        del scattered                    # at most two stack-sized buffers live at once
        vals = np.empty(rings.shape[::-1], dtype=np.complex128)            # ring-major nodes
        np.fft.ifft(rings, axis=0, norm="forward", out=vals.transpose(2, 1, 0))
        return vals.reshape(c.shape[:-1] + (self.n,))

    def project(self, values, lmax: int) -> np.ndarray:
        """Σ_k w_k conj(Y_lm(x_k)) v_k for a stack of node values (..., n).

        Returns (..., (lmax+1)²): one FFT over azimuth, one ring-weighted
        Legendre matmul per slot and one gather.  Exact on band-limited
        input when lmax ≤ lmax_exact; larger lmax raises.
        """
        v = np.asarray(values, dtype=np.complex128)
        if v.shape[-1:] != (self.n,):
            raise ValueError("node values have wrong shape")
        _, proj, slot, deg = self._ring_tables(lmax)
        n_phi, _, n_theta = proj.shape
        rows = v.reshape(-1, n_theta, n_phi)
        spectra = np.empty(rows.shape[::-1], dtype=np.complex128)          # (n_φ, n_θ, rows)
        np.fft.fft(rows, axis=-1, out=spectra.transpose(2, 1, 0))
        rings = (proj @ spectra.view(np.float64)).view(np.complex128)   # (n_φ, lmax+1, rows)
        del spectra                      # at most two stack-sized buffers live at once
        return rings.transpose(2, 0, 1)[:, slot, deg].reshape(v.shape[:-1] + (slot.size,))

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.dot(self.weights, values))


def build_quadrature(lmax: int) -> QuadratureGrid:
    """Quadrature integrating products of harmonics of degree ≤ lmax exactly.

    lmax+1 Gauss-Legendre nodes in cos(θ) × (2·lmax+2) uniform azimuths,
    exact for any single harmonic of degree ≤ 2·lmax + 1.
    """
    if not 1 <= lmax <= MAX_GRID_LMAX:
        raise ValueError(f"lmax must lie in [1, {MAX_GRID_LMAX}]")
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
