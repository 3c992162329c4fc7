"""Charts on ℝP², equivariant embeddings into matrix space, quadrature on S².

The projective plane is covered by the three affine charts
U_α = {[x] : x_α ≠ 0} with transition signs g_αβ([x]) = sign(x_α x_β).

The ambient representation space W is realized as the 5-dimensional space of
real symmetric traceless 3×3 matrices with the conjugation action
R·M·Rᵀ; the orbit map is M(x) = x xᵀ - Id/3, which identifies ℝP² with an
orbit in W.  The classical 4-component embedding
F([x:y:z]) = (yz, xz, xy, y² - z²) consists of four fixed linear functionals
of M and is kept for cross-checks.

A quadrature grid on S² is its order, ``QuadratureGrid(lmax_exact)``: its
nodes and tables are derived once per (order, band) and shared read-only.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import PointNotInChart
from ._kernels import _read_only, _table_band, ylm_basis
from .groups import UNIT_TOL, unit_vector

CHART_TOL = 1e-9
SYMMETRIC_TRACELESS_TOL = 1e-12   # asymmetry and trace accepted for a matrix in W
MAX_GRID_LMAX = 32       # largest band build_quadrature integrates exactly


def chart_coords(x, alpha: int) -> np.ndarray:
    """Affine coordinates (x_i/x_α, x_j/x_α) of a point or of each row of a stack.

    i < j are the non-chart indices; a (3,) point gives (2,), an (..., 3)
    stack (..., 2).  The ratios do not change under x ↦ -x, so any
    representative of a class gives its coordinates.  A point with
    |x_α| ≤ CHART_TOL raises PointNotInChart.
    """
    if alpha not in (1, 2, 3):
        raise ValueError("chart index must be 1, 2 or 3")
    x = np.asarray(x, dtype=float)
    a = alpha - 1
    outside = np.abs(x[..., a]) <= CHART_TOL
    if np.any(outside):
        raise PointNotInChart(f"x_{alpha} vanishes for {x[outside][0]}")
    i, j = [k for k in range(3) if k != a]
    return np.stack([x[..., i] / x[..., a], x[..., j] / x[..., a]], axis=-1)


def transition_signs(x) -> np.ndarray:
    """All transition signs g_αβ([x]) = sign(x_α x_β) at a point: (3, 3) ints.

    Entry [α-1, β-1] is g_αβ; an (..., 3) stack gives (..., 3, 3).  The
    signs are representative-independent.  A point with a coordinate of
    size ≤ CHART_TOL lies outside some chart and raises PointNotInChart.
    """
    x = np.asarray(x, dtype=float)
    outside = np.abs(x) <= CHART_TOL
    if np.any(outside):
        *k, i = np.argwhere(outside)[0]
        raise PointNotInChart(f"x_{i + 1} vanishes for {x[tuple(k)]}")
    return (x[..., :, None] * x[..., None, :] > 0.0) * 2 - 1


def f_embedding(x) -> np.ndarray:
    """(yz, xz, xy, y² - z²) at a point (4,), or at each row of a stack (..., 4).

    F is even, so any representative of a class gives its value.
    """
    x = np.asarray(x, dtype=float)
    x, y, z = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([y * z, x * z, x * y, y * y - z * z], axis=-1)


def moment_embedding(x) -> np.ndarray:
    """M(x) = x xᵀ - Id/3, a symmetric traceless matrix; M(-x) = M(x).

    An (..., 3) stack of unit vectors gives an (..., 3, 3) stack.
    """
    v = unit_vector(x)
    return v[..., :, None] * v[..., None, :] - np.eye(3) / 3.0


def f_from_moment(m: np.ndarray) -> np.ndarray:
    """The four F components as linear functionals of M; stacks give (..., 4)."""
    return np.stack([m[..., 1, 2], m[..., 0, 2], m[..., 0, 1], m[..., 1, 1] - m[..., 2, 2]],
                    axis=-1)


def w_action(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Linear action R·M·Rᵀ of a rotation on the matrix space W; stacks broadcast."""
    return r @ m @ r.mT


def check_symmetric_traceless(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.isfinite(m).all():
        raise ValueError(f"matrix must be a finite (3, 3) array, got shape {m.shape}")
    tol = SYMMETRIC_TRACELESS_TOL
    if np.max(np.abs(m - m.T)) > tol or abs(np.trace(m)) > tol:
        raise ValueError("matrix must be symmetric and traceless")
    return m


def w_values(c, c0, x) -> np.ndarray:
    """w(x) = tr(c·M(x)) + c0 at the rows of an (..., 3) array of unit vectors.

    tr(c·M(x)) = xᵀc x - tr(c)/3 with M(x) = x xᵀ - Id/3.  c is one (3, 3)
    matrix or an (..., 3, 3) stack with offsets c0, broadcast against the
    points; each row must be unit to ``unit_vector``'s tolerance and is
    normalized.  ``WFunctional`` evaluates through this, so row k of a stack
    equals the functional of row k at its point bit for bit.
    """
    pts = np.asarray(x, dtype=float)
    norms = np.linalg.norm(pts, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
        raise ValueError(f"point norms depart from 1 beyond {UNIT_TOL}")
    pts = pts / norms[..., None]
    vals = np.einsum("...i,...ij,...j->...", pts, c, pts)
    vals += c0 - np.trace(c, axis1=-2, axis2=-1) / 3.0
    return vals


@dataclass(frozen=True)
class WFunctional:
    """Affine functional w(M) = tr(c·M) + c0 on W, restricted to the orbit."""

    c: np.ndarray
    c0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", check_symmetric_traceless(self.c))
        if not np.isfinite(self.c0):
            raise ValueError(f"offset c0 must be finite, got {self.c0!r}")

    def __call__(self, x) -> float | np.ndarray:
        """w at one unit vector, or one value per row of an (n, 3) array."""
        vals = w_values(self.c, self.c0, np.atleast_2d(x))
        return float(vals[0]) if np.ndim(x) == 1 else vals

    def pushforward(self, r: np.ndarray) -> "WFunctional":
        """The functional M ↦ w(Rᵀ·M·R), i.e. w composed with the inverse action."""
        return WFunctional(r @ self.c @ r.T, self.c0)

    def scaled(self, s: float) -> "WFunctional":
        return WFunctional(s * self.c, s * self.c0)


@functools.cache
def _layout(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (n, 3), weights (n,) and antipode (n,) of the grid of this order (read-only)."""
    ct, gl_w = np.polynomial.legendre.leggauss(order + 1)
    n_phi = 2 * order + 2
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - ct * ct)

    # ring-major: ring i (cos θ = ct[i]) holds azimuths j = 0 … n_φ-1
    nodes = np.stack(np.broadcast_arrays(st[:, None] * np.cos(phi), st[:, None] * np.sin(phi),
                                         ct[:, None]), axis=-1).reshape(-1, 3)
    weights = np.repeat(gl_w * (2.0 * np.pi / n_phi), n_phi)
    antipode = np.arange(order, -1, -1)[:, None] * n_phi + (np.arange(n_phi) + order + 1) % n_phi
    return _read_only(nodes), _read_only(weights), _read_only(antipode.ravel())


@functools.lru_cache(maxsize=16)   # a report uses four (order, band) pairs
def _ring_tables(order: int, lmax: int):
    """Legendre slabs of the grid of this order at band lmax (read-only).

    T[i, (l, m)] is ``ylm_basis`` at the φ = 0 node of ring i (real).
    With m at FFT slot s = m mod n_φ (zero where |m| > l), returns
    ``syn[s, i, l] = T`` (n_φ, n_θ, lmax+1), the ring-weighted
    ``proj[s, l, i] = w_i T`` (n_φ, lmax+1, n_θ), and the (slot, degree)
    index arrays of the coefficients in table order.
    """
    if not 0 <= lmax <= order:
        raise ValueError(f"grid exact to lmax {order} cannot project lmax {lmax}")
    n_theta, n_phi = order + 1, 2 * order + 2
    nodes, weights, _ = _layout(order)
    table = ylm_basis(nodes[::n_phi], lmax).real.T   # ((lmax+1)², n_θ)
    deg = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
    slot = (np.arange(deg.size) - deg * deg - deg) % n_phi
    syn = np.zeros((n_phi, n_theta, lmax + 1))
    syn[slot, :, deg] = table
    proj = np.zeros((n_phi, lmax + 1, n_theta))
    proj[slot, deg] = table * weights[::n_phi]
    return tuple(map(_read_only, (syn, proj, slot, deg)))


@functools.lru_cache(maxsize=2)    # O(L⁴) each, 38 MB at order 32; a report uses one
def _dense_basis(order: int, lmax: int) -> np.ndarray:
    return _read_only(ylm_basis(_layout(order)[0], lmax))


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

    lmax_exact: int

    def __post_init__(self):
        object.__setattr__(self, "lmax_exact", operator.index(self.lmax_exact))
        if not 1 <= self.lmax_exact <= MAX_GRID_LMAX:
            raise ValueError(f"lmax must lie in [1, {MAX_GRID_LMAX}]")

    @property
    def nodes(self) -> np.ndarray:
        """(n, 3) unit vectors, ring-major (read-only)."""
        return _layout(self.lmax_exact)[0]

    @property
    def weights(self) -> np.ndarray:
        """(n,) positive weights summing to 4π (read-only)."""
        return _layout(self.lmax_exact)[1]

    @property
    def n(self) -> int:
        return (self.lmax_exact + 1) * (2 * self.lmax_exact + 2)

    def basis(self, lmax: int) -> np.ndarray:
        """Dense Y_lm basis matrix at the grid nodes, for the Gram oracle (cached, read-only)."""
        return _dense_basis(self.lmax_exact, lmax)

    @property
    def antipode(self) -> np.ndarray:
        """Node permutation with nodes[antipode[k]] = -nodes[k] (cached, read-only).

        The antipode of (ring i, azimuth j) is (ring n_θ-1-i, azimuth
        j + n_φ/2): the Gauss-Legendre cosines are symmetric and n_φ is even.
        So ``vals[..., grid.antipode]`` are the values at the antipodes.
        """
        return _layout(self.lmax_exact)[2]

    def synthesize(self, c) -> np.ndarray:
        """Values Σ c_lm Y_lm(x_k) at the nodes for a stack (..., (lmax+1)²).

        Returns (..., n): one scatter into FFT slots, one Legendre matmul per
        slot and one inverse FFT over azimuth.
        """
        c, lmax = _table_band(c)
        syn, _, slot, deg = _ring_tables(self.lmax_exact, lmax)
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
        _, proj, slot, deg = _ring_tables(self.lmax_exact, lmax)
        n_phi, _, n_theta = proj.shape
        rows = v.reshape(-1, n_theta, n_phi)
        spectra = np.empty(rows.shape[::-1], dtype=np.complex128)          # (n_φ, n_θ, rows)
        np.fft.fft(rows, axis=-1, out=spectra.transpose(2, 1, 0))
        rings = (proj @ spectra.view(np.float64)).view(np.complex128)   # (n_φ, lmax+1, rows)
        del spectra                      # at most two stack-sized buffers live at once
        return rings.transpose(2, 0, 1)[:, slot, deg].reshape(v.shape[:-1] + (slot.size,))


def build_quadrature(lmax: int) -> QuadratureGrid:
    """The grid of order lmax: exact for products of harmonics of degree ≤ lmax."""
    return QuadratureGrid(lmax)
