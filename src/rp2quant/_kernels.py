"""The spherical-harmonic kernels: the package's hot numeric loops.

Both kernels evaluate complex spherical harmonics Y_lm (Condon-Shortley
phase) at arbitrary unit vectors, and both run one associated-Legendre
recurrence, one order m at a time (``_legendre_slabs``).

* ``ylm_synthesize(xyz, lmax, c)`` gives Σ c_lm Y_lm without forming the
  (n, (lmax+1)²) basis.  For each m it contracts the real Legendre slab
  P[l, m] (l = m … lmax) with the ±m coefficient columns in one real matmul,
  and it adds each order as the recurrence reaches it, times the running
  power e^{imφ}.  Its memory is O(lmax·n) per point set.  It serves
  ``harmonics.evaluate`` and the resampling cross-check
  ``harmonics.rotate_values``.
* ``ylm_basis(xyz, lmax)`` forms the dense basis.  The quadrature grid builds
  it once per lmax at the φ = 0 node of each ring, for the separable
  transform (``QuadratureGrid.synthesize`` / ``project``: an FFT over azimuth
  and a Legendre matmul per m).  The dense ``QuadratureGrid.basis`` is kept
  for the quadrature Gram oracle alone.

Rotations act on coefficients (``harmonics.rotate_stack``) and evaluate no
harmonics.  Both kernels are vectorized numpy over the points, loop over
(l, m) only, and are deterministic.  See benchmarks/bench_harmonics.py for
timings.  ``_read_only`` and ``_table_band`` (a stack's band) live here
because ``groups``, ``manifold`` and ``harmonics`` all need them, and
``_phase`` (e^{iθ} as cos θ and sin θ) because ``heisenberg`` and
``representation`` both form unit-modulus phases with it.

Recurrence (fully normalized associated Legendre, ct = cos(theta)):
    P[0,0] = 1/sqrt(4*pi)
    P[m,m]   = -sqrt((2m+1)/(2m)) * sin(theta) * P[m-1,m-1]
    P[m+1,m] =  sqrt(2m+3) * ct * P[m,m]
    P[l,m]   =  a(l,m) * (ct * P[l-1,m] - b(l,m) * P[l-2,m])
with a(l,m) = sqrt((4l^2-1)/(l^2-m^2)),
     b(l,m) = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)),
and Y[l,-m] = (-1)^m * conj(Y[l,m]).
"""

import functools
import math

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _phase(theta) -> np.ndarray:
    """e^{iθ} of a real array, written as cos θ and sin θ into one complex array.

    The package's one unit-modulus kernel.  It gives the bits of
    ``np.exp(-1j * x)`` at θ = -x, and of ``np.exp(1j * θ)`` except for the
    sign of a zero imaginary part at θ = -0.0.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _table_band(c) -> tuple[np.ndarray, int]:
    """A stack (..., (lmax+1)²) as a complex array, and its lmax.

    A last axis of any other length raises ValueError.
    """
    c = np.asarray(c, dtype=np.complex128)
    lmax = math.isqrt(c.shape[-1]) - 1
    if (lmax + 1) ** 2 != c.shape[-1]:
        raise ValueError("last axis must hold (lmax+1)² coefficients")
    return c, lmax


@functools.cache
def _recurrence_tables(lmax: int):
    """Diagonal/raising/two-term coefficients up to lmax (cached, read-only)."""
    diag = np.zeros(lmax + 1)
    raise_ = np.zeros(lmax + 1)
    two_a = np.zeros((lmax + 1, lmax + 1))
    two_b = np.zeros((lmax + 1, lmax + 1))
    for m in range(1, lmax + 1):
        diag[m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m))
    for m in range(lmax + 1):
        raise_[m] = math.sqrt(2.0 * m + 3.0)
        for l in range(m + 2, lmax + 1):
            two_a[l, m] = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            two_b[l, m] = math.sqrt(
                ((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)
            )
    return tuple(map(_read_only, (diag, raise_, two_a, two_b)))


def backend_name() -> str:
    """Name of the kernel backend; the basis build is numpy only."""
    return "numpy"


def _legendre_slabs(ct: np.ndarray, st: np.ndarray, lmax: int):
    """Yield (m, P) for m = 0 … lmax, with P[l - m] = P[l, m] for l = m … lmax.

    ``ct`` and ``st`` hold cos θ and sin θ, of any shape S.  P is a
    (lmax + 1 - m,) + S view into one buffer that the next order overwrites.
    """
    diag, raise_, two_a, two_b = _recurrence_tables(lmax)
    plm = np.empty((lmax + 1,) + ct.shape)
    tmp = np.empty(ct.shape)
    pmm = np.full(ct.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(lmax + 1):
        if m > 0:
            pmm = diag[m] * st * pmm
        plm[m] = pmm
        if m + 1 <= lmax:
            np.multiply(raise_[m] * ct, plm[m], out=plm[m + 1])
        for l in range(m + 2, lmax + 1):
            # two_a * (ct * P[l-1] - two_b * P[l-2]), in place
            np.multiply(ct, plm[l - 1], out=tmp)
            tmp -= two_b[l, m] * plm[l - 2]
            np.multiply(two_a[l, m], tmp, out=plm[l])
        yield m, plm[m:]


def _angles(xyz: np.ndarray):
    """cos θ, sin θ and φ of unit vectors along the last axis."""
    return xyz[..., 2], np.hypot(xyz[..., 0], xyz[..., 1]), np.arctan2(xyz[..., 1], xyz[..., 0])


def ylm_basis(xyz: np.ndarray, lmax: int) -> np.ndarray:
    """Complex spherical-harmonic basis at unit vectors.

    Returns an (n_points, (lmax+1)^2) complex matrix with column index
    l*l + l + m: the transpose of a buffer in which each (l, m) is one
    contiguous row, written whole per order m.
    """
    xyz = np.atleast_2d(np.asarray(xyz, dtype=np.float64))
    ct, st, phi = _angles(xyz)
    out = np.empty(((lmax + 1) * (lmax + 1), xyz.shape[0]), dtype=np.complex128)
    for m, plm in _legendre_slabs(ct, st, lmax):
        l = np.arange(m, lmax + 1)
        y = plm * np.exp(1j * m * phi)
        out[l * l + l + m] = y
        if m > 0:
            out[l * l + l - m] = (-1.0 if m % 2 else 1.0) * np.conj(y)
    return out.T


@functools.cache
def _m_major_rows(lmax: int):
    """How ``ylm_synthesize`` gathers coefficient rows per order m (cached, read-only).

    Returns (src, factor, start).  Row entry k is ``factor[k] * cr[src[k]]``,
    with cr the table as interleaved (re, im) floats.  Order m owns the
    contiguous block ``4 * start[m] : 4 * start[m + 1]``: four rows over
    l = m … lmax, namely Re and Im of c[l, m], then Re and Im of
    (-1)^m c[l, -m] (zero at m = 0, whose -m column is c[l, m] itself).
    """
    src, factor = [], []
    for m in range(lmax + 1):
        l = np.arange(m, lmax + 1)
        plus, minus = 2 * (l * l + l + m), 2 * (l * l + l - m)
        sign = 0.0 if m == 0 else (-1.0) ** m
        src += [plus, plus + 1, minus, minus + 1]
        factor += [np.ones(2 * l.size), np.full(2 * l.size, sign)]
    start = np.concatenate([[0], np.cumsum(lmax + 1 - np.arange(lmax + 1))])
    return tuple(map(_read_only, (np.concatenate(src), np.concatenate(factor), start)))


def ylm_synthesize(xyz: np.ndarray, lmax: int, c: np.ndarray) -> np.ndarray:
    """Σ c_lm Y_lm at unit vectors, without forming the basis.

    ``xyz`` has shape (..., n, 3) and ``c`` shape (..., (lmax+1)²); their
    leading axes broadcast, and the result has shape (leading axes..., n).
    So many tables at shared (n, 3) points, and one table per stacked point
    set, are each one call.  Tables at shared points go through one matmul
    per order m.

    With Y[l,-m] = (-1)^m conj(Y[l,m]), order m adds e^{imφ} A_m + e^{-imφ} B_m,
    where A_m = Σ_l c[l,m] P[l,m] and B_m = (-1)^m Σ_l c[l,-m] P[l,m] come from
    one real matmul of the Legendre slab with the (re, im) coefficient rows.
    The sum over m runs as the recurrence does, from m = 0 up, with the
    power e^{imφ} carried along, so no order is kept once it is added.
    A stacked point set with its table gets the same bits as the same set
    and table alone.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.complex128)
    if xyz.ndim < 2 or xyz.shape[-1] != 3:
        raise ValueError("points must have shape (..., n, 3)")
    if c.shape[-1:] != ((lmax + 1) * (lmax + 1),):
        raise ValueError("last axis must hold (lmax+1)² coefficients")
    src, factor, start = _m_major_rows(lmax)
    rows = c.view(np.float64)[..., src] * factor
    tables, n = c.shape[:-1], xyz.shape[-2]
    shared = xyz.ndim == 2
    ct, st, phi = _angles(xyz)
    z = np.exp(1j * phi)
    power = np.ones(z.shape + (1, 2), dtype=np.complex128)     # (e^{imφ}, e^{-imφ})
    # real matmul output, read as complex (A, B) pairs: (n, tables, 2) at
    # shared points (all tables in one matmul), else (leading axes..., n, 1, 2)
    if shared:
        part = np.empty((n, 4 * math.prod(tables)))
        pairs = part.view(np.complex128).reshape(n, -1, 2)
    else:
        part = np.empty(np.broadcast_shapes(xyz.shape[:-2], tables) + (n, 4))
        pairs = part.view(np.complex128)[..., None, :]
    acc = np.zeros_like(pairs)
    degree_last = tuple(range(1, ct.ndim + 1)) + (0,)      # slab (l, ..., n) -> (..., n, l)
    for m, plm in _legendre_slabs(ct, st, lmax):
        block = rows[..., 4 * start[m] : 4 * start[m + 1]].reshape(tables + (4, -1))
        if shared:
            block = block.reshape(-1, block.shape[-1])
        np.matmul(plm.transpose(degree_last), block.swapaxes(-1, -2), out=part)
        if m > 0:
            power[..., 0, 0] *= z
            np.conjugate(power[..., 0, 0], out=power[..., 0, 1])
            pairs *= power
        acc += pairs
    vals = acc[..., 0] + acc[..., 1]
    return vals.T.reshape(tables + (n,)) if shared else vals[..., 0]
