"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The single performance-critical loop in this package is evaluation of the
complex spherical-harmonic basis Y_lm (Condon-Shortley phase) at arbitrary
unit vectors: synthesis and projection reduce to a basis-matrix build
followed by a matmul.  Rotations act on coefficients
(``harmonics.rotate_stack``) and build no basis; only the resampling
cross-check route (``harmonics.rotate_values``) builds one at rotated nodes.
The basis build is implemented twice with identical recurrences:

* ``ylm_basis_numba``  -- @njit(parallel) kernel, one grid point per lane
* ``ylm_basis_numpy``  -- vectorized numpy, loops over (l, m) only

``ylm_basis`` dispatches to the numba kernel unless the environment variable
``RP2QUANT_NO_NUMBA`` is set to a truthy value (or numba is unavailable).
Both paths are deterministic; see benchmarks/bench_harmonics.py for timings.

Recurrence (fully normalized associated Legendre, ct = cos(theta)):
    P[0,0] = 1/sqrt(4*pi)
    P[m,m]   = -sqrt((2m+1)/(2m)) * sin(theta) * P[m-1,m-1]
    P[m+1,m] =  sqrt(2m+3) * ct * P[m,m]
    P[l,m]   =  a(l,m) * (ct * P[l-1,m] - b(l,m) * P[l-2,m])
with a(l,m) = sqrt((4l^2-1)/(l^2-m^2)),
     b(l,m) = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)),
and Y[l,-m] = (-1)^m * conj(Y[l,m]).
"""

import math
import os

import numpy as np

_TRUTHY = {"1", "true", "yes", "on"}


def _numba_disabled() -> bool:
    return os.environ.get("RP2QUANT_NO_NUMBA", "").strip().lower() in _TRUTHY


try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    numba = None
    HAVE_NUMBA = False

_COEFF_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _recurrence_tables(lmax: int):
    """Precomputed diagonal/raising/two-term coefficients up to lmax."""
    if lmax in _COEFF_CACHE:
        return _COEFF_CACHE[lmax]
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
    _COEFF_CACHE[lmax] = (diag, raise_, (two_a, two_b))
    return _COEFF_CACHE[lmax]


def ylm_basis_numpy(xyz: np.ndarray, lmax: int) -> np.ndarray:
    """Basis matrix Y[point, l*l + l + m] via vectorized recurrences."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=np.float64))
    n = xyz.shape[0]
    diag, raise_, (two_a, two_b) = _recurrence_tables(lmax)

    ct = xyz[:, 2]
    st = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])

    out = np.zeros((n, (lmax + 1) * (lmax + 1)), dtype=np.complex128)
    # plm[l] holds P[l, m] for the current m
    plm = np.zeros((lmax + 1, n))
    pmm = np.full(n, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(lmax + 1):
        if m > 0:
            pmm = diag[m] * st * pmm
        plm[m] = pmm
        if m + 1 <= lmax:
            plm[m + 1] = raise_[m] * ct * plm[m]
        for l in range(m + 2, lmax + 1):
            plm[l] = two_a[l, m] * (ct * plm[l - 1] - two_b[l, m] * plm[l - 2])
        phase = np.exp(1j * m * phi)
        sign = -1.0 if m % 2 else 1.0
        for l in range(m, lmax + 1):
            y = plm[l] * phase
            out[:, l * l + l + m] = y
            if m > 0:
                out[:, l * l + l - m] = sign * np.conj(y)
    return out


if HAVE_NUMBA:

    @numba.njit(cache=True, inline="always")
    def _ylm_point(xyz, lmax, diag, raise_, two_a, two_b, out, p):  # pragma: no cover
        ct = xyz[p, 2]
        st = math.hypot(xyz[p, 0], xyz[p, 1])
        phi = math.atan2(xyz[p, 1], xyz[p, 0])
        plm = np.zeros(lmax + 1)
        pmm = 1.0 / math.sqrt(4.0 * math.pi)
        for m in range(lmax + 1):
            if m > 0:
                pmm = diag[m] * st * pmm
            plm[m] = pmm
            if m + 1 <= lmax:
                plm[m + 1] = raise_[m] * ct * plm[m]
            for l in range(m + 2, lmax + 1):
                plm[l] = two_a[l, m] * (ct * plm[l - 1] - two_b[l, m] * plm[l - 2])
            c = math.cos(m * phi)
            s = math.sin(m * phi)
            sign = -1.0 if m % 2 else 1.0
            for l in range(m, lmax + 1):
                re = plm[l] * c
                im = plm[l] * s
                out[p, l * l + l + m] = complex(re, im)
                if m > 0:
                    out[p, l * l + l - m] = complex(sign * re, -sign * im)

    @numba.njit(cache=True, parallel=True)
    def _ylm_basis_par(xyz, lmax, diag, raise_, two_a, two_b, out):  # pragma: no cover
        for p in numba.prange(xyz.shape[0]):
            _ylm_point(xyz, lmax, diag, raise_, two_a, two_b, out, p)

    @numba.njit(cache=True)
    def _ylm_basis_ser(xyz, lmax, diag, raise_, two_a, two_b, out):  # pragma: no cover
        for p in range(xyz.shape[0]):
            _ylm_point(xyz, lmax, diag, raise_, two_a, two_b, out, p)

    # below this many points the thread fan-out costs more than the work
    PARALLEL_THRESHOLD = 2048

    def ylm_basis_numba(xyz: np.ndarray, lmax: int) -> np.ndarray:
        """Basis matrix Y[point, l*l + l + m] via the jitted kernels."""
        xyz = np.ascontiguousarray(np.atleast_2d(np.asarray(xyz, dtype=np.float64)))
        diag, raise_, (two_a, two_b) = _recurrence_tables(lmax)
        out = np.zeros((xyz.shape[0], (lmax + 1) * (lmax + 1)), dtype=np.complex128)
        kernel = _ylm_basis_par if xyz.shape[0] >= PARALLEL_THRESHOLD else _ylm_basis_ser
        kernel(xyz, lmax, diag, raise_, two_a, two_b, out)
        return out

else:  # pragma: no cover - exercised only on stripped installs
    ylm_basis_numba = None


def backend_name() -> str:
    """Name of the kernel backend selected at import/dispatch time."""
    if HAVE_NUMBA and not _numba_disabled():
        return "numba"
    return "numpy"


def ylm_basis(xyz: np.ndarray, lmax: int) -> np.ndarray:
    """Complex spherical-harmonic basis at unit vectors, backend-dispatched.

    Returns an (n_points, (lmax+1)^2) complex matrix with column index
    l*l + l + m.
    """
    if HAVE_NUMBA and not _numba_disabled():
        return ylm_basis_numba(xyz, lmax)
    return ylm_basis_numpy(xyz, lmax)
