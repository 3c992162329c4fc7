"""The spherical-harmonic basis build, the package's hot numeric kernel.

The single performance-critical loop in this package is evaluation of the
complex spherical-harmonic basis Y_lm (Condon-Shortley phase) at arbitrary
unit vectors: ``harmonics.evaluate`` at arbitrary points is a basis build
followed by a matmul.  On the quadrature grid, synthesis and projection
(``QuadratureGrid.synthesize`` / ``project``) build the basis only once per
lmax, at the φ = 0 node of each ring, and are otherwise an FFT over azimuth
and a Legendre matmul per m.  Rotations act on coefficients
(``harmonics.rotate_stack``) and build no basis; only the resampling
cross-check route (``harmonics.rotate_values``) builds one at rotated nodes.
``ylm_basis`` is vectorized numpy over the points and loops over (l, m)
only; it is deterministic.  See benchmarks/bench_harmonics.py for timings.

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

import numpy as np

_COEFF_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


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
    _COEFF_CACHE[lmax] = (diag, raise_, two_a, two_b)
    return _COEFF_CACHE[lmax]


def backend_name() -> str:
    """Name of the kernel backend; the basis build is numpy only."""
    return "numpy"


def ylm_basis(xyz: np.ndarray, lmax: int) -> np.ndarray:
    """Complex spherical-harmonic basis at unit vectors.

    Returns an (n_points, (lmax+1)^2) complex matrix with column index
    l*l + l + m.
    """
    xyz = np.atleast_2d(np.asarray(xyz, dtype=np.float64))
    n = xyz.shape[0]
    diag, raise_, two_a, two_b = _recurrence_tables(lmax)

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
