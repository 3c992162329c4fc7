"""SU(2), SO(3), the double-cover spinor map, and the quotients S², ℝP².

Conventions used throughout the package:

* an SU(2) element is the tuple (z0, z1) representing the matrix
      [[ z0,  conj(z1)],
       [-z1,  conj(z0)]],
  so the group product is (a, b)·(z0, z1) = (a z0 - conj(b) z1, b z0 + conj(a) z1);
* u(ψ, n̂) = cos(ψ/2)·Id - i·sin(ψ/2)·(n̂·σ) is the axis-angle element, and the
  spinor map Spin sends u(ψ, n̂) to the right-handed active rotation R(ψ, n̂)
  through g (x·σ) g† = (Spin(g) x)·σ;
* S² ≅ SU(2)/U(1) with base point e₃ = (0, 0, 1): x(g) := Spin(g)·e₃;
* ℝP² ≅ SU(2)/H where H consists of the diagonal elements diag(λ, conj(λ))
  and the antidiagonal elements [[0, conj(λ)], [-λ, 0]] with |λ| = 1.

Projective points carry a canonical sign: the representative is flipped so
that the last coordinate that is nonzero at tolerance 1e-12, scanning
(x₃, x₂, x₁), is positive.

One name per operation.  Each primitive takes one element or point, or a
stack of them, and returns arrays; one input gives the zero-axis result.  A
stack of SU(2) elements is a (..., 2) complex array whose rows are (z0, z1),
and an ``SU2Element`` is accepted wherever one element is; a stack of points
is a (..., 3) float array.  Each formula is written once, as a private
helper doing plain real arithmetic that runs on floats and on arrays alike,
so row k of a stacked call equals the call on row k bit for bit (norms go
through ``np.vecdot``, which rounds as ``np.linalg.norm`` of one vector
does).  ``SU2Element`` is the one object form, kept at the public edge: a
frozen pair validated as rows are, whose product is ``su2_product``'s.
"""

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9          # constructor tolerance for unit-norm inputs
ZERO_TOL = 1e-12         # coordinate treated as zero during canonicalization
H_CLASSIFY_TOL = 1e-10   # tolerance on the vanishing entry for H membership

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


# ------------------------------------------------- shared formula helpers
# Each takes real components, as floats or as equally shaped arrays.

def _norm(v):
    """Euclidean norm along the last axis, rounded as np.linalg.norm(row)."""
    return np.sqrt(np.vecdot(v, v))


def _product(a0r, a0i, a1r, a1i, b0r, b0i, b1r, b1i):
    """(a0, a1)·(b0, b1) = (a0 b0 - conj(a1) b1, a1 b0 + conj(a0) b1)."""
    return (
        (a0r * b0r - a0i * b0i) - (a1r * b1r + a1i * b1i),
        (a0r * b0i + a0i * b0r) - (a1r * b1i - a1i * b1r),
        (a1r * b0r - a1i * b0i) + (a0r * b1r + a0i * b1i),
        (a1r * b0i + a1i * b0r) + (a0r * b1i - a0i * b1r),
    )


def _image_of_e3(r0, i0, r1, i1):
    """Spin(g)·e₃ from the quaternion (q0, q1, q2, q3) = (Re z0, Im z1, -Re z1, -Im z0)."""
    q0, q1, q2, q3 = r0, i1, -r1, -i0
    return (
        2.0 * (q1 * q3 + q0 * q2),
        2.0 * (q2 * q3 - q0 * q1),
        q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
    )


def _spin_rows(r0, i0, r1, i1):
    """Rows of Spin(g), homogeneous in the quaternion (no 1 - 2(…) entries)."""
    q0, q1, q2, q3 = r0, i1, -r1, -i0
    x, y, z = _image_of_e3(r0, i0, r1, i1)
    return (
        (q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2.0 * (q1 * q2 - q0 * q3), x),
        (2.0 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, y),
        (2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), z),
    )


def _axis_angle_pair(psi, x, y, z):
    """Components of u(ψ, n̂) = cos(ψ/2) - i sin(ψ/2)(n̂·σ), before normalization."""
    c, s = np.cos(psi / 2.0), np.sin(psi / 2.0)
    return c, -(s * z), -(s * y), s * x


def _rodrigues_rows(psi, x, y, z):
    """Rows of Id + sin(ψ)·N + (1 - cos(ψ))·N², N the cross-product matrix of n̂."""
    s, t = np.sin(psi), 1.0 - np.cos(psi)
    xx, yy, zz = -(y * y + z * z), -(x * x + z * z), -(x * x + y * y)   # diagonal of N²
    xy, xz, yz = x * y, x * z, y * z                                    # off-diagonal of N²
    return (
        (1.0 + t * xx, -s * z + t * xy, s * y + t * xz),
        (s * z + t * xy, 1.0 + t * yy, -s * x + t * yz),
        (-s * y + t * xz, s * x + t * yz, 1.0 + t * zz),
    )


def _scan_flip(x1, x2, x3):
    """True where the last coordinate nonzero at ZERO_TOL, scanning (x₃, x₂, x₁), is negative."""
    flip, open_ = False, True
    for x in (x3, x2, x1):
        flip = flip | (open_ & (x <= -ZERO_TOL))
        open_ = open_ & (abs(x) < ZERO_TOL)
    return flip


def _complex(re, im) -> np.ndarray:
    """re + i·im without arithmetic, so signed zeros and bits carry over."""
    out = np.empty(np.broadcast(re, im).shape + (2,))
    out[..., 0], out[..., 1] = re, im
    return out.view(complex)[..., 0]


def _pack(r0, i0, r1, i1) -> np.ndarray:
    """(..., 2) complex rows (r0 + i·i0, r1 + i·i1), as ``_complex`` builds them."""
    out = np.empty(np.broadcast(r0, i0, r1, i1).shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = r0, i0, r1, i1
    return out.view(complex)[..., 0]


def _stack3x3(rows) -> np.ndarray:
    """(..., 3, 3) from 3 × 3 nested entries of one shape (one np.array call, not four stacks)."""
    return np.ascontiguousarray(np.moveaxis(np.array(rows), (0, 1), (-2, -1)))


# ---------------------------------------------------------------- SU(2)

def _su2_rows(g) -> np.ndarray:
    """(z0, z1) as a (2,) array for an ``SU2Element``; (..., 2) rows as given."""
    if isinstance(g, SU2Element):
        return np.array([g.z0, g.z1])
    g = np.asarray(g, dtype=complex)
    if g.shape[-1:] != (2,):
        raise ValueError("SU(2) rows must have shape (..., 2)")
    return g


def _columns(g):
    """Real components (Re z0, Im z0, Re z1, Im z1) of an element or (..., 2) rows.

    Indexing with ``[()]`` turns the components of one row into numpy scalars,
    whose arithmetic skips the array machinery; on a stack it is a no-op view.
    """
    a = _su2_rows(g)
    z0, z1 = a[..., 0][()], a[..., 1][()]
    return z0.real, z0.imag, z1.real, z1.imag


def validate_normalize_su2(z) -> np.ndarray:
    """Validate (..., 2) rows (z0, z1) as unit pairs (to UNIT_TOL) and scale them to unit norm."""
    r0, i0, r1, i1 = _columns(z)
    a, b = np.hypot(r0, i0), np.hypot(r1, i1)         # |z0|, |z1|
    n = a * a + b * b
    if not np.all(np.abs(n - 1.0) <= UNIT_TOL):
        raise ValueError(f"(z0, z1) norms depart from 1 beyond {UNIT_TOL}")
    s = 1.0 / np.sqrt(n)
    return _pack(r0 * s, i0 * s, r1 * s, i1 * s)


def _raw_product(g, h) -> np.ndarray:
    """Products g·h as rows, before normalization."""
    return _pack(*_product(*_columns(g), *_columns(h)))


def su2_product(g, h) -> np.ndarray:
    """Products g·h as rows; elements or stacks of rows broadcast."""
    return validate_normalize_su2(_raw_product(g, h))


@dataclass(frozen=True)
class SU2Element:
    """One unit pair (z0, z1), validated and normalized as ``validate_normalize_su2`` does.

    ``g * h`` takes an element or a (2,) row h and equals ``su2_product(g, h)``
    bit for bit.
    """

    z0: complex
    z1: complex

    def __post_init__(self):
        z0, z1 = validate_normalize_su2((self.z0, self.z1))
        object.__setattr__(self, "z0", complex(z0))
        object.__setattr__(self, "z1", complex(z1))

    def __mul__(self, other) -> "SU2Element":
        # the constructor's normalization is su2_product's: normalizing twice moves bits
        return SU2Element(*_raw_product(self, other))


def h_embed(antidiagonal, lam) -> np.ndarray:
    """Rows of the embedded H elements: diag(λ, conj(λ)), or [[0, conj(λ)], [-λ, 0]].

    ``antidiagonal`` is a boolean (array) selecting the component, ``lam``
    the unimodular parameters, normalized to |λ| = 1.
    """
    lam = np.asarray(lam, dtype=complex)
    a = np.hypot(lam.real, lam.imag)
    if not np.all(np.abs(a - 1.0) <= UNIT_TOL):
        raise ValueError("lambda must be unimodular")
    lam = _complex(lam.real / a, lam.imag / a)
    zero = np.zeros_like(lam)
    rows = np.where(np.asarray(antidiagonal)[..., None],
                    np.stack([zero, lam], axis=-1), np.stack([lam, zero], axis=-1))
    return validate_normalize_su2(rows)


def _unit_axis(n_hat):
    """Components of one unit axis or of an (..., 3) stack; non-unit axes raise."""
    n = np.asarray(n_hat, dtype=float)
    if not np.all(np.abs(_norm(n) - 1.0) <= UNIT_TOL):
        raise ValueError("axis must be a unit vector")
    return n[..., 0][()], n[..., 1][()], n[..., 2][()]      # scalars for one axis, as in _columns


def su2_from_axis_angle(psi, n_hat) -> np.ndarray:
    """u(ψ, n̂) = cos(ψ/2)·Id - i·sin(ψ/2)·(n̂·σ) as (z0, z1); angles and axes broadcast."""
    pair = _axis_angle_pair(np.asarray(psi, dtype=float), *_unit_axis(n_hat))
    return validate_normalize_su2(_pack(*pair))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SU(2) element via a random unit 4-vector, as a (2,) row."""
    return su2_from_normals(rng.normal(size=4))


def su2_from_normals(v) -> np.ndarray:
    """Rows (z0, z1) from (..., 4) normal draws, each a random unit 4-vector.

    ``rng.normal(size=(n, 4))`` draws what n calls of ``random_su2`` draw, so
    ``su2_from_normals(rng.normal(size=(n, 4)))`` equals those n rows.
    """
    v = np.asarray(v, dtype=float)
    v = v / _norm(v)[..., None]
    return validate_normalize_su2(_pack(v[..., 0], v[..., 1], v[..., 2], v[..., 3]))


# --------------------------------------------------------------- SO(3)

def spinor_map(g) -> np.ndarray:
    """The 2:1 homomorphism SU(2) → SO(3): (3, 3), or (..., 3, 3) for rows.

    Returns the unique rotation R with g (x·σ) g† = (R x)·σ for all x ∈ ℝ³,
    i.e. R_ij = ½ tr(σ_i g σ_j g†).  It is evaluated in closed form from the
    unit quaternion (q0, q1, q2, q3) = (Re z0, Im z1, -Re z1, -Im z0), with
    every entry a homogeneous quadratic (diagonal q0² + q1² - q2² - q3² and
    so on), so R(-g) = R(g) holds to rounding even after -g is renormalized.
    The Pauli-trace definition is kept as the test oracle.
    """
    return _stack3x3(_spin_rows(*_columns(g)))


def skew_matrix(n) -> np.ndarray:
    """N with N v = n × v; an (..., 3) array gives an (..., 3, 3) stack."""
    v = np.asarray(n, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def rotation_from_axis_angle(psi, n_hat) -> np.ndarray:
    """Rodrigues form R(ψ, n̂) = Id + sin(ψ)·N + (1 - cos(ψ))·N²; angles and axes broadcast."""
    return _stack3x3(_rodrigues_rows(np.asarray(psi, dtype=float), *_unit_axis(n_hat)))


# ------------------------------------------------------- S² and ℝP²

def unit_vector(x) -> np.ndarray:
    """Validate and renormalize a unit 3-vector, or each row of an (..., 3) stack.

    The tolerance is 1e-9.  Vectors already unit to 1e-14 are passed through
    unchanged, which keeps canonicalization bitwise idempotent.
    """
    v = np.asarray(x, dtype=float)
    n = _norm(v)[..., None]
    off = abs(n - 1.0)
    if not (off <= UNIT_TOL).all():
        raise ValueError(f"vector norms depart from 1 beyond {UNIT_TOL}")
    return np.where(off > 1e-14, v / n, v)


def rp2_rep(x) -> np.ndarray:
    """Canonical representative of a unit 3-vector's class, or of each row of a stack.

    The vector is renormalized as ``unit_vector`` does and flipped so that
    the last coordinate that is nonzero at ZERO_TOL, scanning (x₃, x₂, x₁),
    is positive; adding 0.0 maps any -0.0 entry to +0.0.
    """
    v = np.asarray(x, dtype=float)
    sign = np.where(_scan_flip(v[..., 0][()], v[..., 1][()], v[..., 2][()]), -1.0, 1.0)
    return unit_vector(v) * sign[..., None] + 0.0


def quotient_to_sphere(g) -> np.ndarray:
    """x(g) = Spin(g)·e₃, the S² point of the class g·U(1): (3,), or (..., 3) for rows."""
    return np.stack(_image_of_e3(*_columns(g)), axis=-1)


_SOUTH_POLE_ROW = su2_from_axis_angle(np.pi, (1.0, 0.0, 0.0))


def su2_from_sphere_point(x) -> np.ndarray:
    """A section of SU(2) → S²: the geodesic rotation taking e₃ to x, as (z0, z1).

    Deterministic choice used when a concrete class representative is needed:
    the rotation by arctan2(ρ, x₃) about (-x₂, x₁, 0)/ρ, ρ = |(-x₂, x₁, 0)|.
    At the south pole the π-rotation about e₁ is returned, and where
    ρ < ZERO_TOL the exact identity.  An (..., 3) stack gives (..., 2) rows.
    """
    v = unit_vector(x)
    x1, x2, x3 = v[..., 0][()], v[..., 1][()], v[..., 2][()]
    rho = _norm(v[..., [1, 0, 2]] * (-1.0, 1.0, 0.0))     # |(-x₂, x₁, 0)|
    south = x3 <= -1.0 + ZERO_TOL
    generic = ~south & (rho >= ZERO_TOL)
    safe = np.where(generic, rho, 1.0)
    psi = np.where(generic, np.arctan2(rho, x3), 0.0)     # the angle 0 keeps other rows valid
    rows = validate_normalize_su2(_pack(*_axis_angle_pair(psi, -x2 / safe, x1 / safe, 0.0)))
    rows[~generic] = (1.0, 0.0)
    rows[south] = _SOUTH_POLE_ROW
    return rows
