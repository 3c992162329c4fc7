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

Batch forms.  The primitives the harness applies per sample also come in a
``*_batch`` form on arrays of rows: a batch of SU(2) elements is an (n, 2)
complex array whose rows are (z0, z1), a batch of points an (n, 3) float
array.  Each formula is written once, as a private helper doing plain real
arithmetic that runs on floats and on arrays alike; the scalar form calls it
on floats, the batch form on columns.  A batch row therefore equals the
scalar result bit for bit (norms go through ``np.vecdot``, which rounds as
``np.linalg.norm`` of one vector does).  ``SU2Element``, ``HElement`` and
``RP2Point`` remain the scalar public API.
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


def _unit_pair(a, b, r0, i0, r1, i1):
    """(|z0|² + |z1|², and the pair scaled to unit norm) from the moduli a, b.

    a = |z0| and b = |z1| are hypot values: abs() of a complex scalar, or
    np.hypot of the components, which rounds the same way.
    """
    n = a * a + b * b
    s = 1.0 / np.sqrt(n)
    return n, r0 * s, i0 * s, r1 * s, i1 * s


def _unimodular(re, im):
    """(|λ|, and λ/|λ| in real parts); |λ| is a hypot, as abs() of a complex is."""
    a = np.hypot(re, im)
    return a, re / a, im / a


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


def _columns(a):
    """Real components (Re z0, Im z0, Re z1, Im z1) of (..., 2) complex rows."""
    a = np.asarray(a, dtype=complex)
    return a[..., 0].real, a[..., 0].imag, a[..., 1].real, a[..., 1].imag


def _complex(re, im) -> np.ndarray:
    """re + i·im without arithmetic, so signed zeros and bits carry over."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _pack(r0, i0, r1, i1) -> np.ndarray:
    return np.stack(np.broadcast_arrays(_complex(r0, i0), _complex(r1, i1)), axis=-1)


def _stack3x3(rows) -> np.ndarray:
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


# ---------------------------------------------------------------- SU(2)

@dataclass(frozen=True)
class SU2Element:
    """Unit pair (z0, z1); normalized on construction."""

    z0: complex
    z1: complex

    def __post_init__(self):
        z0, z1 = complex(self.z0), complex(self.z1)
        n, r0, i0, r1, i1 = _unit_pair(abs(z0), abs(z1), z0.real, z0.imag, z1.real, z1.imag)
        if not abs(n - 1.0) <= UNIT_TOL:
            raise ValueError(f"(z0, z1) norm {n} departs from 1 beyond {UNIT_TOL}")
        object.__setattr__(self, "z0", complex(r0, i0))
        object.__setattr__(self, "z1", complex(r1, i1))

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.z0, np.conj(self.z1)], [-self.z1, np.conj(self.z0)]],
            dtype=complex,
        )

    def inverse(self) -> "SU2Element":
        return SU2Element(self.z0.conjugate(), -self.z1)

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        a, b, c, d = self.z0, self.z1, other.z0, other.z1
        p = _product(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
        return SU2Element(complex(p[0], p[1]), complex(p[2], p[3]))

    def __neg__(self) -> "SU2Element":
        return SU2Element(-self.z0, -self.z1)


SU2_IDENTITY = SU2Element(1.0, 0.0)


def su2_batch(z) -> np.ndarray:
    """Validate and normalize (n, 2) rows (z0, z1) as ``SU2Element`` does."""
    r0, i0, r1, i1 = _columns(z)
    n, *parts = _unit_pair(np.hypot(r0, i0), np.hypot(r1, i1), r0, i0, r1, i1)
    if not np.all(np.abs(n - 1.0) <= UNIT_TOL):
        raise ValueError(f"(z0, z1) norms depart from 1 beyond {UNIT_TOL}")
    return _pack(*parts)


def _su2_rows(g) -> np.ndarray:
    """(z0, z1) as a (2,) array for an ``SU2Element``; (..., 2) rows as given."""
    if isinstance(g, SU2Element):
        return np.array([g.z0, g.z1])
    g = np.asarray(g, dtype=complex)
    if g.shape[-1:] != (2,):
        raise ValueError("SU(2) rows must have shape (..., 2)")
    return g


def su2_product_batch(g, h) -> np.ndarray:
    """Row-wise products g·h of two (n, 2) batches (or one row against a batch)."""
    return su2_batch(_pack(*_product(*_columns(g), *_columns(h))))


@dataclass(frozen=True)
class HElement:
    """Element of the stabilizer subgroup H, tagged by its component."""

    kind: str        # "diagonal" | "antidiagonal"
    lam: complex     # unimodular parameter

    def __post_init__(self):
        if self.kind not in ("diagonal", "antidiagonal"):
            raise ValueError(f"unknown H component {self.kind!r}")
        lam = complex(self.lam)
        a, re, im = _unimodular(lam.real, lam.imag)
        if not abs(a - 1.0) <= UNIT_TOL:
            raise ValueError("lambda must be unimodular")
        object.__setattr__(self, "lam", complex(re, im))

    def embed(self) -> SU2Element:
        """The SU(2) element this H element embeds as."""
        if self.kind == "diagonal":
            return SU2Element(self.lam, 0.0)
        return SU2Element(0.0, self.lam)


def h_embed_batch(antidiagonal, lam) -> np.ndarray:
    """Rows of the embedded H elements ``HElement(kind, lam).embed()``.

    ``antidiagonal`` is a boolean array selecting the component, ``lam`` the
    unimodular parameters (normalized as ``HElement`` does).
    """
    lam = np.asarray(lam, dtype=complex)
    a, re, im = _unimodular(lam.real, lam.imag)
    if not np.all(np.abs(a - 1.0) <= UNIT_TOL):
        raise ValueError("lambda must be unimodular")
    lam = _complex(re, im)
    zero = np.zeros_like(lam)
    rows = np.where(np.asarray(antidiagonal)[..., None],
                    np.stack([zero, lam], axis=-1), np.stack([lam, zero], axis=-1))
    return su2_batch(rows)


def su2_from_axis_angle(psi: float, n_hat) -> SU2Element:
    """u(ψ, n̂) = cos(ψ/2)·Id - i·sin(ψ/2)·(n̂·σ) as a tuple (z0, z1)."""
    n = np.asarray(n_hat, dtype=float)
    if not abs(_norm(n) - 1.0) <= UNIT_TOL:
        raise ValueError("axis must be a unit vector")
    r0, i0, r1, i1 = _axis_angle_pair(psi, n[0], n[1], n[2])
    return SU2Element(complex(r0, i0), complex(r1, i1))


def su2_from_axis_angle_batch(psi, n_hat) -> np.ndarray:
    """Rows u(ψ_k, n̂_k) for (n,) angles and (n, 3) unit axes."""
    n = np.asarray(n_hat, dtype=float)
    if not np.all(np.abs(_norm(n) - 1.0) <= UNIT_TOL):
        raise ValueError("axis must be a unit vector")
    return su2_batch(_pack(*_axis_angle_pair(np.asarray(psi, dtype=float),
                                             n[..., 0], n[..., 1], n[..., 2])))


def _haar_pair(v):
    """(z0, z1) components of a random unit 4-vector, as random_su2 builds them."""
    v = v / _norm(v)[..., None]
    return v[..., 0], v[..., 1], v[..., 2], v[..., 3]


def random_su2(rng: np.random.Generator) -> SU2Element:
    """Haar-uniform SU(2) element via a random unit 4-vector."""
    r0, i0, r1, i1 = _haar_pair(rng.normal(size=4))
    return SU2Element(complex(r0, i0), complex(r1, i1))


def su2_from_normals(v) -> np.ndarray:
    """Rows built from (n, 4) normal draws exactly as ``random_su2`` builds one.

    ``rng.normal(size=(n, 4))`` draws what n calls of ``random_su2`` draw, so
    ``su2_from_normals(rng.normal(size=(n, 4)))`` equals those n elements.
    """
    return su2_batch(_pack(*_haar_pair(np.asarray(v, dtype=float))))


# --------------------------------------------------------------- SO(3)

def spinor_map(g: SU2Element) -> np.ndarray:
    """The 2:1 homomorphism SU(2) → SO(3).

    Returns the unique rotation R with g (x·σ) g† = (R x)·σ for all x ∈ ℝ³,
    i.e. R_ij = ½ tr(σ_i g σ_j g†).  It is evaluated in closed form from the
    unit quaternion (q0, q1, q2, q3) = (Re z0, Im z1, -Re z1, -Im z0), with
    every entry a homogeneous quadratic (diagonal q0² + q1² - q2² - q3² and
    so on), so R(-g) = R(g) holds to rounding even after -g is renormalized.
    The Pauli-trace definition is kept as the test oracle.
    """
    return np.array(_spin_rows(g.z0.real, g.z0.imag, g.z1.real, g.z1.imag))


def spinor_map_batch(g) -> np.ndarray:
    """Spin of each row of an (n, 2) batch: an (n, 3, 3) stack of rotations."""
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


def rotation_from_axis_angle(psi: float, n_hat) -> np.ndarray:
    """Rodrigues form R(ψ, n̂) = Id + sin(ψ)·N + (1 - cos(ψ))·N²."""
    n = np.asarray(n_hat, dtype=float)
    if not abs(_norm(n) - 1.0) <= UNIT_TOL:
        raise ValueError("axis must be a unit vector")
    return np.array(_rodrigues_rows(psi, n[0], n[1], n[2]))


def rotation_from_axis_angle_batch(psi, n_hat) -> np.ndarray:
    """Rodrigues rotations for (n,) angles and (n, 3) unit axes: (n, 3, 3)."""
    n = np.asarray(n_hat, dtype=float)
    if not np.all(np.abs(_norm(n) - 1.0) <= UNIT_TOL):
        raise ValueError("axis must be a unit vector")
    return _stack3x3(_rodrigues_rows(np.asarray(psi, dtype=float),
                                     n[..., 0], n[..., 1], n[..., 2]))


# ------------------------------------------------------------------- H

def h_membership(g: SU2Element) -> HElement | None:
    """Classify g as diagonal/antidiagonal H element, or None if outside H."""
    if abs(g.z1) <= H_CLASSIFY_TOL:
        return HElement("diagonal", g.z0)
    if abs(g.z0) <= H_CLASSIFY_TOL:
        return HElement("antidiagonal", g.z1)
    return None


# ------------------------------------------------------- S² and ℝP²

def unit_vector(x) -> np.ndarray:
    """Validate and renormalize a unit 3-vector (tolerance 1e-9).

    Vectors already unit to 1e-14 are passed through unchanged, which keeps
    canonicalization bitwise idempotent.
    """
    v = np.asarray(x, dtype=float)
    n = _norm(v)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ValueError(f"|x| = {n} departs from 1 beyond {UNIT_TOL}")
    if abs(n - 1.0) > 1e-14:
        return v / n
    return v.copy()


def unit_vector_batch(x) -> np.ndarray:
    """``unit_vector`` applied to each row of an (n, 3) array."""
    v = np.asarray(x, dtype=float)
    n = _norm(v)[..., None]
    if not np.all(np.abs(n - 1.0) <= UNIT_TOL):
        raise ValueError(f"row norms depart from 1 beyond {UNIT_TOL}")
    return np.where(np.abs(n - 1.0) > 1e-14, v / n, v)


def canonical_sign(x) -> float:
    """Sign flip making the last nonzero coordinate of (x₃, x₂, x₁) positive."""
    x1, x2, x3 = np.asarray(x, dtype=float).tolist()
    return -1.0 if _scan_flip(x1, x2, x3) else 1.0


@dataclass(frozen=True)
class RP2Point:
    """Point of ℝP² stored through its canonical unit representative."""

    rep: np.ndarray

    def __post_init__(self):
        # adding 0.0 maps any -0.0 entries to +0.0 so byte-level hashing agrees
        v = unit_vector(self.rep) * canonical_sign(self.rep) + 0.0
        v.flags.writeable = False
        object.__setattr__(self, "rep", v)

    def __eq__(self, other) -> bool:
        return isinstance(other, RP2Point) and np.array_equal(self.rep, other.rep)

    def __hash__(self):
        return hash(self.rep.tobytes())


def rp2_point(x) -> RP2Point:
    """Class [x] of a unit 3-vector (antipodal points identify)."""
    return RP2Point(np.asarray(x, dtype=float))


def rp2_rep_batch(x) -> np.ndarray:
    """Canonical representatives of the rows of an (n, 3) array.

    Row k equals ``rp2_point(x[k]).rep`` bit for bit.
    """
    v = np.asarray(x, dtype=float)
    sign = np.where(_scan_flip(v[..., 0], v[..., 1], v[..., 2]), -1.0, 1.0)
    return unit_vector_batch(v) * sign[..., None] + 0.0


def quotient_to_sphere(g: SU2Element) -> np.ndarray:
    """x(g) = Spin(g)·e₃, the S² point of the class g·U(1)."""
    return np.array(_image_of_e3(g.z0.real, g.z0.imag, g.z1.real, g.z1.imag))


def quotient_to_sphere_batch(g) -> np.ndarray:
    """x(g) for each row of an (n, 2) batch: an (n, 3) array."""
    return np.stack(_image_of_e3(*_columns(g)), axis=-1)


def quotient_to_rp2(g: SU2Element) -> RP2Point:
    """[x(g)], the ℝP² point of the class g·H."""
    return rp2_point(quotient_to_sphere(g))


def su2_from_sphere_point(x) -> SU2Element:
    """A section of SU(2) → S²: the geodesic rotation taking e₃ to x.

    Deterministic choice used when a concrete class representative is needed;
    at the south pole the π-rotation about e₁ is returned.
    """
    v = unit_vector(x)
    if v[2] <= -1.0 + ZERO_TOL:
        return su2_from_axis_angle(np.pi, (1.0, 0.0, 0.0))
    s = _norm(np.array([-v[1], v[0], 0.0]))
    if s < ZERO_TOL:
        return SU2_IDENTITY
    x, y, z = v.tolist()
    r0, i0, r1, i1 = _axis_angle_pair(np.arctan2(s, z), -y / s, x / s, 0.0 / s)
    return SU2Element(complex(r0, i0), complex(r1, i1))


def su2_from_sphere_point_batch(x) -> np.ndarray:
    """``su2_from_sphere_point`` for each row of an (n, 3) array: (n, 2) rows."""
    v = unit_vector_batch(x)
    axis = np.stack([-v[..., 1], v[..., 0], np.zeros_like(v[..., 0])], axis=-1)
    s = _norm(axis)
    south = v[..., 2] <= -1.0 + ZERO_TOL
    pole = ~south & (s < ZERO_TOL)
    generic = ~(south | pole)
    safe = np.where(generic, s, 1.0)[..., None]
    axis = np.where(generic[..., None], axis / safe, [1.0, 0.0, 0.0])
    psi = np.where(generic, np.arctan2(s, v[..., 2]), np.pi)
    rows = su2_from_axis_angle_batch(psi, axis)
    rows[pole] = (1.0, 0.0)
    return rows
