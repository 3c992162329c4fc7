"""Canonical-group quantization toolkit for ℝP² × ℝ₊ at desk scale.

Numerical verification of the group quotients, line bundles, induced unitary
representations, angular-momentum generators, classical moment map,
Weyl/Heisenberg structure on the line, and the transported-spin lift for the
relative configuration space of two indistinguishable spin-zero particles.
"""

from ._kernels import backend_name
from .groups import (
    SU2Element,
    su2_from_axis_angle,
    spinor_map,
    rotation_from_axis_angle,
    quotient_to_sphere,
)
from .harmonics import HarmonicCoeffs, analyze, evaluate, apply_L, rotate_coeffs, wigner_d
from .manifold import build_quadrature, QuadratureGrid, WFunctional

__version__ = "0.1.0"

__all__ = [
    "SU2Element",
    "HarmonicCoeffs",
    "QuadratureGrid",
    "WFunctional",
    "analyze",
    "apply_L",
    "backend_name",
    "build_quadrature",
    "evaluate",
    "quotient_to_sphere",
    "rotate_coeffs",
    "rotation_from_axis_angle",
    "spinor_map",
    "su2_from_axis_angle",
    "wigner_d",
]
