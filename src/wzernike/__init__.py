"""W-Zernike analysis on the unit disk.

Stable radial-polynomial evaluation, the orthonormal W-Zernike transform,
the su(1,1) + su(1,1) ladder algebra on coefficient space, rigged-Hilbert-
space norm families, and an operator-based image pipeline.
"""

from .radial import RadialIndex, RadialPolynomial, radial_eval
from .basis import DiskPoint, ModeIndex, mode_to_radial, radial_to_mode, w_bound, w_eval
from .transform import (
    CoeffField,
    DiskQuadrature,
    PolarSamples,
    RasterImage,
    analyze,
    build_quadrature,
)
from .algebra import Generator, OperatorSpec, UEAMonomial, apply_operator

__all__ = [
    "RadialIndex",
    "RadialPolynomial",
    "radial_eval",
    "DiskPoint",
    "ModeIndex",
    "mode_to_radial",
    "radial_to_mode",
    "w_bound",
    "w_eval",
    "CoeffField",
    "DiskQuadrature",
    "PolarSamples",
    "RasterImage",
    "analyze",
    "build_quadrature",
    "Generator",
    "OperatorSpec",
    "UEAMonomial",
    "apply_operator",
]
