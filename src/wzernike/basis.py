"""W-Zernike functions on the unit disk and the (u, v) mode indexing.

W_{u,v}(r, phi) = sqrt((u+v+1)/pi) R_{u+v}^{|u-v|}(r) exp(i (u-v) phi).
The (u, v) quadrant is in bijection with valid (n, m) pairs via
n = u+v, m = u-v.  The real cos/sin Zernike pair used in optics is
derived from the same radial polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radial import RadialIndex, radial_eval, validate_index

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModeIndex:
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.u < 0 or self.v < 0:
            raise ValueError(f"mode indices must be non-negative, got ({self.u}, {self.v})")

    @property
    def degree(self) -> int:
        return self.u + self.v


@dataclass(frozen=True)
class DiskPoint:
    """Point on the closed unit disk; phi is normalized into [0, 2*pi)."""

    r: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"radius must lie in [0, 1], got {self.r}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)


def mode_to_radial(mode: ModeIndex) -> RadialIndex:
    return RadialIndex(n=mode.u + mode.v, m=mode.u - mode.v)


def radial_to_mode(index: RadialIndex) -> ModeIndex:
    validate_index(index.n, index.m)
    return ModeIndex(u=(index.n + index.m) // 2, v=(index.n - index.m) // 2)


def modes_upto(bandwidth: int) -> list[ModeIndex]:
    """All modes with u+v <= bandwidth, ascending degree then ascending u."""
    return [
        ModeIndex(u, d - u) for d in range(bandwidth + 1) for u in range(d + 1)
    ]


def w_bound(mode: ModeIndex) -> float:
    """Uniform upper bound sqrt((u+v+1)/pi) on |W_{u,v}| over the disk."""
    return math.sqrt((mode.degree + 1) / math.pi)


def w_eval(mode: ModeIndex, p: DiskPoint) -> complex:
    """Evaluate W_{u,v} at a disk point."""
    n, m = mode.degree, mode.u - mode.v
    rad = radial_eval(RadialIndex(n, m), p.r)
    return w_bound(mode) * rad * complex(math.cos(m * p.phi), math.sin(m * p.phi))


def w_eval_grid(mode: ModeIndex, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """W_{u,v} on the outer product of radial nodes r and angles phi."""
    n, m = mode.degree, mode.u - mode.v
    rad = radial_eval(RadialIndex(n, m), np.asarray(r, dtype=float))
    ang = np.exp(1j * m * np.asarray(phi, dtype=float))
    return w_bound(mode) * np.multiply.outer(np.atleast_1d(rad), ang)


def z_eval(index: RadialIndex, signed_m: int, p: DiskPoint) -> float:
    """Real-valued optics Zernike: R_n^|m| cos(|m| phi) for m >= 0, sin for m < 0."""
    if abs(signed_m) != abs(index.m):
        raise ValueError(
            f"signed_m={signed_m} does not select the azimuthal order of {index}"
        )
    m = abs(signed_m)
    rad = radial_eval(index, p.r)
    return rad * (math.cos(m * p.phi) if signed_m >= 0 else math.sin(m * p.phi))
