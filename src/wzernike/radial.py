"""Zernike radial polynomials R_n^m: one recurrence kernel, one exact oracle.

Every production evaluation goes through `radial_family`, which runs the
Jacobi three-term recurrence in degree for one azimuthal order m and
yields R_m^m, R_{m+2}^m, ... (divided by r^m) over a whole point set in
one pass; `radial_eval(index, r)` is its last row for a single (n, m).
`build_radial` serves only the exact oracle: it keeps the explicit
integer binomial coefficients, which pass 2**53 at n = 46, so they are
never evaluated in floating point, only exactly, at dyadic radii, by
`radial_exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Highest degree accepted anywhere; the acceptance checks cover every
# degree up to it, and image work never needs more.
N_MAX = 60


def validate_index(n: int, m: int) -> None:
    """Raise ValueError naming the violated constraint for a bad (n, m)."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got n={n}")
    if n > N_MAX:
        raise ValueError(f"degree cap exceeded: n={n} > {N_MAX}")
    if abs(m) > n:
        raise ValueError(f"azimuthal bound |m| <= n violated: n={n}, m={m}")
    if (n - m) % 2 != 0:
        raise ValueError(f"parity violated: n={n} and m={m} must have the same parity")


@dataclass(frozen=True)
class RadialIndex:
    """A valid (n, m) pair: |m| <= n and n = m (mod 2)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        validate_index(self.n, self.m)


@dataclass(frozen=True)
class RadialPolynomial:
    """Exact integer coefficients c_k of R_n^m, exponents n - 2k, k = 0..(n-|m|)/2."""

    index: RadialIndex
    coeffs: tuple[int, ...]

    @property
    def exponents(self) -> tuple[int, ...]:
        n = self.index.n
        return tuple(n - 2 * k for k in range(len(self.coeffs)))


def build_radial(index: RadialIndex) -> RadialPolynomial:
    """Construct R_n^m from the explicit binomial formula, for the oracle.

    c_k = (-1)^k C(n-k, k) C(n-2k, (n-|m|)/2 - k).  The sum of the signed
    coefficients is exactly 1, so R_n^m(1) = 1 at the integer level, and
    m and -m yield identical polynomials.
    """
    n, m = index.n, abs(index.m)
    q = (n - m) // 2
    coeffs = tuple(
        (-1) ** k * math.comb(n - k, k) * math.comb(n - 2 * k, q - k)
        for k in range(q + 1)
    )
    return RadialPolynomial(index=RadialIndex(n, m), coeffs=coeffs)


def radial_family(m: int, n_max: int, r):
    """Yield (n, R_n^m(r) / r^m) for n = m, m+2, ..., up to n_max.

    R_n^m(r) = r^m P_s^(0,m)(2 r**2 - 1) with s = (n - m)/2, so one pass of
    the Jacobi three-term recurrence in s (Abramowitz & Stegun 22.7.1 with
    alpha = 0, beta = m) gives every radial polynomial of order m.  The
    factor r^m is left to the caller, which applies it once per order.
    Up to N_MAX the rows agree with the exact oracle `radial_exact` to
    4e-15.  The recurrence reads each yielded array again for the next
    rows, so callers must not modify them.
    """
    m = abs(m)
    s_max = (n_max - m) // 2
    if s_max < 0:
        return
    validate_index(m + 2 * s_max, m)
    y = 2.0 * np.asarray(r, dtype=float) ** 2 - 1.0
    if np.any(y > 1.0):
        raise ValueError("radius out of domain: |r| <= 1 required")
    p_prev = np.ones_like(y)
    yield m, p_prev
    if s_max == 0:
        return
    p = ((m + 2) * y - m) / 2
    yield m + 2, p
    for k in range(2, s_max + 1):
        c1 = 2 * k * (k + m) * (2 * k + m - 2)
        c2 = 2 * k + m - 1
        c3 = (2 * k + m) * (2 * k + m - 2)
        c4 = 2 * (k - 1) * (k + m - 1) * (2 * k + m)
        # Integer constants keep every step exact at r = 1, where P = 1.
        nxt = c2 * c3 * y
        nxt -= c2 * m * m
        nxt *= p
        nxt -= c4 * p_prev
        nxt /= c1
        p, p_prev = nxt, p
        yield m + 2 * k, p


def radial_eval(index: RadialIndex, r):
    """Evaluate R_n^m at r in [-1, 1] (scalar or ndarray): the last row of
    radial_family times r^|m|."""
    r = np.asarray(r, dtype=float)
    n, m = index.n, abs(index.m)
    for _, row in radial_family(m, n, r):
        pass
    val = row * r**m if m else row
    return val if np.ndim(val) else float(val)


def radial_exact(poly: RadialPolynomial, k: int, j: int) -> float:
    """R_n^m(k / 2**j) from the integer coefficients in exact arithmetic.

    Horner in t = r**2 over the common denominator 2**(j n), all in Python
    ints; the final int / int division is correctly rounded.  This is the
    oracle for radial_family: it shares no arithmetic with it.
    """
    if not 0 <= k <= 1 << j:
        raise ValueError("radius out of domain: 0 <= k / 2**j <= 1 required")
    n, m = poly.index.n, abs(poly.index.m)
    k2, d = k * k, 1 << (2 * j)
    acc, dj = 0, 1
    for c in poly.coeffs:
        acc = acc * k2 + c * dj
        dj *= d
    return acc * k**m / (1 << (j * n))


def recurrence_coefficients(n: int, m: int) -> tuple[float, float]:
    """Coefficients (a_n^m, b_n^m) of r R_n^m = a R_{n+1}^{m+1} + b R_{n-1}^{m+1}."""
    return (n + m + 2) / (2 * (n + 1)), (n - m) / (2 * (n + 1))


def recurrence_residual(index: RadialIndex, r):
    """Residual of the degree-mixing identity at r (scalar or ndarray);
    exact up to rounding.

    At n = m the lower term vanishes (b = 0) and (n-1, m+1) is skipped.
    """
    n, m = index.n, abs(index.m)
    if n < 1:
        raise ValueError("recurrence requires n >= 1")
    a, b = recurrence_coefficients(n, m)
    rhs = a * radial_eval(RadialIndex(n + 1, m + 1), r)
    if n > m:
        rhs += b * radial_eval(RadialIndex(n - 1, m + 1), r)
    return abs(r * radial_eval(index, r) - rhs)


def ode_residual(index: RadialIndex, r: float, h: float) -> float:
    """Finite-difference residual of the defining radial ODE.

    Central differences of step h for both derivatives; r must stay in
    [h, 1-h] to avoid the 1/r terms at the origin and the endpoint.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if not (h <= r <= 1 - h):
        raise ValueError(f"radius {r} too close to 0 or 1 for step {h}")
    n, m = index.n, abs(index.m)
    f0 = radial_eval(index, r)
    fp = radial_eval(index, r + h)
    fm = radial_eval(index, r - h)
    d1 = (fp - fm) / (2 * h)
    d2 = (fp - 2 * f0 + fm) / (h * h)
    return abs(
        (1 - r * r) * d2 - (3 * r - 1 / r) * d1 + (n * (n + 2) - m * m / (r * r)) * f0
    )
