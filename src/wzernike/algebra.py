"""The su(1,1) + su(1,1) ladder algebra on coefficient fields.

Generators act mode by mode: A_+ f_{u,v} -> (u+1) f at (u+1, v),
A_- -> u f at (u-1, v), A_3 multiplies by u + 1/2; the B family mirrors
on v.  Ordered monomials A_+^a1 A_3^a2 A_-^a3 B_+^b1 B_3^b2 B_-^b3 carry
the closed-form factorial coefficient used by the image pipeline, and are
cross-checked against literal generator composition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import DiskPoint, ModeIndex, w_eval
from .transform import CoeffField

# Guard against runaway exponent specs; exceeding it is an error, never a
# silent truncation.
BANDWIDTH_CAP = 128


class Generator(Enum):
    A_PLUS = "A+"
    A_MINUS = "A-"
    A3 = "A3"
    B_PLUS = "B+"
    B_MINUS = "B-"
    B3 = "B3"
    U = "U"
    V = "V"


RAISING = {Generator.A_PLUS, Generator.B_PLUS}
_A_FAMILY = {Generator.A_PLUS, Generator.A_MINUS, Generator.A3, Generator.U}


def apply_generator(g: Generator, f: CoeffField) -> CoeffField:
    """Apply one generator; raising grows the bandwidth by 1 exactly."""
    n = f.bandwidth
    n_out = n + 1 if g in RAISING else n
    if n_out > BANDWIDTH_CAP:
        raise ValueError(f"bandwidth cap {BANDWIDTH_CAP} exceeded")
    out = np.zeros((n_out + 1, n_out + 1), dtype=complex)
    u = np.arange(n + 1)[:, None]
    v = np.arange(n + 1)[None, :]
    vals = f.values
    if g is Generator.A_PLUS:
        out[1 : n + 2, : n + 1] = (u + 1) * vals
    elif g is Generator.A_MINUS:
        out[: n, : n + 1] = (u * vals)[1:, :]
    elif g is Generator.A3:
        out[: n + 1, : n + 1] = (u + 0.5) * vals
    elif g is Generator.U:
        out[: n + 1, : n + 1] = u * vals
    elif g is Generator.B_PLUS:
        out[: n + 1, 1 : n + 2] = (v + 1) * vals
    elif g is Generator.B_MINUS:
        out[: n + 1, : n] = (v * vals)[:, 1:]
    elif g is Generator.B3:
        out[: n + 1, : n + 1] = (v + 0.5) * vals
    elif g is Generator.V:
        out[: n + 1, : n + 1] = v * vals
    # Raising moves degree n to n + 1 = n_out and lowering keeps the
    # triangle, so the constructor invariant holds.
    return CoeffField(n_out, out)


def p_weights(bandwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of P = r exp(i phi) as grids over u, v <= bandwidth.

    P sends f_{u,v} to alpha_{u,v} f at (u+1, v) plus beta_{u,v} f at
    (u, v-1), where, with n = u+v, alpha = (u+1)/sqrt((n+1)(n+2)) and
    beta = v/sqrt(n(n+1)), zero on v = 0.
    """
    u = np.arange(bandwidth + 1)[:, None]
    v = np.arange(bandwidth + 1)[None, :]
    n = u + v
    alpha = (u + 1) / np.sqrt((n + 1) * (n + 2))
    beta = np.zeros(n.shape)
    beta[:, 1:] = v[:, 1:] / np.sqrt(n[:, 1:] * (n[:, 1:] + 1))
    return alpha, beta


def apply_p(f: CoeffField) -> CoeffField:
    """Coefficient-space action of multiplication by r exp(i phi).

    One update per shifted slice; a result that overflows raises ValueError.
    """
    n = f.bandwidth
    if n + 1 > BANDWIDTH_CAP:
        raise ValueError(f"bandwidth cap {BANDWIDTH_CAP} exceeded")
    alpha, beta = p_weights(n)
    out = np.zeros((n + 2, n + 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:, : n + 1] += alpha * f.values
        out[: n + 1, :n] += beta[:, 1:] * f.values[:, 1:]
    return CoeffField(n + 1, _finite(out))


@dataclass(frozen=True)
class UEAMonomial:
    """c * A_+^a1 A_3^a2 A_-^a3 B_+^b1 B_3^b2 B_-^b3 (rightmost acts first)."""

    c: complex
    alpha: tuple[int, int, int]
    beta: tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(e < 0 for e in (*self.alpha, *self.beta)):
            raise ValueError("monomial exponents must be non-negative")


@dataclass(frozen=True)
class OperatorSpec:
    monomials: tuple[UEAMonomial, ...]

    @classmethod
    def of(cls, *monomials: UEAMonomial) -> "OperatorSpec":
        return cls(tuple(monomials))


def _half_power(i: np.ndarray, e: int) -> np.ndarray:
    """(i + 1/2)^e through C pow, as Python's float ** rounds it.

    numpy's vectorised power can differ from it in the last bit once the
    power is inexact (from e = 7 on bases up to 128.5); an overflow gives
    inf.
    """
    out = []
    for x in (i + 0.5).tolist():
        try:
            out.append(x**e)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _family_factors(k: int, exps: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """One family's factors of g on the k surviving indices x = x3 .. x3+k-1.

    With i = x - x3: the rising factorial (i+1)^(x1), the power
    (i+1/2)^x2 and the falling factorial (x)_x3, each a float array.
    """
    x1, x2, x3 = exps
    i = np.arange(k)
    rising = np.ones(k)
    for j in range(x1):
        rising *= i + 1 + j
    falling = np.ones(k)
    for j in range(x3):
        falling *= i + x3 - j
    return rising, _half_power(i, x2), falling


def monomial_g(bandwidth: int, alpha: tuple[int, int, int],
               beta: tuple[int, int, int]) -> np.ndarray:
    """Scalar picked up by the ordered monomial on every surviving mode.

    g(u, v) = (u-a3+1)^(a1) (u-a3+1/2)^a2 (u)_a3 * (v-b3+1)^(b1)
    (v-b3+1/2)^b2 (v)_b3, in rising/falling factorial notation.  A mode
    with u < a3 or v < b3 is annihilated, so only the block u = a3 ..
    bandwidth-b3, v = b3 .. bandwidth-a3 (the modes of degree <= bandwidth
    that survive) is evaluated; entry [i, j] is g(a3+i, b3+j).  The block
    is empty when a3 + b3 > bandwidth.  An entry that overflows reads inf,
    or nan where a power that underflowed to 0 meets one that overflowed.
    """
    k = bandwidth - alpha[2] - beta[2] + 1
    if k <= 0:
        # Return before looping over a3 or b3, which a spec may set to any size.
        return np.zeros((0, 0))
    ru, pu, fu = _family_factors(k, alpha)
    rv, pv, fv = _family_factors(k, beta)
    # Left to right, in the order of the formula, so the rounding of every
    # product is fixed.
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.multiply.outer(ru * pu * fu, rv)
        g *= pv
        g *= fv
    return g


def apply_operator(op: OperatorSpec, f: CoeffField) -> CoeffField:
    """Sum of the monomial actions; the empty spec is the zero operator.

    Each monomial adds c * g * f[a3:, b3:] into one output array as a
    slice at [a1:, b1:], in spec order.  Modes whose coefficient is zero
    contribute nothing, even where g overflows.  A spec whose raising
    exponents take the field past BANDWIDTH_CAP, or whose result is not
    finite, raises ValueError.
    """
    n = f.bandwidth
    for m in op.monomials:
        if n + m.alpha[0] + m.beta[0] > BANDWIDTH_CAP:
            raise ValueError(f"bandwidth cap {BANDWIDTH_CAP} exceeded")
    n_out = max([0] + [n + m.alpha[0] - m.alpha[2] + m.beta[0] - m.beta[2]
                       for m in op.monomials])
    out = np.zeros((n_out + 1, n_out + 1), dtype=complex)
    for m in op.monomials:
        a1, _, a3 = m.alpha
        b1, _, b3 = m.beta
        g = monomial_g(n, m.alpha, m.beta)
        k = g.shape[0]
        src = f.values[a3 : a3 + k, b3 : b3 + k]
        g[src == 0] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            # c g f from real parts, rounded as Python rounds the scalar
            # product (c g) f; numpy's complex multiply may fuse it (FMA).
            cr, ci = m.c.real * g, m.c.imag * g
            out.real[a1 : a1 + k, b1 : b1 + k] += cr * src.real - ci * src.imag
            out.imag[a1 : a1 + k, b1 : b1 + k] += cr * src.imag + ci * src.real
    return CoeffField(n_out, _finite(out))


def _finite(values: np.ndarray) -> np.ndarray:
    """values, or ValueError if any entry overflowed to inf or nan."""
    if not np.isfinite(values).all():
        raise ValueError("the operator result overflows: non-finite coefficients")
    return values


def apply_monomial_composed(m: UEAMonomial, f: CoeffField) -> CoeffField:
    """Oracle: literal generator composition, rightmost factor first."""
    order = (
        (Generator.B_MINUS, m.beta[2]),
        (Generator.B3, m.beta[1]),
        (Generator.B_PLUS, m.beta[0]),
        (Generator.A_MINUS, m.alpha[2]),
        (Generator.A3, m.alpha[1]),
        (Generator.A_PLUS, m.alpha[0]),
    )
    out = f
    for g, count in order:
        for _ in range(count):
            out = apply_generator(g, out)
    return m.c * out


_EXPECTED_COMMUTATORS: dict[tuple[Generator, Generator], tuple[float, Generator | None]] = {
    (Generator.A_PLUS, Generator.A_MINUS): (-2.0, Generator.A3),
    (Generator.A3, Generator.A_PLUS): (1.0, Generator.A_PLUS),
    (Generator.A3, Generator.A_MINUS): (-1.0, Generator.A_MINUS),
    (Generator.U, Generator.A_PLUS): (1.0, Generator.A_PLUS),
    (Generator.U, Generator.A_MINUS): (-1.0, Generator.A_MINUS),
    (Generator.B_PLUS, Generator.B_MINUS): (-2.0, Generator.B3),
    (Generator.B3, Generator.B_PLUS): (1.0, Generator.B_PLUS),
    (Generator.B3, Generator.B_MINUS): (-1.0, Generator.B_MINUS),
    (Generator.V, Generator.B_PLUS): (1.0, Generator.B_PLUS),
    (Generator.V, Generator.B_MINUS): (-1.0, Generator.B_MINUS),
}


def expected_commutator(x: Generator, y: Generator) -> tuple[float, Generator | None]:
    """Scalar multiple and generator equal to [x, y]; (0, None) when they commute."""
    if (x, y) in _EXPECTED_COMMUTATORS:
        return _EXPECTED_COMMUTATORS[(x, y)]
    if (y, x) in _EXPECTED_COMMUTATORS:
        s, g = _EXPECTED_COMMUTATORS[(y, x)]
        return -s, g
    x_in_a = x in _A_FAMILY
    y_in_a = y in _A_FAMILY
    if x_in_a != y_in_a or x is y:
        return 0.0, None  # cross family, or trivially [X, X]
    diagonal = {Generator.A3, Generator.U, Generator.B3, Generator.V}
    if x in diagonal and y in diagonal:
        return 0.0, None
    raise ValueError(
        f"no commutation relation registered for ({x.value}, {y.value}); "
        f"supported: " + ", ".join(f"[{a.value},{b.value}]" for a, b in _EXPECTED_COMMUTATORS)
    )


def commutator_residual(x: Generator, y: Generator, f: CoeffField) -> float:
    """Max-norm of ([x, y] - expected) f; exactly 0 on integer fields."""
    xy = apply_generator(x, apply_generator(y, f))
    yx = apply_generator(y, apply_generator(x, f))
    scale, g = expected_commutator(x, y)
    expected = scale * apply_generator(g, f) if g is not None else CoeffField.zeros(0)
    diff = (xy - yx) - expected
    return float(np.max(np.abs(diff.values)))


def _family_generators(family: str) -> tuple[Generator, Generator, Generator]:
    """The (raising, lowering, diagonal) generators of family 'A' or 'B'."""
    if family == "A":
        return Generator.A_PLUS, Generator.A_MINUS, Generator.A3
    if family == "B":
        return Generator.B_PLUS, Generator.B_MINUS, Generator.B3
    raise ValueError(f"family must be 'A' or 'B', got {family!r}")


def casimir_apply(family: str, f: CoeffField) -> CoeffField:
    """X3^2 - (X+ X- + X- X+)/2, composed from generator applications.

    Returns -f/4 for every input: the j = 1/2 discrete-series eigenvalue.
    """
    plus, minus, diag = _family_generators(family)
    d2 = apply_generator(diag, apply_generator(diag, f))
    pm = apply_generator(plus, apply_generator(minus, f))
    mp = apply_generator(minus, apply_generator(plus, f))
    return (d2 - 0.5 * (pm + mp)).with_bandwidth(f.bandwidth)


def group_exponential(family: str, params: tuple[float, float, float],
                      order: int, f: CoeffField) -> CoeffField:
    """Taylor truncation of exp(iX) f with X = a1(X+ + X-) + i a2(X+ - X-) + a3 X3.

    Bandwidth grows by `order`; no scaling-and-squaring, by design.
    """
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    plus, minus, diag = _family_generators(family)
    a1, a2, a3 = params

    def x_apply(g: CoeffField) -> CoeffField:
        gp = apply_generator(plus, g)
        gm = apply_generator(minus, g)
        return a1 * (gp + gm) + (1j * a2) * (gp - gm) + a3 * apply_generator(diag, g)

    acc = f.with_bandwidth(f.bandwidth + order)
    term = f
    for k in range(1, order + 1):
        term = (1j / k) * x_apply(term)
        acc = acc + term
    return acc.with_bandwidth(f.bandwidth + order)


def ladder_differential_residual(which: Generator, mode: ModeIndex,
                                 p: DiskPoint, h: float) -> float:
    """Residual of the first-order differential realization of a ladder step.

    D_R is central-differenced; U, V and the square-root factor are replaced
    by the eigenvalues of the input mode (the diagonal reading, which is the
    one reproducing the per-mode ladder action).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if not (h <= p.r <= 1 - h):
        raise ValueError(f"radius {p.r} too close to 0 or 1 for step {h}")
    u, v = mode.u, mode.v
    n = u + v
    r, phi = p.r, p.phi

    w0 = w_eval(mode, p)
    wp = w_eval(mode, DiskPoint(r + h, phi))
    wm = w_eval(mode, DiskPoint(r - h, phi))
    dw = (wp - wm) / (2 * h)

    if which in (Generator.A_PLUS, Generator.A_MINUS):
        sign = 1 if which is Generator.A_PLUS else -1
        angular = cmath.exp(1j * sign * phi)
        axial = (u - v) / r * w0
    elif which in (Generator.B_PLUS, Generator.B_MINUS):
        sign = 1 if which is Generator.B_PLUS else -1
        angular = cmath.exp(-1j * sign * phi)
        axial = -(u - v) / r * w0
    else:
        raise ValueError(f"{which.value} is not a ladder generator")
    root = math.sqrt((n + 1 + sign) / (n + 1))
    lhs = (angular / 2) * (
        -sign * (1 - r * r) * dw + r * (n + 1 + sign) * w0 + axial
    ) * root

    if which is Generator.A_PLUS:
        rhs = (u + 1) * w_eval(ModeIndex(u + 1, v), p)
    elif which is Generator.A_MINUS:
        rhs = u * w_eval(ModeIndex(u - 1, v), p) if u > 0 else 0j
    elif which is Generator.B_PLUS:
        rhs = (v + 1) * w_eval(ModeIndex(u, v + 1), p)
    else:
        rhs = v * w_eval(ModeIndex(u, v - 1), p) if v > 0 else 0j
    return abs(lhs - rhs)


def ode_mode_residual(mode: ModeIndex, p: DiskPoint, h: float) -> float:
    """Finite-difference residual of the per-mode second-derivative identity."""
    if h <= 0:
        raise ValueError("step h must be positive")
    if not (h <= p.r <= 1 - h):
        raise ValueError(f"radius {p.r} too close to 0 or 1 for step {h}")
    u, v = mode.u, mode.v
    n, m = u + v, u - v
    r, phi = p.r, p.phi
    w0 = w_eval(mode, p)
    wp = w_eval(mode, DiskPoint(r + h, phi))
    wm = w_eval(mode, DiskPoint(r - h, phi))
    d1 = (wp - wm) / (2 * h)
    d2 = (wp - 2 * w0 + wm) / (h * h)
    rhs = ((3 * r - 1 / r) * d1 - n * (n + 2) * w0 + m * m / (r * r) * w0) / (1 - r * r)
    return abs(d2 - rhs)
