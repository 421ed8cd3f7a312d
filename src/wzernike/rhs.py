"""Weighted norm families on coefficient fields and continuity-bound checks.

Two families: the l2 norms ||f||_p with weight (u+v+1)^(2p), and the
l1-weighted norms ||f||_{1,q} with weight (u+v+1)^q.  Every boundedness
inequality the operator algebra satisfies is re-evaluated numerically on
concrete fields and flagged in a NormReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .algebra import RAISING, Generator, apply_generator, apply_p
from .transform import CoeffField, build_quadrature, synthesize_on

# (u+v+1)^16 at bandwidth 12 is still comfortably inside double range;
# higher weights add no test power.
P_MAX = 8

# Slack for comparing provably-true inequalities under rounding.
_EPS = 1e-12


def _degree_weights(bandwidth: int) -> np.ndarray:
    """The (u+v+1) grid over u, v <= bandwidth, as floats."""
    uu, vv = np.indices((bandwidth + 1, bandwidth + 1))
    return (uu + vv + 1).astype(float)


def _finite_norm(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("norm overflows the double range")
    return value


def _norms_p(values: np.ndarray, w: np.ndarray, ps) -> list[float]:
    """||f||_p for each p in ps, with w a (u+v+1) grid covering `values`.

    Scaled by max |f| before squaring, as LAPACK's dnrm2 does, so huge
    coefficients do not overflow and tiny ones do not underflow to 0;
    |f| and the scale are computed once for all p.
    """
    k = values.shape[0]
    a = np.abs(values)
    s = float(np.max(a, initial=0.0))
    if s == 0.0:
        return [0.0 for _ in ps]
    a /= s
    return [_finite_norm(s * float(np.sqrt(np.sum((a * w[:k, :k] ** p) ** 2))))
            for p in ps]


def _norms_1q(values: np.ndarray, w: np.ndarray, qs) -> list[float]:
    """||f||_(1,q) for each q in qs, with w as in `_norms_p`."""
    k = values.shape[0]
    a = np.abs(values)
    return [_finite_norm(float(np.sum(a * w[:k, :k] ** q))) for q in qs]


def norm_p(f: CoeffField, p: int) -> float:
    """sqrt(sum |f_{u,v}|^2 (u+v+1)^(2p)); p = 0 is the plain l2 norm."""
    if not 0 <= p <= P_MAX:
        raise ValueError(f"norm index p must be in 0..{P_MAX}")
    return _norms_p(f.values, _degree_weights(f.bandwidth), (p,))[0]


def norm_1q(f: CoeffField, q: int) -> float:
    """sum |f_{u,v}| (u+v+1)^q; q = 0 is the l1 norm of the coefficients."""
    if not 0 <= q <= P_MAX:
        raise ValueError(f"norm index q must be in 0..{P_MAX}")
    return _norms_1q(f.values, _degree_weights(f.bandwidth), (q,))[0]


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + _EPS * max(1.0, self.rhs)


@dataclass(frozen=True)
class NormReport:
    p_norms: tuple[float, ...]
    q_norms: tuple[float, ...]
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def continuity_report(f: CoeffField, index_max: int = 3) -> NormReport:
    """Evaluate the continuity and pointwise bounds on one field.

    Checks, for p, r = 0..index_max:
      ||Uf||_p <= ||f||_{p+1} and the same for V, A-, B-;
      ||A+ f||_p <= 2^p ||f||_{p+1} and the same for B+;
      ||Pf||_{1,r} <= (2^r + 1) ||f||_{1,r};
      max |f(r, phi)| over a fixed quadrature grid <= ||f||_{1,1} / sqrt(pi).

    Every bound holds for every field.  U, V, A- and B- multiply f_{u,v}
    by at most n+1 = u+v+1 and keep or lower the degree.  A+ sends f_{u,v}
    to (u+1) f_{u,v} at degree n+1, and n+2 <= 2(n+1), so its weight
    (u+1)(n+2)^p is at most 2^p (n+1)^(p+1); the unit (0,0) field attains
    it.  B+ is the same with v.
    """
    if index_max + 1 > P_MAX:
        raise ValueError(f"norm index p must be in 0..{P_MAX}")
    # One weight grid covers f and every image of f checked below, whose
    # bandwidth is at most one more.
    w = _degree_weights(f.bandwidth + 1)
    p_norms = _norms_p(f.values, w, range(index_max + 2))
    # q = 1 also bounds the peak, below
    q_norms = _norms_1q(f.values, w, range(max(index_max, 1) + 1))
    checks: list[BoundCheck] = []
    diagonal_and_ladders = (
        Generator.U, Generator.V,
        Generator.A_PLUS, Generator.A_MINUS,
        Generator.B_PLUS, Generator.B_MINUS,
    )
    for g in diagonal_and_ladders:
        gf_norms = _norms_p(apply_generator(g, f).values, w, range(index_max + 1))
        for p in range(index_max + 1):
            factor = 2**p if g in RAISING else 1
            scale = f"{factor} " if factor > 1 else ""
            checks.append(
                BoundCheck(f"||{g.value} f||_{p} <= {scale}||f||_{p + 1}",
                           gf_norms[p], factor * p_norms[p + 1])
            )
    pf_norms = _norms_1q(apply_p(f).values, w, range(index_max + 1))
    for r in range(index_max + 1):
        checks.append(
            BoundCheck(f"||P f||_(1,{r}) <= (2^{r}+1) ||f||_(1,{r})",
                       pf_norms[r], (2**r + 1) * q_norms[r])
        )
    grid = build_quadrature(f.bandwidth + 2)
    peak = float(np.max(np.abs(synthesize_on(f, grid).values)))
    checks.append(
        BoundCheck("max |f(r,phi)| <= ||f||_(1,1) / sqrt(pi)",
                   peak, q_norms[1] / math.sqrt(math.pi))
    )
    return NormReport(
        p_norms=tuple(p_norms[: index_max + 1]),
        q_norms=tuple(q_norms[: index_max + 1]),
        checks=tuple(checks),
    )


def resolvent_field(f: CoeffField, sign: int) -> CoeffField:
    """g_{u,v} = f_{u,v} / (u +/- i); the algebraic inverse of (U +/- i)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    uu, _ = np.indices(f.values.shape)
    return CoeffField(f.bandwidth, f.values / (uu + sign * 1j))
