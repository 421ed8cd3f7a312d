"""Self-verification suites: every acceptance property, runnable as data.

Each check returns a CheckResult with a worst-case figure so failures are
diagnosable.  `acceptance_table` lists them once, with the sizes that
`verify --bandwidth` scales them to for a quick smoke run; the CLI
`verify` subcommand and the acceptance tests both run that table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    Generator,
    OperatorSpec,
    UEAMonomial,
    apply_monomial_composed,
    apply_operator,
    apply_p,
    casimir_apply,
    commutator_residual,
    group_exponential,
    ladder_differential_residual,
    ode_mode_residual,
)
from .basis import DiskPoint, ModeIndex, modes_upto, w_eval_grid
from .radial import (
    N_MAX,
    RadialIndex,
    build_radial,
    radial_exact,
    radial_family,
    recurrence_coefficients,
    recurrence_residual,
)
from .rhs import continuity_report, norm_p, resolvent_field
from .transform import (
    CoeffField,
    PolarSamples,
    analyze,
    build_quadrature,
    disk_pixels,
    max_abs_diff,
    parseval_gap,
    polar_to_raster,
    raster_to_polar,
    synthesize_on,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, tol: float, extra: str = "") -> CheckResult:
    detail = f"worst {worst:.3e} vs tol {tol:.1e}" + (f"; {extra}" if extra else "")
    return CheckResult(name, worst <= tol, detail)


def random_field(rng: np.random.Generator, bandwidth: int,
                 integer: bool = False, hermitian: bool = False) -> CoeffField:
    """Dense field over the triangle with standard complex Gaussian entries."""
    n = bandwidth
    vals = np.zeros((n + 1, n + 1), dtype=complex)
    for u in range(n + 1):
        for v in range(n + 1 - u):
            if integer:
                vals[u, v] = complex(rng.integers(-9, 10), rng.integers(-9, 10))
            else:
                vals[u, v] = complex(rng.normal(), rng.normal())
    if hermitian:
        vals = (vals + np.conj(vals.T)) / 2
    return CoeffField(n, vals)


def check_worked_operator_example() -> CheckResult:
    """Monomial a=(3,0,0), b=(1,0,0) on the unit (4,1) field -> exactly 420 at (7,2)."""
    out = apply_operator(OperatorSpec.of(UEAMonomial(1.0, (3, 0, 0), (1, 0, 0))),
                         CoeffField.basis(4, 1))
    value = out.get(7, 2)
    leakage = out.l2_norm() ** 2 - abs(value) ** 2
    ok = value == 420 + 0j and leakage == 0.0
    return CheckResult(
        "worked operator example: 420 at (7,2), zero elsewhere, exact",
        ok,
        f"value {value}, off-mode energy {leakage}",
    )


def check_gram(bandwidth: int = 16, tol: float = 1e-10) -> CheckResult:
    """Every quadrature inner product <W_a, W_b>, as one weighted matrix product."""
    q = build_quadrature(bandwidth)
    modes = modes_upto(bandwidth)
    grids = np.stack([w_eval_grid(m, q.r, q.phi) for m in modes]).reshape(len(modes), -1)
    weights = np.repeat(q.w * q.angular_weight, q.n_angular)
    gram = (np.conj(grids) * weights) @ grids.T
    worst = float(np.max(np.abs(gram - np.eye(len(modes)))))
    return _result(f"orthonormality Gram, {len(modes)} modes u+v<={bandwidth}", worst, tol)


def check_radial_orthogonality(m_max: int = N_MAX, n_max: int = N_MAX,
                               tol: float = 1e-12) -> CheckResult:
    q = build_quadrature(n_max // 2)
    worst = 0.0
    for m in range(m_max + 1):
        vals = [(n, row * q.r**m) for n, row in radial_family(m, n_max, q.r)]
        for n, a in vals:
            for n2, b in vals:
                got = float(np.sum(a * b * q.w))
                want = 1.0 / (2 * (n + 1)) if n == n2 else 0.0
                worst = max(worst, abs(got - want))
    return _result(f"radial orthogonality m<={m_max}, n<={n_max}", worst, tol)


def check_normalization(n_max: int = N_MAX) -> CheckResult:
    bad = [
        (n, m)
        for n in range(n_max + 1)
        for m in range(n % 2, n + 1, 2)
        if sum(build_radial(RadialIndex(n, m)).coeffs) != 1
    ]
    return CheckResult(
        f"R_n^m(1) = 1 exact (integer sum) for n<={n_max}",
        not bad,
        f"{len(bad)} failures" if bad else "all exact",
    )


def check_oracle_agreement(n_max: int = N_MAX, tol: float = 1e-10) -> CheckResult:
    """The recurrence against exact integer evaluation at r = k / 64."""
    j = 6
    ks = range((1 << j) + 1)
    grid = np.array(ks) / (1 << j)
    worst = 0.0
    for m in range(n_max + 1):
        for n, row in radial_family(m, n_max, grid):
            a = row * grid**m
            poly = build_radial(RadialIndex(n, m))
            b = np.array([radial_exact(poly, k, j) for k in ks])
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
    return _result(
        f"recurrence vs exact integer oracle, n<={n_max}, {len(ks)}-point grid",
        worst, tol,
    )


def check_recurrence(n_max: int = N_MAX - 1, tol: float = 1e-13) -> CheckResult:
    """The degree-mixing identity; it reaches degree n_max + 1."""
    a31, b31 = recurrence_coefficients(3, 1)
    if (a31, b31) != (0.75, 0.25):
        return CheckResult("degree-mixing recurrence", False,
                           f"coefficient spot-check failed: {a31}, {b31}")
    grid = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for n in range(1, n_max + 1):
        for m in range(n % 2, n + 1, 2):
            worst = max(worst, float(np.max(recurrence_residual(RadialIndex(n, m), grid))))
    return _result(f"degree-mixing recurrence, n<={n_max}, 21 points", worst, tol)


def check_commutators(bandwidth: int = 10, seed: int = 2024) -> CheckResult:
    f = random_field(np.random.default_rng(seed), bandwidth, integer=True)
    gens = list(Generator)
    worst = 0.0
    for x in gens:
        for y in gens:
            worst = max(worst, commutator_residual(x, y, f))
    return CheckResult(
        f"commutation relations exact on integer field, bandwidth {bandwidth}",
        worst == 0.0,
        f"worst residual {worst}",
    )


def check_casimir(uv_max: int = 12) -> CheckResult:
    worst = 0.0
    for u in range(uv_max + 1):
        for v in range(uv_max + 1):
            f = CoeffField.basis(u, v)
            for family in "AB":
                worst = max(worst, max_abs_diff(casimir_apply(family, f), -0.25 * f))
    return CheckResult(
        f"Casimir eigenvalue -1/4 exact on basis modes u,v<={uv_max}",
        worst == 0.0,
        f"worst deviation {worst}",
    )


def check_monomial_oracle(bandwidth: int = 6, exp_max: int = 3,
                          tol: float = 1e-12, seed: int = 7) -> CheckResult:
    f = random_field(np.random.default_rng(seed), bandwidth)
    worst = 0.0
    count = 0
    for alpha in itertools.product(range(exp_max + 1), repeat=3):
        for beta in itertools.product(range(exp_max + 1), repeat=3):
            m = UEAMonomial(1.0, alpha, beta)
            got = apply_operator(OperatorSpec.of(m), f)
            want = apply_monomial_composed(m, f)
            scale = max(1.0, float(np.max(np.abs(want.values))))
            worst = max(worst, max_abs_diff(got, want) / scale)
            count += 1
    return _result(
        f"monomial coefficient vs generator composition, {count} cases", worst, tol
    )


def check_multiplication_operator(bandwidth: int = 8, n_fields: int = 20,
                                  tol: float = 1e-9, seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    q = build_quadrature(bandwidth + 1)
    factor = q.r[:, None] * np.exp(1j * q.phi)[None, :]
    worst = 0.0
    for _ in range(n_fields):
        f = random_field(rng, bandwidth)
        lhs = synthesize_on(apply_p(f), q).values
        rhs = synthesize_on(f.with_bandwidth(bandwidth + 1), q).values * factor
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result(
        f"coefficient action of r e^(i phi) vs pointwise product, {n_fields} fields",
        worst, tol,
    )


def check_differential(degree_max: int = 6, h: float = 1e-4,
                       ladder_tol: float = 1e-6, ode_tol: float = 1e-5) -> CheckResult:
    radii = (0.21, 0.38, 0.52, 0.69, 0.84)
    ladders = (Generator.A_PLUS, Generator.A_MINUS, Generator.B_PLUS, Generator.B_MINUS)
    worst_l = worst_o = 0.0
    for mode in modes_upto(degree_max):
        for i, r in enumerate(radii):
            p = DiskPoint(r, 0.7 + 0.4 * i)
            for g in ladders:
                worst_l = max(worst_l, ladder_differential_residual(g, mode, p, h))
            worst_o = max(worst_o, ode_mode_residual(mode, p, h))
    ok = worst_l <= ladder_tol and worst_o <= ode_tol
    return CheckResult(
        f"differential ladder and per-mode ODE residuals, u+v<={degree_max}",
        ok,
        f"ladder {worst_l:.3e} vs {ladder_tol:.0e}, ode {worst_o:.3e} vs {ode_tol:.0e}",
    )


def check_rhs_bounds(bandwidth: int = 12, n_fields: int = 1000,
                     seed: int = 5) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    worst = ""
    res_ok = True
    for _ in range(n_fields):
        f = random_field(rng, bandwidth)
        report = continuity_report(f)
        for c in report.checks:
            if not c.passed:
                failures += 1
                worst = worst or f"{c.name}: {c.lhs} > {c.rhs}"
        for sign in (1, -1):
            g = resolvent_field(f, sign)
            if any(norm_p(g, p) > norm_p(f, p) * (1 + 1e-12) for p in range(4)):
                res_ok = False
            uu, _ = np.indices(g.values.shape)
            back = CoeffField(g.bandwidth, g.values * (uu + sign * 1j))
            if max_abs_diff(back, f) > 1e-12:
                res_ok = False
    ok = failures == 0 and res_ok
    return CheckResult(
        f"continuity/pointwise/resolvent bounds on {n_fields} random fields",
        ok,
        f"{failures} bound failures" + ("" if res_ok else "; resolvent check failed")
        + (f"; first: {worst}" if worst else ""),
    )


def check_parseval_roundtrip(bandwidth: int = 16, n_fields: int = 100,
                             tol: float = 1e-11, seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    q = build_quadrature(bandwidth)
    worst_gap = worst_rt = 0.0
    for _ in range(n_fields):
        f = random_field(rng, bandwidth)
        worst_gap = max(worst_gap, parseval_gap(f, q))
        back = analyze(synthesize_on(f, q), q, bandwidth)
        worst_rt = max(worst_rt, max_abs_diff(back, f))
    worst = max(worst_gap, worst_rt)
    return _result(
        f"Parseval gap and analyze/synthesize roundtrip, N={bandwidth}, "
        f"{n_fields} fields", worst, tol,
        extra=f"gap {worst_gap:.3e}, roundtrip {worst_rt:.3e}",
    )


def make_test_image_field(bandwidth: int = 8, seed: int = 3) -> CoeffField:
    """A positive real function on the disk, bandlimited, vanishing at r = 1.

    Built as (1 - r^2) times an offset Hermitian field of lower bandwidth;
    the boundary zero keeps the raster's outside-disk zeros from polluting
    the bilinear resampling.
    """
    rng = np.random.default_rng(seed)
    inner = bandwidth - 2
    g = 0.3 * random_field(rng, inner, hermitian=True)
    q = build_quadrature(2 * bandwidth)
    gv = synthesize_on(g, q).values.real
    offset = -gv.min() + 0.2 * max(gv.max() - gv.min(), 1.0)
    g = g + CoeffField.from_modes({(0, 0): offset * math.sqrt(math.pi)}, bandwidth=inner)
    fv = (1 - q.r[:, None] ** 2) * synthesize_on(g, q).values.real
    return analyze(PolarSamples(q, fv.astype(complex)), q, bandwidth)


def check_pipeline(bandwidth: int = 16, image_bandwidth: int = 8, size: int = 256,
                   rms_tol: float = 0.02, seed: int = 3) -> CheckResult:
    field = make_test_image_field(image_bandwidth, seed)
    img = polar_to_raster(field, size, size, maxval=65535)
    q = build_quadrature(bandwidth)
    samples = raster_to_polar(img, q)
    coeffs = analyze(PolarSamples(q, np.abs(samples.values).astype(complex)), q, bandwidth)
    identity = OperatorSpec.of(UEAMonomial(1.0, (0, 0, 0), (0, 0, 0)))
    coeffs = apply_operator(identity, coeffs)
    out = polar_to_raster(coeffs, size, size, maxval=65535)
    mask = disk_pixels(size)[0]
    a = img.pixels[mask] / img.maxval
    b = out.pixels[mask] / out.maxval
    rms = float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(a ** 2)))
    return _result(
        f"image pipeline roundtrip, {size}x{size}, N={bandwidth}", rms, rms_tol
    )


def check_group_exponential(bandwidth: int = 6, order: int = 12,
                            tol: float = 5e-3, seed: int = 17) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for family in "AB":
        for _ in range(5):
            f = random_field(rng, bandwidth)
            params = tuple(rng.uniform(-0.05, 0.05, size=3) / math.sqrt(3))
            g = group_exponential(family, params, order, f)
            worst = max(worst, abs(g.l2_norm() / f.l2_norm() - 1.0))
    return _result(
        f"truncated group exponential norm preservation, K={order}", worst, tol
    )


def acceptance_table(
    scale: int | None = None,
) -> list[tuple[int, str, Callable[[], CheckResult]]]:
    """Every acceptance check as (criterion number, name, call).

    Without a scale each check runs at its own defaults, the full sizes.
    A scale N in 0..N_MAX shrinks the sizes for a quick run, with the radial
    checks to degree 2N; it is checked here, before anything is built.
    """
    if scale is not None and not 0 <= scale <= N_MAX:
        raise ValueError(f"verify scale must be in 0..{N_MAX}, got {scale}")
    n = max(2, scale or 0)
    top = min(2 * n, N_MAX)
    table = (
        (1, "worked_operator_example", check_worked_operator_example, {}),
        (2, "gram_identity", check_gram, dict(bandwidth=n)),
        (3, "radial_orthogonality", check_radial_orthogonality,
         dict(m_max=min(n, 4), n_max=top)),
        (4, "unit_normalization", check_normalization, dict(n_max=top)),
        (5, "oracle_agreement", check_oracle_agreement, dict(n_max=top)),
        # The recurrence and P each reach one degree above their argument.
        (6, "degree_mixing_recurrence", check_recurrence,
         dict(n_max=min(2 * n, N_MAX - 1))),
        (7, "commutators_and_casimir", check_commutators, dict(bandwidth=n)),
        (7, "commutators_and_casimir", check_casimir, dict(uv_max=n)),
        (8, "monomial_oracle", check_monomial_oracle, dict(bandwidth=min(n, 4), exp_max=2)),
        (9, "multiplication_operator", check_multiplication_operator,
         dict(bandwidth=min(n, N_MAX - 1), n_fields=3)),
        (10, "differential_realization", check_differential, dict(degree_max=min(n, 4))),
        (11, "norm_family_bounds", check_rhs_bounds, dict(bandwidth=n, n_fields=20)),
        (12, "parseval_and_roundtrip", check_parseval_roundtrip,
         dict(bandwidth=n, n_fields=5)),
        (13, "image_pipeline", check_pipeline,
         dict(bandwidth=top, image_bandwidth=n, size=64)),
        (14, "group_exponential", check_group_exponential,
         dict(bandwidth=min(n, 4), order=8)),
    )
    return [(number, name, functools.partial(check, **({} if scale is None else kwargs)))
            for number, name, check, kwargs in table]
