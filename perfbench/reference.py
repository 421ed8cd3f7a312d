"""Reference computations for the benchmark's output checks.

Everything here is written from the formulas, not from the program:
nothing is imported from `wzernike`.  The radial polynomials use the
Jacobi three-term recurrence in degree,

    R_n^m(r) = r^m P_s^(0,m)(2 r^2 - 1),   s = (n - m) / 2,

which is forward-stable on [-1, 1], so the values stay accurate up to
degree 60 where the program's explicit-coefficient evaluation does not.
`radial_exact` evaluates the explicit binomial sum in rational
arithmetic and serves the tests as a second, exact reference.

Coefficient arrays are dense (N+1, N+1) complex arrays indexed [u, v],
zero for u + v > N, with W_{u,v} = sqrt((n+1)/pi) R_n^|m| e^{i m phi},
n = u + v, m = u - v.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

COEFF_HEADER = "# zernike-coeffs bandwidth="


# ---------------------------------------------------------------- radial


def radial_exact(n: int, m: int, r: Fraction) -> Fraction:
    """R_n^m(r) from the explicit binomial sum, in exact arithmetic."""
    m = abs(m)
    s = (n - m) // 2
    return sum(
        (-1) ** k * math.comb(n - k, k) * math.comb(n - 2 * k, s - k) * r ** (n - 2 * k)
        for k in range(s + 1)
    )


def radial_orders(m: int, n_max: int, r: np.ndarray):
    """Yield (n, R_n^m(r)) for n = m, m+2, ..., <= n_max by recurrence."""
    r = np.asarray(r, dtype=float)
    y = 2.0 * r * r - 1.0
    rm = r**m
    p_prev = np.ones_like(y)
    if m > n_max:
        return
    yield m, rm * p_prev
    if m + 2 > n_max:
        return
    p = 1.0 + 0.5 * (m + 2) * (y - 1.0)
    yield m + 2, rm * p
    for k in range(2, (n_max - m) // 2 + 1):
        a = 2 * k * (k + m) * (2 * k + m - 2)
        b = (2 * k + m - 1) * ((2 * k + m) * (2 * k + m - 2) * y - m * m)
        c = 2 * (k - 1) * (k + m - 1) * (2 * k + m)
        p, p_prev = (b * p - c * p_prev) / a, p
        yield m + 2 * k, rm * p


def radial(n: int, m: int, r) -> np.ndarray:
    """R_n^m(r) for a single (n, m)."""
    for k, vals in radial_orders(abs(m), n, r):
        if k == n:
            return vals
    raise ValueError(f"invalid radial index ({n}, {m})")


def w_norm(n: int) -> float:
    return math.sqrt((n + 1) / math.pi)


def w_mode(u: int, v: int, r, phi) -> np.ndarray:
    """W_{u,v} at paired points (r, phi)."""
    n, m = u + v, u - v
    return w_norm(n) * radial(n, m, r) * np.exp(1j * m * np.asarray(phi, dtype=float))


def synthesize(coeffs: np.ndarray, r, phi) -> np.ndarray:
    """sum_{u,v} f_{u,v} W_{u,v}(r, phi) at paired points.

    One recurrence per |m|, accumulating both signs of m, so memory stays
    at a few arrays of the point count.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n_max = coeffs.shape[0] - 1
    out = np.zeros(r.shape, dtype=complex)
    for m_abs in range(n_max + 1):
        plus = np.zeros(r.shape, dtype=complex)
        minus = np.zeros(r.shape, dtype=complex)
        for n, rad in radial_orders(m_abs, n_max, r):
            u, v = (n + m_abs) // 2, (n - m_abs) // 2
            plus += coeffs[u, v] * w_norm(n) * rad
            if m_abs:
                minus += coeffs[v, u] * w_norm(n) * rad
        out += plus * np.exp(1j * m_abs * phi)
        if m_abs:
            out += minus * np.exp(-1j * m_abs * phi)
    return out


# ------------------------------------------------------------ quadrature


def gauss_disk(n_max: int):
    """(r, w, phi): Gauss-Legendre in t = r^2 with n_max+1 nodes, weights
    summing to 1/2 (the integral of r dr), and M = max(4, 2 n_max + 2)
    uniform angles.  Exact for every product of modes of degree <= n_max."""
    x, wt = np.polynomial.legendre.leggauss(n_max + 1)
    r = np.sqrt((x + 1.0) / 2.0)
    m = max(4, 2 * n_max + 2)
    return r, wt / 4.0, 2.0 * math.pi * np.arange(m) / m


def project(values: np.ndarray, r: np.ndarray, w: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients of samples on a gauss_disk grid, by FFT in angle and
    one radial sum per m."""
    n_phi = values.shape[1]
    fm = np.fft.fft(values, axis=1) * (2.0 * math.pi / n_phi)  # column m: e^{-i m phi}
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for m_abs in range(n_max + 1):
        for n, rad in radial_orders(m_abs, n_max, r):
            u, v = (n + m_abs) // 2, (n - m_abs) // 2
            out[u, v] = w_norm(n) * np.sum(w * rad * fm[:, m_abs % n_phi])
            if m_abs:
                out[v, u] = w_norm(n) * np.sum(w * rad * fm[:, -m_abs % n_phi])
    return out


# --------------------------------------------------------------- algebra

# Generator actions on a mode (u, v) with value c, from the ladder rules:
# A+ -> (u+1) c at (u+1, v); A- -> u c at (u-1, v); A3 -> (u + 1/2) c;
# the B family acts the same way on v.


def _step(g: str, u: int, v: int):
    if g == "A+":
        return u + 1, v, u + 1
    if g == "A-":
        return u - 1, v, u
    if g == "A3":
        return u, v, u + 0.5
    if g == "B+":
        return u, v + 1, v + 1
    if g == "B-":
        return u, v - 1, v
    if g == "B3":
        return u, v, v + 0.5
    raise ValueError(g)


def monomial_factor(alpha, beta, u: int, v: int):
    """(target mode, factor) of A+^a1 A3^a2 A-^a3 B+^b1 B3^b2 B-^b3 on the
    unit field at (u, v), composing the generators rightmost first."""
    order = (("B-", beta[2]), ("B3", beta[1]), ("B+", beta[0]),
             ("A-", alpha[2]), ("A3", alpha[1]), ("A+", alpha[0]))
    factor = 1.0
    for g, count in order:
        for _ in range(count):
            u, v, k = _step(g, u, v)
            factor *= k
            if factor == 0:
                return (u, v), 0.0
    return (u, v), factor


def apply_spec(spec, coeffs: np.ndarray):
    """Action of a sum of monomials [(c, alpha, beta), ...] on a field.

    Returns (values, scale): values[u, v] is the result as a dict over
    modes, scale[u, v] the sum of the magnitudes of the terms landing on
    that mode, which bounds the rounding error of any summation order.
    """
    values: dict[tuple[int, int], complex] = {}
    scale: dict[tuple[int, int], float] = {}
    n_max = coeffs.shape[0] - 1
    for c, alpha, beta in spec:
        for n in range(n_max + 1):
            for u in range(n + 1):
                f = coeffs[u, n - u]
                if f == 0:
                    continue
                mode, k = monomial_factor(alpha, beta, u, n - u)
                if k == 0:
                    continue
                term = c * k * f
                values[mode] = values.get(mode, 0j) + term
                scale[mode] = scale.get(mode, 0.0) + abs(term)
    return values, scale


def to_dense(values: dict) -> np.ndarray:
    """A {(u, v): c} field as a dense array of the smallest bandwidth."""
    n_max = max(u + v for u, v in values)
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for (u, v), c in values.items():
        out[u, v] = c
    return out


def spec_matches(got: np.ndarray, values: dict, scale: dict, rtol: float = 1e-12) -> bool:
    """Every entry of `got` within rtol of the reference term magnitudes;
    entries no term reaches must be exactly 0."""
    want = np.zeros_like(got)
    tol = np.zeros(got.shape)
    n_got = got.shape[0] - 1
    for (u, v), c in values.items():
        if u + v > n_got:
            if scale[(u, v)] != 0:
                return False
            continue
        want[u, v] = c
        tol[u, v] = rtol * scale[(u, v)]
    return bool(np.all(np.abs(got - want) <= tol))


# ----------------------------------------------------------------- norms


def degree_weights(n_max: int) -> np.ndarray:
    uu, vv = np.indices((n_max + 1, n_max + 1))
    return (uu + vv + 1).astype(float)


def norm_p(coeffs: np.ndarray, p: int) -> float:
    """sqrt(sum |f_{u,v}|^2 (u+v+1)^(2p))."""
    w = degree_weights(coeffs.shape[0] - 1)
    return math.sqrt(float(np.sum(np.abs(coeffs) ** 2 * w ** (2 * p))))


def norm_1q(coeffs: np.ndarray, q: int) -> float:
    """sum |f_{u,v}| (u+v+1)^q."""
    w = degree_weights(coeffs.shape[0] - 1)
    return float(np.sum(np.abs(coeffs) * w**q))


# ----------------------------------------------------------------- files


def parse_coeffs(text: str) -> np.ndarray:
    """Parse a `# zernike-coeffs bandwidth=N` file of `u v re im` lines."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(COEFF_HEADER):
        raise ValueError("missing coefficient header")
    n_max = int(lines[0][len(COEFF_HEADER):])
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    seen = set()
    for line in lines[1:]:
        u, v, re, im = line.split()
        u, v = int(u), int(v)
        if u + v > n_max or (u, v) in seen:
            raise ValueError(f"bad mode ({u}, {v})")
        seen.add((u, v))
        out[u, v] = complex(float(re), float(im))
    return out


def format_coeffs(coeffs: np.ndarray) -> str:
    """Coefficient file text, modes ascending in degree then u."""
    n_max = coeffs.shape[0] - 1
    lines = [f"{COEFF_HEADER}{n_max}"]
    for n in range(n_max + 1):
        for u in range(n + 1):
            c = complex(coeffs[u, n - u])
            lines.append(f"{u} {n - u} {c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"


def parse_spec(text: str):
    """[(c, alpha, beta), ...] from `c_re c_im a1 a2 a3 b1 b2 b3` lines."""
    spec = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        e = [int(x) for x in parts[2:]]
        spec.append((complex(float(parts[0]), float(parts[1])), tuple(e[:3]), tuple(e[3:])))
    return spec


def format_spec(spec) -> str:
    lines = ["# operator-spec"]
    for c, a, b in spec:
        lines.append(f"{c.real!r} {c.imag!r} {a[0]} {a[1]} {a[2]} {b[0]} {b[1]} {b[2]}")
    return "\n".join(lines) + "\n"


def parse_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """(pixels, maxval) of a binary P5 file without header comments."""
    parts = data.split(maxsplit=4)
    if parts[0] != b"P5":
        raise ValueError("not a P5 file")
    width, height, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    dtype = ">u2" if maxval > 255 else "u1"
    body = data[len(data) - width * height * np.dtype(dtype).itemsize:]
    return np.frombuffer(body, dtype=dtype).reshape(height, width).astype(float), maxval


def format_pgm(pixels: np.ndarray, maxval: int) -> bytes:
    height, width = pixels.shape
    dtype = ">u2" if maxval > 255 else "u1"
    return f"P5\n{width} {height}\n{maxval}\n".encode() + pixels.astype(dtype).tobytes()


# ---------------------------------------------------------------- images


def disk_pixels(size: int):
    """(inside mask, r, phi) of pixel centres in the inscribed disk."""
    x = (np.arange(size) + 0.5 - size / 2.0) / (size / 2.0)
    xx, yy = np.meshgrid(x, x)
    rr = np.hypot(xx, yy)
    inside = rr <= 1.0
    return inside, rr[inside], np.arctan2(yy, xx)[inside]


def render(coeffs: np.ndarray, size: int, maxval: int = 255) -> np.ndarray:
    """|f| at disk pixel centres, scaled so the peak reads maxval; 0 outside."""
    inside, r, phi = disk_pixels(size)
    out = np.zeros((size, size))
    out[inside] = np.abs(synthesize(coeffs, r, phi))
    peak = out.max()
    return out * (maxval / peak) if peak > 0 else out
