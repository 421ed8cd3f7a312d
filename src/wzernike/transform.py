"""Disk quadrature and the forward/inverse W-Zernike transform.

The radial rule is Gauss-Legendre in t = r**2, so every retained mode
product is a polynomial the rule integrates exactly; the angular rule is
the uniform trapezoid, which annihilates every aliased harmonic for
M > 2N.  Orthonormality and Parseval therefore hold to rounding.

W_{u,v} is a radial factor times e^{i(u-v)phi}, so on the uniform
angular grid the transform separates (Janssen & Dirksen, JEOS 2007):
`analyze` is one FFT along phi, then per azimuthal order m one product
of the bins +m and -m with a small real radial table; `synthesize_on`
runs the same steps backwards.  The table, sqrt((n+1)/pi) R_n^m at the
radial nodes, is the only cached state, kept in a bounded cache.

Pointwise synthesis and rendering share one per-order radial sum,
`_order_sums`.  Rendering (`synthesize_raster`, `polar_to_raster`) uses
the eight symmetries of the square pixel grid (Chong, Raveendran &
Mukundan, Pattern Recognition 36, 2003): it evaluates only the disk
pixels with 0 <= y <= x, runs the radial sums on their distinct radii,
and writes each value's eight mirror images from one product with a
fixed table of powers of i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import TWO_PI, ModeIndex, w_bound
from .radial import radial_family


@dataclass(frozen=True)
class CoeffField:
    """Finitely supported coefficients f_{u,v}, dense over u+v <= bandwidth.

    values[u, v] holds f_{u,v}; entries with u+v > bandwidth must be zero.
    """

    bandwidth: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.bandwidth
        if n < 0:
            raise ValueError("bandwidth must be non-negative")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (n + 1, n + 1):
            raise ValueError(f"values shape {vals.shape} != ({n + 1}, {n + 1})")
        uu, vv = np.indices(vals.shape)
        if np.any(vals[uu + vv > n] != 0):
            raise ValueError("nonzero coefficient beyond the stated bandwidth")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, bandwidth: int) -> "CoeffField":
        return cls(bandwidth, np.zeros((bandwidth + 1, bandwidth + 1), dtype=complex))

    @classmethod
    def basis(cls, u: int, v: int, bandwidth: int | None = None) -> "CoeffField":
        n = u + v if bandwidth is None else bandwidth
        vals = np.zeros((n + 1, n + 1), dtype=complex)
        vals[u, v] = 1.0
        return cls(n, vals)

    @classmethod
    def from_modes(cls, entries: dict[tuple[int, int], complex],
                   bandwidth: int | None = None) -> "CoeffField":
        n = max((u + v for u, v in entries), default=0)
        if bandwidth is not None:
            if bandwidth < n:
                raise ValueError("entry beyond requested bandwidth")
            n = bandwidth
        vals = np.zeros((n + 1, n + 1), dtype=complex)
        for (u, v), c in entries.items():
            vals[u, v] = c
        return cls(n, vals)

    def get(self, u: int, v: int) -> complex:
        if u + v > self.bandwidth:
            return 0j
        return complex(self.values[u, v])

    def iter_modes(self):
        """Yield (u, v, f_{u,v}) ascending in u+v, then u; f is a Python complex."""
        rows = self.values.tolist()
        for n in range(self.bandwidth + 1):
            for u in range(n + 1):
                yield u, n - u, rows[u][n - u]

    def with_bandwidth(self, bandwidth: int) -> "CoeffField":
        """Pad (or shrink, if the tail is zero) to a new bandwidth."""
        if bandwidth == self.bandwidth:
            return self
        k = min(bandwidth, self.bandwidth) + 1
        if bandwidth < self.bandwidth:
            uu, vv = np.indices(self.values.shape)
            if np.any(self.values[uu + vv > bandwidth] != 0):
                raise ValueError("shrinking would drop nonzero coefficients")
        vals = np.zeros((bandwidth + 1, bandwidth + 1), dtype=complex)
        vals[:k, :k] = self.values[:k, :k]
        return CoeffField(bandwidth, vals)

    def trimmed(self) -> "CoeffField":
        """Smallest bandwidth holding all nonzero coefficients."""
        uu, vv = np.nonzero(self.values)
        n = int((uu + vv).max()) if uu.size else 0
        return self.with_bandwidth(n)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)))

    def conj_transpose(self) -> "CoeffField":
        """The field with f_{u,v} -> conj(f_{v,u})."""
        return CoeffField(self.bandwidth, np.conj(self.values.T))

    def __add__(self, other: "CoeffField") -> "CoeffField":
        n = max(self.bandwidth, other.bandwidth)
        a = self.with_bandwidth(n)
        b = other.with_bandwidth(n)
        return CoeffField(n, a.values + b.values)

    def __sub__(self, other: "CoeffField") -> "CoeffField":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "CoeffField":
        return CoeffField(self.bandwidth, self.values * scalar)

    __rmul__ = __mul__


def max_abs_diff(a: CoeffField, b: CoeffField) -> float:
    return float(np.max(np.abs((a - b).values)))


@dataclass(frozen=True)
class DiskQuadrature:
    """Gauss-Legendre radial rule in t = r**2 plus a uniform angular grid.

    Exact for every product of retained modes with u+v <= bandwidth; the
    radial weights sum to 1/2, the value of the integral of r dr.
    """

    bandwidth: int
    r: np.ndarray
    w: np.ndarray
    phi: np.ndarray

    @property
    def n_radial(self) -> int:
        return len(self.r)

    @property
    def n_angular(self) -> int:
        return len(self.phi)

    @property
    def angular_weight(self) -> float:
        return TWO_PI / self.n_angular


def build_quadrature(bandwidth: int) -> DiskQuadrature:
    """N+1 radial nodes mapped via r = sqrt(t); M = max(4, 2N+2) angles."""
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    x, wt = np.polynomial.legendre.leggauss(bandwidth + 1)
    t = (x + 1.0) / 2.0
    r = np.sqrt(t)
    w = wt / 4.0  # leggauss weights sum to 2; integral of r dr is 1/2
    m = max(4, 2 * bandwidth + 2)
    phi = TWO_PI * np.arange(m) / m
    for arr in (r, w, phi):
        arr.flags.writeable = False
    return DiskQuadrature(bandwidth=bandwidth, r=r, w=w, phi=phi)


@dataclass(frozen=True)
class PolarSamples:
    """Function values on a quadrature grid, shape (n_radial, n_angular)."""

    quadrature: DiskQuadrature
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        expected = (self.quadrature.n_radial, self.quadrature.n_angular)
        if vals.shape != expected:
            raise ValueError(f"sample shape {vals.shape} != quadrature grid {expected}")


@lru_cache(maxsize=8)
def _radial_table(q_bandwidth: int, bandwidth: int) -> np.ndarray:
    """sqrt((n+1)/pi) R_n^m at the radial nodes of build_quadrature(q_bandwidth).

    table[m, s, j] holds the radial factor of W_{s+m,s} and W_{s,s+m}
    (degree n = m + 2s) at r_j, one radial_family pass per order m; rows
    with n > bandwidth are zero.  About 0.9 MB at bandwidth 60.
    """
    r = build_quadrature(q_bandwidth).r
    table = np.zeros((bandwidth + 1, bandwidth // 2 + 1, len(r)))
    for m in range(bandwidth + 1):
        rm = r**m
        for n, row in radial_family(m, bandwidth, r):
            s = (n - m) // 2
            table[m, s] = w_bound(ModeIndex(s + m, s)) * rm * row
    table.flags.writeable = False
    return table


def _orders(bandwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, s) for every m + 2s <= bandwidth: the modes (s+m, s) and (s, s+m)."""
    m, s = np.indices((bandwidth + 1, bandwidth // 2 + 1))
    keep = m + 2 * s <= bandwidth
    return m[keep], s[keep]


def _by_order(coeffs: CoeffField) -> np.ndarray:
    """c[m, s] = (f_{s+m,s}, f_{s,s+m}) for m + 2s <= bandwidth, the two
    families of order m, and 0 elsewhere; order 0 has one family, in
    column 0."""
    n = coeffs.bandwidth
    m, s = _orders(n)
    c = np.zeros((n + 1, n // 2 + 1, 2), dtype=complex)
    c[m, s, 0] = coeffs.values[s + m, s]
    c[m, s, 1] = coeffs.values[s, s + m]
    c[0, :, 1] = 0
    return c


def analyze(samples: PolarSamples, q: DiskQuadrature, bandwidth: int) -> CoeffField:
    """Project samples onto the modes with u+v <= bandwidth.

    f_{u,v} = sum_jk w_j (2 pi / M) conj(W_{u,v}(r_j, phi_k)) s_{jk}; exact
    for sample sets generated from a field of compatible bandwidth.  The
    sum over k is bin (u - v) mod M of an FFT along phi; the sum over j is
    one product with the radial table per order.
    """
    if samples.quadrature is not q and (
        samples.quadrature.n_radial != q.n_radial
        or samples.quadrature.n_angular != q.n_angular
    ):
        raise ValueError("samples were taken on a different quadrature grid")
    if bandwidth > q.bandwidth:
        raise ValueError(
            f"bandwidth {bandwidth} exceeds quadrature exactness {q.bandwidth}"
        )
    table = _radial_table(q.bandwidth, bandwidth)
    spectrum = np.fft.fft(samples.values * (q.w * q.angular_weight)[:, None], axis=1)
    order = np.arange(bandwidth + 1)
    # angular[m, j] = (bin +m, bin -m) as four reals, so the real table
    # multiplies it without a complex copy of itself.
    columns = np.stack((order, -order % q.n_angular), axis=1)
    angular = np.ascontiguousarray(np.moveaxis(spectrum[:, columns], 0, 1))
    proj = np.matmul(table, angular.view(float)).view(complex)
    m, s = _orders(bandwidth)
    vals = np.zeros((bandwidth + 1, bandwidth + 1), dtype=complex)
    vals[s + m, s] = proj[m, s, 0]
    vals[s, s + m] = proj[m, s, 1]
    return CoeffField(bandwidth, vals)


def synthesize_on(coeffs: CoeffField, q: DiskQuadrature) -> PolarSamples:
    """Evaluate the truncated expansion on a quadrature grid.

    Per order m, the radial table turns the coefficients of u - v = +m and
    -m into two radial profiles, added into angular bins m and -m mod M;
    an inverse FFT along phi finishes the sum.  Folding the orders mod M
    is exact at the grid angles, so fields of any bandwidth up to N_MAX
    are evaluated correctly, not only those the quadrature integrates.
    """
    n = coeffs.bandwidth
    table = _radial_table(q.bandwidth, n)
    c = _by_order(coeffs)
    profiles = np.matmul(table.transpose(0, 2, 1), c.view(float)).view(complex)
    order = np.arange(n + 1)
    bins = np.zeros((q.n_radial, q.n_angular), dtype=complex)
    np.add.at(bins.T, order % q.n_angular, profiles[:, :, 0])
    np.add.at(bins.T, -order % q.n_angular, profiles[:, :, 1])
    # norm="forward" leaves the inverse unscaled: the plain sum over bins.
    return PolarSamples(q, np.fft.ifft(bins, axis=1, norm="forward"))


def _order_sums(coeffs: CoeffField, r: np.ndarray):
    """Yield (m, sums) for every order m = |u - v| holding a nonzero
    coefficient, ascending in m.

    sums[0] = sum_s f_{s+m,s} sqrt((n+1)/pi) R_n^m(r) / r^m over the
    degrees n = m + 2s, from one radial_family pass on r, and sums[1] is
    the same over f_{s,s+m} (0 at m = 0); shape (2,) + r.shape.  Degrees
    above the last nonzero coefficient of an order are never evaluated.
    The field at z = r e^{i phi} is the sum over the orders of
    sums[0] z^m + sums[1] conj(z)^m.
    """
    c = _by_order(coeffs)
    order, s = np.indices(c.shape[:2])
    c *= np.sqrt((order + 2 * s + 1) / np.pi)[..., None]  # w_bound of degree m + 2s
    nonzero = np.any(c != 0, axis=2)
    for m in map(int, np.flatnonzero(nonzero.any(axis=1))):
        last = np.flatnonzero(nonzero[m])[-1]
        # one (2, 1, ...) column per degree, to broadcast against a row of r
        coef = c[m, : last + 1].reshape((last + 1, 2) + (1,) * r.ndim)
        sums = np.zeros((2,) + r.shape, dtype=complex)
        for n, row in radial_family(m, m + 2 * last, r):
            sums += coef[(n - m) // 2] * row
        yield m, sums


def synthesize_rphi(coeffs: CoeffField, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Pointwise synthesis on paired (r, phi) arrays of equal shape.

    Per order m, the radial sums of `_order_sums` are multiplied once by
    (r e^{+-i phi})^m.  Memory stays O(points).
    """
    r, phi = np.broadcast_arrays(np.asarray(r, float), np.asarray(phi, float))
    out = np.zeros(r.shape, dtype=complex)
    z = r * np.exp(1j * phi)
    zm = np.ones(r.shape, dtype=complex)
    power = 0
    for m, (plus, minus) in _order_sums(coeffs, r):
        # r^m e^{i m phi} to a few ulp per order, as close as
        # exp(1j * m * phi) itself, whose argument m * phi is rounded.
        while power < m:
            zm *= z
            power += 1
        if m:
            plus *= zm
            plus += minus * np.conj(zm)
        out += plus
    return out


def inner_product(a: PolarSamples, b: PolarSamples, q: DiskQuadrature) -> complex:
    """Quadrature approximation of the disk inner product <a, b>."""
    if a.values.shape != b.values.shape:
        raise ValueError("sample shapes differ")
    if a.values.shape != (q.n_radial, q.n_angular):
        raise ValueError("samples do not match the quadrature grid")
    return complex(
        np.sum(np.conj(a.values) * b.values * q.w[:, None]) * q.angular_weight
    )


def parseval_gap(coeffs: CoeffField, q: DiskQuadrature) -> float:
    """|quadrature norm^2 of the synthesized samples - sum |f_{u,v}|^2|."""
    if coeffs.bandwidth > q.bandwidth:
        raise ValueError("quadrature not exact for this bandwidth")
    s = synthesize_on(coeffs, q)
    return abs(inner_product(s, s, q).real - coeffs.l2_norm() ** 2)


@dataclass(frozen=True)
class RasterImage:
    """Grayscale raster with non-negative float intensities."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width)
    maxval: int = 255

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image must be at least 1x1")
        px = np.asarray(self.pixels, dtype=float)
        if px.shape != (self.height, self.width):
            raise ValueError(f"pixel shape {px.shape} != ({self.height}, {self.width})")
        if not np.all(np.isfinite(px)) or np.any(px < 0):
            raise ValueError("intensities must be finite and non-negative")
        object.__setattr__(self, "pixels", px)


def _bilinear(img: RasterImage, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of pixel centers at (i + 1/2, j + 1/2)."""
    px = img.pixels
    gx = np.clip(x - 0.5, 0.0, img.width - 1.0)
    gy = np.clip(y - 0.5, 0.0, img.height - 1.0)
    x0 = np.clip(np.floor(gx).astype(int), 0, img.width - 2) if img.width > 1 else np.zeros_like(gx, dtype=int)
    y0 = np.clip(np.floor(gy).astype(int), 0, img.height - 2) if img.height > 1 else np.zeros_like(gy, dtype=int)
    x1 = np.minimum(x0 + 1, img.width - 1)
    y1 = np.minimum(y0 + 1, img.height - 1)
    fx = gx - x0
    fy = gy - y0
    return (
        px[y0, x0] * (1 - fx) * (1 - fy)
        + px[y0, x1] * fx * (1 - fy)
        + px[y1, x0] * (1 - fx) * fy
        + px[y1, x1] * fx * fy
    )


def raster_to_polar(img: RasterImage, q: DiskQuadrature) -> PolarSamples:
    """Sample the largest inscribed disk at the quadrature nodes."""
    cx, cy = img.width / 2.0, img.height / 2.0
    radius = min(img.width, img.height) / 2.0
    rr = np.multiply.outer(q.r, np.cos(q.phi)) * radius + cx
    yy = np.multiply.outer(q.r, np.sin(q.phi)) * radius + cy
    return PolarSamples(q, _bilinear(img, rr, yy))


# Largest raster side rendered; a MAX_RASTER^2 render at N_MAX stays
# well under 1 GiB.
MAX_RASTER = 2048


def _pixel_centres(size: int) -> np.ndarray:
    """Pixel-centre coordinates along either axis of a size x size raster,
    in units of the inscribed disk's radius; exactly antisymmetric."""
    half = size / 2.0
    return (np.arange(size) + 0.5 - half) / half


def disk_pixels(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pixel centres inside the inscribed disk of a size x size raster.

    Returns the boolean (size, size) mask and, at the masked pixels in
    row-major order, the polar coordinates (r, phi) of their centres in
    units of the disk radius.
    """
    c = _pixel_centres(size)
    xx, yy = np.meshgrid(c, c)
    rr = np.hypot(xx, yy)
    inside = rr <= 1.0
    return inside, rr[inside], np.arctan2(yy, xx)[inside]


def _octant(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The disk pixels with 0 <= y <= x, which represent the whole disk
    under the eight symmetries of the square.

    Returns their centres x and y, their radius, and the flat raster
    indices (reps, 8) of their eight images in the order of `_IMAGES`.
    Row j and column i hold the point (x_i, y_j) of `disk_pixels`; the
    mirror of index i is size - 1 - i.
    """
    c = _pixel_centres(size)
    half = size // 2  # first index with a centre >= 0
    j, i = np.triu_indices(size - half)
    i, j = i + half, j + half
    r = np.hypot(c[i], c[j])
    keep = r <= 1.0
    i, j, r = i[keep], j[keep], r[keep]
    mi, mj = size - 1 - i, size - 1 - j
    rows = np.stack((j, i, j, i, mj, mi, mj, mi), axis=1)
    cols = np.stack((i, j, mi, mj, i, j, mi, mj), axis=1)
    return c[i], c[j], r, rows * size + cols


# The eight images of a representative z0 = x + iy as i^q z0 (conj 0) or
# i^q conj(z0) (conj 1), in the pixel order of `_octant`: (x, y), (y, x),
# (-x, y), (-y, x), (x, -y), (y, -x), (-x, -y), (-y, -x).
_IMAGES = ((0, 0), (1, 1), (2, 1), (1, 0), (0, 1), (3, 0), (2, 0), (3, 1))


def _image_phases() -> np.ndarray:
    """(16, 8) map from the accumulators of `synthesize_raster` to the
    field at the eight images of a representative z0.

    Accumulator row 4k + 2f + p sums, over the orders m = k (mod 4),
    family f of `_order_sums` times z0^m (p = 0) or conj(z0)^m (p = 1).
    At an image z = g w with g = i^q and w = z0 or conj(z0), the terms
    are sums[0] z^m = g^m sums[0] w^m and sums[1] conj(z)^m =
    conj(g)^m sums[1] conj(w)^m, and g^m = i^(q k).
    """
    powers = np.array([1, 1j, -1, -1j])
    k = np.arange(4)
    table = np.zeros((4, 2, 2, 8), dtype=complex)
    for image, (q, conj) in enumerate(_IMAGES):
        table[k, 0, conj, image] = powers[q * k % 4]
        table[k, 1, 1 - conj, image] = powers[-q * k % 4]
    return table.reshape(16, 8)


_PHASES = _image_phases()


def synthesize_raster(coeffs: CoeffField, size: int) -> np.ndarray:
    """The truncated expansion at the pixel centres of a size x size
    raster, as a complex (size, size) array; 0 outside the inscribed disk.

    The disk is evaluated on one octant of pixels, 0 <= y <= x, and
    written to all eight images of each.  Per order m, `_order_sums` runs
    on the distinct radii of the octant, and its sums times z0^m and
    conj(z0)^m, z0 = x + iy, go into the accumulators of residue m mod 4;
    one product with `_PHASES` then gives the eight images.
    """
    if not 1 <= size <= MAX_RASTER:
        raise ValueError(f"raster size {size} outside 1..{MAX_RASTER}")
    x, y, r, images = _octant(size)
    radii, inverse = np.unique(r, return_inverse=True)
    z0 = x + 1j * y
    step = np.stack((z0, np.conj(z0)))
    powers = np.ones_like(step)  # z0^m and conj(z0)^m
    acc = np.zeros((4, 2, 2, len(z0)), dtype=complex)
    power = 0
    for m, sums in _order_sums(coeffs, radii):
        while power < m:
            powers *= step
            power += 1
        acc[m % 4] += np.take(sums, inverse, axis=1)[:, None] * powers
    out = np.zeros(size * size, dtype=complex)
    out[images] = acc.reshape(16, -1).T @ _PHASES
    return out.reshape(size, size)


def polar_to_raster(coeffs: CoeffField, width: int, height: int,
                    maxval: int = 255, normalize: bool = True) -> RasterImage:
    """Render |synthesize| on the inscribed disk; outside pixels are 0.

    Rasters are square: width must equal height.  Output is
    max-normalized to [0, maxval] by default since operator application
    rescales magnitudes unpredictably.
    """
    if width != height:
        raise ValueError(f"rendered rasters are square, got {width}x{height}")
    out = np.abs(synthesize_raster(coeffs, width))
    if normalize:
        peak = out.max()
        if peak > 0:
            out *= maxval / peak
    return RasterImage(width=width, height=height, pixels=out, maxval=maxval)
