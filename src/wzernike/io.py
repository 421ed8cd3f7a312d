"""File formats: PGM rasters, coefficient dumps, operator specs.

Coefficient files are plain text, one `u v re im` line per mode under a
`# zernike-coeffs bandwidth=N` header.  Operator specs are plain text,
one monomial per line: `c_re c_im a1 a2 a3 b1 b2 b3`.  PGM covers both
P2 (ASCII) and P5 (binary) with maxval up to 65535.
"""

from __future__ import annotations

import io as _io
from itertools import compress
from operator import add
from pathlib import Path

import numpy as np

from .algebra import BANDWIDTH_CAP, OperatorSpec, UEAMonomial
from .transform import CoeffField, RasterImage

COEFF_HEADER = "# zernike-coeffs bandwidth="


def write_coeffs(path: str | Path, field: CoeffField) -> None:
    lines = [f"{COEFF_HEADER}{field.bandwidth}"]
    for u, v, c in field.iter_modes():
        lines.append(f"{u} {v} {c.real!r} {c.imag!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse(tokens: list[str], kind) -> tuple[list, ValueError | None]:
    """kind() of every token, or of those before the first it rejects,
    with that error."""
    try:
        return list(map(kind, tokens)), None
    except ValueError:
        values = []
        for token in tokens:
            try:
                values.append(kind(token))
            except ValueError as exc:
                return values, exc
        raise


def read_coeffs(path: str | Path) -> CoeffField:
    """Read a coefficient file; an error names its first bad line.

    Every line is split once, and the line kinds, the token counts and
    then the four columns are checked whole.  The checks run in the order
    one line was checked in (token count or header, u, v, sign,
    duplicate, re, im, finiteness), each on the lines before the first
    error found so far, so the error reported is the one a line-by-line
    reader meets first.
    """
    lines = Path(path).read_text().splitlines()
    parts = list(map(str.split, lines))
    counts = np.fromiter(map(len, parts), dtype=int, count=len(parts))
    comment = np.zeros(len(parts), dtype=bool)
    comment[[k for k, p in enumerate(parts) if p and p[0].startswith("#")]] = True
    data = (counts > 0) & ~comment
    stop, error = len(lines), None  # lines checked: those before the first error
    bad = np.flatnonzero(data & (counts != 4))
    if bad.size:
        stop = int(bad[0])
        error = ValueError(f"line {stop + 1}: expected `u v re im`, got {lines[stop]!r}")
    bandwidth = None
    for k in np.flatnonzero(comment[:stop]):
        line = lines[k].strip()
        if line.startswith(COEFF_HEADER):
            try:
                bandwidth = int(line[len(COEFF_HEADER):])
                if bandwidth > BANDWIDTH_CAP:
                    raise ValueError(f"line {k + 1}: bandwidth {bandwidth} "
                                     f"exceeds the cap {BANDWIDTH_CAP}")
            except ValueError as exc:
                stop, error = k, exc
                break
    rows = list(compress(parts[:stop], data[:stop]))
    linenos = np.flatnonzero(data[:stop]) + 1
    us, vs, res, ims = map(list, zip(*rows)) if rows else ([], [], [], [])

    u, exc = _parse(us, int)
    if exc:
        error = exc
    v, exc = _parse(vs[: len(u)], int)
    if exc:
        error = exc
    n = len(v)
    u = u[:n]
    if n and min(min(u), min(v)) < 0:
        n = next(k for k in range(n) if u[k] < 0 or v[k] < 0)
        error = ValueError(f"line {linenos[n]}: negative mode index ({u[n]}, {v[n]})")
    modes = list(zip(u[:n], v[:n]))
    if len(set(modes)) < n:
        seen = set()
        n = next(k for k, mode in enumerate(modes) if mode in seen or seen.add(mode))
        error = ValueError(f"line {linenos[n]}: duplicate mode {modes[n]}")
    re, exc = _parse(res[:n], float)
    if exc:
        error = exc
    im, exc = _parse(ims[: len(re)], float)
    if exc:
        error = exc
    n = len(im)
    c = np.empty(n, dtype=complex)
    c.real, c.imag = re[:n], im
    finite = np.isfinite(c)
    if not finite.all():
        n = int(np.argmin(finite))
        error = ValueError(f"line {linenos[n]}: non-finite coefficient at {modes[n]}")
    if error:
        raise error
    if bandwidth is None:
        raise ValueError("missing `# zernike-coeffs bandwidth=N` header")
    if bandwidth < max(map(add, u, v), default=0):
        raise ValueError("entry beyond requested bandwidth")
    values = np.zeros((bandwidth + 1, bandwidth + 1), dtype=complex)
    values[u, v] = c
    return CoeffField(bandwidth, values)


OPSPEC_HEADER = "# operator-spec"


def write_operator_spec(path: str | Path, spec: OperatorSpec) -> None:
    lines = [OPSPEC_HEADER, "# c_re c_im a1 a2 a3 b1 b2 b3"]
    for m in spec.monomials:
        a, b = m.alpha, m.beta
        lines.append(
            f"{m.c.real!r} {m.c.imag!r} {a[0]} {a[1]} {a[2]} {b[0]} {b[1]} {b[2]}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_operator_spec(path: str | Path) -> OperatorSpec:
    monomials = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(
                f"line {lineno}: expected `c_re c_im a1 a2 a3 b1 b2 b3`, got {raw!r}"
            )
        c = complex(float(parts[0]), float(parts[1]))
        exps = [int(p) for p in parts[2:]]
        if any(e < 0 for e in exps):
            raise ValueError(f"line {lineno}: negative exponent")
        monomials.append(UEAMonomial(c=c, alpha=tuple(exps[:3]), beta=tuple(exps[3:])))
    return OperatorSpec(tuple(monomials))


def write_pgm(path: str | Path, img: RasterImage, binary: bool = True) -> None:
    """Write P5 (default) or P2; intensities are rounded and clipped to maxval."""
    if not 1 <= img.maxval <= 65535:
        raise ValueError("PGM maxval must be in 1..65535")
    data = np.clip(np.rint(img.pixels), 0, img.maxval)
    header = f"P{'5' if binary else '2'}\n{img.width} {img.height}\n{img.maxval}\n"
    if binary:
        dtype = ">u2" if img.maxval > 255 else "u1"
        Path(path).write_bytes(header.encode("ascii") + data.astype(dtype).tobytes())
    else:
        body = "\n".join(" ".join(str(int(x)) for x in row) for row in data)
        Path(path).write_text(header + body + "\n")


def _read_token(stream: _io.BufferedReader) -> bytes:
    """Next whitespace-delimited token, skipping `#` comments."""
    tok = b""
    while True:
        ch = stream.read(1)
        if not ch:
            if tok:
                return tok
            raise ValueError("unexpected end of PGM header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = stream.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def read_pgm(path: str | Path) -> RasterImage:
    with open(path, "rb") as fh:
        magic = _read_token(fh)
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"not a PGM file (magic {magic!r})")
        width = int(_read_token(fh))
        height = int(_read_token(fh))
        maxval = int(_read_token(fh))
        if not 1 <= maxval <= 65535:
            raise ValueError(f"PGM maxval {maxval} out of range 1..65535")
        count = width * height
        if magic == b"P5":
            dtype = ">u2" if maxval > 255 else "u1"
            raw = fh.read(count * (2 if maxval > 255 else 1))
            data = np.frombuffer(raw, dtype=dtype)
        else:
            data = np.array([int(_read_token(fh)) for _ in range(count)])
        if data.size != count:
            raise ValueError("truncated PGM pixel data")
        if data.max(initial=0) > maxval:
            raise ValueError("PGM sample exceeds declared maxval")
        pixels = data.reshape(height, width).astype(float)
    return RasterImage(width=width, height=height, pixels=pixels, maxval=maxval)
