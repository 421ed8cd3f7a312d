"""File formats: PGM rasters, coefficient dumps, operator specs.

Coefficient files are plain text, one `u v re im` line per mode under a
`# zernike-coeffs bandwidth=N` header.  Operator specs are plain text,
one monomial per line: `c_re c_im a1 a2 a3 b1 b2 b3`.  PGM covers both
P2 (ASCII) and P5 (binary) with maxval up to 65535.
"""

from __future__ import annotations

import cmath
import io as _io
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


def read_coeffs(path: str | Path) -> CoeffField:
    text = Path(path).read_text()
    bandwidth = None
    entries: dict[tuple[int, int], complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(COEFF_HEADER):
                bandwidth = int(line[len(COEFF_HEADER):])
                if bandwidth > BANDWIDTH_CAP:
                    raise ValueError(
                        f"line {lineno}: bandwidth {bandwidth} exceeds the cap {BANDWIDTH_CAP}"
                    )
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected `u v re im`, got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative mode index ({u}, {v})")
        if (u, v) in entries:
            raise ValueError(f"line {lineno}: duplicate mode ({u}, {v})")
        c = complex(float(parts[2]), float(parts[3]))
        if not cmath.isfinite(c):
            raise ValueError(f"line {lineno}: non-finite coefficient at ({u}, {v})")
        entries[(u, v)] = c
    if bandwidth is None:
        raise ValueError("missing `# zernike-coeffs bandwidth=N` header")
    return CoeffField.from_modes(entries, bandwidth=bandwidth)


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
