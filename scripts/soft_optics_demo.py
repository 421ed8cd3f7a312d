#!/usr/bin/env python3
"""End-to-end demo: synthetic image -> coefficients -> operator -> image.

Builds a smooth positive test image, decomposes it, applies an operator
spec, and renders the input, the reconstruction, and the transformed
result side by side as PGM files.

Usage: python scripts/soft_optics_demo.py [--spec FILE] [--outdir DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from wzernike.algebra import apply_operator
from wzernike.io import read_operator_spec, write_coeffs, write_pgm
from wzernike.rhs import norm_p
from wzernike.selfcheck import make_test_image_field
from wzernike.transform import (
    PolarSamples,
    analyze,
    build_quadrature,
    disk_pixels,
    polar_to_raster,
    raster_to_polar,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="specs/diagonal_blend.spec")
    ap.add_argument("--bandwidth", type=int, default=16)
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--outdir", default="demo_out")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    field = make_test_image_field(bandwidth=8, seed=args.seed)
    img = polar_to_raster(field, args.size, args.size, maxval=65535)
    write_pgm(outdir / "input.pgm", img)

    q = build_quadrature(args.bandwidth)
    samples = raster_to_polar(img, q)
    intensities = np.abs(samples.values) / img.maxval
    coeffs = analyze(PolarSamples(q, intensities.astype(complex)), q, args.bandwidth)
    write_coeffs(outdir / "input.coeffs", coeffs)

    recon = polar_to_raster(coeffs, args.size, args.size, maxval=65535)
    write_pgm(outdir / "reconstruction.pgm", recon)
    mask = disk_pixels(args.size)[0]
    a = img.pixels[mask] / img.maxval
    b = recon.pixels[mask] / recon.maxval
    rms = np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(a**2))
    print(f"reconstruction RMS inside the disk: {rms:.3e}")

    spec = read_operator_spec(args.spec)
    out = apply_operator(spec, coeffs)
    write_coeffs(outdir / "transformed.coeffs", out)
    write_pgm(outdir / "transformed.pgm",
              polar_to_raster(out, args.size, args.size, maxval=65535))
    print(f"applied {args.spec}: l2 norm {coeffs.l2_norm():.4g} -> "
          f"{out.l2_norm():.4g}, ||.||_1 {norm_p(coeffs, 1):.4g} -> "
          f"{norm_p(out, 1):.4g}")
    print(f"outputs in {outdir}/")


if __name__ == "__main__":
    main()
