"""Command-line front end: the soft-optics pipeline plus self-verification.

Subcommands: eval, analyze, apply, synthesize, norms, verify, plotdata.
Exit status: 0 success, 1 usage error, 2 data/validation error,
3 verification failure.

File formats
------------
Coefficient files: `# zernike-coeffs bandwidth=N` header, then one
`u v re im` line per mode (duplicates rejected).  Operator specs: one
monomial per line, `c_re c_im a1 a2 a3 b1 b2 b3`, giving the term
c * A+^a1 A3^a2 A-^a3 B+^b1 B3^b2 B-^b3.  Images: PGM P2/P5, maxval
up to 65535; intensities are scaled by 1/maxval before decomposition.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import io as wio
from .algebra import apply_operator
from .basis import DiskPoint, ModeIndex, mode_to_radial, w_bound, w_eval, z_eval
from .radial import N_MAX, RadialIndex, radial_eval
from .rhs import continuity_report
from .selfcheck import acceptance_table
from .transform import (
    MAX_RASTER,
    CoeffField,
    PolarSamples,
    analyze,
    build_quadrature,
    polar_to_raster,
    raster_to_polar,
    synthesize_raster,
    synthesize_rphi,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

DEFAULT_BANDWIDTH = 16


class _Parser(argparse.ArgumentParser):
    """argparse with exit status 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wzernike", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bandwidth", type=int, default=None,
                        help="truncation bandwidth N (max u+v) for analyze, "
                             f"default {DEFAULT_BANDWIDTH}; for verify, run "
                             f"the suite scaled to N (0..{N_MAX}) instead of "
                             "at full size")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate a radial polynomial or disk mode")
    p.add_argument("--radial", nargs=2, type=int, metavar=("N", "M"))
    p.add_argument("--mode", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)

    p = sub.add_parser("analyze", help="decompose a PGM image into coefficients")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("apply", help="apply an operator spec to a coefficient file")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--render", help="also render |result| to this PGM path")
    p.add_argument("--size", type=int, default=256)

    p = sub.add_parser("synthesize", help="render a coefficient file to a PGM image")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--maxval", type=int, default=255)
    p.add_argument("--raw", action="store_true",
                   help="emit unnormalized float values as CSV instead of PGM")

    p = sub.add_parser("norms", help="norm-family report for a coefficient file")
    p.add_argument("--coeffs", required=True)

    sub.add_parser("verify", help="run the full property suite")

    p = sub.add_parser("plotdata", help="emit (r, phi, Re, Im, abs) grids as CSV")
    p.add_argument("--mode", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--coeffs")
    p.add_argument("--output", required=True)
    p.add_argument("--grid", type=int, default=64)
    return parser


def _check_raster(flag: str, value: int) -> None:
    """Reject a raster side or grid count before anything is allocated."""
    if not 1 <= value <= MAX_RASTER:
        raise ValueError(f"{flag} {value} outside 1..{MAX_RASTER}")


def cmd_eval(args) -> int:
    if (args.radial is None) == (args.mode is None):
        print("eval: exactly one of --radial or --mode is required", file=sys.stderr)
        return EXIT_USAGE
    if args.radial is not None:
        n, m = args.radial
        value = radial_eval(RadialIndex(n, m), args.r)
        print(f"{value:.15g}")
    else:
        u, v = args.mode
        value = w_eval(ModeIndex(u, v), DiskPoint(args.r, args.phi))
        print(f"{value.real:.15g}  {value.imag:.15g}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    img = wio.read_pgm(args.input)
    n = DEFAULT_BANDWIDTH if args.bandwidth is None else args.bandwidth
    q = build_quadrature(n)
    samples = raster_to_polar(img, q)
    intensities = np.abs(samples.values) / img.maxval
    coeffs = analyze(PolarSamples(q, intensities.astype(complex)), q, n)
    wio.write_coeffs(args.output, coeffs)
    if not args.quiet:
        print(f"wrote {args.output}: bandwidth {n}, "
              f"l2 norm {coeffs.l2_norm():.6g}")
    return EXIT_OK


def cmd_apply(args) -> int:
    _check_raster("--size", args.size)
    coeffs = wio.read_coeffs(args.coeffs)
    spec = wio.read_operator_spec(args.spec)
    out = apply_operator(spec, coeffs)
    wio.write_coeffs(args.output, out)
    if args.render:
        wio.write_pgm(args.render, polar_to_raster(out, args.size, args.size))
    if not args.quiet:
        print(f"wrote {args.output}: bandwidth {out.bandwidth}, "
              f"l2 norm {out.l2_norm():.6g}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    _check_raster("--size", args.size)
    coeffs = wio.read_coeffs(args.coeffs)
    if args.raw:
        size = args.size
        vals = synthesize_raster(coeffs, size)
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "re", "im", "abs"])
            for i in range(size):
                row = vals[i].tolist()  # Python complex: repr gives plain numbers
                for j, v in enumerate(row):
                    writer.writerow([i, j, repr(v.real), repr(v.imag), repr(abs(v))])
    else:
        img = polar_to_raster(coeffs, args.size, args.size, maxval=args.maxval)
        wio.write_pgm(args.output, img)
    if not args.quiet:
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_norms(args) -> int:
    coeffs = wio.read_coeffs(args.coeffs)
    report = continuity_report(coeffs)
    print(f"{'p':>2}  {'||f||_p':>16}  {'||f||_(1,p)':>16}")
    for p, (np_, nq) in enumerate(zip(report.p_norms, report.q_norms)):
        print(f"{p:>2}  {np_:>16.9g}  {nq:>16.9g}")
    print()
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        flag = "pass" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  lhs {c.lhs:>13.6g}  rhs {c.rhs:>13.6g}  {flag}")
    return EXIT_OK if report.all_pass else EXIT_VERIFY


def cmd_verify(args) -> int:
    results = [check() for _, _, check in acceptance_table(args.bandwidth)]
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        flag = "pass" if r.passed else "FAIL"
        failed += not r.passed
        if not args.quiet or not r.passed:
            print(f"{flag}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_plotdata(args) -> int:
    if (args.mode is None) == (args.coeffs is None):
        print("plotdata: exactly one of --mode or --coeffs is required",
              file=sys.stderr)
        return EXIT_USAGE
    _check_raster("--grid", args.grid)
    if args.mode is not None:
        u, v = args.mode
        coeffs = CoeffField.basis(u, v)
    else:
        coeffs = wio.read_coeffs(args.coeffs)
    r = np.linspace(0.0, 1.0, args.grid)
    phi = np.linspace(0.0, 2 * np.pi, args.grid, endpoint=False)
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    vals = synthesize_rphi(coeffs, rr, pp)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        if args.mode is not None:
            mode = ModeIndex(*args.mode)
            scale = w_bound(mode)
            writer.writerow(["r", "phi", "re", "im", "abs", "z_value", "w_over_z_scale"])
            idx = mode_to_radial(mode)
            for i in range(args.grid):
                row = vals[i].tolist()  # Python complex: repr gives plain numbers
                for j in range(args.grid):
                    v = row[j]
                    z = z_eval(RadialIndex(idx.n, abs(idx.m)), idx.m,
                               DiskPoint(float(rr[i, j]), float(pp[i, j])))
                    writer.writerow([rr[i, j], pp[i, j], repr(v.real), repr(v.imag),
                                     repr(abs(v)), repr(z), repr(scale)])
        else:
            writer.writerow(["r", "phi", "re", "im", "abs"])
            for i in range(args.grid):
                row = vals[i].tolist()  # Python complex: repr gives plain numbers
                for j in range(args.grid):
                    v = row[j]
                    writer.writerow([rr[i, j], pp[i, j], repr(v.real), repr(v.imag),
                                     repr(abs(v))])
    if not args.quiet:
        print(f"wrote {args.output}")
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "apply": cmd_apply,
    "synthesize": cmd_synthesize,
    "norms": cmd_norms,
    "verify": cmd_verify,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"wzernike {args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
