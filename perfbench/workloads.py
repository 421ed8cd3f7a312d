"""The benchmark's three workloads: seeded inputs, one operation, checks.

Each workload builds a pool of POOL inputs from its seed, together with
what the references say about them, and then runs its operation on the
pool items in turn.  `run` is the operation as a user makes it;
`run_traced` makes the same library calls that `cmd_analyze`,
`cmd_apply` and `cmd_norms` make, in the same order, with one span per
call.  `check` compares an operation's outputs with `reference`; it runs
outside the timed region.

The program is reached only through the modules `bind` receives, so the
caller can import a fresh copy of it for every set-up.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from pathlib import Path

import numpy as np

import reference as ref

POOL = 4


def _quiet_main(cli, argv) -> tuple[int, str]:
    """cli.main with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def image_field(rng: np.random.Generator, degree: int = 8):
    """A positive real function on the disk, of the given degree, that
    vanishes at r = 1: (1 - r^2) (g + offset) with g a real combination
    of the modes of degree <= degree - 2.  Returns its coefficients at
    bandwidth `degree`."""
    inner = degree - 2
    g = np.zeros((inner + 1, inner + 1), dtype=complex)
    for u in range(inner + 1):
        for v in range(inner + 1 - u):
            g[u, v] = complex(rng.normal(), rng.normal())
    g = 0.3 * (g + np.conj(g.T)) / 2  # f_{v,u} = conj f_{u,v}: a real function
    r, w, phi = ref.gauss_disk(4 * degree)
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    gv = ref.synthesize(g, rr, pp).real
    # A generous offset keeps g + offset positive between the grid nodes.
    offset = -gv.min() + 0.5 * max(gv.max() - gv.min(), 1.0)
    fv = (1.0 - rr**2) * (gv + offset)
    return trim(ref.project(fv, r, w, 4 * degree), degree)


def trim(coeffs: np.ndarray, n_max: int) -> np.ndarray:
    """The coefficients re-sized to bandwidth n_max, zero beyond it."""
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    k = min(n_max, coeffs.shape[0] - 1) + 1
    out[:k, :k] = coeffs[:k, :k]
    uu, vv = np.indices(out.shape)
    out[uu + vv > n_max] = 0
    return out


def gaussian_field(rng: np.random.Generator, n_max: int) -> np.ndarray:
    """Standard complex Gaussian entries on every mode with u+v <= n_max."""
    vals = rng.normal(size=(n_max + 1, n_max + 1)) + 1j * rng.normal(size=(n_max + 1, n_max + 1))
    uu, vv = np.indices(vals.shape)
    vals[uu + vv > n_max] = 0
    return vals


class FixedWork:
    """Fixed pieces of the benchmark's own reference code, the same for
    every seed, that a run times before each operation to follow the speed
    of the machine (see calibration.py).  Each workload's
    `calibrate` does the pieces whose kind of work matches its operation:
    a calibration tracks an operation's slow-downs only as far as the two
    do the same kind of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = gaussian_field(rng, 12)
        self.small = gaussian_field(rng, 4)
        self.spec = [(0.3 + 0.2j, (1, 0, 1), (0, 2, 1)), (-0.5 + 0.1j, (2, 1, 0), (1, 0, 2))]

    def algebra(self) -> None:
        """Pure Python: text I/O of 91 modes and a monomial action on them."""
        ref.parse_coeffs(ref.format_coeffs(self.field))
        ref.apply_spec(self.spec, self.field)

    def render(self) -> None:
        """numpy on the 12 892 disk pixels of a 128x128 raster, in a
        Python loop over 15 modes."""
        ref.render(self.small, 128)

    @functools.cached_property
    def array(self) -> np.ndarray:
        return np.ones(2_000_000)

    def stream(self) -> None:
        """Memory bound: one pass over 16 MB."""
        self.array.sum()


class Pipeline:
    """`--bandwidth 16 analyze` of a 128x128 16-bit PGM, then `apply` of
    specs/diagonal_blend.spec with `--render --size 128`."""

    name = "pipeline_n16_128"
    expects_fault = False
    # What `calibrate` takes at the reference speed.
    calibration_ms = 8.0
    bandwidth = 16
    size = 128
    image_degree = 8
    maxval = 65535
    # analyze of the bilinearly sampled raster against the field drawn into
    # it, as max |error| / max |coefficient|.  Interpolation on a 128^2 grid
    # gives at most 3.6e-4 over 500 seeds, quantisation included.
    analyze_rtol = 2e-3

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = np.random.default_rng([seed, 1])
        self.dir = workdir
        self.spec_path = root / "specs" / "diagonal_blend.spec"
        self.spec = ref.parse_spec(self.spec_path.read_text())
        inside, r, phi = ref.disk_pixels(self.size)
        self.known = []
        for i in range(POOL):
            field = image_field(rng, self.image_degree)
            values = np.zeros((self.size, self.size))
            values[inside] = ref.synthesize(field, r, phi).real
            scale = 60000.0 / values.max()
            pixels = np.clip(np.rint(values * scale), 0, self.maxval)
            (workdir / f"in{i}.pgm").write_bytes(ref.format_pgm(pixels, self.maxval))
            self.known.append(trim(field * scale / self.maxval, self.bandwidth))
        self._expected = {}
        self.fixed = FixedWork()

    def calibrate(self) -> None:
        """Rendering is numpy in a Python loop; analyze and apply add
        Python and text I/O; the raster is larger than the caches."""
        self.fixed.render()
        self.fixed.algebra()
        self.fixed.stream()

    def bind(self, prog) -> None:
        self.p = prog

    def _paths(self, i: int, traced: bool):
        tag = f"{i}.t" if traced else f"{i}"
        return (self.dir / f"in{i}.pgm", self.dir / f"a{tag}.coeffs",
                self.dir / f"b{tag}.coeffs", self.dir / f"b{tag}.pgm")

    def same(self, i: int, plain, traced) -> bool:
        return same_files(self._paths(i, False)[1:], self._paths(i, True)[1:])

    def run(self, i: int):
        src, a, b, img = (str(p) for p in self._paths(i, False))
        cli = self.p.cli
        c1, _ = _quiet_main(cli, ["--bandwidth", str(self.bandwidth), "analyze",
                                  "--input", src, "--output", a])
        c2, _ = _quiet_main(cli, ["apply", "--coeffs", a, "--spec", str(self.spec_path),
                                  "--output", b, "--render", img,
                                  "--size", str(self.size)])
        return (c1, c2)

    def run_traced(self, i: int, span):
        src, a, b, img = self._paths(i, True)
        wio, tf, alg = self.p.io, self.p.transform, self.p.algebra
        n = self.bandwidth
        with span("io.read_pgm"):
            image = wio.read_pgm(src)
        with span("transform.build_quadrature"):
            q = tf.build_quadrature(n)
        with span("transform.raster_to_polar"):
            samples = tf.raster_to_polar(image, q)
        intensities = np.abs(samples.values) / image.maxval
        with span("transform.analyze"):
            coeffs = tf.analyze(tf.PolarSamples(q, intensities.astype(complex)), q, n)
        with span("io.write_coeffs"):
            wio.write_coeffs(a, coeffs)
        with span("io.read_coeffs"):
            coeffs = wio.read_coeffs(a)
        with span("io.read_operator_spec"):
            spec = wio.read_operator_spec(self.spec_path)
        with span("algebra.apply_operator"):
            out = alg.apply_operator(spec, coeffs)
        with span("io.write_coeffs"):
            wio.write_coeffs(b, out)
        with span("transform.polar_to_raster"):
            rendered = tf.polar_to_raster(out, self.size, self.size)
        with span("io.write_pgm"):
            wio.write_pgm(img, rendered)
        return (0, 0)

    def _reference(self, analyzed_text: str):
        """(values, scale, rendering) the references give for one analyze
        output; outputs repeat, so each is computed once."""
        if analyzed_text not in self._expected:
            values, scale = ref.apply_spec(self.spec, ref.parse_coeffs(analyzed_text))
            self._expected[analyzed_text] = (values, scale,
                                             ref.render(ref.to_dense(values), self.size))
        return self._expected[analyzed_text]

    def check(self, i: int, outcome, traced: bool = False) -> bool:
        if outcome != (0, 0):
            return False
        _, a, b, img = self._paths(i, traced)
        analyzed_text = a.read_text()
        values, scale, rendered = self._reference(analyzed_text)
        return (
            check_analyzed(ref.parse_coeffs(analyzed_text), self.known[i], self.analyze_rtol)
            and ref.spec_matches(ref.parse_coeffs(b.read_text()), values, scale)
            and check_rendered(img.read_bytes(), rendered)
        )


def same_files(a, b) -> bool:
    return all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))


def check_analyzed(got: np.ndarray, known: np.ndarray, rtol: float) -> bool:
    if got.shape != known.shape:
        return False
    return bool(np.max(np.abs(got - known)) <= rtol * np.max(np.abs(known)))


def check_rendered(pgm: bytes, expected: np.ndarray, maxval: int = 255) -> bool:
    """Every pixel within one grey level of the reference rendering."""
    pixels, got_max = ref.parse_pgm(pgm)
    if got_max != maxval or pixels.shape != expected.shape:
        return False
    return bool(np.max(np.abs(pixels - expected)) <= 1.0)


class Roundtrip:
    """synthesize_on then analyze of a Gaussian field at N = N_MAX = 60."""

    name = "roundtrip_n60"
    # radial_eval rounds integer coefficients above 2^53: every mode of
    # degree >= 48 is wrong, so every operation at N = 60 fails its checks.
    expects_fault = True
    calibration_ms = 2.0
    bandwidth = 60
    rtol = 1e-11
    n_probe = 24

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = np.random.default_rng([seed, 2])
        n = self.bandwidth
        self.r, self.w, self.phi = ref.gauss_disk(n)
        self.fields = [gaussian_field(rng, n) for _ in range(POOL)]
        self.probes = []
        for f in self.fields:
            j = rng.integers(0, len(self.r), self.n_probe)
            k = rng.integers(0, len(self.phi), self.n_probe)
            values = ref.synthesize(f, self.r[j], self.phi[k])
            bound = sum(abs(f[u, d - u]) * ref.w_norm(d)
                        for d in range(n + 1) for u in range(d + 1))
            self.probes.append((j, k, values, bound))
        self.fixed = FixedWork()

    def calibrate(self) -> None:
        """Streaming the dense basis tensor is memory bound."""
        self.fixed.stream()

    def bind(self, prog) -> None:
        self.p = prog
        if prog is None:
            self.q = self.inputs = None
            return
        tf = prog.transform
        self.q = tf.build_quadrature(self.bandwidth)
        self.inputs = [tf.CoeffField(self.bandwidth, f) for f in self.fields]

    def same(self, i: int, plain, traced) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(plain, traced))

    def run(self, i: int):
        tf = self.p.transform
        samples = tf.synthesize_on(self.inputs[i], self.q)
        back = tf.analyze(samples, self.q, self.bandwidth)
        return samples.values, back.values

    def run_traced(self, i: int, span):
        tf = self.p.transform
        with span("transform.synthesize_on"):
            samples = tf.synthesize_on(self.inputs[i], self.q)
        with span("transform.analyze"):
            back = tf.analyze(samples, self.q, self.bandwidth)
        return samples.values, back.values

    def check(self, i: int, outcome, traced: bool = False) -> bool:
        samples, back = outcome
        f = self.fields[i]
        j, k, probe, bound = self.probes[i]
        energy = float(np.sum(np.abs(f) ** 2))
        parseval = float(np.sum(self.w[:, None] * np.abs(samples) ** 2)) * (
            2 * math.pi / samples.shape[1])
        return bool(
            np.max(np.abs(samples[j, k] - probe)) <= 1e-10 * bound
            and abs(parseval - energy) <= self.rtol * energy
            and np.max(np.abs(back - f)) <= self.rtol * np.max(np.abs(f))
        )


class ApplyNorms:
    """`apply` of a seeded spec to an N = 40 coefficient file, then `norms`
    of that file."""

    name = "apply_norms_n40"
    expects_fault = False
    calibration_ms = 1.4
    bandwidth = 40
    n_monomials = 8
    index_max = 3

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = np.random.default_rng([seed, 3])
        self.dir = workdir
        self.expected = []
        for i in range(POOL):
            # Flat Gaussian spectra: the single-norm ladder bounds that
            # `norms` checks hold only when energy is spread over the
            # degrees, as it is here by a wide margin.
            f = gaussian_field(rng, self.bandwidth)
            spec = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     tuple(int(e) for e in rng.integers(0, 3, 3)),
                     tuple(int(e) for e in rng.integers(0, 3, 3)))
                    for _ in range(self.n_monomials)]
            (workdir / f"in{i}.coeffs").write_text(ref.format_coeffs(f))
            (workdir / f"op{i}.spec").write_text(ref.format_spec(spec))
            norms = [(ref.norm_p(f, p), ref.norm_1q(f, p)) for p in range(self.index_max + 1)]
            self.expected.append((ref.apply_spec(spec, f), norms))
        self.fixed = FixedWork()

    def calibrate(self) -> None:
        """apply, norms and the coefficient files are pure Python."""
        self.fixed.algebra()

    def bind(self, prog) -> None:
        self.p = prog

    def _paths(self, i: int, traced: bool):
        out = self.dir / (f"out{i}.t.coeffs" if traced else f"out{i}.coeffs")
        return self.dir / f"in{i}.coeffs", self.dir / f"op{i}.spec", out

    def same(self, i: int, plain, traced) -> bool:
        return same_files(self._paths(i, False)[2:], self._paths(i, True)[2:])

    def run(self, i: int):
        src, spec, out = (str(p) for p in self._paths(i, False))
        c1, _ = _quiet_main(self.p.cli, ["apply", "--coeffs", src, "--spec", spec,
                                         "--output", out])
        c2, text = _quiet_main(self.p.cli, ["norms", "--coeffs", src])
        return c1, c2, parse_norms_table(text)

    def run_traced(self, i: int, span):
        src, spec_path, out = self._paths(i, True)
        wio = self.p.io
        with span("io.read_coeffs"):
            coeffs = wio.read_coeffs(src)
        with span("io.read_operator_spec"):
            spec = wio.read_operator_spec(spec_path)
        with span("algebra.apply_operator"):
            result = self.p.algebra.apply_operator(spec, coeffs)
        with span("io.write_coeffs"):
            wio.write_coeffs(out, result)
        with span("io.read_coeffs"):
            coeffs = wio.read_coeffs(src)
        with span("rhs.continuity_report"):
            report = self.p.rhs.continuity_report(coeffs)
        norms = list(zip(report.p_norms, report.q_norms))
        return 0, 0 if report.all_pass else 3, (norms, report.all_pass)

    def check(self, i: int, outcome, traced: bool = False) -> bool:
        c1, c2, (norms, all_pass) = outcome
        if (c1, c2) != (0, 0) or not all_pass:
            return False
        (values, scale), want = self.expected[i]
        out = self._paths(i, traced)[2]
        return (ref.spec_matches(ref.parse_coeffs(out.read_text()), values, scale)
                and check_norms(norms, want))


def parse_norms_table(text: str):
    """([(||f||_p, ||f||_(1,p)), ...], every bound line reads `pass`)."""
    table, bounds = text.split("\n\n", 1)
    norms = [(float(a), float(b)) for _, a, b in (ln.split() for ln in table.splitlines()[1:])]
    lines = bounds.strip().splitlines()
    return norms, bool(lines) and all(ln.split()[-1] == "pass" for ln in lines)


def check_norms(got, want, rtol: float = 1e-8) -> bool:
    """Printed with 9 significant digits, so 1e-8 relative."""
    if len(got) != len(want):
        return False
    return all(abs(g - w) <= rtol * abs(w) for pair_g, pair_w in zip(got, want)
               for g, w in zip(pair_g, pair_w))


WORKLOADS = {cls.name: cls for cls in (Pipeline, Roundtrip, ApplyNorms)}
