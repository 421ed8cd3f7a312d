import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wzernike.algebra import OperatorSpec, UEAMonomial
from wzernike.basis import ModeIndex, w_bound
from wzernike.cli import main
from wzernike.io import read_coeffs, write_coeffs, write_operator_spec, write_pgm
from wzernike.radial import N_MAX
from wzernike.selfcheck import CheckResult, acceptance_table
from wzernike.transform import (
    MAX_RASTER,
    CoeffField,
    disk_pixels,
    polar_to_raster,
    synthesize_rphi,
)


SPECS = Path(__file__).resolve().parents[1] / "specs"


def run(*argv):
    return main(list(argv))


def seeded_field(rng, n):
    vals = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    uu, vv = np.indices(vals.shape)
    vals[uu + vv > n] = 0
    return CoeffField(n, vals)


def seeded_spec(rng, count):
    return OperatorSpec(tuple(
        UEAMonomial(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    tuple(int(e) for e in rng.integers(0, 3, 3)),
                    tuple(int(e) for e in rng.integers(0, 3, 3)))
        for _ in range(count)
    ))


class TestEval:
    def test_radial_value(self, capsys):
        assert run("eval", "--radial", "4", "2", "--r", "0.5") == 0
        assert capsys.readouterr().out.strip() == "-0.5"

    def test_mode_value(self, capsys):
        assert run("eval", "--mode", "0", "0", "--r", "0.3") == 0
        re, im = capsys.readouterr().out.split()
        assert float(re) == pytest.approx(1 / math.sqrt(math.pi))
        assert float(im) == 0.0

    def test_parity_violation_is_data_error(self, capsys):
        assert run("eval", "--radial", "3", "2", "--r", "0.5") == 2
        assert "parity" in capsys.readouterr().err

    def test_requires_exactly_one_target(self, capsys):
        assert run("eval", "--r", "0.5") == 1
        assert run("eval", "--radial", "2", "0", "--mode", "1", "1", "--r", "0.5") == 1


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_unknown_flag(self):
        assert run("eval", "--radial", "2", "0", "--r", "0.5", "--bogus") == 1

    def test_missing_required_argument(self):
        assert run("analyze", "--input", "x.pgm") == 1


class TestApply:
    def test_worked_example_through_files(self, tmp_path, capsys):
        coeffs = tmp_path / "in.coeffs"
        spec = tmp_path / "op.spec"
        out = tmp_path / "out.coeffs"
        write_coeffs(coeffs, CoeffField.basis(4, 1))
        spec.write_text("# operator-spec\n1.0 0.0 3 0 0 1 0 0\n")
        assert run("--quiet", "apply", "--coeffs", str(coeffs),
                   "--spec", str(spec), "--output", str(out)) == 0
        result = read_coeffs(out)
        assert result.get(7, 2) == 420.0
        assert result.l2_norm() == 420.0

    def test_identity_spec_preserves_bytes(self, tmp_path):
        coeffs = tmp_path / "in.coeffs"
        spec = tmp_path / "id.spec"
        out = tmp_path / "out.coeffs"
        f = CoeffField.from_modes({(2, 1): 0.25 - 1.5j, (0, 0): 0.75})
        write_coeffs(coeffs, f)
        spec.write_text("1.0 0.0 0 0 0 0 0 0\n")
        assert run("--quiet", "apply", "--coeffs", str(coeffs),
                   "--spec", str(spec), "--output", str(out)) == 0
        assert out.read_bytes() == coeffs.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run("apply", "--coeffs", str(tmp_path / "nope"),
                   "--spec", str(tmp_path / "nope"),
                   "--output", str(tmp_path / "out")) == 2

    def _apply_field(self, tmp_path, field, spec_path):
        coeffs, out = tmp_path / "in.coeffs", tmp_path / "out.coeffs"
        write_coeffs(coeffs, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("--quiet", "apply", "--coeffs", str(coeffs),
                       "--spec", str(spec_path), "--output", str(out))
        return code, out

    # sha256 of the output file, recorded before the vectorised kernel:
    # coefficient files stay byte-identical.
    def test_diagonal_blend_output_bytes_pinned(self, tmp_path):
        field = seeded_field(np.random.default_rng(16), 16)
        code, out = self._apply_field(tmp_path, field, SPECS / "diagonal_blend.spec")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4f5444f382779f1a21db65734500fd8d7759e93fd4c1506476579812fa30a1cb")

    def test_eight_monomial_output_bytes_pinned(self, tmp_path):
        rng = np.random.default_rng(40)
        field = seeded_field(rng, 40)
        write_operator_spec(tmp_path / "op.spec", seeded_spec(rng, 8))
        code, out = self._apply_field(tmp_path, field, tmp_path / "op.spec")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "99f0bff0632e7ec7987b67129fe8ba9e7e65f700c59525f04fd32566549c0b78")

    def test_overflowing_power_is_data_error(self, tmp_path, capsys):
        # (u + 1/2)^400 overflows from u = 6 on.
        spec = tmp_path / "op.spec"
        spec.write_text("1.0 0.0 0 400 0 0 0 0\n")
        field = seeded_field(np.random.default_rng(12), 12)
        code, out = self._apply_field(tmp_path, field, spec)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err
        assert not out.exists()

    def test_overflowing_product_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "op.spec"
        spec.write_text("1e300 0.0 0 0 0 0 0 0\n")
        field = CoeffField.from_modes({(0, 0): 1e300, (1, 0): 0.5})
        code, out = self._apply_field(tmp_path, field, spec)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err
        assert not out.exists()

    def test_render_option_writes_pgm(self, tmp_path):
        coeffs = tmp_path / "in.coeffs"
        spec = tmp_path / "id.spec"
        write_coeffs(coeffs, CoeffField.basis(0, 0))
        spec.write_text("1.0 0.0 0 0 0 0 0 0\n")
        render = tmp_path / "out.pgm"
        assert run("--quiet", "apply", "--coeffs", str(coeffs),
                   "--spec", str(spec), "--output", str(tmp_path / "o"),
                   "--render", str(render), "--size", "32") == 0
        assert render.read_bytes().startswith(b"P5\n32 32\n")


class TestSynthesize:
    def test_ground_mode_uniform_disk(self, tmp_path):
        coeffs = tmp_path / "f.coeffs"
        write_coeffs(coeffs, CoeffField.basis(0, 0))
        out = tmp_path / "f.pgm"
        assert run("--quiet", "synthesize", "--coeffs", str(coeffs),
                   "--output", str(out), "--size", "32") == 0
        from wzernike.io import read_pgm

        img = read_pgm(out)
        mask = disk_pixels(32)[0]
        assert np.all(img.pixels[mask] == 255)
        assert np.all(img.pixels[~mask] == 0)

    def test_raw_csv_output(self, tmp_path):
        coeffs = tmp_path / "f.coeffs"
        write_coeffs(coeffs, CoeffField.basis(0, 0))
        out = tmp_path / "f.csv"
        assert run("--quiet", "synthesize", "--coeffs", str(coeffs),
                   "--output", str(out), "--size", "8", "--raw") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,col,re,im,abs"
        assert len(lines) == 65

    def test_raw_values_match_pointwise_synthesis(self, tmp_path):
        field = seeded_field(np.random.default_rng(31), 12)
        coeffs = tmp_path / "f.coeffs"
        write_coeffs(coeffs, field)
        out = tmp_path / "f.csv"
        size = 21
        assert run("--quiet", "synthesize", "--coeffs", str(coeffs),
                   "--output", str(out), "--size", str(size), "--raw") == 0
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        assert np.array_equal(rows[:, 0] * size + rows[:, 1], np.arange(size * size))
        got = (rows[:, 2] + 1j * rows[:, 3]).reshape(size, size)
        inside, r, phi = disk_pixels(size)
        want = np.zeros((size, size), dtype=complex)
        want[inside] = synthesize_rphi(field, r, phi)
        scale = sum(abs(c) * w_bound(ModeIndex(u, v)) for u, v, c in field.iter_modes())
        assert np.max(np.abs(got - want)) <= 1e-14 * scale
        assert np.allclose(rows[:, 4], np.abs(got).ravel(), rtol=1e-15, atol=0)


class TestRasterBounds:
    """--size and --grid outside 1..MAX_RASTER: one stderr line, exit 2,
    before anything is read, allocated or written."""

    @pytest.fixture
    def coeffs(self, tmp_path):
        path = tmp_path / "f.coeffs"
        write_coeffs(path, CoeffField.basis(0, 0))
        return path

    @pytest.mark.parametrize("size", [0, -1, MAX_RASTER + 1])
    def test_synthesize_size(self, tmp_path, coeffs, capsys, size):
        for raw in ((), ("--raw",)):
            out = tmp_path / "f.out"
            assert run("synthesize", "--coeffs", str(coeffs), "--output", str(out),
                       "--size", str(size), *raw) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"--size {size} outside 1..{MAX_RASTER}" in err
            assert not out.exists()

    @pytest.mark.parametrize("size", [0, -1, MAX_RASTER + 1])
    def test_apply_size(self, tmp_path, coeffs, capsys, size):
        out = tmp_path / "o.coeffs"
        assert run("apply", "--coeffs", str(coeffs), "--spec", str(SPECS / "identity.spec"),
                   "--output", str(out), "--render", str(tmp_path / "o.pgm"),
                   "--size", str(size)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--size {size} outside" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [0, -1, MAX_RASTER + 1])
    def test_plotdata_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "p.csv"
        assert run("plotdata", "--mode", "1", "0", "--output", str(out),
                   "--grid", str(grid)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--grid {grid} outside" in err
        assert not out.exists()

    def test_largest_size_accepted(self, tmp_path, coeffs):
        out = tmp_path / "f.pgm"
        assert run("--quiet", "synthesize", "--coeffs", str(coeffs), "--output", str(out),
                   "--size", str(MAX_RASTER)) == 0
        assert out.read_bytes().startswith(f"P5\n{MAX_RASTER} {MAX_RASTER}\n".encode())


class TestBadCoeffFiles:
    def _apply(self, tmp_path, text):
        coeffs = tmp_path / "bad.coeffs"
        coeffs.write_text(text)
        spec = tmp_path / "id.spec"
        spec.write_text("1.0 0.0 0 0 0 0 0 0\n")
        return run("--quiet", "apply", "--coeffs", str(coeffs), "--spec", str(spec),
                   "--output", str(tmp_path / "out.coeffs"))

    def test_non_finite_coefficient_is_data_error(self, tmp_path, capsys):
        for value in ("nan 0.0", "0.0 inf", "-inf 1.0"):
            text = f"# zernike-coeffs bandwidth=1\n0 0 1.0 0.0\n1 0 {value}\n"
            assert self._apply(tmp_path, text) == 2
            assert "non-finite" in capsys.readouterr().err

    def test_bandwidth_above_cap_is_data_error(self, tmp_path, capsys):
        assert self._apply(tmp_path, "# zernike-coeffs bandwidth=200000\n0 0 1.0 0.0\n") == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert not (tmp_path / "out.coeffs").exists()


class TestAnalyzeRoundtrip:
    def _write_image(self, path, size=64):
        field = CoeffField.from_modes({(0, 0): 1.0})
        write_pgm(path, polar_to_raster(field, size, size, maxval=255))

    def test_analyze_finds_dominant_mode(self, tmp_path, capsys):
        img = tmp_path / "in.pgm"
        self._write_image(img)
        out = tmp_path / "out.coeffs"
        assert run("--bandwidth", "8", "--quiet", "analyze",
                   "--input", str(img), "--output", str(out)) == 0
        f = read_coeffs(out)
        assert f.bandwidth == 8
        assert abs(f.get(0, 0)) > 10 * max(
            abs(c) for u, v, c in f.iter_modes() if (u, v) != (0, 0)
        )

    def test_deterministic_output(self, tmp_path):
        img = tmp_path / "in.pgm"
        self._write_image(img)
        a, b = tmp_path / "a.coeffs", tmp_path / "b.coeffs"
        run("--bandwidth", "6", "--quiet", "analyze", "--input", str(img),
            "--output", str(a))
        run("--bandwidth", "6", "--quiet", "analyze", "--input", str(img),
            "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_image_is_data_error(self, tmp_path, capsys):
        img = tmp_path / "bad.pgm"
        img.write_text("P2\n1 1\n10\n99\n")
        assert run("analyze", "--input", str(img),
                   "--output", str(tmp_path / "o")) == 2
        assert "maxval" in capsys.readouterr().err


class TestNorms:
    def test_table_and_exit(self, tmp_path, capsys):
        coeffs = tmp_path / "f.coeffs"
        write_coeffs(coeffs, CoeffField.basis(2, 1))
        run("norms", "--coeffs", str(coeffs))
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.strip()]
        assert rows[2][:2] == ["1", "4"]  # p = 1 row of the norm table
        assert rows[3][:2] == ["2", "16"]

    def test_unit_ground_mode_passes_all_bounds(self, tmp_path, capsys):
        # ||A+ f||_p = 2^p ||f||_(p+1) here: the raising bounds are tight.
        coeffs = tmp_path / "f.coeffs"
        coeffs.write_text("# zernike-coeffs bandwidth=0\n0 0 1.0 0.0\n")
        assert run("norms", "--coeffs", str(coeffs)) == 0
        bounds = capsys.readouterr().out.split("\n\n", 1)[1].strip().splitlines()
        assert bounds and all(line.split()[-1] == "pass" for line in bounds)

    def test_random_field_passes_all_bounds(self, tmp_path, capsys):
        rng = np.random.default_rng(55)
        vals = np.zeros((7, 7), dtype=complex)
        for u in range(7):
            for v in range(7 - u):
                vals[u, v] = complex(rng.normal(), rng.normal())
        coeffs = tmp_path / "f.coeffs"
        write_coeffs(coeffs, CoeffField(6, vals))
        assert run("norms", "--coeffs", str(coeffs)) == 0
        assert "FAIL" not in capsys.readouterr().out

    def _norms(self, tmp_path, text):
        coeffs = tmp_path / "f.coeffs"
        coeffs.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run("norms", "--coeffs", str(coeffs))

    def test_huge_coefficients_give_finite_norms(self, tmp_path, capsys):
        text = "# zernike-coeffs bandwidth=2\n0 0 1e300 0.0\n1 1 1e200 0.0\n"
        assert self._norms(tmp_path, text) == 0
        table, bounds = capsys.readouterr().out.split("\n\n", 1)
        rows = [line.split() for line in table.splitlines()[1:]]
        assert [row[1] for row in rows] == ["1e+300"] * 4
        assert [line.split()[-1] for line in bounds.strip().splitlines()] == ["pass"] * 29

    def test_subnormal_coefficient_keeps_nonzero_norm(self, tmp_path, capsys):
        assert self._norms(tmp_path, "# zernike-coeffs bandwidth=0\n0 0 1e-320 0.0\n") == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:5]]
        assert [row[1] for row in rows] == ["9.99988867e-321"] * 4

    def test_norm_beyond_double_range_is_data_error(self, tmp_path, capsys):
        assert self._norms(tmp_path, "# zernike-coeffs bandwidth=4\n2 2 1e308 0.0\n") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["wzernike norms: norm overflows the double range"]


class TestVerify:
    def test_scaled_suite_passes(self, capsys):
        assert run("--bandwidth", "3", "verify") == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("15/15 checks passed")

    def test_bandwidth_26_passes_up_to_degree_52(self, capsys):
        assert run("--bandwidth", "26", "--quiet", "verify") == 0
        assert capsys.readouterr().out.strip().endswith("15/15 checks passed")

    def test_bandwidth_16_means_scaled_suite(self, monkeypatch, capsys):
        scales = []

        def fake_table(scale=None):
            scales.append(scale)
            return [(1, "stub", lambda: CheckResult("stub", True, ""))]

        monkeypatch.setattr("wzernike.cli.acceptance_table", fake_table)
        assert run("--bandwidth", "16", "verify") == 0
        assert run("verify") == 0
        assert scales == [16, None]

    def test_injected_fault_fails(self, monkeypatch, capsys):
        def fake_table(scale=None):
            return [(1, "stub", lambda: CheckResult("stub", True, "")),
                    (2, "fault", lambda: CheckResult("injected fault", False, "forced"))]

        monkeypatch.setattr("wzernike.cli.acceptance_table", fake_table)
        assert run("--bandwidth", "2", "--quiet", "verify") == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "stub" not in out

    @pytest.mark.parametrize("scale", ["61", "-1"])
    def test_scale_outside_degree_range_is_rejected_before_any_check(
            self, scale, monkeypatch, capsys):
        def gram_must_not_run(*args, **kwargs):
            raise AssertionError("check_gram ran for an invalid scale")

        monkeypatch.setattr("wzernike.selfcheck.check_gram", gram_must_not_run)
        assert run("--bandwidth", scale, "verify") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"wzernike verify: verify scale must be in 0..{N_MAX}, got {scale}"]

    def test_p_check_clamped_below_degree_cap_at_largest_scale(self):
        rows = [row for row in acceptance_table(N_MAX) if row[0] == 9]
        assert len(rows) == 1
        check = rows[0][2]
        assert check.keywords == {"bandwidth": N_MAX - 1, "n_fields": 3}
        assert check().passed


class TestPlotdata:
    def test_mode_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run("--quiet", "plotdata", "--mode", "2", "1",
                   "--output", str(out), "--grid", "8") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,phi,re,im,abs,z_value,w_over_z_scale"
        assert len(lines) == 65

    def test_coeffs_csv(self, tmp_path):
        coeffs = tmp_path / "f.coeffs"
        write_coeffs(coeffs, CoeffField.basis(1, 0))
        out = tmp_path / "f.csv"
        assert run("--quiet", "plotdata", "--coeffs", str(coeffs),
                   "--output", str(out), "--grid", "4") == 0
        assert out.read_text().splitlines()[0] == "r,phi,re,im,abs"
        for line in out.read_text().splitlines()[1:]:
            [float(x) for x in line.split(",")]  # plain numbers, not np.float64(...)

    def test_requires_exactly_one_source(self):
        assert run("plotdata", "--output", "x.csv") == 1
