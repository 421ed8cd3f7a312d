"""The benchmark's references against values known apart from the program,
and its output checks against corrupted outputs.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from calibration import Calibration
from workloads import (ApplyNorms, Pipeline, Roundtrip, check_norms, check_rendered,
                       gaussian_field, trim)


def test_radial_known_value():
    assert ref.radial(4, 2, 0.5) == pytest.approx(-0.5, abs=1e-15)
    assert ref.radial_exact(4, 2, Fraction(1, 2)) == Fraction(-1, 2)


def test_radial_is_one_at_the_rim():
    for n in range(61):
        for m in range(n % 2, n + 1, 2):
            assert ref.radial(n, m, 1.0) == pytest.approx(1.0, abs=1e-12)
            assert ref.radial_exact(n, m, Fraction(1)) == 1


def test_recurrence_matches_exact_sum_up_to_degree_60():
    radii = [Fraction(k, 64) for k in (0, 5, 17, 32, 45, 58, 63, 64)]
    r = np.array([float(x) for x in radii])
    for m in (0, 1, 7, 20):
        for n, vals in ref.radial_orders(m, 60, r):
            exact = np.array([float(ref.radial_exact(n, m, x)) for x in radii])
            assert np.max(np.abs(vals - exact)) < 1e-13, (n, m)


def test_orthonormal_up_to_degree_60_under_gauss_rule():
    r, w, _ = ref.gauss_disk(60)
    worst = 0.0
    for m in range(61):
        # |W|^2 integrates over angle to 2 (n+1) R^2; angles are exact on
        # the uniform grid, so the radial Gram per m is the whole test.
        rows = np.array([math.sqrt(2 * (n + 1)) * vals for n, vals in ref.radial_orders(m, 60, r)])
        gram = (rows * w) @ rows.T
        worst = max(worst, np.max(np.abs(gram - np.eye(len(rows)))))
    assert worst < 1e-12


def test_orthonormal_with_angles_at_degree_8():
    r, w, phi = ref.gauss_disk(8)
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    modes = [(u, n - u) for n in range(9) for u in range(n + 1)]
    rows = np.array([ref.w_mode(u, v, rr, pp).ravel() for u, v in modes])
    weights = np.repeat(w, len(phi)) * (2 * math.pi / len(phi))
    gram = (np.conj(rows) * weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-13


def test_project_inverts_synthesize():
    rng = np.random.default_rng(0)
    f = gaussian_field(rng, 12)
    r, w, phi = ref.gauss_disk(12)
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    assert np.max(np.abs(ref.project(ref.synthesize(f, rr, pp), r, w, 12) - f)) < 1e-12


def test_worked_operator_example():
    unit = np.zeros((6, 6), dtype=complex)
    unit[4, 1] = 1.0
    values, _ = ref.apply_spec([(1.0, (3, 0, 0), (1, 0, 0))], unit)
    assert values == {(7, 2): 420.0}


def test_lowering_annihilates_and_diagonal_weights():
    assert ref.monomial_factor((0, 0, 1), (0, 0, 0), 0, 3)[1] == 0
    assert ref.monomial_factor((0, 2, 0), (0, 0, 1), 3, 2) == ((3, 1), 3.5**2 * 2)


def test_norm_formulas_on_unit_fields():
    f = np.zeros((5, 5), dtype=complex)
    f[2, 1] = 3j
    assert ref.norm_p(f, 2) == pytest.approx(3 * 4**2)
    assert ref.norm_1q(f, 3) == pytest.approx(3 * 4**3)


def test_coefficient_text_roundtrip():
    f = gaussian_field(np.random.default_rng(1), 6)
    assert np.array_equal(ref.parse_coeffs(ref.format_coeffs(f)), f)
    with pytest.raises(ValueError):
        ref.parse_coeffs(ref.COEFF_HEADER + "1\n0 0 1.0 0.0\n0 0 1.0 0.0\n")


def _apply_case():
    f = trim(gaussian_field(np.random.default_rng(2), 10), 10)
    spec = [(0.5 + 0.25j, (1, 2, 0), (0, 1, 1)), (-1.0, (0, 0, 2), (2, 0, 0))]
    values, scale = ref.apply_spec(spec, f)
    return ref.to_dense(values), values, scale


def test_apply_check_accepts_reference_and_rejects_moved_coefficient():
    got, values, scale = _apply_case()
    assert ref.spec_matches(ref.parse_coeffs(ref.format_coeffs(got)), values, scale)
    moved = got.copy()
    moved[3, 4] += 1e-6
    assert not ref.spec_matches(moved, values, scale)
    moved = got.copy()
    moved[5, 2] *= 1 + 1e-6
    assert not ref.spec_matches(moved, values, scale)


def test_render_check_allows_one_grey_level_not_two():
    f = gaussian_field(np.random.default_rng(3), 6)
    expected = ref.render(f, 32)
    pixels = np.rint(expected)
    assert check_rendered(ref.format_pgm(pixels, 255), expected)
    pixels[16, 10] = pixels[16, 10] + 2 if pixels[16, 10] < 200 else pixels[16, 10] - 2
    assert not check_rendered(ref.format_pgm(pixels, 255), expected)


def test_norms_check_rejects_a_moved_norm():
    want = [(1.5, 20.25), (310.0, 4000.0)]
    assert check_norms([(1.50000000001, 20.25), (310.0, 4000.0)], want)
    assert not check_norms([(1.5, 20.25), (310.0 * (1 + 1e-6), 4000.0)], want)


def test_calibration_cancels_the_machine_speed_and_keeps_the_program_speed():
    cal = Calibration(lambda: None, ref_ms=2.0)
    # Twelve operations at the reference speed, then twelve on a machine
    # at half speed, where the calibration and the operation both double.
    samples = [0.002] * 12 + [0.004] * 12
    walls = [0.050] * 12 + [0.100] * 12
    factors = cal.factors(samples)
    assert all(t * f == pytest.approx(0.050) for t, f in zip(walls[:8] + walls[16:],
                                                              factors[:8] + factors[16:]))
    # A program twice as slow reads twice as slow at either machine speed.
    assert all(2 * t * f == pytest.approx(0.100) for t, f in zip(walls, factors)
               if f in (factors[0], factors[-1]))
    assert cal.factor([0.001, 0.004, 0.002]) == pytest.approx(1.0)


# The workloads' own checks on real program outputs, then on those outputs
# corrupted.  These call the program, so they need src/ importable.

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def program():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"wzernike.{name}")
        for name in ("cli", "io", "transform", "algebra", "rhs")
    })


def _move_coefficient(path: Path, line: int, move) -> None:
    lines = path.read_text().splitlines()
    u, v, re, im = lines[line].split()
    lines[line] = f"{u} {v} {move(float(re))!r} {im}"
    path.write_text("\n".join(lines) + "\n")


def test_pipeline_check_rejects_corrupted_outputs(program, tmp_path):
    w = Pipeline(0, tmp_path, ROOT)
    w.bind(program)
    assert w.check(0, w.run(0))
    _, _, coeffs, image = w._paths(0, traced=False)
    good = coeffs.read_bytes()
    _move_coefficient(coeffs, 7, lambda x: x + 1e-6)
    assert not w.check(0, (0, 0))
    coeffs.write_bytes(good)
    assert w.check(0, (0, 0))
    pixels, maxval = ref.parse_pgm(image.read_bytes())
    pixels[64, 40] += 2 if pixels[64, 40] < 200 else -2
    image.write_bytes(ref.format_pgm(pixels, maxval))
    assert not w.check(0, (0, 0))


def test_apply_norms_check_rejects_a_moved_coefficient(program, tmp_path):
    w = ApplyNorms(0, tmp_path, ROOT)
    w.bind(program)
    outcome = w.run(1)
    assert w.check(1, outcome)
    # Entries reach ~1e12 here, so the move is relative.
    _move_coefficient(w._paths(1, traced=False)[2], 100, lambda x: x * (1 + 1e-6))
    assert not w.check(1, outcome)


def test_roundtrip_checks_pass_up_to_degree_47(program):
    class Roundtrip47(Roundtrip):
        bandwidth = 47

    w = Roundtrip47(0, None, ROOT)
    w.bind(program)
    samples, back = w.run(0)
    assert w.check(0, (samples, back))
    back = back.copy()
    back[3, 2] += 1e-6
    assert not w.check(0, (samples, back))
