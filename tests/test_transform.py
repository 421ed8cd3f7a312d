import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wzernike.algebra import apply_operator
from wzernike.basis import DiskPoint, ModeIndex, w_bound, w_eval_grid
from wzernike.io import read_operator_spec, write_pgm
from wzernike.transform import (
    MAX_RASTER,
    CoeffField,
    PolarSamples,
    RasterImage,
    _bilinear,
    analyze,
    build_quadrature,
    disk_pixels,
    inner_product,
    max_abs_diff,
    parseval_gap,
    polar_to_raster,
    raster_to_polar,
    synthesize_on,
    synthesize_raster,
    synthesize_rphi,
)


def random_field(rng, bandwidth):
    vals = np.zeros((bandwidth + 1, bandwidth + 1), dtype=complex)
    for u in range(bandwidth + 1):
        for v in range(bandwidth + 1 - u):
            vals[u, v] = complex(rng.normal(), rng.normal())
    return CoeffField(bandwidth, vals)


class TestCoeffField:
    def test_triangle_invariant(self):
        vals = np.zeros((3, 3), dtype=complex)
        vals[2, 2] = 1.0
        with pytest.raises(ValueError, match="beyond the stated bandwidth"):
            CoeffField(2, vals)

    def test_values_frozen(self):
        f = CoeffField.basis(1, 1)
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0

    def test_get_outside_support_is_zero(self):
        assert CoeffField.basis(1, 0).get(5, 5) == 0j

    def test_with_bandwidth_pads(self):
        f = CoeffField.basis(1, 1).with_bandwidth(4)
        assert f.bandwidth == 4 and f.get(1, 1) == 1.0

    def test_with_bandwidth_refuses_lossy_shrink(self):
        with pytest.raises(ValueError, match="drop nonzero"):
            CoeffField.basis(2, 1).with_bandwidth(2)

    def test_trimmed(self):
        f = CoeffField.from_modes({(1, 0): 2.0}, bandwidth=6)
        assert f.trimmed().bandwidth == 1

    def test_arithmetic(self):
        f = CoeffField.basis(1, 0) + 2.0 * CoeffField.basis(0, 2)
        assert f.get(1, 0) == 1.0 and f.get(0, 2) == 2.0
        assert (f - f).l2_norm() == 0.0

    def test_conj_transpose(self):
        f = CoeffField.from_modes({(1, 0): 1 + 2j})
        assert f.conj_transpose().get(0, 1) == 1 - 2j


class TestQuadrature:
    def test_degenerate_rule(self):
        q = build_quadrature(0)
        assert q.n_radial == 1 and q.n_angular == 4
        assert float(np.sum(q.w)) == pytest.approx(0.5)

    def test_weights_sum_to_half(self):
        q = build_quadrature(20)
        assert float(np.sum(q.w)) == pytest.approx(0.5, abs=1e-15)

    def test_angular_count(self):
        assert build_quadrature(8).n_angular == 18

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_quadrature(-1)

    def test_gram_identity(self):
        n = 8
        q = build_quadrature(n)
        from wzernike.basis import modes_upto

        samples = [PolarSamples(q, w_eval_grid(m, q.r, q.phi)) for m in modes_upto(n)]
        for i, a in enumerate(samples):
            for j, b in enumerate(samples):
                want = 1.0 if i == j else 0.0
                assert abs(inner_product(a, b, q) - want) <= 1e-12


class TestAnalyzeSynthesize:
    def test_constant_function(self):
        q = build_quadrature(4)
        samples = PolarSamples(
            q, np.full((q.n_radial, q.n_angular), 1 / math.sqrt(math.pi), dtype=complex)
        )
        f = analyze(samples, q, 4)
        assert f.get(0, 0) == pytest.approx(1.0, abs=1e-14)
        assert f.l2_norm() == pytest.approx(1.0, abs=1e-13)

    def test_single_mode_projection(self):
        q = build_quadrature(6)
        samples = PolarSamples(q, w_eval_grid(ModeIndex(2, 1), q.r, q.phi))
        f = analyze(samples, q, 6)
        assert f.get(2, 1) == pytest.approx(1.0, abs=1e-13)
        assert f.l2_norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_samples(self):
        q = build_quadrature(3)
        f = analyze(PolarSamples(q, np.zeros((q.n_radial, q.n_angular))), q, 3)
        assert f.l2_norm() == 0.0

    def test_bandwidth_beyond_quadrature_rejected(self):
        q = build_quadrature(3)
        with pytest.raises(ValueError, match="exceeds quadrature exactness"):
            analyze(PolarSamples(q, np.zeros((q.n_radial, q.n_angular))), q, 4)

    def test_synthesize_single_mode(self):
        f = CoeffField.basis(3, 1)
        pts = [DiskPoint(0.4, 1.2), DiskPoint(0.9, 5.0)]
        vals = synthesize_rphi(f, np.array([p.r for p in pts]),
                               np.array([p.phi for p in pts]))
        from wzernike.basis import w_eval

        for got, p in zip(vals, pts):
            assert got == pytest.approx(w_eval(ModeIndex(3, 1), p))

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        n = 10
        q = build_quadrature(n)
        f = random_field(rng, n)
        back = analyze(synthesize_on(f, q), q, n)
        assert max_abs_diff(back, f) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        q = build_quadrature(5)
        f, g = random_field(rng, 5), random_field(rng, 5)
        lhs = synthesize_on(f + 2j * g, q).values
        rhs = synthesize_on(f, q).values + 2j * synthesize_on(g, q).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_hermitian_field_synthesizes_real(self):
        rng = np.random.default_rng(2)
        f = random_field(rng, 6)
        h = 0.5 * (f + f.conj_transpose())
        q = build_quadrature(6)
        vals = synthesize_on(h, q).values
        assert np.max(np.abs(vals.imag)) <= 1e-12

    def test_parseval_zero_and_single_mode(self):
        q = build_quadrature(8)
        assert parseval_gap(CoeffField.zeros(3), q) == 0.0
        f = CoeffField.from_modes({(3, 2): 2.0})
        assert parseval_gap(f, q) <= 1e-12  # norm^2 = 4 both sides

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_analyze_picks_out_any_mode(self, u, v):
        n = u + v
        q = build_quadrature(n)
        f = analyze(PolarSamples(q, w_eval_grid(ModeIndex(u, v), q.r, q.phi)), q, n)
        assert abs(f.get(u, v) - 1.0) <= 1e-12


class TestFFTTransform:
    def test_bandwidth_above_quadrature_folds_exactly(self):
        # Orders beyond M/2 alias onto other FFT bins; at the grid angles
        # e^{i m phi_k} is M-periodic in m, so the fold is exact there.
        rng = np.random.default_rng(8)
        q = build_quadrature(5)
        f = random_field(rng, 20)
        got = synthesize_on(f, q).values
        rr, pp = np.meshgrid(q.r, q.phi, indexing="ij")
        want = synthesize_rphi(f, rr, pp)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_roundtrip_at_degree_cap(self):
        from wzernike.basis import modes_upto

        rng = np.random.default_rng(60)
        n = 60
        q = build_quadrature(n)
        f = random_field(rng, n)
        samples = synthesize_on(f, q)
        back = analyze(samples, q, n)
        assert max_abs_diff(back, f) <= 1e-11 * np.max(np.abs(f.values))
        modes = modes_upto(n)
        weights = q.w[:, None] * q.angular_weight
        for i in rng.choice(len(modes), size=12, replace=False):
            mode = modes[i]
            grid = w_eval_grid(mode, q.r, q.phi)
            direct = complex(np.sum(np.conj(grid) * samples.values * weights))
            assert abs(back.get(mode.u, mode.v) - direct) <= 1e-11 * abs(direct)

    def test_radial_table_cache_is_bounded(self):
        from wzernike.transform import _radial_table

        rng = np.random.default_rng(4)
        for n in range(40, 48):
            synthesize_on(random_field(rng, n), build_quadrature(n + 2))
        info = _radial_table.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


class TestRaster:
    def test_image_validation(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            RasterImage(2, 2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="pixel shape"):
            RasterImage(2, 3, np.zeros((2, 2)))

    def test_bilinear_center_of_checkerboard(self):
        img = RasterImage(2, 2, np.array([[0.0, 100.0], [100.0, 0.0]]))
        got = _bilinear(img, np.array([1.0]), np.array([1.0]))
        assert got[0] == pytest.approx(50.0)

    def test_bilinear_at_pixel_centers(self):
        px = np.arange(12, dtype=float).reshape(3, 4)
        img = RasterImage(4, 3, px)
        got = _bilinear(img, np.array([2.5]), np.array([1.5]))
        assert got[0] == px[1, 2]

    def test_constant_image_samples_constant(self):
        img = RasterImage(16, 16, np.full((16, 16), 7.0))
        q = build_quadrature(4)
        samples = raster_to_polar(img, q)
        assert np.max(np.abs(samples.values - 7.0)) <= 1e-12

    def test_inscribed_disk_uses_short_side(self):
        # tall image: disk radius is width/2, so columns far from the
        # vertical strip never influence the samples
        px = np.full((32, 8), 3.0)
        px[:8, :] = 250.0  # top band, outside the inscribed disk
        px[-8:, :] = 250.0
        img = RasterImage(8, 32, px)
        q = build_quadrature(3)
        samples = raster_to_polar(img, q)
        assert np.max(samples.values) <= 3.0 + 1e-12

    def test_render_ground_mode_uniform(self):
        img = polar_to_raster(CoeffField.basis(0, 0), 32, 32, maxval=255)
        mask = disk_pixels(32)[0]
        assert np.all(img.pixels[mask] == pytest.approx(255.0))
        assert np.all(img.pixels[~mask] == 0.0)

    def test_render_zero_field(self):
        img = polar_to_raster(CoeffField.zeros(2), 16, 16)
        assert np.all(img.pixels == 0.0)

    def test_render_unnormalized(self):
        img = polar_to_raster(CoeffField.basis(0, 0), 8, 8, normalize=False)
        mask = disk_pixels(8)[0]
        assert np.all(img.pixels[mask] == pytest.approx(1 / math.sqrt(math.pi)))


class TestSynthesizeRphi:
    def test_matches_w_eval_on_broadcast(self):
        f = CoeffField.from_modes({(1, 0): 2.0, (0, 2): 1j})
        r = np.array([0.3, 0.8])
        phi = np.array([0.5, 2.5])
        from wzernike.basis import w_eval

        got = synthesize_rphi(f, r, phi)
        for i in range(2):
            p = DiskPoint(float(r[i]), float(phi[i]))
            want = 2.0 * w_eval(ModeIndex(1, 0), p) + 1j * w_eval(ModeIndex(0, 2), p)
            assert got[i] == pytest.approx(want)

    def test_dense_field_matches_per_mode_sum(self):
        # Reference: one w_eval per mode; the grouped recurrence reorders
        # the sums, so agreement is to rounding, relative to sum |f| |W|.
        from wzernike.basis import w_bound, w_eval

        rng = np.random.default_rng(21)
        f = random_field(rng, 12)
        vals = f.values.copy()
        vals[3, 5] = vals[0, 7] = 0  # zero modes are skipped
        f = CoeffField(12, vals)
        r = rng.uniform(0.0, 1.0, 40)
        phi = rng.uniform(0.0, 2 * math.pi, 40)
        got = synthesize_rphi(f, r, phi)
        scale = sum(abs(c) * w_bound(ModeIndex(u, v)) for u, v, c in f.iter_modes())
        for i in range(40):
            p = DiskPoint(float(r[i]), float(phi[i]))
            want = sum(c * w_eval(ModeIndex(u, v), p) for u, v, c in f.iter_modes())
            assert abs(got[i] - want) <= 1e-14 * scale

    def test_degree_cap_and_domain_still_enforced(self):
        over = CoeffField.from_modes({(0, 0): 1.0, (31, 30): 1.0})
        with pytest.raises(ValueError, match="degree cap exceeded: n=61"):
            synthesize_rphi(over, np.array([0.5]), np.array([0.0]))
        padded = CoeffField.from_modes({(1, 0): 1.0}, bandwidth=70)
        got = synthesize_rphi(padded, np.array([1.0]), np.array([0.0]))
        assert got[0] == pytest.approx(math.sqrt(2 / math.pi))
        with pytest.raises(ValueError, match="domain"):
            synthesize_rphi(padded, np.array([1.5]), np.array([0.0]))


def weighted_l1(f):
    """sum |f_{u,v}| w_bound(u, v), the scale of any pointwise error."""
    return sum(abs(c) * w_bound(ModeIndex(u, v)) for u, v, c in f.iter_modes())


def per_pixel_raster(f, size):
    """The field at every disk pixel through synthesize_rphi; 0 outside."""
    inside, r, phi = disk_pixels(size)
    out = np.zeros((size, size), dtype=complex)
    out[inside] = synthesize_rphi(f, r, phi)
    return out


class TestOctantRaster:
    SIZES = (1, 2, 3, 4, 5, 127, 128, 257)

    @pytest.mark.parametrize("n", [0, 1, 16, 40, 60])
    def test_matches_pointwise_synthesis(self, n):
        rng = np.random.default_rng(100 + n)
        dense = random_field(rng, n)
        vals = dense.values.copy()
        for m in range(1, n + 1, 3):  # empty orders are skipped, both signs
            vals[np.arange(n + 1 - m), np.arange(m, n + 1)] = 0
            if m % 2:
                vals[np.arange(m, n + 1), np.arange(n + 1 - m)] = 0
        for f in (dense, CoeffField(n, vals)):
            scale = weighted_l1(f)
            for size in self.SIZES:
                got = synthesize_raster(f, size)
                want = per_pixel_raster(f, size)
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (n, size)

    def test_writes_every_disk_pixel_and_nothing_outside(self):
        # The ground mode is nonzero everywhere on the disk, so the written
        # pixels are exactly the nonzero ones.
        ground = CoeffField.basis(0, 0)
        for size in list(range(1, 70)) + [127, 128, 255, 256, 257, 511, 512]:
            got = synthesize_raster(ground, size)
            assert np.array_equal(got != 0, disk_pixels(size)[0]), size

    def test_pgm_of_operator_output_matches_per_pixel_render(self, tmp_path):
        from wzernike.selfcheck import make_test_image_field

        spec = read_operator_spec(
            Path(__file__).resolve().parents[1] / "specs" / "diagonal_blend.spec")
        out = apply_operator(spec, make_test_image_field(16, seed=5))
        size = 128
        want = np.abs(per_pixel_raster(out, size))
        want *= 255 / want.max()
        write_pgm(tmp_path / "octant.pgm", polar_to_raster(out, size, size))
        write_pgm(tmp_path / "pixel.pgm", RasterImage(size, size, want))
        assert (tmp_path / "octant.pgm").read_bytes() == (tmp_path / "pixel.pgm").read_bytes()

    @pytest.mark.parametrize("size", [0, -1, MAX_RASTER + 1])
    def test_size_outside_range_rejected(self, size):
        with pytest.raises(ValueError, match=f"raster size {size} outside"):
            polar_to_raster(CoeffField.basis(0, 0), size, size)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            polar_to_raster(CoeffField.basis(0, 0), 8, 6)
