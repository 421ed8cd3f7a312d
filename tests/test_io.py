import numpy as np
import pytest

from wzernike.algebra import OperatorSpec, UEAMonomial
from wzernike.io import (
    read_coeffs,
    read_operator_spec,
    read_pgm,
    write_coeffs,
    write_operator_spec,
    write_pgm,
)
from wzernike.transform import CoeffField, RasterImage, max_abs_diff


class TestCoeffFiles:
    def test_roundtrip(self, tmp_path):
        f = CoeffField.from_modes({(2, 1): 1.5 - 0.25j, (0, 0): 3.0}, bandwidth=4)
        path = tmp_path / "f.coeffs"
        write_coeffs(path, f)
        assert max_abs_diff(read_coeffs(path), f) == 0.0

    def test_deterministic_bytes(self, tmp_path):
        f = CoeffField.from_modes({(1, 2): 0.1 + 0.7j})
        a, b = tmp_path / "a", tmp_path / "b"
        write_coeffs(a, f)
        write_coeffs(b, f)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("0 0 1.0 0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_coeffs(path)

    def test_duplicate_mode_rejected(self, tmp_path):
        path = tmp_path / "dup"
        path.write_text(
            "# zernike-coeffs bandwidth=2\n0 0 1.0 0.0\n0 0 2.0 0.0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_coeffs(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("# zernike-coeffs bandwidth=1\n0 0 1.0\n")
        with pytest.raises(ValueError, match="expected"):
            read_coeffs(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "neg"
        path.write_text("# zernike-coeffs bandwidth=1\n-1 0 1.0 0.0\n")
        with pytest.raises(ValueError, match="negative mode index"):
            read_coeffs(path)

    def test_entry_beyond_header_bandwidth(self, tmp_path):
        path = tmp_path / "over"
        path.write_text("# zernike-coeffs bandwidth=1\n2 1 1.0 0.0\n")
        with pytest.raises(ValueError, match="beyond"):
            read_coeffs(path)

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        path = tmp_path / "sparse"
        path.write_text(
            "# zernike-coeffs bandwidth=3\n\n# a note\n1 1 2.0 -1.0\n"
        )
        f = read_coeffs(path)
        assert f.bandwidth == 3 and f.get(1, 1) == 2.0 - 1.0j


    @pytest.mark.parametrize("body, message", [
        # the first bad line in file order wins, whatever its kind
        ("0 0 1.0 0.0\n-1 0 1.0 0.0\n0 0 1.0\n", "line 3: negative mode index (-1, 0)"),
        ("0 0 1.0 0.0\n0 0 nan 0.0\n1 x 1.0 0.0\n", "line 3: duplicate mode (0, 0)"),
        ("0 0 1.0 0.0\n1 0 inf 0.0\n0 0 1.0 0.0\n", "line 3: non-finite coefficient at (1, 0)"),
        ("0 0 1.0\n-1 0 1.0 0.0\n", "line 2: expected `u v re im`, got '0 0 1.0'"),
        ("1 0 x 0.0\n0 0 1.0 0.0\n0 0 1.0 0.0\n", "could not convert string to float: 'x'"),
        ("0 y 1.0 0.0\nx 0 1.0 0.0\n", "invalid literal for int() with base 10: 'y'"),
        ("0 0 1.0 0.0\n# zernike-coeffs bandwidth=9999\n0 0 1.0 0.0\n",
         "line 3: bandwidth 9999 exceeds the cap"),
        ("99999999999999999999 0 1.0 0.0\n", "entry beyond requested bandwidth"),
    ])
    def test_first_error_in_file_order(self, tmp_path, body, message):
        path = tmp_path / "bad"
        path.write_text("# zernike-coeffs bandwidth=2\n" + body)
        with pytest.raises(ValueError) as info:
            read_coeffs(path)
        assert str(info.value).startswith(message)

    def test_values_and_zero_entries_read_exactly(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("# zernike-coeffs bandwidth=3\n2 1 0.1 -0.0\n"
                        "\t0  3\t-1e-320 5e300 \n0 0 0.0 0.0\n")
        f = read_coeffs(path)
        assert f.bandwidth == 3
        assert f.get(2, 1) == 0.1 and f.get(0, 3) == complex(-1e-320, 5e300)
        assert np.count_nonzero(f.values) == 2


class TestOperatorSpecFiles:
    def test_roundtrip(self, tmp_path):
        spec = OperatorSpec.of(
            UEAMonomial(1.0, (3, 0, 0), (1, 0, 0)),
            UEAMonomial(-0.5 + 2j, (0, 1, 2), (0, 0, 0)),
        )
        path = tmp_path / "op.spec"
        write_operator_spec(path, spec)
        assert read_operator_spec(path) == spec

    def test_empty_spec(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("# operator-spec\n")
        assert read_operator_spec(path) == OperatorSpec.of()

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("1.0 0.0 1 0\n")
        with pytest.raises(ValueError, match="expected"):
            read_operator_spec(path)

    def test_negative_exponent_rejected(self, tmp_path):
        path = tmp_path / "neg"
        path.write_text("1.0 0.0 -1 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="negative exponent"):
            read_operator_spec(path)


class TestPgm:
    def _gradient(self, maxval):
        px = np.arange(12, dtype=float).reshape(3, 4) * (maxval / 11)
        return RasterImage(4, 3, np.rint(px), maxval=maxval)

    def test_binary_roundtrip(self, tmp_path):
        img = self._gradient(255)
        path = tmp_path / "g.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.maxval == 255
        assert np.array_equal(back.pixels, img.pixels)

    def test_ascii_roundtrip(self, tmp_path):
        img = self._gradient(255)
        path = tmp_path / "g.pgm"
        write_pgm(path, img, binary=False)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_16bit_roundtrip(self, tmp_path):
        img = self._gradient(65535)
        path = tmp_path / "g16.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.maxval == 65535
        assert np.array_equal(back.pixels, img.pixels)

    def test_maxval_preserved_through_roundtrip(self, tmp_path):
        img = self._gradient(1000)
        path = tmp_path / "g.pgm"
        write_pgm(path, img)
        assert read_pgm(path).maxval == 1000

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# made by hand\n2 2\n255\n0 10\n20 30\n")
        img = read_pgm(path)
        assert img.pixels[1, 1] == 30

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n1 1\n10\n11\n")
        with pytest.raises(ValueError, match="exceeds declared maxval"):
            read_pgm(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_out_of_range_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n1 1\n70000\n0\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)
