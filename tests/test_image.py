"""Image container, PSNR, noise, and PGM round-trip behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from redlab import (
    DomainError,
    Image,
    PgmParseError,
    ShapeError,
    UnsupportedFormatError,
    awgn,
    extract_center_patch,
    load_pgm,
    psnr,
    save_pgm,
)


class TestImage:
    def test_copies_and_freezes_input(self):
        """The constructor snapshots its input; neither side can mutate the other."""
        a = np.zeros((3, 4))
        img = Image(a)
        a[0, 0] = 99.0
        assert img.pixels[0, 0] == 0.0
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Image(np.zeros(5))
        with pytest.raises(ShapeError):
            Image(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Image(np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            Image(np.array([[np.inf, 0.0]]))

    def test_from_flat_round_trip(self):
        img = Image(np.arange(12.0).reshape(3, 4))
        again = Image.from_flat(img.flat, 3, 4)
        np.testing.assert_array_equal(again.pixels, img.pixels)

    def test_from_flat_rejects_size_mismatch(self):
        with pytest.raises(ShapeError):
            Image.from_flat(np.zeros(5), 2, 3)

    def test_shape_properties(self):
        img = Image(np.zeros((3, 5)))
        assert (img.height, img.width, img.size) == (3, 5, 15)


class TestPsnr:
    def test_constant_offset_value(self):
        """A uniform gap of 16 against the 256 peak gives 20 log10(16) dB."""
        a = Image(np.zeros((4, 4)))
        b = Image(np.full((4, 4), 16.0))
        np.testing.assert_allclose(psnr(a, b), 24.082399653118496, rtol=1e-12)

    def test_identical_images_are_infinitely_clean(self):
        img = Image(np.arange(6.0).reshape(2, 3))
        assert psnr(img, img) == np.inf

    def test_symmetric(self):
        rng = np.random.default_rng(42)
        a = Image(rng.uniform(0, 255, size=(5, 5)))
        b = Image(rng.uniform(0, 255, size=(5, 5)))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(Image(np.zeros((2, 2))), Image(np.zeros((3, 3))))


class TestExtractCenterPatch:
    def test_exact_center_even_grid(self):
        """On an even grid the window is offset toward the top-left corner."""
        img = Image(np.arange(36.0).reshape(6, 6))
        patch = extract_center_patch(img, 2)
        np.testing.assert_array_equal(patch.pixels, [[14.0, 15.0], [20.0, 21.0]])

    def test_full_size_is_identity(self):
        img = Image(np.arange(16.0).reshape(4, 4))
        np.testing.assert_array_equal(extract_center_patch(img, 4).pixels, img.pixels)

    def test_patch_larger_than_image(self):
        with pytest.raises(ShapeError):
            extract_center_patch(Image(np.zeros((4, 4))), 5)


class TestAwgn:
    def test_seed_determinism(self):
        img = Image(np.full((8, 8), 100.0))
        a = awgn(img, 25.0, seed=3)
        b = awgn(img, 25.0, seed=3)
        c = awgn(img, 25.0, seed=4)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_sample_variance_matches_request(self):
        img = Image(np.zeros((128, 128)))
        noisy = awgn(img, 625.0, seed=0)
        sample = float(np.var(noisy.pixels))
        assert 0.9 * 625.0 < sample < 1.1 * 625.0

    def test_zero_variance_is_identity(self):
        img = Image(np.arange(9.0).reshape(3, 3))
        np.testing.assert_array_equal(awgn(img, 0.0, seed=1).pixels, img.pixels)

    def test_negative_variance(self):
        with pytest.raises(DomainError):
            awgn(Image(np.zeros((2, 2))), -1.0, seed=0)


class TestPgm:
    def test_ascii_parse_with_comment(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P2\n# a comment line\n3 2\n255\n0 10 20\n30 40 250\n")
        img = load_pgm(str(path))
        np.testing.assert_array_equal(
            img.pixels, [[0.0, 10.0, 20.0], [30.0, 40.0, 250.0]])

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = Image(rng.integers(0, 256, size=(5, 9)).astype(float))
        path = tmp_path / "rt.pgm"
        save_pgm(img, str(path))
        assert path.read_bytes().startswith(b"P5\n9 5\n255\n")
        np.testing.assert_array_equal(load_pgm(str(path)).pixels, img.pixels)

    def test_save_rounds_half_away_from_zero(self, tmp_path):
        img = Image(np.array([[0.49, 0.5, 1.5, 2.5, 254.49]]))
        path = tmp_path / "round.pgm"
        save_pgm(img, str(path))
        np.testing.assert_array_equal(
            load_pgm(str(path)).pixels, [[0.0, 1.0, 2.0, 3.0, 254.0]])

    def test_save_rejects_out_of_range(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with pytest.raises(DomainError):
            save_pgm(Image(np.array([[255.5]])), path)
        with pytest.raises(DomainError):
            save_pgm(Image(np.array([[-0.6]])), path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedFormatError):
            load_pgm(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "color.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PgmParseError) as err:
            load_pgm(str(path))
        assert err.value.offset == 0

    def test_truncated_binary_payload_reports_offset(self, tmp_path):
        path = tmp_path / "cut.pgm"
        header = b"P5\n2 2\n255\n"
        path.write_bytes(header + b"\x01\x02")
        with pytest.raises(PgmParseError) as err:
            load_pgm(str(path))
        assert err.value.offset == len(header) + 2

    def test_ascii_sample_above_maxval(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P2\n1 1\n100\n101\n")
        with pytest.raises(PgmParseError):
            load_pgm(str(path))

    def test_ascii_sample_above_maxval_names_its_first_byte(self, tmp_path):
        """The offset is the sample's first byte, as for a binary sample,
        not the whitespace before it."""
        path = tmp_path / "over.pgm"
        data = b"P2\n3 1\n100\n7 101 200\n"
        path.write_bytes(data)
        with pytest.raises(PgmParseError) as err:
            load_pgm(str(path))
        assert err.value.offset == data.index(b"101") == 13
        assert "pixel value 101 outside [0, 100] (byte offset 13)" in str(err.value)

    @pytest.mark.parametrize("data, token", [
        (b"P2\n3 1\n100\n7  x1 20\n", b"x1"),
        (b"P2\n3 1\n100\n7\n\t1.5 20\n", b"1.5"),
        (b"P2\n3  w\n100\n7 1 20\n", b"w"),
        (b"P5\n\n 3x 1\n255\n\x00\x00\x00", b"3x"),
    ], ids=["p2-sample", "p2-sample-after-newline-tab", "p2-height", "p5-width"])
    def test_non_integer_token_names_its_first_byte(self, tmp_path, data, token):
        path = tmp_path / "token.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmParseError, match="expected integer") as err:
            load_pgm(str(path))
        assert err.value.offset == data.index(token)

    @pytest.mark.parametrize("data, message, offset", [
        (b"P2\n0 1\n100\n", "invalid dimensions 0x1", 3),
        (b"P2\n# c\n 2  0\n100\n1 2\n", "invalid dimensions 2x0", 8),
        (b"P5\n2 1\n0\n..", "invalid maxval 0", 7),
        (b"P2\n2 1 \n\t0\n1 2\n", "invalid maxval 0", 9),
    ], ids=["p2-width", "p2-height-after-comment", "p5-maxval", "p2-maxval-after-tab"])
    def test_invalid_header_value_names_its_first_byte(self, tmp_path, data,
                                                       message, offset):
        """Dimension errors name the width token and maxval errors the
        maxval token, not the whitespace before them."""
        path = tmp_path / "header.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmParseError) as err:
            load_pgm(str(path))
        assert err.value.offset == offset
        assert f"{message} (byte offset {offset})" in str(err.value)

    def test_binary_sample_above_maxval_names_its_offset(self, tmp_path):
        """A binary sample above maxval used to load as its byte value; it
        now fails as an ASCII one does, at the first such byte."""
        path = tmp_path / "over.pgm"
        header = b"P5\n4 1\n100\n"
        path.write_bytes(header + bytes([7, 101, 200, 3]))
        with pytest.raises(PgmParseError) as err:
            load_pgm(str(path))
        assert err.value.offset == len(header) + 1
        assert "pixel value 101 outside [0, 100]" in str(err.value)

    def test_binary_samples_up_to_a_small_maxval_load(self, tmp_path):
        path = tmp_path / "small.pgm"
        path.write_bytes(b"P5\n3 1\n100\n" + bytes([0, 42, 100]))
        np.testing.assert_array_equal(load_pgm(str(path)).pixels, [[0.0, 42.0, 100.0]])

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2,
                                                 min_side=1, max_side=12)))
    def test_round_trip_any_uint8_content(self, tmp_path, data):
        """Binary save/load is lossless for every 8-bit image."""
        img = Image(data.astype(float))
        path = tmp_path / "prop.pgm"
        save_pgm(img, str(path))
        np.testing.assert_array_equal(load_pgm(str(path)).pixels, img.pixels)
