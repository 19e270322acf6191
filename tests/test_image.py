"""Image container, PSNR, noise, and PGM round-trip behavior."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from redlab import (
    DomainError,
    IdentityOperator,
    Image,
    JacobianEstimate,
    KdePrior,
    PgmParseError,
    QuadraticLoss,
    RedlabError,
    RedProblem,
    ShapeError,
    TdtDenoiser,
    TweedieRegularizer,
    UnsupportedFormatError,
    awgn,
    extract_center_patch,
    load_pgm,
    psnr,
    save_pgm,
)
from redlab.cli import main


class TestImage:
    def test_copies_and_freezes_input(self):
        """The constructor snapshots its input; neither side can mutate the other."""
        a = np.zeros((3, 4))
        img = Image(a)
        a[0, 0] = 99.0
        assert img.pixels[0, 0] == 0.0
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    @pytest.mark.parametrize("make", [
        lambda a: a, np.asfortranarray, lambda a: a.astype(np.int64),
        lambda a: Image(a).pixels, lambda a: a[:, ::2]], ids=[
        "float64", "fortran", "int64", "read-only", "strided"])
    def test_every_input_is_copied_into_a_c_ordered_array(self, make):
        a = make(np.arange(24.0).reshape(4, 6))
        img = Image(a)
        assert not np.shares_memory(img.pixels, a)
        assert img.pixels.flags.c_contiguous and not img.pixels.flags.writeable
        np.testing.assert_array_equal(img.pixels, a)

    def test_adopt_wraps_the_array_itself_under_the_same_checks(self):
        a = np.arange(6.0).reshape(2, 3)
        img = Image._adopt(a)
        assert img.pixels is a and not a.flags.writeable
        for bad, error in [(np.zeros(5), ShapeError), (np.zeros((0, 3)), ShapeError),
                           (np.array([[1.0, np.nan]]), DomainError),
                           (np.array([[np.inf, 0.0]]), DomainError)]:
            with pytest.raises(error):
                Image._adopt(bad)

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


# Frozen types that hold arrays: each builds two instances of equal content.
ARRAY_HOLDERS = {
    "Image": lambda: Image(np.zeros((4, 4))),
    "JacobianEstimate": lambda: JacobianEstimate(np.eye(4), 1e-3, np.zeros(4)),
    "RedProblem": lambda: RedProblem(IdentityOperator(), Image(np.zeros((4, 4))), 1.0, 0.1,
                                     TdtDenoiser(0.1)),
    "QuadraticLoss": lambda: QuadraticLoss(IdentityOperator(), Image(np.zeros((4, 4))), 1.0),
    "KdePrior": lambda: KdePrior(np.zeros((3, 2)), 1.0),
    "TweedieRegularizer": lambda: TweedieRegularizer(KdePrior(np.zeros((3, 2)), 1.0)),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(build):
    """No generated __eq__ compares the arrays: equality is identity, and
    instances hash, so they can be set members and dict keys."""
    a, b = build(), build()
    assert a == a
    assert a != b
    assert not a == b
    assert a in {a} and b not in {a}
    assert len({a, b}) == 2


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

    def test_zero_size_is_rejected(self):
        with pytest.raises(ShapeError, match="^patch size must be positive, got 0$"):
            extract_center_patch(Image(np.zeros((4, 4))), 0)


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

    @pytest.mark.parametrize("variance", [np.nan, np.inf], ids=str)
    def test_non_finite_variance_is_named(self, variance):
        """Rejected as the variance, not as the non-finite pixels it would make."""
        with pytest.raises(DomainError,
                           match=f"noise variance must be finite and >= 0, got {variance}"):
            awgn(Image(np.zeros((2, 2))), variance, seed=0)


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

    def test_binary_file_ending_after_maxval(self, tmp_path):
        path = tmp_path / "bare.pgm"
        path.write_bytes(b"P5\n2 2\n255")
        with pytest.raises(PgmParseError, match=r"^expected single whitespace before "
                                                r"raster \(byte offset 10\)$"):
            load_pgm(str(path))

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


class _PgmScanner:
    """Token scanner for PGM headers that tracks byte offsets."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_whitespace(self):
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1].isspace():
            self.pos += 1

    def skip_comment_line(self) -> bool:
        """Consume one '#' comment line if present; returns True if consumed."""
        self.skip_whitespace()
        if self.pos < len(self.data) and self.data[self.pos] == ord("#"):
            nl = self.data.find(b"\n", self.pos)
            self.pos = len(self.data) if nl < 0 else nl + 1
            return True
        return False

    def token(self, what: str) -> bytes:
        self.skip_whitespace()
        if self.pos >= len(self.data):
            raise PgmParseError(f"unexpected end of data while reading {what}", self.pos)
        start = self.pos
        while self.pos < len(self.data) and not self.data[self.pos : self.pos + 1].isspace():
            self.pos += 1
        return self.data[start : self.pos]

    def integer(self, what: str) -> int:
        self.skip_whitespace()
        start = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise PgmParseError(
                f"expected integer for {what}, got {tok!r}", start
            ) from None


def reference_load_pgm(path: str) -> Image:
    """The former load_pgm: a byte-at-a-time scanner, and a P2 array sized
    from the header before any sample is read."""
    with open(path, "rb") as fh:
        data = fh.read()
    sc = _PgmScanner(data)
    magic = sc.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic number {magic!r}", 0)
    sc.skip_comment_line()
    # Header errors name the first byte of the offending token.
    sc.skip_whitespace()
    width_at = sc.pos
    width = sc.integer("width")
    height = sc.integer("height")
    sc.skip_whitespace()
    maxval_at = sc.pos
    maxval = sc.integer("maxval")
    if width < 1 or height < 1:
        raise PgmParseError(f"invalid dimensions {width}x{height}", width_at)
    if maxval > 255:
        raise UnsupportedFormatError(
            f"maxval {maxval} exceeds 255; only 8-bit PGM is supported"
        )
    if maxval < 1:
        raise PgmParseError(f"invalid maxval {maxval}", maxval_at)

    count = width * height
    if magic == b"P5":
        if sc.pos >= len(data) or not data[sc.pos : sc.pos + 1].isspace():
            raise PgmParseError("expected single whitespace before raster", sc.pos)
        sc.pos += 1
        raster = data[sc.pos : sc.pos + count]
        if len(raster) < count:
            raise PgmParseError(
                f"raster truncated: expected {count} bytes, got {len(raster)}",
                sc.pos + len(raster),
            )
        values = np.frombuffer(raster, dtype=np.uint8, count=count).astype(np.float64)
        above = np.flatnonzero(values > maxval)
        if above.size:
            at = int(above[0])
            raise PgmParseError(f"pixel value {values[at]:g} outside [0, {maxval}]", sc.pos + at)
    else:
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            sc.skip_whitespace()
            at = sc.pos
            v = sc.integer("pixel value")
            if v < 0 or v > maxval:
                raise PgmParseError(
                    f"pixel value {v} outside [0, {maxval}]", at
                )
            values[i] = v
    return Image.from_flat(values, height, width)


def _outcome(load, path):
    """The pixels a loader returns, or the class, message and offset of the
    error it raises."""
    try:
        pixels = load(path).pixels
    except RedlabError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return pixels.tobytes(), pixels.shape


def _first_non_digit_integer(data: bytes):
    """The outcome of load_pgm at the first value it reads that int() accepts
    but that is not all ASCII digits (a sign or an underscore), tokens taken
    as the reference scanner takes them; None when a token that int()
    rejects or the end of the data comes first, or there is no such value."""
    sc = _PgmScanner(data)
    try:
        magic = sc.token("magic number")
    except PgmParseError:
        return None
    sc.skip_comment_line()
    values = ["width", "height", "maxval"]
    if magic == b"P2":
        values = itertools.chain(values, itertools.repeat("pixel value"))
    for what in values:
        sc.skip_whitespace()
        at = sc.pos
        if at == len(data):
            return None
        token = sc.token(what)
        if not token.isdigit():
            try:
                int(token)
            except ValueError:
                return None
            return (PgmParseError,
                    f"expected integer for {what}, got {token!r} (byte offset {at})", at)
    return None


_SPACES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def pgm_files(draw):
    """A valid P2 or P5 file with whitespace of every kind, then up to two
    edits that insert or delete a few bytes, and maybe a cut.  Declared
    sizes stay below 10**8 samples, since the reference allocates its P2
    array from them."""
    gap = st.lists(st.sampled_from(_SPACES), min_size=1, max_size=3).map(b"".join)
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.sampled_from([255, 100, 7, 1]))
    comment = draw(st.sampled_from(
        [b"", b"", b"# c\n", b"#\n", b"# c", b"# one\n# two\n"]))
    data = (draw(st.sampled_from([b"", b" "])) + magic + draw(gap)
            + (comment + draw(gap) if comment else b"")
            + b"%d%s%d%s%d" % (width, draw(gap), height, draw(gap), maxval))
    pixels = draw(st.lists(st.integers(0, maxval), min_size=width * height,
                           max_size=width * height))
    if magic == b"P5":
        data += draw(st.sampled_from(_SPACES)) + bytes(pixels)
    else:
        data += b"".join(draw(gap) + b"%d" % v for v in pixels)
    data += draw(st.sampled_from([b"", b"\n", b" 7", b"x"]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        insert = draw(st.sampled_from(
            [b"", b"\x1c", b"\x00", b"#", b"x", b"-", b"+", b"_", b"+9", b"1_", b"-0",
             b".5", b"9", b"256", b"\xff"] + _SPACES))
        data = data[:at] + insert + data[at + draw(st.integers(0, 2)):]
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


class TestPgmAgainstReference:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pgm_files())
    def test_loaders_agree_on_generated_files(self, tmp_path, data):
        """Equal pixels, or the same error class, message and offset; or the
        file holds a value that int() reads but that is not all digits, which
        the reference loads and load_pgm rejects at the first such token."""
        path = tmp_path / "gen.pgm"
        path.write_bytes(data)
        outcome = _outcome(load_pgm, str(path))
        assert (outcome == _outcome(reference_load_pgm, str(path))
                or outcome == _first_non_digit_integer(data))


class TestPgmDeclaredSizes:
    """A header may declare any size; a file that holds less exits 2 naming
    a byte offset, however large the declared image."""

    @pytest.mark.parametrize("data, message", [
        (b"P2\n1000000 1000000\n255\n1 2 3\n",
         "unexpected end of data while reading pixel value"),
        (b"P2\n4294967296 4294967296\n255\n1 2 3\n",
         "unexpected end of data while reading pixel value"),
        (b"P5\n1000000 1000000\n255\n\x01\x02\x03",
         "raster truncated: expected 1000000000000 bytes, got 3"),
        (b"P5\n4294967296 4294967296\n255\n\x01\x02\x03",
         f"raster truncated: expected {2**64} bytes, got 3"),
    ], ids=["p2-1e12", "p2-2**64", "p5-1e12", "p5-2**64"])
    def test_header_larger_than_its_data_exits_two(self, tmp_path, capsys, data,
                                                   message):
        """One error line naming the end of the file, no traceback and no
        outputs."""
        (tmp_path / "huge.pgm").write_bytes(data)
        config = tmp_path / "exp.ini"
        config.write_text(f"[experiment]\nname = trajectory\nseed = 1\n"
                          f"output = {tmp_path / 'out'}\n"
                          f"[problem]\nimage = huge.pgm\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {message} (byte offset {len(data)})\n")
        assert not (tmp_path / "out").exists()


class TestPgmDigitTokens:
    """A header value or P2 sample is ASCII decimal digits: a sign or an
    underscore, which int() reads, makes the token no integer, wherever it
    stands."""

    FIELDS = {"width": 0, "height": 1, "maxval": 2, "pixel value": 4}

    @staticmethod
    def pgm(what, token):
        """P2, 2x1, maxval 255, samples 7 and 9, with `token` for `what` (the
        second sample for a pixel value); the file and the token's offset."""
        fields = [b"2", b"1", b"255", b"7", b"9"]
        fields[TestPgmDigitTokens.FIELDS[what]] = token
        data = b"P2\n%s %s\n%s\n%s %s\n" % tuple(fields)
        return data, data.index(token, 3)

    @pytest.mark.parametrize("token", [b"+7", b"1_1", b"-0", b"-1"])
    @pytest.mark.parametrize("what", list(FIELDS))
    def test_signed_or_underscored_token_is_no_integer(self, tmp_path, capsys, what,
                                                       token):
        data, at = self.pgm(what, token)
        message = f"expected integer for {what}, got {token!r} (byte offset {at})"
        (tmp_path / "in.pgm").write_bytes(data)
        with pytest.raises(PgmParseError) as err:
            load_pgm(str(tmp_path / "in.pgm"))
        assert (str(err.value), err.value.offset) == (message, at)
        config = tmp_path / "exp.ini"
        config.write_text(f"[experiment]\nname = trajectory\nseed = 1\n"
                          f"output = {tmp_path / 'out'}\n"
                          f"[problem]\nimage = in.pgm\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_leading_zeros_are_digits(self, tmp_path):
        path = tmp_path / "zeros.pgm"
        path.write_bytes(b"P2\n02 001\n0255\n007 0\n")
        np.testing.assert_array_equal(load_pgm(str(path)).pixels, [[7.0, 0.0]])

    def test_more_digits_than_int_converts_is_no_integer(self, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() converts any number of digits on this Python")
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P2\n" + b"1" * (limit + 1) + b" 1\n255\n7\n")
        with pytest.raises(PgmParseError, match="expected integer for width") as err:
            load_pgm(str(path))
        assert err.value.offset == 3
