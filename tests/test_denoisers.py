"""Denoiser behavior against independent per-pixel and transform oracles."""

import re
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from redlab import (
    BernoulliMmseDenoiser,
    CircularConvolution,
    ConfigError,
    Denoiser,
    DomainError,
    GmmMmseDenoiser,
    Image,
    LinearSymmetricDenoiser,
    MedianFilterDenoiser,
    NlmDenoiser,
    ShapeError,
    TdtDenoiser,
    nonexpansiveness_probe,
)
from redlab import denoisers
from redlab.denoisers import _box_sum, _soft_threshold, haar_forward, haar_inverse


def dyadic_arrays():
    sides = st.sampled_from([1, 2, 4, 8, 16])
    return st.tuples(sides, sides).flatmap(
        lambda hw: hnp.arrays(np.float64, hw,
                              elements=st.floats(-100, 100, allow_nan=False)))


class TestHaarTransform:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((16, 8))
        np.testing.assert_allclose(haar_inverse(haar_forward(a)), a, atol=1e-12)

    def test_preserves_energy(self):
        """Orthonormality: coefficient energy equals pixel energy."""
        rng = np.random.default_rng(22)
        a = rng.standard_normal((8, 8)) * 50.0
        np.testing.assert_allclose(np.sum(haar_forward(a) ** 2),
                                   np.sum(a ** 2), rtol=1e-12)

    def test_constant_image_concentrates_in_one_coefficient(self):
        """All energy lands in the coarsest average for a flat input."""
        c = haar_forward(np.full((4, 4), 3.0))
        assert c[0, 0] == pytest.approx(12.0, rel=1e-12)
        rest = c.copy()
        rest[0, 0] = 0.0
        np.testing.assert_allclose(rest, 0.0, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ShapeError):
            haar_forward(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            haar_inverse(np.zeros((4, 6)))

    @settings(max_examples=40, deadline=None)
    @given(dyadic_arrays())
    def test_round_trip_property(self, a):
        np.testing.assert_allclose(haar_inverse(haar_forward(a)), a,
                                   atol=1e-9 * (1.0 + np.max(np.abs(a))))


_SQRT2 = np.sqrt(2.0)


def reference_haar_forward(a):
    """The former haar_forward: four ufunc calls and two slice assignments
    per pass."""
    h, w = a.shape[-2:]
    out = np.array(a, dtype=np.float64)
    while h > 1 or w > 1:
        block = out[..., :h, :w]
        if w > 1:
            lo = (block[..., :, 0::2] + block[..., :, 1::2]) / _SQRT2
            hi = (block[..., :, 0::2] - block[..., :, 1::2]) / _SQRT2
            block[..., :, : w // 2] = lo
            block[..., :, w // 2 : w] = hi
        if h > 1:
            lo = (block[..., 0::2, :] + block[..., 1::2, :]) / _SQRT2
            hi = (block[..., 0::2, :] - block[..., 1::2, :]) / _SQRT2
            block[..., : h // 2, :] = lo
            block[..., h // 2 : h, :] = hi
        h = max(h // 2, 1)
        w = max(w // 2, 1)
    return out


def reference_haar_inverse(c):
    """The former haar_inverse: a fresh block and a copy per pass."""
    h, w = c.shape[-2:]
    out = np.array(c, dtype=np.float64)
    sizes = []
    th, tw = h, w
    while th > 1 or tw > 1:
        sizes.append((th, tw))
        th = max(th // 2, 1)
        tw = max(tw // 2, 1)
    for lh, lw in reversed(sizes):
        block = out[..., :lh, :lw]
        if lh > 1:
            lo = block[..., : lh // 2, :]
            hi = block[..., lh // 2 : lh, :]
            rec = np.empty(block.shape)
            rec[..., 0::2, :] = (lo + hi) / _SQRT2
            rec[..., 1::2, :] = (lo - hi) / _SQRT2
            block[...] = rec
        if lw > 1:
            lo = block[..., :, : lw // 2]
            hi = block[..., :, lw // 2 : lw]
            rec = np.empty(block.shape)
            rec[..., :, 0::2] = (lo + hi) / _SQRT2
            rec[..., :, 1::2] = (lo - hi) / _SQRT2
            block[...] = rec
    return out


HAAR_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 64), (64, 1), (2, 2), (4, 8), (8, 4),
               (16, 16), (32, 8), (64, 64), (256, 256), (3, 8, 8), (5, 1, 32),
               (2, 32, 1), (4, 16, 64)]


def haar_inputs(shape):
    """Uniform values with scattered +0 and -0, at unit scale and near
    1e300 and 1e-300."""
    rng = np.random.default_rng(37)
    base = rng.uniform(-255.0, 255.0, size=shape)
    base.reshape(-1)[::5] = 0.0
    base.reshape(-1)[2::7] = -0.0
    return [base, base * 1e298, base * 1e-302]


class TestHaarTable:
    """The three-call passes are bitwise the former transforms."""

    @pytest.mark.parametrize("shape", HAAR_SHAPES, ids=str)
    def test_forward_is_bitwise_the_reference(self, shape):
        for a in haar_inputs(shape):
            assert haar_forward(a).tobytes() == reference_haar_forward(a).tobytes()

    @pytest.mark.parametrize("shape", HAAR_SHAPES, ids=str)
    def test_inverse_is_bitwise_the_reference(self, shape):
        for c in haar_inputs(shape):
            assert haar_inverse(c).tobytes() == reference_haar_inverse(c).tobytes()

    def test_inputs_are_not_modified(self):
        a = haar_inputs((3, 8, 8))[0]
        kept = a.copy()
        haar_forward(a)
        haar_inverse(a)
        assert a.tobytes() == kept.tobytes()


def mismatches_in_two_threads(matches):
    """Thread i in (0, 1) calls matches(i) 200 times, both starting together
    with a tiny switch interval; the indices of the calls that returned False."""
    start = threading.Barrier(2)
    mismatches = []

    def work(i):
        start.wait()
        for _ in range(200):
            if not matches(i):
                mismatches.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return mismatches


class TestHaarPlans:
    """The passes built once per shape replay bitwise, and no caller sees
    or shares a cached buffer."""

    def assert_both_match(self, a):
        assert haar_forward(a).tobytes() == reference_haar_forward(a).tobytes()
        assert haar_inverse(a).tobytes() == reference_haar_inverse(a).tobytes()

    def test_repeated_and_alternating_shapes(self):
        shapes = [(64, 64), (1, 64, 64), (32, 16, 16), (1, 8), (8, 1), (64, 64)]
        for shape in shapes:
            for a in haar_inputs(shape):
                self.assert_both_match(a)
                self.assert_both_match(a)

    @pytest.mark.parametrize("transform", [haar_forward, haar_inverse])
    def test_results_are_fresh_arrays(self, transform):
        a, b = haar_inputs((16, 8))[:2]
        first = transform(a)
        kept = first.copy()
        second = transform(b)
        expected = second.copy()
        # A held result survives a later call on the same shape, and
        # writing into one does not change the next.
        assert first.tobytes() == kept.tobytes()
        second[...] = 7.0
        assert transform(b).tobytes() == expected.tobytes()

    def test_bad_shapes_fail_as_before_and_build_no_plan(self):
        message = re.escape("Haar transform requires power-of-two extents, got (12, 16)")
        for transform in (haar_forward, haar_inverse):
            with pytest.raises(ShapeError, match=message):
                transform(np.zeros((12, 16)))
            with pytest.raises(ValueError, match="not enough values to unpack"):
                transform(np.zeros(8))
        assert (12, 16) not in denoisers._HAAR_PLANS
        assert (8,) not in denoisers._HAAR_PLANS

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_dtypes_are_converted_to_float64_first(self, dtype):
        a = np.random.default_rng(47).integers(-255, 256, size=(8, 16)).astype(dtype)
        if dtype == np.float32:
            a = a / np.float32(3.0)
        self.assert_both_match(a)

    def test_two_threads_on_one_shape(self):
        images = haar_inputs((2, 16, 16))[0]
        expected = [(reference_haar_forward(x), reference_haar_inverse(x)) for x in images]
        assert mismatches_in_two_threads(
            lambda i: (haar_forward(images[i]).tobytes() == expected[i][0].tobytes()
                       and haar_inverse(images[i]).tobytes() == expected[i][1].tobytes())
        ) == []

    def test_the_cache_stays_within_its_bound(self):
        limit = denoisers._HAAR_PLAN_LIMIT
        shapes = [(2, 1 << k) for k in range(limit + 3)]
        for shape in shapes:
            haar_forward(np.ones(shape))
        assert len(denoisers._HAAR_PLANS) == limit
        # The least recently used shapes are the ones evicted.
        assert list(denoisers._HAAR_PLANS) == shapes[-limit:]


def reference_tdt(a, tau):
    """The former TDT kernel: haar_inverse of the soft-thresholded
    haar_forward, each a separate call with its own arrays."""
    c = haar_forward(a)
    return haar_inverse(np.sign(c) * np.maximum(np.abs(c) - tau, 0.0))


class TestTdtKernel:
    """The kernel runs both transforms and the shrinkage in one checked-out
    plan, bitwise the separate calls, and hands out arrays of its own."""

    @pytest.mark.parametrize("tau", [0.0, 5.0, 25.0])
    @pytest.mark.parametrize("shape", HAAR_SHAPES + [(32, 16, 16)], ids=str)
    def test_is_bitwise_the_separate_calls(self, shape, tau):
        """Signed zeros and values near 1e300 and 1e-300 included; at tau = 0
        the shrinkage still turns the -0.0 coefficients of an all -0.0 image
        into +0.0."""
        f = TdtDenoiser(tau)
        for a in haar_inputs(shape) + [np.full(shape, -0.0), np.zeros(shape)]:
            expected = reference_tdt(a, tau)
            out = f.apply(Image(a)).pixels if a.ndim == 2 else f.apply_stack(a)
            assert out.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))

    def test_two_threads_on_one_shape(self):
        images = haar_inputs((2, 16, 16))[0]
        f = TdtDenoiser(5.0)
        expected = [reference_tdt(x, 5.0).tobytes() for x in images]
        assert mismatches_in_two_threads(
            lambda i: f.apply(Image(images[i])).pixels.tobytes() == expected[i]) == []


@pytest.mark.parametrize("f", [TdtDenoiser(5.0), MedianFilterDenoiser(3),
                               NlmDenoiser(bandwidth=40.0, search_radius=2),
                               LinearSymmetricDenoiser.local_average((16, 8))],
                         ids=["tdt", "median", "nlm", "linear"])
def test_a_held_apply_result_keeps_its_bytes(f):
    """apply wraps the kernel's output without a copy: a result the caller
    holds is read-only and no later call on the same shape writes it."""
    a, b = (Image(x) for x in np.random.default_rng(48).uniform(0.0, 255.0, (2, 16, 8)))
    first = f.apply(a)
    kept = first.pixels.tobytes()
    f.apply(b)
    f.apply_stack(np.stack([b.pixels, a.pixels]))
    assert first.pixels.tobytes() == kept
    assert f.apply(a).pixels.tobytes() == kept
    assert not first.pixels.flags.writeable


class TestSoftThresholdTable:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 3.0, 1e300])
    def test_is_bitwise_the_reference(self, tau):
        """Signed zeros included: c = -tau gives -0.0, c = -0.0 keeps its sign
        wherever the reference does."""
        rng = np.random.default_rng(38)
        c = np.concatenate([rng.uniform(-5.0, 5.0, 200), [0.0, -0.0, tau, -tau,
                            np.nextafter(tau, 0.0), -np.nextafter(tau, 0.0),
                            1e300, -1e300, 1e-300, -1e-300]]).reshape(-1, 7, 6)
        expected = np.sign(c) * np.maximum(np.abs(c) - tau, 0.0)
        out = c.copy()
        _soft_threshold(out, tau, np.empty_like(c))
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


class TestTdtDenoiser:
    def test_hand_example(self):
        """[4,4,0,0] is its own Haar spectrum, so tau=1 shrinks it to [3,3,0,0]."""
        out = TdtDenoiser(1.0).apply(Image(np.array([[4.0, 4.0, 0.0, 0.0]])))
        np.testing.assert_allclose(out.pixels, [[3.0, 3.0, 0.0, 0.0]], atol=1e-12)

    def test_matches_transform_domain_soft_threshold(self):
        """apply() equals shrink-every-coefficient done by hand."""
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 255.0, size=(8, 8))
        tau = 10.0
        c = haar_forward(x)
        shrunk = np.sign(c) * np.maximum(np.abs(c) - tau, 0.0)
        np.testing.assert_allclose(TdtDenoiser(tau).apply(Image(x)).pixels,
                                   haar_inverse(shrunk), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(0.0, 255.0, size=(4, 4))
        np.testing.assert_allclose(TdtDenoiser(0.0).apply(Image(x)).pixels, x,
                                   atol=1e-12)

    def test_large_threshold_zeroes_everything(self):
        x = Image(np.full((4, 4), 5.0))
        out = TdtDenoiser(1e6).apply(x)
        np.testing.assert_allclose(out.pixels, 0.0, atol=1e-12)

    def test_nonexpansive_on_random_pairs(self):
        assert nonexpansiveness_probe(TdtDenoiser(25.0), trials=300,
                                      seed=1) <= 1.0 + 1e-10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError, match="threshold must be finite and >= 0, got -0.1"):
            TdtDenoiser(-0.1)

    def test_non_power_of_two_image_rejected(self):
        message = "Haar transform requires power-of-two extents, got (3, 4)"
        with pytest.raises(ShapeError, match=re.escape(message)):
            TdtDenoiser(1.0).apply(Image(np.zeros((3, 4))))
        with pytest.raises(ShapeError, match=re.escape(message)):
            TdtDenoiser(1.0).apply_stack(np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(ConfigError, match=f"threshold must be finite and >= 0, got {value}"):
            TdtDenoiser(value)


class TestMedianFilterDenoiser:
    def test_matches_per_window_sorted_median(self):
        """Each output pixel is the 5th order statistic of its padded window."""
        rng = np.random.default_rng(25)
        x = rng.uniform(0.0, 255.0, size=(6, 7))
        padded = np.pad(x, 1, mode="edge")
        expected = np.empty_like(x)
        for r in range(6):
            for c in range(7):
                expected[r, c] = np.sort(padded[r:r + 3, c:c + 3].ravel())[4]
        out = MedianFilterDenoiser(3).apply(Image(x))
        np.testing.assert_array_equal(out.pixels, expected)

    def test_locally_homogeneous_bitwise(self):
        """Scaling the input scales the median selection exactly."""
        rng = np.random.default_rng(26)
        x = rng.uniform(0.0, 255.0, size=(8, 8))
        f = MedianFilterDenoiser(3)
        lhs = f.apply(Image(1.001 * x)).pixels
        rhs = 1.001 * f.apply(Image(x)).pixels
        np.testing.assert_array_equal(lhs, rhs)

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            MedianFilterDenoiser(4)
        with pytest.raises(ConfigError):
            MedianFilterDenoiser(-3)
        message = "window 5 exceeds image extent 3x3"
        with pytest.raises(ShapeError, match=message):
            MedianFilterDenoiser(5).apply(Image(np.zeros((3, 3))))
        with pytest.raises(ShapeError, match=message):
            MedianFilterDenoiser(5).apply_stack(np.zeros((2, 3, 3)))


def reference_median(xs, window):
    """np.median over each edge-padded window: the kernel before partition."""
    r = window // 2
    padded = np.pad(xs, ((0, 0), (r, r), (r, r)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (window, window),
                                                       axis=(1, 2))
    return np.median(windows, axis=(3, 4))


MEDIAN_INPUTS = {
    "uniform": lambda rng, shape: rng.uniform(0.0, 255.0, shape),
    "ties": lambda rng, shape: rng.integers(0, 3, shape).astype(np.float64),
    "signed-zeros": lambda rng, shape: rng.choice([-0.0, 0.0, -1.0, 1.0], shape),
}


class TestMedianSelection:
    """The one-partition selection is bitwise np.median on finite input."""

    @pytest.mark.parametrize("inputs", list(MEDIAN_INPUTS))
    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("window, shape", [
        (1, (9, 14)), (3, (9, 14)), (5, (9, 14)), (7, (9, 14)),
        (5, (5, 8)), (7, (12, 7)), (3, (3, 3)),
    ])
    def test_bitwise_the_np_median_reference(self, window, shape, batch, inputs):
        xs = MEDIAN_INPUTS[inputs](np.random.default_rng(46), (batch,) + shape)
        f = MedianFilterDenoiser(window)
        expected = reference_median(xs, window)
        assert f.apply_stack(xs).tobytes() == expected.tobytes()
        assert f.apply(Image(xs[0])).pixels.tobytes() == expected[0].tobytes()


class TestNlmDenoiser:
    def test_huge_bandwidth_reduces_to_box_average(self):
        """With flat weights the output is the clipped search-window mean."""
        rng = np.random.default_rng(27)
        x = rng.uniform(0.0, 255.0, size=(7, 6))
        out = NlmDenoiser(patch_radius=1, search_radius=2,
                          bandwidth=1e12).apply(Image(x)).pixels
        expected = np.empty_like(x)
        for r in range(7):
            for c in range(6):
                expected[r, c] = x[max(0, r - 2):r + 3, max(0, c - 2):c + 3].mean()
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_output_is_a_convex_combination(self):
        """Row-stochastic weights keep each pixel inside the window range."""
        rng = np.random.default_rng(28)
        x = rng.uniform(0.0, 255.0, size=(9, 9))
        out = NlmDenoiser(patch_radius=1, search_radius=3,
                          noise_variance=100.0).apply(Image(x)).pixels
        for r in range(9):
            for c in range(9):
                window = x[max(0, r - 3):r + 4, max(0, c - 3):c + 4]
                assert window.min() - 1e-9 <= out[r, c] <= window.max() + 1e-9

    def test_constant_image_is_fixed(self):
        x = Image(np.full((8, 8), 77.0))
        out = NlmDenoiser(patch_radius=1, search_radius=2,
                          noise_variance=25.0).apply(x)
        np.testing.assert_allclose(out.pixels, 77.0, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            NlmDenoiser(patch_radius=-1, search_radius=2, noise_variance=1.0)
        with pytest.raises(ConfigError):
            NlmDenoiser(patch_radius=1, search_radius=2)
        with pytest.raises(ConfigError):
            NlmDenoiser(patch_radius=1, search_radius=2, bandwidth=0.0)
        with pytest.raises(ConfigError,
                           match="noise variance must be finite and > 0, got -1.0"):
            NlmDenoiser(patch_radius=1, search_radius=2, noise_variance=-1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"noise_variance": np.nan}, "noise variance must be finite and > 0, got nan"),
        ({"noise_variance": np.inf}, "noise variance must be finite and > 0, got inf"),
        ({"bandwidth": np.nan}, "bandwidth must be finite and > 0, got nan"),
        ({"bandwidth": np.inf}, "bandwidth must be finite and > 0, got inf"),
    ])
    def test_non_finite_parameters_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            NlmDenoiser(patch_radius=1, search_radius=2, **kwargs)


class TestLinearSymmetricDenoiser:
    def test_local_average_matches_separable_convolution(self):
        """The FFT apply and the index-built dense matrix both agree with
        periodic [1, 2, 1] / 4 smoothing along each axis."""
        den = LinearSymmetricDenoiser.local_average((16, 16))
        rng = np.random.default_rng(29)
        x = Image(rng.uniform(0.0, 255.0, size=(16, 16)))
        rows = (np.roll(x.pixels, 1, 0) + 2.0 * x.pixels + np.roll(x.pixels, -1, 0)) / 4.0
        both = (np.roll(rows, 1, 1) + 2.0 * rows + np.roll(rows, -1, 1)) / 4.0
        np.testing.assert_allclose(den.apply(x).pixels, both, rtol=1e-12)
        dense = den.matrix @ x.flat
        np.testing.assert_allclose(dense, both.reshape(-1), rtol=1e-12)
        out = den.apply(x).flat
        assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_local_average_spectrum_in_unit_interval(self):
        den = LinearSymmetricDenoiser.local_average((4, 6))
        eigs = np.linalg.eigvalsh(den.matrix)
        assert eigs.min() >= -1e-12
        assert eigs.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(np.sort(den.transfer_function().real.ravel()),
                                   eigs, atol=1e-14)

    def test_rejects_asymmetric_matrix(self):
        kernel = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0
        kernel[0, 1] += 0.01
        kernel[2, 1] -= 0.01
        with pytest.raises(ConfigError, match="not even-symmetric"):
            LinearSymmetricDenoiser(kernel, shape=(4, 4))

    def test_rejects_expansive_matrix(self):
        with pytest.raises(ConfigError, match="spectral radius 1.500000 exceeds 1"):
            LinearSymmetricDenoiser(np.array([[1.5]]), shape=(2, 2))

    def test_accepts_unit_spectral_radius(self):
        den = LinearSymmetricDenoiser(np.array([[1.0]]), shape=(2, 3))
        x = Image(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(den.apply(x).pixels, x.pixels, atol=1e-12)

    def test_rejects_even_extent_kernel(self):
        with pytest.raises(ConfigError, match="odd"):
            LinearSymmetricDenoiser(np.full((2, 2), 0.25), shape=(4, 4))

    def test_kernel_larger_than_image_is_rejected(self):
        """A 3x3 kernel no longer wraps around a 2-pixel side."""
        with pytest.raises(ShapeError, match="larger than image"):
            LinearSymmetricDenoiser.local_average((2, 8))

    def test_matrix_is_built_once(self):
        den = LinearSymmetricDenoiser.local_average((4, 4))
        assert "matrix" not in vars(den)
        assert den.matrix is den.matrix

    def test_shape_guard(self):
        den = LinearSymmetricDenoiser.local_average((4, 4))
        message = re.escape("expected shape (4, 4), got (2, 8)")
        with pytest.raises(ShapeError, match=message):
            den.apply(Image(np.zeros((2, 8))))
        with pytest.raises(ShapeError, match=message):
            den.apply_stack(np.zeros((3, 2, 8)))

    @pytest.mark.parametrize("shape", [(16, 16), (15, 17), (64, 64), (3, 5)], ids=str)
    def test_apply_is_bitwise_the_2d_filter(self, shape):
        """The stack kernel filters as the former 2-D rfft2/irfft2 apply did."""
        den = LinearSymmetricDenoiser.local_average(shape)
        xs = np.random.default_rng(39).uniform(0.0, 255.0, size=(3,) + shape)
        tf = np.fft.rfft2(CircularConvolution(den.kernel)._centered(shape))
        out = den.apply_stack(xs)
        for x, row in zip(xs, out):
            expected = np.fft.irfft2(np.fft.rfft2(x) * tf, s=shape)
            assert den.apply(Image(x)).pixels.tobytes() == expected.tobytes()
            assert row.tobytes() == expected.tobytes()


class TestGmmMmseDenoiser:
    def test_matches_direct_posterior_formula(self):
        """apply() equals the textbook softmax-weighted center average."""
        centers = np.array([[1.0, -0.5], [0.3, 0.8], [-1.2, 0.1]])
        nu = 0.6
        den = GmmMmseDenoiser(centers=centers, noise_variance=nu)
        r = np.array([0.25, -0.1])
        lik = np.exp(-np.sum((r - centers) ** 2, axis=1) / (2.0 * nu))
        expected = (lik[:, None] * centers).sum(axis=0) / lik.sum()
        np.testing.assert_allclose(den.posterior_mean(r), expected, rtol=1e-12)

    def test_far_field_snaps_to_nearest_center(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        den = GmmMmseDenoiser(centers=centers, noise_variance=0.1)
        np.testing.assert_allclose(den.posterior_mean(np.array([9.7, 10.2])),
                                   centers[1], atol=1e-10)

    def test_extreme_inputs_stay_finite(self):
        """Max-subtraction keeps the soft assignment from overflowing."""
        centers = np.array([[1e6, 0.0], [-1e6, 0.0]])
        den = GmmMmseDenoiser(centers=centers, noise_variance=1.0)
        out = den.posterior_mean(np.array([1e6, 5.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, centers[0], atol=1e-8)

    def test_apply_reshapes_flattened_posterior(self):
        centers = np.array([[0.0, 0.0, 0.0, 0.0], [4.0, 4.0, 4.0, 4.0]])
        den = GmmMmseDenoiser(centers=centers, noise_variance=1.0)
        out = den.apply(Image(np.full((2, 2), 4.0)))
        assert out.pixels.shape == (2, 2)
        np.testing.assert_allclose(out.pixels, 4.0, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GmmMmseDenoiser(centers=np.zeros((0, 3)), noise_variance=1.0)
        with pytest.raises(ConfigError):
            GmmMmseDenoiser(centers=np.zeros((2, 3)), noise_variance=0.0)
        with pytest.raises(ConfigError, match="noise variance must be finite"):
            GmmMmseDenoiser(centers=np.zeros((2, 3)), noise_variance=np.nan)
        with pytest.raises(ConfigError, match="centers must be finite"):
            GmmMmseDenoiser(centers=np.full((2, 3), np.inf), noise_variance=1.0)
        den = GmmMmseDenoiser(centers=np.zeros((2, 3)), noise_variance=1.0)
        with pytest.raises(ShapeError):
            den.posterior_mean(np.zeros(4))


class TestBernoulliMmseDenoiser:
    def test_matches_two_point_bayes_rule(self):
        """E[x|r] for x in {0,1} reduces to a logistic in r."""
        den = BernoulliMmseDenoiser(noise_variance=0.25)
        out = den.apply(Image(np.array([[0.8]]))).pixels[0, 0]
        lik1 = np.exp(-(0.8 - 1.0) ** 2 / 0.5)
        lik0 = np.exp(-(0.8 - 0.0) ** 2 / 0.5)
        np.testing.assert_allclose(out, lik1 / (lik0 + lik1), rtol=1e-12)
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-1.2)), rtol=1e-12)

    def test_symmetry_about_one_half(self):
        den = BernoulliMmseDenoiser(noise_variance=0.4)
        t = np.array([[0.3, 1.7, -2.0]])
        up = den.apply(Image(0.5 + t)).pixels
        down = den.apply(Image(0.5 - t)).pixels
        np.testing.assert_allclose(up + down, 1.0, rtol=1e-12)

    def test_extreme_inputs_saturate_cleanly(self):
        """No overflow or invalid operations; gradual underflow to 0 is the
        intended saturation."""
        den = BernoulliMmseDenoiser(noise_variance=0.01)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = den.apply(Image(np.array([[1e6, -1e6]]))).pixels
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_validation(self):
        with pytest.raises(ConfigError):
            BernoulliMmseDenoiser(noise_variance=-1.0)
        for value in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="noise variance must be finite"):
                BernoulliMmseDenoiser(noise_variance=value)


def reference_nlm(x, patch_radius, search_radius, bandwidth):
    """NLM with np.sum over each (k, k) patch: the loop before box sums."""
    h, w = x.shape
    p, s = patch_radius, search_radius
    k = 2 * p + 1
    patches = np.lib.stride_tricks.sliding_window_view(np.pad(x, p, mode="edge"), (k, k))
    numer = np.zeros((h, w))
    denom = np.zeros((h, w))
    for dy in range(-s, s + 1):
        r_lo, r_hi = max(0, -dy), min(h, h - dy)
        if r_lo >= r_hi:
            continue
        for dx in range(-s, s + 1):
            c_lo, c_hi = max(0, -dx), min(w, w - dx)
            if c_lo >= c_hi:
                continue
            here = patches[r_lo:r_hi, c_lo:c_hi]
            there = patches[r_lo + dy : r_hi + dy, c_lo + dx : c_hi + dx]
            dist = np.sum((here - there) ** 2, axis=(2, 3))
            weight = np.exp(-dist / bandwidth**2)
            numer[r_lo:r_hi, c_lo:c_hi] += weight * x[r_lo + dy : r_hi + dy,
                                                      c_lo + dx : c_hi + dx]
            denom[r_lo:r_hi, c_lo:c_hi] += weight
    return numer / denom


class TestNlmBoxSum:
    """The box-filtered patch distance is bitwise the per-patch np.sum."""

    @pytest.mark.parametrize("shape, search_radius", [
        ((16, 16), 5), ((64, 64), 3), ((12, 20), 25),
    ])
    @pytest.mark.parametrize("patch_radius", [0, 1, 2, 3, 4])
    def test_apply_is_bitwise_the_reference(self, shape, search_radius, patch_radius):
        x = np.random.default_rng(41).uniform(0.0, 255.0, size=shape)
        f = NlmDenoiser(patch_radius, search_radius, noise_variance=625.0)
        expected = reference_nlm(x, patch_radius, search_radius, f.bandwidth)
        assert np.array_equal(f.apply(Image(x)).pixels, expected)

    @pytest.mark.parametrize("search_radius", [3, 25])
    @pytest.mark.parametrize("patch_radius", [0, 1, 2, 3, 4])
    def test_apply_stack_rows_are_bitwise_the_reference(self, search_radius,
                                                         patch_radius):
        xs = np.random.default_rng(44).uniform(0.0, 255.0, size=(4, 12, 20))
        f = NlmDenoiser(patch_radius, search_radius, noise_variance=625.0)
        out = f.apply_stack(xs)
        for x, row in zip(xs, out):
            expected = reference_nlm(x, patch_radius, search_radius, f.bandwidth)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("batch, shape, patch_radius, search_radius", [
        (32, (16, 16), 1, 5),
        (32, (16, 16), 4, 5),
        (3, (12, 20), 5, 3),
        (2, (16, 16), 5, 5),
        (3, (1, 23), 1, 5),
        (3, (19, 1), 2, 5),
    ], ids=["probes", "p4-probes", "p5-12x20", "p5-16x16", "1xw", "hx1"])
    def test_mirrored_weights_are_bitwise_the_reference(self, batch, shape,
                                                        patch_radius, search_radius):
        xs = np.random.default_rng(47).uniform(0.0, 255.0, size=(batch,) + shape)
        f = NlmDenoiser(patch_radius, search_radius, noise_variance=625.0)
        out = f.apply_stack(xs)
        for x, row in zip(xs, out):
            expected = reference_nlm(x, patch_radius, search_radius, f.bandwidth)
            assert row.tobytes() == expected.tobytes()
            assert f.apply(Image(x)).pixels.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget, computed", [
        (4 << 20, 61), (8 * 16 * 16 * 20, None), (0, 121),
    ], ids=["all-kept", "budget-runs-out", "none-kept"])
    def test_mirrors_past_the_budget_recompute_the_same_bits(self, monkeypatch,
                                                             budget, computed):
        """Of 121 offsets (search radius 5 on 16x16), 60 pairs can share."""
        calls = []

        def counted_box_sum(sq, k, *buffers):
            calls.append(sq.shape)
            return _box_sum(sq, k, *buffers)

        monkeypatch.setattr(denoisers, "_MIRROR_BYTES", budget)
        monkeypatch.setattr(denoisers, "_box_sum", counted_box_sum)
        x = np.random.default_rng(48).uniform(0.0, 255.0, size=(16, 16))
        f = NlmDenoiser(1, 5, noise_variance=625.0)
        out = f.apply(Image(x)).pixels
        assert out.tobytes() == reference_nlm(x, 1, 5, f.bandwidth).tobytes()
        if computed is None:
            assert 61 < len(calls) < 121
        else:
            assert len(calls) == computed


class TestNlmSearchClipping:
    """Offsets past the image reach no pixel, so a search radius of s gives
    the bits of min(s, h - 1) on rows and min(s, w - 1) on columns, and in
    the time of that clipped window."""

    @staticmethod
    def apply_within(seconds, f, xs):
        """f.apply_stack(xs), failing instead of hanging past `seconds`."""
        def interrupt(signum, frame):
            raise TimeoutError(f"NLM apply ran past {seconds} s")

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return f.apply_stack(xs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("batch, shape", [
        (1, (16, 16)), (1, (5, 9)), (1, (1, 7)), (1, (9, 1)), (32, (16, 16)),
    ], ids=["16x16", "5x9", "1x7", "9x1", "stack-32"])
    @pytest.mark.parametrize("radius", ["side-1", "side", "3side", "1e18"])
    def test_radii_past_the_image_give_the_clipped_bits(self, batch, shape, radius):
        side = max(shape)
        search_radius = {"side-1": side - 1, "side": side, "3side": 3 * side,
                         "1e18": 10**18}[radius]
        xs = np.random.default_rng(49).uniform(0.0, 255.0, size=(batch,) + shape)
        # The largest extent - 1 clips to h - 1 and w - 1: every offset
        # that reaches the image, and no other.
        clipped = NlmDenoiser(1, side - 1, noise_variance=625.0).apply_stack(xs)
        f = NlmDenoiser(1, search_radius, noise_variance=625.0)
        assert self.apply_within(5.0, f, xs).tobytes() == clipped.tobytes()


# Output extents (rows, cols) of the box sum: general, one row, one
# column, a single window.
BOX_OUTPUTS = {"general": (6, 9), "one-row": (1, 7), "one-column": (5, 1),
               "single": (1, 1)}


class TestBoxSumTable:
    """_box_sum against np.sum over each k x k window of each image."""

    @pytest.mark.parametrize("batch", [1, 5, 32])
    @pytest.mark.parametrize("outputs", list(BOX_OUTPUTS))
    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_bitwise_the_per_window_sum(self, k, outputs, batch):
        out_rows, out_cols = BOX_OUTPUTS[outputs]
        shape = (batch, out_rows + k - 1, out_cols + k - 1)
        sq = np.random.default_rng(45).uniform(0.0, 255.0, size=shape) ** 2
        # _box_sum takes and returns batch-last (rows, cols, B) arrays.
        # NaN-filled buffers show any value read before it is written.
        got = _box_sum(np.ascontiguousarray(sq.transpose(1, 2, 0)), k,
                       np.full(sq.size, np.nan), np.full(sq.size, np.nan)).transpose(2, 0, 1)
        assert got.shape == (batch, out_rows, out_cols)
        for image, sums in zip(sq, got):
            windows = np.lib.stride_tricks.sliding_window_view(image, (k, k))
            assert np.array_equal(sums, np.sum(windows, axis=(2, 3)))


STACK_CASES = {
    "tdt-16x16": (lambda: TdtDenoiser(25.0), (16, 16)),
    "tdt-8x32": (lambda: TdtDenoiser(25.0), (8, 32)),
    "median3-9x14": (lambda: MedianFilterDenoiser(3), (9, 14)),
    "median5-9x14": (lambda: MedianFilterDenoiser(5), (9, 14)),
    **{f"nlm-p{p}-16x16": (lambda p=p: NlmDenoiser(p, 3, noise_variance=625.0), (16, 16))
       for p in range(5)},
    "nlm-search-beyond-image": (lambda: NlmDenoiser(1, 20, noise_variance=625.0), (8, 8)),
    "nlm-12x20": (lambda: NlmDenoiser(2, 4, noise_variance=625.0), (12, 20)),
    "linear": (lambda: LinearSymmetricDenoiser.local_average((16, 16)), (16, 16)),
    "linear-15x17": (lambda: LinearSymmetricDenoiser.local_average((15, 17)), (15, 17)),
    "gmm": (lambda: GmmMmseDenoiser(
        np.random.default_rng(42).normal(128.0, 60.0, size=(5, 16)), 625.0), (4, 4)),
    "bernoulli": (lambda: BernoulliMmseDenoiser(625.0), (16, 16)),
}


# One STACK_CASES row per denoiser kind.
KIND_CASES = {"tdt": "tdt-16x16", "median": "median3-9x14", "nlm": "nlm-p1-16x16",
              "linear": "linear", "gmm": "gmm", "bernoulli": "bernoulli"}


class TestApplyStack:
    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_each_row_is_bitwise_apply(self, case):
        build, shape = STACK_CASES[case]
        f = build()
        xs = np.random.default_rng(43).uniform(0.0, 255.0, size=(6,) + shape)
        out = f.apply_stack(xs)
        assert out.shape == xs.shape
        for x, row in zip(xs, out):
            assert np.array_equal(row, f.apply(Image(x)).pixels)

    def test_rejects_a_single_image(self):
        for case in KIND_CASES.values():
            build, shape = STACK_CASES[case]
            with pytest.raises(ShapeError, match="expected a"):
                build().apply_stack(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", list(KIND_CASES))
    def test_rejects_non_finite_stacks_as_image_does(self, kind, value):
        build, shape = STACK_CASES[KIND_CASES[kind]]
        xs = np.random.default_rng(49).uniform(0.0, 255.0, size=(3,) + shape)
        xs[1, 2, 3] = value
        with pytest.raises(DomainError, match="image pixels must be finite"):
            Image(xs[1])
        with pytest.raises(DomainError, match="image pixels must be finite"):
            build().apply_stack(xs)

    def test_every_denoiser_is_one_stack_kernel(self):
        """Each exported denoiser has a STACK_CASES row and defines only its
        kernel: apply and apply_stack are Denoiser's."""
        exported = [getattr(denoisers, name) for name in denoisers.__all__]
        kinds = {cls for cls in exported if isinstance(cls, type)
                 and issubclass(cls, Denoiser) and cls is not Denoiser}
        assert len(kinds) == len(KIND_CASES)
        assert {type(STACK_CASES[case][0]()) for case in KIND_CASES.values()} == kinds
        for cls in kinds:
            assert "apply" not in vars(cls) and "apply_stack" not in vars(cls)


def reference_gmm(centers, nu, x):
    """posterior_mean of one flat image as it was before the stack kernel."""
    r = x.reshape(-1)
    log_w = -np.sum((r[None, :] - centers) ** 2, axis=1) / (2.0 * nu)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    return (weights @ centers).reshape(x.shape)


class TestGmmStack:
    @pytest.mark.parametrize("centers, shape", [
        (1, (8, 8)), (5, (4, 4)), (7, (1, 7)), (64, (8, 8)), (5, (64, 64)), (64, (64, 64)),
    ])
    def test_rows_are_bitwise_the_per_image_formula(self, centers, shape):
        rng = np.random.default_rng(50)
        n = shape[0] * shape[1]
        # A spread of centers and a variance that keep several weights
        # unsaturated, so the normalization and the product both matter.
        f = GmmMmseDenoiser(rng.normal(128.0, 60.0, size=(centers, n)), 400.0 * n)
        xs = rng.uniform(0.0, 255.0, size=(5,) + shape)
        out = f.apply_stack(xs)
        for x, row in zip(xs, out):
            expected = reference_gmm(f.centers, f.noise_variance, x)
            assert row.tobytes() == expected.tobytes()
            assert f.apply(Image(x)).pixels.tobytes() == expected.tobytes()
            assert f.posterior_mean(x.reshape(-1)).tobytes() == expected.tobytes()


def reference_probe(f, trials, seed, shape):
    """The per-pair loop of nonexpansiveness_probe before stacked pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = Image(rng.uniform(0.0, 255.0, shape))
        b = Image(rng.uniform(0.0, 255.0, shape))
        gap = float(np.linalg.norm(a.flat - b.flat))
        if gap == 0.0:
            continue
        out = float(np.linalg.norm(f.apply(a).flat - f.apply(b).flat))
        worst = max(worst, out / gap)
    return worst


class StackCounter(Denoiser):
    """Records the number of rows of each apply_stack call."""

    def __init__(self, inner: Denoiser):
        self.inner = inner
        self.rows = []

    def apply(self, x: Image) -> Image:
        return self.inner.apply(x)

    def apply_stack(self, xs: np.ndarray) -> np.ndarray:
        self.rows.append(len(xs))
        return self.inner.apply_stack(xs)


class TestNonexpansivenessProbe:
    @pytest.mark.parametrize("build", [
        lambda: TdtDenoiser(25.0), lambda: MedianFilterDenoiser(3),
        lambda: NlmDenoiser(1, 5, noise_variance=625.0),
    ], ids=["tdt", "median", "nlm"])
    @pytest.mark.parametrize("trials, shape", [(17, (16, 16)), (3, (64, 64)),
                                               (5, (8, 8))])
    def test_bitwise_the_per_pair_loop(self, build, trials, shape):
        f = build()
        assert (nonexpansiveness_probe(f, trials, seed=7, shape=shape)
                == reference_probe(f, trials, 7, shape))

    @pytest.mark.parametrize("trials, shape, rows", [
        (17, (16, 16), [32, 2]), (16, (16, 16), [32]), (3, (64, 64), [2, 2, 2]),
    ])
    def test_pairs_are_stacked_within_the_byte_budget(self, trials, shape, rows):
        """16 pairs of 16x16 images fill 64 KB; one 64x64 pair already does."""
        f = StackCounter(TdtDenoiser(25.0))
        nonexpansiveness_probe(f, trials, seed=7, shape=shape)
        assert f.rows == rows

    def test_identical_pairs_are_skipped(self):
        assert nonexpansiveness_probe(TdtDenoiser(25.0), 3, seed=7, scale=0.0) == 0.0

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0], ids=str)
    def test_a_scale_that_is_not_finite_and_non_negative_is_rejected(self, scale):
        with pytest.raises(ConfigError, match=f"scale must be finite and >= 0, got {scale}"):
            nonexpansiveness_probe(TdtDenoiser(25.0), 3, seed=7, scale=scale)

    @pytest.mark.parametrize("shape", [(0, 4), (-4, 4), (4,), (4, 4, 4), (4, 2.5)],
                             ids=str)
    def test_a_shape_that_is_not_two_positive_integers_is_rejected(self, shape):
        f = StackCounter(TdtDenoiser(25.0))
        message = f"shape must be two positive integers, got {shape}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            nonexpansiveness_probe(f, 2, seed=7, shape=shape)
        assert f.rows == []

    def test_zero_trials_are_rejected(self):
        with pytest.raises(ConfigError, match="^trials must be an integer >= 1, got 0$"):
            nonexpansiveness_probe(TdtDenoiser(25.0), 0, seed=7)

    def test_non_finite_output_is_rejected(self):
        class Blowup(Denoiser):
            def apply(self, x: Image) -> Image:
                raise AssertionError("the probe denoises through apply_stack")

            def apply_stack(self, xs: np.ndarray) -> np.ndarray:
                return np.full(xs.shape, np.inf)

        with pytest.raises(DomainError, match="denoiser output must be finite"):
            nonexpansiveness_probe(Blowup(), 2, seed=7)
