"""Denoiser behavior against independent per-pixel and transform oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from redlab import (
    BernoulliMmseDenoiser,
    ConfigError,
    GmmMmseDenoiser,
    Image,
    LinearSymmetricDenoiser,
    MedianFilterDenoiser,
    NlmDenoiser,
    ShapeError,
    TdtDenoiser,
    nonexpansiveness_probe,
)
from redlab.denoisers import haar_forward, haar_inverse


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
        with pytest.raises(ConfigError):
            TdtDenoiser(-0.1)

    def test_non_power_of_two_image_rejected(self):
        with pytest.raises(ShapeError):
            TdtDenoiser(1.0).apply(Image(np.zeros((3, 4))))


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
        with pytest.raises(ShapeError):
            MedianFilterDenoiser(5).apply(Image(np.zeros((3, 3))))


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
        with pytest.raises(ShapeError):
            den.apply(Image(np.zeros((2, 8))))


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
