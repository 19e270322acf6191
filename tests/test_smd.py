"""Mixture priors, Tweedie regularization, and score-matching identities."""

import numpy as np
import pytest

from redlab import (
    ConfigError,
    GmmMmseDenoiser,
    IdentityOperator,
    Image,
    KdePrior,
    RedProblem,
    ShapeError,
    TdtDenoiser,
    TweedieRegularizer,
    fp_residual,
    kde_map_residual,
    red_fp,
    score,
    score_match_identity,
    SolverConfig,
)


@pytest.fixture(scope="module")
def small_prior():
    centers = np.array([[1.0, -0.5], [0.3, 0.8], [-1.2, 0.1]])
    return KdePrior(centers=centers, bandwidth=0.6)


class TestKdePrior:
    def test_log_density_matches_direct_sum(self, small_prior):
        """At moderate distances the stabilized evaluation equals the naive
        mixture formula."""
        r = np.array([0.2, -0.1])
        nu = small_prior.bandwidth
        direct = np.log(np.mean([
            np.exp(-np.sum((r - c) ** 2) / (2.0 * nu)) / (2.0 * np.pi * nu)
            for c in small_prior.centers
        ]))
        assert small_prior.log_density(r) == pytest.approx(direct, rel=1e-12)

    def test_log_density_survives_underflow(self):
        """Far from all centers the naive sum underflows to log(0); the
        max-subtracted form stays finite and tracks the nearest center."""
        centers = np.array([[0.0], [100.0]])
        prior = KdePrior(centers=centers, bandwidth=0.5)
        r = np.array([99.0])
        expected = (-np.log(2.0) - 0.5 * np.log(2.0 * np.pi * 0.5)
                    - 1.0 / (2.0 * 0.5))
        assert np.isfinite(prior.log_density(r))
        assert prior.log_density(r) == pytest.approx(expected, rel=1e-10)

    def test_score_matches_log_density_finite_differences(self, small_prior):
        r = np.array([0.4, 0.9])
        s = score(small_prior, r)
        eps = 1e-6
        for j in range(2):
            up, down = r.copy(), r.copy()
            up[j] += eps
            down[j] -= eps
            fd = (small_prior.log_density(up)
                  - small_prior.log_density(down)) / (2.0 * eps)
            assert s[j] == pytest.approx(fd, abs=1e-7)

    def test_denoiser_shares_the_mixture(self, small_prior):
        den = small_prior.denoiser()
        assert isinstance(den, GmmMmseDenoiser)
        r = np.array([0.2, 0.3])
        np.testing.assert_allclose(
            score(small_prior, r),
            (den.posterior_mean(r) - r) / small_prior.bandwidth, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            KdePrior(centers=np.zeros((0, 2)), bandwidth=1.0)
        with pytest.raises(ConfigError):
            KdePrior(centers=np.zeros((2, 2)), bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, -np.inf])
    def test_non_finite_bandwidth_is_rejected(self, bandwidth):
        """Such a prior used to be built, and log_density returned nan or -inf."""
        with pytest.raises(ConfigError):
            KdePrior(centers=np.zeros((2, 2)), bandwidth=bandwidth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_center_is_rejected(self, bad):
        centers = np.zeros((2, 2))
        centers[1, 0] = bad
        with pytest.raises(ConfigError):
            KdePrior(centers=centers, bandwidth=1.0)

    def test_one_denoiser_keeps_the_former_bits(self, small_prior):
        """log_density, score and the Tweedie gradient equal, bit for bit,
        the expressions they had when each call built its own mixture."""
        prior = small_prior
        assert prior.denoiser() is prior.denoiser()
        r = np.array([0.37, -1.9])
        nu, centers = prior.bandwidth, prior.centers
        log_kernels = -np.sum((r[None, :] - centers) ** 2, axis=1) / (2.0 * nu)
        peak = log_kernels.max()
        lse = peak + np.log(np.exp(log_kernels - peak).sum())
        expected = float(lse - np.log(len(centers))
                         - 0.5 * centers.shape[1] * np.log(2.0 * np.pi * nu))
        assert prior.log_density(r) == expected
        mean = GmmMmseDenoiser(centers, nu).posterior_mean(r)
        np.testing.assert_array_equal(score(prior, r), (mean - r) / nu)
        np.testing.assert_array_equal(TweedieRegularizer(prior).gradient(r), r - mean)

    def test_score_rejects_a_vector_of_the_wrong_size(self, small_prior):
        with pytest.raises(ShapeError, match="^vector dimension 3 != prior dimension 2$"):
            score(small_prior, np.zeros(3))


class TestTweedieRegularizer:
    def test_gradient_is_the_denoising_residual(self, small_prior):
        reg = TweedieRegularizer(small_prior)
        r = np.array([0.5, -0.3])
        expected = r - small_prior.denoiser().posterior_mean(r)
        np.testing.assert_allclose(reg.gradient(r), expected, rtol=1e-12)

    def test_gradient_matches_value_finite_differences(self, small_prior):
        """The analytic gradient equals central differences of the value,
        which is the substance of the Tweedie identity."""
        reg = TweedieRegularizer(small_prior)
        rng = np.random.default_rng(51)
        r = rng.normal(0.0, 1.0, size=2)
        grad = reg.gradient(r)
        eps = 1e-6
        for j in range(2):
            up, down = r.copy(), r.copy()
            up[j] += eps
            down[j] -= eps
            fd = (reg.value(up) - reg.value(down)) / (2.0 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


class TestScoreMatchIdentity:
    def test_identity_denoiser(self, small_prior, identity_denoiser):
        """psi = 0 for f = id, so both sides reduce to the same norm."""
        x = Image(np.array([[0.3], [-0.2]]))
        lhs, rhs = score_match_identity(identity_denoiser, small_prior, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wavelet_denoiser(self):
        rng = np.random.default_rng(52)
        centers = rng.normal(0.0, 1.0, size=(6, 4))
        prior = KdePrior(centers=centers, bandwidth=0.8)
        x = Image(rng.normal(0.0, 1.2, size=(4, 1)))
        lhs, rhs = score_match_identity(TdtDenoiser(0.1), prior, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_mismatch(self, small_prior, identity_denoiser):
        with pytest.raises(ShapeError):
            score_match_identity(identity_denoiser, small_prior,
                                 Image(np.zeros((3, 1))))


class TestKdeMapResidual:
    def test_coincides_with_solver_residual_at_matched_weight(self):
        """With lambda = 1/nu and the mixture's own posterior-mean denoiser,
        the MAP stationarity residual is the solvers' fixed-point field."""
        rng = np.random.default_rng(53)
        centers = rng.normal(0.0, 2.0, size=(5, 8))
        nu = 0.7
        prior = KdePrior(centers=centers, bandwidth=nu)
        y = Image(rng.normal(0.0, 1.5, size=(8, 1)))
        x = Image(rng.normal(0.0, 1.5, size=(8, 1)))
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=1.0,
                       weight=1.0 / nu,
                       denoiser=GmmMmseDenoiser(centers=centers,
                                                noise_variance=nu))
        lhs = kde_map_residual(prior, IdentityOperator(), y, 1.0, x)
        np.testing.assert_allclose(lhs, fp_residual(p, x), atol=1e-12)

    def test_fp_iteration_descends_the_map_objective(self):
        """Fixed-point iteration at the matched weight never increases
        fidelity minus log-prior (majorize-minimize argument)."""
        rng = np.random.default_rng(54)
        centers = rng.normal(0.0, 2.0, size=(4, 6))
        nu = 0.9
        prior = KdePrior(centers=centers, bandwidth=nu)
        y = Image((centers[0] + rng.normal(0.0, 1.0, size=6)).reshape(6, 1))
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=1.0,
                       weight=1.0 / nu,
                       denoiser=GmmMmseDenoiser(centers=centers,
                                                noise_variance=nu))
        objective = []

        def watch(k, x):
            fid = float(np.sum((x.pixels - y.pixels) ** 2)) / 2.0
            objective.append(fid - prior.log_density(x.flat))

        red_fp(p, SolverConfig(iterations=60), observer=watch)
        increases = [b - a for a, b in zip(objective, objective[1:])]
        assert max(increases) <= 1e-10

    def test_validation(self, small_prior):
        with pytest.raises(ConfigError):
            kde_map_residual(small_prior, IdentityOperator(),
                             Image(np.zeros((2, 1))), 0.0,
                             Image(np.zeros((2, 1))))
        with pytest.raises(ShapeError, match=r"image shape \(1, 2\) != data shape \(2, 1\)"):
            kde_map_residual(small_prior, IdentityOperator(),
                             Image(np.zeros((2, 1))), 1.0,
                             Image(np.zeros((1, 2))))
