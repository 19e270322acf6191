"""Consensus-equilibrium maps and their relation to the solver limits."""

import numpy as np
import pytest

from redlab import (
    ConfigError,
    Denoiser,
    Image,
    LinearSymmetricDenoiser,
    NonConvergenceError,
    QuadraticLoss,
    SolverConfig,
    TdtDenoiser,
    awgn,
    consensus_residual,
    denoising_equilibria,
    g_red_inverse,
    make_uniform_blur,
    pnp_pair,
    red_admm_pair,
    red_pg,
    red_pg_pair,
    solver_scene,
)


class ExpansiveMap(Denoiser):
    """f(x) = 3x breaks the contraction the resolvent iteration needs."""

    def apply(self, x: Image) -> Image:
        return Image(3.0 * x.pixels)


class UncalledMap(Denoiser):
    def apply(self, x: Image) -> Image:
        raise AssertionError("the parameters are checked before f runs")


class TestGRedInverse:
    def test_inverts_the_forward_map_for_a_linear_denoiser(self):
        """Applying (1 + c) I - c W to the output recovers the input."""
        den = LinearSymmetricDenoiser.local_average((4, 4))
        rng = np.random.default_rng(61)
        v = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        c = 2.0
        x = g_red_inverse(den, c, v, tol=1e-12)
        recovered = (1.0 + c) * x.flat - c * den.apply(x).flat
        np.testing.assert_allclose(recovered, v.flat, atol=1e-10)

    def test_agrees_with_a_dense_solve(self):
        den = LinearSymmetricDenoiser.local_average((4, 4))
        rng = np.random.default_rng(62)
        v = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        c = 0.5
        direct = np.linalg.solve((1.0 + c) * np.eye(16) - c * den.matrix, v.flat)
        x = g_red_inverse(den, c, v, tol=1e-13)
        np.testing.assert_allclose(x.flat, direct, atol=1e-10)

    def test_identity_denoiser_returns_the_input_unchanged(self, identity_denoiser):
        v = Image(np.arange(16.0).reshape(4, 4))
        out = g_red_inverse(identity_denoiser, 2.0, v)
        np.testing.assert_array_equal(out.pixels, v.pixels)

    def test_expansive_map_raises_after_maxiter(self):
        with pytest.raises(NonConvergenceError):
            g_red_inverse(ExpansiveMap(), 1.0,
                          Image(np.full((2, 2), 10.0)), maxiter=50)

    def test_parameter_validation(self, identity_denoiser):
        v = Image(np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            g_red_inverse(identity_denoiser, 0.0, v)
        with pytest.raises(ConfigError):
            g_red_inverse(identity_denoiser, 1.0, v, tol=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"c": np.nan}, "coupling constant must be finite and > 0, got nan"),
        ({"c": np.inf}, "coupling constant must be finite and > 0, got inf"),
        ({"tol": np.nan}, "tolerance must be finite and > 0, got nan"),
        ({"tol": np.inf}, "tolerance must be finite and > 0, got inf"),
        ({"maxiter": -1}, "maxiter must be an integer >= 0, got -1"),
        ({"maxiter": 2.5}, "maxiter must be an integer >= 0, got 2.5"),
    ])
    def test_bad_parameters_are_rejected_before_f_runs(self, kwargs, message):
        args = {"c": 1.0, "tol": 1e-10, "maxiter": 10, **kwargs}
        with pytest.raises(ConfigError, match=message):
            g_red_inverse(UncalledMap(), v=Image(np.zeros((4, 4))), **args)

    def test_zero_maxiter_evaluates_the_start_once(self, identity_denoiser):
        v = Image(np.arange(4.0).reshape(2, 2))
        assert g_red_inverse(identity_denoiser, 1.0, v, maxiter=0) is v
        with pytest.raises(NonConvergenceError):
            g_red_inverse(ExpansiveMap(), 1.0, Image(np.full((2, 2), 10.0)), maxiter=0)


@pytest.fixture(scope="module")
def deblur_setup():
    truth = solver_scene(size=16, index=0)
    op = make_uniform_blur(3)
    y = awgn(op.apply(truth), 2.0, seed=5)
    loss = QuadraticLoss(operator=op, y=y, noise_variance=2.0)
    return loss, y


class TestPairConstruction:
    def test_matched_coupling_makes_both_pairs_identical(self, deblur_setup):
        """c = lambda/beta = 2 = 1/L and beta = lambda L line up, so the
        splitting and proximal-gradient pairs evaluate bitwise equal."""
        loss, _ = deblur_setup
        f = TdtDenoiser(5.0)
        admm = red_admm_pair(loss, f, weight=0.002, beta=0.001)
        pg = red_pg_pair(loss, f, weight=0.002, l_scale=0.5)
        assert admm.params["c"] == pg.params["c"] == 2.0
        rng = np.random.default_rng(63)
        v = Image(rng.uniform(0.0, 255.0, size=(16, 16)))
        np.testing.assert_array_equal(admm.F(v).pixels, pg.F(v).pixels)
        np.testing.assert_array_equal(admm.G(v).pixels, pg.G(v).pixels)

    def test_pnp_pair_uses_the_raw_denoiser(self, deblur_setup):
        loss, _ = deblur_setup
        f = TdtDenoiser(5.0)
        pair = pnp_pair(loss, f, beta=0.01)
        rng = np.random.default_rng(64)
        v = Image(rng.uniform(0.0, 255.0, size=(16, 16)))
        np.testing.assert_array_equal(pair.G(v).pixels, f.apply(v).pixels)


class TestSolverLimitIsAnEquilibrium:
    def test_pg_fixed_point_satisfies_both_consensus_equations(self):
        """Run the proximal-gradient solver to convergence on a linear
        instance, then check x = F(x + u) and x = G(x - u) at
        u = (f(x) - x) / L."""
        truth = solver_scene(size=16, index=0)
        op = make_uniform_blur(3)
        y = awgn(op.apply(truth), 2.0, seed=5)
        den = LinearSymmetricDenoiser.local_average((16, 16))
        from redlab import RedProblem
        p = RedProblem(operator=op, y=y, noise_variance=2.0, weight=0.02,
                       denoiser=den)
        l_scale = 1.01
        x_hat, _ = red_pg(p, SolverConfig(iterations=3000,
                                          stop_fp_residual=1e-28,
                                          step_scale=l_scale))
        u_hat = Image((den.apply(x_hat).pixels - x_hat.pixels) / l_scale)
        loss = QuadraticLoss(operator=op, y=y, noise_variance=2.0)
        pair = red_pg_pair(loss, den, weight=0.02, l_scale=l_scale, tol=1e-12)
        rf, rg = consensus_residual(pair, x_hat, u_hat)
        assert rf <= 1e-7
        assert rg <= 1e-7


class TestDenoisingEquilibria:
    def test_pnp_point_is_the_denoised_data(self):
        y = awgn(solver_scene(size=16, index=0), 100.0, seed=3)
        f = TdtDenoiser(5.0)
        x_pnp, _ = denoising_equilibria(f, y, tol=1e-9)
        np.testing.assert_array_equal(x_pnp.pixels, f.apply(y).pixels)

    def test_red_point_mirrors_the_denoising_residual(self):
        """y - x equals x - f(x) at the regularized equilibrium."""
        y = awgn(solver_scene(size=16, index=0), 100.0, seed=3)
        f = TdtDenoiser(5.0)
        _, x_red = denoising_equilibria(f, y, tol=1e-10)
        lhs = y.pixels - x_red.pixels
        rhs = x_red.pixels - f.apply(x_red).pixels
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_the_two_equilibria_differ(self):
        y = awgn(solver_scene(size=16, index=0), 100.0, seed=3)
        x_pnp, x_red = denoising_equilibria(TdtDenoiser(5.0), y)
        assert not np.allclose(x_pnp.pixels, x_red.pixels, atol=1e-3)
