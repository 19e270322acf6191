"""Quadratic fidelity: values, gradients, and exact proximal maps."""

import dataclasses

import numpy as np
import pytest

from redlab import (
    ConfigError,
    IdentityOperator,
    Image,
    LinearOperator,
    QuadraticLoss,
    ShapeError,
    make_uniform_blur,
    operator_matrix,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(41)


class TestMakeUniformBlur:
    def test_kernel_is_normalized(self):
        op = make_uniform_blur(3)
        img = Image(np.full((6, 6), 10.0))
        np.testing.assert_allclose(op.apply(img).pixels, 10.0, rtol=1e-13)

    def test_even_width_rejected(self):
        with pytest.raises(ConfigError):
            make_uniform_blur(4)


class TestQuadraticLoss:
    def test_value_and_gradient_hand_check(self):
        """l(x) = ||x - y||^2 / (2 sigma^2) for the identity operator."""
        y = Image(np.zeros((2, 2)))
        x = Image(np.full((2, 2), 3.0))
        loss = QuadraticLoss(operator=IdentityOperator(), y=y, noise_variance=2.0)
        assert loss.value(x) == pytest.approx(4 * 9.0 / 4.0, rel=1e-13)
        np.testing.assert_allclose(loss.gradient(x).flat, np.full(4, 1.5),
                                   rtol=1e-13)

    def test_gradient_matches_finite_differences(self, rng):
        op = make_uniform_blur(3)
        y = op.apply(Image(rng.uniform(0.0, 255.0, size=(6, 6))))
        loss = QuadraticLoss(operator=op, y=y, noise_variance=1.7)
        x = Image(rng.uniform(0.0, 255.0, size=(6, 6)))
        grad = loss.gradient(x).flat
        eps = 1e-4
        for j in [0, 7, 20, 35]:
            up = x.pixels.copy().reshape(-1)
            down = up.copy()
            up[j] += eps
            down[j] -= eps
            fd = (loss.value(Image(up.reshape(6, 6)))
                  - loss.value(Image(down.reshape(6, 6)))) / (2.0 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-5)

    def test_dense_cache_is_not_a_constructor_argument(self):
        y = Image(np.zeros((2, 2)))
        with pytest.raises(TypeError):
            QuadraticLoss(IdentityOperator(), y, 1.0, _dense_gram=np.eye(4))
        with pytest.raises(TypeError):
            QuadraticLoss(IdentityOperator(), y, 1.0, _dense_rhs=np.zeros(4))
        with pytest.raises(TypeError):
            QuadraticLoss(IdentityOperator(), y, 1.0, _solver=None)

    def test_fields_are_frozen(self):
        """The normal solver caches terms of y, so y cannot be swapped."""
        loss = QuadraticLoss(make_uniform_blur(3), Image(np.zeros((4, 4))), 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            loss.y = Image(np.ones((4, 4)))

    def test_validation(self, rng):
        y = Image(np.zeros((4, 4)))
        with pytest.raises(ConfigError):
            QuadraticLoss(operator=IdentityOperator(), y=y, noise_variance=0.0)


class TestProx:
    WEIGHT = 0.05

    def check_optimality(self, loss, v):
        """The prox output must zero the subproblem gradient."""
        p = loss.prox(v, self.WEIGHT)
        residual = loss.gradient(p).flat + self.WEIGHT * (p.flat - v.flat)
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)
        return p

    def test_identity_operator(self, rng):
        y = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
        loss = QuadraticLoss(operator=IdentityOperator(), y=y, noise_variance=2.0)
        self.check_optimality(loss, Image(rng.uniform(0.0, 255.0, size=(8, 8))))

    def test_circular_operator(self, rng):
        op = make_uniform_blur(3)
        y = op.apply(Image(rng.uniform(0.0, 255.0, size=(8, 8))))
        loss = QuadraticLoss(operator=op, y=y, noise_variance=2.0)
        self.check_optimality(loss, Image(rng.uniform(0.0, 255.0, size=(8, 8))))

    def test_circular_prox_agrees_with_dense_solve(self, rng):
        """The FFT shortcut equals the explicit normal-equation solution."""
        op = make_uniform_blur(3)
        y = op.apply(Image(rng.uniform(0.0, 255.0, size=(6, 6))))
        v = Image(rng.uniform(0.0, 255.0, size=(6, 6)))
        sigma2 = 2.0
        loss = QuadraticLoss(operator=op, y=y, noise_variance=sigma2)
        fast = loss.prox(v, self.WEIGHT)
        a = operator_matrix(op, (6, 6))
        lhs = a.T @ a / sigma2 + self.WEIGHT * np.eye(36)
        rhs = a.T @ y.flat / sigma2 + self.WEIGHT * v.flat
        np.testing.assert_allclose(fast.flat, np.linalg.solve(lhs, rhs),
                                   atol=1e-10)

    def test_cached_circular_data_term_is_bitwise_and_left_intact(self, rng):
        """Repeated prox calls reuse conj(H) rfft2(y) / sigma^2 on the half
        spectrum and match the uncached formula bitwise, whatever the call
        order and weight."""
        op = make_uniform_blur(3)
        y = op.apply(Image(rng.uniform(0.0, 255.0, size=(8, 8))))
        sigma2 = 2.0
        loss = QuadraticLoss(operator=op, y=y, noise_variance=sigma2)
        tf = op.half_transfer_function((8, 8))
        for weight in (self.WEIGHT, 3.0, self.WEIGHT):
            v = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
            numer = np.conj(tf) * np.fft.rfft2(y.pixels) / sigma2
            numer += weight * np.fft.rfft2(v.pixels)
            denom = np.abs(tf) ** 2 / sigma2 + weight
            expected = np.fft.irfft2(numer / denom, s=(8, 8))
            np.testing.assert_array_equal(loss.prox(v, weight).pixels, expected)

    def test_identity_prox_formula_is_bitwise(self, rng):
        y = Image(rng.uniform(0.0, 255.0, size=(5, 7)))
        v = Image(rng.uniform(0.0, 255.0, size=(5, 7)))
        loss = QuadraticLoss(operator=IdentityOperator(), y=y, noise_variance=2.0)
        expected = (y.pixels / 2.0 + 0.3 * v.pixels) / (1.0 / 2.0 + 0.3)
        np.testing.assert_array_equal(loss.prox(v, 0.3).pixels, expected)

    def test_anchor_shape_must_match_the_data(self, rng):
        y = Image(np.zeros((4, 4)))
        for op in (IdentityOperator(), make_uniform_blur(3)):
            loss = QuadraticLoss(operator=op, y=y, noise_variance=2.0)
            with pytest.raises(ShapeError, match="anchor shape"):
                loss.prox(Image(np.zeros((4, 5))), 0.5)

    def test_weight_validation(self, rng):
        loss = QuadraticLoss(operator=IdentityOperator(),
                             y=Image(np.zeros((4, 4))), noise_variance=2.0)
        with pytest.raises(ConfigError):
            loss.prox(Image(np.zeros((4, 4))), 0.0)

    def test_unsupported_operator_type(self):
        class OddOperator(LinearOperator):
            def apply(self, x):
                return x

            def adjoint(self, y):
                return y

        loss = QuadraticLoss(operator=OddOperator(), y=Image(np.zeros((2, 2))),
                             noise_variance=1.0)
        with pytest.raises(ConfigError):
            loss.prox(Image(np.zeros((2, 2))), 0.5)


class TestSpectrumHandOff:
    """data_terms(x, x_hat) forms the terms from the prox spectrum x_hat that
    the caller passes; data_terms(x) applies A and A^T, whatever returned x."""

    SIGMA2 = 2.0

    @pytest.fixture
    def blur_loss(self, rng):
        op = make_uniform_blur(3)
        y = op.apply(Image(rng.uniform(0.0, 255.0, size=(8, 8))))
        return QuadraticLoss(operator=op, y=y, noise_variance=self.SIGMA2)

    def fallback(self, loss, x):
        residual = loss.operator.apply(x).pixels - loss.y.pixels
        return residual, loss.operator.adjoint(Image(residual)).pixels / self.SIGMA2

    def test_last_prox_output_uses_the_half_spectrum_formula(self, blur_loss, rng):
        v = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
        x = blur_loss.prox(v, 0.05)
        tf = blur_loss.operator.half_transfer_function((8, 8))
        numer = np.conj(tf) * np.fft.rfft2(blur_loss.y.pixels) / self.SIGMA2
        x_hat = (numer + 0.05 * np.fft.rfft2(v.pixels)) / (np.abs(tf) ** 2 / self.SIGMA2
                                                           + 0.05)
        r_hat = tf * x_hat - np.fft.rfft2(blur_loss.y.pixels)
        r, g = blur_loss.data_terms(x, blur_loss.prox_spectrum(x))
        np.testing.assert_array_equal(r, np.fft.irfft2(r_hat, s=(8, 8)))
        np.testing.assert_array_equal(
            g, np.fft.irfft2(np.conj(tf) * r_hat, s=(8, 8)) / self.SIGMA2)
        want_r, want_g = self.fallback(blur_loss, x)
        np.testing.assert_allclose(r, want_r, rtol=0, atol=1e-10)
        np.testing.assert_allclose(g, want_g, rtol=0, atol=1e-10)

    def test_only_the_last_prox_output_has_a_spectrum(self, blur_loss, rng):
        """An older prox output, and an equal image that is not the returned
        object, have no spectrum; data_terms(x) applies A and A^T to each,
        and to the last output too."""
        x1 = blur_loss.prox(Image(rng.uniform(0.0, 255.0, size=(8, 8))), 0.05)
        x2 = blur_loss.prox(Image(rng.uniform(0.0, 255.0, size=(8, 8))), 3.0)
        copy = Image(x2.pixels)
        assert blur_loss.prox_spectrum(x1) is None
        assert blur_loss.prox_spectrum(copy) is None
        assert blur_loss.prox_spectrum(x2) is not None
        for point in (x1, copy, x2):
            for got, want in zip(blur_loss.data_terms(point), self.fallback(blur_loss, point)):
                np.testing.assert_array_equal(got, want)

    def test_terms_without_a_spectrum_match_the_dense_matrix(self, blur_loss, rng):
        a = operator_matrix(blur_loss.operator, (8, 8))
        for weight in (0.05, 3.0):
            x = blur_loss.prox(Image(rng.uniform(0.0, 255.0, size=(8, 8))), weight)
            r, g = blur_loss.data_terms(x)
            residual = a @ x.flat - blur_loss.y.flat
            np.testing.assert_allclose(r.reshape(-1), residual, rtol=0, atol=1e-10)
            np.testing.assert_allclose(g.reshape(-1), a.T @ residual / self.SIGMA2,
                                       rtol=0, atol=1e-10)

    def test_operator_without_a_solve_still_has_data_terms(self):
        class OddOperator(LinearOperator):
            def apply(self, x):
                return Image(2.0 * x.pixels)

            def adjoint(self, y):
                return Image(2.0 * y.pixels)

        y = Image(np.ones((2, 2)))
        loss = QuadraticLoss(operator=OddOperator(), y=y, noise_variance=4.0)
        r, g = loss.data_terms(Image(np.full((2, 2), 3.0)))
        np.testing.assert_array_equal(r, np.full((2, 2), 5.0))
        np.testing.assert_array_equal(g, np.full((2, 2), 2.5))
        with pytest.raises(ConfigError, match="no prox rule for operator type OddOperator"):
            loss.prox(y, 0.5)
