"""Quadratic fidelity: values, gradients, and exact proximal maps."""

import numpy as np
import pytest

from redlab import (
    ConfigError,
    DenseOperator,
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

    def test_dense_operator(self, rng):
        op = DenseOperator(rng.standard_normal((40, 64)), in_shape=(8, 8),
                           out_shape=(5, 8))
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
        """Repeated prox calls reuse conj(H) fft2(y) / sigma^2 and match the
        uncached formula bitwise, whatever the call order and weight."""
        op = make_uniform_blur(3)
        y = op.apply(Image(rng.uniform(0.0, 255.0, size=(8, 8))))
        sigma2 = 2.0
        loss = QuadraticLoss(operator=op, y=y, noise_variance=sigma2)
        tf = op.transfer_function((8, 8))
        for weight in (self.WEIGHT, 3.0, self.WEIGHT):
            v = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
            numer = np.conj(tf) * np.fft.fft2(y.pixels) / sigma2
            numer += weight * np.fft.fft2(v.pixels)
            denom = np.abs(tf) ** 2 / sigma2 + weight
            expected = np.fft.ifft2(numer / denom).real
            np.testing.assert_array_equal(loss.prox(v, weight).pixels, expected)

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
