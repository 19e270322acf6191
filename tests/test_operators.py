"""Forward operators: convolution against brute force, exact adjoints."""

import numpy as np
import pytest

from redlab import (
    CircularConvolution,
    ConfigError,
    IdentityOperator,
    Image,
    LinearOperator,
    QuadraticLoss,
    ShapeError,
    operator_matrix,
)


def brute_force_circular(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Periodic convolution by explicit index arithmetic."""
    h, w = img.shape
    kh, kw = kernel.shape
    out = np.zeros_like(img)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += kernel[i, j] * img[(r - (i - kh // 2)) % h,
                                              (c - (j - kw // 2)) % w]
            out[r, c] = acc
    return out


class TestIdentityOperator:
    def test_apply_and_adjoint_are_the_identity(self):
        img = Image(np.arange(6.0).reshape(2, 3))
        op = IdentityOperator()
        np.testing.assert_array_equal(op.apply(img).pixels, img.pixels)
        np.testing.assert_array_equal(op.adjoint(img).pixels, img.pixels)


class TestCircularConvolution:
    def test_matches_brute_force(self):
        """The FFT implementation agrees with direct periodic summation."""
        rng = np.random.default_rng(11)
        img = rng.uniform(-3.0, 3.0, size=(5, 7))
        kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
        op = CircularConvolution(kernel)
        np.testing.assert_allclose(op.apply(Image(img)).pixels,
                                   brute_force_circular(img, kernel),
                                   atol=1e-12)

    def test_adjoint_inner_product_identity(self):
        """<A x, z> equals <x, A^T z> for random vectors."""
        rng = np.random.default_rng(12)
        op = CircularConvolution(rng.uniform(-1.0, 1.0, size=(3, 5)))
        x = Image(rng.standard_normal((6, 8)))
        z = Image(rng.standard_normal((6, 8)))
        lhs = float(np.dot(op.apply(x).flat, z.flat))
        rhs = float(np.dot(x.flat, op.adjoint(z).flat))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_symmetric_kernel_is_self_adjoint(self):
        rng = np.random.default_rng(13)
        kernel = np.ones((3, 3)) / 9.0
        op = CircularConvolution(kernel)
        x = Image(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(op.adjoint(x).pixels, op.apply(x).pixels,
                                   atol=1e-13)

    def test_mean_preserving_kernel_fixes_constants(self):
        op = CircularConvolution(np.ones((3, 3)) / 9.0)
        img = Image(np.full((5, 5), 42.0))
        np.testing.assert_allclose(op.apply(img).pixels, 42.0, rtol=1e-14)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            CircularConvolution(np.ones((2, 3)) / 6.0)

    def test_kernel_larger_than_image(self):
        op = CircularConvolution(np.ones((5, 5)) / 25.0)
        with pytest.raises(ShapeError):
            op.apply(Image(np.zeros((3, 3))))


class TestCircularShapes:
    """Half-spectrum transforms on odd and non-square grids: apply, adjoint,
    prox and the logged data terms against the dense matrix."""

    CASES = [((9, 15), (3, 5)), ((8, 12), (3, 5)), ((5, 5), (5, 5))]

    @pytest.fixture(params=CASES, ids=["9x15", "8x12", "5x5-kernel5x5"])
    def case(self, request):
        shape, kernel_shape = request.param
        rng = np.random.default_rng(17)
        op = CircularConvolution(rng.uniform(-1.0, 1.0, size=kernel_shape))
        return op, shape, operator_matrix(op, shape), rng

    def test_apply_and_adjoint(self, case):
        op, shape, a, rng = case
        img = rng.uniform(-3.0, 3.0, size=shape)
        np.testing.assert_allclose(op.apply(Image(img)).pixels,
                                   brute_force_circular(img, op.kernel), atol=1e-12)
        np.testing.assert_allclose(op.adjoint(Image(img)).flat, a.T @ img.reshape(-1),
                                   atol=1e-12)

    def test_prox_and_data_terms(self, case):
        op, shape, a, rng = case
        n = shape[0] * shape[1]
        sigma2, weight = 2.0, 0.05
        y = Image(rng.uniform(0.0, 255.0, size=shape))
        v = Image(rng.uniform(0.0, 255.0, size=shape))
        loss = QuadraticLoss(operator=op, y=y, noise_variance=sigma2)
        x = loss.prox(v, weight)
        lhs = a.T @ a / sigma2 + weight * np.eye(n)
        rhs = a.T @ y.flat / sigma2 + weight * v.flat
        np.testing.assert_allclose(x.flat, np.linalg.solve(lhs, rhs), atol=1e-10)
        residual = a @ x.flat - y.flat
        for point in (x, Image(x.pixels)):  # the prox spectrum, then the fallback
            r, g = loss.data_terms(point)
            assert r.shape == g.shape == shape
            np.testing.assert_allclose(r.reshape(-1), residual, atol=1e-10)
            np.testing.assert_allclose(g.reshape(-1), a.T @ residual / sigma2,
                                       atol=1e-10)


class TestOperatorMatrix:
    def test_reproduces_convolution_action(self):
        rng = np.random.default_rng(15)
        op = CircularConvolution(rng.uniform(-1.0, 1.0, size=(3, 3)))
        a = operator_matrix(op, (4, 5))
        x = Image(rng.standard_normal((4, 5)))
        np.testing.assert_allclose(a @ x.flat, op.apply(x).flat, atol=1e-12)

    def test_recovers_dense_matrix_exactly(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((6, 6))

        class MatrixOperator(LinearOperator):
            def apply(self, x):
                return Image.from_flat(m @ x.flat, 3, 2)

        np.testing.assert_array_equal(operator_matrix(MatrixOperator(), (2, 3)), m)
