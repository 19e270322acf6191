"""Forward operators: convolution against brute force, exact adjoints."""

import warnings

import numpy as np
import pytest

from redlab import (
    CircularConvolution,
    ConfigError,
    IdentityOperator,
    Image,
    LinearOperator,
    LinearSymmetricDenoiser,
    QuadraticLoss,
    ShapeError,
    operator_matrix,
)
from redlab.operators import _irfft2, _rfft2


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

    def test_transfer_function_is_ones(self):
        """The DFT of the identity, as the deblur oracle divides by it."""
        tf = IdentityOperator().transfer_function((3, 5))
        assert tf.shape == (3, 5)
        np.testing.assert_array_equal(tf, np.ones((3, 5)))


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

    def test_kernel_must_be_two_dimensional(self):
        with pytest.raises(ConfigError, match="^kernel must be 2-D, got ndim=3$"):
            CircularConvolution(np.ones((3, 3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=str)
    def test_kernel_must_be_finite(self, value):
        kernel = np.full((3, 3), value)
        for build in (CircularConvolution, lambda k: LinearSymmetricDenoiser(k, (8, 8))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match="^kernel must be finite$"):
                    build(kernel)

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
        x_hat = loss.prox_spectrum(x)
        assert x_hat is not None
        for spectrum in (x_hat, None):  # the spectrum formula, then A and A^T
            r, g = loss.data_terms(x, spectrum)
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


FFT_SHAPES = [(1, 1), (1, 9), (9, 1), (15, 17), (64, 64), (3, 15, 17), (7, 33, 65)]


class TestHalfSpectrumTransforms:
    """_rfft2 and _irfft2 run numpy's two 1-D passes directly; each is
    bitwise the 2-D numpy call it replaces, on single images and stacks."""

    @pytest.mark.parametrize("shape", FFT_SHAPES, ids=str)
    def test_forward_is_bitwise_rfft2(self, shape):
        a = np.random.default_rng(31).uniform(-255.0, 255.0, size=shape)
        assert _rfft2(a).tobytes() == np.fft.rfft2(a).tobytes()

    @pytest.mark.parametrize("shape", FFT_SHAPES, ids=str)
    def test_inverse_is_bitwise_irfft2(self, shape):
        rng = np.random.default_rng(32)
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        # A transformed image, and an arbitrary half spectrum.
        spectra = [np.fft.rfft2(rng.uniform(-255.0, 255.0, size=shape)),
                   rng.standard_normal(half) + 1j * rng.standard_normal(half)]
        for spectrum in spectra:
            expected = np.fft.irfft2(spectrum, s=shape[-2:])
            assert _irfft2(spectrum, shape[-1]).tobytes() == expected.tobytes()


class TestSpectralSolverTables:
    """The circular prox and its logged data terms against the former
    separate numpy calls, bitwise."""

    CASES = [((15, 17), 3), ((64, 64), 9), ((1, 9), 1), ((33, 65), 5)]

    @pytest.fixture(params=CASES, ids=lambda c: f"{c[0][0]}x{c[0][1]}-blur{c[1]}")
    def solved(self, request):
        shape, blur = request.param
        rng = np.random.default_rng(33)
        op = CircularConvolution(np.full((blur, blur), 1.0 / blur**2))
        y = Image(rng.uniform(0.0, 255.0, size=shape))
        loss = QuadraticLoss(operator=op, y=y, noise_variance=2.5)
        v = Image(rng.uniform(0.0, 255.0, size=shape))
        return loss, v, loss.prox(v, 0.3)

    def test_prox_is_bitwise_the_2d_calls(self, solved):
        loss, v, x = solved
        solver = loss._solver
        h = np.fft.rfft2(loss.operator._centered(v.pixels.shape))
        assert solver.h.tobytes() == h.tobytes()
        y_hat = np.fft.rfft2(loss.y.pixels)
        rhs = np.conj(h) * y_hat / loss.noise_variance
        gain = np.abs(h) ** 2 / loss.noise_variance
        x_hat = (rhs + 0.3 * np.fft.rfft2(v.pixels)) / (gain + 0.3)
        assert solver._last[1].tobytes() == x_hat.tobytes()
        expected = np.fft.irfft2(x_hat, s=v.pixels.shape)
        assert x.pixels.tobytes() == expected.tobytes()

    def test_data_terms_are_bitwise_two_inverse_transforms(self, solved):
        loss, _, x = solved
        solver = loss._solver
        shape = x.pixels.shape
        r_hat = solver.h * solver._last[1] - solver.y_hat
        residual = np.fft.irfft2(r_hat, s=shape)
        gradient = np.fft.irfft2(np.conj(solver.h) * r_hat, s=shape) / loss.noise_variance
        r, g = loss.data_terms(x, loss.prox_spectrum(x))
        assert r.tobytes() == residual.tobytes()
        assert g.tobytes() == gradient.tobytes()

    def test_apply_and_adjoint_are_bitwise_the_2d_calls(self, solved):
        loss, v, _ = solved
        op, shape = loss.operator, v.pixels.shape
        tf = np.fft.rfft2(op._centered(shape))
        spectrum = np.fft.rfft2(v.pixels)
        applied = np.fft.irfft2(spectrum * tf, s=shape)
        adjoint = np.fft.irfft2(spectrum * np.conj(tf), s=shape)
        assert op.apply(v).pixels.tobytes() == applied.tobytes()
        assert op.adjoint(v).pixels.tobytes() == adjoint.tobytes()
