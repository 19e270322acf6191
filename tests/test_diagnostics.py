"""Jacobian, gradient-expression, and objective probes on known maps."""

import dataclasses
import re

import numpy as np
import pytest

from redlab import (
    CircularConvolution,
    ConfigError,
    DegenerateInputError,
    Denoiser,
    DomainError,
    GmmMmseDenoiser,
    IdentityOperator,
    Image,
    JacobianEstimate,
    LinearSymmetricDenoiser,
    MedianFilterDenoiser,
    NlmDenoiser,
    RedProblem,
    ShapeError,
    TdtDenoiser,
    analytic_hessian_linear,
    central_differences,
    cost_red,
    cost_slice,
    fp_residual,
    grad_error,
    grad_red_lh,
    grad_red_romano,
    grad_red_true,
    hessian_rho_red,
    js_error,
    lh_error_1,
    lh_error_2,
    numerical_gradient_rho,
    numerical_jacobian,
    rho_red,
)


class CountingDenoiser(Denoiser):
    """Wraps a denoiser and counts denoised images: the rows of each stack."""

    def __init__(self, inner: Denoiser):
        self.inner = inner
        self.calls = 0

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        self.calls += len(xs)
        return self.inner.apply_stack(xs)


@pytest.fixture(scope="module")
def linear_den():
    return LinearSymmetricDenoiser.local_average((4, 4))


@pytest.fixture(scope="module")
def probe_image():
    rng = np.random.default_rng(31)
    return Image(rng.uniform(0.0, 255.0, size=(4, 4)))


class TestNumericalJacobian:
    def test_recovers_linear_map_exactly(self, linear_den, probe_image):
        """Central differences of a linear map return its matrix."""
        est = numerical_jacobian(linear_den, probe_image)
        np.testing.assert_allclose(est.matrix, linear_den.matrix, atol=1e-9)

    def test_costs_two_applications_per_pixel(self, probe_image):
        f = CountingDenoiser(TdtDenoiser(5.0))
        numerical_jacobian(f, probe_image)
        assert f.calls == 2 * probe_image.size

    def test_step_validation(self, linear_den, probe_image):
        with pytest.raises(ConfigError):
            numerical_jacobian(linear_den, probe_image, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf], ids=str)
    def test_non_finite_steps_are_rejected(self, linear_den, probe_image, eps):
        """A ConfigError naming the step, not a DomainError from a non-finite
        perturbed image."""
        message = f"step size must be finite and > 0, got {eps}"
        with pytest.raises(ConfigError, match=message):
            numerical_jacobian(linear_den, probe_image, eps=eps)
        with pytest.raises(ConfigError, match=message):
            central_differences(lambda vs: np.sum(vs, axis=(1, 2)), probe_image.pixels, eps)

    def test_the_identity_fixture_probes_to_the_identity(self, identity_denoiser,
                                                         probe_image):
        """The shared fixture defines the stack kernel, so stacked probes run."""
        est = numerical_jacobian(identity_denoiser, probe_image)
        np.testing.assert_allclose(est.matrix, np.eye(probe_image.size), atol=1e-9)
        assert js_error(est) == 0.0


def reference_jacobian(f, x, eps=1e-3):
    """The per-column loop numerical_jacobian ran before the shared core."""
    n = x.size
    matrix = np.empty((n, n))
    base = x.pixels.copy()
    flat = base.reshape(-1)
    for j in range(n):
        orig = flat[j]
        flat[j] = orig + eps
        plus = f.apply(Image(base)).flat
        flat[j] = orig - eps
        minus = f.apply(Image(base)).flat
        flat[j] = orig
        matrix[:, j] = (plus - minus) / (2.0 * eps)
    return matrix


def reference_gradient_rho(f, x, eps=1e-3):
    """The per-column rho_red loop numerical_gradient_rho ran before stacks."""
    grad = np.empty(x.size)
    base = x.pixels.copy()
    flat = base.reshape(-1)
    for j in range(x.size):
        orig = flat[j]
        flat[j] = orig + eps
        plus = rho_red(f, Image(base))
        flat[j] = orig - eps
        minus = rho_red(f, Image(base))
        flat[j] = orig
        grad[j] = (plus - minus) / (2.0 * eps)
    return grad


PROBE_DENOISERS = {
    "tdt": lambda: TdtDenoiser(25.0),
    "median": lambda: MedianFilterDenoiser(3),
    "nlm": lambda: NlmDenoiser(1, 2, None, 625.0),
    "linear": lambda: LinearSymmetricDenoiser.local_average((16, 16)),
}


@pytest.fixture(scope="module", params=list(PROBE_DENOISERS))
def probe16(request):
    """(f, x, numerical_jacobian(f, x)) on a random 16x16 image."""
    f = PROBE_DENOISERS[request.param]()
    x = Image(np.random.default_rng(36).uniform(0.0, 255.0, size=(16, 16)))
    return f, x, numerical_jacobian(f, x)


class TestSharedProbe:
    def test_rho_gradient_is_bitwise_numerical_gradient_rho(self, probe16):
        f, x, est = probe16
        assert est.rho_gradient.shape == (x.size,)
        assert np.array_equal(est.rho_gradient, numerical_gradient_rho(f, x))

    def test_matrix_is_c_contiguous_and_bitwise_the_reference_loop(self, probe16):
        f, x, est = probe16
        assert est.matrix.shape == (x.size, x.size)
        assert est.matrix.flags.c_contiguous
        assert np.array_equal(est.matrix, reference_jacobian(f, x))

    def test_rho_gradient_is_bitwise_the_rho_red_loop(self, probe16):
        f, x, est = probe16
        assert np.array_equal(est.rho_gradient, reference_gradient_rho(f, x))

    @pytest.mark.parametrize("label", ["median", "nlm"])
    def test_odd_sized_probe_is_bitwise_the_reference_loops(self, label):
        """5x7 stacks put rows at offsets that are not multiples of 16 bytes."""
        f = PROBE_DENOISERS[label]()
        x = Image(np.random.default_rng(40).uniform(0.0, 255.0, size=(5, 7)))
        est = numerical_jacobian(f, x)
        assert np.array_equal(est.matrix, reference_jacobian(f, x))
        assert np.array_equal(est.rho_gradient, reference_gradient_rho(f, x))


STACK_BUDGET = 64 * 1024


class TestCentralDifferences:
    def test_scalar_fn_gives_the_gradient(self):
        a = np.random.default_rng(37).normal(size=(3, 4))
        before = a.copy()
        grad = central_differences(lambda vs: np.sum(vs**2, axis=(1, 2)), a, 1e-3)
        assert grad.shape == (12,)
        np.testing.assert_allclose(grad, 2.0 * a.reshape(-1), rtol=1e-9)
        assert np.array_equal(a, before)

    def test_vector_fn_gives_a_c_ordered_jacobian(self):
        rng = np.random.default_rng(38)
        m = rng.normal(size=(5, 12))
        a = Image(rng.normal(size=(3, 4))).pixels  # read-only input
        before = a.copy()
        jac = central_differences(lambda vs: vs.reshape(len(vs), -1) @ m.T, a, 1e-3)
        assert jac.shape == (5, 12)
        assert jac.flags.c_contiguous
        np.testing.assert_allclose(jac, m, atol=1e-10)
        assert np.array_equal(a, before)

    def test_rows_at_plus_then_minus_eps_in_column_order(self):
        a = np.array([1.0, 2.0])
        seen = []

        def fn(vs):
            assert vs.shape == (4, 2)
            seen.extend(v.copy() for v in vs)
            return np.zeros(len(vs))

        central_differences(fn, a, 0.5)
        expected = [[1.5, 2.0], [0.5, 2.0], [1.0, 2.5], [1.0, 1.5]]
        assert [list(v) for v in seen] == expected

    def test_step_validation(self):
        with pytest.raises(ConfigError):
            central_differences(lambda vs: np.zeros(len(vs)), np.ones(2), 0.0)

    def test_chunk_boundary_is_bitwise_the_per_column_loop(self):
        """At 24x24 a chunk holds 7 columns, which does not divide N = 576."""
        f = MedianFilterDenoiser(3)
        x = Image(np.random.default_rng(39).uniform(0.0, 255.0, size=(24, 24)))
        rows = []

        def fn(vs):
            rows.append(len(vs))
            return f.apply_stack(vs).reshape(len(vs), -1)

        jac = central_differences(fn, x.pixels, 1e-3)
        assert rows == [14] * 82 + [4]
        assert jac.flags.c_contiguous
        assert np.array_equal(jac, reference_jacobian(f, x))

    @pytest.mark.parametrize("side", [16, 64])
    def test_stacks_stay_within_the_byte_budget(self, side):
        sizes = []

        def fn(vs):
            sizes.append(vs.nbytes)
            return np.zeros(len(vs))

        central_differences(fn, np.zeros((side, side)), 1e-3)
        assert max(sizes) <= STACK_BUDGET
        assert sum(sizes) == 2 * side**2 * side**2 * 8
        if side == 16:
            assert sizes == [STACK_BUDGET] * 16


class TestJsError:
    def test_known_asymmetric_matrix(self):
        """A single off-diagonal entry gives asymmetry energy 2 over energy 1."""
        est = JacobianEstimate(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-3)
        assert js_error(est) == pytest.approx(2.0, rel=1e-14)

    def test_symmetric_matrix_scores_zero(self, linear_den, probe_image):
        est = numerical_jacobian(linear_den, probe_image)
        assert js_error(est) <= 1e-18

    def test_zero_jacobian_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            js_error(JacobianEstimate(np.zeros((3, 3)), 1e-3))


class TestRhoRed:
    def test_hand_value_for_linear_map(self, linear_den, probe_image):
        x = probe_image.flat
        expected = 0.5 * x @ (np.eye(16) - linear_den.matrix) @ x
        assert rho_red(linear_den, probe_image) == pytest.approx(expected, rel=1e-12)


class TestGradientExpressions:
    def test_all_three_agree_for_symmetric_linear_map(self, linear_den, probe_image):
        """A linear symmetric denoiser satisfies both hypotheses, so the
        residual rule, product rule, and homogeneous rule coincide."""
        est = numerical_jacobian(linear_den, probe_image)
        rom = grad_red_romano(linear_den, probe_image)
        true = grad_red_true(linear_den, probe_image, est)
        lh = grad_red_lh(probe_image, est)
        num = numerical_gradient_rho(linear_den, probe_image)
        np.testing.assert_allclose(rom, num, atol=1e-8)
        np.testing.assert_allclose(true, num, atol=1e-8)
        np.testing.assert_allclose(lh, num, atol=1e-8)

    def test_product_rule_tracks_numerical_gradient_for_tdt(self):
        """Where the residual rule fails, the Jacobian-based rule still
        matches the finite-difference gradient of the explicit regularizer."""
        rng = np.random.default_rng(32)
        x = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
        f = TdtDenoiser(25.0)
        est = numerical_jacobian(f, x)
        num = numerical_gradient_rho(f, x)
        assert grad_error(grad_red_true(f, x, est), num) <= 1e-10
        assert grad_error(grad_red_romano(f, x), num) >= 1e-2

    def test_grad_error_is_relative(self):
        num = np.array([3.0, 4.0])
        assert grad_error(np.array([3.0, 4.0]), num) == 0.0
        assert grad_error(np.array([6.0, 8.0]), num) == pytest.approx(1.0)

    def test_grad_error_zero_reference_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            grad_error(np.ones(3), np.zeros(3))


class TestLocalHomogeneityErrors:
    def test_median_filter_is_exactly_homogeneous(self):
        rng = np.random.default_rng(33)
        x = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
        assert lh_error_1(MedianFilterDenoiser(3), x) == 0.0

    def test_tdt_fails_the_jacobian_identity(self):
        """Soft thresholding translates coefficients, so J x != f(x)."""
        rng = np.random.default_rng(34)
        x = Image(rng.uniform(0.0, 255.0, size=(8, 8)))
        assert lh_error_2(TdtDenoiser(25.0), x) >= 1e-4

    def test_linear_map_satisfies_the_jacobian_identity(self, linear_den, probe_image):
        assert lh_error_2(linear_den, probe_image) <= 1e-18

    @pytest.mark.parametrize("error", [lh_error_1, lh_error_2], ids=lambda e: e.__name__)
    def test_identically_zero_output_is_degenerate(self, error, probe_image):
        class Zero(Denoiser):
            def _kernel(self, xs):
                return np.zeros_like(xs)

        with pytest.raises(DegenerateInputError,
                           match="^denoiser output is identically zero$"):
            error(Zero(), probe_image)

    def test_precomputed_jacobian_matches_fresh_estimate(self, probe_image):
        f = TdtDenoiser(25.0)
        est = numerical_jacobian(f, probe_image)
        assert lh_error_2(f, probe_image, jacobian=est) == pytest.approx(
            lh_error_2(f, probe_image), rel=1e-12)


def reference_hessian(f, x, eps):
    """The former per-entry loop over rho_red: the four-point stencil off the
    diagonal, a second difference of step eps on it."""
    base = x.pixels.reshape(-1)

    def rho_at(*steps):
        z = base.copy()
        for i, d in steps:
            z[i] += d
        return rho_red(f, Image(z.reshape(x.pixels.shape)))

    n = base.size
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (rho_at((i, eps)) - 2.0 * rho_at() + rho_at((i, -eps))) / eps**2
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                rho_at((i, eps), (j, eps)) - rho_at((i, eps), (j, -eps))
                - rho_at((i, -eps), (j, eps)) + rho_at((i, -eps), (j, -eps))
            ) / (4.0 * eps**2)
    return hess


class TestHessian:
    def test_matches_the_per_entry_stencil_to_truncation_error(self):
        """Off the diagonal both evaluate the same stencil in another order;
        on it the step grows from eps to 2 eps, which moves a smooth map's
        entries by O(eps^2) = 1e-6 at eps = 1e-3, times the map's curvature."""
        centers = np.array([[1.0, -0.5, 0.3, 2.0], [-1.2, 0.1, 0.8, -0.4]])
        f = GmmMmseDenoiser(centers=centers, noise_variance=1.5)
        x = Image(np.array([[0.2, -0.3], [0.5, 0.4]]))
        np.testing.assert_allclose(hessian_rho_red(f, x, eps=1e-3),
                                   reference_hessian(f, x, eps=1e-3), rtol=0, atol=1e-5)

    def test_matches_analytic_form_for_linear_map(self):
        """rho is quadratic for a linear denoiser, so the four-point stencil
        reproduces I - (W + W^T)/2 to rounding."""
        den = LinearSymmetricDenoiser.local_average((3, 3))
        x = Image(np.arange(9.0).reshape(3, 3) * 13.0 + 5.0)
        numeric = hessian_rho_red(den, x, eps=0.05)
        np.testing.assert_allclose(numeric, analytic_hessian_linear(den.matrix),
                                   atol=1e-8)

    def test_analytic_form_needs_a_square_matrix(self):
        with pytest.raises(ShapeError,
                           match=r"^expected a square matrix, got shape \(2, 3\)$"):
            analytic_hessian_linear(np.ones((2, 3)))

    def test_gaussian_mixture_regularizer_is_nonconvex(self):
        """Between two far-apart centers the curvature is exactly diag(-3, 1):
        at x = 0 the Hessian is I - sym(J) with J = diag(c^2/nu, 0)."""
        centers = np.array([[2.0, 0.0], [-2.0, 0.0]])
        f = GmmMmseDenoiser(centers=centers, noise_variance=1.0)
        h = hessian_rho_red(f, Image(np.zeros((1, 2))), eps=1e-4)
        eigs = np.linalg.eigvalsh((h + h.T) / 2.0)
        np.testing.assert_allclose(eigs, [-3.0, 1.0], atol=1e-5)

    def test_is_the_symmetrized_difference_of_the_gradient_probe(self):
        """Row i of H is central_differences of numerical_gradient_rho along
        pixel i, and the result is exactly (H + H^T) / 2; the median's
        Jacobian is not symmetric, so H itself is not."""
        f = MedianFilterDenoiser(3)
        x = Image(np.random.default_rng(8).uniform(0.0, 255.0, size=(3, 4)))
        eps = 0.01
        h = central_differences(
            lambda stack: np.stack([numerical_gradient_rho(f, Image(s), eps)
                                    for s in stack]),
            x.pixels, eps)
        hess = hessian_rho_red(f, x, eps)
        np.testing.assert_array_equal(hess, (h + h.T) / 2.0)
        np.testing.assert_array_equal(hess, hess.T)


class TestRedProblem:
    def test_parameter_validation(self, linear_den):
        y = Image(np.zeros((4, 4)))
        with pytest.raises(ConfigError):
            RedProblem(operator=IdentityOperator(), y=y, noise_variance=0.0,
                       weight=0.02, denoiser=linear_den)
        with pytest.raises(ConfigError):
            RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=-1.0, denoiser=linear_den)
        with pytest.raises(ConfigError, match="noise variance"):
            RedProblem(operator=IdentityOperator(), y=y, noise_variance=0.0,
                       weight=-1.0, denoiser=linear_den)

    @pytest.mark.parametrize("weight", [np.nan, np.inf], ids=str)
    def test_non_finite_weight_is_rejected(self, linear_den, weight):
        with pytest.raises(ConfigError,
                           match=f"regularization weight must be finite and > 0, got {weight}"):
            RedProblem(operator=IdentityOperator(), y=Image(np.zeros((4, 4))),
                       noise_variance=2.0, weight=weight, denoiser=linear_den)

    def test_is_frozen_with_its_loss_built_once(self, linear_den):
        y = Image(np.zeros((4, 4)))
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=linear_den)
        assert (p.loss.operator, p.loss.y, p.loss.noise_variance) == (
            p.operator, p.y, p.noise_variance)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.y = Image(np.ones((4, 4)))

    def test_kernel_larger_than_the_data_fails_at_construction(self, linear_den):
        with pytest.raises(ShapeError):
            RedProblem(operator=CircularConvolution(np.ones((5, 5)) / 25.0),
                       y=Image(np.zeros((4, 4))), noise_variance=2.0, weight=0.02,
                       denoiser=linear_den)

    def test_identity_problem_hand_values(self, identity_denoiser):
        """With A = I and f = identity the objective is pure fidelity."""
        y = Image(np.zeros((2, 2)))
        x = Image(np.full((2, 2), 3.0))
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        assert cost_red(p, x) == pytest.approx(4 * 9.0 / 4.0, rel=1e-12)
        np.testing.assert_allclose(fp_residual(p, x), np.full(4, 1.5), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4)], ids=str)
    def test_an_image_of_another_shape_is_rejected(self, identity_denoiser, shape):
        p = RedProblem(operator=IdentityOperator(), y=Image(np.zeros((4, 4))),
                       noise_variance=2.0, weight=0.02, denoiser=identity_denoiser)
        message = re.escape(f"image shape {shape} != data shape (4, 4)")
        for probe in (cost_red, fp_residual):
            with pytest.raises(ShapeError, match=message):
                probe(p, Image(np.ones(shape)))

    def test_precomputed_denoiser_output_is_trusted(self, linear_den):
        rng = np.random.default_rng(35)
        y = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        x = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=linear_den)
        fx = linear_den.apply(x)
        np.testing.assert_array_equal(fp_residual(p, x, fx=fx), fp_residual(p, x))
        assert cost_red(p, x, fx=fx) == cost_red(p, x)


@pytest.fixture(scope="module")
def slice_problem():
    rng = np.random.default_rng(36)
    den = LinearSymmetricDenoiser.local_average((4, 4))
    y = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
    return RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                      weight=0.5, denoiser=den)


class TestCostSlice:
    def test_quadratic_objective_has_vanishing_third_difference(self, slice_problem):
        """For a linear denoiser the slice is a quadratic surface, pinned
        down by c(2a) = 3 c(a) - 3 c(0) + c(-a) along any line."""
        rng = np.random.default_rng(37)
        center = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        e1 = rng.standard_normal(16)
        e1 /= np.linalg.norm(e1)
        e2 = rng.standard_normal(16)
        e2 -= (e2 @ e1) * e1
        e2 /= np.linalg.norm(e2)
        samples = cost_slice(slice_problem, center, e1, e2,
                             alphas=np.array([-1.0, 0.0, 1.0, 2.0]),
                             betas=np.array([0.0]))
        line = {s.alpha: s.cost for s in samples}
        predicted = 3.0 * line[1.0] - 3.0 * line[0.0] + line[-1.0]
        assert line[2.0] == pytest.approx(predicted, rel=1e-9)

    def test_center_gradient_matches_cost_differences(self, slice_problem):
        """grad_e1 at the center agrees with the slope of the sampled costs
        when the residual field is a true gradient (linear denoiser)."""
        rng = np.random.default_rng(38)
        center = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        e1 = np.zeros(16)
        e1[3] = 1.0
        e2 = np.zeros(16)
        e2[7] = 1.0
        grid = np.array([-1.0, 0.0, 1.0])
        samples = cost_slice(slice_problem, center, e1, e2,
                             alphas=grid, betas=grid)
        by_coord = {(s.alpha, s.beta): s for s in samples}
        fd = (by_coord[(1.0, 0.0)].cost - by_coord[(-1.0, 0.0)].cost) / 2.0
        assert by_coord[(0.0, 0.0)].grad_e1 == pytest.approx(fd, rel=1e-9)

    def test_applies_the_operator_once_per_node(self):
        """A x - y is computed once per node and shared by the residual and
        the cost, which equal the standalone functions bitwise."""

        class CountingConvolution(CircularConvolution):
            calls = 0

            def apply(self, x: Image) -> Image:
                self.calls += 1
                return super().apply(x)

        rng = np.random.default_rng(39)
        op = CountingConvolution(np.full((3, 3), 1.0 / 9.0))
        p = RedProblem(operator=op, y=Image(rng.uniform(0.0, 255.0, size=(4, 4))),
                       noise_variance=2.0, weight=0.5, denoiser=TdtDenoiser(3.0))
        center = Image(rng.uniform(0.0, 255.0, size=(4, 4)))
        e1 = np.zeros(16)
        e1[3] = 1.0
        e2 = np.zeros(16)
        e2[7] = 1.0
        grid = np.array([-1.0, 0.0, 1.0])
        samples = cost_slice(p, center, e1, e2, alphas=grid, betas=grid)
        assert op.calls == len(samples) == 9
        for s in samples:
            point = Image.from_flat(center.flat + s.alpha * e1 + s.beta * e2, 4, 4)
            g = fp_residual(p, point)
            assert s.cost == cost_red(p, point)
            assert (s.grad_e1, s.grad_e2) == (float(g @ e1), float(g @ e2))

    def test_directions_must_be_unit_norm(self, slice_problem):
        center = Image(np.zeros((4, 4)))
        e = np.zeros(16)
        e[0] = 2.0
        u = np.zeros(16)
        u[1] = 1.0
        grid = np.array([0.0])
        with pytest.raises(DomainError):
            cost_slice(slice_problem, center, e, u, alphas=grid, betas=grid)

    def test_direction_size_must_match(self, slice_problem):
        center = Image(np.zeros((4, 4)))
        grid = np.array([0.0])
        with pytest.raises(ShapeError):
            cost_slice(slice_problem, center, np.ones(4) / 2.0,
                       np.ones(4) / 2.0, alphas=grid, betas=grid)
