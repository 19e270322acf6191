"""Solver family: algebraic identities, convergence, and trajectory logs."""

from dataclasses import fields

import numpy as np
import pytest

from redlab import (
    CircularConvolution,
    ConfigError,
    Denoiser,
    DivergenceError,
    IdentityOperator,
    Image,
    QuadraticLoss,
    RedProblem,
    SOLVERS,
    SolverConfig,
    TdtDenoiser,
    Trajectory,
    TrajectoryRecord,
    awgn,
    cost_red,
    default_initialization,
    dpg_schedule,
    fp_residual,
    make_uniform_blur,
    operator_matrix,
    red_admm,
    red_admm_i1,
    red_apg,
    red_dpg,
    red_fp,
    red_pg,
    red_sd,
    solver_scene,
)
from redlab.cli import _METHOD_KEYS
from redlab.image import format_csv
from redlab.solvers import _pg_direction


def iterates_of(solver, problem, cfg, **kwargs):
    """Run a solver and collect every iterate through the observer hook."""
    seen = []
    solver(problem, cfg, observer=lambda k, x: seen.append(x.pixels), **kwargs)
    return seen


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(iterations=0)
        with pytest.raises(ConfigError):
            SolverConfig(beta=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(step_scale=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(l_initial=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(inner_iterations=0)
        with pytest.raises(ConfigError):
            SolverConfig(sd_step=-0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=str)
    @pytest.mark.parametrize("name", ["beta", "step_scale", "l_initial", "l_final",
                                      "sd_step"])
    def test_non_finite_values_are_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and > 0, got {value}"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, np.nan, 0, -3, "5"], ids=repr)
    @pytest.mark.parametrize("name", ["iterations", "inner_iterations"])
    def test_counts_must_be_integers_of_at_least_one(self, name, value):
        with pytest.raises(ConfigError,
                           match=rf"^{name} must be an integer >= 1, got {value}$"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", ["off", 1, None], ids=repr)
    def test_record_timing_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match=rf"^record_timing must be a bool, got {value!r}$"):
            SolverConfig(record_timing=value)

    def test_record_timing_accepts_a_numpy_bool(self):
        assert SolverConfig(record_timing=np.True_).record_timing

    def test_counts_accept_numpy_integers(self):
        assert SolverConfig(iterations=np.int64(3)).iterations == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, 0.0], ids=str)
    def test_stop_fp_residual_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match=rf"^stop_fp_residual must be finite and > 0, "
                                              rf"got {value}$"):
            SolverConfig(stop_fp_residual=value)

    def test_registry_lists_all_seven(self):
        assert sorted(SOLVERS) == ["admm", "admm_i1", "apg", "dpg", "fp",
                                   "pg", "sd"]
        assert SOLVERS["fp"] is red_fp


class TestTrajectoryCsv:
    def test_header_and_shape(self, blur16_linear_problem):
        _, traj = red_fp(blur16_linear_problem, SolverConfig(iterations=5))
        text = format_csv(Trajectory.CSV_HEADER, traj.csv_rows())
        lines = text.strip().split("\n")
        assert lines[0] == "iter,psnr_db,cost_red,fp_residual,update_dist,time_s"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == ""  # no ground truth supplied
        float(first[2]), float(first[3]), float(first[4])

    def test_cells_round_trip_through_repr(self):
        traj = Trajectory()
        traj.append(TrajectoryRecord(iteration=1, psnr_db=31.25,
                                     cost_red=1.0 / 3.0, fp_residual=2e-17,
                                     update_dist=0.125, time_s=0.0))
        row = traj.csv_rows()[0]
        assert float(row[2]) == 1.0 / 3.0
        assert float(row[3]) == 2e-17
        assert float(row[1]) == 31.25

    def test_write_csv_and_determinism(self, blur16_linear_problem):
        _, a = red_pg(blur16_linear_problem, SolverConfig(iterations=8))
        _, b = red_pg(blur16_linear_problem, SolverConfig(iterations=8))
        assert (format_csv(Trajectory.CSV_HEADER, a.csv_rows())
                == format_csv(Trajectory.CSV_HEADER, b.csv_rows()))

    def test_truth_enables_psnr_column(self, blur16_linear_problem):
        truth = solver_scene(size=16, index=0)
        _, traj = red_fp(blur16_linear_problem, SolverConfig(iterations=3),
                         truth=truth)
        assert all(r.psnr_db is not None for r in traj.records)

    def test_timing_off_by_default_and_on_by_request(self, blur16_linear_problem):
        _, silent = red_fp(blur16_linear_problem, SolverConfig(iterations=3))
        assert all(r.time_s == 0.0 for r in silent.records)
        _, timed = red_fp(blur16_linear_problem,
                          SolverConfig(iterations=3, record_timing=True))
        assert timed.records[-1].time_s > 0.0


class TestDefaultInitialization:
    def test_identity_operator_starts_at_the_data(self, identity_denoiser):
        y = awgn(solver_scene(size=16, index=0), 2.0, seed=5)
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        np.testing.assert_array_equal(default_initialization(p).pixels, y.pixels)

    def test_blur_of_a_flat_image_is_recovered_exactly(self, identity_denoiser):
        op = make_uniform_blur(3)
        flat = Image(np.full((12, 12), 77.0))
        p = RedProblem(operator=op, y=op.apply(flat), noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        np.testing.assert_allclose(default_initialization(p).pixels, 77.0,
                                   rtol=1e-13)


class TestSteepestDescent:
    def test_identity_problem_contracts_geometrically(self, identity_denoiser):
        """With A = I and f = id the iteration is x_k - y = (1 - mu/sigma^2)^k d,
        and the default step gives ratio 1/26 at sigma^2 = 2, lambda = 0.02."""
        y = awgn(solver_scene(size=16, index=0), 2.0, seed=5)
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        x0 = Image(y.pixels + 7.5)
        seen = iterates_of(red_sd, p, SolverConfig(iterations=3), x0=x0)
        for k, px in enumerate(seen, start=1):
            np.testing.assert_allclose(px - y.pixels, 7.5 * (1.0 / 26.0) ** k,
                                       atol=1e-12)

    def test_explicit_step_overrides_default(self, identity_denoiser):
        """sd_step = sigma^2 makes the same identity problem converge in
        one step up to the (zero) prior term."""
        y = awgn(solver_scene(size=16, index=0), 2.0, seed=5)
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        x0 = Image(y.pixels + 7.5)
        seen = iterates_of(red_sd, p, SolverConfig(iterations=1, sd_step=2.0),
                           x0=x0)
        np.testing.assert_allclose(seen[0], y.pixels, atol=1e-12)

    def test_iterates_are_bitwise_steps_along_the_public_residual(
            self, blur16_tdt_problem):
        """x_k = x_{k-1} - mu g(x_{k-1}) with g from fp_residual, although
        red_sd takes g(x_k) from the log instead of recomputing it."""
        p = blur16_tdt_problem
        seen = iterates_of(red_sd, p, SolverConfig(iterations=10))
        mu = p.noise_variance / (1.0 + p.weight * p.noise_variance)
        x = default_initialization(p)
        for px in seen:
            x = Image.from_flat(x.flat - mu * fp_residual(p, x), 16, 16)
            np.testing.assert_array_equal(px, x.pixels)

    @pytest.mark.parametrize("start, applies", [("default", 12), ("given", 11)])
    def test_one_blur_apply_per_iterate(self, blur16_tdt_problem, monkeypatch,
                                        start, applies):
        """Ten iterations apply A once per logged iterate and once at x_0;
        the default start adds the one apply of its DC gain (the step no
        longer repeats the log's A and A^T: 21 and 20 applies before)."""
        p = blur16_tdt_problem
        x0 = None if start == "default" else default_initialization(p)
        calls = []

        def counted_apply(self, x, _apply=CircularConvolution.apply):
            calls.append(x)
            return _apply(self, x)

        monkeypatch.setattr(CircularConvolution, "apply", counted_apply)
        red_sd(p, SolverConfig(iterations=10), x0=x0)
        assert len(calls) == applies


class TestAlgebraicIdentities:
    def test_pg_with_unit_step_reproduces_fp_bitwise(self, blur16_tdt_problem):
        fp = iterates_of(red_fp, blur16_tdt_problem, SolverConfig(iterations=12))
        pg = iterates_of(red_pg, blur16_tdt_problem,
                         SolverConfig(iterations=12, step_scale=1.0))
        assert len(fp) == len(pg) == 12
        for a, b in zip(fp, pg):
            np.testing.assert_array_equal(a, b)

    def test_constant_schedule_dpg_reproduces_pg_bitwise(self, blur16_tdt_problem):
        dpg = iterates_of(red_dpg, blur16_tdt_problem,
                          SolverConfig(iterations=10, l_initial=2.0, l_final=2.0))
        pg = iterates_of(red_pg, blur16_tdt_problem,
                         SolverConfig(iterations=10, step_scale=2.0))
        for a, b in zip(dpg, pg):
            np.testing.assert_array_equal(a, b)

    def test_apg_momentum_kicks_in_at_the_third_step(self, blur16_tdt_problem):
        """t_0 = 1 zeroes the first extrapolation, so acceleration and plain
        proximal-gradient agree for two steps and then separate."""
        apg = iterates_of(red_apg, blur16_tdt_problem,
                          SolverConfig(iterations=3, step_scale=1.0))
        pg = iterates_of(red_pg, blur16_tdt_problem,
                         SolverConfig(iterations=3, step_scale=1.0))
        np.testing.assert_array_equal(apg[0], pg[0])
        np.testing.assert_array_equal(apg[1], pg[1])
        assert not np.array_equal(apg[2], pg[2])

    def test_single_inner_iteration_admm_matches_i1_variant(self, blur16_tdt_problem):
        full = iterates_of(red_admm, blur16_tdt_problem,
                           SolverConfig(iterations=8, inner_iterations=1))
        fused = iterates_of(red_admm_i1, blur16_tdt_problem,
                            SolverConfig(iterations=8))
        for a, b in zip(full, fused):
            np.testing.assert_array_equal(a, b)


class TestAdoptedIterates:
    """Solver steps wrap their fresh arrays in Images without a copy; no
    later step writes an iterate, an anchor or f(x) that was handed on."""

    def test_held_pg_directions_keep_their_bytes(self):
        rng = np.random.default_rng(49)
        scratch = np.empty((8, 8))
        held = []
        for l_scale in (1.0, 1.01, 0.2, 2.0):
            x, fx = (Image(a) for a in rng.uniform(0.0, 255.0, (2, 8, 8)))
            v = _pg_direction(fx, x, l_scale, scratch)
            expected = (1.0 / l_scale) * fx.pixels - ((1.0 - l_scale) / l_scale) * x.pixels
            assert v.pixels.tobytes() == expected.tobytes()
            assert not v.pixels.flags.writeable
            held.append((v, v.pixels.tobytes()))
        assert all(v.pixels.tobytes() == kept for v, kept in held)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_observed_iterates_keep_their_bytes(self, blur16_tdt_problem, name):
        seen = []
        cfg = SolverConfig(iterations=6, inner_iterations=2, step_scale=1.5)
        x, _ = SOLVERS[name](blur16_tdt_problem, cfg,
                             observer=lambda k, x: seen.append((x, x.pixels.tobytes())))
        assert len(seen) == 6 and seen[-1][0] is x
        assert all(x.pixels.tobytes() == kept for x, kept in seen)


class TestDpgSchedule:
    def test_boundary_and_interior_values(self):
        """L_0 is the initial scale; L_1 follows the inverse-sqrt blend."""
        assert dpg_schedule(0, 0.2, 2.0) == pytest.approx(0.2, rel=1e-14)
        assert dpg_schedule(1, 0.2, 2.0) == pytest.approx(0.2715929635786799,
                                                          rel=1e-12)

    def test_approaches_the_final_scale(self):
        assert dpg_schedule(10**8, 0.2, 2.0) == pytest.approx(2.0, rel=1e-3)

    def test_monotone_increasing_for_increasing_targets(self):
        values = [dpg_schedule(k, 0.2, 2.0) for k in range(50)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestConvergence:
    def test_all_solvers_reach_the_normal_equation_solution(
            self, blur16_linear_problem):
        """Every solver lands on the closed-form minimizer of the
        quadratic objective induced by the linear denoiser."""
        p = blur16_linear_problem
        a = operator_matrix(p.operator, (16, 16))
        w = p.denoiser.matrix
        lhs = a.T @ a / p.noise_variance + p.weight * (np.eye(256) - w)
        x_star = np.linalg.solve(lhs, a.T @ p.y.flat / p.noise_variance)
        scale = np.linalg.norm(x_star)
        configs = {
            "sd": SolverConfig(iterations=4000, stop_fp_residual=1e-22),
            "admm": SolverConfig(iterations=500, stop_fp_residual=1e-22,
                                 inner_iterations=20),
            "admm_i1": SolverConfig(iterations=4000, stop_fp_residual=1e-22),
            "fp": SolverConfig(iterations=1500, stop_fp_residual=1e-22),
            "pg": SolverConfig(iterations=1500, stop_fp_residual=1e-22,
                               step_scale=1.01),
            "dpg": SolverConfig(iterations=1500, stop_fp_residual=1e-22),
            "apg": SolverConfig(iterations=1500, stop_fp_residual=1e-22,
                                step_scale=1.0),
        }
        for name, cfg in configs.items():
            x, _ = SOLVERS[name](p, cfg)
            gap = np.linalg.norm(x.flat - x_star) / scale
            assert gap <= 1e-7, f"{name} stopped {gap:.2e} away"

    def test_fixed_point_zeroes_the_residual_field(self, blur16_linear_problem):
        x, _ = red_fp(blur16_linear_problem,
                      SolverConfig(iterations=2000, stop_fp_residual=1e-26))
        assert np.max(np.abs(fp_residual(blur16_linear_problem, x))) <= 1e-11


class TestInstrumentation:
    def test_observer_sees_every_iterate_in_order(self, blur16_tdt_problem):
        ticks = []
        x, traj = red_fp(blur16_tdt_problem, SolverConfig(iterations=7),
                         observer=lambda k, im: ticks.append((k, im.pixels)))
        assert [k for k, _ in ticks] == list(range(1, 8))
        np.testing.assert_array_equal(ticks[-1][1], x.pixels)
        assert len(traj) == 7

    def test_early_stop_truncates_the_trajectory(self, blur16_linear_problem):
        _, traj = red_fp(blur16_linear_problem,
                         SolverConfig(iterations=2000, stop_fp_residual=1e-10))
        assert len(traj) < 2000
        assert traj.records[-1].fp_residual <= 1e-10
        assert all(r.fp_residual > 1e-10 for r in traj.records[:-1])

    def test_update_dist_matches_iterate_movement(self, blur16_tdt_problem):
        seen = []
        _, traj = red_fp(blur16_tdt_problem, SolverConfig(iterations=4),
                         observer=lambda k, im: seen.append(im.pixels))
        d = float(np.sum((seen[2] - seen[1]) ** 2)) / seen[1].size
        assert traj.records[2].update_dist == pytest.approx(d, rel=1e-12)

    def test_divergence_guard_raises_with_iteration(self, identity_denoiser):
        y = awgn(solver_scene(size=16, index=0), 2.0, seed=5)
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        with pytest.raises(DivergenceError) as err:
            red_sd(p, SolverConfig(iterations=100, sd_step=1e4),
                   x0=Image(y.pixels + 10.0))
        assert "iteration" in str(err.value)
        assert "bound" in str(err.value)
        assert err.value.norm > err.value.bound


class CountingDenoiser(Denoiser):
    """Wraps a denoiser and counts its applications."""

    def __init__(self, inner: Denoiser):
        self.inner = inner
        self.calls = 0

    def apply(self, x: Image) -> Image:
        self.calls += 1
        return self.inner.apply(x)


def identity_problem(identity_denoiser, scale: float = 1.0) -> RedProblem:
    y = awgn(solver_scene(size=16, index=0), 2.0, seed=5)
    return RedProblem(operator=IdentityOperator(), y=Image(scale * y.pixels),
                      noise_variance=2.0, weight=0.02, denoiser=identity_denoiser)


class TestPresets:
    """The seven names are presets of three kernels; each preset fixes the
    parameters its algorithm needs and ignores the config fields it must."""

    def test_fp_ignores_step_scale_and_is_pg_at_unit_step(self, blur16_tdt_problem):
        fp = iterates_of(red_fp, blur16_tdt_problem,
                         SolverConfig(iterations=10, step_scale=1.01))
        pg = iterates_of(red_pg, blur16_tdt_problem,
                         SolverConfig(iterations=10, step_scale=1.0))
        assert len(fp) == len(pg) == 10
        for a, b in zip(fp, pg):
            np.testing.assert_array_equal(a, b)

    def test_admm_i1_ignores_inner_iterations(self, blur16_tdt_problem):
        fused = iterates_of(red_admm_i1, blur16_tdt_problem,
                            SolverConfig(iterations=8, inner_iterations=20))
        full = iterates_of(red_admm, blur16_tdt_problem,
                           SolverConfig(iterations=8, inner_iterations=1))
        assert len(fused) == len(full) == 8
        for a, b in zip(fused, full):
            np.testing.assert_array_equal(a, b)

    def test_dpg_first_step_uses_l_initial_exactly(self, blur16_tdt_problem):
        """dpg_schedule(0, 0.45, 2) rounds away from 0.45, so this instance
        tells an exact L_0 from the schedule's approximation of it."""
        p = blur16_tdt_problem
        l0 = 0.45
        assert dpg_schedule(0, l0, 2.0) != l0
        first = iterates_of(red_dpg, p,
                            SolverConfig(iterations=1, l_initial=l0, l_final=2.0))
        x0 = default_initialization(p)
        fx0 = p.denoiser.apply(x0)
        v = Image((1.0 / l0) * fx0.pixels - ((1.0 - l0) / l0) * x0.pixels)
        loss = QuadraticLoss(p.operator, p.y, p.noise_variance)
        np.testing.assert_array_equal(first[0], loss.prox(v, p.weight * l0).pixels)

    @pytest.mark.parametrize("name, calls", [
        ("sd", 11), ("fp", 11), ("pg", 11), ("dpg", 11),
        ("apg", 21), ("admm_i1", 20), ("admm", 50),
    ])
    def test_denoiser_calls_for_ten_iterations(self, blur16_tdt_problem, name,
                                               calls):
        """One initial call plus one per step for sd and the unaccelerated
        proximal-gradient presets, two per step for apg, and I + 1 per step
        with no initial call for the splitting (I = 4 here)."""
        base = blur16_tdt_problem
        counter = CountingDenoiser(base.denoiser)
        p = RedProblem(operator=base.operator, y=base.y,
                       noise_variance=base.noise_variance, weight=base.weight,
                       denoiser=counter)
        SOLVERS[name](p, SolverConfig(iterations=10, inner_iterations=4))
        assert counter.calls == calls

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_logged_residual_and_cost_match_the_public_functions(
            self, blur16_tdt_problem, name, monkeypatch):
        """The log takes A x - y and A^T (A x - y) / sigma^2 from
        p.loss.data_terms and shares them between the residual and the cost;
        the numbers are bitwise those of the public functions fed the same
        terms.  The prox-based presets form the terms from the prox spectrum,
        within rtol 1e-9 (residual) and 1e-12 (cost) of a from-scratch
        evaluation; sd applies A and A^T, so its log is bitwise the
        from-scratch one."""
        p = blur16_tdt_problem
        applies = []

        def counted_apply(self, x, _apply=CircularConvolution.apply):
            applies.append(x)
            return _apply(self, x)

        monkeypatch.setattr(CircularConvolution, "apply", counted_apply)
        fed = []

        def observer(k, x):
            before = len(applies)
            r, d = p.loss.data_terms(x, p.loss.prox_spectrum(x))
            # Only sd, which never calls the prox, applies A for its terms.
            assert (len(applies) > before) == (name == "sd")
            g = fp_residual(p, x, data_gradient=d)
            fed.append((x, float(g @ g) / x.size, cost_red(p, x, data_residual=r)))

        _, traj = SOLVERS[name](p, SolverConfig(iterations=5, inner_iterations=2),
                                observer=observer)
        assert len(fed) == len(traj) == 5
        for (x, residual, cost), record in zip(fed, traj.records):
            assert record.fp_residual == residual
            assert record.cost_red == cost
            fresh = Image(x.pixels)
            g = fp_residual(p, fresh)
            if name == "sd":
                assert record.fp_residual == float(g @ g) / x.size
                assert record.cost_red == cost_red(p, fresh)
            else:
                assert record.fp_residual == pytest.approx(float(g @ g) / x.size,
                                                           rel=1e-9, abs=0)
                assert record.cost_red == pytest.approx(cost_red(p, fresh),
                                                        rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equal_images_give_equal_data_terms(self, seed):
        """At a red_pg endpoint, the last prox output, the data terms, the
        residual and the cost are bitwise those of an equal copy: they
        depend on the pixels, not on which object carries them."""
        truth = solver_scene(size=16, index=0)
        op = make_uniform_blur(3)
        p = RedProblem(operator=op, y=awgn(op.apply(truth), 2.0, seed=seed),
                       noise_variance=2.0, weight=0.02, denoiser=TdtDenoiser(0.5))
        x, _ = red_pg(p, SolverConfig(iterations=50))
        copy = Image(x.pixels)
        for got, want in zip(p.loss.data_terms(x), p.loss.data_terms(copy)):
            assert got.tobytes() == want.tobytes()
        assert fp_residual(p, x).tobytes() == fp_residual(p, copy).tobytes()
        assert cost_red(p, x) == cost_red(p, copy)

    def test_shared_data_residual_is_bitwise(self, blur16_tdt_problem):
        p = blur16_tdt_problem
        x = default_initialization(p)
        fx = p.denoiser.apply(x)
        r = p.operator.apply(x).pixels - p.y.pixels
        assert cost_red(p, x, fx, data_residual=r) == cost_red(p, x)
        loss = QuadraticLoss(p.operator, p.y, p.noise_variance)
        r2, d = loss.data_terms(x)
        np.testing.assert_array_equal(r2, r)
        np.testing.assert_array_equal(fp_residual(p, x, fx, data_gradient=d),
                                      fp_residual(p, x))

    def test_every_solver_uses_the_problems_one_loss(self, monkeypatch):
        """RedProblem builds one QuadraticLoss; the seven solvers prox and log
        through it and build none of their own."""
        built, used = [], []
        post_init, prox, data_terms = (QuadraticLoss.__post_init__,
                                       QuadraticLoss.prox, QuadraticLoss.data_terms)

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        def seen(method):
            def wrapper(self, *args):
                used.append(self)
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(QuadraticLoss, "__post_init__", counted_post_init)
        monkeypatch.setattr(QuadraticLoss, "prox", seen(prox))
        monkeypatch.setattr(QuadraticLoss, "data_terms", seen(data_terms))
        truth = solver_scene(size=16, index=0)
        op = make_uniform_blur(3)
        p = RedProblem(operator=op, y=awgn(op.apply(truth), 2.0, seed=3),
                       noise_variance=2.0, weight=0.02, denoiser=TdtDenoiser(1.0))
        assert built == [p.loss]
        for solve in SOLVERS.values():
            solve(p, SolverConfig(iterations=3, inner_iterations=2))
        assert built == [p.loss]
        assert used and all(loss is p.loss for loss in used)


# A second value of each SolverConfig field that only some methods read;
# every method reads the other three.
SECOND_VALUES = {"beta": 0.05, "step_scale": 1.5, "l_initial": 0.5, "l_final": 3.0,
                 "inner_iterations": 3, "sd_step": 0.3}
READ_BY_ALL = {"iterations", "stop_fp_residual", "record_timing"}


def test_every_solver_config_field_has_a_second_value():
    assert set(SECOND_VALUES) | READ_BY_ALL == {f.name for f in fields(SolverConfig)}
    assert {field for _, field, _ in _METHOD_KEYS} == set(SECOND_VALUES)


@pytest.mark.parametrize("method", SOLVERS)
def test_a_method_reads_exactly_the_fields_of_its_method_key_rows(blur16_tdt_problem,
                                                                   method):
    """cli._METHOD_KEYS lists the methods that read each field: changing a
    field of the method's rows changes its run, and changing any other field
    leaves the run bitwise as it was."""
    def run(**field):
        x, trajectory = SOLVERS[method](blur16_tdt_problem,
                                        SolverConfig(iterations=4, **field))
        return x.pixels.tobytes(), trajectory.csv_rows()

    reads = {field for _, field, methods in _METHOD_KEYS if method in methods}
    base = run()
    for field, value in SECOND_VALUES.items():
        assert (run(**{field: value}) != base) == (field in reads), field


class TestDivergenceGuard:
    def test_bright_valid_image_does_not_trip_the_guard(self, identity_denoiser):
        """A constant 1e5 image of 16x16 pixels has norm 1.6e6, above the
        former absolute bound of 1e6, yet every solver runs to completion."""
        y = Image(np.full((16, 16), 1e5))
        p = RedProblem(operator=IdentityOperator(), y=y, noise_variance=2.0,
                       weight=0.02, denoiser=identity_denoiser)
        for name, solver in SOLVERS.items():
            _, traj = solver(p, SolverConfig(iterations=3))
            assert len(traj) == 3, name

    @pytest.mark.parametrize("sd_step", [2.0, 1e3, 1e4, 1e5])
    def test_outcome_does_not_depend_on_intensity_scale(self, identity_denoiser,
                                                        sd_step):
        """With A = I and f = id the iteration is linear in (x0, y), so scaling
        both by the same factor must give the same raise or no-raise outcome,
        at the same iteration."""
        outcomes = set()
        for scale in (1e-3, 1.0, 1e3):
            p = identity_problem(identity_denoiser, scale)
            x0 = Image(p.y.pixels + 10.0 * scale)
            try:
                red_sd(p, SolverConfig(iterations=20, sd_step=sd_step), x0=x0)
                outcomes.add(None)
            except DivergenceError as err:
                outcomes.add(err.iteration)
        assert len(outcomes) == 1, outcomes
        if sd_step >= 1e4:
            assert outcomes != {None}

    def test_all_zero_start_and_data_guard_at_unit_scale(self):
        """With x0 = y = 0 there is no scale to compare against; the bound
        falls back to 1e4 and still stops a runaway iteration."""

        class Shift(Denoiser):
            def apply(self, x: Image) -> Image:
                return Image(x.pixels + 1.0)

        zero = Image(np.zeros((8, 8)))
        p = RedProblem(operator=IdentityOperator(), y=zero, noise_variance=2.0,
                       weight=0.02, denoiser=Shift())
        with pytest.raises(DivergenceError) as err:
            red_sd(p, SolverConfig(iterations=50, sd_step=1e4), x0=zero)
        assert err.value.bound == 1e4
