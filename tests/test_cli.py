"""End-to-end CLI behavior: configs, outputs, determinism, exit codes."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from redlab import (
    IdentityOperator,
    Image,
    LinearSymmetricDenoiser,
    MedianFilterDenoiser,
    NonConvergenceError,
    RedProblem,
    TdtDenoiser,
    awgn,
    make_uniform_blur,
    operator_matrix,
    save_pgm,
    solver_scene,
    synthetic_scene,
)
from redlab.cli import _DENOISER_KINDS, _deblur_oracle, main

REPO = Path(__file__).resolve().parents[1]
# SHA-256 of every output file of the benchmark configs at the reference
# seed, with the numpy version they were recorded with.
BENCH_DIGESTS = Path(__file__).resolve().parent / "bench_digests.json"


@pytest.fixture(autouse=True)
def isolated_output_env(monkeypatch):
    monkeypatch.delenv("REDLAB_OUT", raising=False)


def write_config(directory, text, name="exp.ini"):
    path = directory / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def denoised_images(monkeypatch):
    """Images denoised by tdt and median, counted as apply calls plus
    apply_stack rows in this process, so the test runs its cells here."""
    monkeypatch.setenv("REDLAB_WORKERS", "1")
    calls = dict.fromkeys(["TdtDenoiser", "MedianFilterDenoiser"], 0)
    for cls in (TdtDenoiser, MedianFilterDenoiser):
        def counted(self, x, _apply=cls.apply, _name=cls.__name__):
            calls[_name] += 1
            return _apply(self, x)

        def counted_stack(self, xs, _apply=cls.apply_stack, _name=cls.__name__):
            calls[_name] += len(xs)
            return _apply(self, xs)

        monkeypatch.setattr(cls, "apply", counted)
        monkeypatch.setattr(cls, "apply_stack", counted_stack)
    return calls


class TestListAndValidate:
    def test_list_experiments_prints_the_registry(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in ["jacobian-report", "gradient-report", "lh-report",
                     "trajectory", "cost-slice", "deblur", "tweedie-check",
                     "equilibrium-check"]:
            assert name in out

    def test_validate_accepts_a_good_config_without_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = trajectory
            seed = 1
            output = {out_dir}

            [problem]
            size = 16
            blur = 3

            [solver]
            method = fp
            iterations = 10
        """)
        assert main(["validate", config]) == 0
        assert "config ok: experiment 'trajectory'" in capsys.readouterr().out
        assert not out_dir.exists()

    def test_unknown_experiment_lists_the_registry(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
            [experiment]
            name = warp-drive
            seed = 1
        """)
        assert main(["validate", config]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        assert "tweedie-check" in err

    def test_missing_seed_is_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
            [experiment]
            name = tweedie-check
        """)
        assert main(["validate", config]) == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
            [experiment]
            name = tweedie-check
            seed = 1

            [solver]
            steps = 5
        """)
        assert main(["validate", config]) == 2

    def test_unknown_section_is_rejected(self, tmp_path):
        config = write_config(tmp_path, """\
            [experiment]
            name = tweedie-check
            seed = 1

            [extras]
            x = 1
        """)
        assert main(["validate", config]) == 2

    def test_default_section_is_rejected(self, tmp_path):
        config = write_config(tmp_path, """\
            [DEFAULT]
            seed = 1

            [experiment]
            name = tweedie-check
            seed = 1
        """)
        assert main(["validate", config]) == 2

    def test_malformed_syntax_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, """\
            [experiment
            name = tweedie-check
        """)
        assert main(["validate", config]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.ini")]) == 2

    def test_both_patch_sources_rejected(self, tmp_path):
        config = write_config(tmp_path, """\
            [experiment]
            name = jacobian-report
            seed = 1
            patches = 2
            images = a.pgm
        """)
        assert main(["validate", config]) == 2


def readme_config_block():
    """The README's annotated config, the first ```ini block."""
    text = (REPO / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", text, re.S).group(1)


def readme_denoiser_keys():
    """{key: (value, comment above it)} for the README's [denoiser] section;
    a key may itself be commented out."""
    keys, section, note = {}, None, ""
    for line in readme_config_block().splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        key = re.fullmatch(r"(?:# )?(\w+) = (.*)", line)
        if header:
            section = header.group(1)
        elif key and section == "denoiser":
            keys[key.group(1)] = (key.group(2), note)
        elif line.startswith("#"):
            note = line
    return keys


class TestReadmeConfig:
    def test_block_validates(self, tmp_path, capsys):
        config = write_config(tmp_path, readme_config_block())
        assert main(["validate", config]) == 0
        assert capsys.readouterr() == ("config ok: experiment 'trajectory'\n", "")

    def test_denoiser_keys_match_the_kinds_table(self):
        documented = readme_denoiser_keys()
        kind_line = documented.pop("kind")[1]
        assert kind_line == "# " + " | ".join(_DENOISER_KINDS)
        declared = {key.name: key for keys, _ in _DENOISER_KINDS.values()
                    for key in keys}
        assert set(documented) == set(declared)
        defaults = 0
        for name, (_, note) in documented.items():
            default = re.search(r"\(default (\S+)\)", note)
            if default:
                key = declared[name]
                assert key.default == key.type(default.group(1)), name
                defaults += 1
        assert defaults == 8

    def test_each_kind_accepts_its_documented_values(self, tmp_path, capsys):
        documented = readme_denoiser_keys()
        for kind, (keys, _) in _DENOISER_KINDS.items():
            lines = "".join(f"{key.name} = {documented[key.name][0]}\n" for key in keys)
            config = write_config(
                tmp_path,
                f"[experiment]\nname = trajectory\nseed = 1\n"
                f"[denoiser]\nkind = {kind}\n{lines}",
            )
            assert main(["validate", config]) == 0, kind
        assert capsys.readouterr().err == ""


def test_traced_run_finds_every_name_it_wraps(tmp_path):
    """bench/traced.py replaces functions where the CLI looks them up; a name
    it expects on `redlab.cli` (or elsewhere) must still be there."""
    config = write_config(tmp_path, f"""\
        [experiment]
        name = trajectory
        seed = 1
        output = {tmp_path / "out"}

        [problem]
        size = 16

        [solver]
        iterations = 5
    """)
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(REPO / "bench" / "traced.py"), str(REPO / "src"),
         config, str(spans)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert spans.stat().st_size > 0


@pytest.fixture
def bench_modules(monkeypatch):
    """bench/run.py and bench/check.py, imported as the benchmark does."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import check
    import run
    return run, check


@pytest.mark.parametrize("workload", ["deblur", "trajectory", "probes"])
def test_benchmark_workload_matches_its_reference(tmp_path, monkeypatch,
                                                  bench_modules, workload):
    """Each benchmark workload at the reference seed reproduces the recorded
    reference cells, and probes keeps the paper's gradient findings, so a
    change that breaks the reference fails here before the benchmark runs.
    The same run's output files must also match the SHA-256 digests in
    BENCH_DIGESTS byte for byte; those were recorded with one numpy
    version, and on another the digest check skips."""
    run, check = bench_modules
    experiment, template = run.WORKLOADS[workload]
    config = write_config(tmp_path, template.format(seed=run.REFERENCE_SEED))
    out_dir = tmp_path / "out"
    monkeypatch.setenv("REDLAB_OUT", str(out_dir))
    assert main(["run", config]) == 0
    refs = check.reference_files(workload)
    assert refs
    assert check.check_outputs(out_dir, experiment, refs, cells=True) == []
    if workload == "probes":
        assert check.check_probe_properties(out_dir) == []
    pinned = json.loads(BENCH_DIGESTS.read_text())
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"output digests were recorded with numpy {pinned['numpy']}; "
                    f"this is numpy {np.__version__}")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out_dir.iterdir())}
    assert digests == pinned["workloads"][workload]


@pytest.mark.parametrize("workload", ["deblur", "trajectory", "probes"])
def test_benchmark_outputs_do_not_depend_on_the_worker_count(
        tmp_path, monkeypatch, capsys, bench_modules, workload):
    """Forked workers (two CPUs) and one process give the same bytes.  The
    trajectory workload is one task, whose log a forked logger computes."""
    run, _ = bench_modules
    config = write_config(tmp_path, run.WORKLOADS[workload][1].format(
        seed=run.REFERENCE_SEED))
    monkeypatch.setattr("redlab.workers._usable_cpus", lambda: 2)
    outcomes = []
    for workers in ("2", "1"):
        out_dir = tmp_path / f"out{workers}"
        monkeypatch.setenv("REDLAB_WORKERS", workers)
        monkeypatch.setenv("REDLAB_OUT", str(out_dir))
        code = main(["run", config])
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        outcomes.append((code, out.replace(str(out_dir), "<out>"), err, files))
    assert outcomes[0] == outcomes[1]


class TestJacobianReport:
    def run_report(self, tmp_path, out_name):
        out_dir = tmp_path / out_name
        config = write_config(tmp_path, f"""\
            [experiment]
            name = jacobian-report
            seed = 7
            patches = 2
            denoisers = tdt, median
            output = {out_dir}
        """, name=f"{out_name}.ini")
        assert main(["run", config]) == 0
        return out_dir

    def test_outputs_and_example_bounds(self, tmp_path, capsys):
        """The wavelet denoiser is numerically symmetric; the median filter
        is far from it."""
        out_dir = self.run_report(tmp_path, "ja")
        out = capsys.readouterr().out
        assert "wrote" in out
        rows_tdt = read_csv(out_dir / "jacobian-report_tdt.csv")
        rows_med = read_csv(out_dir / "jacobian-report_median.csv")
        header = ["image", "denoiser", "e_J", "e_grad_romano", "e_grad_lh",
                  "e_grad_true", "e_LH1", "e_LH2"]
        assert rows_tdt[0] == header
        assert len(rows_tdt) == 3
        assert rows_tdt[1][0] == "patch00"
        assert rows_tdt[1][1] == "tdt"
        for row in rows_tdt[1:]:
            assert float(row[2]) <= 1e-9
            assert row[3] == ""  # metrics outside this report stay empty
        for row in rows_med[1:]:
            assert float(row[2]) >= 0.5
        assert (out_dir / "jacobian-report_summary.txt").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a = self.run_report(tmp_path, "first")
        b = self.run_report(tmp_path, "second")
        for name in ["jacobian-report_tdt.csv", "jacobian-report_median.csv",
                     "jacobian-report_summary.txt"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_degenerate_denoiser_fails_before_any_second_patch(
            self, tmp_path, capsys, denoised_images):
        """gmm's Jacobian at 8x8 is identically zero, so the report exits 2;
        the other denoisers have then spent one Jacobian (2 N images) each,
        on patch 0, and none on patch 1."""
        out_dir = tmp_path / "degenerate"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = jacobian-report
            seed = 7
            patches = 2
            patch_size = 8
            denoisers = tdt, median, gmm
            output = {out_dir}
        """)
        assert main(["run", config]) == 2
        assert "identically zero" in capsys.readouterr().err
        assert denoised_images == {"TdtDenoiser": 2 * 8 * 8,
                                   "MedianFilterDenoiser": 2 * 8 * 8}
        assert not out_dir.exists()

    def test_pgm_input_uses_the_file_stem(self, tmp_path):
        save_pgm(synthetic_scene(0, size=16), str(tmp_path / "camera.pgm"))
        out_dir = tmp_path / "img_out"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = jacobian-report
            seed = 3
            images = camera.pgm
            patch_size = 8
            denoisers = median
            output = {out_dir}
        """)
        assert main(["run", config]) == 0
        rows = read_csv(out_dir / "jacobian-report_median.csv")
        assert rows[1][0] == "camera"


class TestOtherReports:
    def test_gradient_report_fills_gradient_columns(self, tmp_path):
        out_dir = tmp_path / "grad"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = gradient-report
            seed = 5
            patches = 1
            denoisers = tdt
            output = {out_dir}
        """)
        assert main(["run", config]) == 0
        rows = read_csv(out_dir / "gradient-report_tdt.csv")
        row = rows[1]
        assert row[2] == ""  # e_J not part of this report
        assert float(row[3]) > 1e-3    # residual rule misses for tdt
        assert float(row[5]) <= 1e-8   # product rule tracks the probe
        assert row[6] == row[7] == ""

    @pytest.mark.parametrize("which, per_patch", [
        ("gradient-report", 2 * 8 * 8 + 1), ("lh-report", 2 * 8 * 8 + 2)])
    def test_reports_denoise_x_once_per_cell(self, tmp_path, denoised_images,
                                             which, per_patch):
        """J and grad rho share the 2 N probe images, and the metrics one
        f(x); lh-report adds f((1 + eps) x)."""
        config = write_config(tmp_path, f"""\
            [experiment]
            name = {which}
            seed = 5
            patches = 2
            patch_size = 8
            denoisers = tdt, median
            output = {tmp_path / "out"}
        """)
        assert main(["run", config]) == 0
        assert denoised_images == {"TdtDenoiser": 2 * per_patch,
                                   "MedianFilterDenoiser": 2 * per_patch}

    def test_lh_report_separates_median_from_tdt(self, tmp_path):
        out_dir = tmp_path / "lh"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = lh-report
            seed = 5
            patches = 1
            noise_variance = 625
            denoisers = tdt, median
            output = {out_dir}

            [tdt]
            threshold = 25
        """)
        assert main(["run", config]) == 0
        tdt = read_csv(out_dir / "lh-report_tdt.csv")[1]
        med = read_csv(out_dir / "lh-report_median.csv")[1]
        assert float(med[6]) == 0.0
        assert float(med[7]) <= 1e-12
        assert float(tdt[7]) >= 1e-4


def overflowing_sd_config(out_dir, step):
    """A 16x16 tdt trajectory whose first steepest-descent step of size
    `step` overflows the guard's norm."""
    return f"""\
        [experiment]
        name = trajectory
        seed = 0
        output = {out_dir}

        [problem]
        size = 16
        blur = 3

        [denoiser]
        kind = tdt
        threshold = 1

        [solver]
        method = sd
        iterations = 5
        sd_step = {step}
    """


class TestTrajectory:
    def test_csv_log_with_psnr(self, tmp_path):
        out_dir = tmp_path / "traj"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = trajectory
            seed = 2
            output = {out_dir}

            [problem]
            size = 16
            blur = 3

            [denoiser]
            kind = median

            [solver]
            method = sd
            iterations = 25
        """)
        assert main(["run", config]) == 0
        rows = read_csv(out_dir / "trajectory_median.csv")
        assert rows[0] == ["iter", "psnr_db", "cost_red", "fp_residual",
                           "update_dist", "time_s"]
        assert len(rows) == 26
        assert rows[1][0] == "1"
        assert float(rows[1][1]) > 0.0  # synthetic truth enables psnr
        assert float(rows[-1][3]) < float(rows[1][3])

    def test_divergent_run_exits_three_without_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "boom"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = trajectory
            seed = 2
            output = {out_dir}

            [problem]
            size = 16
            blur = 1

            [solver]
            method = sd
            iterations = 50
            sd_step = 100000
        """)
        assert main(["run", config]) == 3
        assert "error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("step", ["1e307", "1e308"])
    def test_overflowing_step_exits_three_without_outputs(self, tmp_path, capsys,
                                                          step):
        """The guard sees the step before it becomes an Image (1e308: the
        step itself overflows) or reaches the denoiser (1e307: the step is
        finite, its Haar transform overflows)."""
        out_dir = tmp_path / "boom"
        config = write_config(tmp_path, overflowing_sd_config(out_dir, step))
        assert main(["run", config]) == 3
        err = capsys.readouterr().err
        assert "error: iterate norm inf exceeded the divergence bound" in err
        assert err.endswith(" at iteration 1\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("step", ["1e306", "1e307", "1e308"])
    def test_overflowing_step_prints_only_the_error_line(self, tmp_path, step):
        """A fresh `redlab run` process: the overflow that the guard reports
        prints no numpy warning before the error line."""
        out_dir = tmp_path / "boom"
        config = write_config(tmp_path, overflowing_sd_config(out_dir, step))
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("PYTHONWARNINGS", None)
        result = subprocess.run(
            [sys.executable, "-m", "redlab.cli", "run", config],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 3
        assert re.fullmatch(r"error: iterate norm inf exceeded the divergence bound "
                            r"\S+ \(1e4 x max\(\|\|x0\|\|, \|\|y\|\|\)\) at iteration 1\n",
                            result.stderr), result.stderr
        assert result.stdout == ""
        assert not out_dir.exists()


class TestDeblur:
    def test_seven_solver_logs_with_oracle_gap(self, tmp_path):
        out_dir = tmp_path / "deb"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = deblur
            seed = 4
            output = {out_dir}

            [problem]
            size = 16
            blur = 3

            [solver]
            iterations = 40
        """)
        assert main(["run", config]) == 0
        solvers = ["sd", "admm", "admm_i1", "fp", "pg", "dpg", "apg"]
        for name in solvers:
            rows = read_csv(out_dir / f"deblur_linear_{name}.csv")
            assert rows[0] == ["iter", "psnr_db", "cost_red", "fp_residual",
                               "update_dist", "time_s", "oracle_gap"]
            assert len(rows) == 41
        fp_rows = read_csv(out_dir / "deblur_linear_fp.csv")
        assert float(fp_rows[-1][6]) < float(fp_rows[1][6])
        assert float(fp_rows[-1][6]) < 1e-6

    def test_l_apg_moves_only_the_apg_log(self, tmp_path):
        """[solver] l_apg sets L for apg alone; the other six logs stay
        byte-identical to the default run's."""
        logs = {}
        for label, extra in (("default", ""), ("l_apg", "l_apg = 1.1")):
            config = write_config(tmp_path, f"""\
                [experiment]
                name = deblur
                seed = 4
                output = {tmp_path / label}

                [problem]
                size = 16

                [solver]
                iterations = 20
                {extra}
            """, name=f"{label}.ini")
            assert main(["run", config]) == 0
            logs[label] = {
                name: (tmp_path / label / f"deblur_linear_{name}.csv").read_bytes()
                for name in ["sd", "admm", "admm_i1", "fp", "pg", "dpg", "apg"]
            }
        for name, data in logs["default"].items():
            assert (logs["l_apg"][name] == data) == (name != "apg"), name

    def test_identity_blur_run(self, tmp_path):
        """blur = 1 takes the identity operator through the Fourier oracle."""
        out_dir = tmp_path / "deb1"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = deblur
            seed = 4
            output = {out_dir}

            [problem]
            size = 16
            blur = 1

            [solver]
            iterations = 40
        """)
        assert main(["run", config]) == 0
        summary = (out_dir / "deblur_summary.txt").read_text()
        assert summary.startswith("deblur: 16x16, 1x1 uniform blur")
        fp_rows = read_csv(out_dir / "deblur_linear_fp.csv")
        assert len(fp_rows) == 41
        assert float(fp_rows[-1][6]) < 1e-6

    @pytest.mark.parametrize("blur", [3, 1])
    def test_fourier_oracle_matches_dense_normal_equations(self, blur):
        truth = solver_scene(size=16, index=0)
        op = make_uniform_blur(blur) if blur > 1 else IdentityOperator()
        den = LinearSymmetricDenoiser.local_average((16, 16))
        p = RedProblem(operator=op, y=awgn(op.apply(truth), 2.0, seed=5),
                       noise_variance=2.0, weight=0.02, denoiser=den)
        a = operator_matrix(op, (16, 16))
        lhs = a.T @ a / p.noise_variance + p.weight * (np.eye(256) - den.matrix)
        x_star = np.linalg.solve(lhs, a.T @ p.y.flat / p.noise_variance)
        gap = np.linalg.norm(_deblur_oracle(p) - x_star)
        assert gap <= 1e-12 * np.linalg.norm(x_star)

    def test_nonlinear_denoiser_is_rejected_at_plan_time(self, tmp_path, capsys):
        out_dir = tmp_path / "never"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = deblur
            seed = 4
            output = {out_dir}

            [denoiser]
            kind = tdt
        """)
        assert main(["run", config]) == 2
        assert "linear" in capsys.readouterr().err
        assert not out_dir.exists()


class TestTweedieCheck:
    def test_all_instances_within_tolerance(self, tmp_path):
        out_dir = tmp_path / "tw"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = tweedie-check
            seed = 6
            instances = 5
            output = {out_dir}
        """)
        assert main(["run", config]) == 0
        rows = read_csv(out_dir / "tweedie-check_gmm.csv")
        assert rows[0] == ["instance", "relative_error"]
        assert len(rows) == 6
        assert all(float(r[1]) <= 1e-6 for r in rows[1:])


class TestEquilibriumCheck:
    def test_reports_consensus_and_mirror_quantities(self, tmp_path):
        out_dir = tmp_path / "eq"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = equilibrium-check
            seed = 9
            denoising_variance = 100
            output = {out_dir}

            [problem]
            size = 16
            blur = 3

            [denoiser]
            kind = tdt
            threshold = 5.0

            [solver]
            iterations = 400
        """)
        assert main(["run", config]) == 0
        rows = read_csv(out_dir / "equilibrium-check_tdt.csv")
        values = {name: value for name, value in rows[1:]}
        assert set(values) == {"consensus_residual_f", "consensus_residual_g",
                               "denoising_mirror_gap",
                               "pnp_matches_denoiser_output"}
        assert values["pnp_matches_denoiser_output"] == "1"
        assert float(values["consensus_residual_g"]) <= 1e-8
        assert float(values["denoising_mirror_gap"]) <= 1e-8

    def test_non_convergence_exits_three_without_outputs(self, tmp_path, capsys,
                                                          monkeypatch):
        """A seed-0 16x16 median run converges, so the failure is injected."""
        def fail(f, y):
            raise NonConvergenceError(residual=1.0, maxiter=10)

        monkeypatch.setattr("redlab.cli.denoising_equilibria", fail)
        out_dir = tmp_path / "eq"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = equilibrium-check
            seed = 0
            output = {out_dir}

            [problem]
            size = 16

            [denoiser]
            kind = median

            [solver]
            iterations = 20
        """)
        assert main(["run", config]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: fixed-point residual 1.000e+00 after 10 iterations\n")
        assert not out_dir.exists()


class TestCostSlice:
    def test_grid_csv_around_a_fixed_point(self, tmp_path):
        out_dir = tmp_path / "slice"
        config = write_config(tmp_path, f"""\
            [experiment]
            name = cost-slice
            seed = 8
            output = {out_dir}

            [problem]
            size = 8
            blur = 1

            [denoiser]
            kind = tdt
            threshold = 1.0

            [solver]
            method = fp
            iterations = 60

            [slice]
            radius = 1.0
            points = 3
        """)
        assert main(["run", config]) == 0
        rows = read_csv(out_dir / "cost-slice_tdt.csv")
        assert rows[0] == ["alpha", "beta", "cost_red", "grad_e1", "grad_e2"]
        assert len(rows) == 10
        alphas = sorted({float(r[0]) for r in rows[1:]})
        betas = sorted({float(r[1]) for r in rows[1:]})
        assert alphas == [-1.0, 0.0, 1.0]
        assert betas == [-1.0, 0.0, 1.0]
        costs = [float(r[2]) for r in rows[1:]]
        assert all(np.isfinite(c) and c > 0.0 for c in costs)


class TestOutputRouting:
    def test_env_override_wins_over_config_output(self, tmp_path, monkeypatch):
        config_dir = tmp_path / "cfg_out"
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("REDLAB_OUT", str(env_dir))
        config = write_config(tmp_path, f"""\
            [experiment]
            name = tweedie-check
            seed = 1
            instances = 2
            output = {config_dir}
        """)
        assert main(["run", config]) == 0
        assert env_dir.is_dir()
        assert (env_dir / "tweedie-check_gmm.csv").exists()
        assert not config_dir.exists()

    def test_relative_output_resolves_against_the_working_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, """\
            [experiment]
            name = tweedie-check
            seed = 1
            instances = 2
            output = rel_results
        """)
        assert main(["run", config]) == 0
        assert (tmp_path / "rel_results" / "tweedie-check_summary.txt").exists()


# Invalid configs: (case id, experiment, lines after the [experiment] name,
# seed and output keys, exact stderr message).  "{dir}" is the resolved
# config directory.  Every case exits 2 at `run` and writes nothing.
INVALID_CONFIGS = [
    ("tdt-size", "trajectory", "[problem]\nsize = 12\n",
     "[problem] size: 'tdt' needs a power of two"),
    ("tdt-patch-size", "jacobian-report", "patch_size = 12\n",
     "[experiment] patch_size: 'tdt' needs a power of two"),
    ("patch-size-without-images", "jacobian-report", "patch_size = 20\n",
     "[experiment] patch_size: must be <= 16 without explicit images"),
    ("bad-label", "jacobian-report", "denoisers = Bad\n",
     "invalid denoiser label 'Bad'"),
    ("label-without-section", "jacobian-report", "denoisers = mine\n",
     "denoiser label 'mine' has no [mine] section and is not a known kind"),
    ("duplicate-labels", "gradient-report", "denoisers = tdt, median, tdt\n",
     "[experiment] denoisers: labels must be unique"),
    ("median-even-window", "lh-report", "denoisers = median\n[median]\nwindow = 4\n",
     "[median] window: must be odd, got 4"),
    ("even-blur", "trajectory", "[problem]\nblur = 4\n",
     "[problem] blur: width must be odd, got 4"),
    ("unknown-kind", "cost-slice", "[denoiser]\nkind = bm3d\n",
     "unknown denoiser kind 'bm3d'; valid kinds: tdt, median, nlm, linear, gmm, "
     "bernoulli"),
    ("section-without-kind", "jacobian-report", "denoisers = mine\n[mine]\n",
     "[mine] needs a 'kind' key (one of: tdt, median, nlm, linear, gmm, bernoulli)"),
    ("unknown-method", "trajectory", "[solver]\nmethod = foo\n",
     "[solver] method: unknown solver 'foo'; valid methods: sd, admm, admm_i1, fp, "
     "pg, dpg, apg"),
    ("deblur-tdt", "deblur", "[denoiser]\nkind = tdt\n",
     "deblur computes an exact oracle gap and therefore requires the linear "
     "denoiser; use the trajectory experiment for other kinds"),
    ("missing-problem-image", "equilibrium-check", "[problem]\nimage = missing.pgm\n",
     "[problem] image: file not found: {dir}/missing.pgm"),
    ("missing-report-image", "jacobian-report", "images = missing.pgm\n",
     "[experiment] images: file not found: {dir}/missing.pgm"),
    ("zero-iterations", "trajectory", "[solver]\niterations = 0\n",
     "[solver] iterations: must be >= 1, got 0"),
    ("negative-epsilon", "gradient-report", "epsilon = -1\n",
     "[experiment] epsilon: must be > 0, got -1.0"),
    ("unused-section", "tweedie-check", "[slice]\nradius = 1\n",
     "section [slice] is not used by experiment 'tweedie-check'"),
    ("tdt-on-12x12-pgm", "trajectory", "[problem]\nimage = small.pgm\n",
     "denoiser 'tdt' needs power-of-two image sides, got (12, 12)"),
    ("image-with-size", "trajectory",
     "[problem]\nimage = small.pgm\nsize = 16\n[denoiser]\nkind = median\n",
     "[problem] size: not allowed with image"),
    ("image-with-scene", "equilibrium-check",
     "[problem]\nimage = small.pgm\nscene = 0\n[denoiser]\nkind = median\n",
     "[problem] scene: not allowed with image"),
    ("nlm-nan-variance", "jacobian-report",
     "denoisers = nlm\n[nlm]\nkind = nlm\nnoise_variance = nan\n",
     "[nlm] noise_variance: must be finite, got nan"),
    ("nlm-inf-variance", "gradient-report",
     "denoisers = nlm\n[nlm]\nkind = nlm\nnoise_variance = inf\n",
     "[nlm] noise_variance: must be finite, got inf"),
    ("nlm-nan-bandwidth", "lh-report",
     "denoisers = nlm\n[nlm]\nkind = nlm\nbandwidth = nan\n",
     "[nlm] bandwidth: must be finite, got nan"),
    ("tdt-nan-threshold", "jacobian-report",
     "denoisers = tdt\n[tdt]\nkind = tdt\nthreshold = nan\n",
     "[tdt] threshold: must be finite, got nan"),
    ("nan-epsilon", "tweedie-check", "epsilon = nan\n",
     "[experiment] epsilon: must be finite, got nan"),
    ("minus-inf-epsilon", "gradient-report", "epsilon = -inf\n",
     "[experiment] epsilon: must be finite, got -inf"),
    ("first-error-wins", "trajectory",
     "[problem]\nsize = 12\nblur = 4\n[solver]\nmethod = foo\n",
     "[problem] blur: width must be odd, got 4"),
    # The tdt size rule runs after the experiment's own checks.
    ("deblur-tdt-before-size", "deblur", "[problem]\nsize = 12\n[denoiser]\nkind = tdt\n",
     "deblur computes an exact oracle gap and therefore requires the linear "
     "denoiser; use the trajectory experiment for other kinds"),
    ("slice-radius-before-size", "cost-slice",
     "[problem]\nsize = 12\n[slice]\nradius = -1\n",
     "[slice] radius: must be > 0, got -1.0"),
    ("method-before-size", "trajectory", "[problem]\nsize = 12\n[solver]\nmethod = foo\n",
     "[solver] method: unknown solver 'foo'; valid methods: sd, admm, admm_i1, fp, "
     "pg, dpg, apg"),
]
# Cases whose error needs the image itself, so `validate` accepts them.
RUN_TIME_ERRORS = {"tdt-on-12x12-pgm"}


class TestInvalidConfigs:
    @pytest.mark.parametrize(
        "case, experiment, body, message", INVALID_CONFIGS,
        ids=[case[0] for case in INVALID_CONFIGS],
    )
    def test_exit_code_message_and_no_outputs(self, tmp_path, capsys, case,
                                              experiment, body, message):
        save_pgm(Image(np.full((12, 12), 100.0)), str(tmp_path / "small.pgm"))
        config = write_config(
            tmp_path,
            f"[experiment]\nname = {experiment}\nseed = 1\n"
            f"output = {tmp_path / 'out'}\n{body}",
        )
        before = sorted(tmp_path.rglob("*"))
        error = "error: " + message.format(dir=tmp_path.resolve()) + "\n"
        if case in RUN_TIME_ERRORS:
            assert main(["validate", config]) == 0
            assert capsys.readouterr() == (f"config ok: experiment '{experiment}'\n", "")
        else:
            assert main(["validate", config]) == 2
            assert capsys.readouterr() == ("", error)
        assert main(["run", config]) == 2
        assert capsys.readouterr() == ("", error)
        assert sorted(tmp_path.rglob("*")) == before
