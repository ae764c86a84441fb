"""Experiment runner: commands, config handling, determinism, exit codes."""

import json
import tracemalloc

import numpy as np
import pytest

from waveassim import analysis, cli
from waveassim.cli import (
    PRESETS,
    ExperimentConfig,
    main,
    resolve_config,
    run_assimilation,
    setup_experiment,
)
from waveassim.exact import mode_time_factors, sample_observations
from waveassim.wave import BoundaryScheme, IntegrationDiverged, integrate

# Small, fast configuration shared by the command tests.
TINY = [
    "--N", "16",
    "--tau", str(1.0 / 64.0),
    "--n-steps", "640",
    "--T-window", "2.0",
    "--modes", "3:1:1",
    "--window-start", "64",
    "--window-end", "192",
    "--window-count", "3",
]


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
    return header, np.array(rows)


class TestConfigResolution:
    def test_presets_are_valid(self):
        for name in PRESETS:
            cfg = resolve_config(preset=name)
            assert cfg.name == name

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            resolve_config(preset="nope")

    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.N == 30 and cfg.order == 2

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 20, "eta": 2.0, "n_steps": 500, "T_window": 1.0,
                                    "window_start": 100, "window_end": 200}))
        cfg = resolve_config(config_path=path, overrides={"eta": 5.0})
        assert cfg.N == 20
        assert cfg.eta == 5.0  # flag wins over file

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"M": 20}))
        with pytest.raises(ValueError):
            resolve_config(config_path=path)

    def test_ic_switch_clears_modes(self):
        cfg = resolve_config(preset="single-mode-second", overrides={"ic": "polyexp"})
        assert cfg.modes is None and cfg.ic == "polyexp"

    def test_modes_switch_clears_ic(self):
        cfg = resolve_config(preset="rich-spectrum", overrides={"modes": ((2, 1, 1),)})
        assert cfg.ic is None and cfg.modes == ((2.0, 1.0, 1.0),)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(order=3)
        with pytest.raises(ValueError):
            ExperimentConfig(T_window=1e9)
        with pytest.raises(ValueError):
            ExperimentConfig(modes=None, ic=None)
        with pytest.raises(ValueError):
            ExperimentConfig(ic="unknown", modes=None)
        for k in (-1.0, 2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                ExperimentConfig(modes=((k, 1.0, 1.0),))


class TestForward:
    def test_writes_error_series(self, tmp_path):
        rc = main(["forward", "--out", str(tmp_path)] + TINY)
        assert rc == 0
        header, xi = read_csv(tmp_path / "xi.csv")
        assert header == ["t", "xi"]
        assert xi.shape == (641, 2)
        assert xi[0, 1] < 1e-20  # twin start
        header, xt = read_csv(tmp_path / "error_xt.csv")
        assert header == ["t", "x", "du"]
        assert {round(v, 12) for v in xt[:17, 1]} == {round(i / 16, 12) for i in range(17)}

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["forward", "--out", str(out)] + TINY) == 0
        assert (a / "xi.csv").read_bytes() == (b / "xi.csv").read_bytes()
        assert (a / "error_xt.csv").read_bytes() == (b / "error_xt.csv").read_bytes()

    @pytest.mark.parametrize("n_steps", [1100, 300, 200])
    def test_sampled_errors_match_full_arrays(self, tmp_path, n_steps):
        # The 13 polyexp modes on N = 13: 1100 steps span five chunks of
        # xi_series, 300 span two and 200 stay inside one.  The exact fields written out at
        # every level at once must give the same bits as the chunked series
        # and the strided error_xt.csv samples.
        overrides = {"ic": "polyexp", "N": 13, "n_steps": n_steps, "T_window": 1.0}
        argv = ["forward", "--out", str(tmp_path), "--ic", "polyexp", "--N", "13",
                "--n-steps", str(n_steps), "--T-window", "1.0", "--xt-stride", "7"]
        assert main(argv) == 0
        exp = setup_experiment(resolve_config(overrides=overrides))
        grid = exp.grid
        assert len(exp.modes) == 13
        U, P = np.zeros((n_steps + 1, 14)), np.zeros((n_steps + 1, 13))
        for mode in exp.modes:
            f, g = mode_time_factors(mode, grid.times)
            U += np.outer(f, np.sin(mode.k * np.pi * grid.x_nodes))
            P += np.outer(g, np.cos(mode.k * np.pi * grid.x_half))
        U[:, 0] = U[:, -1] = 0.0
        traj = integrate(exp.ic, exp.stencil, BoundaryScheme.classical(1), grid)
        du, dp = traj.u - U, traj.p - P
        xi = np.square(du).sum(axis=1) + np.square(dp).sum(axis=1)
        assert np.array_equal(analysis.xi_series(traj, exp.modes)[1], xi)
        assert np.array_equal(read_csv(tmp_path / "xi.csv")[1][:, 1], xi)
        assert np.array_equal(read_csv(tmp_path / "error_xt.csv")[1][:, 2], du[::7].ravel())


class TestMemory:
    @pytest.mark.parametrize("command", ["forward", "assimilate"])
    def test_peak_holds_one_horizon_trajectory(self, tmp_path, command):
        # Only the trajectory is stored at horizon length: the observations
        # cover the window, and the error series samples the exact fields a
        # chunk at a time.  Three horizon-sized arrays used to peak at 3.1x.
        cfg = resolve_config(preset="single-mode-second")
        trajectory_bytes = (cfg.n_steps + 1) * (2 * cfg.N + 1) * 8
        tracemalloc.start()
        try:
            assert cli._COMMANDS[command](cfg, tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * trajectory_bytes


class TestWriteCsv:
    def test_each_value_is_its_float_repr(self, tmp_path):
        # Shortest round-trip repr of every value, integers written as
        # floats (window_steps in alphas.csv), numpy floats as Python ones.
        specials = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, float("nan"), float("inf"), -np.inf]
        ints = list(range(len(specials)))
        npfloats = np.linspace(-1.0, 1.0, len(specials)) / 3.0
        path = tmp_path / "out.csv"
        cli._write_csv(path, "a,b,c", specials, ints, npfloats)
        expected = "a,b,c\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in zip(specials, ints, npfloats)
        )
        assert path.read_bytes() == expected.encode()
        _, back = read_csv(path)
        assert np.array_equal(back[:, 2], npfloats)

    def test_zero_rows_write_the_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli._write_csv(path, "k,tau_over_h", [], [])
        assert path.read_bytes() == b"k,tau_over_h\n"


class TestAssimilate:
    def test_result_payload(self, tmp_path):
        rc = main(["assimilate", "--out", str(tmp_path)] + TINY)
        assert rc == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["termination"] in ("gradient", "max_iters", "line_search_failed")
        assert payload["cost_history"][-1] < payload["cost_history"][0]
        assert all(np.diff(payload["cost_history"]) <= 0.0)
        # both recovered and predicted coefficients are reported
        assert "3" in payload["predicted"]
        assert len(payload["recovered"]["alpha_u"]) == 2
        assert payload["predicted"]["3"]["c_u"] > 1.0
        header, xi = read_csv(tmp_path / "xi.csv")
        assert xi.shape[0] == 641

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["assimilate", "--out", str(out)] + TINY) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
        assert (a / "xi.csv").read_bytes() == (b / "xi.csv").read_bytes()


class TestSweep:
    def test_alphas_and_kernel_line(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path)] + TINY)
        assert rc == 0
        header, rows = read_csv(tmp_path / "alphas.csv")
        assert header[:3] == ["window_steps", "T_window", "cost"]
        assert rows.shape == (3, 3 + 8)
        assert set(rows[:, 0]) == {64.0, 128.0, 192.0}
        payload = json.loads((tmp_path / "kernel_line.json").read_text())
        assert payload["n_windows"] == 3
        assert "slope" in payload["kernel_line"]


class TestGradcheck:
    def test_healthy_configuration_passes(self, tmp_path, capsys):
        rc = main(["gradcheck", "--out", str(tmp_path)] + TINY)
        out = capsys.readouterr().out
        assert rc == 0
        assert "dot-product test" in out
        assert "worst relative error" in out
        assert "ok" in out.splitlines()[-1]

    def test_reports_all_components(self, tmp_path, capsys):
        rc = main(["gradcheck", "--out", str(tmp_path), "--J", "2"] + TINY)
        out = capsys.readouterr().out
        assert rc == 0
        assert sum(1 for line in out.splitlines() if line.strip().startswith(tuple("0123456789"))) >= 12
        # The same table, read back from gradcheck.json.
        record = json.loads((tmp_path / "gradcheck.json").read_text())
        assert len(record["dot_residuals"]) == 5
        assert max(record["dot_residuals"]) <= 1e-12
        for key in ("adjoint", "finite_difference", "relative_error"):
            assert len(record[key]) == 12
        assert record["worst"] == max(record["dot_residuals"] + record["relative_error"])
        assert record["worst"] <= record["tolerance"] == 1e-5
        assert f"worst relative error: {record['worst']:.3e}" in out


class TestDispersion:
    def test_tables_and_markers(self, tmp_path):
        rc = main(["dispersion", "--out", str(tmp_path), "--preset", "single-mode-second"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "beta.csv")
        assert header == ["k", "tau_over_h", "beta2_minus_1", "beta4_minus_1"]
        half = rows[np.isclose(rows[:, 1], 0.5)]
        assert half.shape[0] == 1
        assert abs(half[0, 2]) == 0.0  # beta2 - 1 exactly zero at tau = h/2
        ref = rows[np.isclose(rows[:, 1], 0.25)]
        assert ref[0, 2] == pytest.approx(3.09e-3, abs=1e-5)
        markers = json.loads((tmp_path / "markers.json").read_text())
        assert markers["singularity_kappa_over_pi"] == pytest.approx(14.026, abs=0.01)
        assert markers["modes"]["3"]["c_u"] == pytest.approx(1.048, abs=1e-3)

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["dispersion", "--out", str(out), "--preset", "two-modes"]) == 0
        assert (a / "beta.csv").read_bytes() == (b / "beta.csv").read_bytes()
        assert (a / "markers.json").read_bytes() == (b / "markers.json").read_bytes()


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["forward", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_contract_violation(self, tmp_path):
        assert main(["forward", "--out", str(tmp_path), "--order", "3"] + TINY[:-2]) == 1

    def test_bad_modes_syntax(self, tmp_path):
        assert main(["forward", "--out", str(tmp_path), "--modes", "3:1"]) == 1

    def test_fractional_mode_number_rejected(self, tmp_path, capsys):
        # k = 2.5 has no sine mode; it must not be truncated to k = 2.
        argv = ["forward", "--out", str(tmp_path), "--modes", "2.5:1:1",
                "--n-steps", "100", "--T-window", "0.5"]
        assert main(argv) == 1
        assert "mode number" in capsys.readouterr().err
        assert not (tmp_path / "xi.csv").exists()

    def test_unstable_run_fails_with_message(self, tmp_path, capsys):
        # tau/h = 0.9 is unstable for the fourth-order interior: the classical
        # start already diverges at step 19, inside the 100-step window, so
        # there is no fit to keep and no result.json.
        argv = ["assimilate", "--out", str(tmp_path), "--preset", "single-mode-fourth",
                "--tau", "0.03", "--n-steps", "400", "--T-window", "3"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: integration diverged at step 19")
        assert not (tmp_path / "result.json").exists()

    def test_post_run_divergence_keeps_the_fit(self, tmp_path, capsys, monkeypatch):
        # The fit itself is real; only the horizon run of the recovered
        # scheme is made to diverge.  result.json must still hold the fit.
        def diverging(*args, **kwargs):
            raise IntegrationDiverged(123, 123 / 64.0, 2.5e6)

        monkeypatch.setattr(cli, "integrate", diverging)
        assert main(["assimilate", "--out", str(tmp_path)] + TINY) == 1
        assert capsys.readouterr().err.startswith("error: integration diverged at step 123")
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["post_run_diverged"] == {
            "step": 123, "time": 123 / 64.0, "amplitude": 2.5e6,
        }
        assert set(payload) == {
            "config", "start", "recovered", "group_sums", "predicted", "cost_history",
            "grad_norm_history", "n_evaluations", "n_iterations", "termination",
            "post_run_diverged",
        }
        assert payload["cost_history"][-1] < payload["cost_history"][0]
        assert not (tmp_path / "xi.csv").exists()

    @pytest.mark.parametrize("stride", [0, -90])
    def test_xt_stride_below_one_rejected(self, tmp_path, capsys, stride):
        # A negative stride used to write error_xt.csv in reverse time, and
        # 0 fell back to the default stride.
        with pytest.raises(ValueError, match="xt_stride"):
            ExperimentConfig(xt_stride=stride)
        argv = ["forward", "--out", str(tmp_path), f"--xt-stride={stride}"] + TINY
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: xt_stride must be >= 1")
        assert not (tmp_path / "error_xt.csv").exists()

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("forward", {"N": 30.5}),
            ("forward", {"n_steps": "200"}),
            ("forward", {"J": 1.5}),
            ("forward", {"tau": "0.01"}),
            ("forward", {"xt_stride": 2.5}),
            ("forward", {"N": True}),
            ("forward", {"eta": False}),
            ("forward", {"name": 5}),
            ("forward", {"modes": [3, 1, 1]}),
            ("forward", {"modes": [[3, None, 1]]}),
            ("sweep", {"window_count": 2.5, "window_start": 60, "window_end": 120}),
        ],
    )
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, command, fields):
        # A mistyped value is a usage error, wherever it would first be used.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_steps": 200, "T_window": 0.5, **fields}))
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        name = next(iter(fields))
        assert err.startswith(f"error: config field {name} must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "xi.csv").exists()

    def test_config_number_types(self):
        # An int is a valid float; numpy scalars are accepted as well.
        cfg = ExperimentConfig(tau=np.float64(0.01), T_window=1, N=np.int64(20), n_steps=200)
        assert cfg.T_window == 1 and cfg.N == 20
        with pytest.raises(ValueError, match="config field order must be int"):
            ExperimentConfig(order=2.0)

    def test_window_filling_the_horizon_rejected(self, tmp_path, capsys):
        # No level after the 720-step window is left to report on.  This
        # used to run the whole fit, write xi.csv, and then fail in the
        # post-window plateau without writing result.json.
        argv = ["assimilate", "--out", str(tmp_path), "--preset", "single-mode-second",
                "--n-steps", "720"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: n_steps must exceed the 720-step window to leave a horizon\n"
        )
        assert not (tmp_path / "result.json").exists()
        assert not (tmp_path / "xi.csv").exists()

    def test_diverged_start_fails_sweep(self, tmp_path, capsys):
        # The classical start diverges inside every window: no fit exists,
        # so no alphas.csv with penalty costs and start coefficients.
        argv = ["sweep", "--out", str(tmp_path), "--preset", "single-mode-fourth",
                "--tau", "0.03", "--n-steps", "400", "--window-start", "50",
                "--window-end", "100", "--window-count", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: integration diverged at step 19")
        assert not (tmp_path / "alphas.csv").exists()


class TestExperimentHelpers:
    def test_setup_experiment_twin_start(self):
        cfg = resolve_config(overrides={"n_steps": 50, "T_window": 0.25})
        exp = setup_experiment(cfg)
        np.testing.assert_array_equal(exp.ic, sample_observations(exp.modes, exp.grid)[0])

    def test_observations_sampled_only_for_the_fitted_window(self, tmp_path, monkeypatch):
        # setup_experiment, and so forward, samples level 0 alone; a fit
        # samples exactly the levels of its window, once.
        sampled = []

        def recording(modes, grid):
            sampled.append(grid.n_steps)
            return sample_observations(modes, grid)

        monkeypatch.setattr(cli, "sample_observations", recording)
        cfg = resolve_config(overrides={"N": 16, "tau": 1.0 / 64.0, "n_steps": 320,
                                        "T_window": 2.0})
        exp = setup_experiment(cfg)
        assert cli.cmd_forward(cfg, tmp_path) == 0
        assert sampled == []
        run_assimilation(exp, T_window=1.0)
        assert sampled == [64]

    def test_rich_spectrum_modes(self):
        cfg = resolve_config(preset="rich-spectrum", overrides={"n_steps": 2400})
        exp = setup_experiment(cfg)
        ks = [m.k for m in exp.modes]
        assert ks[0] == 0 and ks[-1] == 29
        assert exp.modes[0].b == pytest.approx(0.5, abs=1e-12)

    def test_run_assimilation_improves_cost(self):
        cfg = resolve_config(overrides={"N": 16, "tau": 1.0 / 64.0, "n_steps": 320,
                                        "T_window": 2.0})
        exp = setup_experiment(cfg)
        result, bs = run_assimilation(exp)
        assert result.f < result.cost_history[0]
        assert bs.J == 1
