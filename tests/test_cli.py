"""Experiment runner: commands, config handling, determinism, exit codes."""

import gc
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from waveassim import adjoint, analysis, cli, objective, wave
from waveassim.cli import (
    PRESETS,
    ExperimentConfig,
    main,
    resolve_config,
    run_assimilation,
    setup_experiment,
)
from waveassim.exact import mode_time_factors, sample_observations
from waveassim.objective import CostReport
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


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def on_cpus(monkeypatch, count, call):
    """call() with the process allowed `count` CPUs; no worker outlives it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    try:
        return call()
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
            ExperimentConfig(modes=None, ic=None)
        with pytest.raises(ValueError):
            ExperimentConfig(ic="unknown", modes=None)
        for k in (-1.0, 2.5, float("inf"), float("nan"), 60.0, 120.0, 10**400):
            with pytest.raises(ValueError):
                ExperimentConfig(modes=((k, 1.0, 1.0),))
        with pytest.raises(ValueError, match="^config field modes"):
            ExperimentConfig(modes=3)
        for name in ("tau", "eta", "T_window"):
            for v in (math.nan, math.inf, -math.inf, 10**400):  # no float holds 10**400
                with pytest.raises(ValueError, match=f"^config field {name} must be finite"):
                    ExperimentConfig(**{name: v})


class TestFlags:
    @pytest.fixture
    def recorded(self, monkeypatch):
        # Every command records the config it is handed instead of running.
        configs = []

        def record(cfg, out_dir):
            configs.append(cfg)
            return 0

        for command in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, command, record)
        return configs

    @pytest.mark.parametrize("initial", ["modes", "ic"])
    def test_each_field_has_its_flag(self, tmp_path, recorded, initial):
        # One flag per ExperimentConfig field, each value unlike the default;
        # modes and ic exclude each other, so each run gives one of them.
        expected = dict(
            name="flags", N=20, tau=0.0125, n_steps=500, order=4, J=2, eta=0.5,
            T_window=1.5, modes=((2.0, 1.0, 0.5), (5.0, 0.25, 1.0)), ic=None,
            window_start=10, window_end=400, window_count=3, xt_stride=7,
        )
        assert list(expected) == [f.name for f in fields(ExperimentConfig)]
        argv = ["forward", "--out", str(tmp_path), "--name", "flags", "--N", "20",
                "--tau", "0.0125", "--n-steps", "500", "--order", "4", "--J", "2",
                "--eta", "0.5", "--T-window", "1.5", "--window-start", "10",
                "--window-end", "400", "--window-count", "3", "--xt-stride", "7"]
        if initial == "modes":
            argv += ["--modes", "2:1:0.5,5:0.25:1"]
        else:
            argv += ["--ic", "polyexp"]
            expected.update(modes=None, ic="polyexp")
        assert main(argv) == 0
        assert [asdict(cfg) for cfg in recorded] == [expected]

    def test_benchmark_command_lines(self, tmp_path, recorded):
        # The command lines that perfbench/workloads.py renders (--preset,
        # --n-steps, --J, --eta, --T-window, --modes) give the configs of
        # their specs.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        wanted = []
        for name in workloads.WORKLOADS:
            for call in workloads.calls(name, 1):
                assert main(workloads.argv(call) + ["--out", str(tmp_path)]) == 0
                wanted.append(resolve_config(call["preset"], None, call["overrides"]))
        assert recorded == wanted
        assert {cfg.J for cfg in recorded} == {1, 4} and {cfg.eta for cfg in recorded} == {0.0, 10.0}


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

    @pytest.mark.parametrize("n_steps", [1100, 300, 200, 512, 1037])
    def test_sampled_errors_match_full_arrays(self, tmp_path, n_steps):
        # The 13 polyexp modes on N = 13: 1100 steps span five chunks of
        # xi_series, 300 span two and 200 stay inside one.  The horizon run
        # steps in one chunk of 512 levels: 512 fill it exactly, 1037 hand
        # two full chunks on and end in a partial third.  The exact fields
        # written out at every level at once must give the same bits as the
        # chunked series and the strided error_xt.csv samples.
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
        # The whole error_xt.csv, t and x columns too, row by row.
        levels = du[::7]
        t_col = np.repeat(grid.times[::7], grid.N + 1)
        x_col = np.tile(grid.x_nodes, len(levels))
        rows = zip(t_col.tolist(), x_col.tolist(), levels.ravel().tolist())
        expected = "t,x,du\n" + "".join(f"{t!r},{x!r},{d!r}\n" for t, x, d in rows)
        assert (tmp_path / "error_xt.csv").read_bytes() == expected.encode()


class TestMemory:
    @pytest.mark.parametrize("command", ["forward", "assimilate"])
    def test_peak_holds_no_horizon_trajectory(self, tmp_path, command):
        # The horizon run is stepped, checked and reduced a chunk at a time,
        # the observations cover the window, and the CSV writer converts a
        # block of rows at a time.  Storing the trajectory peaked at 1.19x.
        cfg = resolve_config(preset="single-mode-second")
        trajectory_bytes = (cfg.n_steps + 1) * (2 * cfg.N + 1) * 8
        tracemalloc.start()
        try:
            assert cli._COMMANDS[command](cfg, tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * trajectory_bytes

    def test_a_call_leaves_no_reference_cycles(self, tmp_path):
        # main builds its parser once.  A parser per call left about 600
        # objects in cycles (argparse makes a help formatter per argument),
        # and ten in-process calls grew by about 0.8 MB until a full
        # collection freed them.
        argv = ["forward", "--out", str(tmp_path)] + TINY
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWriteCsv:
    @staticmethod
    def write(monkeypatch, path, header, *columns) -> bytes:
        """The bytes _write_csv writes at 1, 2 and 3 CPUs, which must agree."""
        written = []
        for cpus in (1, 2, 3):
            on_cpus(monkeypatch, cpus, lambda: cli._write_csv(path, header, *columns))
            written.append(path.read_bytes())
        assert written[1:] == written[:-1]
        return written[0]

    def test_each_value_is_its_float_repr(self, tmp_path, monkeypatch):
        # Shortest round-trip repr of every value, integers written as
        # floats (window_steps in alphas.csv), numpy floats as Python ones.
        specials = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, float("nan"), float("inf"), -np.inf]
        ints = list(range(len(specials)))
        npfloats = np.linspace(-1.0, 1.0, len(specials)) / 3.0
        path = tmp_path / "out.csv"
        expected = "a,b,c\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in zip(specials, ints, npfloats)
        )
        assert self.write(monkeypatch, path, "a,b,c", specials, ints, npfloats) == expected.encode()
        _, back = read_csv(path)
        assert np.array_equal(back[:, 2], npfloats)

    @pytest.mark.parametrize("levels", [1, cli.CSV_BLOCK_ROWS // 31, 300])
    def test_broadcast_columns_are_their_expansion(self, tmp_path, monkeypatch, levels):
        # (levels, 1), (nodes,) and (levels, nodes) columns write the rows of
        # their np.broadcast_arrays, nodes within levels: part of a block, one
        # full block of levels, and blocks that end in a partial one.
        rng = np.random.default_rng(levels)
        t, x = rng.standard_normal((levels, 1)), rng.standard_normal(31)
        e = rng.standard_normal((levels, 31))
        e[0, :3] = [-0.0, np.nan, -np.inf]
        cols = [c.ravel().tolist() for c in np.broadcast_arrays(t, x, e)]
        expected = "t,x,e\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(*cols))
        assert self.write(monkeypatch, tmp_path / "out.csv", "t,x,e", t, x, e) == expected.encode()

    def test_blocks_join_to_the_whole(self, tmp_path, monkeypatch):
        # Two full blocks and a partial one, from an array and a list.
        n = 2 * cli.CSV_BLOCK_ROWS + 5
        a = np.random.default_rng(0).standard_normal(n) * np.logspace(-300, 300, n)
        b = list(range(n))
        expected = "a,b\n" + "".join(f"{x!r},{float(y)!r}\n" for x, y in zip(a.tolist(), b))
        assert self.write(monkeypatch, tmp_path / "blocks.csv", "a,b", a, b) == expected.encode()

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_a_worker_per_share_past_the_first(self, tmp_path, monkeypatch, cpus):
        # Seven blocks, the last partial, dealt round-robin to 2, 3 and 4
        # slots: the blocks join to the rows of one CPU, and this process
        # forks one worker per slot past the first.
        n = 6 * cli.CSV_BLOCK_ROWS + 7
        a = np.random.default_rng(cpus).standard_normal(n)
        expected = "a\n" + "".join(f"{x!r}\n" for x in a.tolist())
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        path = tmp_path / "shares.csv"
        on_cpus(monkeypatch, cpus, lambda: cli._write_csv(path, "a", a))
        assert path.read_bytes() == expected.encode()
        assert len(forks) == cpus - 1

    def test_one_block_forks_nothing(self, tmp_path, monkeypatch):
        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refused)
        a = np.arange(cli.CSV_BLOCK_ROWS, dtype=float)
        path = tmp_path / "one.csv"
        on_cpus(monkeypatch, 3, lambda: cli._write_csv(path, "a", a))
        assert path.read_bytes() == ("a\n" + "".join(f"{x!r}\n" for x in a.tolist())).encode()

    @pytest.mark.parametrize(
        "failing, first",
        [({3}, 3),  # this process's second block
         ({3, 5}, 3),  # this process fails before the second worker does
         ({5}, 5),  # the last worker's second block
         ({1, 4}, 1)],  # the first worker's first block
    )
    def test_first_failing_block_raises(self, tmp_path, monkeypatch, failing, first):
        # Six blocks on three CPUs: this process formats blocks 0 and 3, the
        # workers 1 and 4, and 2 and 5.  The error of the first failing
        # block is raised after the blocks before it are written: the file
        # holds what one CPU's loop writes before it raises.
        a = np.arange(6 * cli.CSV_BLOCK_ROWS, dtype=float)
        reprs = cli._reprs

        def failing_reprs(c, shape):
            block = int(c.ravel()[0]) // cli.CSV_BLOCK_ROWS
            if block in failing:
                raise ValueError(block)
            return reprs(c, shape)

        monkeypatch.setattr(cli, "_reprs", failing_reprs)
        expected = "a\n" + "".join(f"{x!r}\n" for x in a[: first * cli.CSV_BLOCK_ROWS].tolist())
        path = tmp_path / "failed.csv"
        for cpus in (1, 3):
            with pytest.raises(ValueError) as err:
                on_cpus(monkeypatch, cpus, lambda: cli._write_csv(path, "a", a))
            assert err.value.args == (first,)
            assert path.read_bytes() == expected.encode()

    def test_worker_without_its_text_fails_the_call(self, tmp_path, monkeypatch):
        reprs = cli._reprs

        def killed(c, shape):
            if c.ravel()[0] >= cli.CSV_BLOCK_ROWS:
                os.kill(os.getpid(), signal.SIGKILL)
            return reprs(c, shape)

        monkeypatch.setattr(cli, "_reprs", killed)
        a = np.arange(2 * cli.CSV_BLOCK_ROWS, dtype=float)
        with pytest.raises(ChildProcessError, match="worker"):
            on_cpus(monkeypatch, 2, lambda: cli._write_csv(tmp_path / "lost.csv", "a", a))

    def test_a_failed_write_reaps_every_worker(self, monkeypatch):
        # The file refuses the bytes while the workers format blocks ahead:
        # the write's error ends the call, and on_cpus finds no child left.
        a = np.arange(6 * cli.CSV_BLOCK_ROWS, dtype=float)
        with pytest.raises(OSError):
            on_cpus(monkeypatch, 3, lambda: cli._write_csv(Path("/dev/full"), "a", a))

    def test_zero_rows_write_the_header_only(self, tmp_path, monkeypatch):
        path = tmp_path / "empty.csv"
        assert self.write(monkeypatch, path, "k,tau_over_h", [], []) == b"k,tau_over_h\n"
        # dispersion with no mode k >= 1 passes no columns at all.
        assert main(["dispersion", "--out", str(tmp_path), "--modes", "0:0:1"]) == 0
        assert (tmp_path / "beta.csv").read_bytes() == b"k,tau_over_h,beta2_minus_1,beta4_minus_1\n"
        assert json.loads((tmp_path / "markers.json").read_text())["modes"] == {}


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
        # Every evaluation refills the window's storage: J = 4 fills all of
        # the chain source columns, and a 600-level window ends on a partial
        # chunk.
        j4 = ["--preset", "single-mode-second", "--J", "4", "--T-window", "5.0", "--n-steps", "800"]
        for i, args in enumerate([TINY, j4]):
            a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
            for out in (a, b):
                assert main(["assimilate", "--out", str(out)] + args) == 0
            assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
            assert (a / "xi.csv").read_bytes() == (b / "xi.csv").read_bytes()

    def test_largest_eta_writes_valid_json(self, tmp_path):
        # eta = 1e308 used to write "grad_norm_history": [NaN], which JSON
        # has no constant for, and an overflow warning to stderr.
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        args = ["--preset", "single-mode-second", "--eta", "1e308", "--n-steps", "800"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["assimilate", "--out", str(tmp_path)] + args) == 0
        payload = json.loads((tmp_path / "result.json").read_text(), parse_constant=refuse)
        assert payload["termination"] == "line_search_failed"

    @pytest.mark.parametrize("n_steps", [223, 300])
    def test_post_window_levels_picked_by_index(self, tmp_path, n_steps):
        # 222 * tau rounds below T_window = 1.85, yet level 222 ends the window:
        # the report after it starts there, so a 223-level horizon leaves two.
        args = ["--preset", "single-mode-second", "--T-window", "1.85", "--n-steps", str(n_steps)]
        assert main(["assimilate", "--out", str(tmp_path)] + args) == 0
        post = json.loads((tmp_path / "result.json").read_text())["post_window_xi"]
        tail = read_csv(tmp_path / "xi.csv")[1][222:, 1].copy()
        assert post == {"plateau": float(np.mean(tail)), "max": float(tail.max())}


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


    def test_count_past_the_range_takes_each_window_once(self):
        # One sample per integer of the range already gives every window;
        # 10**15 samples used to end in a refused 7.1 PiB allocation.
        overrides = {"window_start": 600, "window_end": 720, "window_count": 10**15}
        cfg = resolve_config("single-mode-second", None, overrides)
        assert cli._sweep_windows(cfg) == list(range(600, 721))

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # One CPU runs the windows and formats the rows in this process;
        # more fork workers that pickle back each fit or each block's text
        # as they make it.  At 2100 steps xi.csv has three blocks and
        # error_xt.csv eight.  gradcheck runs in this process on any.
        sweep = ["sweep"] + TINY[:-3] + ["128", "--window-count", "2"]
        gradcheck = ["gradcheck", "--J", "2"] + TINY
        forward = ["forward"] + TINY + ["--n-steps", "2100"]
        assimilate = ["assimilate"] + TINY + ["--n-steps", "2100"]
        outputs = {
            "sweep": ["alphas.csv", "kernel_line.json"],
            "gradcheck": ["gradcheck.json"],
            "forward": ["xi.csv", "error_xt.csv"],
            "assimilate": ["xi.csv", "result.json"],
        }
        for cpus in (1, 2, 3):
            for argv in (sweep, gradcheck, forward, assimilate):
                out = ["--out", str(tmp_path / argv[0] / str(cpus))]
                assert on_cpus(monkeypatch, cpus, lambda: main(argv + out)) == 0
        for command, names in outputs.items():
            for name in names:
                one, two, three = (
                    (tmp_path / command / str(cpus) / name).read_bytes() for cpus in (1, 2, 3)
                )
                assert one == two == three

    def test_alphas_columns_in_control_vector_order(self, tmp_path):
        # A second sweep writes the same bytes.
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["sweep", "--out", str(out)] + TINY[:-1] + ["1"]) == 0
        alphas = (tmp_path / "a" / "alphas.csv").read_bytes()
        assert alphas == (tmp_path / "b" / "alphas.csv").read_bytes()
        header = read_csv(tmp_path / "a" / "alphas.csv")[0]
        groups = ["alpha_u", "alpha_u_tilde", "alpha_p", "alpha_p_tilde"]
        assert header[3:] == [f"{g}_{j}" for g in groups for j in (0, 1)]


class TestGradcheck:
    def test_healthy_configuration_passes(self, tmp_path, capsys):
        # The small grid, every preset's defaults, and J = 4, whose boundary
        # footprints reach past the classical two points.  The last two
        # failed with central differences: on N = 6 at J = 4 some gradient
        # components are zero, and the 0:0:1 window has a zero gradient.
        runs = [TINY] + [["--preset", name] for name in PRESETS]
        runs += [
            ["--preset", "rich-spectrum", "--J", "4"],
            ["--N", "6", "--n-steps", "40", "--T-window", "0.25", "--tau", "0.0125", "--J", "4"],
            ["--modes", "0:0:1", "--n-steps", "20", "--T-window", "0.1"],
        ]
        for args in runs:
            rc = main(["gradcheck", "--out", str(tmp_path)] + args)
            out = capsys.readouterr().out
            assert rc == 0, args
            assert "dot-product test" in out
            assert "worst relative error" in out
            assert "ok" in out.splitlines()[-1]

    def test_reports_all_components(self, tmp_path, capsys):
        rc = main(["gradcheck", "--out", str(tmp_path), "--J", "2"] + TINY)
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split() for line in out.splitlines() if line[:9].strip().isdigit()]
        assert [int(row[0]) for row in rows] == list(range(cli.DOT_PAIRS))
        # The same table, read back from gradcheck.json, and all 12
        # components of the gradient whose g . v it checks.
        record = json.loads((tmp_path / "gradcheck.json").read_text())
        assert len(record["dot_residuals"]) == 5
        assert max(record["dot_residuals"]) <= 1e-12
        assert len(record["gradient"]) == 12
        for key in ("adjoint", "complex_step", "relative_error"):
            assert len(record[key]) == 5
        assert [float(row[3]) for row in rows] == pytest.approx(record["relative_error"], rel=1e-3)
        assert record["worst"] == max(record["dot_residuals"] + record["relative_error"])
        assert record["worst"] <= record["tolerance"] == 1e-12
        assert f"worst relative error: {record['worst']:.3e}" in out
        # A second run writes the same bytes.
        assert main(["gradcheck", "--out", str(tmp_path / "b"), "--J", "2"] + TINY) == 0
        again = (tmp_path / "b" / "gradcheck.json").read_bytes()
        assert again == (tmp_path / "gradcheck.json").read_bytes()

    def test_one_adjoint_sweep_per_dot_pair_and_one_for_the_gradient(
        self, tmp_path, monkeypatch
    ):
        # The complex steps evaluate the cost alone: no adjoint runs for
        # any of their DOT_PAIRS directions.
        sweeps = []
        transpose_chains = adjoint.transpose_chains

        def counted(*args):
            sweeps.append(1)
            return transpose_chains(*args)

        monkeypatch.setattr(adjoint, "transpose_chains", counted)
        assert main(["gradcheck", "--out", str(tmp_path)] + TINY) == 0
        assert len(sweeps) == cli.DOT_PAIRS + 1

    def test_diverged_difference_fails_closed(self, tmp_path, capsys, monkeypatch):
        # Every complex cost run diverges (a blow-up threshold that only
        # they see), so its cost is +inf and has no slope: NaN.  That must
        # fail the check, not pass it.
        cost = cli.cost

        def diverging(x, win):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wave, "BLOWUP_THRESHOLD", 1e-3)
                report = cost(x, win)
            assert report == CostReport(math.inf, math.inf, 0.0)
            return report

        monkeypatch.setattr(cli, "cost", diverging)
        rc = main(["gradcheck", "--out", str(tmp_path)] + TINY)
        out = capsys.readouterr().out
        assert rc == 2
        assert out.splitlines()[-1] == "FAILED"
        assert "worst relative error: nan" in out
        assert math.isnan(json.loads((tmp_path / "gradcheck.json").read_text())["worst"])

    def test_gate_catches_a_source_weight_off_by_1e_8(self, tmp_path, capsys, monkeypatch):
        # The adjoint's per-level source weights w scaled by 1 + 1e-8: the
        # central differences' 1e-5 gate passed this adjoint.  The complex
        # steps alone catch it, as do the dot residuals.
        transpose_chains = adjoint.transpose_chains

        def scaled(*args):
            w, w_half = transpose_chains(*args)
            return w * (1.0 + 1e-8), w_half

        monkeypatch.setattr(adjoint, "transpose_chains", scaled)
        rc = main(["gradcheck", "--out", str(tmp_path)] + TINY)
        assert rc == 2
        assert capsys.readouterr().out.splitlines()[-1] == "FAILED"
        record = json.loads((tmp_path / "gradcheck.json").read_text())
        assert min(record["relative_error"]) > record["tolerance"]


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

    @pytest.mark.parametrize("tau", ["0.008333333333333333", "0.01"])
    def test_grid_without_singularity(self, tmp_path, tau):
        # On N = 64 the compensation denominator has no root below the scan
        # limit: a null singularity, and still every mode's predictions.
        argv = ["dispersion", "--out", str(tmp_path), "--N", "64", "--tau", tau,
                "--modes", "1:1:1"]
        assert main(argv) == 0
        assert read_csv(tmp_path / "beta.csv")[1].shape == (20, 4)
        markers = json.loads((tmp_path / "markers.json").read_text())
        assert markers == {
            "singularity_kappa": None,
            "singularity_kappa_over_pi": None,
            "modes": {"1": analysis.dispersion_report(1, 64, float(tau))},
        }

    def test_initial_condition_reports_the_default_modes(self, tmp_path):
        # An ic config names no mode numbers: dispersion reports k = 2, 3, 5.
        assert main(["dispersion", "--out", str(tmp_path), "--preset", "rich-spectrum"]) == 0
        rows = read_csv(tmp_path / "beta.csv")[1]
        assert rows.shape == (60, 4)
        assert sorted(set(rows[:, 0])) == [2.0, 3.0, 5.0]
        markers = json.loads((tmp_path / "markers.json").read_text())
        assert list(markers["modes"]) == ["2", "3", "5"]

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["dispersion", "--out", str(out), "--preset", "two-modes"]) == 0
        assert (a / "beta.csv").read_bytes() == (b / "beta.csv").read_bytes()
        assert (a / "markers.json").read_bytes() == (b / "markers.json").read_bytes()


class TestExitCodes:
    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]"):  # not JSON, then not a JSON object
            bad.write_text(text)
            assert main(["forward", "--config", str(bad), "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_contract_violation(self, tmp_path, capsys):
        for option in (
            ["--order", "3"],
            ["--window-start", "900", "--window-end", "600"],
            ["--window-count", "0"],
        ):
            assert main(["forward", "--out", str(tmp_path)] + TINY[:-2] + option) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_initial_condition(self, tmp_path, capsys):
        # Like every other bad config value: exit 1 with a message, no usage
        # error of the parser.
        assert main(["forward", "--out", str(tmp_path), "--ic", "bogus"]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown initial condition 'bogus'; known: ['polyexp']\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_modes_syntax(self, tmp_path, capsys):
        assert main(["forward", "--out", str(tmp_path), "--modes", "3:1"]) == 1
        assert capsys.readouterr().err.startswith("error: config field modes must be ")

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

    def test_post_run_divergence_keeps_the_fit(self, tmp_path, capsys):
        # tau/h = 0.9: the 10-step window of the fourth-order interior fits,
        # and the recovered scheme then diverges over the horizon.
        # result.json must still hold the fit, and where the run diverged.
        argv = ["assimilate", "--out", str(tmp_path), "--preset", "single-mode-fourth",
                "--tau", "0.03", "--n-steps", "400", "--T-window", "0.3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        payload = json.loads((tmp_path / "result.json").read_text())
        exp = setup_experiment(ExperimentConfig(**payload["config"]))
        recovered = BoundaryScheme(**payload["recovered"])
        with pytest.raises(IntegrationDiverged) as stored:
            integrate(exp.ic, exp.stencil, recovered, exp.grid)
        assert err == f"error: {stored.value}\n"
        assert payload["post_run_diverged"] == {
            "step": stored.value.step,
            "time": stored.value.time,
            "amplitude": stored.value.amplitude,
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
            ("forward", {"modes": [[3, 1]]}),
            ("forward", {"modes": 3}),
            ("forward", {"modes": [[3, "a", 1]]}),
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

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["assimilate", "--preset", "single-mode-second", "--n-steps", "800", "--eta", "nan"],
             "eta"),
            (["dispersion", "--tau", "nan"], "tau"),
            (["gradcheck", "--n-steps", "800", "--config", "{eta_infinity}"], "eta"),
            (["forward", "--tau", "inf"], "tau"),
            (["forward", "--modes", "3:nan:1"], "modes"),
        ],
        ids=["assimilate-eta-nan", "dispersion-tau-nan", "gradcheck-eta-inf", "forward-tau-inf",
             "forward-modes-nan"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, argv, field):
        # float() and json both read NaN and Infinity.  assimilate used to
        # write a result.json holding a bare NaN, dispersion six NaN markers,
        # and forward to fail as a diverged integration.
        config = tmp_path / "inf.json"
        config.write_text('{"eta": Infinity}')
        out = tmp_path / "out"
        argv = [a.format(eta_infinity=config) for a in argv]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {field} must be finite")
        assert "Traceback" not in err
        assert not out.exists()

    def test_window_beyond_the_horizon(self, tmp_path, capsys):
        # forward never reads T_window, so a horizon shorter than the window
        # is fine there.  The commands that fit the window reject it before
        # any fit.
        argv = ["--preset", "single-mode-second", "--n-steps", "400"]
        assert main(["forward", "--out", str(tmp_path / "fwd")] + argv) == 0
        capsys.readouterr()
        for command in ("assimilate", "gradcheck"):
            out = tmp_path / command
            assert main([command, "--out", str(out), "--T-window", "1e9"] + argv) == 1
            assert capsys.readouterr().err == (
                "error: window of 120000000000 steps exceeds the configured horizon of 400\n"
            )
            assert list(out.iterdir()) == []
        # Nor may a sweep's longest window run past the horizon.
        sweep = ["sweep", "--out", str(tmp_path / "sweep"), "--window-start", "300"]
        assert main(sweep + ["--window-end", "500"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window sweep range [300, 500] must fit inside the 400-step")
        assert "Traceback" not in err
        assert list((tmp_path / "sweep").iterdir()) == []

    @pytest.mark.parametrize("command", ["dispersion", "assimilate"])
    def test_unresolvable_mode_rejected(self, tmp_path, capsys, command):
        # k = 2N: sin(k pi h / 2) = 0, where beta2 and beta4 divide by zero.
        # assimilate used to fit first and then fail in the predictions.
        assert main([command, "--out", str(tmp_path), "--modes", "3:1:1,60:1:1"]) == 1
        assert capsys.readouterr().err == "error: mode k = 60 is not resolvable on N = 30\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", [["--N", "0"], ["--N", "3"], ["--tau", "0"], ["--tau", "-0.01"]])
    def test_dispersion_rejects_an_impossible_grid(self, tmp_path, capsys, option):
        # dispersion never integrates, but h and tau must still be a grid's.
        # N = 0 and tau = 0 used to end in a ZeroDivisionError traceback.
        argv = ["dispersion", "--out", str(tmp_path), "--preset", "single-mode-second"] + option
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

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

    def test_refused_allocation_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # The times of 10**15 levels take 7.1 PiB, more than any address
        # space: the request fails at once and used to end in a traceback.
        # assimilate refuses it before its fit, not after: run as shipped,
        # then once more counting its evaluations, it runs none.
        evaluations = []
        evaluate = objective.evaluate

        def counted(*args):
            evaluations.append(1)
            return evaluate(*args)

        args = ["--out", str(tmp_path), "--preset", "single-mode-second", "--n-steps", str(10**15)]
        for command, counting in [("forward", False), ("assimilate", False), ("assimilate", True)]:
            if counting:
                monkeypatch.setattr(objective, "evaluate", counted)
            assert main([command] + args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert list(tmp_path.iterdir()) == []
            assert evaluations == []

    def unstable_sweep(self, tmp_path, capsys, monkeypatch, start, end):
        """stderr of a sweep of the unstable scheme on one CPU, then on two."""
        argv = ["sweep", "--out", str(tmp_path), "--preset", "single-mode-fourth",
                "--tau", "0.03", "--n-steps", "400", "--window-start", start,
                "--window-end", end, "--window-count", "2"]
        errors = []
        for cpus in (1, 2):
            assert on_cpus(monkeypatch, cpus, lambda: main(argv)) == 1
            errors.append(capsys.readouterr().err)
        assert not (tmp_path / "alphas.csv").exists()
        return errors

    def test_diverged_start_fails_sweep(self, tmp_path, capsys, monkeypatch):
        # The classical start diverges inside every window: no fit exists,
        # so no alphas.csv with penalty costs and start coefficients.  On
        # two CPUs this process's own window fails first; the worker is
        # still reaped.
        one, two = self.unstable_sweep(tmp_path, capsys, monkeypatch, "50", "100")
        assert one.startswith("error: integration diverged at step 19")
        assert two == one

    def test_window_diverged_in_a_worker_fails_sweep(self, tmp_path, capsys, monkeypatch):
        # The 10-step window fits; the start diverges at step 19 of the
        # 50-step one, which a worker runs on two CPUs.  Its error crosses
        # the pipe as a pickle and ends the call as the serial loop does.
        one, two = self.unstable_sweep(tmp_path, capsys, monkeypatch, "10", "50")
        assert one.startswith("error: integration diverged at step 19")
        assert two == one


# tau/h = 1.2: past the CFL bound, and the 50-step window's start diverges.
PAST_CFL = ["--preset", "single-mode-second", "--tau", "0.04", "--n-steps", "400",
            "--T-window", "2.0"]


class TestCflWarning:
    @pytest.mark.parametrize("command", ["assimilate", "gradcheck"])
    def test_given_once_by_the_horizon_grid(self, tmp_path, command):
        # The window grid has the horizon grid's N and tau, which have warned.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--out", str(tmp_path)] + PAST_CFL) == 1
        assert [(w.category, Path(w.filename).name) for w in caught] == [(UserWarning, "cli.py")]

    def test_sweep_workers_give_none(self, tmp_path):
        # Each forked worker builds its window's grid; on two CPUs the
        # command used to print the warning three times.
        code = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from waveassim.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        argv = ["sweep", "--out", str(tmp_path)] + PAST_CFL + [
            "--window-start", "40", "--window-end", "50", "--window-count", "2"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert run.returncode == 1
        assert run.stderr.count("exceeds the CFL bound") == 1


class TestMap:
    def test_values_in_item_order(self, monkeypatch):
        def tagged():
            return list(cli._map(lambda i: (i, os.getpid()), range(7)))

        for cpus in (1, 2, 3, 8):
            values = on_cpus(monkeypatch, cpus, tagged)
            assert [i for i, _ in values] == list(range(7))
            # Slot s of n = min(cpus, 7) computes items s, s + n, ..., and
            # slot 0 is this process.
            n = min(cpus, 7)
            assert len({pid for _, pid in values}) == n
            assert [pid for _, pid in values] == [values[i % n][1] for i in range(7)]
            assert values[0][1] == os.getpid()

    def test_runs_in_process_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert list(cli._map(lambda i: os.getpid(), range(4))) == [os.getpid()] * 4

    @pytest.mark.parametrize(
        "failing, first",
        [({2, 4}, 2),  # the first failure is in the second worker's slot
         ({3, 4, 5}, 3),  # this process's item 3 fails before both workers'
         ({1, 6}, 1)],  # a worker's item fails before this process's item 6
    )
    def test_first_failing_item_in_item_order_raises(self, monkeypatch, failing, first):
        # Three slots: this process takes items 0, 3, 6, the workers 1, 4
        # and 2, 5.
        def fn(i):
            if i in failing:
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as err:
            on_cpus(monkeypatch, 3, lambda: list(cli._map(fn, range(7))))
        assert err.value.args == (first,)

    def test_own_first_item_failing_stops_the_workers(self, monkeypatch):
        # The serial loop would stop at item 0, so no worker's item counts:
        # they are killed, not waited for.
        def fn(i):
            if i == 0:
                raise ValueError(i)
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError):
            on_cpus(monkeypatch, 3, lambda: list(cli._map(fn, range(3))))
        assert time.monotonic() - start < 30

    def test_closing_early_reaps_every_worker(self, monkeypatch):
        # A consumer that stops after this process's first value does not
        # wait for the workers' slow items: closing kills and reaps them.
        def fn(i):
            if i:
                time.sleep(60)
            return i

        def first_value():
            values = cli._map(fn, range(3))
            try:
                return next(values)
            finally:
                values.close()

        start = time.monotonic()
        assert on_cpus(monkeypatch, 3, first_value) == 0
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize(
        "fn",
        [lambda i: os.kill(os.getpid(), signal.SIGKILL) if i else i,
         lambda i: (lambda: i)],  # a value that does not pickle
        ids=["killed", "unpicklable"],
    )
    def test_worker_without_a_result_fails_the_call(self, monkeypatch, fn):
        with pytest.raises(ChildProcessError, match="worker"):
            on_cpus(monkeypatch, 2, lambda: list(cli._map(fn, range(2))))


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
        run_assimilation(cli._window(exp, 1.0))
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
        result, bs = run_assimilation(cli._window(exp, cfg.T_window))
        assert result.f < result.cost_history[0]
        assert bs.J == 1
