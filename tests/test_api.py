"""Public API guard: exported names, removed names, and the bench tracer's hooks."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import waveassim
from waveassim import cli

REMOVED = {
    "wave": [
        "derivative_p",
        "derivative_u",
        "derivative_matrices",
        "first_step",
        "leapfrog_step",
        "State",
    ],
    "adjoint": [
        "SensitivitySource",
        "join_control",
        "_source_u_rows",
        "_source_p_rows",
        "_project_p_control",
        "_project_u_control",
    ],
    "objective": ["state_norm2", "GROUP_NAMES"],
    "exact": ["exact_mode", "exact_superposition", "Observations"],
    "analysis": ["grid_misfit_series"],
}

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_all_names_import():
    for name in waveassim.__all__:
        assert getattr(waveassim, name) is not None, name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"waveassim.{module}")
    for name in REMOVED[module]:
        assert not hasattr(mod, name), f"waveassim.{module}.{name}"
        assert not hasattr(waveassim, name), f"waveassim.{name}"
        assert name not in waveassim.__all__


def test_removed_trajectory_and_state_members():
    assert not hasattr(waveassim.Trajectory, "state")


def test_experiment_fields():
    # Observations are sampled per fitted window, not held by the experiment.
    assert list(cli.Experiment.__dataclass_fields__) == [
        "config",
        "grid",
        "stencil",
        "modes",
        "ic",
    ]


def test_cost_dataclass_fields():
    assert list(waveassim.CostConfig.__dataclass_fields__) == ["T_window", "eta"]
    assert list(waveassim.CostReport.__dataclass_fields__) == [
        "total",
        "misfit",
        "regularization",
    ]


def test_minimize_config_fields():
    assert list(waveassim.MinimizeConfig.__dataclass_fields__) == [
        "memory",
        "max_iters",
        "grad_tol",
        "c1",
        "c2",
        "max_line_search",
    ]


# Each signature holds only parameters that some caller sets.
SIGNATURES = [
    ("cli", "run_assimilation", ["exp", "T_window"]),
    ("cli", "cmd_gradcheck", ["cfg", "out_dir"]),
    ("cli", "_gradient_check", ["exp"]),
    ("wave", "advance_chains", ["Z", "W", "n", "src"]),
    ("exact", "project_initial", ["u0", "p0", "k_max", "n_panels"]),
    ("wave", "integrate", ["z0", "stencil", "bs", "grid", "blowup_threshold", "out"]),
    ("adjoint", "adjoint_sweep", ["traj", "forcing"]),
    ("adjoint", "misfit_gradient", ["traj", "obs", "out"]),
]


@pytest.mark.parametrize("module, name, params", SIGNATURES)
def test_signature(module, name, params):
    fn = getattr(importlib.import_module(f"waveassim.{module}"), name)
    assert list(inspect.signature(fn).parameters) == params


def test_import_leaves_scipy_unloaded():
    # Only the dispersion analysis needs scipy; every other command should
    # not pay for loading it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = "import sys, waveassim, waveassim.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_traced_names_resolve():
    # The benchmark's trace mode rebinds these names by getattr; a refactor
    # that moves one of them would break it silently.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, name in tracer.TRACED:
        mod = importlib.import_module(f"waveassim.{module}")
        assert callable(getattr(mod, name)), f"waveassim.{module}.{name}"
