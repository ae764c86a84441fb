"""Public API guard: exported names, removed names, the bench tracer's hooks, and a CI
workflow that leaves every check to the tests."""

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import waveassim
from waveassim import adjoint, cli, objective, wave

REMOVED = {
    "wave": [
        "derivative_p",
        "derivative_u",
        "derivative_matrices",
        "first_step",
        "leapfrog_step",
        "State",
        "controlled_rows",
        "second_order",
        "fourth_order",
        "_buffer",
        "start_run",
    ],
    "adjoint": [
        "SensitivitySource",
        "join_control",
        "_source_u_rows",
        "_source_p_rows",
        "_project_p_control",
        "_project_u_control",
        "split_control",
        "window_misfit",
        "level_misfit",
        "time_weights",
        "misfit_gradient",
    ],
    "objective": ["state_norm2", "GROUP_NAMES", "CostConfig", "window_buffers"],
    "minimize": ["MinimizeConfig"],
    "cli": ["_workers", "_run_share", "_first_failure"],
    "exact": ["exact_mode", "exact_superposition", "Observations"],
    "analysis": [
        "grid_misfit_series",
        "DispersionReport",
        "compensation_coefficient",
        "first_peak_and_return",
        "log_growth_rate",
        "trend_drift",
        "plateau_level",
    ],
}

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


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
    assert not hasattr(wave.Trajectory, "state")
    assert not hasattr(wave.Trajectory, "times")


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
    assert list(waveassim.Window.__dataclass_fields__) == [
        "obs",
        "ic",
        "stencil",
        "grid",
        "J",
        "eta",
        "storage",
    ]
    assert list(objective.CostReport.__dataclass_fields__) == [
        "total",
        "misfit",
        "regularization",
    ]


# Each signature holds only parameters that some caller sets.  The test ids
# are positional (params0, params1, ...): add new entries at the end, and
# change an entry in place, so that no test id is renamed.
SIGNATURES = [
    ("cli", "run_assimilation", ["win"]),
    ("cli", "cmd_gradcheck", ["cfg", "out_dir"]),
    ("cli", "_gradient_check", ["exp"]),
    ("wave", "advance_chains", ["Z", "A", "storage", "tau", "n", "q", "q_half", "emit"]),
    ("exact", "project_initial", ["u0", "p0", "k_max"]),
    ("wave", "integrate", ["z0", "stencil", "bs", "grid", "out"]),
    ("adjoint", "adjoint_sweep", ["traj", "forcing"]),
    ("objective", "misfit_gradient", ["traj", "res"]),
    ("analysis", "horizon_report", ["z0", "stencil", "bs", "grid", "modes", "stride"]),
    # The benchmark checks forward's xi.csv against integrate + xi_series.
    ("analysis", "xi_series", ["traj", "modes"]),
    # evaluate's stored trajectory and cost's streamed run are reduced by one consumer.
    ("objective", "_misfit_levels", ["win", "storage", "res"]),
    ("objective", "cost", ["x", "win"]),
    ("objective", "evaluate", ["x", "win"]),
    ("objective", "make_objective", ["win"]),
    ("objective", "window_steps", ["T_window", "grid"]),
    ("wave", "boundary_entries", ["N", "J"]),
    ("adjoint", "_sensitivity", ["z", "J"]),
    # The horizon report builds the mode shapes once and refills one chunk.
    ("exact", "exact_fields", ["modes", "grid", "times", "shapes", "out"]),
    ("exact", "mode_shapes", ["modes", "grid"]),
    # Every line search starts at the unit step; every stack spans one block.
    ("minimize", "wolfe_line_search", ["phi", "f0", "dphi0"]),
    ("wave", "chain_stack", ["A", "tau", "storage"]),
    ("wave", "transpose_chains", ["a", "A", "storage", "tau"]),
    # The quadrature is 16-point on max(8, k_max) panels, fixed.
    ("exact", "_composite_gauss", ["f", "n_panels"]),
    # gradcheck fills one tangent-linear buffer for all its dot pairs.
    ("adjoint", "tlm_run", ["traj", "dalpha", "out"]),
    # Every forward run checks its start, builds A and W and scans its chunks here.
    ("wave", "run", ["z0", "stencil", "bs", "grid", "storage", "consume"]),
    # The blow-up threshold is one module constant, BLOWUP_THRESHOLD.
    ("wave", "check_levels", ["levels", "t", "tau"]),
    # The error series refills the run's chunk buffer, not a buffer of its own.
    ("analysis", "_xi_rows", ["modes", "grid", "storage"]),
    # The minimizer's settings are module constants, from MEMORY to MAX_LINE_SEARCH.
    ("minimize", "lbfgs", ["f_and_grad", "x0"]),
    # The trapezoid rule in time, read by the misfit and its gradient alone.
    ("objective", "time_weights", ["m", "tau"]),
    # The dtype is float64 but for cost's complex step.
    ("wave", "Storage", ["n", "N", "dtype"]),
    # The one parallel map: each item's value in item order.
    ("cli", "_map", ["fn", "items"]),
]


@pytest.mark.parametrize("module, name, params", SIGNATURES)
def test_signature(module, name, params):
    fn = getattr(importlib.import_module(f"waveassim.{module}"), name)
    assert list(inspect.signature(fn).parameters) == params


# Every caller passes these, so none has a default that only the tests take.
@pytest.mark.parametrize(
    "fn, param",
    [(adjoint.tlm_run, "out"), (wave.BoundaryScheme.classical, "J")],
    ids=["tlm_run", "classical"],
)
def test_parameter_has_no_default(fn, param):
    assert inspect.signature(fn).parameters[param].default is inspect.Parameter.empty


def test_dispersion_leaves_scipy_unloaded(tmp_path):
    # No command needs scipy (only the tests' quadrature oracle does), so
    # none should pay for loading it: not the import of waveassim and its
    # CLI, whose modules stay in sys.modules, nor dispersion, whose
    # singularity root is a bisection, not scipy.optimize.brentq.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys, waveassim.cli as c; "
        "assert c.main(['dispersion', '--out', sys.argv[1]]) == 0; "
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
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


def test_only_wave_sizes_the_chain_buffers():
    # BLOCK_LEVELS and CHUNK fix the chain engine's block and chunk geometry.
    # Every other module takes its buffer sizes from a wave.Storage.
    for path in (ROOT / "src" / "waveassim").glob("*.py"):
        if path.name != "wave.py":
            assert not re.search(r"\b(BLOCK_LEVELS|CHUNK)\b", path.read_text()), path.name


def _read_names(source: str) -> set[str]:
    """Every name that Python source reads, as a Name or as an Attribute.

    A mention in a docstring or comment is not a read.  The names the bench
    tracer rebinds by getattr need no string match: each is a call that
    src/ makes.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_wave_steps_and_scans_a_forward_run():
    # integrate, cost and the horizon run go through wave.run, which alone
    # scans for blow-up; only tlm_run steps the chains besides it.
    for path in (ROOT / "src" / "waveassim").glob("*.py"):
        read = _read_names(path.read_text())
        if path.name != "wave.py":
            assert "check_levels" not in read, path.name
        if path.name not in ("wave.py", "adjoint.py"):
            assert "advance_chains" not in read, path.name


def test_only_map_forks():
    # cli._map is the one fork site: no other function or module of src/
    # forks, waits for or pipes to a worker.
    readers = set()
    for path in (ROOT / "src" / "waveassim").glob("*.py"):
        source = path.read_text()
        for node in ast.parse(source).body:
            if _read_names(ast.get_source_segment(source, node)) & {"fork", "waitpid", "pipe"}:
                readers.add((path.stem, getattr(node, "name", None)))
    assert readers == {("cli", "_map")}


def test_only_objective_weighs_the_misfit():
    # The misfit, its weights and its adjoint forcing are objective's; the
    # tangent-linear/adjoint pair never sees an observation.
    for path in (ROOT / "src" / "waveassim").glob("*.py"):
        read = _read_names(path.read_text())
        if path.name != "objective.py":
            assert "time_weights" not in read, path.name
        if path.name == "adjoint.py":
            assert "obs" not in read, path.name


def _readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


@functools.cache
def _names_read_outside_tests() -> set[str]:
    """Names read by src/, the README example, the CI workflows or perfbench/."""
    names = set()
    for path in (ROOT / "src" / "waveassim").glob("*.py"):
        names |= _read_names(path.read_text())
    for path in (ROOT / "perfbench").glob("*.py"):
        names |= _read_names(path.read_text())
    for block in _readme_python_blocks():
        names |= _read_names(block)
    # The workflows run shell lines and inline Python: any word outside a comment.
    for path in (ROOT / ".github" / "workflows").glob("*.yml"):
        for line in path.read_text().splitlines():
            if not line.lstrip().startswith("#"):
                names |= set(re.findall(r"[A-Za-z_]\w*", line))
    return names


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(waveassim.__path__)))
def test_public_names_have_a_caller_outside_the_tests(module):
    # A public name only tests reach belongs in tests/conftest.py, not in src/.
    read = _names_read_outside_tests()
    exported = importlib.import_module(f"waveassim.{module}").__all__
    assert [name for name in exported if name not in read] == []


# `from waveassim import X, ...` (with or without parentheses) or `waveassim.X`.
_PACKAGE_IMPORT = re.compile(r"\bfrom waveassim import (?:\(([^)]*)\)|([\w ,]+))|\bwaveassim\.(\w+)")


def _package_imports(text: str) -> set[str]:
    """Names that text takes from the waveassim package itself, outside # comment lines."""
    code = "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))
    names = set()
    for match in _PACKAGE_IMPORT.finditer(code):
        names |= set(re.findall(r"\w+", " ".join(g for g in match.groups() if g)))
    return names


def test_package_exports_only_what_its_users_import():
    # The README example, CI and perfbench/ take these names from the package;
    # any other name is imported from its module.
    sources = _readme_python_blocks()
    sources += [path.read_text() for path in (ROOT / ".github" / "workflows").glob("*.yml")]
    sources += [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    imported = set().union(*map(_package_imports, sources))
    assert [name for name in waveassim.__all__ if name not in imported] == []


# What asserts in a shell step: inline Python, a byte comparison, test, grep -q.
_ASSERTION = re.compile(r"\bpython3? -c\b|\bcmp\b|\bassert\b|\bgrep -q\b|\btest ")


def _workflow_steps() -> list[tuple[str, list[str]]]:
    """tier1.yml cut at each step: its name (or uses:) and its lines, # comments left out.

    The lines before the first step come first, under the name "".
    """
    steps = [("", [])]
    for line in WORKFLOW.read_text().splitlines():
        step = re.match(r"\s*- (?:name|uses): (.*)", line)
        if step:
            steps.append((step.group(1), []))
        if not line.lstrip().startswith("#"):
            steps[-1][1].append(line)
    return steps


def test_ci_asserts_only_in_the_benchmark_smoke():
    # Every other check is a tier-1 test, so a local run sees what CI sees.
    for name, lines in _workflow_steps():
        if name != "Benchmark smoke":
            assert [line for line in lines if _ASSERTION.search(line)] == [], name


def test_ci_calls_each_subcommand_once():
    # The installed entry point runs each command of the CLI once.
    console = dict(_workflow_steps())["Console script"]
    calls = [line.split()[1] for line in console if line.split()[:1] == ["waveassim"]]
    assert sorted(calls) == sorted(cli._COMMANDS)
