"""Experiment runner with machine-readable outputs.

Subcommands: ``forward`` (error diagnostics of the classical scheme),
``assimilate`` (identify boundary coefficients and report them against
the dispersion-theory predictions), ``sweep`` (one assimilation per
window length, plus the fitted coefficient line), ``gradcheck``
(adjoint and gradient verification; nonzero exit on failure) and
``dispersion`` (speed-error tables and analytic markers).  Series go to
CSV with a one-line header, structured results to JSON; identical
configurations produce byte-identical outputs on one machine, BLAS build
and BLAS thread count (another BLAS or thread count may round
differently and move a fit's iterates; CI and the benchmark pin
OPENBLAS_NUM_THREADS=1), however many CPUs the process may use.
``sweep``'s windows run across those CPUs (``_map``): each forked worker
fits its share on a copy-on-write copy of the parent's state and sends
the fits back; the parent prints and writes every output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import Field, asdict, dataclass, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis
from .adjoint import adjoint_sweep, control_dim, tlm_run
from .exact import ModeSpec, exact_fields, project_initial, sample_observations
from .minimize import OptimResult, lbfgs
from .objective import BLOWUP_PENALTY, Window, cost, evaluate, make_objective, window_steps
from .wave import (
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    InteriorStencil,
    integrate,
    interior_stencil,
)

__all__ = [
    "PRESETS",
    "Experiment",
    "ExperimentConfig",
    "cmd_assimilate",
    "cmd_dispersion",
    "cmd_forward",
    "cmd_gradcheck",
    "cmd_sweep",
    "main",
    "resolve_config",
    "run_assimilation",
    "setup_experiment",
]


def _polyexp_u0(x):
    return 20.0 * x**2 * (1.0 - x) * np.exp(-5.0 * x)


def _polyexp_p0(x):
    return (x - 0.5) * np.exp(2.0 * x)


# Analytic initial conditions with a rich mode spectrum (u0 vanishes at both
# ends; p0 has a nonzero mean, carried by the steady k = 0 component).
NAMED_INITIAL = {"polyexp": (_polyexp_u0, _polyexp_p0)}

# Per annotated field type: what a JSON value of it must be (an int field
# takes no float) and what reads its flag's text.  modes is checked by hand,
# and main splits its flag's text into k:a:b triples.
_FIELD_KINDS = {"int": (Integral, int), "float": (Real, float), "str": (str, str)}


def _field_kind(f: Field) -> tuple:
    return _FIELD_KINDS.get(f.type.removesuffix(" | None"), (None, str))


# Rows that _write_csv formats and writes at a time, not whole columns.  A
# block's row strings and text peak at about 170 kB in xi.csv; 4096-row blocks
# held 0.66 MB and raised the peak RSS of forward by about 0.3 MB.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command needs; JSON fields and CLI flags take these names.

    Each field's flag is ``--`` plus its name with ``_`` turned into ``-``.
    """

    name: str = "experiment"
    N: int = 30
    tau: float = 1.0 / 120.0
    n_steps: int = 36000
    order: int = 2
    J: int = 1
    eta: float = 0.0
    T_window: float = 6.0
    modes: tuple[tuple[float, float, float], ...] | None = ((3.0, 1.0, 1.0),)
    ic: str | None = None
    window_start: int = 600
    window_end: int = 2400
    window_count: int = 10
    xt_stride: int | None = None

    def __post_init__(self):
        # A JSON file can give any field any type; annotations are strings here.
        for f in fields(self):
            kind = _field_kind(f)[0]
            value = getattr(self, f.name)
            if kind is None or (value is None and f.type.endswith(" | None")):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"config field {f.name} must be {f.type}, got {value!r}")
            # JSON and float() read NaN and Infinity, and JSON ints no float holds.
            if kind is Real and not abs(value) <= sys.float_info.max:
                raise ValueError(f"config field {f.name} must be finite, got {value!r}")
        if self.modes is not None:
            rows = self.modes if isinstance(self.modes, (list, tuple)) else [None]
            if not all(isinstance(r, (list, tuple)) and len(r) == 3 for r in rows) or any(
                isinstance(v, bool) or not (isinstance(v, Real) and abs(v) <= sys.float_info.max)
                for r in rows
                for v in r
            ):
                raise ValueError(
                    f"config field modes must be finite [k, a, b] rows, got {self.modes!r}"
                )
            object.__setattr__(self, "modes", tuple(tuple(map(float, r)) for r in rows))
        if self.order not in (2, 4):
            raise ValueError(f"interior order must be 2 or 4, got {self.order}")
        if (self.modes is None) == (self.ic is None):
            raise ValueError("specify exactly one of 'modes' or 'ic'")
        for k, _, _ in self.modes or ():
            if not (k >= 0 and float(k).is_integer()):
                raise ValueError(f"mode number must be a non-negative integer, got k = {k}")
            # sin(k pi h / 2) = 0: the dispersion formulas have no value there.
            if k >= 1 and self.N > 0 and k % (2 * self.N) == 0:
                raise ValueError(f"mode k = {k:g} is not resolvable on N = {self.N}")
        if self.ic is not None and self.ic not in NAMED_INITIAL:
            raise ValueError(
                f"unknown initial condition {self.ic!r}; known: {sorted(NAMED_INITIAL)}"
            )
        if not 1 <= self.window_start <= self.window_end:
            raise ValueError(
                f"bad window sweep range [{self.window_start}, {self.window_end}]"
            )
        if self.window_count < 1:
            raise ValueError(f"window_count must be >= 1, got {self.window_count}")
        if self.xt_stride is not None and self.xt_stride < 1:
            raise ValueError(f"xt_stride must be >= 1, got {self.xt_stride}")


# Each preset lists only the fields that differ from ExperimentConfig.
PRESETS: dict[str, dict] = {
    # Single sine mode k = 3 on the reference grid, both interior orders.
    "single-mode-second": dict(name="single-mode-second"),
    "single-mode-fourth": dict(name="single-mode-fourth", order=4),
    # Superposition of k = 2 and k = 5.  The 20-unit window sits inside the
    # sweep range and is long enough that both identified schemes hold their
    # error plateau over the full horizon.
    "two-modes": dict(
        name="two-modes",
        n_steps=12000,
        T_window=20.0,
        modes=((2, 1.0, 1.0), (5, 1.0, 1.0)),
    ),
    # Analytic initial data with all resolvable modes present.  Low modes
    # need a window of at least ~20 units to register their slow phase
    # drift in the misfit; shorter windows leave them under-constrained.
    "rich-spectrum": dict(
        name="rich-spectrum",
        n_steps=9600,
        T_window=20.0,
        ic="polyexp",
        window_start=800,
        window_end=5000,
    ),
}

_CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__)


def _apply_source(merged: dict, source: dict) -> None:
    unknown = set(source) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    merged.update(source)
    # 'modes' and 'ic' are mutually exclusive: a source that sets one of
    # them (and stays silent on the other) switches the initial data kind.
    if source.get("ic") is not None and "modes" not in source:
        merged["modes"] = None
    if source.get("modes") is not None and "ic" not in source:
        merged["ic"] = None


def resolve_config(
    preset: str | None = None,
    config_path: str | Path | None = None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Merge preset, JSON config file, and explicit overrides (in that order)."""
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
        _apply_source(merged, PRESETS[preset])
    if config_path is not None:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        _apply_source(merged, loaded)
    if overrides:
        _apply_source(merged, {k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**merged)


@dataclass(frozen=True)
class Experiment:
    """A resolved configuration with grid, stencil, modes, and stacked start state."""

    config: ExperimentConfig
    grid: GridSpec
    stencil: InteriorStencil
    modes: tuple[ModeSpec, ...]
    ic: np.ndarray


def setup_experiment(cfg: ExperimentConfig) -> Experiment:
    grid = GridSpec(cfg.N, cfg.tau, cfg.n_steps)
    stencil = interior_stencil(cfg.order)
    if cfg.ic is not None:
        u0, p0 = NAMED_INITIAL[cfg.ic]
        modes = tuple(project_initial(u0, p0, k_max=cfg.N - 1))
    else:
        modes = tuple(ModeSpec(int(k), float(a), float(b)) for k, a, b in cfg.modes)
    # Model and observations share the same t = 0 fields: a pure twin setup.
    ic = exact_fields(modes, grid, np.zeros(1))[0]
    return Experiment(cfg, grid, stencil, modes, ic)


def _window(exp: Experiment, T_window: float) -> Window:
    """The fit window of T_window time units, observed at each of its levels."""
    wgrid = GridSpec.quiet(exp.grid.N, exp.grid.tau, window_steps(T_window, exp.grid))
    obs = sample_observations(exp.modes, wgrid)
    return Window(obs, exp.ic, exp.stencil, wgrid, exp.config.J, exp.config.eta)


def run_assimilation(win: Window) -> tuple[OptimResult, BoundaryScheme]:
    """Minimize the misfit over the window (see ``_window``) from the classical scheme.

    Raises
    ------
    IntegrationDiverged
        If the starting scheme diverges inside the window, where the cost
        is +inf and there is nothing to minimize.
    """
    start = BoundaryScheme.classical(win.J)
    result = lbfgs(make_objective(win), start.to_control_vector())
    if result.f == BLOWUP_PENALTY:
        # L-BFGS accepts only decreasing steps, so the start itself diverged;
        # integrate it again to raise with the level at which it did.
        integrate(win.ic, win.stencil, start, win.grid, out=win.storage)
    return result, BoundaryScheme.from_control_vector(result.x, win.J)


def _write_csv(path: Path, header: str, *columns) -> None:
    """The rows of the columns broadcast together, in C order, each value repr(float(v)).

    1-D columns give one row per index.  error_xt.csv passes (levels, 1)
    times and (nodes,) positions against (levels, nodes) errors: each value
    of a column is formatted once, however many rows repeat it.  Rows are
    converted and written CSV_BLOCK_ROWS at a time, one string a block.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else (0,)
    arrays = [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in arrays]
    step = max(1, CSV_BLOCK_ROWS // math.prod(shape[1:]))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for a in range(0, shape[0], step):
            block = (min(step, shape[0] - a),) + shape[1:]
            cells = [_reprs(c if len(c) == 1 else c[a : a + step], block) for c in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _reprs(a: np.ndarray, shape: tuple[int, ...]):
    """repr of each value of a, repeated as a broadcasts to shape, in C order."""
    cells = map(repr, a.ravel().tolist())
    if a.shape == shape:
        return cells
    cells = np.array(list(cells), dtype=object).reshape(a.shape)
    return np.broadcast_to(cells, shape).ravel().tolist()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _map(fn, items: Sequence) -> list:
    """[fn(i) for i in items], computed on each CPU that the process may use.

    With n = min(CPUs, items) slots the items are dealt round-robin: the
    calling process takes items 0, n, 2n, ... and one forked worker per
    other slot takes the items from its slot on, n apart.  A worker starts
    from a copy-on-write copy of the caller's state, so each value has the
    bits of the serial loop; it pickles its values back through a pipe and
    leaves through os._exit.  A slot stops at its first error, and the
    error of the first failing item in item order is raised, as the loop
    would raise it; a worker that ends without its values (killed, or a
    value that does not pickle) raises ChildProcessError.  Every worker is
    reaped before this returns or raises, a running one killed first.
    Without sched_getaffinity or fork, or with one CPU, the loop runs here.
    """
    items = list(items)
    forks = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    n = min(len(os.sched_getaffinity(0)) if forks else 1, len(items))
    if n <= 1:
        return [fn(i) for i in items]
    running = {}  # slot -> (pid, read end of its pipe)
    try:
        for slot in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as fh:
                        fh.write(pickle.dumps(_run_share(fn, items[slot::n])))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            running[slot] = pid, os.fdopen(r, "rb")
        shares = [_run_share(fn, items[::n])]
        for slot in range(1, n):
            if _first_failure(shares, n)[0] < slot:
                break  # every item of this slot and the next comes after it
            pid, fh = running[slot]
            with fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[slot]
            if code != 0:
                raise ChildProcessError(f"worker {pid} exited with code {code}")
            shares.append(pickle.loads(data))
    finally:
        for pid, fh in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()
    error = _first_failure(shares, n)[1]
    if error is not None:
        raise error
    values = [None] * len(items)
    for s, (v, _) in enumerate(shares):
        values[s::n] = v
    return values


def _run_share(fn, share: list) -> tuple[list, BaseException | None]:
    """fn of each item in share up to the first that raises, and that error."""
    values = []
    try:
        for item in share:
            values.append(fn(item))
    except Exception as exc:
        return values, exc
    return values, None


def _first_failure(shares: list, n: int) -> tuple[float, BaseException | None]:
    """Item index and error of the first failing item among slots 0, 1, ... of shares.

    Slot s fails, if at all, at item s + n * (the values it made).
    """
    failed = [(s + n * len(v), e) for s, (v, e) in enumerate(shares) if e is not None]
    return min(failed, key=lambda f: f[0], default=(math.inf, None))


def _scheme_dict(bs: BoundaryScheme) -> dict:
    return {name: g.tolist() for name, g in bs.groups().items()}


def _predictions(ks: Sequence[int], N: int, tau: float) -> dict:
    """Dispersion-theory predictions for each mode number in ks."""
    return {str(k): analysis.dispersion_report(k, N, tau) for k in ks}


def cmd_forward(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Integrate the classical scheme and write its error diagnostics."""
    exp = setup_experiment(cfg)
    bs = BoundaryScheme.classical(cfg.J)
    stride = cfg.xt_stride or max(1, cfg.n_steps // 400)
    times, xi, u = analysis.horizon_report(exp.ic, exp.stencil, bs, exp.grid, exp.modes, stride)
    _write_csv(out_dir / "xi.csv", "t,xi", times, xi)

    du = u - exact_fields(exp.modes, exp.grid, times[::stride])[:, : cfg.N + 1]
    _write_csv(out_dir / "error_xt.csv", "t,x,du", times[::stride, None], exp.grid.x_nodes, du)
    return 0


def cmd_assimilate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Identify boundary coefficients and report them with the predictions."""
    exp = setup_experiment(cfg)
    m = window_steps(cfg.T_window, exp.grid)
    if cfg.n_steps <= m:
        raise ValueError(f"n_steps must exceed the {m}-step window to leave a horizon")
    np.empty(cfg.n_steps + 1)  # the report's xi: refuse a horizon too long for it before the fit
    result, bs = run_assimilation(_window(exp, cfg.T_window))
    payload = {
        "config": asdict(cfg),
        "start": _scheme_dict(BoundaryScheme.classical(cfg.J)),
        "recovered": _scheme_dict(bs),
        "group_sums": bs.group_sums(),
        "predicted": _predictions([m.k for m in exp.modes if m.k >= 1], cfg.N, cfg.tau),
        "cost_history": result.cost_history.tolist(),
        "grad_norm_history": result.grad_norm_history.tolist(),
        "n_evaluations": result.n_evaluations,
        "n_iterations": result.n_iterations,
        "termination": result.termination,
    }
    try:
        times, xi, _ = analysis.horizon_report(exp.ic, exp.stencil, bs, exp.grid, exp.modes)
    except IntegrationDiverged as exc:
        # Keep the fit: record where the recovered scheme blew up, then fail.
        payload["post_run_diverged"] = {
            "step": exc.step,
            "time": float(exc.time),
            "amplitude": float(exc.amplitude),
        }
        _write_json(out_dir / "result.json", payload)
        raise
    _write_csv(out_dir / "xi.csv", "t,xi", times, xi)
    payload["post_window_xi"] = {
        "plateau": float(np.mean(xi[m:])),
        "max": float(xi[m:].max()),
    }
    _write_json(out_dir / "result.json", payload)
    return 0


def _sweep_windows(cfg: ExperimentConfig) -> list[int]:
    if cfg.window_end > cfg.n_steps:
        raise ValueError(
            f"window sweep range [{cfg.window_start}, {cfg.window_end}] must "
            f"fit inside the {cfg.n_steps}-step horizon"
        )
    # At one sample per integer of the range, every integer is a window:
    # a larger count rounds to the same windows.
    count = min(cfg.window_count, cfg.window_end - cfg.window_start + 1)
    steps = np.linspace(cfg.window_start, cfg.window_end, count)
    return sorted({int(round(s)) for s in steps})


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    """One assimilation per window length; coefficients and the fitted line."""
    exp = setup_experiment(cfg)
    windows = _sweep_windows(cfg)
    fits = _map(lambda steps: run_assimilation(_window(exp, steps * cfg.tau)), windows)
    rows = []
    pairs = []
    for steps, (result, bs) in zip(windows, fits):
        groups = _scheme_dict(bs)
        rows.append([steps, steps * cfg.tau, result.f] + [v for g in groups.values() for v in g])
        pairs.append((bs.alpha_p[0], bs.alpha_p[1]))
    names = [f"{g}_{j}" for g, values in groups.items() for j in range(len(values))]
    header = "window_steps,T_window,cost," + ",".join(names)
    _write_csv(out_dir / "alphas.csv", header, *zip(*rows))

    payload: dict = {"n_windows": len(rows)}
    if len(rows) >= 2:
        slope, intercept, residual = analysis.fit_kernel_line(pairs)
        payload["kernel_line"] = {
            "slope": slope,
            "intercept": intercept,
            "residual_rms": residual,
        }
        ks = [m.k for m in exp.modes if m.k >= 1]
        payload["predicted_tangent"] = {
            str(k): analysis.kernel_tangent(k, 1.0 / cfg.N) for k in ks[:8]
        }
    _write_json(out_dir / "kernel_line.json", payload)
    return 0


# Gradient check: random dot-product pairs and their seed, the complex step,
# the floor of the directional error scale, and the largest error that passes.
DOT_PAIRS, DOT_SEED, COMPLEX_STEP, GRADCHECK_FLOOR, GRADCHECK_TOL = 5, 0, 1e-30, 1e-20, 1e-12


def _gradient_check(exp: Experiment) -> dict:
    """Dot-product residuals, and the adjoint gradient against complex steps.

    The dot test runs on the window's own storage (trajectory and scratch),
    which evaluate then refills.  Every pair's tangent-linear run fills one
    buffer, dz; once the pair's left-hand side is taken, dz holds its forcing.
    Each pair's d_alpha is then a direction v: the adjoint's g . v is checked
    against Im cost(x0 + i h v) / h, one complex cost run in this process,
    with an error relative to max(|g| |v|, GRADCHECK_FLOOR).
    """
    cfg = exp.config
    win = _window(exp, cfg.T_window)
    bs = BoundaryScheme.classical(cfg.J)
    traj = integrate(exp.ic, exp.stencil, bs, win.grid, out=win.storage)
    dz = np.empty_like(win.storage.z)

    rng = np.random.default_rng(DOT_SEED)
    dim = control_dim(cfg.J)
    dot_residuals, directions = [], []
    for _ in range(DOT_PAIRS):
        dalpha = rng.standard_normal(dim)
        directions.append(dalpha)
        fu = rng.standard_normal(traj.u.shape)
        fp = rng.standard_normal(traj.p.shape)
        du, dp = np.hsplit(tlm_run(traj, dalpha, dz), [cfg.N + 1])
        lhs = float((du * fu).sum() + (dp * fp).sum())
        forcing = np.concatenate([fu, fp], axis=1, out=dz[: len(traj.z)])
        del du, dp, fu, fp  # only one pair's fields are alive at a time
        rhs = float(dalpha @ adjoint_sweep(traj, forcing))
        dot_residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    del dz, forcing

    directions = np.array(directions)
    x0 = bs.to_control_vector()
    _, grad = evaluate(x0, win)

    def complex_step(v: np.ndarray) -> float:
        total = cost(x0 + 1j * COMPLEX_STEP * v, win).total
        # A diverged run costs +inf and has no slope: NaN fails the check.
        return total.imag / COMPLEX_STEP if np.isfinite(total) else math.nan

    adjoint = directions @ grad
    stepped = np.array([complex_step(v) for v in directions])
    scale = np.linalg.norm(grad) * np.linalg.norm(directions, axis=1)
    return {
        "dot_residuals": dot_residuals,
        "gradient": grad,
        "adjoint": adjoint,
        "complex_step": stepped,
        "relative_error": np.abs(adjoint - stepped) / np.maximum(scale, GRADCHECK_FLOOR),
        "gradient_norm": float(np.linalg.norm(grad)),
    }


def cmd_gradcheck(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Print and save (gradcheck.json) the checks; exit 2 when an error exceeds GRADCHECK_TOL."""
    exp = setup_experiment(cfg)
    report = _gradient_check(exp)
    print(f"dot-product test over {len(report['dot_residuals'])} random pairs:")
    for i, r in enumerate(report["dot_residuals"]):
        print(f"  pair {i}: relative residual {r:.3e}")
    print(f"gradient norm: {report['gradient_norm']:.6e}")
    print("direction  adjoint g.v        complex step       rel-error")
    for i, (ga, gc, r) in enumerate(
        zip(report["adjoint"], report["complex_step"], report["relative_error"])
    ):
        print(f"{i:9d}  {ga: .10e}  {gc: .10e}  {r:.3e}")
    # np.max keeps a NaN (a complex run diverged), which the test below
    # then fails.
    worst = float(np.max([*report["dot_residuals"], *report["relative_error"]]))
    print(f"worst relative error: {worst:.3e} (tolerance {GRADCHECK_TOL:.1e})")
    record = {key: np.asarray(value).tolist() for key, value in report.items()}
    _write_json(
        out_dir / "gradcheck.json", {**record, "worst": worst, "tolerance": GRADCHECK_TOL}
    )
    if not worst <= GRADCHECK_TOL:
        print("FAILED")
        return 2
    print("ok")
    return 0


def cmd_dispersion(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Speed-error tables over tau/h in (0, 1] plus analytic markers."""
    exp_modes: Sequence[int]
    if cfg.modes is not None:
        exp_modes = sorted({int(k) for k, _, _ in cfg.modes if k >= 1})
    else:
        exp_modes = [2, 3, 5]
    h = GridSpec(cfg.N, cfg.tau, cfg.n_steps).h
    ratios = [i / 20.0 for i in range(1, 21)]
    rows = []
    for k in exp_modes:
        for r in ratios:
            tau = r * h
            rows.append((k, r, analysis.beta2(k, h, tau) - 1.0, analysis.beta4(k, h, tau) - 1.0))
    _write_csv(out_dir / "beta.csv", "k,tau_over_h,beta2_minus_1,beta4_minus_1", *zip(*rows))

    kappa = analysis.second_order_c_singularity(h, cfg.tau)
    markers = {
        "singularity_kappa": kappa,
        "singularity_kappa_over_pi": None if kappa is None else kappa / np.pi,
        "modes": _predictions(exp_modes, cfg.N, cfg.tau),
    }
    _write_json(out_dir / "markers.json", markers)
    return 0


_COMMANDS = {
    "forward": cmd_forward,
    "assimilate": cmd_assimilate,
    "sweep": cmd_sweep,
    "gradcheck": cmd_gradcheck,
    "dispersion": cmd_dispersion,
}


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--out", default=".", help="output directory")
    for f in fields(ExperimentConfig):
        text = "comma-separated k:a:b triples, e.g. '2:1:1,5:1:1'" if f.name == "modes" else None
        sub.add_argument("--" + f.name.replace("_", "-"), type=_field_kind(f)[1], help=text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it leaves reference cycles (argparse makes a help formatter
    per argument), which only a full garbage collection frees; one parser
    per main call grew ten in-process calls by about 0.8 MB.
    """
    parser = argparse.ArgumentParser(
        prog="waveassim",
        description="Boundary-stencil identification experiments for the 1D wave model",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        sub = subparsers.add_parser(name)
        _add_common_options(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        overrides = {key: value for key, value in vars(args).items() if key in _CONFIG_FIELDS}
        if overrides.get("modes") is not None:
            # k:a:b triples; ExperimentConfig checks that each has three values.
            modes = overrides["modes"].split(",")
            overrides["modes"] = [[float(v) for v in m.split(":")] for m in modes]
        cfg = resolve_config(args.preset, args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ValueError, OSError, MemoryError, IntegrationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
