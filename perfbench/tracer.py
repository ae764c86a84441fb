"""Spans around the calls one waveassim module makes into another.

``Tracer.install`` rebinds the public names listed in ``TRACED`` to
wrappers that record one span per call: name, start, end, parent span
and a few call facts (levels integrated, whether the run diverged, the
minimizer's outcome).  Nothing in the package itself changes; the
original functions are put back by ``restore``.  Spans stay in memory;
``layer_metrics`` turns them into per-layer counts, busy times and self
times after the traced call has returned.
"""

from __future__ import annotations

import statistics
import time

# (module holding the name, name) -> span name.  A span is named after the
# module that defines the function, so `cli.integrate` and
# `objective.integrate` both record `wave.integrate`.
TRACED = {
    ("cli", "setup_experiment"): "cli.setup_experiment",
    ("cli", "sample_observations"): "exact.sample_observations",
    ("cli", "lbfgs"): "minimize.lbfgs",
    ("cli", "evaluate"): "objective.evaluate",
    ("cli", "integrate"): "wave.integrate",
    ("cli", "tlm_run"): "adjoint.tlm_run",
    ("cli", "adjoint_sweep"): "adjoint.adjoint_sweep",
    ("objective", "evaluate"): "objective.evaluate",
    ("objective", "integrate"): "wave.integrate",
    ("objective", "misfit_gradient"): "adjoint.misfit_gradient",
    ("analysis", "xi_series"): "analysis.xi_series",
}

LAYERS = ("cli", "exact", "wave", "adjoint", "objective", "minimize", "analysis")

# Percentiles tried for the evaluation-time tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _integrate_facts(args, kwargs, result, exc):
    if exc is not None:
        # IntegrationDiverged carries the level at which the check tripped.
        return {"levels": int(getattr(exc, "step", 0)), "diverged": 1}
    return {"levels": _arg(args, kwargs, 3, "grid").n_steps, "diverged": 0}


def _trajectory_facts(args, kwargs, result, exc):
    return {"levels": _arg(args, kwargs, 0, "traj").n_steps}


def _make_evaluate_facts(penalty):
    def facts(args, kwargs, result, exc):
        return {"penalty": int(exc is None and result[0].total >= penalty)}

    return facts


def _lbfgs_facts(args, kwargs, result, exc):
    if exc is not None:
        return {}
    g = result.grad_norm_history
    return {
        "iterations": result.n_iterations,
        "evaluations": result.n_evaluations,
        "converged": int(result.termination == "gradient"),
        "grad_ratio": float(g[-1] / g[0]) if g[0] > 0 else 0.0,
    }


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, facts]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, facts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if facts is not None:
                    span[4] = facts(args, kwargs, result, exc)

        return traced

    def install(self, package) -> None:
        """Rebind every name in TRACED inside the imported ``package``."""
        from importlib import import_module

        objective = import_module(package.__name__ + ".objective")
        facts = {
            "wave.integrate": _integrate_facts,
            "adjoint.misfit_gradient": _trajectory_facts,
            "adjoint.tlm_run": _trajectory_facts,
            "adjoint.adjoint_sweep": _trajectory_facts,
            "objective.evaluate": _make_evaluate_facts(objective.BLOWUP_PENALTY),
            "minimize.lbfgs": _lbfgs_facts,
        }
        for (module_name, attr), span_name in TRACED.items():
            module = import_module(f"{package.__name__}.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, facts.get(span_name)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, **(f or {})}
            for n, s, e, p, f in self.spans
        ]


def self_times(records: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [r["end"] - r["start"] for r in records]
    for r in records:
        if r["parent"] is not None:
            own[r["parent"]] -= r["end"] - r["start"]
    return own


def _percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 0.0


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer counts, busy times and self times from one traced CLI call."""
    own = self_times(records)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for r, s in zip(records, own):
        layer_self[r["name"].split(".")[0]] += s

    def calls(name):
        return [r for r in records if r["name"] == name]

    def busy(rs):
        return sum(r["end"] - r["start"] for r in rs)

    integ = calls("wave.integrate")
    grads = calls("adjoint.misfit_gradient")
    tlm = calls("adjoint.tlm_run")
    sweeps = calls("adjoint.adjoint_sweep")
    evals = calls("objective.evaluate")
    fits = calls("minimize.lbfgs")
    obs = calls("exact.sample_observations")
    xis = calls("analysis.xi_series")

    levels = sum(r["levels"] for r in integ)
    adj_levels = sum(r["levels"] for r in grads + tlm + sweeps)
    eval_ms = [1e3 * (r["end"] - r["start"]) for r in evals]
    tail = tail_percentile(len(eval_ms))
    iterations = sum(r.get("iterations", 0) for r in fits)
    evaluations = sum(r.get("evaluations", 0) for r in fits)
    return {
        "cli.self_s": layer_self["cli"],
        "exact.sample_observations_calls": len(obs),
        "exact.sample_observations_s": busy(obs),
        "wave.integrate_calls": len(integ),
        "wave.levels": levels,
        "wave.integrate_s": busy(integ),
        "wave.us_per_level": 1e6 * busy(integ) / levels if levels else 0.0,
        "wave.diverged": sum(r["diverged"] for r in integ),
        "adjoint.misfit_gradient_calls": len(grads),
        "adjoint.misfit_gradient_s": busy(grads),
        "adjoint.tlm_run_calls": len(tlm),
        "adjoint.tlm_run_s": busy(tlm),
        "adjoint.adjoint_sweep_calls": len(sweeps),
        "adjoint.adjoint_sweep_s": busy(sweeps),
        "adjoint.levels": adj_levels,
        "adjoint.us_per_level": 1e6 * layer_self["adjoint"] / adj_levels if adj_levels else 0.0,
        "objective.evaluate_calls": len(evals),
        "objective.evaluate_ms_p50": statistics.median(eval_ms) if eval_ms else 0.0,
        "objective.evaluate_ms_tail": _percentile(eval_ms, tail) if eval_ms else 0.0,
        "objective.evaluate_tail_pct": tail,
        "objective.self_s": layer_self["objective"],
        "objective.penalty_ratio": (
            sum(r["penalty"] for r in evals) / len(evals) if evals else 0.0
        ),
        "minimize.lbfgs_calls": len(fits),
        "minimize.iterations": iterations,
        "minimize.evaluations": evaluations,
        "minimize.evals_per_iteration": evaluations / iterations if iterations else 0.0,
        "minimize.grad_ratio": (
            statistics.median(r.get("grad_ratio", 0.0) for r in fits) if fits else 0.0
        ),
        "minimize.converged_ratio": (
            sum(r.get("converged", 0) for r in fits) / len(fits) if fits else 0.0
        ),
        "minimize.self_s": layer_self["minimize"],
        "analysis.xi_series_calls": len(xis),
        "analysis.xi_series_s": busy(xis),
        "trace.spans": len(records),
        "trace.self_sum_s": sum(layer_self.values()),
    }
