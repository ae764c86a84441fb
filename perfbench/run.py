"""waveassim benchmark: one CLI workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload fit-ill --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh single-threaded child process
(perfbench/child.py), one child at a time.  A repetition is one child
that makes the workload's CLI calls one after another.  With
``--trace 0`` the run repeats while the time budget allows (at least
once), sets up the experiment SETUP_SAMPLES times around the
repetitions, checks every call's outputs, and reports the end-to-end
metrics as medians over repetitions.
With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones plus the tracing
overhead.  A readable report and the environment come first; the last
line of standard output is the JSON result.  The full record, with the
exact argv, every repetition and the spans, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit; every value comes from tracer.layer_metrics
# except the three trace.* figures computed here.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "exact.sample_observations_calls": "count",
    "exact.sample_observations_s": "s",
    "wave.integrate_calls": "count",
    "wave.levels": "count",
    "wave.integrate_s": "s",
    "wave.us_per_level": "us",
    "wave.diverged": "count",
    "adjoint.misfit_gradient_calls": "count",
    "adjoint.misfit_gradient_s": "s",
    "adjoint.tlm_run_calls": "count",
    "adjoint.tlm_run_s": "s",
    "adjoint.adjoint_sweep_calls": "count",
    "adjoint.adjoint_sweep_s": "s",
    "adjoint.levels": "count",
    "adjoint.us_per_level": "us",
    "objective.evaluate_calls": "count",
    "objective.evaluate_ms_p50": "ms",
    "objective.evaluate_ms_tail": "ms",
    "objective.self_s": "s",
    "objective.penalty_ratio": "ratio",
    "minimize.lbfgs_calls": "count",
    "minimize.iterations": "count",
    "minimize.evaluations": "count",
    "minimize.evals_per_iteration": "ratio",
    "minimize.grad_ratio": "ratio",
    "minimize.converged_ratio": "ratio",
    "minimize.self_s": "s",
    "analysis.xi_series_calls": "count",
    "analysis.xi_series_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# The traced wall time must equal the sum of the per-layer self times.
SELF_SUM_TOLERANCE = 0.01



def child_env() -> dict:
    """One BLAS thread, the checkout's sources, and the usual bytecode cache."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_child(args: list[str]) -> dict:
    """Run child.py to completion and return its JSON result.

    A child that crashes or prints no result yields ``ok: False`` with the
    tail of its standard error; it has no timings and no checked calls.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        why = f"child exited {proc.returncode}: {proc.stderr.strip()[-1000:]}"
        return {"ok": False, "why": why}
    return json.loads(lines[-1])


def measure(specs: list[dict], seconds: float, trace: bool, work: Path) -> dict:
    """All child runs of one benchmark run, within the time budget.

    A repetition is one child making every call in ``specs``, or an
    untraced plus a traced child in trace mode.  Another starts only if the median repetition so far
    still fits in the remaining budget; there is always at least one.
    Half the set-up samples come before the repetitions and half after,
    so that one slow spell of the host does not cover all of them.
    """
    spec_json, calls_json = json.dumps(specs[0]), json.dumps(specs)
    n_setups = 0 if trace else SETUP_SAMPLES
    start = time.perf_counter()
    setups = [run_child(["setup", spec_json]) for _ in range(n_setups // 2)]
    reps, durations = [], []
    while not reps or statistics.median(durations) <= seconds - (time.perf_counter() - start):
        t = time.perf_counter()
        out = work / f"rep{len(reps)}"
        rep = {"plain": run_child(["run", calls_json, str(out)])}
        if trace:
            rep["traced"] = run_child(["run", calls_json, str(out), "--trace"])
        shutil.rmtree(out, ignore_errors=True)
        reps.append(rep)
        durations.append(time.perf_counter() - t)
    setups += [run_child(["setup", spec_json]) for _ in range(n_setups - n_setups // 2)]
    return {"setups": setups, "reps": reps}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def samples_of(runs: dict, trace: bool) -> tuple[dict[str, list[float]], list[str]]:
    """Metric samples of every repetition that produced timings, and problems found.

    Besides the reported metrics, the samples hold the timings as
    measured (``*_raw``) and the probe speed, for the report and record.
    """
    problems = []
    reps = [r for r in runs["reps"] if all("wall_raw_s" in c for c in r.values())]
    if not trace:
        setups = [s for s in runs["setups"] if s["ok"]]
        return {
            "wall_s": [r["plain"]["wall_s"] for r in reps],
            "setup_s": [s["setup_s"] for s in setups],
            "peak_rss_mb": [r["plain"]["peak_rss_mb"] for r in reps],
            "wall_raw_s": [r["plain"]["wall_raw_s"] for r in reps],
            "setup_raw_s": [s["setup_raw_s"] for s in setups],
            "speed_during_wall": [r["plain"]["speed"] for r in reps],
            "speed_during_setup": [s["speed"] for s in setups],
        }, problems
    samples: dict[str, list[float]] = {}
    for r in reps:
        plain, traced = r["plain"], r["traced"]
        wall = traced["wall_raw_s"]
        layers = dict(traced["layers"])
        if abs(layers["trace.self_sum_s"] - wall) > SELF_SUM_TOLERANCE * wall:
            problems.append(
                f"layer self times sum to {layers['trace.self_sum_s']:.4f} s, "
                f"traced wall time is {wall:.4f} s"
            )
        layers["cli.import_s"] = traced["import_s"]
        layers["trace.wall_s"] = wall
        layers["trace.untraced_wall_s"] = plain["wall_raw_s"]
        layers["trace.overhead_s"] = wall - plain["wall_raw_s"]
        for key, value in layers.items():
            samples.setdefault(key, []).append(value)
    return samples, problems


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "waveassim" / "__init__.py").is_file():
        print(f"error: no waveassim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    specs = workloads.calls(args.workload, args.seed)
    trace = bool(args.trace)
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runs = measure(specs, args.seconds, trace, work)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = [c for r in runs["reps"] for c in r.values()]
    # A child that printed no result counts as every one of its calls failing.
    calls = [call for c in children for call in c.get("calls", [c] * len(specs))]
    failed = [call for call in calls if not call["ok"]]
    samples, problems = samples_of(runs, trace)
    units = PER_LAYER if trace else END_TO_END
    if any(not samples.get(key) for key in units):
        for c in failed + [s for s in runs["setups"] if not s["ok"]]:
            print(f"error: {c['why']}", file=sys.stderr)
        print("error: no usable measurement", file=sys.stderr)
        return 1
    metrics = {k: {"value": statistics.median(samples[k]), "unit": u} for k, u in units.items()}

    env = next(c["environment"] for c in children if "environment" in c)
    for c in children:
        if "environment" in c and not c["environment"]["waveassim_file"].startswith(f"{ROOT}{os.sep}"):
            problems.append(f"waveassim imported from {c['environment']['waveassim_file']}")
    problems += sorted({c["why"] for c in failed + runs["setups"] if not c["ok"]})
    env = dict(
        env,
        python=platform.python_version(),
        cpu=cpu_model(),
        nproc=len(os.sched_getaffinity(0)),
        blas_threads_env=child_env()["OPENBLAS_NUM_THREADS"],
    )
    cli_argvs = [["waveassim", *workloads.argv(s)] for s in specs]
    fits = [c for c in calls if "termination" in c]

    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "argv": cli_argvs, "environment": env,
             "metrics": metrics, "samples": samples, "problems": problems, "runs": runs},
            fh,
        )

    print(f"workload {args.workload}, seed {args.seed}, {len(specs)} CLI call(s) per repetition:")
    for cli_argv in cli_argvs:
        print(f"  {' '.join(cli_argv)} --out DIR")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "waveassim_file"))
    print(f"runs: {len(children)} repetitions, {len(calls)} CLI calls, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(calls):g})")
    if fits:
        converged = sum(c["termination"] == "gradient" for c in fits)
        print(f"converged_ratio {converged / len(fits):g} ({converged} of {len(fits)} fits "
              f"ended on the gradient test; terminations: {sorted({c['termination'] for c in fits})})")
    for key, values in samples.items():
        q1, q2, q3 = quartiles(values)
        unit = units.get(key, "")
        print(f"  {key:34s} median {q2:<12.6g} {unit:6s} q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values)}")
    for p in problems:
        print(f"problem: {p}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
