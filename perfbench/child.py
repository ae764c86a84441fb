"""One measurement in a fresh process; prints one JSON object as its last line.

    python3 perfbench/child.py setup SPEC_JSON
    python3 perfbench/child.py run CALLS_JSON OUT_DIR [--trace]

``setup`` times ``import waveassim`` plus ``setup_experiment``, the cost
every CLI call pays before its command starts.  ``run`` times the
workload's ``cli.main(argv)`` calls one after another (interpreter start
and import excluded, output writing included), reads the peak resident
memory, and then checks the outputs of every call.  With ``--trace`` the
calls run under the span recorder and the result carries the spans and
the per-layer metrics derived from them.  The parent sets
OPENBLAS_NUM_THREADS=1 and PYTHONPATH before this process starts, so
numpy comes up with one BLAS thread.

Untraced timings are taken under ``SpeedProbe``, which samples how fast
the processor runs a fixed kernel every PROBE_INTERVAL_S while the
measured code runs.  Each timing is reported twice: as measured
(``*_raw_s``, probe time removed) and rescaled to the speed at which the
kernel takes its reference time.  The rescaled figure cancels most of
the speed swings of a shared host; see perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only; loaded before the timed import)


PROBE_INTERVAL_S = 0.05
MIN_PROBES = 3


def python_probe():
    """Pure-Python loop, for set-up timing, where numpy must not load early."""

    def kernel() -> int:
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        return acc

    return kernel, 4.0e-4


def numpy_probe():
    """Small matvecs over a window-sized array, like one leapfrog sweep.

    It tracks the host's slow spells on the CLI's own kind of work better
    than a pure-Python loop: over ten gradcheck calls the rescaled spread
    was 0.049 with it against 0.084 with ``python_probe``.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, x, y = rng.standard_normal((30, 31)), rng.standard_normal((2400, 31)), np.empty(30)

    def kernel() -> float:
        for t in range(0, 2400, 8):
            np.dot(a, x[t], out=y)
        return float(x[::7].sum())

    return kernel, 6.0e-4


class SpeedProbe:
    """Times a block while sampling processor speed from a timer signal.

    Every PROBE_INTERVAL_S the signal runs ``kernel``, whose duration at
    reference speed is ``reference_s``.  The samples are evenly spaced in
    wall-clock time, so their harmonic mean weights each sample by the
    work done around it: ``elapsed`` times reference_s over that mean is
    the block's time at reference speed.  Probe time inside the block is
    left out of ``elapsed``.
    """

    def __init__(self, probe):
        self._kernel, self._reference_s = probe

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.elapsed = time.perf_counter() - self._start - sum(self.samples)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_PROBES:
            self._sample()
        self.speed = self._reference_s * sum(1.0 / s for s in self.samples) / len(self.samples)
        self.scaled = self.elapsed * self.speed
        return False

    def _sample(self, *_):
        t = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t)


def _import_waveassim():
    import waveassim
    from waveassim import cli

    return waveassim, cli


def _blas_runtime(np) -> dict:
    """BLAS core and thread count as the loaded OpenBLAS reports them."""
    import ctypes
    import glob
    import os

    info = {"threads": None, "config": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libdir, "lib*openblas*.so*"))
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["threads"] = int(threads())
                info["config"] = config().decode()
                return info
    return info


def environment(waveassim) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _blas_runtime(np)
    return {
        "waveassim_file": waveassim.__file__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas.get("openblas configuration") or blas.get("name"),
        "blas_runtime": runtime["config"],
        "blas_threads": runtime["threads"],
    }


def check_fit(out: Path, rc: int) -> tuple[bool, str, dict]:
    if rc != 0:
        return False, f"exit code {rc}", {}
    result = json.loads((out / "result.json").read_text())
    costs = result["cost_history"]
    facts = {"termination": result["termination"], "evaluations": result["n_evaluations"]}
    if any(b > a for a, b in zip(costs, costs[1:])):
        return False, "cost_history increases", facts
    if not costs[-1] < costs[0]:
        return False, f"final cost {costs[-1]} not below initial {costs[0]}", facts
    return True, "", facts


def check_gradcheck(out: Path, rc: int) -> tuple[bool, str, dict]:
    # The CLI exits 2 when any relative error exceeds its 1e-5 tolerance.
    last = (out / "stdout.txt").read_text().rstrip().splitlines()[-1:]
    if rc != 0 or last != ["ok"]:
        return False, f"exit code {rc}, last line {last}", {}
    return True, "", {}


def _read_csv(path: Path) -> list[list[float]]:
    with open(path) as fh:
        next(fh)
        return [[float(v) for v in line.split(",")] for line in fh]


def check_forward(out: Path, rc: int, cli, cfg) -> tuple[bool, str, dict]:
    import math

    import numpy as np
    from waveassim import BoundaryScheme, integrate, xi_series

    if rc != 0:
        return False, f"exit code {rc}", {}
    xi_rows = _read_csv(out / "xi.csv")
    xt_rows = _read_csv(out / "error_xt.csv")
    stride = cfg.xt_stride or max(1, cfg.n_steps // 400)
    n_xt = len(range(0, cfg.n_steps + 1, stride)) * (cfg.N + 1)
    if len(xi_rows) != cfg.n_steps + 1 or len(xt_rows) != n_xt:
        return False, f"row counts {len(xi_rows)}, {len(xt_rows)}", {}
    if not all(math.isfinite(v) for row in xi_rows + xt_rows for v in row):
        return False, "non-finite value in CSV output", {}
    # Independent library call on the same configuration.
    exp = cli.setup_experiment(cfg)
    traj = integrate(exp.ic, exp.stencil, BoundaryScheme.classical(cfg.J), exp.grid)
    times, xi = xi_series(traj, exp.modes)
    want = np.column_stack([times, xi])
    err = (np.abs(np.array(xi_rows) - want).max(axis=0) / np.abs(want).max(axis=0)).max()
    if not err <= 1e-12:
        return False, f"xi.csv differs from the library by {err:.3e} relative", {}
    return True, "", {}


def _call(main, argv: list[str]) -> tuple[int, str]:
    """Exit code of one CLI call, and the error that escaped it, if any.

    An exception out of ``cli.main`` is the CLI's own failure: the
    interpreter would print a traceback and exit 1.  It is recorded as a
    failed call rather than ending the measurement.
    """
    try:
        return main(argv), ""
    except Exception as exc:
        return 1, f"uncaught {type(exc).__name__}: {exc}"


def check(spec: dict, out: Path, rc: int, cli) -> tuple[bool, str, dict]:
    if spec["command"] == "assimilate":
        return check_fit(out, rc)
    if spec["command"] == "gradcheck":
        return check_gradcheck(out, rc)
    return check_forward(out, rc, cli, cli.resolve_config(spec["preset"], None, spec["overrides"]))


def main(args: list[str]) -> int:
    mode = args[0]
    if mode == "setup":
        spec = json.loads(args[1])
        with SpeedProbe(python_probe()) as probe:
            _, cli = _import_waveassim()
            cli.setup_experiment(cli.resolve_config(spec["preset"], None, spec["overrides"]))
        print(json.dumps({"ok": True, "setup_s": probe.scaled, "setup_raw_s": probe.elapsed,
                          "speed": probe.speed}))
        return 0

    import resource

    specs, out = json.loads(args[1]), Path(args[2])
    t0 = time.perf_counter()
    waveassim, cli = _import_waveassim()
    import_s = time.perf_counter() - t0
    outs = [out / f"call{i}" for i in range(len(specs))]
    argvs = [workloads.argv(s) + ["--out", str(o)] for s, o in zip(specs, outs)]
    for o in outs:
        o.mkdir(parents=True, exist_ok=True)

    def call_all(main_fn) -> list[tuple[int, str]]:
        done = []
        for o, argv in zip(outs, argvs):
            with open(o / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
                done.append(_call(main_fn, argv))
        return done

    tracer = None
    if "--trace" in args:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(waveassim)
        start = time.perf_counter()
        done = call_all(tracer.wrap("cli.main", cli.main))
        timing = {"wall_raw_s": time.perf_counter() - start}
        tracer.restore()
    else:
        with SpeedProbe(numpy_probe()) as probe:
            done = call_all(cli.main)
        timing = {"wall_s": probe.scaled, "wall_raw_s": probe.elapsed, "speed": probe.speed}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = []
    for spec, o, (rc, crash) in zip(specs, outs, done):
        ok, why, facts = check(spec, o, rc, cli)
        checked.append({"ok": ok, "why": crash or why, "exit_code": rc, **facts})
    result = {
        "calls": checked,
        **timing,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(waveassim),
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["spans"] = tracer.records()
        result["layers"] = layer_metrics(result["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
