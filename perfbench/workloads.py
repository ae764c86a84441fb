"""Seeded workload generator: the waveassim CLI calls of one workload.

``calls(name, seed)`` draws the mode amplitudes from ``seed`` and returns
one spec per CLI call: the command, preset and config overrides.
``argv(spec)`` renders the exact command line, which every result
records so a run can be replayed by hand.  All workloads run on N = 30
with tau = 1/120.
"""

from __future__ import annotations

import random

# The first three are the checked set in BENCHMARK.json, where each has
# its reason.  The last two run by hand only (see perfbench/README.md):
# fit-ill ends in an uncaught IntegrationDiverged on some seeds, and the
# time of one fit-long call varies about 2x from seed to seed.
WORKLOADS = ("fit", "gradcheck", "forward", "fit-ill", "fit-long")

# Single-mode fits per run of `fit`.  One fit takes 41-90 evaluations
# depending on its amplitudes; the run times them all, which averages
# that spread down.
FIT_CALLS = 10


def _rich_spectrum(rng: random.Random) -> list[list[float]]:
    return [[k, rng.uniform(-1.0, 1.0) / k, rng.uniform(-1.0, 1.0) / k] for k in range(1, 13)]


def _single_mode(rng: random.Random) -> list[list[float]]:
    return [[3, rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]]


def calls(name: str, seed: int) -> list[dict]:
    """Command, preset and config overrides of each CLI call of a workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    if name == "fit":
        return [
            {"command": "assimilate", "preset": "single-mode-second",
             "overrides": {"modes": _single_mode(rng)}}
            for _ in range(FIT_CALLS)
        ]
    return [_one_call(name, rng)]


def _one_call(name: str, rng: random.Random) -> dict:
    if name == "fit-long":
        modes = [[k, rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)] for k in (2, 5)]
        return {"command": "assimilate", "preset": "two-modes", "overrides": {"modes": modes}}
    if name == "fit-ill":
        overrides = {"modes": _rich_spectrum(rng), "n_steps": 9600, "J": 4, "eta": 10.0, "T_window": 6.0}
        return {"command": "assimilate", "preset": None, "overrides": overrides}
    if name == "gradcheck":
        overrides = {"modes": _rich_spectrum(rng), "n_steps": 9600, "J": 4, "T_window": 20.0}
        return {"command": "gradcheck", "preset": None, "overrides": overrides}
    return {"command": "forward", "preset": "single-mode-second",
            "overrides": {"modes": _single_mode(rng)}}


_FLAGS = {"n_steps": "--n-steps", "J": "--J", "eta": "--eta", "T_window": "--T-window"}


def argv(s: dict) -> list[str]:
    """The CLI argument list for a spec (without --out)."""
    out = [s["command"]]
    if s["preset"] is not None:
        out += ["--preset", s["preset"]]
    for key, value in s["overrides"].items():
        if key == "modes":
            out += ["--modes", ",".join(f"{int(k)}:{a!r}:{b!r}" for k, a, b in value)]
        else:
            out += [_FLAGS[key], repr(value)]
    return out
