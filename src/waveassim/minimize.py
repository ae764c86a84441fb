"""Limited-memory quasi-Newton minimizer.

Self-contained L-BFGS: two-loop recursion with s'y/y'y scaling of the
initial inverse Hessian, and a strong-Wolfe line search (bracketing plus
cubic-interpolation zoom).  A non-finite function value marks an
infeasible step, so an objective that returns +inf inside an unstable
parameter region is simply backtracked out of.  Everything is
deterministic: identical inputs give bitwise identical iterates on one
machine, BLAS build and BLAS thread count; another BLAS or thread count
may round the objective differently and move the iterates (a fit at
OPENBLAS_NUM_THREADS=1 and at 2 ends at different coefficients).

Six module constants set the method: MEMORY curvature pairs, at most
MAX_ITERS iterations, the relative gradient tolerance GRAD_TOL, the
strong-Wolfe constants C1 and C2, and MAX_LINE_SEARCH trials per
expansion or zoom.  Every fit uses these values; the functions read them
when they run, so a test patches them on the module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OptimResult", "lbfgs", "wolfe_line_search"]

MEMORY = 8
MAX_ITERS = 500
GRAD_TOL = 1e-8
C1 = 1e-4
C2 = 0.9
MAX_LINE_SEARCH = 30


@dataclass(frozen=True)
class OptimResult:
    x: np.ndarray
    f: float
    cost_history: np.ndarray
    grad_norm_history: np.ndarray
    n_evaluations: int
    n_iterations: int
    termination: str  # "gradient" | "max_iters" | "line_search_failed"


def _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi):
    """Minimizer of the cubic through (a_lo, f_lo, d_lo), (a_hi, f_hi, d_hi), or None."""
    if a_lo == a_hi or not math.isfinite(f_hi):
        return None
    d1 = d_lo + d_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
    disc = d1 * d1 - d_lo * d_hi
    if disc < 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), a_hi - a_lo)
    denom = d_hi - d_lo + 2.0 * d2
    if denom == 0.0:
        return None
    step = a_hi - (a_hi - a_lo) * (d_hi + d2 - d1) / denom
    return step if math.isfinite(step) else None


def wolfe_line_search(phi: Callable, f0: float, dphi0: float):
    """Strong-Wolfe step along a descent direction.

    ``phi(a)`` must return (f, dphi, payload) at x + a*d; payload is handed
    back untouched so callers keep the gradient of the accepted point.
    Returns (a, f, dphi, payload) or None when no acceptable step is found.
    Non-finite values (an objective's infeasible region) always fail
    sufficient decrease and are never interpolated through.
    """
    if dphi0 >= 0.0:
        raise ValueError(f"line search needs a descent direction, got slope {dphi0}")

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi):
        # Invariant: a_lo satisfies sufficient decrease and is the best such
        # point; the interval [a_lo, a_hi] brackets an acceptable step.
        best = None
        for _ in range(MAX_LINE_SEARCH):
            a = _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            width = hi - lo
            if a is None or not (lo + 0.1 * width <= a <= hi - 0.1 * width):
                a = 0.5 * (lo + hi)
            if width <= 1e-14 * max(1.0, abs(a_lo)):
                return best
            f, d, payload = phi(a)
            if not math.isfinite(f) or f > f0 + C1 * a * dphi0 or f >= f_lo:
                a_hi, f_hi, d_hi = a, f, d
            else:
                if abs(d) <= -C2 * dphi0:
                    return a, f, d, payload
                best = (a, f, d, payload)
                if d * (a_hi - a_lo) >= 0.0:
                    a_hi, f_hi, d_hi = a_lo, f_lo, d_lo
                a_lo, f_lo, d_lo = a, f, d
        return best

    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = 1.0  # the unit step of a quasi-Newton direction
    for i in range(MAX_LINE_SEARCH):
        f, d, payload = phi(a)
        if not math.isfinite(f) or f > f0 + C1 * a * dphi0 or (i > 0 and f >= f_prev):
            return zoom(a_prev, f_prev, d_prev, a, f, d)
        if abs(d) <= -C2 * dphi0:
            return a, f, d, payload
        if d >= 0.0:
            return zoom(a, f, d, a_prev, f_prev, d_prev)
        a_prev, f_prev, d_prev, payload_prev = a, f, d, payload
        a *= 2.0
    # Slope stayed negative and finite for every expanded step: accept the
    # last sufficient-decrease point rather than discarding the progress.
    return a_prev, f_prev, d_prev, payload_prev


def _two_loop(g, history):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    s, y, _ = history[-1]
    q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def lbfgs(f_and_grad: Callable, x0: np.ndarray) -> OptimResult:
    """Minimize f via L-BFGS; f_and_grad(x) returns (f, grad).

    Stops when ||g|| <= GRAD_TOL * max(1, ||g0||), after MAX_ITERS, or when the
    line search cannot make progress (reported in ``termination``, never
    raised).  The cost history only records accepted iterates, so it is
    non-increasing by construction.
    """
    x = np.array(x0, dtype=float).ravel()
    n_evals = 0

    def fg(z):
        nonlocal n_evals
        n_evals += 1
        f, g = f_and_grad(z)
        return float(f), np.asarray(g, dtype=float)

    f, g = fg(x)
    g0_norm = float(np.linalg.norm(g))
    costs = [f]
    gnorms = [g0_norm]
    history: deque = deque(maxlen=MEMORY)
    termination = "max_iters"
    iters = 0

    for _ in range(MAX_ITERS):
        if gnorms[-1] <= GRAD_TOL * max(1.0, g0_norm):
            termination = "gradient"
            break
        d = -_two_loop(g, history) if history else -g
        slope = float(d @ g)
        if slope >= 0.0:
            # Curvature information went stale; restart from steepest descent.
            history.clear()
            d = -g
            slope = -float(g @ g)

        def phi(a, x=x, d=d):
            fa, ga = fg(x + a * d)
            # A gradient near the float range (a huge penalty) gives a
            # non-finite slope, which the line search bisects past, silently.
            with np.errstate(over="ignore", invalid="ignore"):
                return fa, float(ga @ d), ga

        hit = wolfe_line_search(phi, f, slope)
        if hit is None:
            termination = "line_search_failed"
            break
        a, f_new, _, g_new = hit
        s = a * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
        x = x + s
        f, g = f_new, g_new
        costs.append(f)
        gnorms.append(float(np.linalg.norm(g)))
        iters += 1
    else:
        if gnorms[-1] <= GRAD_TOL * max(1.0, g0_norm):
            termination = "gradient"

    return OptimResult(
        x=x,
        f=f,
        cost_history=np.array(costs),
        grad_norm_history=np.array(gnorms),
        n_evaluations=n_evals,
        n_iterations=iters,
        termination=termination,
    )
