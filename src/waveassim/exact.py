"""Closed-form solutions of the wave system and twin-experiment observations.

With u(0) = u(1) = 0 the solution separates into trigonometric modes: for
mode number k >= 1 the spatial shapes are sin(k*pi*x) for u and
cos(k*pi*x) for p, and the time factors rotate with angular frequency
k*pi.  A k = 0 entry represents the steady component (u = 0, p constant)
that a p initial condition with nonzero mean requires; the cosine series
over k >= 1 alone cannot carry it.

Observations for assimilation are these exact solutions sampled on the
model grid at every leapfrog level, in the stacked (levels, 2N+1) layout
of the model trajectory, so every misfit in a twin experiment is
attributable to the numerics and compares the two arrays row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .wave import GridSpec

__all__ = [
    "ModeSpec",
    "exact_fields",
    "mode_shapes",
    "mode_time_factors",
    "project_initial",
    "sample_observations",
]


@dataclass(frozen=True)
class ModeSpec:
    """One trigonometric mode: u0 += a*sin(k*pi*x), p0 += b*cos(k*pi*x)."""

    k: int
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"mode number must be non-negative, got k = {self.k}")
        if self.k == 0 and self.a != 0.0:
            raise ValueError("the steady k = 0 mode has no u component; set a = 0")


def mode_time_factors(mode: ModeSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """Time factors (f, g) with u = f(t) sin(k pi x), p = g(t) cos(k pi x)."""
    wt = mode.k * np.pi * np.asarray(t, dtype=float)
    c, s = np.cos(wt), np.sin(wt)
    return mode.a * c - mode.b * s, mode.b * c + mode.a * s


def mode_shapes(modes: Sequence[ModeSpec], grid: GridSpec) -> np.ndarray:
    """Stacked spatial shapes of each mode, shape (len(modes), 2, 2N+1).

    Row 0 is the u shape sin(k pi x) on the nodes, row 1 the p shape
    cos(k pi x) on the half-nodes, each zero on the other field's columns.
    """
    N = grid.N
    shapes = np.zeros((len(modes), 2, 2 * N + 1))
    for shape, mode in zip(shapes, modes):
        w = mode.k * np.pi
        shape[0, : N + 1] = np.sin(w * grid.x_nodes)
        shape[1, N + 1 :] = np.cos(w * grid.x_half)
    return shapes


def exact_fields(
    modes: Sequence[ModeSpec], grid: GridSpec, times, shapes=None, out=None
) -> np.ndarray:
    """Exact stacked rows z = (u, p) at the given times; each row depends on its time alone.

    A caller that evaluates many chunks of times passes the ``mode_shapes``
    once and ``out``, (times.size, 2N+1) storage that the rows overwrite.
    """
    N = grid.N
    shapes = mode_shapes(modes, grid) if shapes is None else shapes
    Z = np.empty((times.size, 2 * N + 1)) if out is None else out
    Z.fill(0.0)
    # Each entry of (f, g) @ shape has one nonzero term, so it is exactly
    # f*sin or g*cos in any BLAS; the modes add up in their given order.
    for mode, shape in zip(modes, shapes):
        Z += np.column_stack(mode_time_factors(mode, times)) @ shape
    # sin(k pi) is exactly zero analytically; clear the rounding residue so
    # the stored fields satisfy the boundary condition identically.
    Z[:, 0] = 0.0
    Z[:, N] = 0.0
    return Z


def sample_observations(modes: Sequence[ModeSpec], grid: GridSpec) -> np.ndarray:
    """The exact stacked state at every leapfrog level, shape (n_steps+1, 2N+1)."""
    return exact_fields(modes, grid, grid.times)


def _composite_gauss(f: Callable, n_panels: int) -> float:
    """Integral of f over [0, 1] by composite 16-point Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return float(w @ np.asarray(f(x), dtype=float))


def project_initial(u0: Callable, p0: Callable, k_max: int) -> list[ModeSpec]:
    """Expand initial data in the modal basis.

    a_k = 2 * int u0(x) sin(k pi x) dx and b_k = 2 * int p0(x) cos(k pi x) dx
    for k = 1..k_max, after the steady component (0, 0, int p0 dx) that
    starts the list.  u0 and p0 must accept array arguments.
    Quadrature is composite Gauss-Legendre on max(8, k_max) panels, enough
    to resolve mode k_max to machine accuracy for smooth integrands.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    n_panels = max(8, k_max)
    modes = [ModeSpec(0, 0.0, _composite_gauss(p0, n_panels))]
    for k in range(1, k_max + 1):
        w = k * np.pi
        a_k = 2.0 * _composite_gauss(lambda x: u0(x) * np.sin(w * x), n_panels)
        b_k = 2.0 * _composite_gauss(lambda x: p0(x) * np.cos(w * x), n_panels)
        modes.append(ModeSpec(k, a_k, b_k))
    return modes
