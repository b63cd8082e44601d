"""Quantitative instruments: Hölder norm estimators and conservation ledgers.

The Hölder quantities are finite-pair suprema over the points of the run's
space-time grid, an ``(M+1, N)`` array of values on a ``ParameterGrid``,
hence lower bounds of the continuum norms; every asserted property uses
only directions valid for lower bounds.  Spatial separation is measured by
chart arc length (an upper bound of the chord, biasing the quotients down),
time separation by the square-root parabolic scale.  The ledgers read a
trajectory with the ``Propagator`` that computed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import Propagator
from .fields import ParameterGrid, _require_shape
from .surfaces import (
    GeometryFrame,
    SurfaceFamily,
    build_frame,
    second_tangential_derivative,
    tangential_gradient,
)
from .tables import write_csv

@dataclass(frozen=True)
class HolderEstimate:
    """Lower-bound estimates of the parabolic Hölder norms."""

    alpha: float
    sup_norm: float
    holder_coefficient: float
    time_holder: float
    norm_alpha: float
    norm_1_alpha: float
    norm_2_alpha: float


def _arc_coordinates(frame: GeometryFrame, dtheta: float) -> tuple[np.ndarray, float]:
    seg = 0.5 * (frame.speed + np.roll(frame.speed, -1)) * dtheta
    s = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return s, float(np.sum(seg))


def _holder_sups(
    values: np.ndarray,  # (L, N) or (L, N, C)
    s: np.ndarray,
    length: float,
    times: np.ndarray,
    alpha: float,
) -> tuple[float, float]:
    """Exact (space-time, time) Hölder sups of `values` over every pair of grid points.

    The space-time quotient divides the norm of the difference by
    max(arc distance, sqrt|dt|)^alpha over pairs at positive distance; the
    time quotient compares one node across two levels with |dt|^((1+alpha)/2).
    Each level is compared with itself and every later level as one
    (L-a, N, N) array of difference norms, summed one component at a time,
    whose same-node diagonal gives the time pairs, so the cost is
    O(L^2 N^2 C) time and O(L N^2) memory; the `holder` scenario caps its
    grid at 64 nodes and 33 levels.
    """
    n_levels, n_nodes = values.shape[0], values.shape[1]
    flat = values.reshape(n_levels, n_nodes, -1)
    gap = np.abs(s[:, None] - s[None, :])
    d_space = np.minimum(gap, length - gap)
    space_time = time_sup = 0.0
    for a in range(n_levels):
        diffs = np.sqrt(sum((flat[a, :, None, c] - flat[a:, None, :, c]) ** 2
                            for c in range(flat.shape[2])))  # (L-a, N, N)
        d_time = np.abs(times[a:] - times[a])
        dist = np.maximum(d_space, np.sqrt(d_time)[:, None, None])
        mask = dist > 0.0
        space_time = max(space_time, float(np.max(diffs[mask] / dist[mask] ** alpha, initial=0.0)))
        same_node = np.diagonal(diffs[1:], axis1=1, axis2=2)  # (L-a-1, N)
        denom = d_time[1:, None] ** (0.5 * (1.0 + alpha))
        time_sup = max(time_sup, float(np.max(same_node / denom, initial=0.0)))
    return space_time, time_sup


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time differencing of a (M+1, N) trajectory, M >= 4."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def holder_estimate(values: np.ndarray, grid: ParameterGrid, surface: SurfaceFamily,
                    alpha: float) -> HolderEstimate:
    """Parabolic Hölder norms of the (M+1, N) nodal `values` on the levels
    and nodes of `grid`, the run's space-time grid.

    The suprema are exact over every pair of grid points, hence lower bounds
    of the continuum norms; one sweep per quantity (the values, their
    gradient, the Hessian and f_t) costs O(M^2 N^2) (see `_holder_sups`).
    A time-constant field gives the single slice's spatial sups exactly: a
    pair across levels has the same difference at a greater distance.  The
    gradient-bearing norms discretize the tangential derivatives first.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    n_levels, n_nodes, times = grid.n_steps + 1, grid.n_nodes, grid.times
    values = _require_shape(values, (n_levels, n_nodes), "values")
    frame0 = build_frame(surface, grid, 0.0)
    s, length = _arc_coordinates(frame0, grid.dtheta)

    sup_norm = float(np.max(np.abs(values)))
    h_alpha, time_h = _holder_sups(values, s, length, times, alpha)

    grad = np.stack([tangential_gradient(frame0, values[k]) for k in range(n_levels)])
    grad_sup = float(np.max(np.abs(grad)))
    grad_h, grad_time_h = _holder_sups(grad, s, length, times, alpha)

    hess = np.stack([second_tangential_derivative(frame0, grad[k]).reshape(n_nodes, 4)
                     for k in range(n_levels)])
    hess_h, _ = _holder_sups(hess, s, length, times, alpha)
    hess_sup = float(np.max(np.abs(hess)))

    f_t = _time_derivative(values, grid.dt)
    ft_sup = float(np.max(np.abs(f_t)))
    ft_h, _ = _holder_sups(f_t, s, length, times, alpha)

    return HolderEstimate(
        alpha=alpha,
        sup_norm=sup_norm,
        holder_coefficient=h_alpha,
        time_holder=time_h,
        norm_alpha=sup_norm + h_alpha,
        norm_1_alpha=sup_norm + time_h + grad_sup + grad_h,
        norm_2_alpha=sup_norm + grad_sup + grad_time_h + hess_sup + hess_h + ft_sup + ft_h,
    )


def interpolation_check(
    estimate: HolderEstimate, eps_list: list[float]
) -> list[tuple[float, float, float]]:
    """Evaluate both sides of the interpolation inequality per epsilon from
    one `holder_estimate` result.

    Returns (eps, lhs, rhs) with lhs the alpha-norm estimate and
    rhs = eps^(1-alpha) * |f|_{2+alpha} + (2/eps^alpha) * |f|_0, following
    the near/far pair split.  No violations are expected.
    """
    alpha = estimate.alpha
    return [
        (eps, estimate.norm_alpha,
         eps ** (1.0 - alpha) * estimate.norm_2_alpha + 2.0 / eps**alpha * estimate.sup_norm)
        for eps in eps_list
    ]


@dataclass(frozen=True)
class MassSeries:
    """Mass per level, forcing integrals, and per-step conservation defects."""

    times: np.ndarray
    masses: np.ndarray
    forcing_integrals: np.ndarray
    defects: np.ndarray

    def write_csv(self, path) -> str:
        """One row per level (the last has no step, so no defect); returns the SHA-256."""
        n_levels = self.times.shape[0]
        defects = np.full(n_levels, np.nan)
        defects[: self.defects.shape[0]] = self.defects
        return write_csv(
            path,
            ["level", "mass", "forcing_integral", "defect"],
            [np.arange(n_levels), self.masses, self.forcing_integrals, defects],
        )


def mass_ledger(trajectory: np.ndarray, prop: Propagator) -> MassSeries:
    """Per-level masses and the scheme-matched conservation defects of an
    (M+1, N) trajectory of `prop`, read with its geometry, theta and forcing
    integrals.

    A step is charged with the theta-weighted forcing integrals of its two
    levels, (1 - theta) F_k + theta F_k+1; the defect of the divergence
    zero-order mode is then round-off by construction.
    """
    geometry, grid, theta = prop.geometry, prop.grid, prop.config.theta
    trajectory = _require_shape(trajectory, (grid.n_steps + 1, grid.n_nodes), "trajectory")
    masses = geometry.integrals(trajectory)
    f_int = prop.forcing_integrals
    if f_int is None:
        f_int = np.zeros(grid.n_steps + 1)
    charge = (1.0 - theta) * f_int[:-1] + theta * f_int[1:]
    defects = masses[1:] - masses[:-1] + grid.dt * charge
    return MassSeries(grid.times, masses, f_int, defects)


def compatibility_check(prop: Propagator) -> float:
    """Space-time integral of the forcing of `prop`: the trapezoid rule in
    time over its per-level forcing integrals; near zero is necessary for
    strict periodicity."""
    if prop.forcing_integrals is None:
        return 0.0
    return prop.geometry.time_integral(prop.forcing_integrals)
