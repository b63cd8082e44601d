"""Quantitative instruments: Hölder norm estimators and conservation ledgers.

The Hölder quantities are finite-pair suprema over grid points, hence lower
bounds of the continuum norms; every asserted property uses only directions
valid for lower bounds.  Spatial separation is measured by chart arc length
(an upper bound of the chord, biasing the quotients down), time separation
by the square-root parabolic scale.  Pair enumeration beyond the budget is
replaced by a fixed-seed uniform sample, so diagnostics are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .evolution import Propagator, _time_derivative
from .fields import ParameterGrid, _require_shape
from .surfaces import (
    GeometryFrame,
    SurfaceFamily,
    build_frame,
    second_tangential_derivative,
    tangential_gradient,
)
from .tables import write_csv

_FULL_ENUM_LIMIT = 1500  # below this many points, enumerate all pairs
# pairs sampled per supremum beyond the full enumeration
_HOLDER_BUDGET = 1_000_000


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


def _arc_distance(s: np.ndarray, length: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    d = np.abs(s[i] - s[j])
    return np.minimum(d, length - d)


def _pair_indices(
    n_points: int, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if n_points <= _FULL_ENUM_LIMIT:
        return np.triu_indices(n_points, k=1)
    draws = rng.integers(0, n_points, size=(int(budget), 2))
    keep = draws[:, 0] != draws[:, 1]
    return draws[keep, 0], draws[keep, 1]


def _space_time_sup(diffs: np.ndarray, dist: np.ndarray, alpha: float) -> float:
    mask = dist > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(diffs[mask] / dist[mask] ** alpha))


def _holder_sup_spacetime(
    values: np.ndarray,  # (L, N) or (L, N, C)
    s: np.ndarray,
    length: float,
    times: np.ndarray,
    alpha: float,
    budget: int,
    rng: np.random.Generator,
) -> float:
    n_levels, n_nodes = values.shape[0], values.shape[1]
    flat = values.reshape(n_levels * n_nodes, -1)
    p, q = _pair_indices(n_levels * n_nodes, budget, rng)
    ki, ii = np.divmod(p, n_nodes)
    kj, jj = np.divmod(q, n_nodes)
    d_space = _arc_distance(s, length, ii, jj)
    d_time = np.sqrt(np.abs(times[ki] - times[kj]))
    dist = np.maximum(d_space, d_time)
    diffs = np.linalg.norm(flat[p] - flat[q], axis=-1)
    return _space_time_sup(diffs, dist, alpha)


def _time_holder_sup(values: np.ndarray, times: np.ndarray, alpha: float) -> float:
    """Time Hölder sup of (L, N) or (L, N, C) `values` over every pair of levels."""
    n_levels = values.shape[0]
    if n_levels < 2:
        return 0.0
    flat = values.reshape(n_levels, values.shape[1], -1)
    ka, kb = np.triu_indices(n_levels, k=1)
    best = 0.0
    denom = np.abs(times[ka] - times[kb]) ** (0.5 * (1.0 + alpha))
    for a, b, d in zip(ka, kb, denom):
        diffs = np.linalg.norm(flat[a] - flat[b], axis=-1)
        best = max(best, float(np.max(diffs) / d))
    return best


def holder_estimate(values: np.ndarray, times: np.ndarray, surface: SurfaceFamily, alpha: float,
                    seed: int) -> HolderEstimate:
    """Finite-pair lower-bound estimates of the parabolic Hölder norms of
    (L, N) nodal `values` at the (L,) `times`.

    Single-slice fields are supported (the time seminorms vanish).  The
    gradient-bearing norms discretize the tangential derivatives first.
    `seed` draws the sampled pairs beyond the full enumeration.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    values, times = np.asarray(values, dtype=float), np.asarray(times, dtype=float)
    if values.ndim != 2 or times.shape != values.shape[:1]:
        raise GridMismatchError(f"values of shape {values.shape} at {times.shape[0]} times")
    n_levels, n_nodes = values.shape
    grid = ParameterGrid(n_nodes, max(n_levels - 1, 4), max(times[-1], 1e-12))
    frame0 = build_frame(surface, grid, 0.0)
    s, length = _arc_coordinates(frame0, grid.dtheta)
    rng = np.random.default_rng(seed)

    sup_norm = float(np.max(np.abs(values)))
    h_alpha = _holder_sup_spacetime(values, s, length, times, alpha, _HOLDER_BUDGET, rng)
    time_h = _time_holder_sup(values, times, alpha)

    grad = np.stack([tangential_gradient(frame0, values[k]) for k in range(n_levels)])
    grad_sup = float(np.max(np.abs(grad)))
    grad_h = _holder_sup_spacetime(grad, s, length, times, alpha, _HOLDER_BUDGET, rng)
    grad_time_h = _time_holder_sup(grad, times, alpha)

    hess = np.stack([second_tangential_derivative(frame0, grad[k]).reshape(n_nodes, 4)
                     for k in range(n_levels)])
    hess_h = _holder_sup_spacetime(hess, s, length, times, alpha, _HOLDER_BUDGET, rng)
    hess_sup = float(np.max(np.abs(hess)))

    if n_levels > 1:
        dt = float(times[1] - times[0])
        f_t = _time_derivative(values, dt)
        ft_sup = float(np.max(np.abs(f_t)))
        ft_h = _holder_sup_spacetime(f_t, s, length, times, alpha, _HOLDER_BUDGET, rng)
    else:
        ft_sup = ft_h = 0.0

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
