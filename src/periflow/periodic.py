"""Time-periodic solves: contraction iteration and the monodromy route.

The end-of-period map of the linear solver is affine, ``u0 -> A u0 + b``.
Composing it with the weighted-mean reset at time zero gives a map whose
fixed point is the initial state of the relaxed-periodic solution with the
prescribed initial mean.  The end map is one ``Propagator``, which holds the
surface, the discretization, the forcing load and the factorized steps;
every solve takes it and the prescribed mean (``target_mean``) and builds
nothing else.  States are ``(N,)`` arrays; a solve returns its trajectory
as an ``(M+1, N)`` array on the levels of ``prop.grid.times``.  Two
independent instruments compute the fixed point:

* ``fixed_point_solve`` iterates the mean-reset end map from zero and
  records the measured contraction ratios;
* ``monodromy_solve`` assembles the dense matrix of the linear part by
  propagating all unit basis states in one batch, solves the fixed-point
  system directly and reports the smallest singular value of the system
  matrix as an injectivity indicator.

When both succeed they agree to solver tolerance; the monodromy result is
authoritative for acceptance checks, the iteration for rate measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionBoundError, GridMismatchError, NonuniquenessError
from .evolution import Propagator
from .fields import ParameterGrid, fourier_noise
from .metric import WeightedMeasure, mean_and_mass

_MAX_DENSE_NODES = 2048


def mean_adjust(values: np.ndarray, measure: WeightedMeasure) -> np.ndarray:
    """Subtract the weighted mean; the result has exactly zero mean up to
    round-off."""
    mean, _ = mean_and_mass(measure, values)
    return np.asarray(values, dtype=float) - mean


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the mean-reset fixed-point iteration."""

    iterations: int
    residuals: list[float]
    ratios: list[float]
    converged: bool
    initial_state: np.ndarray  # (N,)
    trajectory: np.ndarray  # (M+1, N) on prop.grid.times

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0


def fixed_point_solve(
    prop: Propagator,
    target_mean: float = 0.0,
    tol: float = 1e-10,
    max_iter: int = 40,
    start: np.ndarray | None = None,
) -> FixedPointReport:
    """Iterate the mean-reset end map until the initial state is stationary.

    The iteration starts from the zero mean-free part unless `start` is
    given (it is mean-adjusted first).  Non-convergence within `max_iter`
    returns a report flagged `converged=False`; the companion monodromy
    route stays available in that regime.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    measure0 = prop.geometry.measure(0)
    c = target_mean

    if start is None:
        u0 = np.full(prop.grid.n_nodes, c, dtype=float)
    else:
        u0 = mean_adjust(start, measure0) + c

    residuals: list[float] = []
    ratios: list[float] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        end_state = prop.run(u0, keep_trajectory=False)
        new_u0 = mean_adjust(end_state, measure0) + c
        diff = float(np.max(np.abs(new_u0 - u0)))
        if residuals and residuals[-1] > 0.0:
            ratios.append(diff / residuals[-1])
        residuals.append(diff)
        u0 = new_u0
        iterations += 1
        if diff <= tol:
            converged = True
            break

    return FixedPointReport(
        iterations=iterations,
        residuals=residuals,
        ratios=ratios,
        converged=converged,
        initial_state=u0,
        trajectory=prop.run(u0),
    )


@dataclass(frozen=True)
class ContractionEstimate:
    """Measured Lipschitz ratios of the end map and its mean-reset composite."""

    end_map_ratio: float  # sup over probe pairs for the plain end map
    adjusted_ratio: float  # same for the mean-reset composite
    pair_ratios: list[tuple[float, float]]
    rate_floor: float  # pointwise lower bound of the zero-order term
    applicable: bool  # floor exceeds ln(2)/T, so the decay bound is asserted
    bound: float | None
    slack: float


def default_probes(grid: ParameterGrid, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    theta = grid.nodes
    rng = np.random.default_rng(seed)
    return [
        (np.cos(theta), np.zeros_like(theta)),
        (np.cos(theta), np.sin(theta)),
        (np.ones_like(theta), np.zeros_like(theta)),
        (fourier_noise(theta, rng), fourier_noise(theta, rng)),
    ]


def _zero_order_floor(prop: Propagator) -> float:
    """Pointwise lower bound of the effective zero-order term across levels."""
    floor = float(np.min(prop.zero_order))
    if prop.config.zero_order in ("divergence", "divergence_plus_constant"):
        floor += float(np.min(prop.geometry.trace_rate))
    return floor


def contraction_estimate(
    prop: Propagator,
    probes: list[tuple[np.ndarray, np.ndarray]] | None = None,
    seed: int = 0,
) -> ContractionEstimate:
    """Measure end-map contraction ratios over probe pairs.

    Differences of the affine end map are propagated homogeneously, which is
    exact and halves the work.  When the zero-order term admits a pointwise
    lower bound c0 > ln(2)/T, the measured end-map ratio is asserted against
    exp(-eps*T)*(1+slack) with eps the midpoint of (ln(2)/T, c0); violations
    raise ContractionBoundError.  Identical probe pairs are skipped.
    """
    grid = prop.grid
    if probes is None:
        probes = default_probes(grid, seed)
    measure0 = prop.geometry.measure(0)

    pair_ratios: list[tuple[float, float]] = []
    worst = 0.0
    worst_index = -1
    worst_adjusted = 0.0
    for idx, (a, b) in enumerate(probes):
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        norm = float(np.max(np.abs(diff)))
        if norm == 0.0:
            continue
        end_diff = prop.run(diff, include_forcing=False, keep_trajectory=False)
        j_ratio = float(np.max(np.abs(end_diff))) / norm
        k_ratio = float(np.max(np.abs(mean_adjust(end_diff, measure0)))) / norm
        pair_ratios.append((j_ratio, k_ratio))
        if j_ratio > worst:
            worst, worst_index = j_ratio, idx
        worst_adjusted = max(worst_adjusted, k_ratio)

    period = grid.period
    floor = _zero_order_floor(prop)
    applicable = floor > math.log(2.0) / period
    slack = 3.0 * (grid.dt + grid.dtheta**2)
    bound = None
    if applicable:
        eps = 0.5 * (math.log(2.0) / period + floor)
        bound = math.exp(-eps * period) * (1.0 + slack)
        if worst > bound:
            raise ContractionBoundError(
                f"measured end-map ratio {worst:.6f} exceeds bound {bound:.6f}",
                probe_index=worst_index,
                ratio=worst,
                bound=bound,
            )
    return ContractionEstimate(
        end_map_ratio=worst,
        adjusted_ratio=worst_adjusted,
        pair_ratios=pair_ratios,
        rate_floor=floor,
        applicable=applicable,
        bound=bound,
        slack=slack,
    )


@dataclass(frozen=True)
class SolvabilityReport:
    """Direct-solve metadata for the relaxed-periodic system."""

    smallest_singular_value: float
    largest_singular_value: float
    initial_state: np.ndarray  # (N,)


def monodromy_solve(
    prop: Propagator, target_mean: float = 0.0
) -> tuple[np.ndarray, SolvabilityReport]:
    """Assemble the dense end map and solve the fixed-point system directly.

    The linear part is assembled by propagating all unit basis states with
    the forcing switched off (one batched pass through the verified
    stepper); the offset is the end state of zero with the true forcing.
    Raises NonuniquenessError when the mean-adjusted system is numerically
    singular, i.e. the homogeneous relaxed-periodic problem admits nonzero
    states.
    """
    n = prop.grid.n_nodes
    if n > _MAX_DENSE_NODES:
        raise GridMismatchError(
            f"dense monodromy assembly limited to {_MAX_DENSE_NODES} nodes, got {n}"
        )
    measure0 = prop.geometry.measure(0)
    w = measure0.weights
    total = measure0.total

    matrix = prop.run(np.eye(n), include_forcing=False, keep_trajectory=False)
    offset = prop.run(np.zeros(n), keep_trajectory=False)

    adjusted = matrix - np.outer(np.ones(n), w @ matrix) / total
    system = np.eye(n) - adjusted
    rhs = mean_adjust(offset, measure0) + target_mean

    singular_values = np.linalg.svd(system, compute_uv=False)
    smin, smax = float(singular_values[-1]), float(singular_values[0])
    if smin < 1e-12 * smax:
        raise NonuniquenessError(
            "mean-adjusted monodromy system is numerically singular; the "
            "homogeneous relaxed-periodic problem has nonzero solutions",
            smallest_singular_value=smin,
        )
    u0 = np.linalg.solve(system, rhs)
    report = SolvabilityReport(
        smallest_singular_value=smin, largest_singular_value=smax, initial_state=u0
    )
    return prop.run(u0), report


@dataclass(frozen=True)
class PeriodicityResiduals:
    relaxed: float
    strict: float
    mean_drift: float


def periodicity_residuals(trajectory: np.ndarray, measure0: WeightedMeasure) -> PeriodicityResiduals:
    """Relaxed and strict periodicity defects of a trajectory.

    `relaxed` compares the mean-free parts of the first and last slices
    (both means taken in the time-zero measure), `strict` the slices
    themselves, and `mean_drift` is the difference of the means.
    """
    first, last = trajectory[0], trajectory[-1]
    m_first, _ = mean_and_mass(measure0, first)
    m_last, _ = mean_and_mass(measure0, last)
    relaxed = float(np.max(np.abs((first - m_first) - (last - m_last))))
    strict = float(np.max(np.abs(first - last)))
    return PeriodicityResiduals(relaxed=relaxed, strict=strict, mean_drift=m_last - m_first)
