"""Time-periodic solves: contraction iteration and the monodromy route.

The end-of-period map of the linear solver is affine, ``u0 -> A u0 + b``.
Composing it with the weighted-mean reset at time zero gives a map whose
fixed point is the initial state of the relaxed-periodic solution with the
prescribed initial mean.  The end map is one ``Propagator``, which holds the
surface, the discretization, the forcing load and the factorized steps;
every solve takes it and the prescribed mean (``target_mean``) and builds
nothing else; ``contraction_estimate`` propagates the state differences
of ``default_probes``, reads the zero-order lower bound that the stepper
keeps as ``prop.rate_floor`` and returns the measured ratios with the
decay bound that floor implies (``_decay_rate`` holds the rule: the floor
must exceed ln(2)/T), judging nothing: the caller's checks compare the
two.  States are ``(N,)`` arrays and the time-zero measure is the row
``prop.geometry.weights0``; a solve returns its trajectory as an
``(M+1, N)`` array on the levels of ``prop.grid.times``.  Two independent
instruments compute the fixed point:

* ``fixed_point_solve`` iterates the mean-reset end map from zero and
  records the measured contraction ratios;
* ``monodromy_solve`` solves the fixed-point system ``(I - K) u0 = rhs``
  matrix-free by GMRES (Krylov shooting), where ``K`` is the mean-reset
  homogeneous end map and one matrix-vector product is one homogeneous
  period, and reports the spectral gap of ``I - K`` at the eigenvalue of
  ``K`` with the largest real part as an injectivity indicator.

When both succeed they agree to solver tolerance; the monodromy result is
authoritative for acceptance checks, the iteration for rate measurements.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NonuniquenessError
from .evolution import Propagator
from .fields import ParameterGrid, fourier_noise
from .metric import mean_and_mass

# Krylov shooting settings: GMRES stops at this residual relative to the
# right-hand side, restarts after this many inner iterations and gives up
# after this many restart cycles (every converging solve measured needed one)
_GMRES_RTOL = 1e-13
_GMRES_RESTART = 60
_GMRES_MAX_CYCLES = 3
# ARPACK tolerance of the spectral gap, and the looser one taken when it does
# not converge within the restart limit: Crank-Nicolson barely damps stiff
# modes, so at dt * lambda_max >> 1 with an even step count they crowd just
# below 1 (bean, N=1024, M=64), where only the looser one converges
_ARPACK_TOL = 1e-6
_ARPACK_LOOSE_TOL = 1e-3
_ARPACK_MAX_RESTARTS = 100
# restart limit of the tight pass: every separated case measured converged
# within about 5 restarts (31 periods), so crowded modes fall through early
_ARPACK_TIGHT_RESTARTS = 20
# I - K counts as singular when its spectral gap is below this share of 1 + |lambda|
_SINGULAR_GAP = 1e-12


def mean_adjust(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Subtract the mean under the (N,) measure weights; the result has
    exactly zero mean up to round-off."""
    mean, _ = mean_and_mass(weights, values)
    return np.asarray(values, dtype=float) - mean


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the mean-reset fixed-point iteration."""

    iterations: int
    residuals: list[float]
    ratios: list[float]
    converged: bool
    # iterations the last ratio needs to reach tol: `iterations` once
    # converged, None when the last ratio is not below one or not measured
    predicted_iterations: int | None
    trajectory: np.ndarray  # (M+1, N) on prop.grid.times, from the last initial state

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def _check_iteration(tol: float, max_iter: int) -> None:
    """Raise ValueError unless `tol` is positive and `max_iter` at least one."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def fixed_point_solve(
    prop: Propagator,
    target_mean: float,
    tol: float,
    max_iter: int,
    start: np.ndarray | None = None,
) -> FixedPointReport:
    """Iterate the mean-reset end map until the initial state is stationary.

    The iteration starts from the zero mean-free part unless `start` is
    given (it is mean-adjusted first).  Non-convergence within `max_iter`
    returns a report flagged `converged=False` with the iteration count the
    last measured ratio predicts; the companion monodromy route stays
    available in that regime.  Raises ValueError unless `tol` > 0 and
    `max_iter` >= 1.
    """
    _check_iteration(tol, max_iter)
    weights0 = prop.geometry.weights0
    c = target_mean

    if start is None:
        u0 = np.full(prop.grid.n_nodes, c, dtype=float)
    else:
        u0 = mean_adjust(start, weights0) + c

    residuals: list[float] = []
    ratios: list[float] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        end_state = prop.run(u0, keep_trajectory=False)
        new_u0 = mean_adjust(end_state, weights0) + c
        diff = float(np.max(np.abs(new_u0 - u0)))
        if residuals and residuals[-1] > 0.0:
            ratios.append(diff / residuals[-1])
        residuals.append(diff)
        u0 = new_u0
        iterations += 1
        if diff <= tol:
            converged = True
            break

    predicted = iterations if converged else None
    if not converged and ratios and ratios[-1] < 1.0:
        # the residual shrinks by the last ratio per iteration
        predicted = iterations + math.ceil(math.log(tol / residuals[-1]) / math.log(ratios[-1]))
    return FixedPointReport(iterations=iterations, residuals=residuals, ratios=ratios,
                            converged=converged, predicted_iterations=predicted,
                            trajectory=prop.run(u0))


@dataclass(frozen=True)
class ContractionEstimate:
    """Measured Lipschitz ratios of the end map and its mean-reset composite,
    per `default_probes` difference and their maxima, and the decay bound of
    the zero-order floor."""

    end_map_ratio: float  # max of `end_map_ratios`
    adjusted_ratio: float  # max of `adjusted_ratios`
    end_map_ratios: list[float]  # |J d| / |d| per probe difference d, J the plain end map
    adjusted_ratios: list[float]  # the same for the mean-reset composite
    # exp(-eps*T) * (1 + 3*(dt + dtheta^2)) when the floor exceeds ln(2)/T, else None
    bound: float | None


def _decay_rate(floor: float, period: float) -> float:
    """The decay rate eps midway between ln(2)/T and a zero-order `floor`
    above it; ValueError when the floor does not exceed ln(2)/T, where no
    decay bound holds."""
    threshold = math.log(2.0) / period
    if not floor > threshold:
        raise ValueError(f"the zero-order floor (c0 in mode constant) must exceed "
                         f"ln2/T ≈ {threshold:.4f}, got {floor}")
    return 0.5 * (threshold + floor)


def default_probes(grid: ParameterGrid, seed: int) -> list[np.ndarray]:
    """The four (N,) state differences the contraction ratios measure; the
    last is the difference of two `fourier_noise` fields drawn from `seed`."""
    theta = grid.nodes
    rng = np.random.default_rng(seed)
    return [
        np.cos(theta),
        np.cos(theta) - np.sin(theta),
        np.ones_like(theta),
        fourier_noise(theta, rng) - fourier_noise(theta, rng),
    ]


def contraction_estimate(prop: Propagator, seed: int) -> ContractionEstimate:
    """Measure end-map contraction ratios over the `default_probes` differences.

    Differences of the affine end map are propagated homogeneously, which is
    exact and halves the work.  When the zero-order term admits a pointwise
    lower bound c0 > ln(2)/T, the estimate carries the decay bound
    exp(-eps*T)*(1+slack) with eps the midpoint of (ln(2)/T, c0) and the
    discretization slack 3*(dt + dtheta^2); otherwise `bound` is None.
    Nothing is raised: the caller compares `end_map_ratio` with `bound`.
    """
    grid = prop.grid
    weights0 = prop.geometry.weights0
    end_map_ratios, adjusted_ratios = [], []
    for diff in default_probes(grid, seed):
        norm = float(np.max(np.abs(diff)))
        end_diff = prop.run(diff, include_forcing=False, keep_trajectory=False)
        end_map_ratios.append(float(np.max(np.abs(end_diff))) / norm)
        adjusted_ratios.append(float(np.max(np.abs(mean_adjust(end_diff, weights0)))) / norm)
    try:
        eps = _decay_rate(prop.rate_floor, grid.period)
    except ValueError:
        bound = None
    else:
        bound = math.exp(-eps * grid.period) * (1.0 + 3.0 * (grid.dt + grid.dtheta**2))
    return ContractionEstimate(end_map_ratio=max(end_map_ratios),
                               adjusted_ratio=max(adjusted_ratios),
                               end_map_ratios=end_map_ratios, adjusted_ratios=adjusted_ratios,
                               bound=bound)


@dataclass(frozen=True)
class SolvabilityReport:
    """Krylov-solve metadata for the relaxed-periodic system."""

    spectral_gap: float  # |1 - lambda| at the eigenvalue of K with the largest real part
    residuals: list[float]  # GMRES residual relative to the rhs, per inner iteration


def _eigenvalue_nearest_one(reset_map: Callable[[np.ndarray], np.ndarray], n: int) -> complex:
    """The eigenvalue of the mean-reset end map (`reset_map`, a matvec on R^n)
    that sets the spectral gap: the one with the largest real part.  An
    expanding mode (real part >= 1, from a negative zero-order term) can
    hide a unit eigenvalue to its left, so while every eigenvalue found has
    real part >= 1, twice as many are taken, and the one nearest 1 wins."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    operator = LinearOperator((n, n), matvec=reset_map, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)  # fixed, so reruns agree

    def rightmost(k: int) -> np.ndarray:
        options = dict(k=k, ncv=min(max(6, 2 * k + 1), n - 1), which="LR", v0=start,
                       return_eigenvectors=False)
        try:
            return eigs(operator, tol=_ARPACK_TOL, maxiter=_ARPACK_TIGHT_RESTARTS, **options)
        except ArpackNoConvergence:
            return eigs(operator, tol=_ARPACK_LOOSE_TOL, maxiter=_ARPACK_MAX_RESTARTS, **options)

    k = 1
    eigenvalues = rightmost(k)
    while eigenvalues.real.min() >= 1.0 and 2 * k < n - 3:
        k *= 2
        eigenvalues = rightmost(k)
    return complex(eigenvalues[np.argmin(np.abs(1.0 - eigenvalues))])


def monodromy_solve(
    prop: Propagator, target_mean: float
) -> tuple[np.ndarray, SolvabilityReport]:
    """Solve the relaxed-periodic fixed-point system by Krylov shooting.

    ``K`` is the homogeneous end map followed by the weighted-mean reset;
    the system is ``(I - K) u0 = mean_adjust(offset) + target_mean`` with
    the offset the end state of zero under the true forcing.  GMRES applies
    ``K`` as one homogeneous period through the stepper per product, so no
    N x N matrix is formed.  The injectivity indicator is
    ``spectral_gap = |1 - lambda|`` for the eigenvalue of ``K`` with the
    largest real part (ARPACK, fixed start vector; see
    `_eigenvalue_nearest_one` for expanding modes).  Every eigenvalue of
    ``I - K`` is at least its smallest singular value in modulus, so the gap
    bounds that value from above.  Raises NonuniquenessError when the gap
    is numerically zero, i.e. the homogeneous relaxed-periodic problem
    admits nonzero states, or when GMRES stops above its tolerance; no
    unconverged state is returned.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    n = prop.grid.n_nodes
    weights0 = prop.geometry.weights0

    def reset_map(x: np.ndarray) -> np.ndarray:
        end = prop.run(np.ravel(x), include_forcing=False, keep_trajectory=False)
        return mean_adjust(end, weights0)

    lam = _eigenvalue_nearest_one(reset_map, n)
    gap = abs(1.0 - lam)
    if gap < _SINGULAR_GAP * (1.0 + abs(lam)):
        raise NonuniquenessError(
            f"mean-adjusted end map has eigenvalue {lam:.6g}, one to round-off; "
            "the homogeneous relaxed-periodic problem has nonzero solutions",
            spectral_gap=gap,
        )

    def system_matvec(x: np.ndarray) -> np.ndarray:  # (I - K) x
        return np.ravel(x) - reset_map(x)

    rhs = mean_adjust(prop.run(np.zeros(n), keep_trajectory=False), weights0) + target_mean
    residuals: list[float] = []
    u0, info = gmres(
        LinearOperator((n, n), matvec=system_matvec, dtype=float), rhs,
        rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART, maxiter=_GMRES_MAX_CYCLES,
        callback=residuals.append, callback_type="pr_norm",
    )
    # GMRES judges convergence by the recomputed residual.  When its own
    # residual is below rtol and the recomputed one is not, the difference is
    # the rounding of the period map, which no restart lowers: stiff
    # Crank-Nicolson steps at N=2050, M=4 leave 1.5e-13, as much as the
    # dense direct solve leaves
    if info != 0 and residuals[-1] > _GMRES_RTOL:
        raise NonuniquenessError(
            f"GMRES stopped above its tolerance {_GMRES_RTOL:g} after {len(residuals)} "
            f"iterations with relative residual {residuals[-1]:.3e}",
            spectral_gap=gap,
        )
    report = SolvabilityReport(spectral_gap=gap, residuals=[float(r) for r in residuals])
    return prop.run(u0), report


@dataclass(frozen=True)
class PeriodicityResiduals:
    relaxed: float
    strict: float


def periodicity_residuals(trajectory: np.ndarray, weights0: np.ndarray) -> PeriodicityResiduals:
    """Relaxed and strict periodicity defects of a trajectory.

    `relaxed` compares the mean-free parts of the first and last slices
    (both means taken under the time-zero measure weights `weights0`), and
    `strict` the slices themselves.
    """
    first, last = trajectory[0], trajectory[-1]
    m_first, _ = mean_and_mass(weights0, first)
    m_last, _ = mean_and_mass(weights0, last)
    relaxed = float(np.max(np.abs((first - m_first) - (last - m_last))))
    strict = float(np.max(np.abs(first - last)))
    return PeriodicityResiduals(relaxed=relaxed, strict=strict)
