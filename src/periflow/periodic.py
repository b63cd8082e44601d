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
  matrix-free by restarted GMRES (Krylov shooting), where ``K`` is the
  mean-reset homogeneous end map and one matrix-vector product is one
  homogeneous period, and reports an injectivity indicator: ``1 - nu``,
  nu the Golub-Kahan estimate of the norm of ``K`` in the time-zero
  measure's inner product from forward and transposed periods, a lower
  bound of the smallest singular value of ``I - K`` when nu < 1, else
  ``|1 - lambda|`` at the eigenvalue of ``K`` nearest 1 (restarted
  Arnoldi), an upper bound.  The Krylov methods are written out in numpy,
  so no periodic solve loads scipy.

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
# Golub-Kahan estimate of ||K||_W: it stops once two successive estimates
# agree to this share of the later, or after this many steps of two periods
_NORM_RTOL = 1e-2
_NORM_STEPS = 16
# a new Krylov vector whose norm falls below this share of the product's
# lies in the span of the old ones: the subspace is invariant
_BREAKDOWN = 1e-12
# restarted Arnoldi for the eigenvalue nearest 1 when no lower bound holds:
# the least basis size, the Ritz residual relative to |lambda| that ends it,
# and the most restart cycles
_ARNOLDI_STEPS = 20
_ARNOLDI_TOL = 1e-10
_ARNOLDI_CYCLES = 20
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

    # 1 - nu, a lower bound of sigma_min,W(I - K) when `lower_bound`; else
    # |1 - lambda| at the eigenvalue of K nearest 1, an upper bound of it
    indicator: float
    lower_bound: bool
    norm: float  # nu, the Golub-Kahan estimate of ||K||_W
    norm_residual: float  # Ritz residual of the estimate before nu; bounds ||K||_W - nu
    norm_converged: bool  # the last two estimates agreed to _NORM_RTOL
    norm_periods: int  # forward and transposed periods spent certifying
    solve_periods: int  # periods of the right side, GMRES and the trajectory
    residuals: list[float]  # GMRES residual relative to the rhs, per inner iteration


def _start_vector(n: int) -> np.ndarray:
    """The start of the norm estimate and of the eigenvalue search: random,
    so that it misses no direction (the right side of `breathing` spans only
    two), and fixed, so that reruns agree."""
    return np.random.default_rng(0).standard_normal(n)


def _orthogonalize(basis: np.ndarray, x: np.ndarray,
                   weights: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Modified Gram-Schmidt: remove from `x`, in place, its components along
    the rows of `basis`, orthonormal in the inner product a . (weights * b)
    (the Euclidean one for None); return the components and the norm of
    what remains."""
    components = np.empty(len(basis))
    for i, row in enumerate(basis):
        components[i] = np.dot(row, x if weights is None else weights * x)
        x -= components[i] * row
    return components, math.sqrt(np.dot(x, x if weights is None else weights * x))


def _arnoldi(matvec: Callable[[np.ndarray], np.ndarray], start: np.ndarray, steps: int):
    """Arnoldi by modified Gram-Schmidt from `start`, in the Euclidean inner
    product.  After product j it yields (j, basis, hessenberg): the
    (steps + 1, n) orthonormal rows, filled through row j, and the
    (steps + 1, steps) Hessenberg matrix, filled through column j - 1.  It
    ends early when the new row vanishes: the basis spans an invariant
    subspace, whose eigenvalues and solutions are then exact."""
    basis = np.zeros((steps + 1, start.size))
    hessenberg = np.zeros((steps + 1, steps))
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        product = matvec(basis[j])
        hessenberg[: j + 1, j], norm = _orthogonalize(basis[: j + 1], product, None)
        hessenberg[j + 1, j] = norm
        if norm > 0.0:
            basis[j + 1] = product / norm
        yield j + 1, basis, hessenberg  # the caller may rotate the column
        if norm == 0.0:
            return


def _gmres(matvec: Callable[[np.ndarray], np.ndarray],
           rhs: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Restarted GMRES (Saad & Schultz 1986) for matvec(x) = rhs from zero:
    Arnoldi with Givens rotations, whose last entry is the residual of the
    current least-squares solution.  Returns the solution and that residual
    relative to |rhs| after each inner iteration; it stops once one is at
    most _GMRES_RTOL, or after _GMRES_MAX_CYCLES cycles of _GMRES_RESTART
    iterations, each cycle restarted from the recomputed residual."""
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    residuals: list[float] = []
    for cycle in range(_GMRES_MAX_CYCLES if rhs_norm else 0):
        residual = rhs - matvec(x) if cycle else rhs
        steps = min(_GMRES_RESTART, rhs.size)
        cosines, sines, g = np.zeros(steps), np.zeros(steps), np.zeros(steps + 1)
        g[0] = np.linalg.norm(residual)
        for j, basis, hessenberg in _arnoldi(matvec, residual, steps):
            column, i = hessenberg[:, j - 1], j - 1
            for r in range(i):  # the rotations so far
                column[r : r + 2] = (cosines[r] * column[r] + sines[r] * column[r + 1],
                                     cosines[r] * column[r + 1] - sines[r] * column[r])
            rho = math.hypot(column[i], column[i + 1])
            cosines[i], sines[i] = column[i] / rho, column[i + 1] / rho
            column[i : i + 2] = rho, 0.0
            g[i : i + 2] = cosines[i] * g[i], -sines[i] * g[i]
            residuals.append(abs(g[i + 1]) / rhs_norm)
            if residuals[-1] <= _GMRES_RTOL:
                break
        x = x + basis[:j].T @ np.linalg.solve(hessenberg[:j, :j], g[:j])  # triangular now
        if residuals[-1] <= _GMRES_RTOL:
            break
    return x, residuals


def _extend(rows: np.ndarray, k: int, product: np.ndarray, weights: np.ndarray) -> float:
    """Orthonormalize `product` against rows[:k] in the inner product
    a . (weights * b) and store it as rows[k]; return the norm it kept,
    0 when it lies in their span to round-off."""
    scale = math.sqrt(np.dot(product, weights * product))
    _, norm = _orthogonalize(rows[:k], product, weights)
    if not norm > _BREAKDOWN * scale:
        return 0.0
    rows[k] = product / norm
    return norm


def _norm_estimate(forward: Callable[[np.ndarray], np.ndarray],
                   adjoint: Callable[[np.ndarray], np.ndarray],
                   weights: np.ndarray) -> tuple[float, float, bool]:
    """(nu, residual, converged): nu estimates the norm of `forward` in the
    inner product a . (weights * b) by Golub-Kahan bidiagonalization (Golub &
    Kahan 1965), `adjoint` being its adjoint there, from `_start_vector`
    with full reorthogonalization.  Step k takes one product of each, and
    the (k + 1, k) lower bidiagonal B of the alphas and betas so far gives
    adjoint(U_k) = V_{k+1} B; nu is its largest singular value, which grows
    with k towards the norm.  It stops once two successive estimates of the
    gap 1 - nu agree to _NORM_RTOL of it (`converged`), when a new vector
    lies in the span of the old ones (nu is then exact, the residual 0), or
    after _NORM_STEPS steps.  The Ritz triplet of the estimate before nu
    has the residual alpha_k |p_k|, p its left singular vector; as the
    estimates grow, that residual bounds the norm minus nu whenever that
    estimate approximates the largest singular value.  It costs no product
    more, and it is inf after one step."""
    n = weights.size
    right, left = np.zeros((_NORM_STEPS + 1, n)), np.zeros((_NORM_STEPS, n))
    start = _start_vector(n)
    right[0] = start / math.sqrt(np.dot(start, weights * start))
    bidiagonal = np.zeros((_NORM_STEPS + 1, _NORM_STEPS))
    estimates, top, residual = [0.0], None, math.inf
    for k in range(_NORM_STEPS):
        bidiagonal[k, k] = alpha = _extend(left, k, forward(right[k]), weights)
        if top is not None:
            residual = alpha * abs(top[-1])
        if alpha == 0.0:
            return estimates[-1], residual, True
        bidiagonal[k + 1, k] = beta = _extend(right, k + 1, adjoint(left[k]), weights)
        vectors, values, _ = np.linalg.svd(bidiagonal[: k + 2, : k + 1])
        estimates.append(float(values[0]))
        top = vectors[:, 0]
        if beta == 0.0:
            return estimates[-1], 0.0, True
        if k and estimates[-1] - estimates[-2] <= _NORM_RTOL * (1.0 - estimates[-1]):
            return estimates[-1], residual, True
    return estimates[-1], residual, False


def _rightmost_eigenvalues(matvec: Callable[[np.ndarray], np.ndarray], n: int,
                           k: int) -> np.ndarray:
    """The k eigenvalues of largest real part of `matvec` on R^n by
    explicitly restarted Arnoldi: each cycle restarts from the sum of the
    real and imaginary parts of the k wanted Ritz vectors, until each has a
    residual below _ARNOLDI_TOL of its modulus or after _ARNOLDI_CYCLES."""
    steps = min(max(_ARNOLDI_STEPS, 2 * k + 1), n - 1)
    start = _start_vector(n)
    for _ in range(_ARNOLDI_CYCLES):
        for j, basis, hessenberg in _arnoldi(matvec, start, steps):
            pass
        ritz, vectors = np.linalg.eig(hessenberg[:j, :j])
        wanted = np.argsort(-ritz.real)[:k]
        residuals = abs(hessenberg[j, j - 1]) * np.abs(vectors[-1, wanted])
        if np.all(residuals <= _ARNOLDI_TOL * np.abs(ritz[wanted])):
            break
        start = basis[:j].T @ (vectors[:, wanted].real + vectors[:, wanted].imag).sum(axis=1)
    return ritz[wanted]


def monodromy_solve(
    prop: Propagator, target_mean: float
) -> tuple[np.ndarray, SolvabilityReport]:
    """Solve the relaxed-periodic fixed-point system by Krylov shooting.

    ``K`` is the homogeneous end map followed by the weighted-mean reset;
    the system is ``(I - K) u0 = mean_adjust(offset) + target_mean`` with
    the offset the end state of zero under the true forcing.  Restarted
    GMRES (`_gmres`) applies ``K`` as one homogeneous period through the
    stepper per product, so no N x N matrix is formed.

    The injectivity indicator certifies that ``I - K`` is far from
    singular.  The mean reset is orthogonal in the inner product of the
    time-zero measure W = diag(weights0), so the adjoint of ``K`` there is
    y -> W^-1 S^T W mean_adjust(y), S^T one `Propagator.run_transpose`.
    Golub-Kahan bidiagonalization (`_norm_estimate`) gives nu ~ ||K||_W,
    and when nu plus its Ritz residual is below 1 the indicator is
    ``1 - nu``: sigma_min,W(I - K) >= 1 - ||K||_W is a theorem, so it is a
    lower bound up to the estimate's error.  Otherwise (expanding modes, or
    a unit singular value) there is no lower bound, and the indicator is
    ``|1 - lambda|`` at the eigenvalue of ``K`` nearest 1 among those of
    largest real part (`_rightmost_eigenvalues`; while all found have real
    part >= 1, twice as many are taken), an upper bound of sigma_min.
    Raises NonuniquenessError when that gap is numerically zero, i.e. the
    homogeneous relaxed-periodic problem admits nonzero states, or when
    GMRES stops above its tolerance; no unconverged state is returned.
    """
    n = prop.grid.n_nodes
    weights0 = prop.geometry.weights0
    periods = 0  # homogeneous periods, forward and transposed

    def reset_map(x: np.ndarray) -> np.ndarray:
        nonlocal periods
        periods += 1
        return mean_adjust(prop.run(x, include_forcing=False, keep_trajectory=False), weights0)

    def adjoint_map(y: np.ndarray) -> np.ndarray:
        nonlocal periods
        periods += 1
        return prop.run_transpose(weights0 * mean_adjust(y, weights0)) / weights0

    nu, norm_residual, converged = _norm_estimate(reset_map, adjoint_map, weights0)
    lower_bound = 1.0 - nu >= _SINGULAR_GAP * (1.0 + nu)
    indicator = 1.0 - nu
    if not lower_bound:
        k = 1
        eigenvalues = _rightmost_eigenvalues(reset_map, n, k)
        while eigenvalues.real.min() >= 1.0 and 2 * k < n - 3:
            k *= 2
            eigenvalues = _rightmost_eigenvalues(reset_map, n, k)
        lam = complex(eigenvalues[np.argmin(np.abs(1.0 - eigenvalues))])
        indicator = abs(1.0 - lam)
        if indicator < _SINGULAR_GAP * (1.0 + abs(lam)):
            raise NonuniquenessError(
                f"mean-adjusted end map has eigenvalue {lam:.6g}, one to round-off; "
                "the homogeneous relaxed-periodic problem has nonzero solutions",
                spectral_gap=indicator,
            )

    norm_periods = periods
    rhs = mean_adjust(prop.run(np.zeros(n), keep_trajectory=False), weights0) + target_mean
    u0, residuals = _gmres(lambda x: x - reset_map(x), rhs)
    if residuals and residuals[-1] > _GMRES_RTOL:
        raise NonuniquenessError(
            f"GMRES stopped above its tolerance {_GMRES_RTOL:g} after {len(residuals)} "
            f"iterations with relative residual {residuals[-1]:.3e}",
            spectral_gap=indicator,
        )
    report = SolvabilityReport(indicator=indicator, lower_bound=lower_bound, norm=nu,
                               norm_residual=norm_residual, norm_converged=converged,
                               norm_periods=norm_periods,
                               solve_periods=periods - norm_periods + 2,
                               residuals=residuals)
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
