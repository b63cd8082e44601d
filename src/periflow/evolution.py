"""Implicit time stepping for the pulled-back advection-diffusion problem.

Solves ``diffusion(u) - c*u - u_t = f`` on the reference grid with either
backward Euler or Crank-Nicolson.  The linear system of every step is cyclic
tridiagonal and is factorized once per level, so repeated propagation (the
fixed-point iteration and the monodromy probes) reuses the factorizations.
``Propagator.geometry`` shares the space-time geometry with the ledgers.

Zero-order modes
----------------
``zero``                       c = 0
``constant``                   c = ``coefficient``
``divergence``                 c equals the metric dilation rate; realized by
                               weighting the previous state with the ratio of
                               measure densities, which makes the discrete
                               mass law exact to round-off for any forcing
                               (see ``diagnostics.mass_ledger``)
``divergence_plus_constant``   divergence weighting plus c = ``coefficient``
``custom``                     arbitrary closure c(theta, t)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from .errors import GridMismatchError, StepError
from .fields import ParameterGrid, ScalarField, SpaceTimeField
from .metric import (
    SpaceTimeGeometry,
    _cyclic_tridiagonal,
    _operator_diagonals,
    space_time_geometry,
)
from .surfaces import SurfaceFamily

_SCHEMES = ("backward_euler", "crank_nicolson")
_ZERO_ORDER_MODES = ("zero", "constant", "divergence", "divergence_plus_constant", "custom")

Forcing = Callable[[np.ndarray, float], np.ndarray] | SpaceTimeField | None


@dataclass(frozen=True)
class IVPConfig:
    """Discretization and zero-order-term selection for one solve."""

    n_nodes: int = 256
    n_steps: int = 512
    scheme: str = "crank_nicolson"
    zero_order: str = "zero"
    coefficient: float = 0.0  # c0 for `constant`, alpha for `divergence_plus_constant`
    custom: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.zero_order not in _ZERO_ORDER_MODES:
            raise ValueError(
                f"zero_order must be one of {_ZERO_ORDER_MODES}, got {self.zero_order!r}"
            )
        self.grid(1.0)  # ParameterGrid owns the resolution checks
        if self.zero_order == "custom" and self.custom is None:
            raise ValueError("custom zero-order mode requires a closure")

    def grid(self, period: float) -> ParameterGrid:
        return ParameterGrid(self.n_nodes, self.n_steps, period)


def _require_finite(samples: np.ndarray, quantity: str) -> np.ndarray:
    """Pass (levels, nodes, ...) samples through, or raise StepError naming the
    quantity, the time level and the node of the first non-finite value."""
    if not np.all(np.isfinite(samples)):
        level, node = np.argwhere(~np.isfinite(samples))[0][:2]
        raise StepError(f"{quantity} is not finite at node {node}", int(level))
    return samples


def _forcing_samples(forcing: Forcing, grid: ParameterGrid) -> np.ndarray | None:
    if forcing is None:
        return None
    if isinstance(forcing, SpaceTimeField):
        if forcing.values.shape != (grid.n_steps + 1, grid.n_nodes):
            raise GridMismatchError(
                f"forcing shape {forcing.values.shape} does not match grid "
                f"({grid.n_steps + 1}, {grid.n_nodes})"
            )
        return _require_finite(forcing.values, "forcing")
    return _sample_levels(forcing, grid, "forcing")


def _sample_levels(fn: Callable[[np.ndarray, float], np.ndarray], grid: ParameterGrid,
                   quantity: str) -> np.ndarray:
    """(M+1, N) samples of a closure c(theta, t) at every node and time level."""
    theta = grid.nodes
    samples = np.stack(
        [np.asarray(fn(theta, t), dtype=float) + np.zeros_like(theta) for t in grid.times]
    )
    return _require_finite(samples, quantity)


class Propagator:
    """Per-level factorized stepper for one surface/config/forcing triple."""

    def __init__(
        self,
        surface: SurfaceFamily,
        grid: ParameterGrid,
        config: IVPConfig,
        forcing: Forcing = None,
    ):
        if grid.n_nodes != config.n_nodes or grid.n_steps != config.n_steps:
            raise GridMismatchError("grid does not match config resolution")
        self.surface = surface
        self.grid = grid
        self.config = config
        self.geometry = space_time_geometry(surface, grid)
        self.zero_order = self._zero_order_samples()
        self.forcing = _forcing_samples(forcing, grid)
        self._mu_ratio = config.zero_order in ("divergence", "divergence_plus_constant")
        self.operators, self._factors = self._assemble()

    def _zero_order_samples(self) -> np.ndarray:
        grid, config = self.grid, self.config
        shape = (grid.n_steps + 1, grid.n_nodes)
        if config.zero_order in ("zero", "divergence"):
            return np.zeros(shape)
        if config.zero_order in ("constant", "divergence_plus_constant"):
            return np.full(shape, config.coefficient)
        return _sample_levels(config.custom, grid, "zero-order coefficient")

    def _assemble(self):
        """Per-level operators (CSR) and factorized implicit step matrices."""
        geo, dt = self.geometry, self.grid.dt
        main, upper, lower = _operator_diagonals(geo.c_half, geo.sqrt_g, self.grid.dtheta)
        operators = [_cyclic_tridiagonal(*diags) for diags in zip(main, upper, lower)]
        react = self.zero_order
        if self.config.scheme == "backward_euler":
            step_main, step_upper, step_lower = 1.0 / dt - main + react, -upper, -lower
        else:
            step_main = 1.0 / dt - 0.5 * (main - react)
            step_upper, step_lower = -0.5 * upper, -0.5 * lower
        factors = []
        for k in range(1, self.grid.n_steps + 1):
            mat = _cyclic_tridiagonal(step_main[k], step_upper[k], step_lower[k], "csc")
            try:
                factors.append(spla.splu(mat))
            except RuntimeError as exc:  # singular factorization
                raise StepError(f"implicit system factorization failed: {exc}", k)
        return operators, factors

    def step(self, values: np.ndarray, level: int, include_forcing: bool = True) -> np.ndarray:
        """Advance nodal values (N,) or a batch (N, K) from `level` to `level+1`."""
        dt = self.grid.dt
        u = np.asarray(values, dtype=float)
        batched = u.ndim == 2

        def _col(a):
            return a[:, None] if batched else a

        mu = self.geometry.sqrt_g
        scale = _col(mu[level] / mu[level + 1]) if self._mu_ratio else 1.0
        if self.config.scheme == "backward_euler":
            rhs = scale * (u / dt)
            if include_forcing and self.forcing is not None:
                rhs = rhs - _col(self.forcing[level + 1])
        else:
            explicit = u / dt + 0.5 * (
                self.operators[level] @ u - _col(self.zero_order[level]) * u
            )
            if include_forcing and self.forcing is not None:
                explicit = explicit - 0.5 * _col(self.forcing[level])
            rhs = scale * explicit
            if include_forcing and self.forcing is not None:
                rhs = rhs - 0.5 * _col(self.forcing[level + 1])
        out = self._factors[level].solve(rhs)
        if not np.all(np.isfinite(out)):
            raise StepError("implicit solve produced non-finite values", level + 1)
        return out

    def run(
        self,
        u0: np.ndarray,
        include_forcing: bool = True,
        keep_trajectory: bool = True,
    ) -> np.ndarray:
        """Propagate over the full period.

        Returns the trajectory (M+1, N) when `keep_trajectory`, otherwise the
        final state only (same shape as `u0`, which may be a (N, K) batch).
        """
        u = np.array(u0, dtype=float)
        _require_finite(u[None], "initial state")
        if keep_trajectory:
            if u.ndim != 1:
                raise GridMismatchError("trajectories are only kept for single states")
            traj = np.empty((self.grid.n_steps + 1, self.grid.n_nodes))
            traj[0] = u
            for k in range(self.grid.n_steps):
                u = self.step(u, k, include_forcing)
                traj[k + 1] = u
            return traj
        for k in range(self.grid.n_steps):
            u = self.step(u, k, include_forcing)
        return u


def solve_ivp(
    surface: SurfaceFamily,
    grid: ParameterGrid,
    config: IVPConfig,
    u0: ScalarField | np.ndarray,
    forcing: Forcing = None,
) -> SpaceTimeField:
    """Full trajectory of the initial value problem over one period."""
    values = u0.values if isinstance(u0, ScalarField) else np.asarray(u0, dtype=float)
    prop = Propagator(surface, grid, config, forcing)
    return SpaceTimeField(prop.run(values), grid.times)


def end_map(
    surface: SurfaceFamily,
    grid: ParameterGrid,
    config: IVPConfig,
    u0: ScalarField | np.ndarray,
    forcing: Forcing = None,
) -> ScalarField:
    """Final slice of the initial value problem (the end-of-period map)."""
    values = u0.values if isinstance(u0, ScalarField) else np.asarray(u0, dtype=float)
    prop = Propagator(surface, grid, config, forcing)
    return ScalarField(prop.run(values, keep_trajectory=False), grid.period)


def _reversed_forcing(forcing: Forcing, grid: ParameterGrid) -> Forcing:
    if forcing is None:
        return None
    if isinstance(forcing, SpaceTimeField):
        return SpaceTimeField(forcing.values[::-1].copy(), grid.times)
    period = grid.period
    return lambda theta, t: forcing(theta, period - t)


def adjoint_solve(
    surface: SurfaceFamily,
    grid: ParameterGrid,
    config: IVPConfig,
    forcing: Forcing,
    terminal: ScalarField | np.ndarray | None = None,
) -> SpaceTimeField:
    """Solve ``diffusion(phi) + phi_t = f`` by running the time-reversed
    metric family forward and flipping the result.

    With `terminal` given this is the backward initial value problem from
    that final state; otherwise the relaxed-periodic problem (zero terminal
    mean) is solved through the monodromy route.
    """
    reversed_surface = surface.time_reversed()
    rev_config = replace(config, zero_order="zero", coefficient=0.0, custom=None)
    rev_forcing = _reversed_forcing(forcing, grid)
    if terminal is not None:
        values = terminal.values if isinstance(terminal, ScalarField) else np.asarray(terminal)
        traj = solve_ivp(reversed_surface, grid, rev_config, values, rev_forcing)
    else:
        from .periodic import PeriodicProblem, monodromy_solve

        problem = PeriodicProblem(
            surface=reversed_surface, config=rev_config, forcing=rev_forcing, target_mean=0.0
        )
        traj, _ = monodromy_solve(problem)
    return SpaceTimeField(traj.values[::-1].copy(), grid.times)


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time differencing of a (M+1, N) trajectory (zero below three levels)."""
    if values.shape[0] < 3:
        return np.zeros_like(values)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def duality_check(geometry: SpaceTimeGeometry, u: SpaceTimeField, phi: SpaceTimeField) -> float:
    """Residual of the discrete space-time integration-by-parts chain.

    Evaluates ``|II(L u, phi) - II(u, diffusion(phi) + phi_t) + boundary|``
    where L is the conservative operator with the dilation-rate zero-order
    term, II the trapezoid space-time quadrature and `boundary` the
    difference of the weighted end products.  Decays at the scheme order
    when u and phi come from the solvers.
    """
    if u.values.shape != phi.values.shape:
        raise GridMismatchError("trajectories have different shapes")
    dt = geometry.grid.dt
    uu, pp = u.values, phi.values
    lu = geometry.laplace_beltrami(uu) - geometry.trace_rate * uu - _time_derivative(uu, dt)
    lstar_phi = geometry.laplace_beltrami(pp) + _time_derivative(pp, dt)
    i_forward = geometry.space_time_integral(lu * pp)
    i_adjoint = geometry.space_time_integral(uu * lstar_phi)
    ends = geometry.integrals(uu * pp)
    return abs(i_forward - i_adjoint + float(ends[-1] - ends[0]))
