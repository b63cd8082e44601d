"""Implicit time stepping for the pulled-back advection-diffusion problem.

Solves ``diffusion(u) - c*u - u_t = f`` on the reference grid with the
theta-scheme: operator, zero-order term and forcing weigh theta at the new
level and 1 - theta at the old one (backward Euler theta = 1, Crank-Nicolson
1/2).  A step is one banded matvec of precomputed diagonals and one cyclic
tridiagonal solve: LAPACK ``dgttrf`` factorizes each level once, ``dgttrs``
solves, and a rank-one Sherman-Morrison correction adds the periodic corners.
A step matrix singular to round-off raises ``StepError`` at the level where
it is factorized.  One ``Propagator`` holds a run: it derives the grid from
the config and the surface's period, builds the space-time geometry and
samples the forcing once.  The periodic solves reuse its factors and the
ledgers read its geometry and per-level forcing integrals.

States are ``(N,)`` arrays; a trajectory is an ``(M+1, N)`` array whose
rows are the levels of ``prop.grid.times``, and the measure of level k is
the ``(N,)`` weight row ``prop.geometry.weights[k]``.  The forcing is a
closure ``f(theta, t)`` or its ``(M+1, N)`` samples on the same levels.

Zero-order modes
----------------
``zero``                       c = 0
``constant``                   c = ``coefficient`` (config key ``c0``)
``divergence``                 c equals the metric dilation rate; realized by
                               weighting the previous state with the ratio of
                               measure densities, which makes the discrete
                               mass law exact to round-off for any forcing
                               (see ``diagnostics.mass_ledger``)
``divergence_plus_constant``   divergence weighting plus c = ``coefficient``
                               (config key ``alpha``)
``custom``                     arbitrary closure c(theta, t)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import GridMismatchError, StepError
from .fields import ParameterGrid
from .metric import SpaceTimeGeometry, _operator_diagonals, space_time_geometry
from .surfaces import SurfaceFamily

_THETA = {"backward_euler": 1.0, "crank_nicolson": 0.5}
# relative floor of |1 + v.z|: singular step matrices give < 4e-15, regular ones > 1e-4
_SINGULAR_TOL = 1e-12
_ZERO_ORDER_MODES = ("zero", "constant", "divergence", "divergence_plus_constant", "custom")

Forcing = Callable[[np.ndarray, float], np.ndarray] | np.ndarray | None


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
        if self.scheme not in _THETA:
            raise ValueError(f"scheme must be one of {tuple(_THETA)}, got {self.scheme!r}")
        if self.zero_order not in _ZERO_ORDER_MODES:
            raise ValueError(
                f"zero_order must be one of {_ZERO_ORDER_MODES}, got {self.zero_order!r}"
            )
        self.grid(1.0)  # ParameterGrid owns the resolution checks
        if self.zero_order == "custom" and self.custom is None:
            raise ValueError("custom zero-order mode requires a closure")

    def grid(self, period: float) -> ParameterGrid:
        return ParameterGrid(self.n_nodes, self.n_steps, period)

    @property
    def theta(self) -> float:
        """Weight of the operator at the new time level."""
        return _THETA[self.scheme]


def _require_finite(samples: np.ndarray, quantity: str) -> np.ndarray:
    """Pass (levels, nodes, ...) samples through, or raise StepError naming the
    quantity, the time level and the node of the first non-finite value."""
    if not np.all(np.isfinite(samples)):
        level, node = np.argwhere(~np.isfinite(samples))[0][:2]
        raise StepError(f"{quantity} is not finite at node {node}", int(level))
    return samples


def _require_state(values: np.ndarray, n_nodes: int, quantity: str) -> np.ndarray:
    """`values` as an (N,) float array, or GridMismatchError naming its shape."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n_nodes,):
        raise GridMismatchError(
            f"{quantity} of shape {values.shape} does not match the grid's {n_nodes} nodes"
        )
    return values


def _forcing_samples(forcing: Forcing, grid: ParameterGrid) -> np.ndarray | None:
    if forcing is None:
        return None
    if callable(forcing):
        return _sample_levels(forcing, grid, "forcing")
    samples = np.asarray(forcing, dtype=float)
    if samples.shape != (grid.n_steps + 1, grid.n_nodes):
        raise GridMismatchError(
            f"forcing shape {samples.shape} does not match grid "
            f"({grid.n_steps + 1}, {grid.n_nodes})"
        )
    return _require_finite(samples, "forcing")


def _sample_levels(fn: Callable[[np.ndarray, float], np.ndarray], grid: ParameterGrid,
                   quantity: str) -> np.ndarray:
    """(M+1, N) samples of a closure c(theta, t) at every node and time level."""
    theta = grid.nodes
    samples = np.stack(
        [np.asarray(fn(theta, t), dtype=float) + np.zeros_like(theta) for t in grid.times]
    )
    return _require_finite(samples, quantity)


def _banded_matvec(diagonals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cyclic tridiagonal matrix, given as (main, upper, lower), times the
    (N,) state `u`; `upper` couples node i to i+1, `lower` to i-1."""
    main, upper, lower = diagonals
    wrapped = np.concatenate((u[-1:], u, u[:1]))
    out = main * u
    out += upper * wrapped[2:]
    out += lower * wrapped[:-2]
    return out


class _CyclicFactor:
    """LAPACK factors of one cyclic tridiagonal matrix A, diagonals as in
    `_banded_matvec`.  T = A - w v^T is tridiagonal for w = (gamma, 0, ...,
    upper[-1]), v = (1, 0, ..., lower[0] / gamma), gamma = -main[0]; then
    x = y - z (v.y) / (1 + v.z) with T y = b, T z = w (Sherman-Morrison).
    Raises StepError at `level` when T or 1 + v.z is singular to round-off."""

    def __init__(self, main: np.ndarray, upper: np.ndarray, lower: np.ndarray, level: int):
        gamma = -main[0]
        self.ratio = lower[0] / gamma
        diag = main.copy()
        diag[0] -= gamma
        diag[-1] -= upper[-1] * self.ratio
        *self.lu, info = dgttrf(lower[1:], diag, upper[:-1])
        if info > 0:
            raise StepError(f"step matrix is singular: zero pivot {info}", level)
        w = np.zeros_like(main)
        w[0], w[-1] = gamma, upper[-1]
        self.z = dgttrs(*self.lu, w)[0]
        vz = self.z[0] + self.ratio * self.z[-1]
        self.denominator = 1.0 + vz
        if not abs(self.denominator) > _SINGULAR_TOL * (1.0 + abs(vz)):
            raise StepError("step matrix is singular: corner correction vanishes", level)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for a (N,) `rhs`, which it may overwrite."""
        y = dgttrs(*self.lu, rhs, overwrite_b=1)[0]
        y -= self.z * ((y[0] + self.ratio * y[-1]) / self.denominator)
        return y


class Propagator:
    """Per-level factorized theta-scheme stepper for one surface/config/forcing
    triple.  It holds what a run shares: the grid the config fixes for the
    surface's period, the space-time geometry, the (M+1, N) zero-order
    samples and the (M+1,) weighted integrals of the forcing samples at
    each level (None without forcing)."""

    def __init__(self, surface: SurfaceFamily, config: IVPConfig, forcing: Forcing = None):
        self.surface = surface
        self.config = config
        self.grid = config.grid(surface.period)
        self.geometry = space_time_geometry(surface, self.grid)
        self.zero_order = self._zero_order_samples()
        samples = _forcing_samples(forcing, self.grid)
        self.forcing_integrals = None if samples is None else self.geometry.integrals(samples)
        self._explicit, self._load, self._factors = self._assemble(samples)

    def _zero_order_samples(self) -> np.ndarray:
        grid, config = self.grid, self.config
        shape = (grid.n_steps + 1, grid.n_nodes)
        if config.zero_order in ("zero", "divergence"):
            return np.zeros(shape)
        if config.zero_order in ("constant", "divergence_plus_constant"):
            return np.full(shape, config.coefficient)
        return _sample_levels(config.custom, grid, "zero-order coefficient")

    def _assemble(self, forcing: np.ndarray | None):
        """Explicit (M, 3, N) diagonals and (M, N) load of the forcing samples,
        with the divergence-mode measure ratio folded in, and the factors of
        every new level's 1/dt - theta*(diffusion - c)."""
        geo, dt, theta = self.geometry, self.grid.dt, self.config.theta
        main, upper, lower = _operator_diagonals(geo.c_half, geo.sqrt_g, self.grid.dtheta)
        main = main - self.zero_order
        scale = 1.0
        if self.config.zero_order in ("divergence", "divergence_plus_constant"):
            scale = geo.sqrt_g[:-1] / geo.sqrt_g[1:]
        old = scale * (1.0 - theta)
        explicit = np.stack(
            [scale / dt + old * main[:-1], old * upper[:-1], old * lower[:-1]], axis=1
        )
        load = None if forcing is None else old * forcing[:-1] + theta * forcing[1:]
        factors = [
            _CyclicFactor(1.0 / dt - theta * main[k], -theta * upper[k], -theta * lower[k], k)
            for k in range(1, self.grid.n_steps + 1)
        ]
        return explicit, load, factors

    def step(self, values: np.ndarray, level: int, include_forcing: bool = True) -> np.ndarray:
        """Advance the (N,) state `values` from `level` to `level+1`."""
        values = _require_state(values, self.grid.n_nodes, "state")
        rhs = _banded_matvec(self._explicit[level], values)
        if include_forcing and self._load is not None:
            rhs -= self._load[level]
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
        """Propagate the (N,) state `u0` over the full period.

        Returns the trajectory (M+1, N) when `keep_trajectory`, otherwise the
        final state (N,) only.
        """
        u = _require_state(np.array(u0, dtype=float), self.grid.n_nodes, "initial state")
        _require_finite(u[None], "initial state")
        states = [u]
        for k in range(self.grid.n_steps):
            u = self.step(u, k, include_forcing)
            if keep_trajectory:
                states.append(u)
        return np.stack(states) if keep_trajectory else u


def solve_ivp(
    surface: SurfaceFamily, config: IVPConfig, u0: np.ndarray, forcing: Forcing = None
) -> np.ndarray:
    """Trajectory (M+1, N) of the initial value problem over one period, on
    the levels of `config.grid(surface.period)`."""
    return Propagator(surface, config, forcing).run(u0)


def end_map(
    surface: SurfaceFamily, config: IVPConfig, u0: np.ndarray, forcing: Forcing = None
) -> np.ndarray:
    """Final slice (N,) of the initial value problem (the end-of-period map)."""
    return Propagator(surface, config, forcing).run(u0, keep_trajectory=False)


def _reversed_forcing(forcing: Forcing, period: float) -> Forcing:
    if forcing is None:
        return None
    if callable(forcing):
        return lambda theta, t: forcing(theta, period - t)
    return np.asarray(forcing, dtype=float)[::-1]


def adjoint_solve(
    surface: SurfaceFamily,
    config: IVPConfig,
    forcing: Forcing,
    terminal: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``diffusion(phi) + phi_t = f`` by running the time-reversed
    metric family forward and flipping the (M+1, N) result.

    With `terminal` given this is the backward initial value problem from
    that final state; otherwise the relaxed-periodic problem (zero terminal
    mean) is solved through the monodromy route.
    """
    reversed_surface = surface.time_reversed()
    rev_config = replace(config, zero_order="zero", coefficient=0.0, custom=None)
    prop = Propagator(reversed_surface, rev_config, _reversed_forcing(forcing, surface.period))
    if terminal is not None:
        traj = prop.run(terminal)
    else:
        from .periodic import monodromy_solve

        traj, _ = monodromy_solve(prop, target_mean=0.0)
    return traj[::-1]


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time differencing of a (M+1, N) trajectory (zero below three levels)."""
    if values.shape[0] < 3:
        return np.zeros_like(values)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def duality_check(geometry: SpaceTimeGeometry, u: np.ndarray, phi: np.ndarray) -> float:
    """Residual of the discrete space-time integration-by-parts chain.

    Evaluates ``|II(L u, phi) - II(u, diffusion(phi) + phi_t) + boundary|``
    where L is the conservative operator with the dilation-rate zero-order
    term, II the trapezoid space-time quadrature and `boundary` the
    difference of the weighted end products.  Decays at the scheme order
    when u and phi come from the solvers.
    """
    uu, pp = np.asarray(u, dtype=float), np.asarray(phi, dtype=float)
    if uu.shape != pp.shape:
        raise GridMismatchError(f"trajectories have different shapes {uu.shape} and {pp.shape}")
    dt = geometry.grid.dt
    lu = geometry.laplace_beltrami(uu) - geometry.trace_rate * uu - _time_derivative(uu, dt)
    lstar_phi = geometry.laplace_beltrami(pp) + _time_derivative(pp, dt)
    i_forward = geometry.space_time_integral(lu * pp)
    i_adjoint = geometry.space_time_integral(uu * lstar_phi)
    ends = geometry.integrals(uu * pp)
    return abs(i_forward - i_adjoint + float(ends[-1] - ends[0]))
