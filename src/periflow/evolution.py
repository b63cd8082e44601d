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
samples the forcing once.  ``Propagator.run`` is the one entry point that
steps; it checks the initial state on entry and the end state once per
period, and a non-finite state raises ``StepError`` naming its first time
level and node.  The periodic solves reuse its factors and the
ledgers read its geometry and per-level forcing integrals.  Of the
zero-order term it keeps only ``rate_floor``, the constant c plus, in the
divergence modes, the pointwise lower bound of the dilation rate, which
``periodic.contraction_estimate`` reads.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import StepError
from .fields import ParameterGrid, _require_shape
from .metric import _operator_diagonals, space_time_geometry
from .surfaces import SurfaceFamily

_THETA = {"backward_euler": 1.0, "crank_nicolson": 0.5}
# relative floor of |1 + v.z|: singular step matrices give < 4e-15, regular ones > 1e-4
_SINGULAR_TOL = 1e-12
_ZERO_ORDER_MODES = ("zero", "constant", "divergence", "divergence_plus_constant")

Forcing = Callable[[np.ndarray, float], np.ndarray] | np.ndarray | None


@dataclass(frozen=True)
class IVPConfig:
    """Discretization and zero-order-term selection for one solve."""

    n_nodes: int
    n_steps: int
    scheme: str
    zero_order: str
    coefficient: float = 0.0  # c0 for `constant`, alpha for `divergence_plus_constant`

    def __post_init__(self):
        if self.scheme not in _THETA:
            raise ValueError(f"scheme must be one of {tuple(_THETA)}, got {self.scheme!r}")
        if self.zero_order not in _ZERO_ORDER_MODES:
            raise ValueError(
                f"zero_order must be one of {_ZERO_ORDER_MODES}, got {self.zero_order!r}"
            )
        self.grid(1.0)  # ParameterGrid owns the resolution checks

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


def _forcing_samples(forcing: Forcing, grid: ParameterGrid) -> np.ndarray | None:
    if forcing is None:
        return None
    if callable(forcing):
        return _sample_levels(forcing, grid)
    samples = _require_shape(forcing, (grid.n_steps + 1, grid.n_nodes), "forcing")
    return _require_finite(samples, "forcing")


def _sample_levels(fn: Callable[[np.ndarray, float], np.ndarray],
                   grid: ParameterGrid) -> np.ndarray:
    """(M+1, N) samples of a forcing closure f(theta, t) at every node and time
    level; each level's value is a scalar or an (N,) array, else GridMismatchError."""
    theta = grid.nodes
    levels = []
    for t in grid.times:
        value = np.asarray(fn(theta, t), dtype=float)
        if value.shape not in ((), (1,)):
            value = _require_shape(value, theta.shape, "forcing")
        levels.append(value + np.zeros_like(theta))
    return _require_finite(np.stack(levels), "forcing")


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
    surface's period, the space-time geometry, `rate_floor` (the zero-order
    coefficient c plus, in the divergence modes, the pointwise lower bound over
    all levels of the dilation rate `geometry.trace_rate`) and the
    (M+1,) weighted integrals of the forcing samples at each level (None
    without forcing)."""

    def __init__(self, surface: SurfaceFamily, config: IVPConfig, forcing: Forcing = None):
        self.config = config
        self.grid = config.grid(surface.period)
        self.geometry = space_time_geometry(surface, self.grid)
        mode = config.zero_order
        c = config.coefficient if mode in ("constant", "divergence_plus_constant") else 0.0
        divergence = mode in ("divergence", "divergence_plus_constant")
        self.rate_floor = float(c)
        if divergence:
            self.rate_floor += float(np.min(self.geometry.trace_rate))
        samples = _forcing_samples(forcing, self.grid)
        self.forcing_integrals = None if samples is None else self.geometry.integrals(samples)
        self._explicit, self._load, self._factors = self._assemble(c, divergence, samples)

    def _assemble(self, c: float, divergence: bool, forcing: np.ndarray | None):
        """Explicit (M, 3, N) diagonals and (M, N) load of the forcing samples,
        with the divergence-mode measure ratio folded in, and the factors of
        every new level's 1/dt - theta*(diffusion - c) for the zero-order
        coefficient `c`."""
        geo, dt, theta = self.geometry, self.grid.dt, self.config.theta
        main, upper, lower = _operator_diagonals(geo.c_half, geo.sqrt_g, self.grid.dtheta)
        main = main - c
        scale = geo.sqrt_g[:-1] / geo.sqrt_g[1:] if divergence else 1.0
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

    def run(
        self,
        u0: np.ndarray,
        include_forcing: bool = True,
        keep_trajectory: bool = True,
    ) -> np.ndarray:
        """Propagate the (N,) state `u0` over the full period.

        Returns the trajectory (M+1, N) when `keep_trajectory`, otherwise the
        final state (N,) only.  A non-finite state raises StepError naming its
        first time level and node.
        """
        u = _require_shape(u0, (self.grid.n_nodes,), "initial state")
        _require_finite(u[None], "initial state")
        load = self._load if include_forcing else None
        states = [u]
        for k, factor in enumerate(self._factors):
            rhs = _banded_matvec(self._explicit[k], u)
            if load is not None:
                rhs -= load[k]
            u = factor.solve(rhs)
            if keep_trajectory:
                states.append(u)
        out = np.stack(states) if keep_trajectory else u
        # The end-state check misses nothing because a non-finite value is
        # absorbing: every off-diagonal of each step matrix is nonzero (c_half > 0,
        # theta in {1/2, 1}), so the cyclic solve spreads an inf or NaN to every
        # node, and a step only multiplies states by finite coefficients and adds
        # them, so no later step makes it finite again.
        if not np.all(np.isfinite(u)):
            _require_finite(out if keep_trajectory else self.run(u0, include_forcing), "state")
        return out


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time differencing of a (M+1, N) trajectory (zero below three levels)."""
    if values.shape[0] < 3:
        return np.zeros_like(values)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out
