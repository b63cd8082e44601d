"""Implicit time stepping for the pulled-back advection-diffusion problem.

Solves ``diffusion(u) - c*u - u_t = f`` on the reference grid with the
theta-scheme: operator, zero-order term and forcing weigh theta at the new
level and 1 - theta at the old one (backward Euler theta = 1, Crank-Nicolson
1/2).  Weighted by the measure density, ``W_k = diag(sqrt_g[k])``, the step
matrix ``B_k = W_k (1/dt - theta (L_k - c))`` is symmetric cyclic tridiagonal
(the operator is in flux form), and with c the config's constant it is
positive definite exactly when ``1/dt + theta c > 0``; otherwise, or when it
is singular to round-off, ``StepError`` is raised.  Each level is factorized
once as LDL^T (LAPACK ``dpttrf``; ``dpttrs`` solves), and a rank-one
Sherman-Morrison correction adds the periodic corners.  A step needs no
matvec: the explicit operator is ``1/(theta dt) - beta (1/dt - theta (L_k -
c))``, beta = (1 - theta)/theta, and B_k u_k is the right side just solved,
so each right side is carried from the previous one; in the divergence
modes the rate 1/(theta dt) is weighted by ``sqrt_g[k]``, formed from the
geometry's rows one block of levels at a time.  One ``Propagator`` holds a run's grid, geometry,
forcing load and factors, and no other ``(M+1, N)``-sized array; its
``run`` is the one entry point that steps, and a non-finite state, checked
on entry and once per period, raises ``StepError`` naming its first time
level and node.  The periodic solves reuse its factors, the ledgers its
geometry and per-level forcing integrals, and
``periodic.contraction_estimate`` its ``rate_floor``, all it keeps of the
zero-order term (see ``Propagator``).

States are ``(N,)`` arrays; a trajectory is an ``(M+1, N)`` array whose
rows are the levels of ``prop.grid.times``, and the measure of level k is
the ``(N,)`` weight row ``prop.geometry.sqrt_g[k] * prop.grid.dtheta``
(``prop.geometry.weights0`` at time zero).  The forcing is a closure or
None.  It is called once, as ``f(prop.grid.nodes, prop.grid.times[:, None])``:
the times are an ``(M+1, 1)`` column, as in ``SurfaceFamily.jet``, so it
must compute with numpy (``np.sin(t)``, not ``math.sin(t)``).  Its result
is broadcast to ``(M+1, N)``: a scalar, an ``(N,)`` row or an ``(M+1, 1)``
column will do, and a shape that does not broadcast raises
``GridMismatchError``.  Samples at hand are the closure ``lambda theta, t:
samples``, whose float ``(M+1, N)`` result is read as it is and never
written.

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

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import StepError
from .fields import ParameterGrid, _require_shape
from .metric import _flux_form_apply, _level_blocks, space_time_geometry
from .surfaces import SurfaceFamily

_THETA = {"backward_euler": 1.0, "crank_nicolson": 0.5}
# relative floor of |1 + v.z|: singular step matrices give < 1.2e-14, regular ones > 1e-3
_SINGULAR_TOL = 1e-12
_ZERO_ORDER_MODES = ("zero", "constant", "divergence", "divergence_plus_constant")

Forcing = Callable[[np.ndarray, np.ndarray], np.ndarray] | None


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


def _sample_levels(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   grid: ParameterGrid) -> np.ndarray:
    """(M+1, N) samples of a forcing closure from one call f(nodes, times),
    the times an (M+1, 1) column as in `SurfaceFamily.jet`; a float result of
    that shape is returned as it is, and one that does not broadcast to it
    raises GridMismatchError naming both shapes."""
    shape = (grid.n_steps + 1, grid.n_nodes)
    value = np.asarray(fn(grid.nodes, grid.times[:, None]), dtype=float)
    if value.shape != shape:
        try:
            value = np.broadcast_to(value, shape).copy()
        except ValueError:
            pass  # `_require_shape` names both shapes
    return _require_finite(_require_shape(value, shape, "forcing"), "forcing")


class _CyclicFactor:
    """LAPACK LDL^T factors of a symmetric cyclic tridiagonal matrix A of N >= 3
    nodes: diagonal `main`, and `off`, whose off[i] couples node i to i + 1.
    T = A - w w^T / gamma, w = (gamma, 0, ..., off[-1]), gamma = -main[0], is
    tridiagonal and positive definite when A is; x = y - z (v.y) / (1 + v.z)
    with T y = b, T z = w, v = w / gamma (Sherman-Morrison), and A is positive
    definite exactly when T is and 1 + v.z > 0.  Raises StepError at `level`
    when A is not positive definite or is singular to round-off."""

    def __init__(self, main: np.ndarray, off: np.ndarray, level: int):
        if main.shape[0] < 3:
            raise ValueError(f"a cyclic tridiagonal matrix needs >= 3 nodes, got {main.shape[0]}")
        gamma = -main[0]  # gamma >= 0 leaves diag[0] = 2 main[0] <= 0: dpttrf rejects it
        self.ratio = off[-1] / gamma if gamma else 0.0
        diag = main.copy()
        diag[0] -= gamma
        diag[-1] -= off[-1] * self.ratio
        self.d, self.e, info = dpttrf(diag, off[:-1])
        if info:
            raise StepError("step matrix is not positive definite", level)
        w = np.zeros_like(main)
        w[0], w[-1] = gamma, off[-1]
        self.z = dpttrs(self.d, self.e, w)[0]
        vz = self.z[0] + self.ratio * self.z[-1]
        self.denominator = 1.0 + vz
        if not abs(self.denominator) > _SINGULAR_TOL * (1.0 + abs(vz)):
            raise StepError("step matrix is singular: corner correction vanishes", level)
        if self.denominator < 0.0:
            raise StepError("step matrix is not positive definite", level)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for a (N,) `rhs`, solved in place."""
        y = dpttrs(self.d, self.e, rhs, overwrite_b=1)[0]
        return daxpy(self.z, y, a=-(y[0] + self.ratio * y[-1]) / self.denominator)


class Propagator:
    """Per-level factorized theta-scheme stepper for one surface/config/forcing
    triple.  It holds what a run shares: the grid the config fixes for the
    surface's period, the space-time geometry, `rate_floor` (c plus, in the
    divergence modes, `geometry.min_dilation_rate`) and the (M+1,) weighted
    forcing integrals per level (None without forcing).  Of (M+1, N)-sized
    data it stores only the geometry's two arrays, the factors of the B_k and
    the forcing load, each built one block of levels at a time."""

    def __init__(self, surface: SurfaceFamily, config: IVPConfig, forcing: Forcing = None):
        self.config = config
        self.grid = grid = config.grid(surface.period)
        self.geometry = geo = space_time_geometry(surface, grid)
        mode = config.zero_order
        c = config.coefficient if mode in ("constant", "divergence_plus_constant") else 0.0
        divergence = mode in ("divergence", "divergence_plus_constant")
        self.rate_floor = float(c) + (geo.min_dilation_rate if divergence else 0.0)
        samples = None if forcing is None else _sample_levels(forcing, grid)
        self.forcing_integrals = None if samples is None else geo.integrals(samples)
        theta, dt = config.theta, grid.dt
        self._shift = 1.0 / dt + theta * c
        if self._shift < 0.0:  # then 1^T B_k 1 < 0 at every level
            raise StepError("step matrix is not positive definite: "
                            f"1/dt + theta*c = {self._shift:.6g}", 1)
        self._factors = []
        for rows in _level_blocks(grid, 1):
            coupling = (theta / grid.dtheta**2) * geo.c_half[rows]  # theta c_{i+1/2} / dtheta^2
            main = geo.sqrt_g[rows] * self._shift + coupling
            main[:, 1:] += coupling[:, :-1]
            main[:, 0] += coupling[:, -1]
            self._factors += [_CyclicFactor(main[j], -coupling[j], rows.start + j)
                              for j in range(main.shape[0])]
        self._weight = None if divergence else geo.sqrt_g  # None: `run` carries B_k u_k itself
        self._load = None
        if samples is not None:  # (1 - theta) f_k + theta f_{k+1}, measure-weighted
            self._load = np.empty((grid.n_steps, grid.n_nodes))
            for rows in _level_blocks(grid, 0, grid.n_steps):
                later = slice(rows.start + 1, rows.stop + 1)
                old, new = samples[rows], samples[later]
                if divergence:
                    old, new = geo.sqrt_g[rows] * old, geo.sqrt_g[later] * new
                np.multiply(1.0 - theta, old, out=self._load[rows])
                self._load[rows] += theta * new

    def run(
        self,
        u0: np.ndarray,
        include_forcing: bool = True,
        keep_trajectory: bool = True,
    ) -> np.ndarray:
        """Propagate the (N,) state `u0` over the full period.

        Returns the trajectory (M+1, N), solved row by row into one array,
        when `keep_trajectory`, else the final state (N,).  A non-finite
        state raises StepError naming its first time level and node.  The
        solve for level k + 1 has the right side r_k = a_k u_k -
        beta r_{k-1} - l_k (r_{-1} from B_0 u0, one flux-form apply), times
        sqrt_g[k+1] outside the divergence modes, where a_k = 1 / (theta dt)
        and l_k = (1 - theta) f_k + theta f_{k+1}.  The divergence modes
        fold in the measure ratio: a_k = sqrt_g[k] / (theta dt), formed one
        block of levels at a time, and l_k = (1 - theta) sqrt_g[k] f_k +
        theta sqrt_g[k+1] f_{k+1}.
        """
        u = _require_shape(u0, (self.grid.n_nodes,), "initial state")
        _require_finite(u[None], "initial state")
        geo, theta = self.geometry, self.config.theta
        beta, scale = (1.0 - theta) / theta, theta * self.grid.dt
        load = self._load if include_forcing else None
        out = np.empty((self.grid.n_steps + 1, self.grid.n_nodes)) if keep_trajectory else None
        if keep_trajectory:
            out[0] = u
        if beta:  # beta r_{-1}
            flux = _flux_form_apply(geo.c_half[0], geo.sqrt_g[0], self.grid.dtheta, u)
            density = geo.sqrt_g[0] if self._weight is None else 1.0
            carried = (beta * density) * (self._shift * u - theta * flux)
        if self._weight is None:  # a_k for one block of levels at a time
            blocks = _level_blocks(self.grid, 0, self.grid.n_steps)
            rates = (rate for rows in blocks for rate in geo.sqrt_g[rows] / scale)
        else:
            rates = itertools.repeat(1.0 / scale)
        for k, (factor, rate) in enumerate(zip(self._factors, rates)):
            rhs = np.multiply(rate, u, out=out[k + 1] if keep_trajectory else None)
            if load is not None:
                rhs -= load[k]
            if beta:
                rhs -= carried
                carried = beta * rhs
            if self._weight is not None:
                rhs *= self._weight[k + 1]
            u = factor.solve(rhs)
        # The end-state check misses nothing because a non-finite value is
        # absorbing: every off-diagonal of each step matrix is nonzero (theta and
        # c_half > 0), so the cyclic solve spreads an inf or NaN in its right side to
        # every node; one in the state or the carried right side makes the next right
        # side non-finite; and no step makes it finite again, as it only scales and adds.
        if not np.all(np.isfinite(u)):
            _require_finite(out if keep_trajectory else self.run(u0, include_forcing), "state")
        return out if keep_trajectory else u
