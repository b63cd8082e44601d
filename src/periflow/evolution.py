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
Sherman-Morrison correction adds the periodic corners (BLAS ``daxpy``); the
factors of all M levels are stacked ``(M, N)`` arrays of one
``_CyclicFactor``.  The three routines are called through ``ctypes`` from
the OpenBLAS that numpy's wheels bundle, so stepping imports no scipy;
other builds of numpy take them from scipy.linalg, with the same bits (see
``_lapack``).  Their ctypes arguments are built with the factors and once
per run, so a step moves only the address of its right side.  A step needs no
matvec: the explicit operator is ``1/(theta dt) - beta (1/dt - theta (L_k -
c))``, beta = (1 - theta)/theta, and B_k u_k is the right side just solved,
so each right side is carried from the previous one; in the divergence
modes the rate 1/(theta dt) is weighted by ``sqrt_g[k]``, formed from the
geometry's rows one block of levels at a time.  A step allocates nothing:
each right side is formed and solved in place, in its trajectory row or in
one of two rows used in turn.  One ``Propagator`` holds a run's grid, geometry,
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

import ctypes
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def _lapack() -> tuple:
    """LAPACK `dpttrf` and `dpttrs` and BLAS `daxpy` as ctypes functions, and
    the ctypes type of their integers.

    numpy's wheels bundle an OpenBLAS that exports them as `scipy_<name>_64_`
    (64-bit integers), which the symbol lookup of numpy's core extension
    reaches; importing scipy.linalg for three routines would cost more than
    a periodic solve.  Other builds of numpy (conda's MKL, macOS Accelerate)
    lack the symbols and take the routines from scipy.linalg's Cython
    exports (C `int`).  Both give the bits of scipy.linalg's own wrappers,
    so the source changes no result and needs no setting.  No `argtypes` are
    declared: converting them costs about 1 us a call, a seventh of a step
    at N = 256, so `_CyclicFactor` builds each argument with its exact type
    and checks the layout of the arrays it passes instead."""
    try:
        from numpy._core import _multiarray_umath

        library = ctypes.CDLL(_multiarray_umath.__file__)
        names = ("scipy_dpttrf_64_", "scipy_dpttrs_64_", "scipy_daxpy_64_")
        routines = [getattr(library, name) for name in names]
    except (ImportError, OSError, AttributeError):
        return _scipy_lapack()
    return (*routines, ctypes.c_int64)


def _scipy_lapack() -> tuple:
    """`_lapack`'s routines from the function pointers that
    scipy.linalg.cython_lapack and cython_blas export (C `int` arguments)."""
    from scipy.linalg import cython_blas, cython_lapack

    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    capsules = (cython_lapack.__pyx_capi__["dpttrf"], cython_lapack.__pyx_capi__["dpttrs"],
                cython_blas.__pyx_capi__["daxpy"])
    return (*(ctypes.CFUNCTYPE(None)(pointer(c, name(c))) for c in capsules), ctypes.c_int)


_LAPACK = _lapack()


def _require_rows(n: int, *arrays: np.ndarray) -> None:
    """Raise ValueError unless each array holds rows of `n` float64 values in
    C order, the layout whose rows `_CyclicFactor` hands to LAPACK by address."""
    if not all(a.dtype == np.float64 and a.flags.c_contiguous and a.ndim == 2
               and a.shape[1] == n for a in arrays):
        raise ValueError(f"cyclic systems and right sides must be float64 C-order rows of {n}")


class _CyclicFactor:
    """LAPACK LDL^T factors of K symmetric cyclic tridiagonal matrices A_k of
    N >= 3 nodes, given as (K, N) float C-order arrays: diagonals `main`,
    and `off`, whose off[k, i] couples node i to i + 1.  T = A - w w^T /
    gamma, w = (gamma, 0, ..., off[-1]), gamma = -main[0], is tridiagonal and
    positive definite when A is; x = y - z (v.y) / (1 + v.z) with T y = b,
    T z = w, v = w / gamma (Sherman-Morrison), and A is positive definite
    exactly when T is and 1 + v.z > 0.  The factors overwrite `main` and
    `off`, kept as `d` and `e` (whose last column still holds the corner),
    beside the (K, N) `z` and the (K,) `ratio` = v[-1] and `denominator` =
    1 + v.z.  Raises StepError at time level `level` + k for the first A_k
    that is not positive definite or is singular to round-off."""

    def __init__(self, main: np.ndarray, off: np.ndarray, level: int):
        n_systems, n = main.shape
        _require_rows(n, main, off)
        if n < 3:
            raise ValueError(f"a cyclic tridiagonal matrix needs >= 3 nodes, got {n}")
        pttrf, self._pttrs, self._axpy, integer = _LAPACK
        gamma = -main[:, 0]  # gamma >= 0 leaves d[0] = 2 main[0] <= 0: dpttrf rejects it
        self.ratio = np.divide(off[:, -1], gamma, out=np.zeros(n_systems), where=gamma != 0.0)
        main[:, 0] -= gamma
        main[:, -1] -= off[:, -1] * self.ratio
        self.d, self.e = main, off
        self.z = np.zeros_like(main)
        self.z[:, 0], self.z[:, -1] = gamma, off[:, -1]
        self._n, self._one, info = integer(n), integer(1), integer(0)
        self._info = ctypes.byref(info)
        n_ref, one = ctypes.byref(self._n), ctypes.byref(self._one)
        # row k of d, e and z as ctypes arguments, built once: a step then sets
        # no address of theirs, for about 500 bytes per system
        d0, e0, z0 = (a.ctypes.data for a in (self.d, self.e, self.z))
        self._levels = [(ctypes.c_void_p(d0 + row), ctypes.c_void_p(e0 + row),
                         ctypes.c_void_p(z0 + row)) for row in range(0, 8 * n * n_systems, 8 * n)]
        factored = n_systems  # the systems before the first that dpttrf rejects
        for k, (d, e, z) in enumerate(self._levels):
            pttrf(n_ref, d, e, self._info)
            if info.value:
                factored = k
                break
            self._pttrs(n_ref, one, d, e, z, n_ref, self._info)
        vz = self.z[:, 0] + self.ratio * self.z[:, -1]
        self.denominator = 1.0 + vz
        singular = ~(np.abs(self.denominator) > _SINGULAR_TOL * (1.0 + np.abs(vz)))
        failed = np.flatnonzero((singular | (self.denominator < 0.0))[:factored])
        if failed.size:
            k = int(failed[0])
            raise StepError("step matrix is singular: corner correction vanishes" if singular[k]
                            else "step matrix is not positive definite", level + k)
        if factored < n_systems:
            raise StepError("step matrix is not positive definite", level + factored)

    def solver(self, rows: np.ndarray) -> Callable[[int, int], None]:
        """solve(k, j), which overwrites row j of the (J, N) float C-order
        array `rows` with A_k^-1 rows[j].  Its ctypes arguments are built
        here and with the factor, once; a call only moves the right side's
        pointer to row j.  It holds the factor and `rows` alive."""
        size = self._n.value
        _require_rows(size, rows)
        pttrs, axpy, info = self._pttrs, self._axpy, self._info
        n, one = ctypes.byref(self._n), ctypes.byref(self._one)
        b = rows.ctypes.data_as(ctypes.c_void_p)
        b0, stride = b.value, 8 * size
        a = ctypes.c_double()
        alpha = ctypes.byref(a)
        values = memoryview(rows.reshape(-1))  # its items are Python floats: a quicker read
        ratio, denominator = self.ratio.tolist(), self.denominator.tolist()

        def solve(k: int, j: int) -> None:
            d, e, z = self._levels[k]
            b.value = b0 + stride * j
            pttrs(n, one, d, e, b, n, info)
            first = size * j
            a.value = -(values[first] + ratio[k] * values[first + size - 1]) / denominator[k]
            axpy(n, alpha, z, one, b, one)

        return solve


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
        main, off = np.empty((2, grid.n_steps, grid.n_nodes))  # of B_1 .. B_M
        for rows in _level_blocks(grid, 1):
            steps = slice(rows.start - 1, rows.stop - 1)
            # theta c_{i+1/2} / dtheta^2
            coupling = np.multiply(theta / grid.dtheta**2, geo.c_half[rows], out=off[steps])
            block = np.multiply(geo.sqrt_g[rows], self._shift, out=main[steps])
            block += coupling
            block[:, 1:] += coupling[:, :-1]
            block[:, 0] += coupling[:, -1]
            np.negative(coupling, out=coupling)
        self._factor = _CyclicFactor(main, off, 1)
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
        out = np.empty((self.grid.n_steps + 1 if keep_trajectory else 2, self.grid.n_nodes))
        if keep_trajectory:
            out[0] = u
        solve = self._factor.solver(out)
        weight = self._weight
        if beta:  # beta r_{-1}
            flux = _flux_form_apply(geo.c_half[0], geo.sqrt_g[0], self.grid.dtheta, u)
            density = geo.sqrt_g[0] if weight is None else 1.0
            carried = (beta * density) * (self._shift * u - theta * flux)
        if weight is None:  # a_k for one block of levels at a time
            blocks = _level_blocks(self.grid, 0, self.grid.n_steps)
            rates = (rate for block in blocks for rate in geo.sqrt_g[block] / scale)
        else:
            rates = itertools.repeat(1.0 / scale)
        rows = range(1, self.grid.n_steps + 1) if keep_trajectory else itertools.cycle((1, 0))
        for k, j, rate in zip(range(self.grid.n_steps), rows, rates):
            rhs = np.multiply(rate, u, out[j])
            if load is not None:
                rhs -= load[k]
            if beta:
                rhs -= carried
                np.multiply(beta, rhs, carried)
            if weight is not None:
                rhs *= weight[k + 1]
            solve(k, j)
            u = rhs
        # The end-state check misses nothing because a non-finite value is
        # absorbing: every off-diagonal of each step matrix is nonzero (theta and
        # c_half > 0), so the cyclic solve spreads an inf or NaN in its right side to
        # every node; one in the state or the carried right side makes the next right
        # side non-finite; and no step makes it finite again, as it only scales and adds.
        if not np.all(np.isfinite(u)):
            _require_finite(out if keep_trajectory else self.run(u0, include_forcing), "state")
        return out if keep_trajectory else u
