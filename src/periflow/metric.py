"""Metric assembly and the diffusion operator in divergence form.

The moving-curve problem is pulled back to the fixed reference curve
``M = Gamma(0)``.  The time-dependent geometry enters through a symmetric
positive-definite matrix field ``G(theta, t)`` built from the chart's
tangential derivatives plus the normal dyad, so that ``G nu = nu`` holds by
construction.  In the single chart coordinate the induced metric is the
scalar ``g(theta, t) = |X_theta|^2`` and the diffusion operator becomes

    (1/sqrt(g)) d/dtheta ( sqrt(g) g^{-1} dU/dtheta ),

which we discretize conservatively: fluxes at half nodes with
arithmetic-mean coefficients.  The flux form telescopes on the periodic
grid, so the discrete operator annihilates constants exactly and its output
has exactly zero weighted mass — the conservation diagnostics rely on both.

Every mean, mass and operator call reads two per-node scalars: the measure
density ``sqrt(g)``, whose product with ``dtheta`` is the quadrature
weights, and the flux coefficient ``sqrt(g)/g`` at the half nodes.  One
helper computes them, for the per-level rows of ``SpaceTimeGeometry`` that
the 1-d solver reads and for the single time slice of ``MetricSample``.
The space-time geometry stores only those two ``(M+1, N)`` arrays, built
one block of levels at a time with no full-size temporary, and the least
dilation rate; weights are formed where they are read.  Of the Cartesian
``G`` a slice keeps only what the trace identity reads: ``G^{-1}`` and
``G_t``.  A measure is its ``(N,)`` row of weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError
from .fields import AmbientField, ParameterGrid, _require_shape
from .surfaces import GeometryFrame, SurfaceFamily, build_frame

_CONDITION_LIMIT = 1e12
_BLOCK_POINTS = 1 << 15  # levels x nodes per block of levels (`_level_blocks`)


@dataclass(frozen=True)
class MetricSample:
    """Metric data of one time slice on the reference parameter grid: the
    scalar metric of the operator and the measure, and the two Cartesian
    fields of the dilation rate."""

    theta: np.ndarray
    dtheta: float
    cartesian_inv: np.ndarray  # (N, 2, 2)  G^{-1}
    cartesian_dt: np.ndarray  # (N, 2, 2)  time derivative of G
    sqrt_g: np.ndarray  # (N,)  measure density sqrt(g), g = |X_theta|^2 at this time
    weights: np.ndarray  # (N,)  sqrt(g) * dtheta, the quadrature weights of the measure
    c_half: np.ndarray  # (N,)  flux coefficient sqrt(g)/g at the half nodes i + 1/2

    @property
    def n_nodes(self) -> int:
        return self.theta.shape[0]

    @property
    def trace_rate(self) -> np.ndarray:
        """Per-node (1/2) tr(G^{-1} G_t), the metric dilation rate."""
        return 0.5 * np.einsum("iab,iba->i", self.cartesian_inv, self.cartesian_dt)


def _local_metric(xd: np.ndarray, xtd: np.ndarray, g_ref: np.ndarray, times,
                  first_level: int | None = None):
    """g = |X_theta|^2, its time derivative g_t and the ratio g/g_ref from
    X_theta and X_t_theta at `times` (a float, or an (L, 1) column for rows of
    levels counted from `first_level`); rejects a metric whose condition number
    exceeds the limit, naming the first such time and its worst node."""
    g = np.einsum("...a,...a->...", xd, xd)
    g_t = 2.0 * np.einsum("...a,...a->...", xd, xtd)
    ratio = g / g_ref
    cond = np.atleast_2d(np.maximum(ratio, 1.0 / ratio))
    if np.max(cond) > _CONDITION_LIMIT:
        row = int(np.argmax(np.max(cond, axis=1) > _CONDITION_LIMIT))
        node = int(np.argmax(cond[row]))
        where = f"t={float(np.ravel(times)[row])!r}, node {node}"
        if first_level is not None:
            where = f"time level {first_level + row} ({where})"
        raise DegenerateMetricError(
            f"metric condition number {cond[row, node]:.3e} exceeds "
            f"{_CONDITION_LIMIT:.0e} at {where}"
        )
    return g, g_t, ratio


def assemble_metric(surface: SurfaceFamily, grid: ParameterGrid, t: float) -> MetricSample:
    """Assemble the scalar metric, G^{-1} and G_t at time t.

    All entries come from the exact chart jet; the only approximation in
    this module is the spatial differencing done by the operator appliers.
    """
    theta = grid.nodes
    frame0 = build_frame(surface, grid, 0.0)
    g_ref = frame0.speed**2
    _, xd, _, _, xtd = surface.jet(theta, t)
    g_loc, dg_loc_dt, ratio = _local_metric(xd, xtd, g_ref, t)

    tau, nu = frame0.tangent, frame0.normal
    tau_tau = np.einsum("ia,ib->iab", tau, tau)
    nu_nu = np.einsum("ia,ib->iab", nu, nu)
    cart_inv = (1.0 / ratio)[:, None, None] * tau_tau + nu_nu
    cart_dt = (dg_loc_dt / g_ref)[:, None, None] * tau_tau

    sqrt_g, c_half = _scalar_metric(g_loc)
    return MetricSample(
        theta=theta,
        dtheta=grid.dtheta,
        cartesian_inv=cart_inv,
        cartesian_dt=cart_dt,
        sqrt_g=sqrt_g,
        weights=sqrt_g * grid.dtheta,
        c_half=c_half,
    )


def _half_coefficients(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c + np.roll(c, -1, axis=-1))  # value at i + 1/2


def _scalar_metric(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(g) and the flux coefficient sqrt(g)/g at the half nodes, along the
    last axis of the metric g."""
    sqrt_g = np.sqrt(g)
    return sqrt_g, _half_coefficients(sqrt_g * (1.0 / g))


def _flux_form_apply(c_half: np.ndarray, sqrt_g: np.ndarray, dtheta: float, values: np.ndarray):
    """Conservative stencil along the last axis; rows may be time levels."""
    flux = c_half * (np.roll(values, -1, axis=-1) - values) / dtheta  # F_{i+1/2}
    div = (flux - np.roll(flux, 1, axis=-1)) / dtheta
    return div / sqrt_g


def _level_blocks(grid: ParameterGrid, first: int = 0, stop: int | None = None) -> list[slice]:
    """Consecutive runs of the levels first .. stop - 1 (default: through the
    last level), each of at most `_BLOCK_POINTS` nodes in all."""
    stop = grid.n_steps + 1 if stop is None else stop
    rows = max(1, _BLOCK_POINTS // grid.n_nodes)
    return [slice(k, min(k + rows, stop)) for k in range(first, stop, rows)]


@dataclass(frozen=True)
class SpaceTimeGeometry:
    """Scalar metric data of one surface and grid, all the 1-d stepper and the
    ledgers need: one (M+1, N) row per time level of the measure density and
    of the flux coefficient, and the least dilation rate over all levels.
    Level k's quadrature weights are ``sqrt_g[k] * dtheta``, formed where
    they are read."""

    grid: ParameterGrid
    sqrt_g: np.ndarray  # measure density mu = sqrt(g)
    c_half: np.ndarray  # flux coefficient sqrt(g)/g at the half nodes i + 1/2
    min_dilation_rate: float  # least (1/2) g_t / g over every node and level

    @property
    def weights0(self) -> np.ndarray:
        """(N,) quadrature weights sqrt(g) * dtheta of the time-zero measure."""
        return self.sqrt_g[0] * self.grid.dtheta

    def integrals(self, values: np.ndarray) -> np.ndarray:
        """Weighted spatial integral of (M+1, N) samples at every level, the
        weights formed one block of levels at a time."""
        out = np.empty(self.grid.n_steps + 1)
        for rows in _level_blocks(self.grid):
            out[rows] = np.einsum("ki,ki->k", self.sqrt_g[rows] * self.grid.dtheta, values[rows])
        return out

    def time_integral(self, per_level: np.ndarray) -> float:
        """Trapezoid rule in time over (M+1,) values, one per level."""
        dt = self.grid.dt
        time_w = np.full(self.grid.n_steps + 1, dt)
        time_w[0] = time_w[-1] = 0.5 * dt
        return float(np.dot(time_w, per_level))


def space_time_geometry(surface: SurfaceFamily, grid: ParameterGrid) -> SpaceTimeGeometry:
    """Evaluate the scalar metric at every time level: one reference frame,
    then one chart jet per block of levels, written straight into the rows
    it fills.  The rows equal the matching `assemble_metric` fields; the
    dilation rate is the scalar form of the trace, of which only the
    minimum is kept.
    """
    theta = grid.nodes
    g_ref = build_frame(surface, grid, 0.0).speed ** 2
    sqrt_g = np.empty((grid.n_steps + 1, grid.n_nodes))
    c_half = np.empty_like(sqrt_g)
    min_rate = np.inf
    for rows in _level_blocks(grid):
        times = grid.times[rows, None]
        _, xd, _, _, xtd = surface.jet(theta, times)
        g, g_t, _ = _local_metric(xd, xtd, g_ref, times, rows.start)
        sqrt_g[rows], c_half[rows] = _scalar_metric(g)
        min_rate = min(min_rate, float(np.min(0.5 * g_t / g)))
    return SpaceTimeGeometry(grid=grid, sqrt_g=sqrt_g, c_half=c_half, min_dilation_rate=min_rate)


def laplace_beltrami_apply(metric: MetricSample, values: np.ndarray) -> np.ndarray:
    """Conservative-form discrete diffusion operator applied to nodal values."""
    values = _require_shape(values, (metric.n_nodes,), "field")
    return _flux_form_apply(metric.c_half, metric.sqrt_g, metric.dtheta, values)


def laplace_beltrami_matrix(metric: MetricSample):
    """Cyclic tridiagonal matrix realizing `laplace_beltrami_apply`, as a
    scipy.sparse CSR matrix: the three diagonals plus the two periodic
    corners.  No scenario calls it, so scipy.sparse loads only here."""
    import scipy.sparse as sparse

    n = metric.n_nodes
    c_prev = np.roll(metric.c_half, 1)  # c_{i-1/2}
    scale = 1.0 / (metric.sqrt_g * metric.dtheta**2)
    upper, lower = metric.c_half * scale, c_prev * scale
    return sparse.diags([-(metric.c_half + c_prev) * scale, upper[:-1], lower[1:], upper[-1:],
                         lower[:1]], [0, 1, -1, 1 - n, n - 1], format="csr")


def trace_identity(metric: MetricSample, frame: GeometryFrame) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of the dilation-rate identity and their max difference.

    Left: (1/2) tr(G^{-1} G_t) from the assembled metric.  Right: tangential
    divergence of the chart velocity on the moving curve, via the exact
    mixed chart derivative.
    """
    left = metric.trace_rate
    right = np.einsum("ia,ia->i", frame.tangent, frame.velocity_dtheta) / frame.speed
    return left, right, float(np.max(np.abs(left - right)))


def mean_and_mass(weights: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Weighted mean and mass of nodal values under a row of (N,) measure
    weights, such as `metric.weights` or `prop.geometry.weights0`."""
    values = _require_shape(values, weights.shape, "field")
    if np.any(weights <= 0.0):
        raise DegenerateMetricError("non-positive quadrature weight")
    mass = float(np.dot(weights, values))
    return mass / float(np.sum(weights)), mass


def greens_formula_check(metric: MetricSample, u: np.ndarray, w: np.ndarray) -> float:
    """|energy(u, w) + integral of u * (diffusion w)|.

    The gradient-energy integral is evaluated at half nodes with the same
    coefficients as the flux form, which makes the discrete identity exact
    (summation by parts telescopes on the closed curve); the residual is
    round-off at any resolution.
    """
    uu = _require_shape(u, (metric.n_nodes,), "u")
    ww = _require_shape(w, (metric.n_nodes,), "w")
    du = np.roll(uu, -1) - uu
    dw = np.roll(ww, -1) - ww
    energy = float(np.sum(metric.c_half * du * dw) / metric.dtheta)
    _, mass = mean_and_mass(metric.weights, uu * laplace_beltrami_apply(metric, ww))
    return abs(energy + mass)


def surface_laplacian_exact(frame: GeometryFrame, ambient: AmbientField) -> np.ndarray:
    """Arc-length second derivative of an ambient closed form along the curve:
    tau^T Hess(u) tau - kappa * grad(u) . nu, evaluated exactly at the nodes."""
    pos = frame.position
    hess = np.asarray(ambient.hess(pos), dtype=float)
    grad = np.asarray(ambient.grad(pos), dtype=float)
    tangential = np.einsum("ia,iab,ib->i", frame.tangent, hess, frame.tangent)
    normal_part = frame.curvature * np.einsum("ia,ia->i", grad, frame.normal)
    return tangential - normal_part


def pullback_identity_check(
    surface: SurfaceFamily, grid: ParameterGrid, t: float, ambient: AmbientField
) -> float:
    """Max node difference between the discrete diffusion operator applied to
    the pulled-back field and the exact surface Laplacian on the moving curve.

    The ambient closed form supplies the independent evaluation; the
    difference is the truncation error of the conservative stencil and
    decays at second order in the grid spacing.
    """
    frame = build_frame(surface, grid, t)
    metric = assemble_metric(surface, grid, t)
    pulled_back = np.asarray(ambient.fn(frame.position), dtype=float)
    discrete = laplace_beltrami_apply(metric, pulled_back)
    exact = surface_laplacian_exact(frame, ambient)
    return float(np.max(np.abs(discrete - exact)))
