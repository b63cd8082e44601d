"""Cartesian metric assembly and the diffusion operator in divergence form.

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
weights ``sqrt(g) * dtheta`` and the flux coefficient ``sqrt(g)/g`` at the
half nodes.  One helper computes them, for the per-level rows of
``SpaceTimeGeometry`` that the 1-d solver reads and for the single time
slice of ``MetricSample``, whose Cartesian fields serve the identity
checks.  A measure is its ``(N,)`` row of weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import DegenerateMetricError, GridMismatchError
from .fields import AmbientField, AnalyticField, ParameterGrid
from .surfaces import GeometryFrame, SurfaceFamily, _theta_derivative, build_frame

_CONDITION_LIMIT = 1e12
_BLOCK_POINTS = 1 << 15  # levels x nodes per chart jet in `space_time_geometry`


@dataclass(frozen=True)
class MetricSample:
    """Metric data of one time slice on the reference parameter grid."""

    theta: np.ndarray
    time: float
    dtheta: float
    cartesian: np.ndarray  # (N, 2, 2)  G
    cartesian_inv: np.ndarray  # (N, 2, 2)
    cartesian_det: np.ndarray  # (N,)
    cartesian_dt: np.ndarray  # (N, 2, 2)  time derivative of G
    cartesian_dtheta: np.ndarray  # (N, 2, 2)  exact theta derivative of G
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
    """Assemble G, its inverse, determinant and derivatives at time t.

    All entries come from the exact chart jet; the only approximation in
    this module is the spatial differencing done by the operator appliers.
    """
    theta = grid.nodes
    frame0 = build_frame(surface, grid, 0.0)
    g_ref = frame0.speed**2
    _, xd, xdd, _, xtd = surface.jet(theta, t)
    g_loc, dg_loc_dt, ratio = _local_metric(xd, xtd, g_ref, t)
    dg_loc_dth = 2.0 * np.einsum("ia,ia->i", xd, xdd)
    dg_ref_dth = 2.0 * frame0.speed * frame0.speed_dtheta

    tau, nu = frame0.tangent, frame0.normal
    tau_tau = np.einsum("ia,ib->iab", tau, tau)
    nu_nu = np.einsum("ia,ib->iab", nu, nu)
    cart = ratio[:, None, None] * tau_tau + nu_nu
    cart_inv = (1.0 / ratio)[:, None, None] * tau_tau + nu_nu
    cart_dt = (dg_loc_dt / g_ref)[:, None, None] * tau_tau

    # exact theta derivative of G; frame derivative identities
    # tau' = -kappa*speed*nu, nu' = +kappa*speed*tau on the reference curve
    tau_dth = -(frame0.curvature * frame0.speed)[:, None] * nu
    nu_dth = (frame0.curvature * frame0.speed)[:, None] * tau
    ratio_dth = (dg_loc_dth * g_ref - g_loc * dg_ref_dth) / g_ref**2
    sym_tau = np.einsum("ia,ib->iab", tau_dth, tau) + np.einsum("ia,ib->iab", tau, tau_dth)
    sym_nu = np.einsum("ia,ib->iab", nu_dth, nu) + np.einsum("ia,ib->iab", nu, nu_dth)
    cart_dth = ratio_dth[:, None, None] * tau_tau + ratio[:, None, None] * sym_tau + sym_nu

    sqrt_g, weights, c_half = _scalar_metric(g_loc, grid.dtheta)
    return MetricSample(
        theta=theta,
        time=float(t),
        dtheta=grid.dtheta,
        cartesian=cart,
        cartesian_inv=cart_inv,
        cartesian_det=ratio,
        cartesian_dt=cart_dt,
        cartesian_dtheta=cart_dth,
        sqrt_g=sqrt_g,
        weights=weights,
        c_half=c_half,
    )


def _half_coefficients(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c + np.roll(c, -1, axis=-1))  # value at i + 1/2


def _scalar_metric(g: np.ndarray, dtheta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(g), the measure weights sqrt(g) * dtheta and the flux coefficient
    sqrt(g)/g at the half nodes, along the last axis of the metric g."""
    sqrt_g = np.sqrt(g)
    return sqrt_g, sqrt_g * dtheta, _half_coefficients(sqrt_g * (1.0 / g))


def _flux_form_apply(c_half: np.ndarray, sqrt_g: np.ndarray, dtheta: float, values: np.ndarray):
    """Conservative stencil along the last axis; rows may be time levels."""
    flux = c_half * (np.roll(values, -1, axis=-1) - values) / dtheta  # F_{i+1/2}
    div = (flux - np.roll(flux, 1, axis=-1)) / dtheta
    return div / sqrt_g


def _operator_diagonals(c_half: np.ndarray, sqrt_g: np.ndarray, dtheta: float):
    """(main, upper, lower) of the cyclic tridiagonal flux-form operator along
    the last axis; `upper` couples node i to i+1, `lower` node i to i-1."""
    c_prev = np.roll(c_half, 1, axis=-1)  # c_{i-1/2}
    scale = 1.0 / (sqrt_g * dtheta**2)
    return -(c_half + c_prev) * scale, c_half * scale, c_prev * scale


def _cyclic_tridiagonal(main: np.ndarray, upper: np.ndarray, lower: np.ndarray):
    """CSR matrix with the given diagonals plus the two periodic corners."""
    n = main.shape[0]
    return sparse.diags(
        [main, upper[:-1], lower[1:], upper[-1:], lower[:1]],
        [0, 1, -1, 1 - n, n - 1],
        format="csr",
    )


@dataclass(frozen=True)
class SpaceTimeGeometry:
    """Scalar metric data of one surface and grid, one (M+1, N) row per time
    level: all the 1-d stepper, the ledgers and the space-time checks need."""

    grid: ParameterGrid
    sqrt_g: np.ndarray  # measure density mu = sqrt(g)
    weights: np.ndarray  # mu * dtheta, the quadrature weights of each level
    trace_rate: np.ndarray  # (1/2) g_t / g, the metric dilation rate
    c_half: np.ndarray  # flux coefficient sqrt(g)/g at the half nodes i + 1/2

    def integrals(self, values: np.ndarray) -> np.ndarray:
        """Weighted spatial integral of (M+1, N) samples at every level."""
        return np.einsum("ki,ki->k", self.weights, values)

    def time_integral(self, per_level: np.ndarray) -> float:
        """Trapezoid rule in time over (M+1,) values, one per level."""
        dt = self.grid.dt
        time_w = np.full(self.grid.n_steps + 1, dt)
        time_w[0] = time_w[-1] = 0.5 * dt
        return float(np.dot(time_w, per_level))

    def space_time_integral(self, values: np.ndarray) -> float:
        """Trapezoid rule in time over the per-level weighted integrals."""
        return self.time_integral(self.integrals(values))

    def laplace_beltrami(self, values: np.ndarray) -> np.ndarray:
        """Diffusion operator of each level applied to its row of (M+1, N) values."""
        return _flux_form_apply(self.c_half, self.sqrt_g, self.grid.dtheta, values)


def space_time_geometry(surface: SurfaceFamily, grid: ParameterGrid) -> SpaceTimeGeometry:
    """Evaluate the scalar metric at every time level: one reference frame,
    then one chart jet per block of levels.  The arrays equal the matching
    `assemble_metric` fields; the dilation rate is the scalar form of the trace.
    """
    theta = grid.nodes
    g_ref = build_frame(surface, grid, 0.0).speed ** 2
    g = np.empty((grid.n_steps + 1, grid.n_nodes))
    g_t = np.empty_like(g)
    rows = max(1, _BLOCK_POINTS // grid.n_nodes)
    for k in range(0, grid.n_steps + 1, rows):
        times = grid.times[k : k + rows, None]
        _, xd, _, _, xtd = surface.jet(theta, times)
        g[k : k + rows], g_t[k : k + rows], _ = _local_metric(xd, xtd, g_ref, times, k)
    sqrt_g, weights, c_half = _scalar_metric(g, grid.dtheta)
    return SpaceTimeGeometry(
        grid=grid, sqrt_g=sqrt_g, weights=weights, trace_rate=0.5 * g_t / g, c_half=c_half
    )


def laplace_beltrami_apply(metric: MetricSample, values: np.ndarray) -> np.ndarray:
    """Conservative-form discrete diffusion operator applied to nodal values."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != metric.n_nodes:
        raise GridMismatchError(
            f"field has {values.shape[0]} nodes, metric has {metric.n_nodes}"
        )
    return _flux_form_apply(metric.c_half, metric.sqrt_g, metric.dtheta, values)


def laplace_beltrami_matrix(metric: MetricSample) -> sparse.csr_matrix:
    """Cyclic tridiagonal matrix realizing `laplace_beltrami_apply`."""
    return _cyclic_tridiagonal(*_operator_diagonals(metric.c_half, metric.sqrt_g, metric.dtheta))


def cartesian_laplacian_apply(
    metric: MetricSample, frame0: GeometryFrame, values: np.ndarray
) -> np.ndarray:
    """Ambient-form diffusion operator: first-order tangential derivatives of
    the flux vector plus the metric-gradient correction term.

    Metric data is exact; the unknown is differentiated with second-order
    central differences, so the result agrees with the flux form and with
    the true operator to O(dtheta^2).
    """
    values = np.asarray(values, dtype=float)
    n = metric.n_nodes
    if values.shape[0] != n or frame0.n_nodes != n:
        raise GridMismatchError("field/frame/metric node counts disagree")
    dth = metric.dtheta
    tau, speed = frame0.tangent, frame0.speed
    grad = (_theta_derivative(values, dth) / speed)[:, None] * tau  # D_b u
    flux = np.einsum("iab,ib->ia", metric.cartesian_inv, grad)
    term1 = np.einsum("ia,ia->i", tau, _theta_derivative(flux, dth)) / speed

    # (1/2) P_{ag} Ginv_{ge} Ginv_{br} (D_b G_{ae}) (D_r u) with exact D G
    proj = frame0.projection
    d_g = np.einsum("ib,iae->ibae", tau / speed[:, None], metric.cartesian_dtheta)
    term2 = 0.5 * np.einsum(
        "iag,ige,ibr,ibae,ir->i", proj, metric.cartesian_inv, metric.cartesian_inv, d_g, grad
    )
    return term1 + term2


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
    weights, such as `metric.weights` or `prop.geometry.weights[k]`."""
    values = np.asarray(values, dtype=float)
    if values.shape != weights.shape:
        raise GridMismatchError(
            f"field of shape {values.shape} does not match the measure's {weights.shape[0]} nodes"
        )
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
    uu, ww = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
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


def transport_formula_residual(
    surface: SurfaceFamily,
    grid: ParameterGrid,
    t: float,
    field: AnalyticField,
    dt_fd: float,
) -> float:
    """Centered-difference residual of the measure transport formula.

    Compares d/dt of the weighted integral of ``field`` against the integral
    of ``field_t + trace_rate * field``; decays at second order in `dt_fd`.
    """
    theta = grid.nodes

    def weighted_integral(s: float) -> float:
        m = assemble_metric(surface, grid, s)
        return float(np.dot(m.weights, field.sample(theta, s)))

    lhs = (weighted_integral(t + dt_fd) - weighted_integral(t - dt_fd)) / (2.0 * dt_fd)
    metric = assemble_metric(surface, grid, t)
    if field.dt is None:
        raise ValueError("transport residual needs the exact time derivative closure")
    integrand = field.dt(theta, t) + metric.trace_rate * field.sample(theta, t)
    rhs = float(np.dot(metric.weights, integrand))
    return abs(lhs - rhs)
