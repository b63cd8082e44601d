"""Instruments of the paper's claims that no scenario runs: the maximum
principle, the duality chain behind uniqueness, transport of the measure,
band/surface norm equivalence, the ambient form of the operator with the
exact theta derivative of the Cartesian metric it reads, and the commutator
identity on differenced derivatives; the closest-point pass over every
node of the band's rectangle, which the block cull of `build_band` must
reproduce bit for bit; the flat-strip step by sparse LU of its
Kronecker-assembled matrix, which the tensor-product step must match; and
the Hölder sups by enumeration of all pairs of grid points, which the
level-pair sweep of `holder_estimate` must match.

They read the library's private helpers, so they check the discretization
the program uses; the tests, among them `test_acceptance.py` (criterion 9),
are their only callers.  Methods of library classes that only these
instruments read are functions here taking the instance first.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from periflow.diagnostics import _arc_coordinates, _holder_sups, _time_derivative
from periflow.evolution import Forcing, IVPConfig, Propagator, _sample_levels
from periflow.fields import ParameterGrid, _require_shape
from periflow.metric import (
    MetricSample,
    SpaceTimeGeometry,
    _flux_form_apply,
    _local_metric,
    assemble_metric,
    space_time_geometry,
)
from periflow.narrowband import (
    _HALO_CELLS,
    DistanceField,
    NarrowBandGrid,
    _closest_points,
    _curve_samples,
    _elliptic_part,
    _gradient,
    _hessian,
    _require_reach,
    _rescaled_divergence,
    rescaled_gradient,
)
from periflow.periodic import monodromy_solve
from periflow.surfaces import (
    GeometryFrame,
    SurfaceFamily,
    _commutator_residual,
    _theta_derivative,
    build_frame,
    second_tangential_derivative,
    tangential_gradient,
)

_EQUIVALENCE_BUDGET = 200_000  # pairs sampled per supremum of `norm_equivalence_check`
_FULL_ENUM_LIMIT = 1500  # below this many band nodes, `_pair_indices` enumerates all pairs
_MAX_PRINCIPLE_TOL = 1e-13  # allowed rise of the maximum, relative to max(1, |max|)


# -- surfaces and fields -------------------------------------------------------


def time_reversed(surface: SurfaceFamily) -> SurfaceFamily:
    """Family traversing the same shapes backwards in time."""
    T = surface.period

    def jet(theta, t):
        x, x_th, x_thth, x_t, x_tth = surface.jet(theta, T - t)
        return x, x_th, x_thth, -x_t, -x_tth

    return SurfaceFamily(f"{surface.name}-reversed", jet, T)


def projection(frame: GeometryFrame) -> np.ndarray:
    """Tangential projector P = 1 - nu (x) nu, shape (N, 2, 2)."""
    eye = np.eye(2)[None, :, :]
    return eye - np.einsum("ia,ib->iab", frame.normal, frame.normal)


def discrete_commutator_check(frame: GeometryFrame, values: np.ndarray) -> float:
    """`commutator_check` of the (N,) nodal `values`, with the tangential
    derivatives by central differences: the residual is their truncation
    error, second order in dtheta."""
    grad = tangential_gradient(frame, values)
    return _commutator_residual(frame, grad, second_tangential_derivative(frame, grad))


# -- metric --------------------------------------------------------------------


def space_time_integral(geometry: SpaceTimeGeometry, values: np.ndarray) -> float:
    """Trapezoid rule in time over the per-level weighted integrals."""
    return geometry.time_integral(geometry.integrals(values))


def laplace_beltrami(geometry: SpaceTimeGeometry, values: np.ndarray) -> np.ndarray:
    """Diffusion operator of each level applied to its row of (M+1, N) values."""
    return _flux_form_apply(geometry.c_half, geometry.sqrt_g, geometry.grid.dtheta, values)


def metric_dtheta(surface: SurfaceFamily, grid: ParameterGrid, t: float) -> np.ndarray:
    """Exact theta derivative of the Cartesian metric G = (g/g_ref) tau (x) tau
    + nu (x) nu at time t, shape (N, 2, 2), with tau and nu of the reference
    curve, from the identities tau' = -kappa*speed*nu and nu' = kappa*speed*tau."""
    frame0 = build_frame(surface, grid, 0.0)
    g_ref = frame0.speed**2
    _, xd, xdd, _, xtd = surface.jet(grid.nodes, t)
    g_loc, _, ratio = _local_metric(xd, xtd, g_ref, t)
    dg_loc_dth = 2.0 * np.einsum("ia,ia->i", xd, xdd)
    dg_ref_dth = 2.0 * frame0.speed * frame0.speed_dtheta

    tau, nu = frame0.tangent, frame0.normal
    tau_tau = np.einsum("ia,ib->iab", tau, tau)
    tau_dth = -(frame0.curvature * frame0.speed)[:, None] * nu
    nu_dth = (frame0.curvature * frame0.speed)[:, None] * tau
    ratio_dth = (dg_loc_dth * g_ref - g_loc * dg_ref_dth) / g_ref**2
    sym_tau = np.einsum("ia,ib->iab", tau_dth, tau) + np.einsum("ia,ib->iab", tau, tau_dth)
    sym_nu = np.einsum("ia,ib->iab", nu_dth, nu) + np.einsum("ia,ib->iab", nu, nu_dth)
    return ratio_dth[:, None, None] * tau_tau + ratio[:, None, None] * sym_tau + sym_nu


def cartesian_laplacian_apply(
    metric: MetricSample, frame0: GeometryFrame, g_dtheta: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Ambient-form diffusion operator: first-order tangential derivatives of
    the flux vector plus the metric-gradient correction term, which reads the
    exact theta derivative `g_dtheta` of G (`metric_dtheta` at the time of
    `metric`).

    Metric data is exact; the unknown is differentiated with second-order
    central differences, so the result agrees with the flux form and with
    the true operator to O(dtheta^2).
    """
    values = _require_shape(values, (metric.n_nodes,), "field")
    _require_shape(frame0.theta, metric.theta.shape, "frame nodes")
    dth = metric.dtheta
    tau, speed = frame0.tangent, frame0.speed
    grad = (_theta_derivative(values, dth) / speed)[:, None] * tau  # D_b u
    flux = np.einsum("iab,ib->ia", metric.cartesian_inv, grad)
    term1 = np.einsum("ia,ia->i", tau, _theta_derivative(flux, dth)) / speed

    # (1/2) P_{ag} Ginv_{ge} Ginv_{br} (D_b G_{ae}) (D_r u) with exact D G
    proj = projection(frame0)
    d_g = np.einsum("ib,iae->ibae", tau / speed[:, None], g_dtheta)
    term2 = 0.5 * np.einsum(
        "iag,ige,ibr,ibae,ir->i", proj, metric.cartesian_inv, metric.cartesian_inv, d_g, grad
    )
    return term1 + term2


def transport_formula_residual(
    surface: SurfaceFamily,
    grid: ParameterGrid,
    t: float,
    field: Callable[[np.ndarray, float], np.ndarray],
    field_dt: Callable[[np.ndarray, float], np.ndarray],
    dt_fd: float,
) -> float:
    """Centered-difference residual of the measure transport formula.

    Compares d/dt of the weighted integral of the closure ``field(theta, t)``
    against the integral of ``field_dt + trace_rate * field``, where the
    closure ``field_dt`` is the exact time derivative of ``field``; decays at
    second order in `dt_fd`.
    """
    theta = grid.nodes

    def weighted_integral(s: float) -> float:
        m = assemble_metric(surface, grid, s)
        return float(np.dot(m.weights, field(theta, s)))

    lhs = (weighted_integral(t + dt_fd) - weighted_integral(t - dt_fd)) / (2.0 * dt_fd)
    metric = assemble_metric(surface, grid, t)
    integrand = field_dt(theta, t) + metric.trace_rate * field(theta, t)
    rhs = float(np.dot(metric.weights, integrand))
    return abs(lhs - rhs)


# -- evolution -----------------------------------------------------------------


def _reversed_forcing(forcing: Forcing, grid: ParameterGrid) -> Forcing:
    """The forcing of the time-reversed run: the closure's samples on the
    levels of `grid`, last level first."""
    if forcing is None:
        return None
    samples = _sample_levels(forcing, grid)[::-1]
    return lambda theta, t: samples


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
    reversed_surface = time_reversed(surface)
    rev_config = replace(config, zero_order="zero", coefficient=0.0)
    reversed_forcing = _reversed_forcing(forcing, config.grid(surface.period))
    prop = Propagator(reversed_surface, rev_config, reversed_forcing)
    if terminal is not None:
        traj = prop.run(terminal)
    else:
        traj, _ = monodromy_solve(prop, target_mean=0.0)
    return traj[::-1]


def dilation_rate(surface: SurfaceFamily, grid: ParameterGrid) -> np.ndarray:
    """(M+1, N) metric dilation rate (1/2) g_t / g at every node and level,
    from the chart jet; the geometry keeps only its minimum."""
    g_ref = build_frame(surface, grid, 0.0).speed ** 2
    times = grid.times[:, None]
    _, xd, _, _, xtd = surface.jet(grid.nodes, times)
    g, g_t, _ = _local_metric(xd, xtd, g_ref, times, 0)
    return 0.5 * g_t / g


def duality_check(surface: SurfaceFamily, grid: ParameterGrid, u: np.ndarray,
                  phi: np.ndarray) -> float:
    """Residual of the discrete space-time integration-by-parts chain.

    Evaluates ``|II(L u, phi) - II(u, diffusion(phi) + phi_t) + boundary|``
    where L is the conservative operator with the dilation-rate zero-order
    term, II the trapezoid space-time quadrature and `boundary` the
    difference of the weighted end products.  Decays at the scheme order
    when u and phi come from the solvers.
    """
    shape = (grid.n_steps + 1, grid.n_nodes)
    uu = _require_shape(u, shape, "u")
    pp = _require_shape(phi, shape, "phi")
    geometry = space_time_geometry(surface, grid)
    dt = grid.dt
    rate = dilation_rate(surface, grid)
    lu = laplace_beltrami(geometry, uu) - rate * uu - _time_derivative(uu, dt)
    lstar_phi = laplace_beltrami(geometry, pp) + _time_derivative(pp, dt)
    i_forward = space_time_integral(geometry, lu * pp)
    i_adjoint = space_time_integral(geometry, uu * lstar_phi)
    ends = geometry.integrals(uu * pp)
    return abs(i_forward - i_adjoint + float(ends[-1] - ends[0]))


# -- narrowband ----------------------------------------------------------------


def max_curvature(surface: SurfaceFamily, t: float) -> float:
    return _curve_samples(surface, t)[3]


def default_band_width(surface: SurfaceFamily, t: float) -> float:
    """0.2 / max|kappa|: comfortably inside the invertibility limit 1/2."""
    return 0.2 / max_curvature(surface, t)


def surface_point_geometry(surface: SurfaceFamily, t: float, points: np.ndarray) -> DistanceField:
    """Closest-point geometry of arbitrary points as a DistanceField of (P,)
    arrays; A, A^-1 and det A follow from its `stretch`."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    curve = _curve_samples(surface, t)
    _, field = _closest_points(surface, t, pts, curve, cKDTree(curve[1]), np.inf)
    _require_reach(field.stretch, "points beyond the curvature reach of the curve")
    return field


def full_rectangle_band(
    surface: SurfaceFamily, t: float, grid: NarrowBandGrid
) -> tuple[NarrowBandGrid, DistanceField]:
    """`build_band` without its block cull: `_closest_points` on every node of
    the rectangle of `grid`, under the same bound, and the active mask from
    that."""
    curve = _curve_samples(surface, t)
    samples = curve[1]
    chord = float(np.max(np.linalg.norm(np.roll(samples, -1, axis=0) - samples, axis=1)))
    XX, YY = grid.mesh()
    pts = np.stack([XX.ravel(), YY.ravel()], axis=-1)
    halo_delta = grid.delta + _HALO_CELLS * grid.h
    near, flat = _closest_points(surface, t, pts, curve, cKDTree(samples), halo_delta + chord)

    def scatter(values):
        full = np.full((near.size, *values.shape[1:]), np.nan)
        full[near] = values
        return full.reshape((*grid.shape, *values.shape[1:]))

    field = DistanceField(**{f.name: scatter(getattr(flat, f.name)) for f in fields(DistanceField)})
    active_mask = np.isfinite(field.dist) & (np.abs(field.dist) < grid.delta)
    return replace(grid, active_mask=active_mask), field


def kronecker_strip_step(values: np.ndarray, dt: float, half_width: float) -> np.ndarray:
    """`narrowband._flat_strip_step` by one sparse LU solve of the assembled
    step matrix 1/dt - I (x) L_x - L_y (x) I on row-major nodes j * nx + i."""
    n_y, n_x = values.shape
    hx = 2.0 * np.pi / n_x
    hy = 2.0 * half_width / (n_y - 1)
    ones_x = np.ones(n_x)
    lap_x = sparse.diags([-2.0 * ones_x, ones_x[1:], ones_x[1:], [1.0], [1.0]],
                         [0, 1, -1, 1 - n_x, n_x - 1]) / hx**2  # periodic corners
    upper, lower = np.ones(n_y - 1), np.ones(n_y - 1)
    upper[0] = lower[-1] = 2.0  # mirrored Neumann rows
    lap_y = sparse.diags([np.full(n_y, -2.0), upper, lower], [0, 1, -1]) / hy**2
    mat = (
        sparse.identity(n_x * n_y) / dt
        - sparse.kron(sparse.identity(n_y), lap_x)
        - sparse.kron(lap_y, sparse.identity(n_x))
    )
    return spla.splu(mat.tocsc()).solve(values.ravel() / dt).reshape(n_y, n_x)


def elliptic_part_identity_check(
    values: np.ndarray, grid: NarrowBandGrid, dist: DistanceField
) -> float:
    """Max residual over the active nodes of the expanded elliptic-part
    identity for the identity metric: D~.D~ u + u_nunu against the
    A^-1-contracted Hessian plus first-order corrections."""
    lhs = _elliptic_part(values, rescaled_gradient(values, grid, dist), grid, dist)

    tau_tau = np.einsum("...a,...b->...ab", dist.tangent, dist.tangent)
    a_inv = np.eye(2) + (dist.stretch - 1.0)[..., None, None] * tau_tau
    hess = _hessian(values, grid.h)
    g = _gradient(values, grid.h)
    m1 = np.einsum("...ra,...ai,...ri->...", a_inv, a_inv, hess)
    d_ainv = np.empty(grid.shape + (2, 2, 2))  # [..., r, a, i] = D_r Ainv_{a i}
    for a in range(2):
        for i in range(2):
            d_ainv[..., :, a, i] = _gradient(a_inv[..., a, i], grid.h)
    m2 = np.einsum("...ar,...rai,...i->...", a_inv, d_ainv, g)
    div_nu = _rescaled_divergence(dist.normal, grid, dist)
    m3 = -div_nu * np.einsum("...a,...a->...", dist.normal, g)
    diff = np.abs(lhs - (m1 + m2 + m3))
    return float(np.nanmax(diff[grid.active_mask]))


# -- diagnostics ---------------------------------------------------------------


def all_pairs_holder(
    values: np.ndarray, s: np.ndarray, length: float, times: np.ndarray, alpha: float
) -> tuple[float, float]:
    """`diagnostics._holder_sups` by enumerating all pairs of the L*N points
    with `np.triu_indices`: the (space-time, time) Hölder sups of (L, N) or
    (L, N, C) `values`."""
    n_levels, n_nodes = values.shape[0], values.shape[1]
    flat = values.reshape(n_levels * n_nodes, -1)
    p, q = np.triu_indices(n_levels * n_nodes, k=1)
    ki, ii = np.divmod(p, n_nodes)
    kj, jj = np.divmod(q, n_nodes)
    gap = np.abs(s[ii] - s[jj])
    d_time = np.abs(times[ki] - times[kj])
    dist = np.maximum(np.minimum(gap, length - gap), np.sqrt(d_time))
    diffs = np.linalg.norm(flat[p] - flat[q], axis=-1)
    space = dist > 0.0
    time = ii == jj  # p < q, so the levels differ
    space_time = float(np.max(diffs[space] / dist[space] ** alpha, initial=0.0))
    time_sup = float(np.max(diffs[time] / d_time[time] ** (0.5 * (1.0 + alpha)), initial=0.0))
    return space_time, time_sup


def _pair_indices(
    n_points: int, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if n_points <= _FULL_ENUM_LIMIT:
        return np.triu_indices(n_points, k=1)
    draws = rng.integers(0, n_points, size=(int(budget), 2))
    keep = draws[:, 0] != draws[:, 1]
    return draws[keep, 0], draws[keep, 1]


def _space_time_sup(diffs: np.ndarray, dist: np.ndarray, alpha: float) -> float:
    mask = dist > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(diffs[mask] / dist[mask] ** alpha))


def _band_holder(
    points: np.ndarray, values: np.ndarray, alpha: float, budget: int, rng
) -> tuple[float, float]:
    """(sup, Hölder sup) over band nodes with Euclidean separations, from a
    uniform sample of `budget` pairs beyond `_FULL_ENUM_LIMIT` nodes."""
    sup = float(np.max(np.abs(values)))
    p, q = _pair_indices(points.shape[0], budget, rng)
    dist = np.linalg.norm(points[p] - points[q], axis=-1)
    flat = values.reshape(points.shape[0], -1)
    diffs = np.linalg.norm(flat[p] - flat[q], axis=-1)
    return sup, _space_time_sup(diffs, dist, alpha)


def norm_equivalence_check(
    u_values: np.ndarray,
    surface: SurfaceFamily,
    grid: ParameterGrid,
    band_grid: NarrowBandGrid,
    band_dist: DistanceField,
    lifted: np.ndarray,
    alpha: float = 0.5,
    seed: int = 0,
) -> dict[int, float]:
    """Ratios of lifted-band to surface Hölder estimates for k = 0, 1.

    Both sides use the same estimator family; ratios are expected inside
    [1/10, 10] for the shipped geometries.
    """
    rng = np.random.default_rng(seed)
    frame0 = build_frame(surface, grid, 0.0)
    s, length = _arc_coordinates(frame0, grid.dtheta)
    zero_t = np.zeros(1)

    u = np.asarray(u_values, dtype=float)[None, :]
    sup_m = float(np.max(np.abs(u)))
    h_m, _ = _holder_sups(u, s, length, zero_t, alpha)
    grad_m = tangential_gradient(frame0, u[0])[None]
    gsup_m = float(np.max(np.abs(grad_m)))
    gh_m, _ = _holder_sups(grad_m, s, length, zero_t, alpha)

    XX, YY = band_grid.mesh()
    act = band_grid.active_mask
    pts = np.stack([XX[act], YY[act]], axis=-1)
    sup_b, h_b = _band_holder(pts, lifted[act], alpha, _EQUIVALENCE_BUDGET, rng)

    g_band = _gradient(lifted, band_grid.h)
    gsup_b, gh_b = _band_holder(pts, g_band[act], alpha, _EQUIVALENCE_BUDGET, rng)

    ratio0 = (sup_b + h_b) / (sup_m + h_m)
    ratio1 = (sup_b + gsup_b + gh_b) / (sup_m + gsup_m + gh_m)
    return {0: float(ratio0), 1: float(ratio1)}


@dataclass(frozen=True)
class MaxPrincipleReport:
    monotone: bool
    first_violation_level: int | None
    maxima: np.ndarray


def max_principle_monitor(trajectory: np.ndarray) -> MaxPrincipleReport:
    """True iff the nodal maximum of an (M+1, N) trajectory is non-increasing
    across levels."""
    maxima = np.max(trajectory, axis=1)
    scale = max(1.0, float(np.max(np.abs(maxima))))
    rises = np.nonzero(maxima[1:] > maxima[:-1] + _MAX_PRINCIPLE_TOL * scale)[0]
    if rises.size == 0:
        return MaxPrincipleReport(True, None, maxima)
    return MaxPrincipleReport(False, int(rises[0] + 1), maxima)
