"""Instruments of the paper's claims that no scenario runs: the maximum
principle, the duality chain behind uniqueness, transport of the measure,
band/surface norm equivalence and the ambient form of the operator; and
the closest-point pass over every node of the band's rectangle, which the
block cull of `build_band` must reproduce bit for bit.

They read the library's private helpers, so they check the discretization
the program uses; the tests, among them `test_acceptance.py` (criterion 9),
are their only callers.  Methods of library classes that only these
instruments read are functions here taking the instance first.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.ndimage import binary_erosion

from periflow.diagnostics import (
    _arc_coordinates,
    _holder_sup_spacetime,
    _pair_indices,
    _space_time_sup,
)
from periflow.evolution import Forcing, IVPConfig, Propagator, _time_derivative
from periflow.fields import AnalyticField, ParameterGrid, _require_shape
from periflow.metric import MetricSample, SpaceTimeGeometry, _flux_form_apply, assemble_metric
from periflow.narrowband import (
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
    _theta_derivative,
    build_frame,
    tangential_gradient,
)

_EQUIVALENCE_BUDGET = 200_000  # pairs sampled per supremum of `norm_equivalence_check`
_MAX_PRINCIPLE_TOL = 1e-13  # allowed rise of the maximum, relative to max(1, |max|)


# -- surfaces and fields -------------------------------------------------------


def time_reversed(surface: SurfaceFamily) -> SurfaceFamily:
    """Family traversing the same shapes backwards in time."""
    T = surface.period

    def jet(theta, t):
        x, x_th, x_thth, x_t, x_tth = surface.jet(theta, T - t)
        return x, x_th, x_thth, -x_t, -x_tth

    return SurfaceFamily(f"{surface.name}-reversed", jet, T, surface.outward_sign)


def projection(frame: GeometryFrame) -> np.ndarray:
    """Tangential projector P = 1 - nu (x) nu, shape (N, 2, 2)."""
    eye = np.eye(2)[None, :, :]
    return eye - np.einsum("ia,ib->iab", frame.normal, frame.normal)


def sample(field: AnalyticField, theta: np.ndarray, t: float) -> np.ndarray:
    return np.asarray(field.fn(theta, t), dtype=float) + np.zeros_like(theta)


# -- metric --------------------------------------------------------------------


def space_time_integral(geometry: SpaceTimeGeometry, values: np.ndarray) -> float:
    """Trapezoid rule in time over the per-level weighted integrals."""
    return geometry.time_integral(geometry.integrals(values))


def laplace_beltrami(geometry: SpaceTimeGeometry, values: np.ndarray) -> np.ndarray:
    """Diffusion operator of each level applied to its row of (M+1, N) values."""
    return _flux_form_apply(geometry.c_half, geometry.sqrt_g, geometry.grid.dtheta, values)


def cartesian_laplacian_apply(
    metric: MetricSample, frame0: GeometryFrame, values: np.ndarray
) -> np.ndarray:
    """Ambient-form diffusion operator: first-order tangential derivatives of
    the flux vector plus the metric-gradient correction term.

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
    d_g = np.einsum("ib,iae->ibae", tau / speed[:, None], metric.cartesian_dtheta)
    term2 = 0.5 * np.einsum(
        "iag,ige,ibr,ibae,ir->i", proj, metric.cartesian_inv, metric.cartesian_inv, d_g, grad
    )
    return term1 + term2


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
        return float(np.dot(m.weights, sample(field, theta, s)))

    lhs = (weighted_integral(t + dt_fd) - weighted_integral(t - dt_fd)) / (2.0 * dt_fd)
    metric = assemble_metric(surface, grid, t)
    if field.dt is None:
        raise ValueError("transport residual needs the exact time derivative closure")
    integrand = field.dt(theta, t) + metric.trace_rate * sample(field, theta, t)
    rhs = float(np.dot(metric.weights, integrand))
    return abs(lhs - rhs)


# -- evolution -----------------------------------------------------------------


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
    reversed_surface = time_reversed(surface)
    rev_config = replace(config, zero_order="zero", coefficient=0.0, custom=None)
    prop = Propagator(reversed_surface, rev_config, _reversed_forcing(forcing, surface.period))
    if terminal is not None:
        traj = prop.run(terminal)
    else:
        traj, _ = monodromy_solve(prop, target_mean=0.0)
    return traj[::-1]


def duality_check(geometry: SpaceTimeGeometry, u: np.ndarray, phi: np.ndarray) -> float:
    """Residual of the discrete space-time integration-by-parts chain.

    Evaluates ``|II(L u, phi) - II(u, diffusion(phi) + phi_t) + boundary|``
    where L is the conservative operator with the dilation-rate zero-order
    term, II the trapezoid space-time quadrature and `boundary` the
    difference of the weighted end products.  Decays at the scheme order
    when u and phi come from the solvers.
    """
    uu = _require_shape(u, geometry.weights.shape, "u")
    pp = _require_shape(phi, geometry.weights.shape, "phi")
    dt = geometry.grid.dt
    lu = laplace_beltrami(geometry, uu) - geometry.trace_rate * uu - _time_derivative(uu, dt)
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
    _, field = _closest_points(surface, t, pts, _curve_samples(surface, t), np.inf)
    _require_reach(field.stretch, "points beyond the curvature reach of the curve")
    return field


def full_rectangle_band(
    surface: SurfaceFamily, t: float, grid: NarrowBandGrid
) -> tuple[NarrowBandGrid, DistanceField]:
    """`build_band` without its block cull: `_closest_points` on every node of
    the rectangle of `grid`, under the same bound, and the masks from that."""
    curve = _curve_samples(surface, t)
    samples = curve[1]
    chord = float(np.max(np.linalg.norm(np.roll(samples, -1, axis=0) - samples, axis=1)))
    XX, YY = grid.mesh()
    pts = np.stack([XX.ravel(), YY.ravel()], axis=-1)
    near, flat = _closest_points(surface, t, pts, curve, grid.halo_delta + chord)

    def scatter(values):
        full = np.full((near.size, *values.shape[1:]), np.nan)
        full[near] = values
        return full.reshape((*grid.shape, *values.shape[1:]))

    field = DistanceField(**{f.name: scatter(getattr(flat, f.name)) for f in fields(DistanceField)})
    finite = np.isfinite(field.dist)
    halo_mask = finite & (np.abs(field.dist) < grid.halo_delta)
    active_mask = finite & (np.abs(field.dist) < grid.delta)
    interior_mask = active_mask & binary_erosion(halo_mask, structure=np.ones((5, 5)))
    masks = dict(active_mask=active_mask, halo_mask=halo_mask, interior_mask=interior_mask)
    return replace(grid, **masks), field


def elliptic_part_identity_check(
    values: np.ndarray, grid: NarrowBandGrid, dist: DistanceField
) -> float:
    """Max interior residual of the expanded elliptic-part identity for the
    identity metric: D~.D~ u + u_nunu against the A^-1-contracted Hessian
    plus first-order corrections."""
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
    return float(np.nanmax(diff[grid.interior_mask]))


# -- diagnostics ---------------------------------------------------------------


def _band_holder(
    points: np.ndarray, values: np.ndarray, alpha: float, budget: int, rng
) -> tuple[float, float]:
    """(sup, Hölder sup) over band nodes with Euclidean separations."""
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
    h_m = _holder_sup_spacetime(u, s, length, zero_t, alpha, _EQUIVALENCE_BUDGET, rng)
    grad_m = tangential_gradient(frame0, u[0])[None]
    gsup_m = float(np.max(np.abs(grad_m)))
    gh_m = _holder_sup_spacetime(grad_m, s, length, zero_t, alpha, _EQUIVALENCE_BUDGET, rng)

    XX, YY = band_grid.mesh()
    act = band_grid.active_mask
    pts = np.stack([XX[act], YY[act]], axis=-1)
    sup_b, h_b = _band_holder(pts, lifted[act], alpha, _EQUIVALENCE_BUDGET, rng)

    g_band = _gradient(lifted, band_grid.h)
    interior = band_grid.interior_mask
    pts_i = np.stack([XX[interior], YY[interior]], axis=-1)
    gsup_b, gh_b = _band_holder(pts_i, g_band[interior], alpha, _EQUIVALENCE_BUDGET, rng)

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
