"""Flat-domain extension of the surface problem on a Cartesian strip.

A uniform grid covers a strip of half-width ``delta`` around the curve.
Each node x carries its closest point on the curve: the oriented distance
d(x), the foot, the foot frame (tau, nu = grad d) and the curvature kappa
there.  The rest are closed forms in the stretch ``s = 1 + d*kappa``: the
distance Hessian has the single tangential eigenvalue ``kappa/s``, so the
matrix ``A = I - d * hess(d)``, which maps lifted surface gradients to
ambient gradients of lifts, and its inverse, which defines the rescaled
tangential gradient of the extended parabolic operator, are

    A   = I + (1/s - 1) tau (x) tau,
    A^-1 = I + (s - 1) tau (x) tau,      det A = 1/s.

Geometry is computed on a halo slightly wider than the active band so that
every active node has full central stencils; identity checks are evaluated
on the interior mask.  One projection finds closest points: damped Newton
on the chart from the nearest curve sample, with a multistart fallback.
`build_band` runs it on the grid nodes near the curve and returns their
`DistanceField`.  It first culls whole blocks of nodes by one KD query of
the block centres, with the radius widened by the block's half-diagonal,
so the projected nodes are exactly those a query of every node would keep.

`band_field_csv` writes the active nodes as a binary `.npy` array; the
name predates that format and stays because benchmark spans trace the
function by name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.ndimage import binary_erosion
from scipy.spatial import cKDTree
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import BandError, ExtractionError, ProjectionError
from .fields import _require_shape
from .metric import MetricSample, _cyclic_tridiagonal
from .surfaces import SurfaceFamily, _frame_pieces, orientation_sign
from .tables import write_npy

_HALO_CELLS = 4
_CULL_BLOCK = 8  # nodes per side of the blocks `build_band` culls by their centres
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 60
_SAMPLE_COUNT = 1024  # curve samples: Newton starts and max|kappa|
_MULTISTART = 8  # fallback Newton starts per failed point
_EXTRACT_QUAD = 12  # Gauss-Legendre points per extraction ray
_MIN_STRETCH = 0.1  # reach limit on 1 + d*kappa, i.e. on |A^-1|
_FLAT_STRIP_HALF_WIDTH = 0.2  # of `flat_strip_step_equivalence`


@dataclass(frozen=True)
class NarrowBandGrid:
    """Uniform Cartesian grid hosting the band, with node masks."""

    xs: np.ndarray  # (nx,)
    ys: np.ndarray  # (ny,)
    h: float
    delta: float
    halo_delta: float
    active_mask: np.ndarray  # (ny, nx) |d| < delta
    halo_mask: np.ndarray  # (ny, nx) |d| < halo_delta
    interior_mask: np.ndarray  # active nodes with full two-layer stencils

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ys.shape[0], self.xs.shape[0])

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys, indexing="xy")


@dataclass(frozen=True)
class DistanceField:
    """Closest-point geometry per point: (P,) arrays for scattered points,
    (ny, nx) arrays on a band grid (NaN outside the halo)."""

    dist: np.ndarray  # oriented distance
    theta_foot: np.ndarray  # chart parameter of the closest point, mod 2 pi
    foot: np.ndarray  # (..., 2)
    normal: np.ndarray  # (..., 2)  grad d, constant along normals
    tangent: np.ndarray  # (..., 2)
    curvature: np.ndarray  # signed curvature at the foot

    @property
    def stretch(self) -> np.ndarray:
        """s = 1 + d*kappa: A^-1 = I + (s - 1) tau (x) tau and det A = 1/s."""
        return 1.0 + self.dist * self.curvature


def _curve_samples(surface: SurfaceFamily, t: float):
    """Equispaced sample parameters, their chart positions at time t, the
    orientation sign of the curve and max|kappa| over the samples."""
    theta_s = np.arange(_SAMPLE_COUNT) * (2.0 * np.pi / _SAMPLE_COUNT)
    samples, xd, xdd, _, _ = surface.jet(theta_s, t)
    sign = orientation_sign(surface, samples)
    kappa = _frame_pieces(xd, xdd, sign, t)[3]
    return theta_s, samples, sign, float(np.max(np.abs(kappa)))


def _newton_project(
    surface: SurfaceFamily, t: float, pts: np.ndarray, theta0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton for the stationarity condition (x - X(theta)).X'(theta)=0.

    Returns refined parameters and a convergence mask."""
    theta = theta0.astype(float).copy()

    def residual(th):
        X, Xd, Xdd, _, _ = surface.jet(th, t)
        r = pts - X
        g = -np.einsum("pa,pa->p", r, Xd)
        scale = np.einsum("pa,pa->p", Xd, Xd) + 1e-30
        return g, scale, r, Xd, Xdd

    g, scale, r, Xd, Xdd = residual(theta)
    for _ in range(_NEWTON_MAX_ITER):
        gp = np.einsum("pa,pa->p", Xd, Xd) - np.einsum("pa,pa->p", r, Xdd)
        floor = 1e-14 * scale
        safe = np.where(np.abs(gp) > floor, gp, np.where(gp >= 0.0, floor, -floor))
        step = np.clip(g / safe, -0.5, 0.5)
        # damping: halve steps that fail to reduce |g|
        lam = np.ones_like(theta)
        for _ in range(6):
            trial = theta - lam * step
            g_new, *rest = residual(trial)
            bad = np.abs(g_new) > np.abs(g)
            if not np.any(bad):
                break
            lam = np.where(bad, 0.5 * lam, lam)
        theta, g, (scale, r, Xd, Xdd) = trial, g_new, rest
        if np.all(np.abs(g) <= _NEWTON_TOL * scale):
            break
    return theta, np.abs(g) <= 10.0 * _NEWTON_TOL * scale


def _point_geometry(surface: SurfaceFamily, t: float, theta: np.ndarray, sign: float):
    """Frame pieces of the curve evaluated at arbitrary parameters."""
    foot, xd, xdd, _, _ = surface.jet(theta, t)
    _, tau, nu, kappa = _frame_pieces(xd, xdd, sign, t)
    return foot, tau, nu, kappa


def _closest_points(
    surface: SurfaceFamily, t: float, pts: np.ndarray, curve, bound: float
) -> tuple[np.ndarray, DistanceField]:
    """Closest-point geometry of the points whose nearest curve sample (of
    `curve`, the `_curve_samples` tuple) lies within `bound`.

    Newton starts at that nearest sample; points where it fails restart
    from their `_MULTISTART` nearest samples and keep the closest converged
    foot.  Returns the mask of the projected points and their field of
    (P,) arrays; raises ProjectionError when every start fails.
    """
    theta_s, samples, sign, _ = curve
    tree = cKDTree(samples)
    # cKDTree drops a point exactly at the bound, which the rule keeps
    coarse, idx = tree.query(pts, distance_upper_bound=np.nextafter(bound, np.inf))
    near = coarse <= bound
    pts = pts[near]
    theta, ok = _newton_project(surface, t, pts, theta_s[idx[near]])
    if not np.all(ok):
        bad = pts[~ok]
        _, starts = tree.query(bad, k=_MULTISTART)
        best_d2 = np.full(bad.shape[0], np.inf)
        for col in range(_MULTISTART):
            th_try, ok_try = _newton_project(surface, t, bad, theta_s[starts[:, col]])
            d2 = np.sum((bad - surface.jet(th_try, t)[0]) ** 2, axis=1)
            better = ok_try & (d2 < best_d2)
            theta[~ok] = np.where(better, th_try, theta[~ok])
            best_d2 = np.where(better, d2, best_d2)
        if not np.all(np.isfinite(best_d2)):
            where = bad[~np.isfinite(best_d2)][0]
            raise ProjectionError(f"closest-point Newton failed near {where} at t={float(t)!r}",
                                  location=where)
    foot, tau, nu, kappa = _point_geometry(surface, t, theta, sign)
    dist = np.einsum("pa,pa->p", pts - foot, nu)
    return near, DistanceField(dist, theta % (2.0 * np.pi), foot, nu, tau, kappa)


def _require_reach(stretch: np.ndarray, message: str) -> None:
    """BandError where 1 + d*kappa falls to `_MIN_STRETCH`: A^-1 blows up."""
    if np.any(stretch <= _MIN_STRETCH):
        raise BandError(message)


def build_band(
    surface: SurfaceFamily, t: float, h: float, delta: float
) -> tuple[NarrowBandGrid, DistanceField]:
    """Construct the band grid and per-node distance geometry at time t.

    Preconditions: ``delta * max|kappa| < 1/2`` (gradient factor stays
    invertible across the band).  Nodes within ``delta + 4h`` get geometry
    so active nodes always have full central stencils.
    """
    curve = _curve_samples(surface, t)
    samples, kmax = curve[1], curve[3]
    if delta * kmax >= 0.5:
        raise BandError(
            f"band half-width {delta} too large: delta*max|kappa| = {delta * kmax:.3f} >= 0.5"
        )
    halo_delta = delta + _HALO_CELLS * h
    if halo_delta * kmax >= 0.75:
        raise BandError("halo exceeds the curvature reach; decrease h or delta")

    margin = halo_delta + 2.0 * h
    x_lo = np.floor((samples[:, 0].min() - margin) / h) * h
    y_lo = np.floor((samples[:, 1].min() - margin) / h) * h
    nx = int(np.ceil((samples[:, 0].max() + margin - x_lo) / h)) + 1
    ny = int(np.ceil((samples[:, 1].max() + margin - y_lo) / h)) + 1
    xs = x_lo + h * np.arange(nx)
    ys = y_lo + h * np.arange(ny)
    chord = float(np.max(np.linalg.norm(np.roll(samples, -1, axis=0) - samples, axis=1)))
    bound = halo_delta + chord

    # a node within `bound` of a sample lies in a block whose centre is within
    # bound + (B-1)h/sqrt(2) of it; h more absorbs the rounding of the centres
    B = _CULL_BLOCK
    centre_x = x_lo + h * (B * np.arange((nx + B - 1) // B) + 0.5 * (B - 1))
    centre_y = y_lo + h * (B * np.arange((ny + B - 1) // B) + 0.5 * (B - 1))
    CX, CY = np.meshgrid(centre_x, centre_y, indexing="xy")
    radius = bound + (B - 1) * h / np.sqrt(2.0) + h
    reach, _ = cKDTree(samples).query(np.stack([CX.ravel(), CY.ravel()], axis=-1),
                                      distance_upper_bound=radius)
    blocks = np.isfinite(reach).reshape(CX.shape)
    candidate = np.repeat(np.repeat(blocks, B, axis=0), B, axis=1)[:ny, :nx].ravel()

    # a KD query answers each point alone, so the candidates' projection equals
    # that of every node restricted to them
    XX, YY = np.meshgrid(xs, ys, indexing="xy")
    pts = np.stack([XX.ravel()[candidate], YY.ravel()[candidate]], axis=-1)
    near = np.zeros(ny * nx, dtype=bool)
    near[candidate], flat = _closest_points(surface, t, pts, curve, bound)

    def scatter(values):
        full = np.full((ny * nx, *values.shape[1:]), np.nan)
        full[near] = values
        return full.reshape((ny, nx, *values.shape[1:]))

    field = DistanceField(**{f.name: scatter(getattr(flat, f.name)) for f in fields(DistanceField)})
    finite = np.isfinite(field.dist)
    halo_mask = finite & (np.abs(field.dist) < halo_delta)
    active_mask = finite & (np.abs(field.dist) < delta)
    if not np.any(active_mask):
        raise BandError("no active nodes; grid spacing too coarse for this band")
    interior_mask = active_mask & binary_erosion(halo_mask, structure=np.ones((5, 5)))
    _require_reach(field.stretch[halo_mask], "gradient factor nearly singular inside the halo")

    return NarrowBandGrid(xs, ys, h, delta, halo_delta, active_mask, halo_mask, interior_mask), field


# -- differential operators on the rectangle ---------------------------------


def _ddx(F: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(F, np.nan)
    out[:, 1:-1] = (F[:, 2:] - F[:, :-2]) / (2.0 * h)
    return out


def _ddy(F: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(F, np.nan)
    out[1:-1, :] = (F[2:, :] - F[:-2, :]) / (2.0 * h)
    return out


def _gradient(F: np.ndarray, h: float) -> np.ndarray:
    return np.stack([_ddx(F, h), _ddy(F, h)], axis=-1)


def _hessian(F: np.ndarray, h: float) -> np.ndarray:
    dxx = np.full_like(F, np.nan)
    dyy = np.full_like(F, np.nan)
    dxy = np.full_like(F, np.nan)
    dxx[:, 1:-1] = (F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]) / h**2
    dyy[1:-1, :] = (F[2:, :] - 2.0 * F[1:-1, :] + F[:-2, :]) / h**2
    dxy[1:-1, 1:-1] = (
        F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]
    ) / (4.0 * h**2)
    out = np.empty(F.shape + (2, 2))
    out[..., 0, 0] = dxx
    out[..., 1, 1] = dyy
    out[..., 0, 1] = dxy
    out[..., 1, 0] = dxy
    return out


def lift_field(
    u_values: np.ndarray,
    theta_nodes: np.ndarray,
    grid: NarrowBandGrid,
    dist: DistanceField,
) -> np.ndarray:
    """Lift nodal surface values to the band: constant along normals, values
    taken at the foot via periodic cubic interpolation in theta."""
    u = _require_shape(u_values, theta_nodes.shape, "surface values")
    spline = CubicSpline(
        np.append(theta_nodes, theta_nodes[0] + 2.0 * np.pi),
        np.append(u, u[0]),
        bc_type="periodic",
    )
    out = np.full(grid.shape, np.nan)
    mask = np.isfinite(dist.theta_foot)
    out[mask] = spline(dist.theta_foot[mask] % (2.0 * np.pi))
    return out


def rescaled_gradient(values: np.ndarray, grid: NarrowBandGrid, dist: DistanceField) -> np.ndarray:
    """A^{-1} P grad(values) = s (tau . grad(values)) tau, since P = tau (x) tau
    and A^-1 tau = s tau: equals the lifted surface gradient on lifts."""
    along = dist.stretch * np.einsum("...a,...a->...", dist.tangent, _gradient(values, grid.h))
    return along[..., None] * dist.tangent


def _rescaled_divergence(vector: np.ndarray, grid: NarrowBandGrid, dist: DistanceField):
    """D~ . vector: the trace of the rescaled gradients of the components."""
    out = np.zeros(grid.shape)
    for a in range(2):
        out = out + rescaled_gradient(vector[..., a], grid, dist)[..., a]
    return out


def _elliptic_part(values: np.ndarray, flux: np.ndarray, grid: NarrowBandGrid, dist: DistanceField):
    """D~ . flux + u_nunu; with flux = D~ u it is the identity-metric
    elliptic part D~.D~ u + u_nunu."""
    hess = _hessian(values, grid.h)
    normal_second = np.einsum("...a,...ab,...b->...", dist.normal, hess, dist.normal)
    return _rescaled_divergence(flux, grid, dist) + normal_second


def extended_operator_apply(
    values: np.ndarray,
    grid: NarrowBandGrid,
    dist: DistanceField,
    metric: MetricSample | None = None,
    advection: np.ndarray | None = None,
    reaction: np.ndarray | float = 0.0,
    du_dt: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the extended parabolic operator on the band.

    Terms: rescaled divergence of the (lifted-)metric flux, the metric
    gradient correction, the plain second derivative along the normal, an
    optional advection by a lifted vector field, minus reaction and the
    supplied time-derivative samples.  Valid on the interior mask; NaN
    elsewhere.
    """
    values = _require_shape(values, grid.shape, "band field")
    V = rescaled_gradient(values, grid, dist)

    if metric is None:
        out = _elliptic_part(values, V, grid, dist)
    else:
        theta = metric.theta
        g_inv = np.empty(grid.shape + (2, 2))
        g_mat = np.empty(grid.shape + (2, 2))
        for a in range(2):
            for b in range(2):
                g_inv[..., a, b] = lift_field(metric.cartesian_inv[:, a, b], theta, grid, dist)
                g_mat[..., a, b] = lift_field(metric.cartesian[:, a, b], theta, grid, dist)
        flux = np.einsum("...ab,...b->...a", g_inv, V)
        d_g = np.empty(grid.shape + (2, 2, 2))  # [..., b, a, e] = rescaled D_b of G_{ae}
        for a in range(2):
            for e in range(2):
                d_g[..., :, a, e] = rescaled_gradient(g_mat[..., a, e], grid, dist)
        eye = np.eye(2)
        proj = eye - np.einsum("...a,...b->...ab", dist.normal, dist.normal)
        term2 = 0.5 * np.einsum(
            "...ag,...ge,...br,...bae,...r->...", proj, g_inv, g_inv, d_g, V
        )
        out = _elliptic_part(values, flux, grid, dist) + term2
    if advection is not None:
        out = out + np.einsum("...a,...a->...", advection, V)
    out = out - reaction * values
    if du_dt is not None:
        out = out - du_dt
    return np.where(grid.interior_mask, out, np.nan)


def band_average_extract(
    values: np.ndarray,
    grid: NarrowBandGrid,
    dist: DistanceField,
    surface: SurfaceFamily,
    t: float,
    theta_nodes: np.ndarray,
) -> np.ndarray:
    """Average a band field over the normal segment through each surface node.

    Gauss-Legendre points along each ray, values by local bicubic Lagrange
    interpolation.  Raises ExtractionError naming the surface node and theta
    of the first ray that leaves the valid band or the grid rectangle.
    """
    foot, _, nu, _ = _point_geometry(surface, t, theta_nodes, _curve_samples(surface, t)[2])
    s_ref, w_ref = np.polynomial.legendre.leggauss(_EXTRACT_QUAD)
    s = s_ref * grid.delta
    w = w_ref * grid.delta
    pts = foot[None, :, :] + s[:, None, None] * nu[None, :, :]  # (Q, N, 2)
    sampled = _lagrange_interp(values, grid, pts)
    if not np.all(np.isfinite(sampled)):
        node = int(np.argmax(~np.all(np.isfinite(sampled), axis=0)))  # first bad ray
        where = f"surface node {node} (theta={float(theta_nodes[node])!r})"
        raise ExtractionError(f"extraction ray of {where} samples outside the valid band")
    return np.einsum("q,qn->n", w, sampled) / (2.0 * grid.delta)


def _lagrange_interp(F: np.ndarray, grid: NarrowBandGrid, pts: np.ndarray) -> np.ndarray:
    """Local 4x4 tensor-product Lagrange interpolation (fourth order); NaN
    where the stencil leaves the grid rectangle."""
    x = pts[..., 0]
    y = pts[..., 1]
    h = grid.h
    ix = np.floor((x - grid.xs[0]) / h).astype(int)
    iy = np.floor((y - grid.ys[0]) / h).astype(int)
    xi = (x - grid.xs[0]) / h - ix
    eta = (y - grid.ys[0]) / h - iy
    inside = (ix >= 1) & (ix <= grid.xs.size - 3) & (iy >= 1) & (iy <= grid.ys.size - 3)
    ix, iy = np.where(inside, ix, 1), np.where(inside, iy, 1)

    def basis(s):
        return np.stack(
            [
                -s * (s - 1.0) * (s - 2.0) / 6.0,
                (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0,
                -(s + 1.0) * s * (s - 2.0) / 2.0,
                (s + 1.0) * s * (s - 1.0) / 6.0,
            ],
            axis=-1,
        )

    wx = basis(xi)  # (..., 4)
    wy = basis(eta)
    offsets = np.arange(-1, 3)
    patch = F[
        (iy[..., None, None] + offsets[None, :, None]),
        (ix[..., None, None] + offsets[None, None, :]),
    ]  # (..., 4, 4) rows y, cols x
    return np.where(inside, np.einsum("...j,...jk,...k->...", wy, patch, wx), np.nan)


def eikonal_residual(grid: NarrowBandGrid, dist: DistanceField) -> float:
    """max over active nodes of ||grad_h d| - 1|."""
    g = _gradient(dist.dist, grid.h)
    mag = np.sqrt(np.einsum("...a,...a->...", g, g))
    return float(np.nanmax(np.abs(mag[grid.active_mask] - 1.0)))


def os_operator_equivalence(
    values: np.ndarray, grid: NarrowBandGrid, dist: DistanceField
) -> float:
    """Max interior difference between the weighted-divergence form
    (1/mu) div(mu A^-2 grad u) and the rescaled form D~.D~ u + u_nunu, with
    mu = det A = 1/s and A^-2 = I + (s^2 - 1) tau (x) tau."""
    g = _gradient(values, grid.h)
    s = dist.stretch
    along = (s * s - 1.0) * np.einsum("...a,...a->...", dist.tangent, g)
    flux = (g + along[..., None] * dist.tangent) / s[..., None]
    lhs = (_ddx(flux[..., 0], grid.h) + _ddy(flux[..., 1], grid.h)) * s
    rhs = _elliptic_part(values, rescaled_gradient(values, grid, dist), grid, dist)
    diff = np.abs(lhs - rhs)
    return float(np.nanmax(diff[grid.interior_mask]))


def band_field_csv(
    grid: NarrowBandGrid, dist: DistanceField, values: np.ndarray, path
) -> str:
    """Write the active nodes' (x, y, d, value) as the (P, 4) float64 array
    of a `.npy` file, rows in row-major node order; returns the SHA-256 of
    the file.  The name predates the binary format and stays because
    benchmark spans trace this function by name."""
    XX, YY = grid.mesh()
    act = grid.active_mask
    return write_npy(path, np.stack([XX[act], YY[act], dist.dist[act], values[act]], axis=1))


def flat_strip_step_equivalence(
    n_x: int = 64,
    n_y: int = 17,
    dt: float = 1e-2,
    u0=None,
    forcing=None,
) -> float:
    """One implicit step on a flat periodic strip versus the 1-d solver.

    The strip hosts the two-dimensional operator with mirrored Neumann rows
    at the top and bottom; the surface problem lives on the periodic line.
    Lifted data is constant across the strip, both steps are backward Euler
    with the same dt, and the extracted column averages agree to round-off.
    """
    from .evolution import IVPConfig, Propagator
    from .surfaces import circle

    hx = 2.0 * np.pi / n_x
    hy = 2.0 * _FLAT_STRIP_HALF_WIDTH / (n_y - 1)
    xs = hx * np.arange(n_x)
    profile = u0(xs) if u0 is not None else np.cos(xs)
    f_line = forcing(xs) if forcing is not None else np.zeros_like(xs)

    # 1-d reference step: unit circle has unit chart speed, so its operator
    # is the plain periodic Laplacian in the parameter
    config = IVPConfig(n_nodes=n_x, n_steps=4, scheme="backward_euler", zero_order="zero")
    prop = Propagator(circle(1.0, 4.0 * dt), config, lambda th, t: f_line)
    u_line = prop.step(profile, 0)

    # 2-d strip step with the same data lifted constantly in y; row-major
    # nodes j * n_x + i, periodic in x, mirrored Neumann rows in y
    ones_x = np.ones(n_x)
    lap_x = _cyclic_tridiagonal(-2.0 * ones_x, ones_x, ones_x) / hx**2
    upper, lower = np.ones(n_y - 1), np.ones(n_y - 1)
    upper[0] = lower[-1] = 2.0
    lap_y = sparse.diags([np.full(n_y, -2.0), upper, lower], [0, 1, -1]) / hy**2
    mat = (
        sparse.identity(n_x * n_y) / dt
        - sparse.kron(sparse.identity(n_y), lap_x)
        - sparse.kron(lap_y, sparse.identity(n_x))
    )
    solver = spla.splu(mat.tocsc())
    u_strip = solver.solve(np.tile(profile, n_y) / dt - np.tile(f_line, n_y)).reshape(n_y, n_x)
    extracted = u_strip.mean(axis=0)
    return float(np.max(np.abs(extracted - u_line)))
