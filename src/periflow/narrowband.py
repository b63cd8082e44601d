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

Geometry is computed on a halo `_HALO_CELLS` cells wider than the active
band.  |d| is 1-Lipschitz and a 5x5 window reaches 2 sqrt 2 cells, so every
active node has its full central stencils in the halo, and operators and
identity checks are evaluated on the active mask.
`lift_field` interpolates values at the N parameters 2 pi j / N by their
periodic cubic spline, solved by `evolution._CyclicFactor`.  One projection
finds closest points: Newton on the chart, steps clipped to half a radian,
from the nearest curve sample; the foot frame comes from its last chart
evaluation, and a point it does not converge on raises ProjectionError.
`build_band` makes it on the grid nodes near the curve.  `_nearest_samples`
gives each node its nearest curve sample by a window sweep: each sample in
turn visits the box of nodes within the bound of it and keeps the nodes it
is strictly nearer to, so ties go to the lowest sample index, and the
projected nodes are exactly those a nearest-sample query of every node
would keep.

`flat_strip_step_equivalence` checks that the extension reduces to the
surface problem on a flat periodic strip.  Its 2-d backward-Euler step is a
tensor-product solve: one `eigh` of the symmetrized y-operator, then one
periodic x-solve per eigenvalue, again by `_CyclicFactor`.

`band_field_csv` writes the active nodes as a binary `.npy` array; the
name predates that format and stays because benchmark spans trace the
function by name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import BandError, ExtractionError, ProjectionError
from .evolution import IVPConfig, Propagator, _CyclicFactor
from .fields import _require_shape
from .surfaces import SurfaceFamily, _frame_pieces, circle, orientation_sign
from .tables import write_npy

_HALO_CELLS = 4  # > 2 sqrt 2, the reach of a 5x5 stencil: active stencils lie in the halo
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 60
_SAMPLE_COUNT = 1024  # curve samples: Newton starts and max|kappa|
_EXTRACT_QUAD = 12  # Gauss-Legendre points per extraction ray
_MIN_STRETCH = 0.1  # reach limit on 1 + d*kappa, i.e. on |A^-1|


@dataclass(frozen=True)
class NarrowBandGrid:
    """Uniform Cartesian grid hosting the band, with its active mask.
    `build_band` gives geometry to a halo `_HALO_CELLS` cells wider than the
    band, the nodes with ``|d| < delta + _HALO_CELLS * h``, so that every
    active node has its full 5x5 stencil there; no mask keeps the halo."""

    xs: np.ndarray  # (nx,)
    ys: np.ndarray  # (ny,)
    h: float
    delta: float
    active_mask: np.ndarray  # (ny, nx) |d| < delta

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
    samples, xd, xdd, _ = surface.jet(theta_s, t)
    sign = orientation_sign(samples)
    kappa = _frame_pieces(xd, xdd, sign, t)[3]
    return theta_s, samples, sign, float(np.max(np.abs(kappa)))


def _newton_project(
    surface: SurfaceFamily, t: float, pts: np.ndarray, theta0: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Newton, steps clipped to half a radian, for the stationarity condition
    g = -(x - X(theta)).X'(theta) = 0: after one chart evaluation at the
    start, a sweep is one step ``theta -= clip(g / g', +-0.5)`` and one
    evaluation, until every point converges.  It needs no line search: at
    the foot ``g' = |X'|^2 (1 + d kappa) >= |X'|^2 / 4`` inside the halo,
    which `build_band` limits to ``(delta + 4h) max|kappa| < 3/4``.

    Returns the parameters, a convergence mask and the chart evaluation at
    those parameters, X, X_theta and X_theta_theta: the last one made."""
    theta = theta0.astype(float)
    for sweep in range(_NEWTON_MAX_ITER + 1):
        X, Xd, Xdd, _ = surface.jet(theta, t)
        r, speed2 = pts - X, np.einsum("pa,pa->p", Xd, Xd)
        g, scale = -np.einsum("pa,pa->p", r, Xd), speed2 + 1e-30
        if sweep == _NEWTON_MAX_ITER or np.all(np.abs(g) <= _NEWTON_TOL * scale):
            break
        gp = speed2 - np.einsum("pa,pa->p", r, Xdd)
        floor = 1e-14 * scale
        safe = np.where(np.abs(gp) > floor, gp, np.where(gp >= 0.0, floor, -floor))
        theta = theta - np.clip(g / safe, -0.5, 0.5)
    return theta, np.abs(g) <= 10.0 * _NEWTON_TOL * scale, X, Xd, Xdd


def _nearest_samples(
    samples: np.ndarray, xs: np.ndarray, ys: np.ndarray, h: float, bound: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each node of the grid `xs` x `ys` (spacing `h`) to its
    nearest curve sample, and that sample's index, as (ny, nx) arrays; exact
    wherever the distance is at most `bound`, inf where no sample lies within
    it.  The samples are swept in order, each over the box of nodes within
    `bound` of it widened by one cell against rounding, and a node takes a
    sample whose dx^2 + dy^2 is strictly below its best so far: a tie goes to
    the lowest sample index."""
    best = np.full((ys.size, xs.size), np.inf)
    idx = np.zeros(best.shape, dtype=np.intp)
    origin = np.array([xs[0], ys[0]])
    lo = np.maximum(np.floor((samples - origin - bound) / h).astype(int) - 1, 0)
    hi = np.ceil((samples - origin + bound) / h).astype(int) + 2  # exclusive
    for k, ((sx, sy), (i0, j0), (i1, j1)) in enumerate(zip(samples, lo, hi)):
        dx, dy = xs[i0:i1] - sx, ys[j0:j1] - sy
        d2 = dx * dx + (dy * dy)[:, None]
        window = best[j0:j1, i0:i1]
        closer = d2 < window
        np.copyto(window, d2, where=closer)
        np.copyto(idx[j0:j1, i0:i1], k, where=closer)
    return np.sqrt(best), idx


def _closest_points(
    surface: SurfaceFamily, t: float, pts: np.ndarray, theta0: np.ndarray, sign: float
) -> DistanceField:
    """Closest-point geometry of the (P, 2) points `pts` as a field of (P,)
    arrays, on the curve of orientation `sign` (see `_curve_samples`).

    Newton, steps clipped to half a radian, starts at the parameters
    `theta0`; the foot, its frame and curvature come from its last chart
    evaluation.  Raises ProjectionError naming the first point Newton does
    not converge on.
    """
    theta, ok, foot, xd, xdd = _newton_project(surface, t, pts, theta0)
    if not np.all(ok):
        where = pts[~ok][0]
        raise ProjectionError(f"closest-point Newton failed near {where} at t={float(t)!r}",
                              location=where)
    _, tau, nu, kappa = _frame_pieces(xd, xdd, sign, t)
    dist = np.einsum("pa,pa->p", pts - foot, nu)
    return DistanceField(dist, theta % (2.0 * np.pi), foot, nu, tau, kappa)


def _require_reach(stretch: np.ndarray, message: str) -> None:
    """BandError where 1 + d*kappa falls to `_MIN_STRETCH`: A^-1 blows up."""
    if np.any(stretch <= _MIN_STRETCH):
        raise BandError(message)


def _check_band_sizes(h: float, delta: float) -> None:
    """Raise ValueError unless the grid spacing `h` and half-width `delta` are positive."""
    if not (h > 0.0 and delta > 0.0):
        raise ValueError(f"h (band_h) and delta (band_delta) must be positive, "
                         f"got h={h}, delta={delta}")


def build_band(
    surface: SurfaceFamily, t: float, h: float, delta: float
) -> tuple[NarrowBandGrid, DistanceField]:
    """Construct the band grid and per-node distance geometry at time t.

    Preconditions: ``h > 0`` and ``delta > 0`` (else ValueError), and
    ``delta * max|kappa| < 1/2`` (gradient factor stays invertible across
    the band).  Nodes within ``delta + 4h`` get geometry so active nodes
    always have full central stencils.
    """
    _check_band_sizes(h, delta)
    theta_s, samples, sign, kmax = _curve_samples(surface, t)
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

    coarse, idx = _nearest_samples(samples, xs, ys, h, bound)
    near = coarse <= bound
    rows, cols = np.nonzero(near)  # row-major, as are idx[near] and the scatter below
    pts = np.stack([xs[cols], ys[rows]], axis=-1)
    flat = _closest_points(surface, t, pts, theta_s[idx[near]], sign)

    def scatter(values):
        full = np.full((ny, nx, *values.shape[1:]), np.nan)
        full[near] = values
        return full

    field = DistanceField(**{f.name: scatter(getattr(flat, f.name)) for f in fields(DistanceField)})
    finite = np.isfinite(field.dist)
    halo_mask = finite & (np.abs(field.dist) < halo_delta)
    active_mask = finite & (np.abs(field.dist) < delta)
    if not np.any(active_mask):
        raise BandError("no active nodes; grid spacing too coarse for this band")
    _require_reach(field.stretch[halo_mask], "gradient factor nearly singular inside the halo")

    return NarrowBandGrid(xs, ys, h, delta, active_mask), field


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


def lift_field(u_values: np.ndarray, grid: NarrowBandGrid, dist: DistanceField) -> np.ndarray:
    """Lift surface values at the N >= 3 equispaced parameters 2 pi j / N to the
    band: constant along normals, taken at the foot from their periodic cubic
    spline (de Boor, ch. IV), whose second derivatives m / h^2, h = 2 pi / N,
    solve m[j-1] + 4 m[j] + m[j+1] = 6 (u[j+1] - 2 u[j] + u[j-1])."""
    u = _require_shape(u_values, np.shape(u_values)[:1], "surface values")
    n, m = u.size, 6.0 * (np.roll(u, -1) - 2.0 * u + np.roll(u, 1))
    _CyclicFactor(np.full((1, n), 4.0), np.ones((1, n)), 0).solver(m[None])(0, 0)
    h, mask = 2.0 * np.pi / n, np.isfinite(dist.theta_foot)
    j = np.floor(dist.theta_foot[mask] / h)
    t = (dist.theta_foot[mask] - j * h) / h  # foot / h - j would keep foot / h's n * eps rounding
    s, j = 1.0 - t, j.astype(int) % n  # a foot just below 2 pi can round to j = n
    k = (j + 1) % n
    out = np.full(grid.shape, np.nan)
    out[mask] = s * u[j] + t * u[k] - s * t * ((1.0 + s) * m[j] + (1.0 + t) * m[k]) / 6.0
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


def extended_operator_apply(
    values: np.ndarray, grid: NarrowBandGrid, dist: DistanceField
) -> np.ndarray:
    """Apply the identity-metric extended operator D~.D~ u + u_nunu on the
    band: the rescaled divergence of the rescaled gradient plus the plain
    second derivative along the normal, on the active nodes; NaN elsewhere.
    """
    values = _require_shape(values, grid.shape, "band field")
    out = _rescaled_divergence(rescaled_gradient(values, grid, dist), grid, dist)
    hess = _hessian(values, grid.h)
    out += np.einsum("...a,...ab,...b->...", dist.normal, hess, dist.normal)
    return np.where(grid.active_mask, out, np.nan)


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
    foot, xd, xdd, _ = surface.jet(theta_nodes, t)
    nu = _frame_pieces(xd, xdd, _curve_samples(surface, t)[2], t)[2]
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
    values: np.ndarray, applied: np.ndarray, grid: NarrowBandGrid, dist: DistanceField
) -> float:
    """Max difference over the active nodes between the weighted-divergence form
    (1/mu) div(mu A^-2 grad u) and the rescaled form D~.D~ u + u_nunu, with
    mu = det A = 1/s and A^-2 = I + (s^2 - 1) tau (x) tau; `applied` is the
    rescaled form, as `extended_operator_apply(values, grid, dist)` returns it."""
    g = _gradient(values, grid.h)
    s = dist.stretch
    along = (s * s - 1.0) * np.einsum("...a,...a->...", dist.tangent, g)
    flux = (g + along[..., None] * dist.tangent) / s[..., None]
    lhs = (_ddx(flux[..., 0], grid.h) + _ddy(flux[..., 1], grid.h)) * s
    diff = np.abs(lhs - applied)
    return float(np.nanmax(diff[grid.active_mask]))


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


def _flat_strip_step(values: np.ndarray, dt: float, half_width: float) -> np.ndarray:
    """One backward-Euler step of u_t = u_xx + u_yy on the (ny, nx) strip
    `values`: periodic in x on [0, 2 pi), rows 2 half_width / (ny - 1) apart
    with mirrored Neumann rows at both ends.  By tensor product (Lynch, Rice
    & Thomas 1964): D = diag(sqrt 2, 1, ..., 1, sqrt 2) makes D^-1 A_y D
    symmetric, V diag(mu) V^T, and each mu_j leaves one cyclic x-solve."""
    n_y, n_x = values.shape
    hx = 2.0 * np.pi / n_x
    hy = 2.0 * half_width / (n_y - 1)
    scale = np.ones(n_y)
    scale[0] = scale[-1] = np.sqrt(2.0)
    off = np.ones(n_y - 1)
    off[0] = off[-1] = np.sqrt(2.0)
    mu, vectors = np.linalg.eigh((np.diag(off, 1) + np.diag(off, -1) - 2.0 * np.eye(n_y)) / hy**2)
    modes = vectors.T @ (values / (dt * scale[:, None]))
    coupling = np.full((n_y, n_x), -1.0 / hx**2)
    solve = _CyclicFactor(1.0 / dt - 2.0 * coupling - mu[:, None], coupling, 0).solver(modes)
    for j in range(n_y):
        solve(j, j)
    return scale[:, None] * (vectors @ modes)


def flat_strip_step_equivalence() -> float:
    """One implicit step on a flat periodic strip versus the 1-d solver.

    The strip of half-width 0.2 hosts the two-dimensional operator with
    mirrored Neumann rows at the top and bottom; the surface problem lives
    on the periodic line.  The data cos(x), without forcing, is lifted
    constantly across the strip, both steps are backward Euler with the
    same dt, and the extracted column averages agree to round-off.  The
    strip step is `_flat_strip_step`, a tensor-product solve by
    `_CyclicFactor`; the line step is `Propagator.run` on the unit circle,
    so the check compares two separate assemblies of the same operator.
    """
    n_x, n_y, dt, half_width = 64, 17, 1e-2, 0.2
    profile = np.cos((2.0 * np.pi / n_x) * np.arange(n_x))

    # 1-d reference step: unit circle has unit chart speed, so its operator
    # is the plain periodic Laplacian in the parameter
    config = IVPConfig(n_nodes=n_x, n_steps=4, scheme="backward_euler", zero_order="zero")
    u_line = Propagator(circle(1.0, 4.0 * dt), config).run(profile)[1]

    u_strip = _flat_strip_step(np.tile(profile, (n_y, 1)), dt, half_width)
    return float(np.max(np.abs(u_strip.mean(axis=0) - u_line)))
