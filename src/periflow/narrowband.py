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

A band is the list of its P grid nodes in row-major order, and a band field
a (P,) or (P, 2) array over them.  Geometry is computed on a halo
`_HALO_CELLS` cells wider than the active band.  |d| is 1-Lipschitz and a
5x5 window reaches 2 sqrt 2 cells, so every active node has its full
central stencils in the halo; the operators difference gathers through the
band's neighbour table, where a node off the band reads NaN, and are
evaluated on the active mask.  The band check compares the grids at h and
2h, and one projection serves both: `build_band` projects the grid at h out
to the halo of the grid at 2h, and `coarsen` keeps its nodes on the 2h
lattice.
`lift_field` interpolates values at the N parameters 2 pi j / N by their
periodic cubic spline, solved by `evolution._CyclicFactor`.  One projection
finds closest points: Newton on the chart, steps clipped to half a radian,
from the nearest curve sample, in blocks of `metric._BLOCK_POINTS` points;
its first chart evaluation is the sample's own, and the foot frame comes
from its last one.  A point it does not converge on raises ProjectionError.
`build_band` makes it on the grid nodes near the curve.  `_nearest_samples`
gives each node its nearest curve sample by a wedge sweep: each sample in
turn visits the nodes within the bound of it that lie on its side of the
bisectors with its two neighbours, its Voronoi wedge (Mauch 2003, the
closest-point transform by scan conversion), and keeps the nodes it is
strictly nearer to.  Ties go to the lowest sample index, and the projected
nodes are exactly those a nearest-sample query of every node would keep.

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
from .metric import _BLOCK_POINTS
from .surfaces import SurfaceFamily, _frame_pieces, circle, orientation_sign
from .tables import write_npy

_HALO_CELLS = 4  # > 2 sqrt 2, the reach of a 5x5 stencil: active stencils lie in the halo
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 60
_SAMPLE_COUNT = 1024  # curve samples: Newton starts and max|kappa|
_EXTRACT_QUAD = 12  # Gauss-Legendre points per extraction ray
_MIN_STRETCH = 0.1  # reach limit on 1 + d*kappa, i.e. on |A^-1|
_SWEEP_SLACK = 1e-9  # relative widening of `_nearest_samples`' wedge tests


@dataclass(frozen=True)
class NarrowBandGrid:
    """The P nodes of a uniform Cartesian grid that carry band geometry, in
    row-major order, node p at ``(xs[cols[p]], ys[rows[p]])``.  They reach
    a halo `_HALO_CELLS` cells wider than the band, ``|d| < delta + 4h``, so
    every active node has its full 5x5 stencil there; no mask keeps it.  The
    grid `build_band` makes reaches the halo of the grid at 2h,
    ``delta + 8h``, within its rectangle, so that `coarsen` needs no
    projection."""

    xs: np.ndarray  # (nx,)
    ys: np.ndarray  # (ny,)
    h: float
    delta: float
    active_mask: np.ndarray  # (P,) |d| < delta
    rows: np.ndarray  # (P,) index into ys
    cols: np.ndarray  # (P,) index into xs
    neighbours: np.ndarray  # (3, 3, P) node at (rows + i - 1, cols + j - 1); P off the band

    @property
    def shape(self) -> tuple[int]:
        """The shape of a band field, (P,)."""
        return self.active_mask.shape

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y coordinates of the nodes, (P,) each."""
        return self.xs[self.cols], self.ys[self.rows]


@dataclass(frozen=True)
class DistanceField:
    """Closest-point geometry per point, as (P,) and (P, 2) arrays: of
    scattered points, or of the nodes of a band grid in their order."""

    dist: np.ndarray  # oriented distance
    theta_foot: np.ndarray  # chart parameter of the closest point, mod 2 pi
    foot: np.ndarray  # (P, 2)
    normal: np.ndarray  # (P, 2)  grad d, constant along normals
    tangent: np.ndarray  # (P, 2)
    curvature: np.ndarray  # signed curvature at the foot

    @property
    def stretch(self) -> np.ndarray:
        """s = 1 + d*kappa: A^-1 = I + (s - 1) tau (x) tau and det A = 1/s."""
        return 1.0 + self.dist * self.curvature


def _curve_samples(surface: SurfaceFamily, t: float):
    """Equispaced sample parameters, the chart evaluation (X, X_theta,
    X_theta_theta) at them at time t, the orientation sign of the curve and
    max|kappa| over the samples."""
    theta_s = np.arange(_SAMPLE_COUNT) * (2.0 * np.pi / _SAMPLE_COUNT)
    samples, xd, xdd, _ = surface.jet(theta_s, t)
    sign = orientation_sign(samples)
    kappa = _frame_pieces(xd, xdd, sign, t)[3]
    return theta_s, (samples, xd, xdd), sign, float(np.max(np.abs(kappa)))


def _newton_project(
    surface: SurfaceFamily, t: float, pts: np.ndarray, theta0: np.ndarray, start: tuple
) -> tuple[np.ndarray, ...]:
    """Newton, steps clipped to half a radian, for the stationarity condition
    g = -(x - X(theta)).X'(theta) = 0, from the parameters `theta0` and the
    chart evaluation `start` there, (X, X_theta, X_theta_theta): a sweep is
    one step ``theta -= clip(g / g', +-0.5)`` and one evaluation, until every
    point converges.  It needs no line search: at the foot
    ``g' = |X'|^2 (1 + d kappa) >= |X'|^2 / 4`` inside the halo of the 2h
    grid, which `build_band` limits to ``(delta + 8h) max|kappa| < 3/4``.

    Returns the parameters, a convergence mask and the chart evaluation at
    those parameters, X, X_theta and X_theta_theta: the last one made."""
    theta, (X, Xd, Xdd) = theta0.astype(float), start
    for sweep in range(_NEWTON_MAX_ITER + 1):
        r, speed2 = pts - X, np.einsum("pa,pa->p", Xd, Xd)
        g, scale = -np.einsum("pa,pa->p", r, Xd), speed2 + 1e-30
        if sweep == _NEWTON_MAX_ITER or np.all(np.abs(g) <= _NEWTON_TOL * scale):
            break
        gp = speed2 - np.einsum("pa,pa->p", r, Xdd)
        floor = 1e-14 * scale
        safe = np.where(np.abs(gp) > floor, gp, np.where(gp >= 0.0, floor, -floor))
        theta = theta - np.clip(g / safe, -0.5, 0.5)
        X, Xd, Xdd, _ = surface.jet(theta, t)
    return theta, np.abs(g) <= 10.0 * _NEWTON_TOL * scale, X, Xd, Xdd


def _nearest_samples(
    samples: np.ndarray, xs: np.ndarray, ys: np.ndarray, h: float, bound: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each node of the grid `xs` x `ys` (spacing `h`) to its
    nearest curve sample, and that sample's index, as (ny, nx) arrays; exact
    wherever the distance is at most `bound`, above it or inf elsewhere.

    Sample k visits only its closed Voronoi wedge: the nodes within `bound`
    of it on its side of the bisectors with samples k - 1 and k + 1
    (cyclically), each test widened by `_SWEEP_SLACK` against rounding.  A
    node takes a visiting sample whose dx^2 + dy^2 is strictly below its
    best so far, in sample order, so a tie goes to the lowest index.  This
    is exact: a node's lowest-index nearest sample is no farther from it
    than either neighbour of that sample, so it visits the node, and no
    sample that visits is nearer.  The kept set, the indices and the
    distances are those of every sample tried at every node."""
    ny, nx, count = ys.size, xs.size, samples.shape[0]
    reach = bound * (1.0 + _SWEEP_SLACK)
    # k's side of its bisector with a neighbour s_k + e is e.(x - m) <= tol,
    # m the midpoint; in the row at y it bounds the column u = (x - xs[0]) / h
    # by the line a + b y, from above where e_x > 0 and from below where
    # e_x < 0.  A bisector horizontal to within _SWEEP_SLACK bounds nothing
    upper, lower = [], []
    for e in (np.roll(samples, 1, axis=0) - samples, np.roll(samples, -1, axis=0) - samples):
        length = np.hypot(e[:, 0], e[:, 1])
        tol = _SWEEP_SLACK * (reach + length) * (reach + length + np.abs(samples).sum(axis=1))
        steep = np.abs(e[:, 0]) > _SWEEP_SLACK * length
        ex = np.where(steep, e[:, 0], 1.0)
        m = samples + 0.5 * e
        a = (m[:, 0] + (tol + e[:, 1] * m[:, 1]) / ex - xs[0]) / h
        b = -e[:, 1] / (ex * h)
        for lines, side, free in ((upper, e[:, 0] > 0.0, np.inf), (lower, e[:, 0] < 0.0, -np.inf)):
            lines.append((np.where(steep & side, a, free), np.where(steep & side, b, 0.0)))
    centre = (samples[:, 0] - xs[0]) / h
    first = np.maximum(np.floor((samples[:, 1] - reach - ys[0]) / h), 0.0).astype(np.intp)
    last = np.minimum(np.ceil((samples[:, 1] + reach - ys[0]) / h), ny - 1.0).astype(np.intp)

    best, idx = np.full(ny * nx, np.inf), np.zeros(ny * nx, dtype=np.intp)
    step = np.arange(int(2.0 * reach / h) + 3)
    chunk = max(1, _BLOCK_POINTS // step.size)  # samples per chunk of (k, row) spans
    for k0 in range(0, count, chunk):
        ks = np.arange(k0, min(k0 + chunk, count))
        # (k, row) spans: the columns of each row inside the disk and the wedge
        row = np.minimum(first[ks, None] + step, ny - 1)
        y = ys[row]
        dy = y - samples[ks, 1, None]
        chord2 = reach * reach - dy * dy
        half = np.sqrt(np.maximum(chord2, 0.0)) / h
        u_lo, u_hi = centre[ks, None] - half, centre[ks, None] + half
        for a, b in upper:
            u_hi = np.minimum(u_hi, a[ks, None] + b[ks, None] * y)
        for a, b in lower:
            u_lo = np.maximum(u_lo, a[ks, None] + b[ks, None] * y)
        col0 = np.maximum(np.ceil(u_lo), 0.0)
        width = np.minimum(np.floor(u_hi), nx - 1.0) - col0 + 1.0
        width[(step > (last - first)[ks, None]) | (chord2 < 0.0) | (width < 0.0)] = 0.0
        width = width.astype(np.intp).ravel()
        keep = np.flatnonzero(width)
        width = width[keep]
        start = np.cumsum(width) - width
        col = np.repeat(col0.ravel()[keep].astype(np.intp) - start, width)
        col += np.arange(col.size)
        k = np.repeat(np.repeat(ks, step.size)[keep], width)  # each visit's sample
        dx = xs[col] - samples[k, 0]
        d2 = dx * dx + np.repeat((dy * dy).ravel()[keep], width)
        flat = np.repeat(row.ravel()[keep] * nx, width) + col
        # the chunk's nearest visitor of each node, where it beats the
        # samples before the chunk; the lowest index among equals
        before = best[flat]
        np.minimum.at(best, flat, d2)
        won = (d2 < before) & (d2 == best[flat])
        idx[flat[won]] = count
        np.minimum.at(idx, flat[won], k[won])
    return np.sqrt(best).reshape(ny, nx), idx.reshape(ny, nx)


def _closest_points(
    surface: SurfaceFamily, t: float, pts: np.ndarray, theta0: np.ndarray, start: tuple,
    sign: float,
) -> DistanceField:
    """Closest-point geometry of the (P, 2) points `pts` as a field of (P,)
    arrays, on the curve of orientation `sign` (see `_curve_samples`).

    Newton starts at the parameters `theta0` and their chart evaluation
    `start` and runs on blocks of `_BLOCK_POINTS` points in turn; the foot,
    its frame and curvature come from its last chart evaluation.  Raises
    ProjectionError naming the first point Newton does not converge on.
    """
    n = pts.shape[0]
    field = [np.empty((n, *shape)) for shape in ((), (), (2,), (2,), (2,), ())]
    for lo in range(0, n, _BLOCK_POINTS):
        block = slice(lo, lo + _BLOCK_POINTS)
        x = pts[block]
        theta, ok, foot, xd, xdd = _newton_project(surface, t, x, theta0[block],
                                                   tuple(s[block] for s in start))
        if not np.all(ok):
            where = x[~ok][0]
            raise ProjectionError(f"closest-point Newton failed near {where} at t={float(t)!r}",
                                  location=where)
        _, tau, nu, kappa = _frame_pieces(xd, xdd, sign, t)
        dist = np.einsum("pa,pa->p", x - foot, nu)
        for whole, part in zip(field, (dist, theta % (2.0 * np.pi), foot, nu, tau, kappa)):
            whole[block] = part
    return DistanceField(*field)


def _require_reach(stretch: np.ndarray, message: str) -> None:
    """BandError where 1 + d*kappa falls to `_MIN_STRETCH`: A^-1 blows up."""
    if np.any(stretch <= _MIN_STRETCH):
        raise BandError(message)


def _check_band_sizes(h: float, delta: float) -> None:
    """Raise ValueError unless the grid spacing `h` and half-width `delta` are positive."""
    if not (h > 0.0 and delta > 0.0):
        raise ValueError(f"h (band_h) and delta (band_delta) must be positive, "
                         f"got h={h}, delta={delta}")


def _node_lookup(rows: np.ndarray, cols: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """(ny + 2, nx + 2) table of the index of the node at row r, column c in
    its entry (r + 1, c + 1), and P, the slot of no node, elsewhere: the
    rectangle padded by a cell on each side, where no band node lies."""
    lookup = np.full((ny + 2, nx + 2), rows.size, dtype=np.int32)
    lookup[rows + 1, cols + 1] = np.arange(rows.size)
    return lookup


def _band_grid(
    xs: np.ndarray, ys: np.ndarray, h: float, delta: float, rows: np.ndarray, cols: np.ndarray,
    dist: DistanceField,
) -> NarrowBandGrid:
    """The band grid of the nodes (rows, cols) of the grid `xs` x `ys`, in
    row-major order, with geometry `dist`: its active mask and its neighbour
    table, gathered from flat offsets into the padded lookup.  Raises
    BandError when no node is active."""
    active_mask = np.abs(dist.dist) < delta
    if not np.any(active_mask):
        raise BandError("no active nodes; grid spacing too coarse for this band")
    width = xs.size + 2
    lookup = _node_lookup(rows, cols, ys.size, xs.size).ravel()
    at = (rows + 1) * width + cols + 1
    # int32 halves the largest array of the band; numpy widens it per gather
    neighbours = np.empty((3, 3, rows.size), np.int32)
    for i, j in np.ndindex(3, 3):
        neighbours[i, j] = lookup[at + ((i - 1) * width + j - 1)]
    return NarrowBandGrid(xs, ys, h, delta, active_mask, rows, cols, neighbours)


def build_band(
    surface: SurfaceFamily, t: float, h: float, delta: float
) -> tuple[NarrowBandGrid, DistanceField]:
    """Construct the band grid and per-node distance geometry at time t.

    Preconditions: ``h > 0`` and ``delta > 0`` (else ValueError), and
    ``delta * max|kappa| < 1/2`` (gradient factor stays invertible across
    the band).  One projection serves the band at h and, through `coarsen`,
    the band at 2h: every node of the rectangle within the 2h grid's halo
    ``delta + 8h`` gets geometry, so active nodes of both grids always have
    full central stencils.  Raises BandError unless
    ``(delta + 8h) max|kappa| < 3/4``, the reach that Newton needs there.
    """
    _check_band_sizes(h, delta)
    theta_s, chart, sign, kmax = _curve_samples(surface, t)
    if delta * kmax >= 0.5:
        raise BandError(
            f"band half-width {delta} too large: delta*max|kappa| = {delta * kmax:.3f} >= 0.5"
        )
    reach_delta = delta + _HALO_CELLS * (2.0 * h)  # the 2h grid's halo
    if reach_delta * kmax >= 0.75:
        raise BandError("halo exceeds the curvature reach; decrease h or delta")

    # the rectangle reaches 2 cells past the halo at h, and so past the
    # 2 sqrt 2 cells at 2h that the 2h grid's active stencils reach beyond
    # the band.  It is not widened to the 2h halo: `_lagrange_interp` rounds
    # x - xs[0], so a moved xs[0] would move the last bits of an extraction
    samples = chart[0]
    margin = delta + _HALO_CELLS * h + 2.0 * h
    x_lo = np.floor((samples[:, 0].min() - margin) / h) * h
    y_lo = np.floor((samples[:, 1].min() - margin) / h) * h
    nx = int(np.ceil((samples[:, 0].max() + margin - x_lo) / h)) + 1
    ny = int(np.ceil((samples[:, 1].max() + margin - y_lo) / h)) + 1
    xs = x_lo + h * np.arange(nx)
    ys = y_lo + h * np.arange(ny)
    chord = float(np.max(np.linalg.norm(np.roll(samples, -1, axis=0) - samples, axis=1)))
    bound = reach_delta + chord

    coarse, idx = _nearest_samples(samples, xs, ys, h, bound)
    rows, cols = np.nonzero(coarse <= bound)  # the band's nodes, in row-major order
    nearest = idx[rows, cols]
    del coarse, idx  # the last arrays over the rectangle
    field = _closest_points(surface, t, np.stack([xs[cols], ys[rows]], axis=-1),
                            theta_s[nearest], tuple(np.take(s, nearest, axis=0) for s in chart),
                            sign)
    grid = _band_grid(xs, ys, h, delta, rows, cols, field)
    _require_reach(field.stretch[np.abs(field.dist) < reach_delta],
                   "gradient factor nearly singular inside the halo")
    return grid, field


def coarsen(grid: NarrowBandGrid, dist: DistanceField) -> tuple[NarrowBandGrid, DistanceField]:
    """The band at spacing 2h from the band `build_band` makes at h: its
    nodes on the lattice of multiples of 2h, with their geometry, on that
    lattice's rows and columns of the rectangle.  It projects nothing.
    Raises BandError when no node of it is active."""
    c0, r0 = (int(round(float(v[0]) / grid.h)) % 2 for v in (grid.xs, grid.ys))
    on = np.flatnonzero(((grid.cols - c0) % 2 == 0) & ((grid.rows - r0) % 2 == 0))
    part = DistanceField(*(np.take(getattr(dist, f.name), on, axis=0) for f in fields(dist)))
    return _band_grid(grid.xs[c0::2], grid.ys[r0::2], 2.0 * grid.h, grid.delta,
                      (grid.rows[on] - r0) // 2, (grid.cols[on] - c0) // 2, part), part


# -- differential operators on the band's nodes ------------------------------


def _padded(F: np.ndarray) -> np.ndarray:
    """F with NaN appended at slot P, the value of every neighbour off the band."""
    return np.append(F, np.nan)


def _ddx(F: np.ndarray, grid: NarrowBandGrid) -> np.ndarray:
    F, nb = _padded(F), grid.neighbours
    return (F[nb[1, 2]] - F[nb[1, 0]]) / (2.0 * grid.h)


def _ddy(F: np.ndarray, grid: NarrowBandGrid) -> np.ndarray:
    F, nb = _padded(F), grid.neighbours
    return (F[nb[2, 1]] - F[nb[0, 1]]) / (2.0 * grid.h)


def _gradient(F: np.ndarray, grid: NarrowBandGrid) -> np.ndarray:
    return np.stack([_ddx(F, grid), _ddy(F, grid)], axis=-1)


def _hessian(F: np.ndarray, grid: NarrowBandGrid) -> np.ndarray:
    Fp, nb, h = _padded(F), grid.neighbours, grid.h
    out = np.empty(F.shape + (2, 2))
    out[:, 0, 0] = (Fp[nb[1, 2]] - 2.0 * F + Fp[nb[1, 0]]) / h**2
    out[:, 1, 1] = (Fp[nb[2, 1]] - 2.0 * F + Fp[nb[0, 1]]) / h**2
    out[:, 0, 1] = out[:, 1, 0] = (
        Fp[nb[2, 2]] - Fp[nb[2, 0]] - Fp[nb[0, 2]] + Fp[nb[0, 0]]
    ) / (4.0 * h**2)
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
    along = dist.stretch * np.einsum("...a,...a->...", dist.tangent, _gradient(values, grid))
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
    hess = _hessian(values, grid)
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
    """Local 4x4 tensor-product Lagrange interpolation (fourth order) of the
    band field F; NaN where the stencil leaves the grid rectangle or meets a
    node off the band."""
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
    step = np.arange(4)  # the lookup's padding cell cancels the stencil's offset -1
    lookup = _node_lookup(grid.rows, grid.cols, grid.ys.size, grid.xs.size)
    patch = _padded(F)[lookup[
        (iy[..., None, None] + step[None, :, None]),
        (ix[..., None, None] + step[None, None, :]),
    ]]  # (..., 4, 4) rows y, cols x
    return np.where(inside, np.einsum("...j,...jk,...k->...", wy, patch, wx), np.nan)


def eikonal_residual(grid: NarrowBandGrid, dist: DistanceField) -> float:
    """max over active nodes of ||grad_h d| - 1|."""
    g = _gradient(dist.dist, grid)
    mag = np.sqrt(np.einsum("...a,...a->...", g, g))
    return float(np.max(np.abs(mag[grid.active_mask] - 1.0)))


def os_operator_equivalence(
    values: np.ndarray, applied: np.ndarray, grid: NarrowBandGrid, dist: DistanceField
) -> float:
    """Max difference over the active nodes between the weighted-divergence form
    (1/mu) div(mu A^-2 grad u) and the rescaled form D~.D~ u + u_nunu, with
    mu = det A = 1/s and A^-2 = I + (s^2 - 1) tau (x) tau; `applied` is the
    rescaled form, as `extended_operator_apply(values, grid, dist)` returns it."""
    g = _gradient(values, grid)
    s = dist.stretch
    along = (s * s - 1.0) * np.einsum("...a,...a->...", dist.tangent, g)
    flux = (g + along[..., None] * dist.tangent) / s[..., None]
    lhs = (_ddx(flux[..., 0], grid) + _ddy(flux[..., 1], grid)) * s
    diff = np.abs(lhs - applied)
    return float(np.max(diff[grid.active_mask]))


def band_field_csv(
    grid: NarrowBandGrid, dist: DistanceField, values: np.ndarray, path
) -> str:
    """Write the active nodes' (x, y, d, value) as the (P, 4) float64 array
    of a `.npy` file, rows in row-major node order; returns the SHA-256 of
    the file.  The name predates the binary format and stays because
    benchmark spans trace this function by name."""
    x, y = grid.mesh()
    act = grid.active_mask
    return write_npy(path, np.stack([x[act], y[act], dist.dist[act], values[act]], axis=1))


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
