from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from helpers import observed_orders
from oracles import (
    default_band_width,
    elliptic_part_identity_check,
    full_rectangle_band,
    kronecker_strip_step,
    max_curvature,
    surface_point_geometry,
)
from periflow import (
    FAMILIES,
    BandError,
    ExtractionError,
    ProjectionError,
    SurfaceFamily,
    bean,
    circle,
    narrowband,
)
from periflow.narrowband import (
    band_average_extract,
    band_field_csv,
    build_band,
    coarsen,
    eikonal_residual,
    extended_operator_apply,
    flat_strip_step_equivalence,
    lift_field,
    os_operator_equivalence,
    rescaled_gradient,
)
from periflow.surfaces import _frame_pieces

SURF_THETA = np.arange(1024) * (2.0 * np.pi / 1024)


def circle_band(h=1.0 / 128.0, delta=0.2):
    return build_band(circle(), 0.0, h, delta)


def halo(grid, dist):
    """The nodes of the grid's own halo: |d| below the halo half-width."""
    return np.abs(dist.dist) < grid.delta + narrowband._HALO_CELLS * grid.h


def exact_lift(fn_of_theta, grid, dist):
    out = np.full(grid.shape, np.nan)
    mask = np.isfinite(dist.theta_foot)
    out[mask] = fn_of_theta(dist.theta_foot[mask])
    return out


def test_point_geometry_circle_examples():
    geo = surface_point_geometry(circle(), 0.0, [[0.0, 1.2]])
    assert abs(geo.dist[0] - 0.2) <= 1e-12
    assert np.max(np.abs(geo.foot[0] - [0.0, 1.0])) <= 1e-12
    # tangential eigenvalue of A is 1/(1 + d*kappa) = 1/s; so is det A
    assert abs(1.0 / geo.stretch[0] - 1.0 / 1.2) <= 1e-12
    on_surface = surface_point_geometry(circle(), 0.0, [[0.0, 1.0]])
    assert abs(on_surface.stretch[0] - 1.0) <= 1e-12  # A = I on the curve


def test_gradient_relation_at_outer_point():
    # grad of the lift of x1 at (0, 2) is (1/2, 0) = A (grad_M x1)^l
    geo = surface_point_geometry(circle(), 0.0, [[0.0, 2.0]])
    lifted_surface_gradient = np.array([1.0, 0.0])  # grad_M x1 at the foot (0, 1)
    tau = geo.tangent[0]
    a = np.eye(2) + (1.0 / geo.stretch[0] - 1.0) * np.outer(tau, tau)  # A = I - d*hess(d)
    predicted = a @ lifted_surface_gradient
    assert np.max(np.abs(predicted - [0.5, 0.0])) <= 1e-12
    # against the ambient closed form grad(x1/|x|) at (0, 2)
    assert np.max(np.abs(predicted - [0.5, 0.0])) <= 1e-12


def bean_band(t=0.25):
    delta = default_band_width(bean(), t)
    return build_band(bean(), t, delta / 8.0, delta)


def band_nodes(grid, dist):
    """Mask of the nodes that carry geometry, and their coordinates."""
    XX, YY = grid.mesh()
    finite = np.isfinite(dist.dist)
    return finite, np.stack([XX[finite], YY[finite]], axis=-1)


def test_point_geometry_reproduces_band_fields():
    grid, dist = bean_band()
    finite, nodes = band_nodes(grid, dist)
    geo = surface_point_geometry(bean(), 0.25, nodes)
    for f in fields(dist):
        assert np.array_equal(getattr(geo, f.name), getattr(dist, f.name)[finite])


def test_projection_error_when_every_start_fails(monkeypatch):
    def never_converges(surface, t, pts, theta0, start):
        return (theta0, np.zeros(pts.shape[0], dtype=bool), *start)

    monkeypatch.setattr(narrowband, "_newton_project", never_converges)
    with pytest.raises(ProjectionError, match=r"at t=0\.25") as info:
        bean_band()
    assert info.value.location.shape == (2,)
    with pytest.raises(ProjectionError, match=r"at t=0\.0") as info:
        surface_point_geometry(circle(), 0.0, [[0.0, 1.2], [0.5, 0.0]])
    assert np.array_equal(info.value.location, [0.0, 1.2])


def test_band_geometry_is_newtons_last_chart_evaluation(monkeypatch):
    # one chart pass per projection: after Newton's last evaluation no chart
    # evaluation covers the projected nodes, and the band's frame is that
    # evaluation's, bit for bit
    surface, t, seen, returned = bean(), 0.25, [], []

    def counted_jet(theta, time):
        seen.append(np.array(theta, copy=True))
        return surface.jet(theta, time)

    newton = narrowband._newton_project

    def recording(*args):
        out = newton(*args)
        returned.append((len(seen), out[0]))
        return out

    monkeypatch.setattr(narrowband, "_newton_project", recording)
    delta = default_band_width(surface, t)
    _, dist = build_band(SurfaceFamily(counted_jet, surface.period), t, delta / 8.0,
                         delta)
    [(last, theta)] = returned
    assert np.array_equal(seen[last - 1], theta)
    assert all(points.size < theta.size for points in seen[last:])
    foot, xd, xdd, _ = surface.jet(theta, t)
    _, tau, nu, kappa = _frame_pieces(xd, xdd, narrowband._curve_samples(surface, t)[2], t)
    finite = np.isfinite(dist.dist)
    for name, expected in (("foot", foot), ("tangent", tau), ("normal", nu), ("curvature", kappa)):
        assert np.array_equal(getattr(dist, name)[finite].view(np.uint64), expected.view(np.uint64))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(sorted(FAMILIES)), t=st.floats(0.0, 1.0, exclude_max=True),
       reach=st.floats(0.05, 0.49), h=st.sampled_from([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]))
# the projection at its limit: (delta + 8h) max|kappa| = 0.7499, so 1 + d kappa
# >= 0.25 (it reaches the 2h grid's halo, so the limit moved from delta + 4h)
@example(family="ellipse", t=0.0, reach=0.2499, h=1.0 / 32.0)
def test_first_newton_call_converges_at_every_projected_node(family, t, reach, h):
    # the premise of Newton without a line search or a restart: it converges
    # at every band node, so `build_band` raises no ProjectionError.  A draw
    # whose 2h grid's halo outgrows the curvature reach raises BandError and
    # is skipped
    surface = FAMILIES[family]()
    try:
        build_band(surface, t, h, reach / max_curvature(surface, t))
    except BandError:
        reject()


def test_band_fields_are_node_lists(tmp_path):
    # every band array of both grids is over the P band nodes in row-major
    # order, and the neighbour table names node (row + i - 1, col + j - 1),
    # or P off the band.  The band reaches the rectangle's edge, so the keys
    # are taken in the rectangle padded by a cell, where no node lies
    grid, dist = bean_band()
    for band, band_dist in ((grid, dist), coarsen(grid, dist)):
        n, rectangle = band.active_mask.size, (band.ys.size, band.xs.size)
        assert band.shape == (n,) and band.neighbours.shape == (3, 3, n)
        for owner in (band, band_dist):
            for f in fields(owner):
                value = getattr(owner, f.name)
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    assert value.shape[:2] != rectangle, f.name
        for f in fields(band_dist):
            assert getattr(band_dist, f.name).shape[0] == n, f.name
        width = band.xs.size + 2
        keys = (band.rows + 1) * width + band.cols + 1
        assert np.all(np.diff(keys) > 0)
        for i, j in np.ndindex(3, 3):
            wanted = (band.rows + i) * width + band.cols + j
            found = np.minimum(np.searchsorted(keys, wanted), n - 1)
            assert np.array_equal(band.neighbours[i, j], np.where(keys[found] == wanted, found, n))
    values = lift_field(np.cos(SURF_THETA), grid, dist)
    band_field_csv(grid, dist, values, tmp_path / "band.npy")
    written, act = np.load(tmp_path / "band.npy"), grid.active_mask
    assert np.array_equal(written[:, 0], grid.xs[grid.cols[act]])
    assert np.array_equal(written[:, 1], grid.ys[grid.rows[act]])
    assert np.array_equal(written[:, 2:], np.stack([dist.dist[act], values[act]], axis=1))


def test_a_nan_at_an_active_node_fails_the_checks():
    # the checks take np.max over the active nodes, so a NaN there is
    # reported, not skipped as np.nanmax would
    grid, dist = circle_band(1.0 / 32.0)
    values = exact_lift(np.cos, grid, dist)
    node = np.flatnonzero(grid.active_mask)[0]
    assert np.isfinite(os_operator_equivalence(values, extended_operator_apply(values, grid, dist),
                                               grid, dist))
    assert np.isfinite(eikonal_residual(grid, dist))
    values[node] = np.nan
    assert np.isnan(os_operator_equivalence(values, extended_operator_apply(values, grid, dist),
                                            grid, dist))
    planted = dist.dist.copy()
    planted[node] = np.nan
    assert np.isnan(eikonal_residual(grid, replace(dist, dist=planted)))


def test_band_rejects_too_wide():
    with pytest.raises(BandError):
        build_band(circle(), 0.0, 1.0 / 64.0, 0.6)  # delta*kappa = 0.6 >= 1/2


def test_band_rejects_a_2h_halo_beyond_the_curvature_reach():
    # (delta + 4h) kappa = 0.55 < 3/4 <= (delta + 8h) kappa = 0.8 on the unit
    # circle: the projection also serves the 2h grid, so the band at h fails
    message = r"^halo exceeds the curvature reach; decrease h or delta$"
    with pytest.raises(BandError, match=message):
        build_band(circle(), 0.0, 1.0 / 16.0, 0.3)


def test_the_band_workload_keeps_its_seed_0_counts():
    # band-bean-h256 at seed 0: one projection of 201 818 nodes, out to the
    # 2h grid's halo, holds the active nodes of both grids, which two builds
    # made before: 169 253 at h and 42 314 at 2h
    grid, dist = build_band(bean(), 0.5239831268672519, 1.0 / 256.0, 0.2)
    coarse, _ = coarsen(grid, dist)
    assert grid.rows.size == 201_818
    assert (int(grid.active_mask.sum()), int(coarse.active_mask.sum())) == (169_253, 42_314)


@pytest.mark.parametrize("h, delta", [(0.0, 0.2), (-1.0 / 128.0, 0.2), (1.0 / 128.0, -0.2),
                                      (1.0 / 128.0, 0.0)],
                         ids=["zero-h", "negative-h", "negative-delta", "zero-delta"])
def test_band_rejects_a_non_positive_spacing_or_half_width(h, delta):
    # before the check: a NaN grid size, an argmin of nothing, or "no active nodes"
    with pytest.raises(ValueError, match=f"got h={h}, delta={delta}$"):
        build_band(bean(), 0.3, h, delta)


def test_default_band_width():
    assert abs(default_band_width(circle(), 0.0) - 0.2) <= 1e-12
    assert max_curvature(rotating_ellipse_like(), 0.0) > 1.0


def rotating_ellipse_like():
    from periflow import rotating_ellipse

    return rotating_ellipse()


def test_distance_and_projection_consistency():
    grid, dist = circle_band()
    mask = halo(grid, dist)
    XX, YY = grid.mesh()
    r = np.sqrt(XX**2 + YY**2)
    assert np.max(np.abs((dist.dist - (r - 1.0))[mask])) <= 1e-10
    # x = foot + d * normal reconstruction
    recon = dist.foot + dist.dist[..., None] * dist.normal
    pts = np.stack([XX, YY], axis=-1)
    assert np.max(np.abs((recon - pts)[mask])) <= 1e-10


def test_eikonal_residual_small_and_second_order():
    grid, dist = circle_band()
    assert eikonal_residual(grid, dist) <= 1e-4
    res = []
    for h in (1.0 / 32.0, 1.0 / 64.0):
        g, d = build_band(bean(), 0.0, h, default_band_width(bean(), 0.0))
        res.append(eikonal_residual(g, d))
    assert 2.5 <= res[0] / res[1] <= 6.0


def test_lift_constant_and_closed_form():
    grid, dist = circle_band()
    ones = lift_field(np.ones(SURF_THETA.size), grid, dist)
    assert np.nanmax(np.abs(ones[halo(grid, dist)] - 1.0)) <= 1e-13
    lifted = lift_field(np.cos(SURF_THETA), grid, dist)
    XX, YY = grid.mesh()
    with np.errstate(invalid="ignore"):
        exact = XX / np.sqrt(XX**2 + YY**2)
    assert np.nanmax(np.abs((lifted - exact)[grid.active_mask])) <= 1e-9


def test_rescaled_gradient_of_lift_is_lifted_gradient():
    errs = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        grid, dist = build_band(circle(), 0.0, h, 0.2)
        lifted = exact_lift(np.cos, grid, dist)
        rg = rescaled_gradient(lifted, grid, dist)
        th = dist.theta_foot
        exact = np.stack([np.sin(th) ** 2, -np.sin(th) * np.cos(th)], axis=-1)
        errs.append(np.nanmax(np.abs((rg - exact)[grid.active_mask])))
    assert 3.0 <= errs[0] / errs[1] <= 5.5
    grid, dist = circle_band()
    zero = rescaled_gradient(exact_lift(lambda th: 0.0 * th + 2.0, grid, dist), grid, dist)
    assert np.nanmax(np.abs(zero[grid.active_mask])) == 0.0


def test_extended_operator_identity_metric_second_order():
    errs = []
    for h in (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0):
        grid, dist = build_band(circle(), 0.0, h, 0.2)
        lifted = exact_lift(np.cos, grid, dist)
        exact = exact_lift(lambda th: -np.cos(th), grid, dist)
        applied = extended_operator_apply(lifted, grid, dist)
        errs.append(np.nanmax(np.abs((applied - exact)[grid.active_mask])))
    for order in observed_orders(errs):
        assert abs(order - 2.0) <= 0.3


def test_extended_operator_constant_field():
    grid, dist = circle_band()
    const = np.where(np.isfinite(dist.dist), 4.0, np.nan)
    out = extended_operator_apply(const, grid, dist)
    assert np.nanmax(np.abs(out[grid.active_mask])) <= 1e-11


def test_extended_operator_on_distance_field():
    # pure normal coordinate: tangential terms and the normal second
    # derivative vanish, leaving only the truncation error
    errs = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        grid, dist = build_band(circle(), 0.0, h, 0.2)
        out = extended_operator_apply(dist.dist, grid, dist)
        errs.append(np.nanmax(np.abs(out[grid.active_mask])))
    assert 3.0 <= errs[0] / errs[1] <= 5.5


def test_band_average_extract_examples():
    grid, dist = circle_band()
    const = np.where(np.isfinite(dist.dist), 2.5, np.nan)
    out = band_average_extract(const, grid, dist, circle(), 0.0, SURF_THETA[::4])
    assert np.max(np.abs(out - 2.5)) <= 1e-12
    # odd profile in the normal coordinate averages to zero
    out = band_average_extract(dist.dist, grid, dist, circle(), 0.0, SURF_THETA[::4])
    assert np.max(np.abs(out)) <= 1e-8


def test_lift_extract_roundtrip():
    grid, dist = circle_band()
    u = np.cos(SURF_THETA)
    lifted = lift_field(u, grid, dist)
    out = band_average_extract(lifted, grid, dist, circle(), 0.0, SURF_THETA)
    assert np.max(np.abs(out - u)) <= 1e-6


def test_extraction_error_outside_band():
    grid, dist = build_band(circle(), 0.0, 1.0 / 64.0, 0.1)
    values = exact_lift(np.cos, grid, dist)
    # rays of half-width 0.3 leave the delta = 0.1 halo
    wide_grid = NarrowBandGridWithDelta(grid, 0.3)
    # the first ray (theta = 0) leaves the grid rectangle
    with pytest.raises(ExtractionError, match=r"surface node 0 \(theta=0\.0\)"):
        band_average_extract(values, wide_grid, dist, circle(), 0.0, SURF_THETA[::8])
    # inside the rectangle: the diagonal ray of node 1 meets values missing
    # from the first quadrant, the ray of node 0 does not
    XX, YY = grid.mesh()
    holed = np.where((XX > 0.5) & (YY > 0.5), np.nan, values)
    with pytest.raises(ExtractionError, match=r"surface node 1 \(theta=0\.785398"):
        band_average_extract(holed, grid, dist, circle(), 0.0, np.array([0.0, 0.25 * np.pi]))


def NarrowBandGridWithDelta(grid, delta):
    from dataclasses import replace

    return replace(grid, delta=delta)


def test_os_operator_equivalence_orders():
    # lifted field and a generic non-lift polynomial
    errs_lift, errs_poly = [], []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        grid, dist = build_band(circle(), 0.0, h, 0.2)
        XX, YY = grid.mesh()
        lifted = exact_lift(np.cos, grid, dist)
        poly = np.where(np.isfinite(dist.dist), XX * YY, np.nan)
        const = np.where(np.isfinite(dist.dist), 1.0, np.nan)
        lift_err, poly_err, const_err = (
            os_operator_equivalence(u, extended_operator_apply(u, grid, dist), grid, dist)
            for u in (lifted, poly, const)
        )
        errs_lift.append(lift_err)
        errs_poly.append(poly_err)
        assert const_err <= 1e-12
    assert 2.8 <= errs_lift[0] / errs_lift[1] <= 5.8
    assert 2.8 <= errs_poly[0] / errs_poly[1] <= 5.8


def test_elliptic_part_identity_order():
    errs = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        grid, dist = full_rectangle_band(circle(), 0.0, build_band(circle(), 0.0, h, 0.2)[0])
        lifted = exact_lift(np.cos, grid, dist)
        errs.append(elliptic_part_identity_check(lifted, grid, dist))
    assert 2.8 <= errs[0] / errs[1] <= 5.8


def test_bean_band_builds_and_checks():
    surface = bean()
    delta = default_band_width(surface, 0.0)
    grid, dist = build_band(surface, 0.0, delta / 12.0, delta)
    assert eikonal_residual(grid, dist) <= 5e-3
    recon = dist.foot + dist.dist[..., None] * dist.normal
    XX, YY = grid.mesh()
    pts = np.stack([XX, YY], axis=-1)
    assert np.max(np.abs((recon - pts)[halo(grid, dist)])) <= 1e-9


def test_flat_strip_round_off_equivalence():
    assert flat_strip_step_equivalence() <= 1e-10


def test_flat_strip_step_matches_sparse_lu_step_on_data_varying_in_y():
    # random rows load every y mode, not only the constant one the check lifts
    values = np.random.default_rng(0).normal(size=(17, 64))
    expected = kronecker_strip_step(values, 1e-2, 0.2)
    got = narrowband._flat_strip_step(values, 1e-2, 0.2)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
