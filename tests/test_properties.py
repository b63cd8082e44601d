"""Property tests of the invariants that hold exactly by construction, and
of the banded stepper against sparse and dense reference solves.

Each property is drawn over random grid sizes N in [8, 256] (N in [3, 64]
for the dense cyclic solve), all shipped families and random nodal fields;
the band's window sweep over families, times, spacings and widths against
a KD tree query of its rectangle, and over small random grids against a
brute-force argmin; the band operators on random data against their
NaN-padded rectangle forms bit for bit; the band lift over N in [8, 2048]
against scipy's periodic spline, the 5 x 5 stencils of the active nodes,
which lie in the halo, read through the node lookup, and the cyclic factor
and solve over N in [3, 3000], from either source of its LAPACK routines,
against scipy.linalg's wrappers bit for bit.
Runs are derandomized, so every run checks the same examples.
"""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.interpolate import CubicSpline
from scipy.linalg import blas, lapack
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import linear_part
from oracles import (
    dilation_rate,
    full_rectangle_band,
    laplace_beltrami,
    on_rectangle,
    rectangle_eikonal_residual,
    rectangle_extended_operator_apply,
    rectangle_os_operator_equivalence,
    rectangle_rescaled_gradient,
    time_reversed,
)
from periflow import (
    FAMILIES,
    BandError,
    IVPConfig,
    ParameterGrid,
    Propagator,
    StepError,
    assemble_metric,
    greens_formula_check,
    laplace_beltrami_apply,
    laplace_beltrami_matrix,
    mass_ledger,
    mean_adjust,
    mean_and_mass,
    space_time_geometry,
)
from periflow import evolution, narrowband
from periflow.evolution import _CyclicFactor, _sample_levels
from periflow.expressions import compile_expression
from periflow.narrowband import (
    _HALO_CELLS,
    _curve_samples,
    _nearest_samples,
    build_band,
    coarsen,
    eikonal_residual,
    extended_operator_apply,
    lift_field,
    os_operator_equivalence,
    rescaled_gradient,
)

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)
FAMILY = st.sampled_from(sorted(FAMILIES))
NODES = st.integers(8, 256)
TIME = st.floats(0.0, 1.0)
SCHEME = st.sampled_from(["backward_euler", "crank_nicolson"])
ZERO_ORDERS = ("zero", "constant", "divergence", "divergence_plus_constant")
ZERO_ORDER = st.sampled_from(ZERO_ORDERS)
EPS = np.finfo(float).eps


def nodal_field(data, n, lo=-10.0, hi=10.0):
    return data.draw(hnp.arrays(np.float64, n, elements=st.floats(lo, hi)))


@PROPERTY
@given(family=FAMILY, n=NODES, m=st.integers(4, 16))
@example(family="bean", n=256, m=300)  # several blocks of levels: block edges are compared too
def test_geometry_matches_assembled_metric(family, n, m):
    grid = ParameterGrid(n, m, 1.0)
    surface = FAMILIES[family]()
    geometry = space_time_geometry(surface, grid)
    rate = dilation_rate(surface, grid)
    assert geometry.min_dilation_rate == float(np.min(rate))
    assert np.array_equal(geometry.weights0, assemble_metric(surface, grid, 0.0).weights)
    for k, t in enumerate(grid.times):
        metric = assemble_metric(surface, grid, t)
        assert np.array_equal(geometry.sqrt_g[k], metric.sqrt_g)
        assert np.array_equal(geometry.sqrt_g[k] * grid.dtheta, metric.weights)
        assert np.array_equal(geometry.c_half[k], metric.c_half)
        # scalar (1/2) g_t / g against the Cartesian trace: equal up to round-off
        np.testing.assert_allclose(rate[k], metric.trace_rate, rtol=0, atol=1e-13)


@PROPERTY
@given(family=FAMILY, n=NODES, t=TIME, c=st.floats(-1e3, 1e3))
def test_constants_are_annihilated(family, n, t, c):
    grid = ParameterGrid(n, 4, 1.0)
    surface = FAMILIES[family]()
    constant = np.full(n, c)
    assert np.all(laplace_beltrami_apply(assemble_metric(surface, grid, t), constant) == 0.0)
    geometry = space_time_geometry(surface, grid)
    assert np.all(laplace_beltrami(geometry, np.tile(constant, (5, 1))) == 0.0)


@PROPERTY
@given(family=FAMILY, n=NODES, t=TIME, data=st.data())
def test_operator_output_has_zero_weighted_mass(family, n, t, data):
    metric = assemble_metric(FAMILIES[family](), ParameterGrid(n, 4, 1.0), t)
    out = laplace_beltrami_apply(metric, nodal_field(data, n))
    _, mass = mean_and_mass(metric.weights, out)
    # the weighted sum telescopes: only round-off of its n terms remains
    assert abs(mass) <= 4.0 * n * EPS * float(np.sum(np.abs(metric.weights * out)))


@PROPERTY
@given(family=FAMILY, n=NODES, t=TIME, data=st.data())
def test_greens_identity(family, n, t, data):
    metric = assemble_metric(FAMILIES[family](), ParameterGrid(n, 4, 1.0), t)
    u, w = nodal_field(data, n), nodal_field(data, n)
    du, dw = np.roll(u, -1) - u, np.roll(w, -1) - w
    energy_terms = metric.c_half * du * dw / metric.dtheta
    mass_terms = metric.weights * u * laplace_beltrami_apply(metric, w)
    # summation by parts is exact: only round-off of the 2n summed terms remains
    scale = float(np.sum(np.abs(energy_terms)) + np.sum(np.abs(mass_terms)))
    assert greens_formula_check(metric, u, w) <= 8.0 * n * EPS * scale


@PROPERTY
@given(family=FAMILY, n=NODES, period=st.floats(0.05, 20.0))
def test_charts_are_exactly_periodic(family, n, period):
    surface = FAMILIES[family](period=period)
    grid = ParameterGrid(n, 4, period)
    theta, end = grid.nodes, grid.times[-1]
    for start, finish in zip(surface.jet(theta, 0.0), surface.jet(theta, end)):
        assert np.array_equal(start, finish)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@PROPERTY
@given(n=st.integers(8, 64), offset=st.floats(0.0, 1.0), t=TIME)
def test_jet_matches_centred_differences(family, reverse, n, offset, t):
    surface = FAMILIES[family]()
    if reverse:
        surface = time_reversed(surface)
    theta = ParameterGrid(n, 4, 1.0).nodes + offset
    # seven phases: the leading error term cannot vanish at all of them
    times = t + np.arange(7)[:, None] / 7.0
    _, x_th, x_thth, x_tth = surface.jet(theta, times)

    def errors(h):
        up, down = surface.jet(theta + h, times), surface.jet(theta - h, times)
        d_theta = [(a - b) / (2.0 * h) for a, b in zip(up, down)]
        later, earlier = surface.jet(theta, times + h), surface.jet(theta, times - h)
        d_t = [(a - b) / (2.0 * h) for a, b in zip(later, earlier)]
        pairs = ((x_th, d_theta[0]), (x_thth, d_theta[1]), (x_tth, d_t[1]))
        return [float(np.max(np.abs(exact - diff))) for exact, diff in pairs]

    for coarse, fine in zip(errors(1e-2), errors(5e-3)):
        if coarse == 0.0:  # the stationary circle: its time differences vanish
            assert fine == 0.0
        else:
            assert abs(math.log2(coarse / fine) - 2.0) <= 0.3


@PROPERTY
@given(
    family=FAMILY,
    n=NODES,
    m=st.integers(4, 32),
    scheme=SCHEME,
    data=st.data(),
)
def test_divergence_mode_mass_law(family, n, m, scheme, data):
    config = IVPConfig(n_nodes=n, n_steps=m, scheme=scheme, zero_order="divergence")
    forcing = data.draw(hnp.arrays(np.float64, (m + 1, n), elements=st.floats(-1.0, 1.0)))
    prop = Propagator(FAMILIES[family](), config, lambda th, t: forcing)
    traj = prop.run(nodal_field(data, n, 0.5, 2.0))
    ledger = mass_ledger(traj, prop)
    assert np.max(np.abs(ledger.defects)) <= 1e-12 * np.max(np.abs(ledger.masses))


def sparse_step(surface, grid, config, forcing, level, values):
    """The theta-scheme step of `values` from `level` to `level + 1` with the
    CSR operators of the Cartesian metric and the constant zero-order coefficient c:
    (1/dt - theta (L' - c)) u' = s (1/dt + (1 - theta) (L - c)) u - s (1 - theta) f - theta f'"""
    old, new = (assemble_metric(surface, grid, grid.times[k]) for k in (level, level + 1))
    reads_coefficient = config.zero_order in ("constant", "divergence_plus_constant")
    c = config.coefficient if reads_coefficient else 0.0
    theta, eye = config.theta, sparse.identity(grid.n_nodes)
    implicit = (eye / grid.dt - theta * (laplace_beltrami_matrix(new) - c * eye)).tocsc()
    explicit = eye / grid.dt + (1.0 - theta) * (laplace_beltrami_matrix(old) - c * eye)
    scale = np.ones(grid.n_nodes)
    if config.zero_order.startswith("divergence"):
        scale = old.sqrt_g / new.sqrt_g
    load = scale * (1.0 - theta) * forcing[level] + theta * forcing[level + 1]
    return spla.spsolve(implicit, scale * (explicit @ values) - load)


@PROPERTY
@given(family=FAMILY, n=NODES, m=st.integers(4, 16), scheme=SCHEME, zero_order=ZERO_ORDER,
       data=st.data())
def test_step_matches_sparse_solve(family, n, m, scheme, zero_order, data):
    grid = ParameterGrid(n, m, 1.0)
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme=scheme, zero_order=zero_order, coefficient=0.8
    )
    forcing = data.draw(hnp.arrays(np.float64, (m + 1, n), elements=st.floats(-1.0, 1.0)))
    surface = FAMILIES[family]()
    prop = Propagator(surface, config, lambda th, t: forcing)
    level = data.draw(st.integers(0, m - 1))

    # the zero-order coefficient c of the config as (M+1, N) samples; the
    # stepper keeps only their minimum, plus that of the dilation rate in the
    # divergence modes
    reads_coefficient = zero_order in ("constant", "divergence_plus_constant")
    c = np.full((m + 1, n), config.coefficient if reads_coefficient else 0.0)
    floor = float(np.min(c))
    if zero_order.startswith("divergence"):
        floor += float(np.min(dilation_rate(surface, grid)))
    assert prop.rate_floor == floor

    traj = prop.run(nodal_field(data, n))
    assert traj.shape == (m + 1, n)
    expected = sparse_step(surface, grid, config, forcing, level, traj[level])
    got = traj[level + 1]
    # both solves are backward stable on these diagonally dominant matrices
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def long_period_last_step(family, zero_order, m, scheme):
    """The last step of a period of `m` steps (N = 256, random forcing and
    start) against the sparse reference step, and the defects of its mass
    ledger in the divergence mode."""
    n = 256
    rng = np.random.default_rng(0)
    grid = ParameterGrid(n, m, 1.0)
    config = IVPConfig(n, m, scheme, zero_order, coefficient=0.8)
    forcing = rng.uniform(-1.0, 1.0, (m + 1, n))
    surface = FAMILIES[family]()
    prop = Propagator(surface, config, lambda th, t: forcing)
    traj = prop.run(rng.uniform(-10.0, 10.0, n))
    expected = sparse_step(surface, grid, config, forcing, m - 1, traj[m - 1])
    assert np.max(np.abs(traj[m] - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
    if zero_order == "divergence":
        ledger = mass_ledger(traj, prop)
        assert np.max(np.abs(ledger.defects)) <= 1e-12 * np.max(np.abs(ledger.masses))


@pytest.mark.parametrize("zero_order", ZERO_ORDERS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_carried_right_side_holds_over_a_long_period(family, zero_order):
    # the properties above carry the right side of each solve over at most 32
    # steps; after 2047 the last step still matches the sparse reference step
    long_period_last_step(family, zero_order, 2048, "crank_nicolson")


@pytest.mark.parametrize("scheme", ["backward_euler", "crank_nicolson"])
@pytest.mark.parametrize("zero_order", ZERO_ORDERS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_carried_right_side_holds_where_theta_dt_is_inexact(family, zero_order, scheme):
    # at M = 1000 neither dt nor theta dt is a power of two, so the rate
    # 1/(theta dt) and every carried right side are rounded; after 999 steps
    # the last step still matches the sparse reference step
    long_period_last_step(family, zero_order, 1000, scheme)


@PROPERTY
@given(family=FAMILY, n=st.integers(8, 64), m=st.integers(4, 24), scheme=SCHEME,
       zero_order=ZERO_ORDER, data=st.data())
@example(family="bean", n=256, m=300, scheme="crank_nicolson", zero_order="zero",
         data=None)  # several blocks of levels: the sweep crosses block edges backwards
def test_transposed_period_is_the_adjoint_in_the_measure_inner_product(family, n, m, scheme,
                                                                       zero_order, data):
    # K x = mean_adjust(S x) with S the homogeneous period; the mean reset is
    # orthogonal in <a, b>_W = a . (W b), W = weights0, so the W-adjoint of K
    # is y -> W^-1 S^T W mean_adjust(y), S^T one transposed period
    config = IVPConfig(n, m, scheme, zero_order, coefficient=0.8)
    prop = Propagator(FAMILIES[family](), config)
    w = prop.geometry.weights0
    if data is None:
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-10.0, 10.0, (2, n))
    else:  # scaled to a largest entry of one, so no product underflows
        x, y = (v / max(np.max(np.abs(v)), 1e-300) for v in (nodal_field(data, n),
                                                              nodal_field(data, n)))
    kx = mean_adjust(prop.run(x, include_forcing=False, keep_trajectory=False), w)
    ky = prop.run_transpose(w * mean_adjust(y, w)) / w
    norm = lambda v: math.sqrt(np.dot(v, w * v))
    # the maps damp in these modes (c >= 0), so |K|_W is about 1 or less
    assert abs(np.dot(kx, w * y) - np.dot(x, w * ky)) <= 1e-13 * norm(x) * norm(y)
    if n <= 24:  # column j of S^T is the transposed period of the j-th unit state
        dense = linear_part(prop)
        transposed = np.column_stack([prop.run_transpose(e) for e in np.eye(n)])
        assert np.max(np.abs(transposed - dense.T)) <= 1e-13 * np.max(np.abs(dense))


SAMPLED_EXPRESSIONS = st.one_of(
    st.builds("{}*cos({}*theta+{})*sin(2*pi*t/T)".format, st.floats(0.5, 2.0),
              st.integers(1, 4), st.floats(0.0, 2.0 * math.pi)),
    st.sampled_from(["2.0", "t", "exp(-t)*cos(theta)", "theta**2"]),
)


@PROPERTY
@given(source=SAMPLED_EXPRESSIONS, n=NODES, m=st.integers(4, 64), period=st.floats(0.5, 4.0))
def test_one_call_forcing_samples_equal_a_per_level_loop(source, n, m, period):
    # the stepper calls a closure once with the (M+1, 1) column of times; each
    # row equals the closure's value at that level alone, bit for bit
    grid = ParameterGrid(n, m, period)
    fn = compile_expression(source, period)
    per_level = np.stack([fn(grid.nodes, t) + np.zeros(n) for t in grid.times])
    assert np.array_equal(_sample_levels(fn, grid), per_level)


@PROPERTY
@given(family=FAMILY, n=NODES, m=st.integers(4, 16), scheme=SCHEME,
       zero_order=st.sampled_from(["constant", "divergence_plus_constant"]), data=st.data())
def test_non_finite_state_is_reported_where_a_sparse_reference_first_turns_non_finite(
    family, n, m, scheme, zero_order, data
):
    # c = -(1 - 1e-8)/(theta*dt) leaves the step matrix regular but scales the
    # constant mode by 1e8 or more per step.  The unforced run is linear, so a
    # start scaled to put the level before the drawn `overflow` level at 1e303
    # overflows there, and both solvers agree on where: the growth of one step
    # clears the float range by decades their round-off cannot bridge
    grid = ParameterGrid(n, m, 1.0)
    theta = 1.0 if scheme == "backward_euler" else 0.5
    config = IVPConfig(n, m, scheme, zero_order, coefficient=-(1.0 - 1e-8) / (theta * grid.dt))
    surface = FAMILIES[family]()
    forcing = np.zeros((m + 1, n))
    overflow = data.draw(st.integers(1, m))
    u0 = u = nodal_field(data, n, 0.5, 2.0)
    for level in range(overflow - 1):
        u = sparse_step(surface, grid, config, forcing, level, u)
    u0 = 1e303 / np.max(np.abs(u)) * u0

    states = [u0]
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(m):
            states.append(sparse_step(surface, grid, config, forcing, level, states[-1]))
        first = np.argwhere(~np.isfinite(np.stack(states)))
        assert first.size, "the sparse reference stayed finite"
        level, node = first[0]
        message = rf"^state is not finite at node {node} \(time level {level}\)$"
        prop = Propagator(surface, config)
        for keep_trajectory in (True, False):
            with pytest.raises(StepError, match=message) as info:
                prop.run(u0, keep_trajectory=keep_trajectory)
            assert info.value.level == level


@PROPERTY
@given(n=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
def test_cyclic_solve_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    for draw in range(50):
        off = rng.normal(size=n)  # off[i] couples node i to i + 1
        bound = np.abs(off) + np.abs(np.roll(off, 1))  # Gershgorin radii
        if draw % 2:  # half of the draws indefinite, in two ways
            if draw % 4 == 1:  # strictly dominant with some main < 0
                sign = rng.choice([-1.0, 1.0], n)
                sign[rng.integers(n)] = -1.0
                main = sign * (bound + rng.uniform(0.1, 1.0, n))
            else:  # a cyclic graph Laplacian, singular on the constants, shifted
                # down: main > 0, and T factors in most draws, so the corner finds it
                off = -np.abs(off)
                main = bound - 10.0 ** rng.uniform(-4.0, -1.0) * np.min(bound)
            with pytest.raises(StepError, match=r"^step matrix is not positive definite \("):
                _CyclicFactor(main[None].copy(), off[None].copy(), level=0)
            continue
        # half positive definite: main above the Gershgorin radii by 1e-3 to 10
        main = bound + 10.0 ** rng.uniform(-3.0, 1.0, n)
        matrix = np.diag(main) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
        matrix[0, -1] = matrix[-1, 0] = off[-1]  # the periodic corners
        factor = _CyclicFactor(main[None].copy(), off[None].copy(), level=0)
        rhs = rng.normal(size=n)
        expected = np.linalg.solve(matrix, rhs)
        got = rhs.copy()
        factor.solver(got[None])(0, 0)
        error = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
        # forward error of a backward-stable solve: a modest multiple of
        # eps * cond (observed at most 0.9 eps * cond over 40 000 positive
        # definite draws)
        assert error <= 1e-12 * np.linalg.cond(matrix)


def f2py_cyclic_solve(main, off, rhs):
    """The cyclic solve through scipy.linalg's f2py wrappers: the factor and
    the Sherman-Morrison step `_CyclicFactor` takes, as (d, e, z, x)."""
    gamma = -main[0]
    ratio = off[-1] / gamma
    diag = main.copy()
    diag[0] -= gamma
    diag[-1] -= off[-1] * ratio
    d, e, info = lapack.dpttrf(diag, off[:-1])
    assert info == 0
    w = np.zeros_like(main)
    w[0], w[-1] = gamma, off[-1]
    z = lapack.dpttrs(d, e, w)[0]
    denominator = 1.0 + (z[0] + ratio * z[-1])
    y = lapack.dpttrs(d, e, rhs.copy(), overwrite_b=1)[0]
    return d, e, z, blas.daxpy(z, y, a=-(y[0] + ratio * y[-1]) / denominator)


@pytest.mark.parametrize("source", ["default", "scipy"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(n=st.integers(3, 3000), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_cyclic_factor_has_the_bits_of_scipy_lapack(source, n, k, seed):
    # both sources of the three routines, numpy's bundled OpenBLAS (where this
    # numpy has one) and scipy's Cython exports, against scipy.linalg's f2py wrappers
    routines = evolution._LAPACK if source == "default" else evolution._scipy_lapack()
    rng = np.random.default_rng(seed)
    off = -rng.uniform(0.1, 1.0, (k, n))
    main = np.abs(off) + np.abs(np.roll(off, 1, axis=1)) + 10.0 ** rng.uniform(-3.0, 1.0, (k, n))
    rhs = rng.normal(size=(k, n))
    expected = [f2py_cyclic_solve(main[j], off[j], rhs[j]) for j in range(k)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_LAPACK", routines)
        factor = _CyclicFactor(main.copy(), off.copy(), level=0)
    got = rhs.copy()
    solve = factor.solver(got)
    for j, (d, e, z, x) in enumerate(expected):
        solve(j, j)
        for ours, theirs in ((factor.d[j], d), (factor.e[j, :-1], e), (factor.z[j], z),
                             (got[j], x)):
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(family=FAMILY, t=TIME, h=st.floats(1.0 / 256.0, 1.0 / 32.0), delta=st.floats(0.05, 0.2))
# the seed-0 band workload: 651 x 646 nodes
@example(family="bean", t=0.5239831268672519, h=1.0 / 256.0, delta=0.2)
def test_window_sweep_projects_exactly_the_nodes_a_full_query_keeps(family, t, h, delta):
    surface = FAMILIES[family]()
    grid, dist = build_band(surface, t, h, delta)
    full_grid, full_dist = full_rectangle_band(surface, t, grid)
    # the band's nodes, in row-major order, are the rectangle's projected
    # nodes, and both sides threshold the same distance field, compared bit
    # for bit below
    assert np.array_equal(np.nonzero(np.isfinite(full_dist.dist)), (grid.rows, grid.cols))
    assert np.array_equal(full_grid.active_mask[grid.rows, grid.cols], grid.active_mask)
    for f in fields(dist):
        assert np.array_equal(getattr(dist, f.name).view(np.uint64),
                              getattr(full_dist, f.name)[grid.rows, grid.cols].view(np.uint64))


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


# a coarsened field against a 2h build off power-of-two h, in ulps of
# max(1, |value|): at most 15 (curvature) over the four families at
# h in {0.007, 0.01, 0.015, 0.03}, from coordinates at most 2.2 ulps apart
FIELD_ULPS = 64


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(family=FAMILY, t=TIME, h=st.sampled_from([1.0 / 128.0, 1.0 / 64.0, 1.0 / 32.0, 0.01, 0.03]),
       reach=st.floats(0.05, 0.3))
@example(family="bean", t=0.5239831268672519, h=1.0 / 64.0, reach=0.3)
@example(family="ellipse", t=0.0, h=0.01, reach=0.3)
def test_coarsen_is_a_build_at_twice_the_spacing(family, t, h, reach):
    # `coarsen` projects nothing, yet on every node it keeps it is the band
    # that `build_band` projects at 2h, found by its lattice coordinates: same
    # order, active mask and neighbours.  On power-of-two h a lattice point
    # has one value in both rectangles and every field bit agrees; otherwise
    # the two rectangles round a point's coordinates apart by an ulp, and the
    # fields and the active mask follow within FIELD_ULPS
    surface = FAMILIES[family]()
    delta = reach / _curve_samples(surface, t)[3]
    try:
        ref, ref_dist = build_band(surface, t, 2.0 * h, delta)
    except BandError:
        reject()
    grid, dist = coarsen(*build_band(surface, t, h, delta))
    assert grid.h == ref.h

    def lattice(band):  # (row, column) of the 2h lattice, as one row-major key
        x, y = band.mesh()
        row, col = (np.round(v / band.h).astype(np.int64) for v in (y, x))
        return row * 2**32 + col

    ref_keys, keys = lattice(ref), lattice(grid)
    at = np.searchsorted(ref_keys, keys)
    assert np.array_equal(ref_keys[np.minimum(at, ref_keys.size - 1)], keys)
    assert np.all(np.diff(at) > 0)
    remap = np.full(ref_keys.size + 1, keys.size)
    remap[at] = np.arange(keys.size)
    assert np.array_equal(grid.neighbours, remap[ref.neighbours[:, :, at]])
    exact = math.frexp(h)[0] == 0.5
    coords, ref_coords = np.stack(grid.mesh()), np.stack(ref.mesh())[:, at]
    edge = np.abs(np.abs(ref_dist.dist) - delta) <= FIELD_ULPS * EPS * max(1.0, delta)
    if exact:
        assert np.array_equal(bits(coords), bits(ref_coords))
        assert grid.active_mask.sum() == ref.active_mask.sum()
    else:
        assert np.all(np.abs(coords - ref_coords) <= 4 * EPS * np.maximum(1.0, np.abs(ref_coords)))
    assert np.array_equal(grid.active_mask[~edge[at]], ref.active_mask[at][~edge[at]])
    for f in fields(dist):
        ours, theirs = getattr(dist, f.name), getattr(ref_dist, f.name)[at]
        if exact:
            assert np.array_equal(bits(ours), bits(theirs)), f.name
            continue
        apart = np.abs(ours - theirs)
        if f.name == "theta_foot":  # mod 2 pi
            apart = np.minimum(apart, 2.0 * np.pi - apart)
        assert np.all(apart <= FIELD_ULPS * EPS * np.maximum(1.0, np.abs(theirs))), f.name


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(family=FAMILY, t=TIME, h=st.floats(1.0 / 128.0, 1.0 / 16.0), reach=st.floats(0.05, 0.45),
       seed=st.integers(0, 2**32 - 1))
def test_node_list_operators_have_the_bits_of_the_rectangle_operators(family, t, h, reach, seed):
    # the band operators gather their differences through the neighbour
    # table; on the NaN-padded rectangle they slice.  The arithmetic is the
    # same, so every active node has the same bits, here on random data
    surface = FAMILIES[family]()
    try:
        grid, dist = build_band(surface, t, h, reach / _curve_samples(surface, t)[3])
    except BandError:
        reject()
    rect, rect_dist = full_rectangle_band(surface, t, grid)
    values = np.random.default_rng(seed).normal(size=grid.shape)
    rect_values = on_rectangle(grid, values)
    act = grid.active_mask
    at = grid.rows[act], grid.cols[act]
    assert np.array_equal(rect.active_mask[at], act[act]) and rect.active_mask.sum() == act.sum()
    assert np.array_equal(bits(rescaled_gradient(values, grid, dist)[act]),
                          bits(rectangle_rescaled_gradient(rect_values, rect, rect_dist)[at]))
    applied = extended_operator_apply(values, grid, dist)
    rect_applied = rectangle_extended_operator_apply(rect_values, rect, rect_dist)
    assert np.array_equal(bits(applied[act]), bits(rect_applied[at]))
    assert np.all(np.isnan(applied[~act]))
    assert bits(os_operator_equivalence(values, applied, grid, dist)) == bits(
        rectangle_os_operator_equivalence(rect_values, rect_applied, rect, rect_dist))
    assert bits(eikonal_residual(grid, dist)) == bits(rectangle_eikonal_residual(rect, rect_dist))


def assert_nearest_samples_are_the_argmin(samples, xs, ys, h, bound):
    """`_nearest_samples` against the brute-force argmin over every sample
    and node: the kept set, the indices (the first of equal minima) and the
    distance bits.  Returns the squared distances (samples, ny, nx), the
    brute-force index and the kept mask."""
    coarse, idx = _nearest_samples(samples, xs, ys, h, bound)
    dx = xs[None, None, :] - samples[:, 0, None, None]
    dy = ys[None, :, None] - samples[:, 1, None, None]
    squared = dx * dx + dy * dy  # (samples, ny, nx)
    expected = np.argmin(squared, axis=0)  # the first of equal minima
    dist = np.sqrt(np.min(squared, axis=0))
    near = dist <= bound
    assert np.array_equal(coarse <= bound, near)
    assert np.array_equal(idx[near], expected[near])
    assert np.array_equal(coarse[near].view(np.uint64), dist[near].view(np.uint64))
    return squared, expected, near


@PROPERTY
@given(nx=st.integers(1, 24), ny=st.integers(1, 24), h=st.floats(0.01, 1.0),
       origin=st.floats(-10.0, 10.0), reach=st.floats(0.5, 4.0), count=st.integers(0, 40),
       duplicate=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(nx=9, ny=9, h=0.1, origin=0.0, reach=2.0, count=0, duplicate=True, seed=0)
def test_nearest_samples_is_a_brute_force_argmin(nx, ny, h, origin, reach, count, duplicate,
                                                 seed):
    # one origin on both axes puts node (i, i) on the diagonal, where the
    # samples (P, Q) and (Q, P) are at exactly one distance: a planted tie.
    # A duplicated sample has a zero-length bisector with its copy, which
    # follows it; the copy never wins, since ties go to the lower index
    rng = np.random.default_rng(seed)
    xs, ys = origin + h * np.arange(nx), origin + h * np.arange(ny)
    span = h * max(nx, ny)
    samples = origin + rng.uniform(-0.5 * span, 1.5 * span, (count, 2))
    node = rng.integers(min(nx, ny))
    X = xs[node]
    P, Q = X + h * rng.uniform(-0.3, 0.3, 2)
    samples = samples[np.hypot(*(samples - X).T) > 0.5 * h]  # the tie is the nearest
    first, second = np.sort(rng.choice(samples.shape[0] + 2, 2, replace=False))
    samples = np.insert(samples, [first, second - 1], [[P, Q], [Q, P]], axis=0)
    if duplicate:
        copied = rng.integers(samples.shape[0])
        samples = np.insert(samples, copied + 1, samples[copied], axis=0)
        first, second = first + (first > copied), second + (second > copied)
    squared, expected, near = assert_nearest_samples_are_the_argmin(samples, xs, ys, h, reach * h)
    assert squared[first, node, node] == squared[second, node, node]
    assert near[node, node] and expected[node, node] == first
    # the tie's node exactly on the bound is kept
    on_bound = np.sqrt(squared[first, node, node])
    assert assert_nearest_samples_are_the_argmin(samples, xs, ys, h, on_bound)[2][node, node]


@pytest.mark.parametrize("samples", [[[0.23, 0.41]], [[0.23, 0.41], [0.57, 0.12]],
                                     [[0.23, 0.41], [0.23, 0.41]]],
                         ids=["one", "two", "two-equal"])
def test_nearest_samples_of_one_or_two_samples_is_a_brute_force_argmin(samples):
    # with one sample both neighbours are the sample itself, and with two
    # both are the other one: zero-length or twice the same bisector
    xs = ys = 0.1 * np.arange(7)
    assert_nearest_samples_are_the_argmin(np.array(samples), xs, ys, 0.1, 0.35)


def test_wedge_sweep_is_exact_where_far_apart_samples_share_a_node():
    # a band at its curvature limit around the bean's dent puts samples more
    # than 100 indices apart within the bound of one node, so the wedges of
    # far-apart samples meet there; the sweep still matches the brute force
    surface, t, h = FAMILIES["bean"](), 0.25, 1.0 / 32.0
    _, chart, _, kmax = _curve_samples(surface, t)
    delta = 0.74 / kmax - 8.0 * h  # (delta + 8h) max|kappa| = 0.74
    grid, _ = build_band(surface, t, h, delta)
    samples = chart[0]
    chord = float(np.max(np.hypot(*(np.roll(samples, -1, axis=0) - samples).T)))
    bound = delta + 8.0 * h + chord
    coarse, idx = _nearest_samples(samples, grid.xs, grid.ys, h, bound)
    dx, spread = grid.xs[None, :] - samples[:, 0, None], 0
    for row, y in enumerate(grid.ys):  # one row of nodes against every sample
        dy = y - samples[:, 1]
        squared = dx * dx + (dy * dy)[:, None]
        expected = np.argmin(squared, axis=0)
        dist = np.sqrt(squared[expected, np.arange(grid.xs.size)])
        near = dist <= bound
        assert np.array_equal(coarse[row] <= bound, near)
        assert np.array_equal(idx[row, near], expected[near])
        assert np.array_equal(bits(coarse[row, near]), bits(dist[near]))
        gap = np.abs(np.arange(samples.shape[0])[:, None] - expected)
        gap = np.minimum(gap, samples.shape[0] - gap)
        spread = max(spread, int(np.max(np.where(np.sqrt(squared) <= bound, gap, 0)[:, near],
                                        initial=0)))
    assert spread > 100


@PROPERTY
@given(n=st.integers(8, 2048), rough=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=2048, rough=True, seed=0)
def test_lift_matches_scipy_periodic_cubic_spline(n, rough, seed):
    rng = np.random.default_rng(seed)
    theta = np.arange(n) * (2.0 * np.pi / n)
    if rough:  # independent values: second differences as large as the values
        u = rng.normal(size=n)
    else:
        phase = rng.uniform(0.0, 2.0 * np.pi, (3, 1))
        u = rng.normal() + rng.normal(size=3) @ np.cos(np.arange(1, 4)[:, None] * theta + phase)
    feet = np.concatenate([[0.0, np.nextafter(2.0 * np.pi, 0.0)], theta,
                           rng.uniform(0.0, 2.0 * np.pi, 256), [np.nan]])
    # lift_field reads the band only through grid.shape and dist.theta_foot
    lifted = lift_field(u, SimpleNamespace(shape=feet.shape), SimpleNamespace(theta_foot=feet))
    spline = CubicSpline(np.append(theta, 2.0 * np.pi), np.append(u, u[0]), bc_type="periodic")
    assert np.isnan(lifted[-1])
    # scipy's breakpoints, the rounded j * 2 pi / n and 2 pi, are spaced
    # unevenly by up to n * eps relative, which moves its spline by about
    # n * eps * max|u[j+1] - u[j]|: about 2 pi eps max|u'| on smooth data,
    # up to 2e-13 * max|u| on rough data at n = 2048
    jump = np.max(np.abs(np.diff(np.append(u, u[0]))))
    tol = 1e-14 * np.max(np.abs(u)) + n * EPS * jump
    assert np.max(np.abs(lifted[:-1] - spline(feet[:-1]))) <= tol


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_needs_three_values(n):
    # the cyclic factor rejects N < 3, where the corner no longer couples a
    # node pair of its own; from N = 3 on the lift is scipy's spline
    u = np.arange(n) + 1.0
    feet = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    band = SimpleNamespace(shape=feet.shape), SimpleNamespace(theta_foot=feet)
    if n < 3:
        message = rf"^a cyclic tridiagonal matrix needs >= 3 nodes, got {n}$"
        with pytest.raises(ValueError, match=message):
            lift_field(u, *band)
        return
    theta = np.arange(n) * (2.0 * np.pi / n)
    spline = CubicSpline(np.append(theta, 2.0 * np.pi), np.append(u, u[0]), bc_type="periodic")
    assert np.max(np.abs(lift_field(u, *band) - spline(feet))) <= 1e-14 * np.max(np.abs(u))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(family=FAMILY, t=st.floats(0.0, 1.0, exclude_max=True), reach=st.floats(0.05, 0.2499),
       h=st.sampled_from([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0, 0.01, 0.03]))
# the 2h grid's halo at its curvature limit, (delta + 8h) max|kappa| = 0.7499
# (one projection serves both grids, so the limit moved from delta + 4h)
@example(family="ellipse", t=0.0, reach=0.2499, h=1.0 / 32.0)
def test_every_active_stencil_lies_in_the_halo(family, t, reach, h):
    # the operators read the 5 x 5 window of each active node, so the active
    # mask needs no erosion: the halo is 4 > 2 sqrt 2 cells wider than the
    # band, on the grid at h and on the one `coarsen` makes at 2h
    surface = FAMILIES[family]()
    delta = reach / _curve_samples(surface, t)[3]
    try:
        band = build_band(surface, t, h, delta)
    except BandError:
        reject()
    for grid, dist in (band, coarsen(*band)):
        # every node of each active node's 5 x 5 window is a band node in the halo
        halo = np.append(np.abs(dist.dist) < delta + _HALO_CELLS * grid.h, False)  # slot P
        lookup = narrowband._node_lookup(grid.rows, grid.cols, grid.ys.size, grid.xs.size)
        rows, cols = grid.rows[grid.active_mask], grid.cols[grid.active_mask]
        step = np.arange(-1, 4)
        assert np.all(halo[lookup[rows + step[:, None, None], cols + step[None, :, None]]])
