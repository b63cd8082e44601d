"""Property tests of the invariants that hold exactly by construction, and
of the banded stepper against sparse and dense reference solves.

Each property is drawn over random grid sizes N in [8, 256] (N in [3, 64]
for the dense cyclic solve), all shipped families and random nodal fields;
the band's block cull is drawn over families, times, spacings and widths.
Runs are derandomized, so every run checks the same examples.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import full_rectangle_band, laplace_beltrami, time_reversed
from periflow import (
    FAMILIES,
    IVPConfig,
    ParameterGrid,
    Propagator,
    assemble_metric,
    build_band,
    greens_formula_check,
    laplace_beltrami_apply,
    laplace_beltrami_matrix,
    mass_ledger,
    mean_and_mass,
    space_time_geometry,
)
from periflow.evolution import _CyclicFactor
from periflow.metric import _cyclic_tridiagonal

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)
FAMILY = st.sampled_from(sorted(FAMILIES))
NODES = st.integers(8, 256)
TIME = st.floats(0.0, 1.0)
SCHEME = st.sampled_from(["backward_euler", "crank_nicolson"])
ZERO_ORDER = st.sampled_from(
    ["zero", "constant", "divergence", "divergence_plus_constant", "custom"]
)
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
    for k, t in enumerate(grid.times):
        metric = assemble_metric(surface, grid, t)
        assert np.array_equal(geometry.sqrt_g[k], metric.sqrt_g)
        assert np.array_equal(geometry.weights[k], metric.weights)
        assert np.array_equal(geometry.c_half[k], metric.c_half)
        # scalar (1/2) g_t / g against the Cartesian trace: equal up to round-off
        np.testing.assert_allclose(geometry.trace_rate[k], metric.trace_rate, rtol=0, atol=1e-13)


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
    _, x_th, x_thth, x_t, x_tth = surface.jet(theta, times)

    def errors(h):
        up, down = surface.jet(theta + h, times), surface.jet(theta - h, times)
        d_theta = [(a - b) / (2.0 * h) for a, b in zip(up, down)]
        later, earlier = surface.jet(theta, times + h), surface.jet(theta, times - h)
        d_t = [(a - b) / (2.0 * h) for a, b in zip(later, earlier)]
        pairs = ((x_th, d_theta[0]), (x_thth, d_theta[1]), (x_t, d_t[0]),
                 (x_tth, d_t[1]), (x_tth, d_theta[3]))
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
    prop = Propagator(FAMILIES[family](), config, forcing)
    traj = prop.run(nodal_field(data, n, 0.5, 2.0))
    ledger = mass_ledger(traj, prop)
    assert np.max(np.abs(ledger.defects)) <= 1e-12 * np.max(np.abs(ledger.masses))


@PROPERTY
@given(family=FAMILY, n=NODES, m=st.integers(4, 16), scheme=SCHEME, zero_order=ZERO_ORDER,
       data=st.data())
def test_step_matches_sparse_solve(family, n, m, scheme, zero_order, data):
    grid = ParameterGrid(n, m, 1.0)
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme=scheme, zero_order=zero_order, coefficient=0.8,
        custom=lambda th, t: 1.0 + 0.5 * np.cos(th + 2.0 * np.pi * t),
    )
    forcing = data.draw(hnp.arrays(np.float64, (m + 1, n), elements=st.floats(-1.0, 1.0)))
    surface = FAMILIES[family]()
    prop = Propagator(surface, config, forcing)
    level = data.draw(st.integers(0, m - 1))

    # the (M+1, N) zero-order samples c of the config; the stepper keeps
    # only their minimum, plus that of the dilation rate in the divergence modes
    if zero_order == "custom":
        c = np.stack([config.custom(grid.nodes, t) for t in grid.times])
    else:
        reads_coefficient = zero_order in ("constant", "divergence_plus_constant")
        c = np.full((m + 1, n), config.coefficient if reads_coefficient else 0.0)
    floor = float(np.min(c))
    if zero_order.startswith("divergence"):
        floor += float(np.min(prop.geometry.trace_rate))
    assert prop.rate_floor == floor

    # theta-scheme step from the CSR operators of the Cartesian metric:
    # (1/dt - theta (L' - c')) u' = s (1/dt + (1 - theta) (L - c)) u - s (1 - theta) f - theta f'
    old, new = (assemble_metric(surface, grid, grid.times[k]) for k in (level, level + 1))
    theta, eye = config.theta, sparse.identity(n)
    c_old, c_new = (sparse.diags(c[k]) for k in (level, level + 1))
    implicit = (eye / grid.dt - theta * (laplace_beltrami_matrix(new) - c_new)).tocsc()
    explicit = eye / grid.dt + (1.0 - theta) * (laplace_beltrami_matrix(old) - c_old)
    scale = np.ones(n)
    if zero_order.startswith("divergence"):
        scale = old.sqrt_g / new.sqrt_g
    load = scale * (1.0 - theta) * forcing[level] + theta * forcing[level + 1]

    values = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    expected = spla.spsolve(implicit, scale * (explicit @ values) - load)
    got = prop.step(values, level)
    assert got.shape == (n,)
    # both solves are backward stable on these diagonally dominant matrices
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@PROPERTY
@given(n=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
def test_cyclic_solve_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    for draw in range(50):
        main, upper, lower = rng.normal(size=(3, n))
        if draw % 2:  # half of the draws diagonally dominant, half not
            main += np.sign(main) * (np.abs(upper) + np.abs(lower))
        matrix = _cyclic_tridiagonal(main, upper, lower).toarray()
        factor = _CyclicFactor(main, upper, lower, level=0)
        rhs = rng.normal(size=n)
        expected = np.linalg.solve(matrix, rhs)
        got = factor.solve(rhs.copy())
        error = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
        # forward error of a backward-stable solve: a modest multiple of
        # eps * cond (observed at most 190 eps * cond over 40 000 draws)
        assert error <= 1e-12 * np.linalg.cond(matrix)


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(family=FAMILY, t=TIME, h=st.floats(1.0 / 256.0, 1.0 / 32.0), delta=st.floats(0.05, 0.2))
# the seed-0 band workload: 651 x 646 nodes, so 8 x 8 blocks are partial on both axes
@example(family="bean", t=0.5239831268672519, h=1.0 / 256.0, delta=0.2)
def test_block_cull_projects_exactly_the_nodes_a_full_query_keeps(family, t, h, delta):
    surface = FAMILIES[family]()
    grid, dist = build_band(surface, t, h, delta)
    full_grid, full_dist = full_rectangle_band(surface, t, grid)
    for name in ("active_mask", "halo_mask", "interior_mask"):
        assert np.array_equal(getattr(grid, name), getattr(full_grid, name))
    for f in fields(dist):
        assert np.array_equal(getattr(dist, f.name).view(np.uint64),
                              getattr(full_dist, f.name).view(np.uint64))
