import math

import numpy as np
import pytest

from helpers import ambient_radius_sq, ambient_x1, ambient_x1x2, mean_order
from periflow import (
    AnalyticField,
    DegenerateMetricError,
    IVPConfig,
    ParameterGrid,
    Propagator,
    assemble_metric,
    bean,
    breathing_circle,
    build_frame,
    cartesian_laplacian_apply,
    circle,
    greens_formula_check,
    laplace_beltrami_apply,
    laplace_beltrami_matrix,
    mean_and_mass,
    pullback_identity_check,
    rotating_ellipse,
    trace_identity,
    transport_formula_residual,
)

GRID = ParameterGrid(256, 8, 1.0)
ALL_FAMILIES = [circle(), breathing_circle(), rotating_ellipse(), bean()]


def test_stationary_circle_metric_is_identity():
    m = assemble_metric(circle(), GRID, 0.42)
    assert np.max(np.abs(m.cartesian - np.eye(2))) < 1e-14
    assert np.max(np.abs(m.cartesian_det - 1.0)) < 1e-14


def test_breathing_local_metric_and_trace():
    t = 0.37
    r = 1.0 + 0.25 * math.sin(2 * math.pi * t)
    r_dot = 0.25 * math.cos(2 * math.pi * t) * 2 * math.pi
    m = assemble_metric(breathing_circle(), GRID, t)
    assert np.max(np.abs(m.sqrt_g**2 - r * r)) < 1e-12
    assert np.max(np.abs(m.weights - r * GRID.dtheta)) < 1e-12
    assert np.max(np.abs(m.c_half - 1.0 / r)) < 1e-12  # sqrt(g)/g, constant along the curve
    assert np.max(np.abs(m.trace_rate - r_dot / r)) < 1e-12


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_metric_fixes_normal(surface):
    for t in (0.0, 0.3, 0.9):
        frame0 = build_frame(surface, GRID, 0.0)
        m = assemble_metric(surface, GRID, t)
        gn = np.einsum("iab,ib->ia", m.cartesian, frame0.normal)
        gn_inv = np.einsum("iab,ib->ia", m.cartesian_inv, frame0.normal)
        assert np.max(np.abs(gn - frame0.normal)) <= 1e-12
        assert np.max(np.abs(gn_inv - frame0.normal)) <= 1e-12


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_determinant_consistency(surface):
    m = assemble_metric(surface, GRID, 0.3)
    m0 = assemble_metric(surface, GRID, 0.0)
    dets = np.linalg.det(m.cartesian)
    assert np.max(np.abs(dets - (m.sqrt_g / m0.sqrt_g) ** 2)) <= 1e-10


def test_degenerate_metric_raises():
    surf = breathing_circle(amplitude=1.0 - 1e-14)
    grid = ParameterGrid(16, 4, 1.0)
    with pytest.raises(DegenerateMetricError, match=r"at t=0\.75, node \d+$"):
        assemble_metric(surf, grid, 0.75)  # radius collapses near 3T/4


def test_degenerate_geometry_names_level_and_node():
    surf = breathing_circle(amplitude=1.0 - 1e-14)
    with pytest.raises(DegenerateMetricError, match=r"at time level 3 \(t=0\.75, node \d+\)"):
        Propagator(surf, IVPConfig(n_nodes=16, n_steps=4))


def test_laplacian_eigenfunction_on_circle():
    m = assemble_metric(circle(), GRID, 0.0)
    u = np.cos(GRID.nodes)
    out = laplace_beltrami_apply(m, u)
    assert np.max(np.abs(out + u)) <= 2e-4  # discrete eigenvalue within O(dtheta^2)
    lam = (2.0 - 2.0 * math.cos(GRID.dtheta)) / GRID.dtheta**2
    assert np.max(np.abs(out + lam * u)) <= 1e-11  # round-off amplified by 1/dtheta^2


def test_laplacian_constant_and_radius_scaling():
    m = assemble_metric(circle(), GRID, 0.0)
    assert np.max(np.abs(laplace_beltrami_apply(m, np.ones(GRID.n_nodes)))) == 0.0
    m2 = assemble_metric(circle(radius=2.0), GRID, 0.0)
    u = np.cos(GRID.nodes)
    assert np.max(np.abs(laplace_beltrami_apply(m2, u) + 0.25 * u)) <= 5e-5


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_laplacian_output_has_zero_mass(surface):
    rng = np.random.default_rng(5)
    m = assemble_metric(surface, GRID, 0.6)
    values = rng.normal(size=GRID.n_nodes)
    _, mass = mean_and_mass(m.weights, laplace_beltrami_apply(m, values))
    assert abs(mass) <= 1e-12 * np.max(np.abs(values))


def test_matrix_matches_apply():
    m = assemble_metric(bean(), GRID, 0.3)
    mat = laplace_beltrami_matrix(m)
    rng = np.random.default_rng(2)
    values = rng.normal(size=GRID.n_nodes)
    applied = laplace_beltrami_apply(m, values)
    scale = np.max(np.abs(applied))
    assert np.max(np.abs(mat @ values - applied)) <= 1e-14 * scale


def test_mean_and_mass_examples():
    m = assemble_metric(circle(), GRID, 0.0)
    mean, mass = mean_and_mass(m.weights, np.ones(GRID.n_nodes))
    assert abs(mean - 1.0) <= 1e-12
    assert abs(mass - 2.0 * math.pi) <= 1e-10
    mean, mass = mean_and_mass(m.weights, np.cos(GRID.nodes))
    assert abs(mean) <= 1e-14 and abs(mass) <= 1e-13
    t = 0.61
    r = 1.0 + 0.25 * math.sin(2 * math.pi * t)
    mb = assemble_metric(breathing_circle(), GRID, t).weights
    _, mass = mean_and_mass(mb, np.full(GRID.n_nodes, 3.0))
    assert abs(mass - 3.0 * 2.0 * math.pi * r) <= 1e-9
    degenerate = m.weights.copy()
    degenerate[7] = 0.0
    with pytest.raises(DegenerateMetricError, match="non-positive quadrature weight"):
        mean_and_mass(degenerate, np.ones(GRID.n_nodes))


def test_greens_formula_trivial_and_harmonics():
    m = assemble_metric(circle(), GRID, 0.0)
    assert greens_formula_check(m, np.full(GRID.n_nodes, 2.5), np.sin(GRID.nodes)) <= 1e-12
    for n_nodes in (16, 64, 256):
        grid = ParameterGrid(n_nodes, 4, 1.0)
        mm = assemble_metric(circle(), grid, 0.0)
        assert greens_formula_check(mm, np.cos(grid.nodes), np.sin(grid.nodes)) <= 1e-10


def test_greens_formula_variable_coefficients():
    grid = ParameterGrid(190, 6, 1.0)  # deliberately not a power of two
    m = assemble_metric(breathing_circle(), grid, 1.0 / 3.0)
    u = np.cos(2.0 * grid.nodes)
    assert greens_formula_check(m, u, u) <= 1e-10


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_trace_identity(surface):
    frame = build_frame(surface, GRID, 0.3)
    m = assemble_metric(surface, GRID, 0.3)
    left, right, diff = trace_identity(m, frame)
    assert diff <= 1e-10
    if surface.name == "circle":
        assert np.max(np.abs(left)) == 0.0
    if surface.name == "rotating_ellipse":  # rigid motion is isometric
        assert np.max(np.abs(left)) <= 1e-12
        assert np.max(np.abs(right)) <= 1e-12
    if surface.name == "breathing_circle":
        t = 0.3
        r = 1.0 + 0.25 * math.sin(2 * math.pi * t)
        r_dot = 0.25 * math.cos(2 * math.pi * t) * 2 * math.pi
        assert np.max(np.abs(left - r_dot / r)) <= 1e-12


def test_pullback_identity_exact_for_constant_restriction():
    # |x|^2 restricts to a constant on the unit circle: both routes vanish
    assert pullback_identity_check(circle(), GRID, 0.0, ambient_radius_sq()) <= 1e-12


@pytest.mark.parametrize(
    "surface,ambient",
    [
        (breathing_circle(), ambient_x1()),
        (rotating_ellipse(), ambient_x1x2()),
        (bean(), ambient_x1()),
    ],
    ids=["breathing-x1", "ellipse-x1x2", "bean-x1"],
)
def test_pullback_identity_second_order(surface, ambient):
    errs = [
        pullback_identity_check(surface, ParameterGrid(n, 4, 1.0), 0.3, ambient)
        for n in (64, 128, 256, 512)
    ]
    assert abs(mean_order(errs) - 2.0) <= 0.3


def test_cartesian_form_consistency():
    m = assemble_metric(breathing_circle(), GRID, 0.3)
    frame0 = build_frame(breathing_circle(), GRID, 0.0)
    u = np.cos(GRID.nodes) + 0.3 * np.sin(2.0 * GRID.nodes)
    assert np.max(np.abs(cartesian_laplacian_apply(m, frame0, np.ones(GRID.n_nodes)))) == 0.0
    errs = []
    for n in (128, 256):
        grid = ParameterGrid(n, 4, 1.0)
        mm = assemble_metric(breathing_circle(), grid, 0.3)
        ff = build_frame(breathing_circle(), grid, 0.0)
        uu = np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
        errs.append(
            np.max(np.abs(cartesian_laplacian_apply(mm, ff, uu) - laplace_beltrami_apply(mm, uu)))
        )
    assert 3.0 < errs[0] / errs[1] < 5.2


def test_transport_formula_second_order_in_dt():
    field = AnalyticField(
        fn=lambda th, t: (1.0 + 0.5 * np.cos(th)) * math.exp(math.sin(t)),
        dt=lambda th, t: (1.0 + 0.5 * np.cos(th)) * math.exp(math.sin(t)) * math.cos(t),
    )
    res = [
        transport_formula_residual(breathing_circle(), GRID, 0.31, field, dt_fd)
        for dt_fd in (2e-2, 1e-2, 5e-3)
    ]
    assert abs(mean_order(res) - 2.0) <= 0.2
