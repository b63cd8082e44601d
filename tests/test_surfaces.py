import math

import numpy as np
import pytest

from oracles import discrete_commutator_check, projection
from periflow import (
    DegenerateSurfaceError,
    FAMILIES,
    ParameterGrid,
    SurfaceFamily,
    bean,
    breathing_circle,
    build_frame,
    circle,
    commutator_check,
    rotating_ellipse,
    surfaces,
    tangential_gradient,
)

GRID = ParameterGrid(128, 8, 1.0)
ALL_FAMILIES = [circle(), breathing_circle(), rotating_ellipse(), bean()]


def x1_derivatives(surface, t):
    """The exact first and second theta derivatives of u = x1 on the moving
    curve, from the chart."""
    _, x_th, x_thth, _, _ = surface.jet(GRID.nodes, t)
    return x_th[:, 0], x_thth[:, 0]


def test_unit_circle_frame():
    frame = build_frame(circle(), GRID, 0.37)
    assert np.max(np.abs(frame.normal - frame.position)) < 1e-14
    assert np.max(np.abs(frame.curvature - 1.0)) < 1e-13
    # tangential eigenvalue of the Weingarten map is the curvature
    h_tau = np.einsum("iab,ib->ia", frame.weingarten, frame.tangent)
    assert np.max(np.abs(h_tau - frame.tangent)) < 1e-13


def test_expanding_circle_velocity():
    surf = breathing_circle(amplitude=0.25)
    t = 0.1
    velocity = surf.jet(GRID.nodes, t)[3]  # the chart velocity X_t
    r_dot = 0.25 * math.cos(2 * math.pi * t) * 2 * math.pi
    expected = r_dot * np.stack([np.cos(GRID.nodes), np.sin(GRID.nodes)], axis=-1)
    assert np.max(np.abs(velocity - expected)) < 1e-13
    assert np.max(np.abs(np.linalg.norm(velocity, axis=1) - abs(r_dot))) < 1e-13


@pytest.mark.parametrize(
    "theta,expected",
    [(0.0, 2.0), (math.pi / 2.0, 0.25)],  # a/b^2 and b/a^2 for a=2, b=1
)
def test_ellipse_curvature_against_cross_formula(theta, expected):
    surf = rotating_ellipse(a=2.0, b=1.0)
    frame = build_frame(surf, GRID, 0.0)
    # cross-product curvature oracle evaluated from the exact jet
    _, xd, xdd, _, _ = (x[0] for x in surf.jet(np.array([theta]), 0.0))
    oracle = (xd[0] * xdd[1] - xd[1] * xdd[0]) / np.linalg.norm(xd) ** 3
    assert abs(oracle - expected) < 1e-12
    node = int(round(theta / GRID.dtheta))
    assert abs(frame.curvature[node] - oracle) < 1e-12


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_frame_invariants(surface):
    for t in (0.0, 0.3, 0.77):
        frame = build_frame(surface, GRID, t)
        assert np.max(np.abs(np.linalg.norm(frame.normal, axis=1) - 1.0)) <= 1e-12
        proj = projection(frame)
        assert np.max(np.abs(np.einsum("iab,ibc->iac", proj, proj) - proj)) <= 1e-12
        H = frame.weingarten
        assert np.max(np.abs(H - np.transpose(H, (0, 2, 1)))) <= 1e-12
        assert np.max(np.abs(np.einsum("iab,ib->ia", H, frame.normal))) <= 1e-12


def reflected(surface):
    """The same curve traversed clockwise: the chart theta -> X(-theta, t)."""

    def jet(th, t):
        x, x_th, x_thth, x_t, x_tth = surface.jet(-th, t)
        return x, -x_th, x_thth, x_t, -x_tth

    return SurfaceFamily(f"{surface.name}-reflected", jet, surface.period)


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_clockwise_chart_gets_the_outward_normal(surface):
    grid = ParameterGrid(64, 4, 1.0)
    mirror = -np.arange(grid.n_nodes) % grid.n_nodes  # node -j mod N sits at node j
    for t in (0.0, 0.3):
        frame = build_frame(surface, grid, t)
        flipped = build_frame(reflected(surface), grid, t)
        assert surfaces.orientation_sign(flipped.position) == -1.0
        for name in ("position", "normal", "curvature"):
            assert np.max(np.abs(getattr(flipped, name)[mirror] - getattr(frame, name))) <= 1e-13


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_chart_periodicity_exact(surface):
    theta = GRID.nodes
    gap = surface.jet(theta, surface.period)[0] - surface.jet(theta, 0.0)[0]
    assert np.max(np.abs(gap)) == 0.0


def test_immersion_failure_raises():
    # a figure-eight style chart degenerates where the speed vanishes
    def jet(th, t):
        zero = np.zeros(np.shape(th) + (2,))
        return (
            np.stack([np.sin(th) ** 2, np.zeros_like(th)], axis=-1),
            np.stack([2 * np.sin(th) * np.cos(th), np.zeros_like(th)], axis=-1),
            np.stack([2 * np.cos(2 * th), np.zeros_like(th)], axis=-1),
            zero,
            zero,
        )

    bad = SurfaceFamily(name="degenerate", jet=jet, period=1.0)
    with pytest.raises(DegenerateSurfaceError, match=r"node 0$"):
        build_frame(bad, GRID, 0.0)


def test_tangential_gradient_constant_is_zero():
    frame = build_frame(bean(), GRID, 0.2)
    grad = tangential_gradient(frame, np.ones(GRID.n_nodes))
    assert np.max(np.abs(grad)) == 0.0


def test_tangential_gradient_is_tangential():
    rng = np.random.default_rng(11)
    for surface in ALL_FAMILIES:
        frame = build_frame(surface, GRID, 0.4)
        values = rng.normal(size=GRID.n_nodes)
        grad = tangential_gradient(frame, values)
        assert np.max(np.abs(np.einsum("ia,ia->i", grad, frame.normal))) <= 1e-10


def test_discrete_gradient_second_order():
    frame_c = build_frame(circle(), ParameterGrid(64, 4, 1.0), 0.0)
    frame_f = build_frame(circle(), ParameterGrid(128, 4, 1.0), 0.0)
    errs = []
    for frame in (frame_c, frame_f):
        theta = frame.theta
        grad = tangential_gradient(frame, np.cos(theta))
        exact = -np.sin(theta)[:, None] * frame.tangent
        errs.append(np.max(np.abs(grad - exact)))
    assert 3.0 < errs[0] / errs[1] < 5.0


@pytest.mark.parametrize("surface", ALL_FAMILIES, ids=lambda s: s.name)
def test_commutator_exact_path(surface):
    frame = build_frame(surface, GRID, 0.3)
    assert commutator_check(frame, *x1_derivatives(surface, 0.3)) <= 1e-12


def test_commutator_constant_field():
    frame = build_frame(bean(), GRID, 0.1)
    assert discrete_commutator_check(frame, np.ones(GRID.n_nodes)) <= 1e-14


def test_commutator_flat_chart_vanishes():
    # open straight-segment chart: zero curvature kills every commutator term
    def jet(th, t):
        zero = np.zeros(np.shape(th) + (2,))
        return (
            np.stack([th, 0.5 * th], axis=-1),
            np.stack([np.ones_like(th), 0.5 * np.ones_like(th)], axis=-1),
            zero,
            zero,
            zero,
        )

    line = SurfaceFamily(name="segment", jet=jet, period=1.0)
    frame = build_frame(line, GRID, 0.0)
    theta = GRID.nodes  # the field sin(theta)
    assert np.max(np.abs(frame.curvature)) == 0.0
    assert commutator_check(frame, np.cos(theta), -np.sin(theta)) <= 1e-13


def test_commutator_discrete_second_order():
    errs = []
    for n in (64, 128):
        grid = ParameterGrid(n, 4, 1.0)
        frame = build_frame(circle(), grid, 0.0)
        errs.append(discrete_commutator_check(frame, np.cos(grid.nodes)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_family_registry():
    assert set(FAMILIES) == {"circle", "breathing", "ellipse", "bean"}
    for name, make in FAMILIES.items():
        surf = make(period=2.0)
        assert surf.period == 2.0
        build_frame(surf, GRID, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        ParameterGrid(4, 8, 1.0)
    with pytest.raises(ValueError):
        ParameterGrid(16, 2, 1.0)
    with pytest.raises(ValueError):
        ParameterGrid(16, 8, -1.0)
