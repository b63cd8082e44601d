import math

import numpy as np
import pytest

from helpers import mean_order
from periflow import (
    FAMILIES,
    GridMismatchError,
    IVPConfig,
    ParameterGrid,
    Propagator,
    StepError,
    adjoint_solve,
    assemble_metric,
    breathing_circle,
    circle,
    duality_check,
    end_map,
    fourier_noise,
    mass_ledger,
    mean_and_mass,
    solve_ivp,
    space_time_geometry,
)


def make_grid(n, m, period=1.0):
    return ParameterGrid(n, m, period)


def test_non_finite_zero_order_sample_names_level_and_node():
    grid = make_grid(16, 8)

    def custom(theta, t):
        out = np.ones_like(theta)
        if t == grid.times[3]:
            out[5] = np.nan
        return out

    config = IVPConfig(n_nodes=16, n_steps=8, zero_order="custom", custom=custom)
    with pytest.raises(StepError, match="zero-order coefficient is not finite at node 5") as info:
        Propagator(circle(), config)
    assert info.value.level == 3

    # the same report for sampled forcing passed as an (M+1, N) array
    forcing = np.ones((9, 16))
    forcing[3, 5] = np.inf
    with pytest.raises(StepError, match="forcing is not finite at node 5") as info:
        Propagator(circle(), IVPConfig(n_nodes=16, n_steps=8), forcing)
    assert info.value.level == 3


# case -> (call on a 16-node, 8-step propagator, expected message)
SHAPE_MISMATCHES = {
    "u0": (lambda p: p.run(np.ones(15)), r"shape \(15,\) does not match the grid's 16 nodes"),
    "forcing": (
        lambda p: Propagator(p.surface, p.config, np.zeros((9, 15))),
        r"forcing shape \(9, 15\) does not match grid \(9, 16\)",
    ),
    "mass_ledger": (
        lambda p: mass_ledger(np.zeros((8, 16)), p),
        r"trajectory shape \(8, 16\) does not match grid \(9, 16\)",
    ),
    "duality_check": (
        lambda p: duality_check(p.geometry, np.zeros((9, 16)), np.zeros((9, 15))),
        r"different shapes \(9, 16\) and \(9, 15\)",
    ),
    "u0_rank": (lambda p: p.run(np.ones((16, 2))), r"shape \(16, 2\) does not match"),
    # a square batch would broadcast the diagonals along the wrong axis
    "step_rank": (lambda p: p.step(np.eye(16), 0), r"state of shape \(16, 16\) does not match"),
    "mean_and_mass": (
        lambda p: mean_and_mass(p.geometry.weights[0], np.ones(15)),
        "field has 15 nodes, measure has 16",
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
def test_shape_mismatch_raises_grid_mismatch(case):
    call, match = SHAPE_MISMATCHES[case]
    prop = Propagator(circle(), IVPConfig(n_nodes=16, n_steps=8))
    with pytest.raises(GridMismatchError, match=match):
        call(prop)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("scheme, theta", [("backward_euler", 1.0), ("crank_nicolson", 0.5)])
@pytest.mark.parametrize("n, m", [(16, 8), (256, 64)])
def test_singular_step_matrix_raises_where_factorized(family, scheme, theta, n, m):
    # c = -1/(theta*dt) turns the step matrix 1/dt - theta*(L - c) into -theta*L,
    # which annihilates constants at every level
    grid = make_grid(n, m)
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme=scheme, zero_order="constant",
        coefficient=-1.0 / (theta * grid.dt),
    )
    with pytest.raises(StepError, match="step matrix is singular") as info:
        Propagator(FAMILIES[family](), config)
    assert info.value.level == 1


def test_constants_preserved_without_forcing():
    grid = make_grid(64, 16)
    config = IVPConfig(n_nodes=64, n_steps=16, scheme="backward_euler")
    traj = solve_ivp(circle(), config, np.full(64, 3.25))
    assert np.max(np.abs(traj - 3.25)) <= 1e-13


def test_backward_euler_step_eigenmode():
    grid = make_grid(64, 8)
    config = IVPConfig(n_nodes=64, n_steps=8, scheme="backward_euler")
    prop = Propagator(circle(), config)
    u0 = np.cos(grid.nodes)
    u1 = prop.step(u0, 0)
    lam = (2.0 - 2.0 * math.cos(grid.dtheta)) / grid.dtheta**2
    assert np.max(np.abs(u1 - u0 / (1.0 + grid.dt * lam))) <= 1e-13
    # the discrete eigenvalue is within O(dtheta^2) of the continuum value 1
    assert np.max(np.abs(u1 - u0 / (1.0 + grid.dt))) <= 1e-2 * grid.dtheta**2 / grid.dt + 1e-4


def test_constant_zero_order_scalar_reduction():
    grid = make_grid(64, 8)
    config = IVPConfig(
        n_nodes=64, n_steps=8, scheme="backward_euler", zero_order="constant", coefficient=2.0
    )
    prop = Propagator(circle(), config)
    u1 = prop.step(np.ones(64), 0)
    assert np.max(np.abs(u1 - 1.0 / (1.0 + 2.0 * grid.dt))) <= 1e-14


def test_heat_kernel_crank_nicolson():
    grid = make_grid(256, 512)
    config = IVPConfig(n_nodes=256, n_steps=512, scheme="crank_nicolson")
    traj = solve_ivp(circle(), config, np.cos(grid.nodes))
    err = max(
        float(np.max(np.abs(traj[k] - math.exp(-t) * np.cos(grid.nodes))))
        for k, t in enumerate(grid.times)
    )
    assert err <= 5e-5


def test_breathing_conservative_closed_form():
    grid = make_grid(128, 256)
    config = IVPConfig(n_nodes=128, n_steps=256, scheme="backward_euler", zero_order="divergence")
    traj = solve_ivp(breathing_circle(), config, np.ones(128))
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    expected = np.stack([np.full(128, r(0.0) / r(t)) for t in grid.times])
    assert np.max(np.abs(traj - expected)) <= 1e-12


def test_manufactured_solution_orders():
    # u(theta, t) = sin(theta) cos(2 pi t); forcing from the exact operator
    def exact(theta, t):
        return np.sin(theta) * math.cos(2.0 * math.pi * t)

    def forcing(theta, t):
        # diffusion of sin is -sin on the unit circle; no zero-order term
        return -np.sin(theta) * math.cos(2.0 * math.pi * t) + 2.0 * math.pi * np.sin(
            theta
        ) * math.sin(2.0 * math.pi * t)

    def run(scheme, n, m):
        grid = make_grid(n, m)
        config = IVPConfig(n_nodes=n, n_steps=m, scheme=scheme)
        traj = solve_ivp(circle(), config, exact(grid.nodes, 0.0), forcing)
        return max(
            float(np.max(np.abs(traj[k] - exact(grid.nodes, t))))
            for k, t in enumerate(grid.times)
        )

    cn_errs = [run("crank_nicolson", n, n // 2) for n in (32, 64, 128)]
    assert abs(mean_order(cn_errs) - 2.0) <= 0.3
    be_errs = [run("backward_euler", 512, m) for m in (16, 32, 64)]
    assert abs(mean_order(be_errs) - 1.0) <= 0.3


def test_end_map_affinity_and_forcing_independence():
    grid = make_grid(64, 32)
    config = IVPConfig(n_nodes=64, n_steps=32, scheme="crank_nicolson", zero_order="divergence")
    surf = breathing_circle()
    forcing = lambda th, t: np.cos(th) * math.sin(2.0 * math.pi * t)
    rng = np.random.default_rng(4)
    a, b = fourier_noise(grid.nodes, rng), fourier_noise(grid.nodes, rng)
    alpha = 0.3
    ja = end_map(surf, config, a, forcing)
    jb = end_map(surf, config, b, forcing)
    jc = end_map(surf, config, alpha * a + (1 - alpha) * b, forcing)
    assert np.max(np.abs(jc - (alpha * ja + (1 - alpha) * jb))) <= 1e-12

    other = lambda th, t: np.sin(th) * math.cos(4.0 * math.pi * t)
    diff1 = end_map(surf, config, a + b, forcing) - jb
    diff2 = (
        end_map(surf, config, a + b, other)
        - end_map(surf, config, b, other)
    )
    assert np.max(np.abs(diff1 - diff2)) <= 1e-12


def test_zero_data_zero_forcing_gives_zero():
    grid = make_grid(64, 16)
    config = IVPConfig(n_nodes=64, n_steps=16)
    final = end_map(breathing_circle(), config, np.zeros(64))
    assert np.max(np.abs(final)) == 0.0


def test_adjoint_matches_forward_on_stationary_metric():
    grid = make_grid(64, 32)
    config = IVPConfig(n_nodes=64, n_steps=32, scheme="backward_euler")
    fwd = solve_ivp(circle(), config, np.cos(grid.nodes))
    adj = adjoint_solve(circle(), config, None, terminal=np.cos(grid.nodes))
    assert np.max(np.abs(adj[::-1] - fwd)) <= 1e-12


def test_adjoint_constant_forcing_linear_in_time():
    grid = make_grid(64, 32)
    config = IVPConfig(n_nodes=64, n_steps=32, scheme="backward_euler")
    kappa = 0.7
    adj = adjoint_solve(circle(), config, lambda th, t: np.full_like(th, kappa))
    expected = np.stack([np.full(64, kappa * (t - 1.0)) for t in grid.times])
    assert np.max(np.abs(adj - expected)) <= 1e-12


def test_duality_residual_vanishes_for_zero_field():
    grid = make_grid(64, 16)
    config = IVPConfig(n_nodes=64, n_steps=16)
    zero = solve_ivp(breathing_circle(), config, np.zeros(64))
    assert duality_check(space_time_geometry(breathing_circle(), grid), zero, zero) == 0.0


@pytest.mark.parametrize("scheme", ["backward_euler", "crank_nicolson"])
def test_duality_residual_second_order(scheme):
    surf = breathing_circle()
    u0 = fourier_noise(make_grid(64, 32).nodes, np.random.default_rng(3))
    res = []
    for m in (32, 64, 128):
        grid = make_grid(64, m)
        config = IVPConfig(n_nodes=64, n_steps=m, scheme=scheme, zero_order="divergence")
        u = solve_ivp(surf, config, u0)
        phi = adjoint_solve(surf, config, u)
        res.append(duality_check(space_time_geometry(surf, grid), u, phi))
    # the quadrature identity converges at second order for both schemes,
    # within the first-order bound expected of backward Euler
    assert abs(mean_order(res) - 2.0) <= 0.4


def test_mass_law_per_step_divergence_mode():
    surf = breathing_circle()
    grid = make_grid(128, 64)
    forcing = lambda th, t: np.cos(th) * (1.0 + math.sin(2.0 * math.pi * t))
    for scheme in ("backward_euler", "crank_nicolson"):
        config = IVPConfig(n_nodes=128, n_steps=64, scheme=scheme, zero_order="divergence")
        traj = solve_ivp(surf, config, 1.0 + 0.5 * np.cos(grid.nodes), forcing)
        measures = [assemble_metric(surf, grid, t).weights for t in grid.times]
        masses = [mean_and_mass(m, traj[k])[1] for k, m in enumerate(measures)]
        f_int = [
            mean_and_mass(m, np.asarray(forcing(grid.nodes, t)))[1]
            for m, t in zip(measures, grid.times)
        ]
        for k in range(grid.n_steps):
            if scheme == "backward_euler":
                charge = f_int[k + 1]
            else:
                charge = 0.5 * (f_int[k] + f_int[k + 1])
            defect = masses[k + 1] - masses[k] + grid.dt * charge
            assert abs(defect) <= 1e-12 * max(1.0, abs(masses[k]))


def test_max_over_nodes_non_increasing_backward_euler():
    grid = make_grid(64, 64)
    config = IVPConfig(n_nodes=64, n_steps=64, scheme="backward_euler")
    traj = solve_ivp(breathing_circle(), config, np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes))
    maxima = np.max(traj, axis=1)
    assert np.all(maxima[1:] <= maxima[:-1] + 1e-13)
