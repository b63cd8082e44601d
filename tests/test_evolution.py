import gc
import math
import tracemalloc

import numpy as np
import pytest

from helpers import mean_order
from oracles import adjoint_solve, duality_check
from periflow import (
    FAMILIES,
    GridMismatchError,
    IVPConfig,
    ParameterGrid,
    Propagator,
    StepError,
    assemble_metric,
    bean,
    breathing_circle,
    build_frame,
    circle,
    commutator_check,
    fourier_noise,
    greens_formula_check,
    holder_estimate,
    laplace_beltrami_apply,
    mass_ledger,
    mean_and_mass,
    tangential_gradient,
)
from periflow.expressions import compile_expression
from periflow.narrowband import lift_field


def make_grid(n, m, period=1.0):
    return ParameterGrid(n, m, period)


def test_non_finite_zero_order_sample_names_level_and_node():
    # the zero-order coefficient is one constant; the per-node samples the
    # stepper checks are the forcing's, here a closure's (M+1, N) result
    forcing = np.ones((9, 16))
    forcing[3, 5] = np.inf
    with pytest.raises(StepError, match="forcing is not finite at node 5") as info:
        Propagator(circle(), IVPConfig(16, 8, "crank_nicolson", "zero"), lambda th, t: forcing)
    assert info.value.level == 3


# case -> (call on a 16-node, 8-step propagator of CIRCLE, expected message)
CIRCLE = circle()
SHAPE_MISMATCHES = {
    "u0": (lambda p: p.run(np.ones(15)), r"initial state of shape \(15,\) does not match \(16,\)"),
    "forcing": (
        lambda p: Propagator(CIRCLE, p.config, lambda th, t: np.zeros((9, 15))),
        r"forcing of shape \(9, 15\) does not match \(9, 16\)",
    ),
    "forcing_closure_rank": (
        lambda p: Propagator(CIRCLE, p.config, lambda th, t: np.zeros((2, th.size))),
        r"forcing of shape \(2, 16\) does not match \(9, 16\)",
    ),
    "forcing_closure_length": (
        lambda p: Propagator(CIRCLE, p.config, lambda th, t: np.zeros(th.size + 1)),
        r"forcing of shape \(17,\) does not match \(9, 16\)",
    ),
    "holder_estimate": (
        lambda p: holder_estimate(np.zeros((8, 16)), p.grid, CIRCLE, 0.5),
        r"values of shape \(8, 16\) does not match \(9, 16\)",
    ),
    "mass_ledger": (
        lambda p: mass_ledger(np.zeros((8, 16)), p),
        r"trajectory of shape \(8, 16\) does not match \(9, 16\)",
    ),
    "duality_check": (
        lambda p: duality_check(CIRCLE, p.grid, np.zeros((9, 16)), np.zeros((9, 15))),
        r"phi of shape \(9, 15\) does not match \(9, 16\)",
    ),
    "u0_rank": (lambda p: p.run(np.ones((16, 2))), r"shape \(16, 2\) does not match"),
    # a square batch would broadcast the diagonals along the wrong axis
    "step_rank": (lambda p: p.run(np.eye(16)), r"state of shape \(16, 16\) does not match"),
    "mean_and_mass": (
        lambda p: mean_and_mass(p.geometry.weights0, np.ones(15)),
        r"field of shape \(15,\) does not match \(16,\)",
    ),
    "mean_and_mass_batch": (
        lambda p: mean_and_mass(p.geometry.weights0, np.ones((16, 2))),
        r"field of shape \(16, 2\) does not match \(16,\)",
    ),
    # a square batch would be differenced along the wrong axis
    "laplace_beltrami_apply": (
        lambda p: laplace_beltrami_apply(assemble_metric(CIRCLE, p.grid, 0.0), np.eye(16)),
        r"field of shape \(16, 16\) does not match \(16,\)",
    ),
    "tangential_gradient": (
        lambda p: tangential_gradient(build_frame(CIRCLE, p.grid, 0.0), np.ones((16, 2))),
        r"field of shape \(16, 2\) does not match \(16,\)",
    ),
    "commutator_check": (
        lambda p: commutator_check(build_frame(CIRCLE, p.grid, 0.0), np.ones(16), np.ones(15)),
        r"second theta derivative of shape \(15,\) does not match \(16,\)",
    ),
    "greens_formula_check": (
        lambda p: greens_formula_check(assemble_metric(CIRCLE, p.grid, 0.0), np.ones(15),
                                       np.ones(15)),
        r"u of shape \(15,\) does not match \(16,\)",
    ),
    # the shape is checked before the band is read
    "lift_field": (
        lambda p: lift_field(np.ones((16, 2)), None, None),
        r"surface values of shape \(16, 2\) does not match \(16,\)",
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
def test_shape_mismatch_raises_grid_mismatch(case):
    call, match = SHAPE_MISMATCHES[case]
    prop = Propagator(CIRCLE, IVPConfig(16, 8, "crank_nicolson", "zero"))
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


@pytest.mark.parametrize("keep_trajectory", [False, True])
def test_transposed_sweep_names_the_level_where_it_overflows(keep_trajectory):
    # on the unit circle B_k 1 = (1/dt + c) 1 = 1e-8/dt, so each solve scales a
    # constant by 1e8 dt: 1e300 stays finite at level M and overflows at M - 1
    m = 8
    config = IVPConfig(16, m, "backward_euler", "constant", coefficient=-(1.0 - 1e-8) * m)
    prop = Propagator(circle(), config)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepError, match=r"^transposed state is not finite at node 0 ") as info:
            prop.run_transpose(np.full(16, 1e300), keep_trajectory=keep_trajectory)
    assert info.value.level == m - 1


def test_forcing_closure_is_called_once_with_the_column_of_times():
    calls = []

    def forcing(theta, t):
        calls.append((theta.shape, t.shape))
        return np.cos(theta) * np.sin(2.0 * math.pi * t)

    prop = Propagator(CIRCLE, IVPConfig(16, 8, "crank_nicolson", "divergence"), forcing)
    prop.run(np.ones(16))
    assert calls == [((16,), (9, 1))]


@pytest.mark.parametrize("zero_order", ["zero", "divergence"])
def test_array_forcing_is_read_and_never_written(zero_order):
    # a closure's (M+1, N) result is read as it is, without a copy
    forcing = np.random.default_rng(5).uniform(-1.0, 1.0, (9, 16))
    before = forcing.copy()
    prop = Propagator(CIRCLE, IVPConfig(16, 8, "crank_nicolson", zero_order),
                      lambda th, t: forcing)
    prop.run(np.ones(16))
    prop.run(np.ones(16), keep_trajectory=False)
    assert np.array_equal(forcing, before)


@pytest.mark.parametrize("shape", [(17,), (2, 16), (9, 15), (10, 1), (9, 16, 1)], ids=str)
def test_forcing_closure_of_a_wrong_shape_names_both_shapes(shape):
    config = IVPConfig(16, 8, "crank_nicolson", "zero")
    with pytest.raises(GridMismatchError) as info:
        Propagator(CIRCLE, config, lambda theta, t: np.zeros(shape))
    assert str(info.value) == f"forcing of shape {shape} does not match (9, 16)"


@pytest.mark.parametrize("result", [lambda th, t: 2.0, lambda th, t: np.cos(th),
                                    lambda th, t: np.sin(t), lambda th, t: np.cos(th) * t])
def test_forcing_closure_result_broadcasts_to_every_level(result):
    grid = make_grid(16, 8)
    prop = Propagator(CIRCLE, IVPConfig(16, 8, "crank_nicolson", "zero"), result)
    per_level = [np.broadcast_to(result(grid.nodes, t), (16,)) for t in grid.times]
    expected = Propagator(CIRCLE, IVPConfig(16, 8, "crank_nicolson", "zero"),
                          lambda th, t: np.stack(per_level))
    assert np.array_equal(prop.forcing_integrals, expected.forcing_integrals)


def test_propagator_memory_budget():
    # held: the geometry's sqrt_g and c_half (8 bytes each per node and level),
    # the LDL^T factors d, e and z of every step matrix (24) and the forcing
    # load (8), so 48 bytes and a little per-level overhead; construction adds
    # the forcing samples and one block of levels of temporaries
    n, m = 512, 256
    surface = bean()
    config = IVPConfig(n, m, "crank_nicolson", "divergence")
    forcing = compile_expression("1.5*cos(2*theta+0.3)*sin(2*pi*t/T)", surface.period)
    Propagator(surface, config, forcing)  # first-call allocations of numpy and scipy
    gc.collect()
    tracemalloc.start()
    try:
        prop = Propagator(surface, config, forcing)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = prop.grid.n_nodes * (prop.grid.n_steps + 1)
    assert held / cells <= 52.0 and peak / cells <= 72.0


def test_constants_preserved_without_forcing():
    grid = make_grid(64, 16)
    config = IVPConfig(n_nodes=64, n_steps=16, scheme="backward_euler", zero_order="zero")
    traj = Propagator(circle(), config).run(np.full(64, 3.25))
    assert np.max(np.abs(traj - 3.25)) <= 1e-13


def test_backward_euler_step_eigenmode():
    grid = make_grid(64, 8)
    config = IVPConfig(n_nodes=64, n_steps=8, scheme="backward_euler", zero_order="zero")
    prop = Propagator(circle(), config)
    u0 = np.cos(grid.nodes)
    u1 = prop.run(u0)[1]
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
    u1 = prop.run(np.ones(64))[1]
    assert np.max(np.abs(u1 - 1.0 / (1.0 + 2.0 * grid.dt))) <= 1e-14


def test_heat_kernel_crank_nicolson():
    grid = make_grid(256, 512)
    config = IVPConfig(n_nodes=256, n_steps=512, scheme="crank_nicolson", zero_order="zero")
    traj = Propagator(circle(), config).run(np.cos(grid.nodes))
    err = max(
        float(np.max(np.abs(traj[k] - math.exp(-t) * np.cos(grid.nodes))))
        for k, t in enumerate(grid.times)
    )
    assert err <= 5e-5


def test_breathing_conservative_closed_form():
    grid = make_grid(128, 256)
    config = IVPConfig(n_nodes=128, n_steps=256, scheme="backward_euler", zero_order="divergence")
    traj = Propagator(breathing_circle(), config).run(np.ones(128))
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    expected = np.stack([np.full(128, r(0.0) / r(t)) for t in grid.times])
    assert np.max(np.abs(traj - expected)) <= 1e-12


def test_manufactured_solution_orders():
    # u(theta, t) = sin(theta) cos(2 pi t); forcing from the exact operator
    def exact(theta, t):
        return np.sin(theta) * math.cos(2.0 * math.pi * t)

    def forcing(theta, t):
        # diffusion of sin is -sin on the unit circle; no zero-order term
        return -np.sin(theta) * np.cos(2.0 * math.pi * t) + 2.0 * math.pi * np.sin(
            theta
        ) * np.sin(2.0 * math.pi * t)

    def run(scheme, n, m):
        grid = make_grid(n, m)
        config = IVPConfig(n_nodes=n, n_steps=m, scheme=scheme, zero_order="zero")
        traj = Propagator(circle(), config, forcing).run(exact(grid.nodes, 0.0))
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
    forcing = lambda th, t: np.cos(th) * np.sin(2.0 * math.pi * t)
    rng = np.random.default_rng(4)
    a, b = fourier_noise(grid.nodes, rng), fourier_noise(grid.nodes, rng)
    alpha = 0.3
    forced = Propagator(surf, config, forcing)
    ja = forced.run(a, keep_trajectory=False)
    jb = forced.run(b, keep_trajectory=False)
    jc = forced.run(alpha * a + (1 - alpha) * b, keep_trajectory=False)
    assert np.max(np.abs(jc - (alpha * ja + (1 - alpha) * jb))) <= 1e-12

    other = Propagator(surf, config, lambda th, t: np.sin(th) * np.cos(4.0 * math.pi * t))
    diff1 = forced.run(a + b, keep_trajectory=False) - jb
    diff2 = other.run(a + b, keep_trajectory=False) - other.run(b, keep_trajectory=False)
    assert np.max(np.abs(diff1 - diff2)) <= 1e-12


def test_zero_data_zero_forcing_gives_zero():
    grid = make_grid(64, 16)
    config = IVPConfig(n_nodes=64, n_steps=16, scheme="crank_nicolson", zero_order="zero")
    final = Propagator(breathing_circle(), config).run(np.zeros(64), keep_trajectory=False)
    assert np.max(np.abs(final)) == 0.0


def test_adjoint_matches_forward_on_stationary_metric():
    grid = make_grid(64, 32)
    config = IVPConfig(n_nodes=64, n_steps=32, scheme="backward_euler", zero_order="zero")
    fwd = Propagator(circle(), config).run(np.cos(grid.nodes))
    adj = adjoint_solve(circle(), config, None, terminal=np.cos(grid.nodes))
    assert np.max(np.abs(adj[::-1] - fwd)) <= 1e-12


def test_adjoint_constant_forcing_linear_in_time():
    grid = make_grid(64, 32)
    config = IVPConfig(n_nodes=64, n_steps=32, scheme="backward_euler", zero_order="zero")
    kappa = 0.7
    adj = adjoint_solve(circle(), config, lambda th, t: np.full_like(th, kappa))
    expected = np.stack([np.full(64, kappa * (t - 1.0)) for t in grid.times])
    assert np.max(np.abs(adj - expected)) <= 1e-12


def test_duality_residual_vanishes_for_zero_field():
    grid = make_grid(64, 16)
    config = IVPConfig(n_nodes=64, n_steps=16, scheme="crank_nicolson", zero_order="zero")
    zero = Propagator(breathing_circle(), config).run(np.zeros(64))
    assert duality_check(breathing_circle(), grid, zero, zero) == 0.0


@pytest.mark.parametrize("scheme", ["backward_euler", "crank_nicolson"])
def test_duality_residual_second_order(scheme):
    surf = breathing_circle()
    u0 = fourier_noise(make_grid(64, 32).nodes, np.random.default_rng(3))
    res = []
    for m in (32, 64, 128):
        grid = make_grid(64, m)
        config = IVPConfig(n_nodes=64, n_steps=m, scheme=scheme, zero_order="divergence")
        u = Propagator(surf, config).run(u0)
        phi = adjoint_solve(surf, config, lambda th, t: u)
        res.append(duality_check(surf, grid, u, phi))
    # the quadrature identity converges at second order for both schemes,
    # within the first-order bound expected of backward Euler
    assert abs(mean_order(res) - 2.0) <= 0.4


def test_mass_law_per_step_divergence_mode():
    surf = breathing_circle()
    grid = make_grid(128, 64)
    forcing = lambda th, t: np.cos(th) * (1.0 + np.sin(2.0 * math.pi * t))
    for scheme in ("backward_euler", "crank_nicolson"):
        config = IVPConfig(n_nodes=128, n_steps=64, scheme=scheme, zero_order="divergence")
        traj = Propagator(surf, config, forcing).run(1.0 + 0.5 * np.cos(grid.nodes))
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
    config = IVPConfig(n_nodes=64, n_steps=64, scheme="backward_euler", zero_order="zero")
    u0 = np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)
    traj = Propagator(breathing_circle(), config).run(u0)
    maxima = np.max(traj, axis=1)
    assert np.all(maxima[1:] <= maxima[:-1] + 1e-13)
