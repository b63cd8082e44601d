import math

import numpy as np
import pytest

from periflow import (
    IVPConfig,
    NonuniquenessError,
    ParameterGrid,
    PeriodicProblem,
    assemble_metric,
    breathing_circle,
    circle,
    contraction_estimate,
    fixed_point_solve,
    fourier_noise,
    make_propagator,
    mean_adjust,
    mean_and_mass,
    monodromy_solve,
    periodicity_residuals,
    weighted_measure,
)


def measure_at_zero(surface, grid):
    return weighted_measure(assemble_metric(surface, grid, 0.0))


def constant_rate_problem(c0=1.0, forcing=None, n=128, m=128, mean=0.0):
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme="backward_euler", zero_order="constant", coefficient=c0
    )
    return PeriodicProblem(surface=circle(), config=config, forcing=forcing, target_mean=mean)


def breathing_problem(forcing=None, mean=1.0, n=128, m=128, scheme="crank_nicolson"):
    config = IVPConfig(n_nodes=n, n_steps=m, scheme=scheme, zero_order="divergence")
    return PeriodicProblem(
        surface=breathing_circle(), config=config, forcing=forcing, target_mean=mean
    )


def harmonic_forcing(theta, t):
    return np.cos(theta) * math.sin(2.0 * math.pi * t) + 0.5 * np.sin(theta) * math.cos(
        4.0 * math.pi * t
    )


def test_mean_adjust_examples():
    grid = ParameterGrid(64, 8, 1.0)
    measure = measure_at_zero(circle(), grid)
    already = np.cos(grid.nodes)
    assert np.max(np.abs(mean_adjust(already, measure).values - already)) <= 1e-14
    assert np.max(np.abs(mean_adjust(np.full(64, 5.0), measure).values)) <= 1e-14
    shifted = np.cos(grid.nodes) + 3.0
    assert np.max(np.abs(mean_adjust(shifted, measure).values - np.cos(grid.nodes))) <= 1e-13
    out_mean, _ = mean_and_mass(measure, mean_adjust(shifted, measure).values)
    assert abs(out_mean) <= 1e-15


def test_fixed_point_zero_forcing_converges_immediately():
    problem = constant_rate_problem(c0=1.0, forcing=None, mean=0.0)
    report = fixed_point_solve(problem)
    assert report.converged and report.iterations == 1
    assert np.max(np.abs(report.initial_state.values)) <= 1e-14


def test_fixed_point_reaches_tolerance_quickly():
    problem = constant_rate_problem(
        c0=1.0, forcing=lambda th, t: np.cos(th) * (math.sin(2 * math.pi * t) + 0.4)
    )
    report = fixed_point_solve(problem, tol=1e-10, max_iter=40)
    assert report.converged
    assert report.iterations <= 40
    assert report.final_residual <= 1e-10
    # measured ratios stay below twice the end-map decay factor
    assert all(r <= 2.0 * math.exp(-1.0) + 1e-6 for r in report.ratios)


def test_contraction_bound_and_product_formula():
    problem = constant_rate_problem(c0=1.0)
    prop = make_propagator(problem)
    grid = problem.grid
    probes = [(np.ones(grid.n_nodes), np.zeros(grid.n_nodes))]
    est = contraction_estimate(problem, probes=probes, propagator=prop)
    exact = (1.0 + 1.0 * grid.dt) ** (-grid.n_steps)  # scalar product formula
    assert abs(est.end_map_ratio - exact) <= 1e-12
    # the product exceeds exp(-c0 T) by O(dt) but stays inside the decay bound
    assert math.exp(-1.0) < est.end_map_ratio <= math.exp(-1.0) * (1.0 + grid.dt)
    assert est.applicable
    eps = 0.5 * (math.log(2.0) + 1.0)
    assert est.bound == pytest.approx(math.exp(-eps) * (1.0 + est.slack))
    assert est.adjusted_ratio <= 2.0 * est.end_map_ratio


def test_contraction_default_probes_and_k_ratio():
    problem = constant_rate_problem(c0=1.0)
    est = contraction_estimate(problem)
    assert est.end_map_ratio <= est.bound
    assert est.adjusted_ratio < 1.0
    assert est.adjusted_ratio <= 2.0 * est.end_map_ratio + 1e-12
    assert len(est.pair_ratios) == 4


def test_identical_probes_skipped():
    problem = constant_rate_problem(c0=1.0)
    grid = problem.grid
    same = np.cos(grid.nodes)
    est = contraction_estimate(problem, probes=[(same, same), (same, np.zeros_like(same))])
    assert len(est.pair_ratios) == 1


def test_contraction_bound_violation_raises():
    # growth regime: negative rate makes the end map expanding, while the
    # declared floor feeds an impossible bound
    grid = ParameterGrid(32, 16, 1.0)
    config = IVPConfig(
        n_nodes=32, n_steps=16, scheme="backward_euler", zero_order="custom",
        custom=lambda th, t: np.full_like(th, -2.0),
    )
    problem = PeriodicProblem(surface=circle(), config=config)
    # floor is -2.0 < ln 2, so no assertion is made; force one by lying about
    # the floor via a custom closure that is positive only at the samples used
    est = contraction_estimate(problem)
    assert not est.applicable
    assert est.bound is None
    assert est.end_map_ratio > 1.0  # genuinely expanding


def test_monodromy_oracle_reproduces_end_map():
    problem = breathing_problem(forcing=harmonic_forcing, n=64, m=64)
    prop = make_propagator(problem)
    _, report = monodromy_solve(problem, propagator=prop)
    probe = np.cos(problem.grid.nodes) + 0.2
    direct = prop.run(probe, keep_trajectory=False)
    assert np.max(np.abs(report.oracle.end_state(probe) - direct)) <= 1e-12


def test_monodromy_agrees_with_fixed_point():
    problem = breathing_problem(forcing=harmonic_forcing, n=64, m=64)
    prop = make_propagator(problem)
    traj_m, _ = monodromy_solve(problem, propagator=prop)
    report = fixed_point_solve(problem, tol=1e-12, max_iter=80, propagator=prop)
    assert report.converged
    assert np.max(np.abs(traj_m.values - report.trajectory.values)) <= 1e-8


def test_uniqueness_probe_two_starts():
    problem = breathing_problem(forcing=harmonic_forcing, n=64, m=64)
    prop = make_propagator(problem)
    rng = np.random.default_rng(7)
    r1 = fixed_point_solve(problem, tol=1e-11, max_iter=80, propagator=prop)
    r2 = fixed_point_solve(
        problem, tol=1e-11, max_iter=80,
        start=fourier_noise(problem.grid.nodes, rng), propagator=prop,
    )
    assert r1.converged and r2.converged
    assert np.max(np.abs(r1.initial_state.values - r2.initial_state.values)) <= 1e-10


def test_monodromy_zero_forcing_closed_form():
    problem = breathing_problem(forcing=None, mean=1.0, n=64, m=64)
    prop = make_propagator(problem)
    traj, report = monodromy_solve(problem, propagator=prop)
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    expected = np.stack([np.full(64, r(0.0) / r(t)) for t in problem.grid.times])
    assert np.max(np.abs(traj.values - expected)) <= 1e-12
    assert report.smallest_singular_value >= 1e-8


def test_monodromy_mean_constraint_and_periodicity():
    problem = breathing_problem(forcing=harmonic_forcing, mean=1.0, n=64, m=64)
    prop = make_propagator(problem)
    traj, _ = monodromy_solve(problem, propagator=prop)
    measure0 = prop.geometry.measure(0)
    mean0, _ = mean_and_mass(measure0, traj.values[0])
    assert abs(mean0 - 1.0) <= 1e-12
    res = periodicity_residuals(traj, measure0)
    assert res.relaxed <= 1e-12
    assert res.strict <= 1e-12  # harmonic forcing integrates to zero exactly


def test_nonuniqueness_raises():
    n, m = 32, 16
    grid = ParameterGrid(n, m, 1.0)
    lam1 = (2.0 - 2.0 * math.cos(grid.dtheta)) / grid.dtheta**2
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme="backward_euler", zero_order="constant",
        coefficient=-lam1,  # neutralizes the first discrete mode exactly
    )
    problem = PeriodicProblem(
        surface=circle(), config=config, forcing=lambda th, t: np.cos(th)
    )
    with pytest.raises(NonuniquenessError):
        monodromy_solve(problem)


def test_periodicity_residuals_constant_trajectory():
    problem = breathing_problem(forcing=None, mean=0.0, n=64, m=64)
    prop = make_propagator(problem)
    traj, _ = monodromy_solve(problem, propagator=prop)
    res = periodicity_residuals(traj, prop.geometry.measure(0))
    assert res.relaxed <= 1e-13 and res.strict <= 1e-13 and abs(res.mean_drift) <= 1e-13


def test_fixed_point_conservative_closed_form():
    problem = breathing_problem(forcing=None, mean=1.0, n=64, m=64)
    prop = make_propagator(problem)
    report = fixed_point_solve(problem, tol=1e-10, propagator=prop)
    assert report.converged
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    expected = np.stack([np.full(64, r(0.0) / r(t)) for t in problem.grid.times])
    assert np.max(np.abs(report.trajectory.values - expected)) <= 1e-6
    res = periodicity_residuals(report.trajectory, prop.geometry.measure(0))
    assert res.strict <= 1e-10  # zero forcing satisfies the compatibility integral


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        IVPConfig(scheme="leapfrog")
    with pytest.raises(ValueError):
        IVPConfig(zero_order="nonsense")
    with pytest.raises(ValueError):
        IVPConfig(zero_order="custom")  # closure required
    with pytest.raises(ValueError):
        fixed_point_solve(breathing_problem(n=32, m=16), tol=-1.0)


def test_exponential_decay_scenario_mean_drift():
    config = IVPConfig(
        n_nodes=128, n_steps=256, scheme="crank_nicolson",
        zero_order="divergence_plus_constant", coefficient=0.5,
    )
    problem = PeriodicProblem(surface=breathing_circle(), config=config, target_mean=1.0)
    prop = make_propagator(problem)
    traj, _ = monodromy_solve(problem, propagator=prop)
    res = periodicity_residuals(traj, prop.geometry.measure(0))
    expected = math.exp(-0.5) - 1.0
    assert abs(res.mean_drift - expected) <= 1e-4
    assert res.relaxed <= 1e-8
