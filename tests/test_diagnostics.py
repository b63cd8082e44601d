import math

import numpy as np

from periflow import diagnostics
from periflow import (
    IVPConfig,
    ParameterGrid,
    Propagator,
    breathing_circle,
    build_band,
    circle,
    compatibility_check,
    holder_estimate,
    interpolation_check,
    lift_field,
    mass_ledger,
    max_principle_monitor,
    norm_equivalence_check,
    solve_ivp,
)


def static_field(values):
    """(values, times) of a single slice at t = 0."""
    return np.asarray(values, dtype=float)[None, :], np.zeros(1)


def sampled(grid, fn):
    """(values, times) of `fn` at every node and level of `grid`."""
    return np.stack([fn(grid.nodes, t) for t in grid.times]), grid.times


def test_holder_constant_field():
    grid = ParameterGrid(32, 8, 1.0)
    fld = sampled(grid, lambda th, t: np.full_like(th, 4.0))
    est = holder_estimate(*fld, circle(), alpha=0.5)
    assert est.holder_coefficient == 0.0
    assert est.time_holder == 0.0
    assert est.norm_alpha == est.sup_norm == 4.0


def test_holder_cosine_lipschitz_bound():
    # static cos on the unit circle has arc-length Lipschitz constant 1
    grid = ParameterGrid(64, 8, 1.0)
    fld = static_field(np.cos(grid.nodes))
    est = holder_estimate(*fld, circle(), alpha=1.0)
    assert est.holder_coefficient <= 1.0 + 1e-12
    assert est.holder_coefficient >= 0.95
    assert est.norm_alpha >= est.sup_norm


def test_holder_finite_across_alpha():
    grid = ParameterGrid(64, 8, 1.0)
    fld = static_field(np.cos(grid.nodes))
    for a in (0.25, 0.5, 1.0):
        est = holder_estimate(*fld, circle(), alpha=a)
        assert 0.0 < est.holder_coefficient < 10.0
        # |cos x - cos y| <= |x - y| bounds every quotient with d <= pi < 2pi
        assert est.holder_coefficient <= max(2.0, math.pi ** (1.0 - a)) + 1e-12


def test_sqrt_time_profile_flags_blowup():
    estimates = []
    for m in (8, 32, 128):
        grid = ParameterGrid(16, m, 1.0)
        fld = sampled(grid, lambda th, t: np.cos(th) * math.sqrt(t))
        estimates.append(holder_estimate(*fld, circle(), alpha=0.5).time_holder)
    assert estimates[0] < estimates[1] < estimates[2]
    assert estimates[2] > 1.9 * estimates[0]  # grows like dt^(-1/4) under refinement


def test_estimator_monotone_under_nesting():
    # finer grids nest the coarser sample pairs (full enumeration regime)
    def estimate(n, m):
        grid = ParameterGrid(n, m, 1.0)
        fld = sampled(grid, lambda th, t: np.cos(th) * math.exp(-t) + 0.3 * np.sin(2 * th))
        return holder_estimate(*fld, circle(), alpha=0.5)

    coarse = estimate(16, 4)
    fine = estimate(32, 8)
    assert fine.holder_coefficient >= coarse.holder_coefficient - 1e-14
    assert fine.time_holder >= coarse.time_holder - 1e-14
    assert fine.sup_norm >= coarse.sup_norm - 1e-14


def test_interpolation_inequality_examples():
    grid = ParameterGrid(32, 16, 1.0)
    const = sampled(grid, lambda th, t: np.full_like(th, 1.5))
    for eps, lhs, rhs in interpolation_check(holder_estimate(*const, circle(), 0.5),
                                             [1.0, 0.5, 0.25]):
        assert rhs >= 2.0 * 1.5 - 1e-12
        assert lhs <= rhs
    fld = sampled(grid, lambda th, t: np.cos(th) * math.exp(-t))
    for eps, lhs, rhs in interpolation_check(holder_estimate(*fld, circle(), 0.5),
                                             [0.5, 0.25, 0.125]):
        assert lhs <= rhs
    zero = sampled(grid, lambda th, t: np.zeros_like(th))
    for eps, lhs, rhs in interpolation_check(holder_estimate(*zero, circle(), 0.5), [0.5]):
        assert lhs == 0.0 and rhs >= 0.0


def test_norm_equivalence_ratios():
    surface = circle()
    grid = ParameterGrid(128, 4, 1.0)
    band_grid, band_dist = build_band(surface, 0.0, 1.0 / 64.0, 0.3)
    theta = grid.nodes
    for profile in (np.full(128, 2.0), np.cos(theta), np.cos(3.0 * theta)):
        lifted = lift_field(profile, theta, band_grid, band_dist)
        ratios = norm_equivalence_check(
            profile, surface, grid, band_grid, band_dist, lifted, alpha=0.5
        )
        assert 0.1 <= ratios[0] <= 10.0
        assert 0.1 <= ratios[1] <= 10.0
    const_ratio = norm_equivalence_check(
        np.full(128, 2.0), surface, grid, band_grid, band_dist,
        lift_field(np.full(128, 2.0), theta, band_grid, band_dist), alpha=0.5,
    )
    assert abs(const_ratio[0] - 1.0) <= 1e-12


def test_holder_diagnostics_build_the_reference_frame_once(monkeypatch):
    calls = []
    real = diagnostics.build_frame

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(diagnostics, "build_frame", counted)
    grid = ParameterGrid(32, 8, 1.0)
    holder_estimate(*sampled(grid, lambda th, t: np.cos(th) * math.exp(-t)), circle(), alpha=0.5)
    assert len(calls) == 1
    band_grid, band_dist = build_band(circle(), 0.0, 1.0 / 16.0, 0.3)
    profile = np.cos(grid.nodes)
    lifted = lift_field(profile, grid.nodes, band_grid, band_dist)
    norm_equivalence_check(profile, circle(), grid, band_grid, band_dist, lifted)
    assert len(calls) == 2


def test_mass_ledger_conservative_run():
    surface = breathing_circle()
    config = IVPConfig(n_nodes=128, n_steps=128, scheme="backward_euler", zero_order="divergence")
    traj = solve_ivp(surface, config, np.ones(128))
    series = mass_ledger(traj, Propagator(surface, config))
    assert np.max(np.abs(series.defects)) <= 1e-8 * abs(series.masses[0])
    assert abs(series.masses[-1] - series.masses[0]) <= 1e-8 * abs(series.masses[0])
    assert np.all(series.forcing_integrals == 0.0)


def test_mass_ledger_zero_everything():
    surface = circle()
    config = IVPConfig(n_nodes=64, n_steps=16, zero_order="divergence")
    traj = solve_ivp(surface, config, np.zeros(64))
    series = mass_ledger(traj, Propagator(surface, config))
    assert np.all(series.masses == 0.0) and np.all(series.defects == 0.0)


def test_compatibility_check_values():
    config = IVPConfig(n_nodes=64, n_steps=32)
    assert compatibility_check(Propagator(circle(), config)) == 0.0
    harmonic = lambda th, t: np.cos(th) * (1.0 + math.sin(2.0 * math.pi * t))
    assert abs(compatibility_check(Propagator(circle(), config, harmonic))) <= 1e-13
    const = lambda th, t: np.ones_like(th)
    assert abs(compatibility_check(Propagator(circle(), config, const)) - 2.0 * math.pi) <= 1e-10


def test_compatibility_of_time_derivative_forcing():
    # d/dt of a periodic profile integrates to zero over the period exactly
    # for the trapezoid rule (telescoping), the acceptance generator pattern
    surface = breathing_circle()
    config = IVPConfig(n_nodes=64, n_steps=64)
    profile = lambda t: math.sin(2.0 * math.pi * t) + 0.3 * math.cos(4.0 * math.pi * t)

    def forcing(th, t):
        # measure-corrected: divide by the density so the spatial integral
        # is proportional to the plain profile derivative
        r = 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
        rate = 2.0 * math.pi * (math.cos(2.0 * math.pi * t) - 0.6 * math.sin(4.0 * math.pi * t))
        return np.full_like(th, rate / r)

    value = compatibility_check(Propagator(surface, config, forcing))
    assert abs(value) <= 1e-12


def test_max_principle_monitor_and_negative_control():
    surface = circle()
    grid = ParameterGrid(64, 64, 1.0)
    config = IVPConfig(n_nodes=64, n_steps=64, scheme="backward_euler")
    decay = solve_ivp(surface, config, np.cos(grid.nodes))
    report = max_principle_monitor(decay)
    assert report.monotone and report.first_violation_level is None

    const = solve_ivp(surface, config, np.full(64, 2.0))
    assert max_principle_monitor(const).monotone

    # a source (negative forcing in this sign convention) raises the maximum
    forced = solve_ivp(surface, config, np.cos(grid.nodes), lambda th, t: -np.ones_like(th))
    report = max_principle_monitor(forced)
    assert not report.monotone
    assert report.first_violation_level == 1
