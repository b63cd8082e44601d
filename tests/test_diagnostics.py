import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import max_principle_monitor, norm_equivalence_check
from periflow import diagnostics
from periflow import (
    FAMILIES,
    IVPConfig,
    ParameterGrid,
    Propagator,
    breathing_circle,
    build_frame,
    circle,
    compatibility_check,
    holder_estimate,
    interpolation_check,
    mass_ledger,
)
from periflow.narrowband import build_band, lift_field


def static_field(grid, values):
    """(values, grid) of the time-constant field `values` on every level of `grid`."""
    return np.tile(np.asarray(values, dtype=float), (grid.n_steps + 1, 1)), grid


def sampled(grid, fn):
    """(values, grid) of `fn` at every node and level of `grid`."""
    return np.stack([fn(grid.nodes, t) for t in grid.times]), grid


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
    fld = static_field(grid, np.cos(grid.nodes))
    est = holder_estimate(*fld, circle(), alpha=1.0)
    assert est.holder_coefficient <= 1.0 + 1e-12
    assert est.holder_coefficient >= 0.95
    assert est.norm_alpha >= est.sup_norm


def test_holder_finite_across_alpha():
    grid = ParameterGrid(64, 8, 1.0)
    fld = static_field(grid, np.cos(grid.nodes))
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
    # finer grids nest the pairs of the coarser grid's points
    def estimate(n, m):
        grid = ParameterGrid(n, m, 1.0)
        fld = sampled(grid, lambda th, t: np.cos(th) * math.exp(-t) + 0.3 * np.sin(2 * th))
        return holder_estimate(*fld, circle(), alpha=0.5)

    for coarse, fine in ((estimate(16, 4), estimate(32, 8)), (estimate(32, 16), estimate(64, 32))):
        assert fine.holder_coefficient >= coarse.holder_coefficient - 1e-14
        assert fine.time_holder >= coarse.time_holder - 1e-14
        assert fine.sup_norm >= coarse.sup_norm - 1e-14


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(sorted(FAMILIES)), n_levels=st.integers(1, 20),
       n_nodes=st.integers(8, 64), n_comp=st.sampled_from([1, 2, 4]),
       alpha=st.sampled_from([0.25, 0.5, 1.0]), rough=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(family="bean", n_levels=33, n_nodes=64, n_comp=1, alpha=0.5, rough=0.5, seed=0)
def test_holder_sweep_matches_all_pairs(family, n_levels, n_nodes, n_comp, alpha, rough, seed):
    # the explicit example is the holder scenario's largest grid
    grid = ParameterGrid(n_nodes, 4, 1.0)
    s, length = diagnostics._arc_coordinates(build_frame(FAMILIES[family](), grid, 0.0),
                                             grid.dtheta)
    times = np.linspace(0.0, 1.0, n_levels)
    noise = np.random.default_rng(seed).standard_normal((n_levels, n_nodes, n_comp))
    values = np.cos(grid.nodes)[:, None] * np.exp(-times)[:, None, None] + rough * noise
    if n_comp == 1:
        values = values[..., 0]  # the (L, N) form of a scalar field
    expected = oracles.all_pairs_holder(values, s, length, times, alpha)
    assert diagnostics._holder_sups(values, s, length, times, alpha) == expected


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
    estimate = holder_estimate(*zero, circle(), 0.5)
    for eps, lhs, rhs in interpolation_check(estimate, [0.5]):
        assert lhs == 0.0 and rhs >= 0.0


def test_norm_equivalence_ratios():
    surface = circle()
    grid = ParameterGrid(128, 4, 1.0)
    band_grid, band_dist = build_band(surface, 0.0, 1.0 / 64.0, 0.3)
    theta = grid.nodes
    for profile in (np.full(128, 2.0), np.cos(theta), np.cos(3.0 * theta)):
        lifted = lift_field(profile, band_grid, band_dist)
        ratios = norm_equivalence_check(
            profile, surface, grid, band_grid, band_dist, lifted, alpha=0.5
        )
        assert 0.1 <= ratios[0] <= 10.0
        assert 0.1 <= ratios[1] <= 10.0
    const_ratio = norm_equivalence_check(
        np.full(128, 2.0), surface, grid, band_grid, band_dist,
        lift_field(np.full(128, 2.0), band_grid, band_dist), alpha=0.5,
    )
    assert abs(const_ratio[0] - 1.0) <= 1e-12


def test_holder_diagnostics_build_the_reference_frame_once(monkeypatch):
    calls = []
    real = diagnostics.build_frame

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(diagnostics, "build_frame", counted)
    monkeypatch.setattr(oracles, "build_frame", counted)
    grid = ParameterGrid(32, 8, 1.0)
    values = sampled(grid, lambda th, t: np.cos(th) * math.exp(-t))
    holder_estimate(*values, circle(), alpha=0.5)
    assert len(calls) == 1
    # (delta + 8h) kappa = 0.55 on the unit circle, below the 3/4 that a band
    # projected for its 2h grid needs
    band_grid, band_dist = build_band(circle(), 0.0, 1.0 / 32.0, 0.3)
    profile = np.cos(grid.nodes)
    lifted = lift_field(profile, band_grid, band_dist)
    norm_equivalence_check(profile, circle(), grid, band_grid, band_dist, lifted)
    assert len(calls) == 2


def test_mass_ledger_conservative_run():
    surface = breathing_circle()
    config = IVPConfig(n_nodes=128, n_steps=128, scheme="backward_euler", zero_order="divergence")
    prop = Propagator(surface, config)
    traj = prop.run(np.ones(128))
    series = mass_ledger(traj, prop)
    assert np.max(np.abs(series.defects)) <= 1e-8 * abs(series.masses[0])
    assert abs(series.masses[-1] - series.masses[0]) <= 1e-8 * abs(series.masses[0])
    assert np.all(series.forcing_integrals == 0.0)


def test_mass_ledger_zero_everything():
    surface = circle()
    config = IVPConfig(n_nodes=64, n_steps=16, scheme="crank_nicolson", zero_order="divergence")
    prop = Propagator(surface, config)
    traj = prop.run(np.zeros(64))
    series = mass_ledger(traj, prop)
    assert np.all(series.masses == 0.0) and np.all(series.defects == 0.0)


def test_compatibility_check_values():
    config = IVPConfig(n_nodes=64, n_steps=32, scheme="crank_nicolson", zero_order="zero")
    assert compatibility_check(Propagator(circle(), config)) == 0.0
    harmonic = lambda th, t: np.cos(th) * (1.0 + np.sin(2.0 * math.pi * t))
    assert abs(compatibility_check(Propagator(circle(), config, harmonic))) <= 1e-13
    const = lambda th, t: np.ones_like(th)
    assert abs(compatibility_check(Propagator(circle(), config, const)) - 2.0 * math.pi) <= 1e-10


def test_compatibility_of_time_derivative_forcing():
    # d/dt of a periodic profile integrates to zero over the period exactly
    # for the trapezoid rule (telescoping), the acceptance generator pattern
    surface = breathing_circle()
    config = IVPConfig(n_nodes=64, n_steps=64, scheme="crank_nicolson", zero_order="zero")
    profile = lambda t: math.sin(2.0 * math.pi * t) + 0.3 * math.cos(4.0 * math.pi * t)

    def forcing(th, t):
        # measure-corrected: divide by the density so the spatial integral
        # is proportional to the plain profile derivative
        r = 1.0 + 0.25 * np.sin(2.0 * math.pi * t)
        rate = 2.0 * math.pi * (np.cos(2.0 * math.pi * t) - 0.6 * np.sin(4.0 * math.pi * t))
        return rate / r + 0.0 * th

    value = compatibility_check(Propagator(surface, config, forcing))
    assert abs(value) <= 1e-12


def test_max_principle_monitor_and_negative_control():
    surface = circle()
    grid = ParameterGrid(64, 64, 1.0)
    config = IVPConfig(n_nodes=64, n_steps=64, scheme="backward_euler", zero_order="zero")
    decay = Propagator(surface, config).run(np.cos(grid.nodes))
    report = max_principle_monitor(decay)
    assert report.monotone and report.first_violation_level is None

    const = Propagator(surface, config).run(np.full(64, 2.0))
    assert max_principle_monitor(const).monotone

    # a source (negative forcing in this sign convention) raises the maximum
    forced = Propagator(surface, config, lambda th, t: -np.ones_like(th)).run(np.cos(grid.nodes))
    report = max_principle_monitor(forced)
    assert not report.monotone
    assert report.first_violation_level == 1
