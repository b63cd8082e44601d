import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_monodromy, linear_part, mean_order
from periflow import (
    FAMILIES,
    IVPConfig,
    NonuniquenessError,
    ParameterGrid,
    Propagator,
    assemble_metric,
    breathing_circle,
    circle,
    contraction_estimate,
    fixed_point_solve,
    fourier_noise,
    mean_adjust,
    mean_and_mass,
    monodromy_solve,
    periodicity_residuals,
)


def measure_at_zero(surface, grid):
    return assemble_metric(surface, grid, 0.0).weights


def constant_rate_propagator(c0=1.0, forcing=None, n=128, m=128):
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme="backward_euler", zero_order="constant", coefficient=c0
    )
    return Propagator(circle(), config, forcing)


def breathing_propagator(forcing=None, n=128, m=128, scheme="crank_nicolson"):
    config = IVPConfig(n_nodes=n, n_steps=m, scheme=scheme, zero_order="divergence")
    return Propagator(breathing_circle(), config, forcing)


def harmonic_forcing(theta, t):
    return np.cos(theta) * np.sin(2.0 * math.pi * t) + 0.5 * np.sin(theta) * np.cos(
        4.0 * math.pi * t
    )


def test_mean_adjust_examples():
    grid = ParameterGrid(64, 8, 1.0)
    measure = measure_at_zero(circle(), grid)
    already = np.cos(grid.nodes)
    assert np.max(np.abs(mean_adjust(already, measure) - already)) <= 1e-14
    assert np.max(np.abs(mean_adjust(np.full(64, 5.0), measure))) <= 1e-14
    shifted = np.cos(grid.nodes) + 3.0
    assert np.max(np.abs(mean_adjust(shifted, measure) - np.cos(grid.nodes))) <= 1e-13
    out_mean, _ = mean_and_mass(measure, mean_adjust(shifted, measure))
    assert abs(out_mean) <= 1e-15


def test_fixed_point_zero_forcing_converges_immediately():
    prop = constant_rate_propagator(c0=1.0, forcing=None)
    report = fixed_point_solve(prop, target_mean=0.0, tol=1e-10, max_iter=40)
    assert report.converged and report.iterations == 1
    assert np.max(np.abs(report.trajectory[0])) <= 1e-14


def test_fixed_point_reaches_tolerance_quickly():
    prop = constant_rate_propagator(
        c0=1.0, forcing=lambda th, t: np.cos(th) * (np.sin(2 * math.pi * t) + 0.4)
    )
    report = fixed_point_solve(prop, target_mean=0.0, tol=1e-10, max_iter=40)
    assert report.converged
    assert report.iterations <= 40
    assert report.final_residual <= 1e-10
    # measured ratios stay below twice the end-map decay factor
    assert all(r <= 2.0 * math.exp(-1.0) + 1e-6 for r in report.ratios)


def test_contraction_bound_and_product_formula():
    prop = constant_rate_propagator(c0=1.0)
    grid = prop.grid
    est = contraction_estimate(prop, seed=0)
    # the constant probe pair decays slowest, since diffusion also damps the others
    exact = (1.0 + 1.0 * grid.dt) ** (-grid.n_steps)  # scalar product formula
    assert abs(est.end_map_ratio - exact) <= 1e-12
    # the product exceeds exp(-c0 T) by O(dt) but stays inside the decay bound
    assert math.exp(-1.0) < est.end_map_ratio <= math.exp(-1.0) * (1.0 + grid.dt)
    eps = 0.5 * (math.log(2.0) + 1.0)
    slack = 3.0 * (grid.dt + grid.dtheta**2)
    assert est.bound == pytest.approx(math.exp(-eps) * (1.0 + slack))
    assert est.adjusted_ratio <= 2.0 * est.end_map_ratio


def test_contraction_default_probes_and_k_ratio():
    est = contraction_estimate(constant_rate_propagator(c0=1.0), seed=0)
    assert est.end_map_ratio <= est.bound
    assert est.adjusted_ratio < 1.0
    assert est.adjusted_ratio <= 2.0 * est.end_map_ratio + 1e-12
    assert len(est.end_map_ratios) == len(est.adjusted_ratios) == 4
    assert (max(est.end_map_ratios), max(est.adjusted_ratios)) == (est.end_map_ratio,
                                                                  est.adjusted_ratio)


def test_contraction_bound_not_applicable_below_ln2_over_t():
    # growth regime: a negative rate makes the end map expanding; its floor
    # -2.0 is below ln(2)/T, so the estimate carries no bound to compare with
    config = IVPConfig(
        n_nodes=32, n_steps=16, scheme="backward_euler", zero_order="constant", coefficient=-2.0
    )
    est = contraction_estimate(Propagator(circle(), config), seed=0)
    assert est.bound is None
    assert est.end_map_ratio > 1.0  # genuinely expanding


def test_batched_propagation_plus_offset_reproduces_end_map():
    # the dense linear part and offset that the dense_monodromy oracle assembles
    prop = breathing_propagator(forcing=harmonic_forcing, n=64, m=64)
    n = prop.grid.n_nodes
    matrix = linear_part(prop)
    offset = prop.run(np.zeros(n), keep_trajectory=False)
    probe = np.cos(prop.grid.nodes) + 0.2
    direct = prop.run(probe, keep_trajectory=False)
    assert np.max(np.abs(matrix @ probe + offset - direct)) <= 1e-12


def test_monodromy_agrees_with_fixed_point():
    prop = breathing_propagator(forcing=harmonic_forcing, n=64, m=64)
    traj_m, _ = monodromy_solve(prop, target_mean=1.0)
    report = fixed_point_solve(prop, target_mean=1.0, tol=1e-12, max_iter=80)
    assert report.converged
    assert np.max(np.abs(traj_m - report.trajectory)) <= 1e-8


def test_uniqueness_probe_two_starts():
    prop = breathing_propagator(forcing=harmonic_forcing, n=64, m=64)
    rng = np.random.default_rng(7)
    r1 = fixed_point_solve(prop, target_mean=1.0, tol=1e-11, max_iter=80)
    r2 = fixed_point_solve(
        prop, target_mean=1.0, tol=1e-11, max_iter=80,
        start=fourier_noise(prop.grid.nodes, rng),
    )
    assert r1.converged and r2.converged
    assert np.max(np.abs(r1.trajectory[0] - r2.trajectory[0])) <= 1e-10


@pytest.mark.parametrize("scheme", ["backward_euler", "crank_nicolson"])
@pytest.mark.parametrize("family", ["circle", "breathing", "ellipse", "bean"])
def test_krylov_matches_dense_oracle(family, scheme):
    config = IVPConfig(n_nodes=64, n_steps=64, scheme=scheme, zero_order="divergence")
    prop = Propagator(FAMILIES[family](), config, harmonic_forcing)
    traj, report = monodromy_solve(prop, target_mean=1.0)
    oracle, _ = dense_monodromy(prop, target_mean=1.0)
    assert np.max(np.abs(traj - oracle)) <= 1e-12
    assert report.residuals[-1] <= 1e-13
    # one restart cycle takes one product more than its inner iterations
    assert len(report.residuals) <= 9


@pytest.mark.parametrize(
    "family, n, m",
    [("ellipse", 64, 64), ("bean", 64, 64), ("breathing", 256, 15), ("bean", 512, 9)],
)
def test_spectral_gap_brackets_dense_sigma_min(family, n, m):
    # the last two cases put stiff Crank-Nicolson modes near -1
    config = IVPConfig(n_nodes=n, n_steps=m, scheme="crank_nicolson", zero_order="divergence")
    prop = Propagator(FAMILIES[family](), config, harmonic_forcing)
    _, report = monodromy_solve(prop, target_mean=1.0)
    _, sigma_min = dense_monodromy(prop, target_mean=1.0)
    assert sigma_min <= report.spectral_gap <= 1.02 * sigma_min


@pytest.mark.parametrize("family", ["breathing", "ellipse", "bean"])
def test_spectral_gap_of_stiff_modes_crowding_below_one(monkeypatch, family):
    # with M = 4 and dt * lambda_max ~ 1700, Crank-Nicolson leaves the stiff
    # modes at eigenvalues just below 1, where only the looser ARPACK
    # tolerance converges; the gap is then good to that tolerance
    tols = []
    eigs = scipy.sparse.linalg.eigs

    def recording_eigs(*args, **kwargs):
        tols.append(kwargs["tol"])
        return eigs(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording_eigs)
    config = IVPConfig(n_nodes=256, n_steps=4, scheme="crank_nicolson", zero_order="divergence")
    prop = Propagator(FAMILIES[family](), config, harmonic_forcing)
    periods = []
    run = Propagator.run

    def counting_run(self, *args, **kwargs):
        periods.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "run", counting_run)
    traj, report = monodromy_solve(prop, target_mean=1.0)
    n_periods = len(periods)
    oracle, sigma_min = dense_monodromy(prop, target_mean=1.0)
    assert tols == [1e-6, 1e-3]
    # the tight pass gives up after its restart cap, not after ~300 periods
    assert n_periods <= 250
    assert sigma_min <= report.spectral_gap <= sigma_min + 1e-3
    assert np.max(np.abs(traj - oracle)) <= 1e-10


def test_monodromy_zero_forcing_closed_form():
    prop = breathing_propagator(forcing=None, n=64, m=64)
    traj, report = monodromy_solve(prop, target_mean=1.0)
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    expected = np.stack([np.full(64, r(0.0) / r(t)) for t in prop.grid.times])
    assert np.max(np.abs(traj - expected)) <= 1e-12
    assert report.spectral_gap >= 1e-8


def test_monodromy_mean_constraint_and_periodicity():
    prop = breathing_propagator(forcing=harmonic_forcing, n=64, m=64)
    traj, _ = monodromy_solve(prop, target_mean=1.0)
    weights0 = prop.geometry.weights0
    mean0, _ = mean_and_mass(weights0, traj[0])
    assert abs(mean0 - 1.0) <= 1e-12
    res = periodicity_residuals(traj, weights0)
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
    prop = Propagator(circle(), config, lambda th, t: np.cos(th))
    with pytest.raises(NonuniquenessError):
        monodromy_solve(prop, target_mean=0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_nonuniqueness_behind_an_expanding_mode_raises(k):
    # the first mode grows and the second is neutral, so the rightmost
    # eigenvalue is far from 1 and the unit one sits to its left
    n, m = 32, 16
    grid = ParameterGrid(n, m, 1.0)
    lam2 = (2.0 - 2.0 * math.cos(2.0 * grid.dtheta)) / grid.dtheta**2
    config = IVPConfig(
        n_nodes=n, n_steps=m, scheme="backward_euler", zero_order="constant",
        coefficient=-lam2,
    )
    prop = Propagator(circle(), config, lambda th, t: np.cos(k * th))
    with pytest.raises(NonuniquenessError, match="one to round-off") as info:
        monodromy_solve(prop, target_mean=0.0)
    assert info.value.spectral_gap <= 1e-12


def test_krylov_solve_stopped_above_tolerance_raises(monkeypatch):
    # one inner iteration in one restart cycle cannot reach rtol
    gmres = scipy.sparse.linalg.gmres
    monkeypatch.setattr(
        scipy.sparse.linalg, "gmres",
        lambda *args, **kwargs: gmres(*args, **{**kwargs, "restart": 1, "maxiter": 1}),
    )
    prop = breathing_propagator(forcing=harmonic_forcing, n=64, m=64)
    with pytest.raises(NonuniquenessError, match="GMRES stopped above its tolerance") as info:
        monodromy_solve(prop, target_mean=1.0)
    assert info.value.spectral_gap > 0.5


def test_periodicity_residuals_constant_trajectory():
    prop = breathing_propagator(forcing=None, n=64, m=64)
    traj, _ = monodromy_solve(prop, target_mean=0.0)
    weights0 = prop.geometry.weights0
    res = periodicity_residuals(traj, weights0)
    mean_drift = mean_and_mass(weights0, traj[-1])[0] - mean_and_mass(weights0, traj[0])[0]
    assert res.relaxed <= 1e-13 and res.strict <= 1e-13 and abs(mean_drift) <= 1e-13


def test_fixed_point_conservative_closed_form():
    prop = breathing_propagator(forcing=None, n=64, m=64)
    report = fixed_point_solve(prop, target_mean=1.0, tol=1e-10, max_iter=40)
    assert report.converged
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    expected = np.stack([np.full(64, r(0.0) / r(t)) for t in prop.grid.times])
    assert np.max(np.abs(report.trajectory - expected)) <= 1e-6
    res = periodicity_residuals(report.trajectory, prop.geometry.weights0)
    assert res.strict <= 1e-10  # zero forcing satisfies the compatibility integral


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        IVPConfig(256, 512, "leapfrog", "zero")
    with pytest.raises(ValueError):
        IVPConfig(256, 512, "crank_nicolson", "nonsense")
    with pytest.raises(ValueError):
        IVPConfig(256, 512, "crank_nicolson", "custom")  # not a mode
    with pytest.raises(ValueError):
        fixed_point_solve(breathing_propagator(n=32, m=16), target_mean=1.0, tol=-1.0,
                          max_iter=40)


def test_exponential_decay_scenario_mean_drift():
    config = IVPConfig(
        n_nodes=128, n_steps=256, scheme="crank_nicolson",
        zero_order="divergence_plus_constant", coefficient=0.5,
    )
    prop = Propagator(breathing_circle(), config)
    traj, _ = monodromy_solve(prop, target_mean=1.0)
    weights0 = prop.geometry.weights0
    res = periodicity_residuals(traj, weights0)
    mean_drift = mean_and_mass(weights0, traj[-1])[0] - mean_and_mass(weights0, traj[0])[0]
    expected = math.exp(-0.5) - 1.0
    assert abs(mean_drift - expected) <= 1e-4
    assert res.relaxed <= 1e-8


def manufactured_problem(surface, grid, zero_order, k, phi, a):
    """u* = cos(k theta + phi + sin 2 pi t)(1 + a sin 2 pi t) + 0.5, periodic
    with period 1, and the forcing (1/sqrt g) d_theta(d_theta u* / sqrt g)
    - d_t u* - c u* that makes it the periodic solution, with
    c = X_theta . X_t_theta / g in the divergence mode and 0 in the zero mode;
    both as (M+1, N) samples from the chart jets."""
    theta, t = grid.nodes, grid.times[:, None]
    _, xd, xdd, _, xtd = surface.jet(theta, t)
    g = np.einsum("...a,...a->...", xd, xd)
    g_theta = 2.0 * np.einsum("...a,...a->...", xd, xdd)
    phase = 2.0 * np.pi * t
    psi, amp = k * theta + phi + np.sin(phase), 1.0 + a * np.sin(phase)
    u = np.cos(psi) * amp + 0.5
    u_theta, u_theta2 = -k * np.sin(psi) * amp, -k * k * np.cos(psi) * amp
    u_t = 2.0 * np.pi * np.cos(phase) * (a * np.cos(psi) - np.sin(psi) * amp)
    diffusion = u_theta2 / g - 0.5 * u_theta * g_theta / g**2
    c = np.einsum("...a,...a->...", xd, xtd) / g if zero_order == "divergence" else 0.0
    return u, diffusion - u_t - c * u


def manufactured_solves(family, zero_order, scheme, steps_per_node, k, phi, a):
    """(prop, exact, target mean, monodromy trajectory) of the manufactured
    problem at N = 32, 64, 128."""
    surface = FAMILIES[family]()
    for n in (32, 64, 128):
        config = IVPConfig(n, steps_per_node * n, scheme, zero_order)
        exact, forcing = manufactured_problem(surface, config.grid(surface.period), zero_order,
                                              k, phi, a)
        prop = Propagator(surface, config, lambda th, t: forcing)
        target_mean, _ = mean_and_mass(prop.geometry.weights0, exact[0])
        traj, _ = monodromy_solve(prop, target_mean)
        yield prop, exact, target_mean, traj


@pytest.mark.parametrize("scheme, steps_per_node, order", [("crank_nicolson", 1, 2.0),
                                                           ("backward_euler", 4, 1.0)])
@pytest.mark.parametrize("zero_order", ["zero", "divergence"])
@pytest.mark.parametrize("family", ["breathing", "ellipse", "bean"])
def test_manufactured_periodic_solution_converges_at_scheme_order(family, zero_order, scheme,
                                                                  steps_per_node, order):
    errors = []
    for prop, exact, target_mean, traj in manufactured_solves(family, zero_order, scheme,
                                                              steps_per_node, k=2, phi=0.0, a=0.3):
        errors.append(float(np.max(np.abs(traj - exact))))
        if prop.grid.n_nodes == 64:
            report = fixed_point_solve(prop, target_mean, tol=1e-12, max_iter=100)
            assert report.converged
            assert np.max(np.abs(report.trajectory - traj)) <= 1e-11
    assert abs(mean_order(errors) - order) <= 0.3


@st.composite
def scheme_and_wave_number(draw):
    """(scheme, M/N, order, k): backward Euler draws k <= 2 only.  At k = 3
    and 4 its O(k^2 dtheta^2) spatial error still matches the O(dt) time
    error at these N, so the observed order is mixed (1.3 to 2.0 measured),
    which says nothing against the scheme; Crank-Nicolson stays within 0.03
    of order 2 up to k = 4."""
    scheme, steps_per_node, order = draw(st.sampled_from([("crank_nicolson", 1, 2.0),
                                                          ("backward_euler", 4, 1.0)]))
    return scheme, steps_per_node, order, draw(st.integers(1, 4 if order == 2.0 else 2))


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(case=scheme_and_wave_number(), family=st.sampled_from(["breathing", "ellipse", "bean"]),
       zero_order=st.sampled_from(["zero", "divergence"]),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True), a=st.floats(0.0, 0.5))
def test_manufactured_periodic_solutions_of_any_phase_wave_and_amplitude(case, family,
                                                                         zero_order, phi, a):
    scheme, steps_per_node, order, k = case
    errors = [float(np.max(np.abs(traj - exact))) for _, exact, _, traj in
              manufactured_solves(family, zero_order, scheme, steps_per_node, k, phi, a)]
    assert abs(mean_order(errors) - order) <= 0.3
