"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import math

import numpy as np

from helpers import ambient_x1, ambient_x1x2, mean_order
from oracles import max_principle_monitor
from periflow import (
    IVPConfig,
    ParameterGrid,
    Propagator,
    assemble_metric,
    bean,
    breathing_circle,
    build_frame,
    circle,
    commutator_check,
    compatibility_check,
    contraction_estimate,
    fixed_point_solve,
    fourier_noise,
    greens_formula_check,
    mass_ledger,
    mean_and_mass,
    monodromy_solve,
    periodicity_residuals,
    pullback_identity_check,
    rotating_ellipse,
    trace_identity,
)
from periflow.cli import parse_config, run_scenario
from periflow.narrowband import (
    band_average_extract,
    build_band,
    eikonal_residual,
    flat_strip_step_equivalence,
    lift_field,
    os_operator_equivalence,
)

FAMILY_BUILDERS = {
    "circle": circle,
    "breathing": breathing_circle,
    "ellipse": rotating_ellipse,
    "bean": bean,
}


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def x1_derivatives(surface, grid, t):
    """Exact first and second theta derivatives of u = x1 on the curve."""
    _, x_th, x_thth, _, _ = surface.jet(grid.nodes, t)
    return x_th[:, 0], x_thth[:, 0]


def test_criterion_1_operator_identities():
    grid = ParameterGrid(256, 8, 1.0)
    t = 0.3
    ok = True
    for name, builder in FAMILY_BUILDERS.items():
        surface = builder()
        frame = build_frame(surface, grid, t)
        metric = assemble_metric(surface, grid, t)
        comm = commutator_check(frame, *x1_derivatives(surface, grid, t))
        _, _, trace_diff = trace_identity(metric, frame)
        green = greens_formula_check(metric, np.cos(grid.nodes), np.sin(2.0 * grid.nodes))
        ok &= report(f"criterion-1 commutator {name}", comm <= 1e-9, f"residual={comm:.3e}")
        ok &= report(f"criterion-1 trace {name}", trace_diff <= 1e-9, f"residual={trace_diff:.3e}")
        ok &= report(f"criterion-1 greens {name}", green <= 1e-9, f"residual={green:.3e}")

    pullback_cases = {
        "circle": ambient_x1(),
        "breathing": ambient_x1(),
        "ellipse": ambient_x1x2(),
        "bean": ambient_x1(),
    }
    for name, ambient in pullback_cases.items():
        errs = [
            pullback_identity_check(FAMILY_BUILDERS[name](), ParameterGrid(n, 4, 1.0), t, ambient)
            for n in (64, 128, 256, 512)
        ]
        order = mean_order(errs)
        ok &= report(
            f"criterion-1 pullback-order {name}",
            abs(order - 2.0) <= 0.3,
            f"order={order:.3f} errors={['%.2e' % e for e in errs]}",
        )
    assert ok


def test_criterion_2_heat_kernel():
    grid = ParameterGrid(256, 512, 1.0)
    config = IVPConfig(n_nodes=256, n_steps=512, scheme="crank_nicolson", zero_order="zero")
    traj = Propagator(circle(), config).run(np.cos(grid.nodes))
    err = max(
        float(np.max(np.abs(traj[k] - math.exp(-t) * np.cos(grid.nodes))))
        for k, t in enumerate(grid.times)
    )
    assert report("criterion-2 heat-kernel", err <= 5e-5, f"max error={err:.3e} tol=5e-5")


def test_criterion_3_conservation():
    grid = ParameterGrid(256, 1024, 1.0)
    config = IVPConfig(
        n_nodes=256, n_steps=1024, scheme="backward_euler", zero_order="divergence"
    )
    surface = breathing_circle()
    prop = Propagator(surface, config)
    traj = prop.run(np.ones(256))
    series = mass_ledger(traj, prop)
    drift = abs(series.masses[-1] - series.masses[0]) / abs(series.masses[0])
    r = lambda t: 1.0 + 0.25 * math.sin(2.0 * math.pi * t)
    closed = np.stack([np.full(256, r(0.0) / r(t)) for t in grid.times])
    sup = float(np.max(np.abs(traj - closed)))
    ok = report("criterion-3 mass-drift", drift <= 1e-8, f"relative drift={drift:.3e}")
    ok &= report("criterion-3 closed-form", sup <= 1e-6, f"sup error={sup:.3e}")
    assert ok


def test_criterion_4_contraction():
    config = IVPConfig(
        n_nodes=256, n_steps=512, scheme="backward_euler",
        zero_order="constant", coefficient=1.0,
    )
    prop = Propagator(
        circle(), config, lambda th, t: np.cos(th) * (np.sin(2.0 * math.pi * t) + 0.4)
    )
    est = contraction_estimate(prop, seed=0)
    eps = 0.5 * (math.log(2.0) + 1.0)
    bound = math.exp(-eps) * (1.0 + 3.0 * (prop.grid.dt + prop.grid.dtheta**2))
    ok = report(
        "criterion-4 end-map-ratio",
        est.end_map_ratio <= bound,
        f"measured={est.end_map_ratio:.4f} bound={bound:.4f}",
    )
    ok &= report(
        "criterion-4 adjusted-ratio",
        est.adjusted_ratio <= 2.0 * est.end_map_ratio and est.adjusted_ratio < 1.0,
        f"adjusted={est.adjusted_ratio:.4f} 2x-end={2.0 * est.end_map_ratio:.4f}",
    )
    fp = fixed_point_solve(prop, target_mean=0.0, tol=1e-10, max_iter=40)
    ok &= report(
        "criterion-4 fixed-point",
        fp.converged and fp.iterations <= 40 and fp.final_residual <= 1e-10,
        f"iterations={fp.iterations} residual={fp.final_residual:.3e}",
    )
    assert ok


def _conservative_forced_propagator(n=256, m=512):
    config = IVPConfig(n_nodes=n, n_steps=m, scheme="crank_nicolson", zero_order="divergence")
    forcing = lambda th, t: np.cos(th) * np.sin(2.0 * math.pi * t) + 0.5 * np.sin(
        th
    ) * np.cos(4.0 * math.pi * t)
    return Propagator(breathing_circle(), config, forcing)


def test_criterion_5_conservative_periodic_scenario():
    prop = _conservative_forced_propagator()
    compat = compatibility_check(prop)
    ok = report("criterion-5 compatibility", abs(compat) <= 1e-12, f"integral={compat:.3e}")
    traj, solve_report = monodromy_solve(prop, target_mean=1.0)
    res = periodicity_residuals(traj, prop.geometry.weights0)
    mean0, _ = mean_and_mass(prop.geometry.weights0, traj[0])
    ok &= report("criterion-5 strict-residual", res.strict <= 1e-8, f"residual={res.strict:.3e}")
    ok &= report("criterion-5 initial-mean", abs(mean0 - 1.0) <= 1e-12, f"|mean-1|={abs(mean0 - 1.0):.3e}")
    ok &= report(
        "criterion-5 injectivity",
        solve_report.spectral_gap >= 1e-8,
        f"spectral_gap={solve_report.spectral_gap:.3e}",
    )
    assert ok


def test_criterion_6_cross_method_agreement():
    prop = _conservative_forced_propagator()
    traj_m, _ = monodromy_solve(prop, target_mean=1.0)
    fp = fixed_point_solve(prop, target_mean=1.0, tol=1e-10, max_iter=60)
    gap = float(np.max(np.abs(traj_m - fp.trajectory)))
    ok = report(
        "criterion-6 agreement",
        fp.converged and gap <= 1e-8,
        f"converged={fp.converged} sup gap={gap:.3e}",
    )
    rng = np.random.default_rng(21)
    fp2 = fixed_point_solve(
        prop, target_mean=1.0, tol=1e-10, max_iter=60,
        start=fourier_noise(prop.grid.nodes, rng),
    )
    start_gap = float(np.max(np.abs(fp.trajectory[0] - fp2.trajectory[0])))
    ok &= report(
        "criterion-6 uniqueness-probe",
        fp2.converged and start_gap <= 1e-8,
        f"starts gap={start_gap:.3e}",
    )
    assert ok


def test_criterion_7_relaxed_periodicity_ledger():
    config = IVPConfig(
        n_nodes=256, n_steps=512, scheme="crank_nicolson",
        zero_order="divergence_plus_constant", coefficient=0.5,
    )
    prop = Propagator(breathing_circle(), config)
    traj, _ = monodromy_solve(prop, target_mean=1.0)
    weights0 = prop.geometry.weights0
    res = periodicity_residuals(traj, weights0)
    mean_drift = mean_and_mass(weights0, traj[-1])[0] - mean_and_mass(weights0, traj[0])[0]
    expected = 1.0 * (math.exp(-0.5 * 1.0) - 1.0)
    drift_err = abs(mean_drift - expected)
    ok = report(
        "criterion-7 mean-drift",
        drift_err <= 1e-4,
        f"drift={mean_drift:.6f} expected={expected:.6f} err={drift_err:.3e}",
    )
    ok &= report("criterion-7 relaxed-residual", res.relaxed <= 1e-8, f"residual={res.relaxed:.3e}")
    assert ok


def test_criterion_8_appendix_suite():
    surface = circle()
    theta = np.arange(1024) * (2.0 * np.pi / 1024)
    u = np.cos(theta)

    grid, dist = build_band(surface, 0.0, 1.0 / 128.0, 0.2)
    eik = eikonal_residual(grid, dist)
    ok = report("criterion-8 eikonal", eik <= 1e-4, f"residual={eik:.3e}")

    lifted = lift_field(u, grid, dist)
    extracted = band_average_extract(lifted, grid, dist, surface, 0.0, theta)
    rt = float(np.max(np.abs(extracted - u)))
    ok &= report("criterion-8 roundtrip", rt <= 1e-6, f"error={rt:.3e}")

    ext_errs, os_errs = [], []
    for h in (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0):
        g, d = build_band(surface, 0.0, h, 0.2)
        lf = lift_field(u, g, d)
        exact = lift_field(-u, g, d)
        from periflow.narrowband import extended_operator_apply

        applied = extended_operator_apply(lf, g, d)
        ext_errs.append(float(np.nanmax(np.abs((applied - exact)[g.active_mask]))))
        os_errs.append(os_operator_equivalence(lf, applied, g, d))
    ext_order = mean_order(ext_errs)
    os_order = mean_order(os_errs)
    ok &= report(
        "criterion-8 extension-order",
        abs(ext_order - 2.0) <= 0.3,
        f"order={ext_order:.3f} errors={['%.2e' % e for e in ext_errs]}",
    )
    ok &= report(
        "criterion-8 os-order",
        abs(os_order - 2.0) <= 0.3,
        f"order={os_order:.3f} errors={['%.2e' % e for e in os_errs]}",
    )

    flat = flat_strip_step_equivalence()
    ok &= report("criterion-8 flat-strip", flat <= 1e-10, f"discrepancy={flat:.3e}")
    assert ok


def test_criterion_9_max_principle():
    grid = ParameterGrid(128, 128, 1.0)
    config = IVPConfig(n_nodes=128, n_steps=128, scheme="backward_euler", zero_order="zero")
    ok = True
    for name, builder in FAMILY_BUILDERS.items():
        u0 = np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
        traj = Propagator(builder(), config).run(u0)
        mp = max_principle_monitor(traj)
        ok &= report(f"criterion-9 monotone {name}", mp.monotone, "node max non-increasing")
    forced = Propagator(circle(), config, lambda th, t: -np.ones_like(th)).run(np.cos(grid.nodes))
    mp = max_principle_monitor(forced)
    ok &= report(
        "criterion-9 negative-control",
        (not mp.monotone) and mp.first_violation_level == 1,
        f"violation at level {mp.first_violation_level}",
    )
    assert ok


DETERMINISM_CONFIG = """
[surface]
family = breathing
amplitude = 0.25

[problem]
scenario = periodic-monodromy
zero_order = divergence
forcing = cos(theta)*sin(2*pi*t/T)
target_mean = 1.0

[discretization]
n_nodes = 64
n_steps = 64
"""


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(DETERMINISM_CONFIG)
    digests = []
    for sub in ("one", "two"):
        cfg = parse_config(cfg_path)
        manifest = run_scenario(cfg, tmp_path / sub)
        per_file = {}
        for name, sha in manifest.outputs:
            data = (tmp_path / sub / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == sha
            per_file[name] = sha
        digests.append(per_file)
    ok = report(
        "criterion-10 determinism",
        digests[0] == digests[1] and len(digests[0]) > 0,
        f"{len(digests[0])} files byte-identical across reruns",
    )
    assert ok
