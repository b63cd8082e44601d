import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periflow import FAMILIES, ConfigError, build_band, contraction_estimate, evolution, lift_field
from periflow.cli import SCENARIOS, emit_field_csv, main, parse_config, run_scenario


def write_config(tmp_path: Path, body: str, name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(body)
    return path


MINIMAL = """
[surface]
family = circle

[problem]
scenario = ivp_decay
"""


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.n_nodes == 256
    assert cfg.n_steps == 512
    assert cfg.scheme == "crank_nicolson"
    assert cfg.scenario == "ivp_decay"
    assert cfg.surface_family == "circle"


def test_parse_rejects_unknown_key(tmp_path):
    bad = MINIMAL + "\n[discretization]\nwhatever = 3\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_config(tmp_path, bad))


def test_parse_rejects_malformed_line(tmp_path):
    bad = "[discretization]\nn_nodes 256\n"
    with pytest.raises(ConfigError, match="line"):
        parse_config(write_config(tmp_path, bad))


def test_contraction_precondition_message(tmp_path):
    body = "[problem]\nscenario = contraction\nc0 = 0.5\n"
    with pytest.raises(ConfigError, match="must exceed ln2/T"):
        parse_config(write_config(tmp_path, body))
    ok = "[problem]\nscenario = contraction\nc0 = 1.0\n"
    cfg = parse_config(write_config(tmp_path, ok, name="ok.cfg"))
    assert cfg.c0 == 1.0
    threshold = math.log(2.0) / cfg.period
    assert cfg.c0 > threshold


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config" in capsys.readouterr().err


def test_usage_without_required_flag_exits_2():
    assert main(["run"]) == 2


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("ivp", "periodic-monodromy", "band-check", "holder"):
        assert name in out


def test_emit_field_csv_round_trips(tmp_path):
    # the trajectory writer keeps its old name; it writes a .npy array
    values = np.random.default_rng(1).standard_normal((3, 4))
    values[0, 1], values[2, 3], values[1, 0] = -0.0, np.nan, 5e-324
    path = tmp_path / "trajectory.npy"
    digest = emit_field_csv(values, path)
    loaded = np.load(path, allow_pickle=False)
    assert loaded.dtype == np.float64 and loaded.shape == (3, 4)
    assert loaded.flags.c_contiguous
    assert np.array_equal(loaded.view(np.uint64), values.view(np.uint64))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    # the header is fixed by dtype, shape and order, so equal arrays give equal files
    assert emit_field_csv(values.copy(order="F"), tmp_path / "again.npy") == digest


def run_and_digest(tmp_path, body, sub):
    cfg = parse_config(write_config(tmp_path, body, name=f"{sub}.cfg"))
    out = tmp_path / sub
    manifest = run_scenario(cfg, out)
    digests = {}
    for name, sha in manifest.outputs:
        digests[name] = sha
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha
    return manifest, digests


SMALL_IVP = """
[surface]
family = breathing
amplitude = 0.25

[problem]
scenario = ivp
zero_order = divergence
u0 = 1 + 0*theta

[discretization]
n_nodes = 32
n_steps = 16
"""


def test_run_ivp_scenario_passes(tmp_path):
    manifest, digests = run_and_digest(tmp_path, SMALL_IVP, "a")
    assert manifest.all_passed
    assert "trajectory.npy" in digests and "mass_ledger.csv" in digests
    assert (tmp_path / "a" / "manifest.txt").exists()


def test_ivp_divergence_default_u0_exits_0(tmp_path):
    # the default u0 = cos(theta) has mass ~1e-16, so the drift is measured
    # against the weighted L1 norm of u0
    path = write_config(tmp_path, SMALL_IVP.replace("u0 = 1 + 0*theta\n", ""))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


SMALL_MONO = """
[surface]
family = breathing
amplitude = 0.25

[problem]
scenario = periodic-monodromy
zero_order = divergence
forcing = cos(theta)*sin(2*pi*t/T)
target_mean = 1.0

[discretization]
n_nodes = 32
n_steps = 16
"""


def test_run_monodromy_scenario(tmp_path):
    manifest, _ = run_and_digest(tmp_path, SMALL_MONO, "mono")
    assert manifest.all_passed
    names = {c.name for c in manifest.checks}
    assert {"injectivity_indicator", "relaxed_residual", "initial_mean", "strict_residual"} <= names


def test_monodromy_writes_krylov_ledger(tmp_path):
    manifest, digests = run_and_digest(tmp_path, SMALL_MONO, "mono")
    assert "krylov_ledger.csv" in digests
    lines = (tmp_path / "mono" / "krylov_ledger.csv").read_text().splitlines()
    assert lines[0] == "iterate,residual"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, len(lines)))
    assert float(lines[-1].split(",")[1]) <= 1e-13


def test_monodromy_runs_beyond_the_old_dense_node_cap(tmp_path):
    body = SMALL_MONO.replace("n_nodes = 32", "n_nodes = 2050").replace("n_steps = 16",
                                                                          "n_steps = 4")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


SMALL_ELLIPSE_FIXED = """
[surface]
family = ellipse

[problem]
scenario = periodic-fixed
zero_order = divergence
forcing = cos(theta)*sin(2*pi*t/T)
max_iter = 6

[discretization]
n_nodes = 32
n_steps = 16
"""


@pytest.mark.parametrize("scenario", ["periodic-fixed", "contraction"])
def test_fixed_point_fail_states_predicted_iterations(tmp_path, capsys, scenario):
    body = SMALL_ELLIPSE_FIXED.replace("periodic-fixed", scenario)
    if scenario == "contraction":
        body = body.replace("zero_order = divergence", "c0 = 0.8")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "check fixed_point_converged: FAIL" in capsys.readouterr().out
    manifest = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    notes = [line for line in manifest if line.startswith("note fixed_point_converged:")]
    assert len(notes) == 1
    predicted = int(notes[0].split("predicted_iterations=")[1].split()[0])
    if scenario == "periodic-fixed":  # the ledger holds the last residual and ratio
        last = (tmp_path / "o" / "iteration_ledger.csv").read_text().splitlines()[-1]
        iterate, residual, ratio = (float(x) for x in last.split(","))
        assert iterate + 1 == 6
        assert predicted == 6 + math.ceil(math.log(1e-10 / residual) / math.log(ratio))
    assert predicted > 6


def test_run_fixed_point_scenario(tmp_path):
    body = SMALL_MONO.replace("periodic-monodromy", "periodic-fixed")
    manifest, digests = run_and_digest(tmp_path, body, "fixed")
    assert manifest.all_passed
    assert "iteration_ledger.csv" in digests


SMALL_CONTRACTION = """
[surface]
family = circle

[problem]
scenario = contraction
zero_order = constant
c0 = 1.0
forcing = cos(theta)*sin(2*pi*t/T)
target_mean = 0.0

[discretization]
n_nodes = 32
n_steps = 32
"""


def test_run_contraction_scenario(tmp_path):
    manifest, digests = run_and_digest(tmp_path, SMALL_CONTRACTION, "contr")
    assert manifest.all_passed
    assert "contraction_ledger.csv" in digests


SMALL_HOLDER = """
[surface]
family = circle

[problem]
scenario = holder

[discretization]
n_nodes = 32
n_steps = 16
"""


def test_run_holder_scenario(tmp_path):
    manifest, digests = run_and_digest(tmp_path, SMALL_HOLDER, "holder")
    assert manifest.all_passed
    assert "holder.csv" in digests


SMALL_BAND = """
[surface]
family = breathing

[problem]
scenario = band-check
"""

SMALL_CONFIGS = {
    "ivp": SMALL_IVP,
    "ivp_decay": SMALL_IVP.replace("scenario = ivp", "scenario = ivp_decay"),
    "periodic-fixed": SMALL_MONO.replace("periodic-monodromy", "periodic-fixed"),
    "periodic-monodromy": SMALL_MONO,
    "contraction": SMALL_CONTRACTION,
    "band-check": SMALL_BAND,
    "identities": SMALL_HOLDER.replace("scenario = holder", "scenario = identities"),
    "holder": SMALL_HOLDER,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_determinism_byte_identical(tmp_path, scenario):
    body = SMALL_CONFIGS[scenario]
    first_manifest, first = run_and_digest(tmp_path, body, "run1")
    _, second = run_and_digest(tmp_path, body, "run2")
    assert first_manifest.scenario == scenario
    assert first and first == second


FORCED_IVP = SMALL_IVP.replace("u0 = 1 + 0*theta", "forcing = cos(theta)*sin(2*pi*t/T)")


def test_ivp_trajectory_file_is_the_propagated_array(tmp_path):
    cfg = parse_config(write_config(tmp_path, FORCED_IVP))
    run_scenario(cfg, tmp_path / "o")
    prop = evolution.Propagator(FAMILIES["breathing"](amplitude=0.25), cfg.build_ivp_config(),
                                cfg.forcing())
    expected = prop.run(np.cos(prop.grid.nodes))  # the default u0 = cos(theta)
    written = np.load(tmp_path / "o" / "trajectory.npy", allow_pickle=False)
    assert written.shape == (cfg.n_steps + 1, cfg.n_nodes)
    assert np.array_equal(written.view(np.uint64), expected.view(np.uint64))


def test_band_field_file_is_the_active_node_array(tmp_path):
    cfg = parse_config(write_config(tmp_path, SMALL_BAND))
    manifest = run_scenario(cfg, tmp_path / "o")
    surface, t = cfg.build_surface(), cfg.band_time
    grid, dist = build_band(surface, t, cfg.band_h, cfg.band_delta)
    theta = np.arange(1024) * (2.0 * np.pi / 1024)  # the scenario's surface sampling
    lifted = lift_field(surface.jet(theta, t)[0][:, 0], theta, grid, dist)
    XX, YY = grid.mesh()
    act = grid.active_mask
    expected = np.stack([XX[act], YY[act], dist.dist[act], lifted[act]], 1)
    path = tmp_path / "o" / "band_field.npy"
    written = np.load(path, allow_pickle=False)
    assert written.dtype == np.float64 and written.flags.c_contiguous
    assert written.shape == (np.count_nonzero(act), 4)
    assert np.array_equal(written.view(np.uint64), expected.view(np.uint64))
    assert dict(manifest.outputs)["band_field.npy"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert not (tmp_path / "o" / "band_field.csv").exists()


@pytest.mark.parametrize(
    "body",
    [FORCED_IVP, SMALL_CONFIGS["periodic-fixed"], SMALL_MONO],
    ids=["ivp-forced", "periodic-fixed", "periodic-monodromy"],
)
def test_run_builds_one_propagator_and_samples_forcing_once(tmp_path, monkeypatch, body):
    samplings, builds = [], []
    sample_levels, init = evolution._sample_levels, evolution.Propagator.__init__

    def counting_sample_levels(fn, grid, quantity):
        if quantity == "forcing":
            samplings.append(grid)
        return sample_levels(fn, grid, quantity)

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evolution, "_sample_levels", counting_sample_levels)
    monkeypatch.setattr(evolution.Propagator, "__init__", counting_init)
    run_and_digest(tmp_path, body, "run")
    assert (len(samplings), len(builds)) == (1, 1)


def manifest_output_names(out: Path) -> list[str]:
    lines = (out / "manifest.txt").read_text().splitlines()
    return [line.split()[1] for line in lines if line.startswith("output ")]


def test_manifest_lists_only_files_this_run_wrote(tmp_path):
    fixed = SMALL_MONO.replace("periodic-monodromy", "periodic-fixed")
    run_and_digest(tmp_path, fixed, "shared")
    # listed by name, not in the order the scenario wrote them
    expected = ["iteration_ledger.csv", "mass_ledger.csv", "trajectory.npy"]
    assert manifest_output_names(tmp_path / "shared") == expected
    _, digests = run_and_digest(tmp_path, SMALL_HOLDER, "shared")
    assert list(digests) == ["holder.csv"]
    assert manifest_output_names(tmp_path / "shared") == ["holder.csv"]


def test_main_run_exit_zero(tmp_path):
    path = write_config(tmp_path, SMALL_IVP)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("key, quantity", [("forcing", "forcing"), ("u0", "initial state")])
def test_non_finite_samples_are_reported_where_sampled(tmp_path, capsys, key, quantity):
    body = SMALL_IVP.replace("u0 = 1 + 0*theta", f"{key} = 1/theta")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"{quantity} is not finite at node 0 (time level 0)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, expression",
    [("u0", "1/0"), ("forcing", "10.0**400"), ("u0", "(-1)**0.5")],
    ids=["division-by-zero", "overflow", "complex-result"],
)
def test_expression_evaluation_error_exits_2(tmp_path, capsys, key, expression):
    body = SMALL_IVP.replace("u0 = 1 + 0*theta", f"{key} = {expression}")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot evaluate expression {expression!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, expression", [("u0", "1/0"), ("forcing", "10.0**400")])
def test_config_error_in_a_scenario_leaves_no_directory_behind(tmp_path, key, expression):
    body = SMALL_IVP.replace("u0 = 1 + 0*theta", f"{key} = {expression}")
    path = write_config(tmp_path, body)
    fresh = tmp_path / "fresh" / "o"
    assert main(["run", "--config", str(path), "--out", str(fresh)]) == 2
    assert not (tmp_path / "fresh").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["run", "--config", str(path), "--out", str(kept)]) == 2
    assert kept.is_dir() and not any(kept.iterdir())


@pytest.mark.parametrize("where", ["flag", "key"])
def test_output_directory_naming_a_file_exits_2(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("")
    body, flags = SMALL_HOLDER, ["--out", str(taken)]
    if where == "key":
        body, flags = SMALL_HOLDER + f"\n[output]\ndirectory = {taken}\n", []
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), *flags]) == 2
    assert f"config error: cannot create output directory {taken}" in capsys.readouterr().err


def test_violated_contraction_bound_fails_and_keeps_the_ledger(tmp_path, capsys, monkeypatch):
    # scaling every end state by 4 lifts the end-map ratio above its decay bound
    run = evolution.Propagator.run

    def inflated_run(self, u0, include_forcing=True, keep_trajectory=True):
        out = run(self, u0, include_forcing, keep_trajectory)
        return out if keep_trajectory else 4.0 * out

    monkeypatch.setattr(evolution.Propagator, "run", inflated_run)
    path = write_config(tmp_path, SMALL_CONTRACTION)
    est = contraction_estimate(parse_config(path).propagator())
    assert est.end_map_ratio > est.bound
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    line = (f"check end_map_ratio_bound: FAIL (value={est.end_map_ratio:.6e}, "
            f"tol={est.bound:.6e})")
    assert line in capsys.readouterr().out
    assert "contraction_ledger.csv" in manifest_output_names(tmp_path / "o")


BAD_VALUE = """
[surface]
family = breathing
{surface}

[problem]
scenario = band-check

[discretization]
{discretization}
"""


@pytest.mark.parametrize(
    "surface, discretization",
    [
        ("amplitude = abc", ""),
        ("amplitude = 1.5", ""),
        ("period = -1", ""),
        ("", "band_h = 0"),
    ],
    ids=["amplitude-not-a-number", "amplitude-out-of-range", "negative-period", "zero-band-h"],
)
def test_bad_values_exit_2(tmp_path, capsys, surface, discretization):
    body = BAD_VALUE.format(surface=surface, discretization=discretization)
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, flags, message",
    [
        (SMALL_HOLDER + "\n[output]\nseed = -1\n", [], "seed must be non-negative, got -1"),
        (SMALL_HOLDER, ["--seed", "-1"], "seed must be non-negative, got -1"),
        (SMALL_CONFIGS["periodic-fixed"].replace("target_mean = 1.0\n",
                                                 "target_mean = 1.0\nmax_iter = 0\n"),
         [], "max_iter must be at least 1"),
    ],
    ids=["seed-key", "seed-flag", "zero-max-iter"],
)
def test_bad_run_settings_exit_2(tmp_path, capsys, body, flags, message):
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


UNREAD_COEFFICIENT = """
[problem]
scenario = {scenario}
zero_order = {mode}
{key} = 1.0

[discretization]
n_nodes = 32
n_steps = 16
"""


@pytest.mark.parametrize(
    "scenario, mode, key, resolved",
    [
        ("ivp", "divergence", "c0", "divergence"),
        ("ivp", "divergence", "alpha", "divergence"),
        ("ivp", "zero", "c0", "zero"),
        ("ivp", "constant", "alpha", "constant"),
        ("ivp", "divergence_plus_constant", "c0", "divergence_plus_constant"),
        ("ivp_decay", "constant", "c0", "zero"),
        ("contraction", "divergence", "alpha", "constant"),
    ],
)
def test_coefficient_key_the_zero_order_mode_does_not_read_exits_2(
    tmp_path, capsys, scenario, mode, key, resolved
):
    # c0 is read only by `constant`, alpha only by `divergence_plus_constant`,
    # each after the scenario presets resolve the mode
    path = write_config(tmp_path, UNREAD_COEFFICIENT.format(scenario=scenario, mode=mode, key=key))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{key} is not read by zero_order = {resolved}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


UNREAD_U0 = """
[surface]
family = breathing

[problem]
scenario = {scenario}
u0 = 5 + sin(theta)
{extra}
[discretization]
n_nodes = 32
n_steps = 16
"""


@pytest.mark.parametrize(
    "scenario", ["periodic-fixed", "periodic-monodromy", "contraction", "band-check",
                 "identities", "holder"],
)
def test_u0_in_a_scenario_that_does_not_read_it_exits_2(tmp_path, capsys, scenario):
    # only ivp and ivp_decay start from u0; the manifest must not record an unread one
    extra = "c0 = 1.0\n" if scenario == "contraction" else ""
    path = write_config(tmp_path, UNREAD_U0.format(scenario=scenario, extra=extra))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"u0 is not read by scenario = {scenario}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_records_resolved_presets(tmp_path):
    contraction = """
[surface]
family = circle

[problem]
scenario = contraction
zero_order = divergence
c0 = 1.0

[discretization]
n_nodes = 32
n_steps = 32
"""
    manifest, _ = run_and_digest(tmp_path, contraction, "contr")
    assert manifest.resolved["zero_order"] == "constant"
    assert "zero_order = constant" in (tmp_path / "contr" / "manifest.txt").read_text()

    decay = MINIMAL + "forcing = sin(theta)\n\n[discretization]\nn_nodes = 32\nn_steps = 16\n"
    manifest, _ = run_and_digest(tmp_path, decay, "decay")
    assert manifest.resolved["forcing_expr"] is None
    assert manifest.resolved["u0_expr"] == "cos(theta)"
    assert "forcing_expr = None" in (tmp_path / "decay" / "manifest.txt").read_text()

    # a plain ivp run without u0 starts from the default cos(theta)
    plain = "[problem]\nscenario = ivp\n\n[discretization]\nn_nodes = 32\nn_steps = 16\n"
    manifest, _ = run_and_digest(tmp_path, plain, "plain")
    assert manifest.resolved["u0_expr"] == "cos(theta)"
    assert "u0_expr = cos(theta)" in (tmp_path / "plain" / "manifest.txt").read_text()


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    scheme=st.sampled_from(["backward_euler", "crank_nicolson"]),
    mode=st.sampled_from(["zero", "constant", "divergence", "divergence_plus_constant"]),
    coefficient=st.floats(0.0, 4.0),
    forced=st.booleans(),
    n=st.integers(8, 32),
    m=st.integers(4, 16),
    scenario=st.sampled_from(["ivp", "periodic-fixed", "periodic-monodromy"]),
)
def test_random_configs_rerun_byte_identical(family, scheme, mode, coefficient, forced, n, m,
                                             scenario):
    key = {"constant": "c0", "divergence_plus_constant": "alpha"}.get(mode)
    body = (
        f"[surface]\nfamily = {family}\n\n[problem]\nscenario = {scenario}\n"
        f"zero_order = {mode}\n"
        + (f"{key} = {coefficient!r}\n" if key else "")
        + ("forcing = cos(theta)*sin(2*pi*t/T)\n" if forced else "")
        + f"\n[discretization]\nn_nodes = {n}\nn_steps = {m}\nscheme = {scheme}\n"
    )
    codes, files = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), body)
        for run in ("run1", "run2"):
            out = Path(tmp) / run
            codes.append(main(["run", "--config", str(path), "--out", str(out)]))
            data = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.txt"}
            assert manifest_output_names(out) == sorted(data)
            files.append(data)
    assert codes[0] == codes[1]
    assert files[0] == files[1]
