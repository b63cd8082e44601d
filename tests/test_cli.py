import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periflow import FAMILIES, ConfigError, contraction_estimate, evolution
from periflow.cli import (SCENARIOS, ExperimentConfig, RunManifest, emit_field_csv, main,
                          parse_config, run_scenario)
from periflow.narrowband import build_band, lift_field


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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9\n[problem]\nscenario = ivp\n")  # Latin-1 e-acute
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot read config file {path}: ")
    assert "can't decode byte 0xe9" in line
    assert not (tmp_path / "o").exists()


def test_config_that_cannot_be_read_exits_2(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, MINIMAL)

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", denied)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot read config file {path}: [Errno 13] Permission denied\n")
    assert not (tmp_path / "o").exists()


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


def test_ellipse_fixed_point_predicts_the_iterations_it_takes(tmp_path, capsys):
    # the known slow contraction at the default grid: ratio 0.657 needs 49 iterations
    body = SMALL_ELLIPSE_FIXED.split("\n[discretization]")[0]
    short = write_config(tmp_path, body.replace("max_iter = 6", "max_iter = 40"), "short.cfg")
    assert main(["run", "--config", str(short), "--out", str(tmp_path / "short")]) == 1
    assert "check fixed_point_converged: FAIL" in capsys.readouterr().out
    note = ("note fixed_point_converged: predicted_iterations=49 at the last ratio 0.6567 "
            "(stopped after 40)")
    assert note in (tmp_path / "short" / "manifest.txt").read_text().splitlines()

    long = write_config(tmp_path, body.replace("max_iter = 6", "max_iter = 80"), "long.cfg")
    assert main(["run", "--config", str(long), "--out", str(tmp_path / "long")]) == 0
    ledger = (tmp_path / "long" / "iteration_ledger.csv").read_text().splitlines()
    assert int(ledger[-1].split(",")[0]) + 1 == 49  # iterates count from 0


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


def test_holder_manifest_records_the_grid_it_ran_on(tmp_path):
    # the default 256 x 512 grid is capped to the scenario's largest, 64 x 32
    path = write_config(tmp_path, "[problem]\nscenario = holder\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert "  n_nodes = 64" in lines and "  n_steps = 32" in lines


SMALL_BAND = """
[surface]
family = breathing

[problem]
scenario = band-check
"""

SMALL_CONFIGS = {
    "ivp": SMALL_IVP,
    # SMALL_IVP's zero_order = divergence would conflict with the preset's zero
    "ivp_decay": SMALL_IVP.replace("scenario = ivp", "scenario = ivp_decay")
                          .replace("zero_order = divergence\n", ""),
    "periodic-fixed": SMALL_MONO.replace("periodic-monodromy", "periodic-fixed"),
    "periodic-monodromy": SMALL_MONO,
    "contraction": SMALL_CONTRACTION,
    "band-check": SMALL_BAND,
    # it runs the four shipped families on n_nodes, so its config names no
    # family and no n_steps
    "identities": SMALL_HOLDER.replace("scenario = holder", "scenario = identities")
                              .replace("[surface]\nfamily = circle\n\n", "")
                              .replace("n_steps = 16\n", ""),
    "holder": SMALL_HOLDER,
}


def fresh_python(code: str, *args) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports periflow from this
    checkout, with `args` as its sys.argv[1:]."""
    env = {**os.environ, "PYTHONPATH": str(Path(evolution.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)


def test_no_config_parse_loads_scipy(tmp_path):
    # a fresh interpreter per config, since the tests import scipy as an oracle
    code = ("import sys, periflow, periflow.cli; periflow.cli.parse_config(sys.argv[1]); "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    for scenario, body in SMALL_CONFIGS.items():
        run = fresh_python(code, write_config(tmp_path, body, f"{scenario}.cfg"))
        assert run.returncode == 0, run.stderr
        assert not run.stdout.split(), (scenario, run.stdout)


@pytest.mark.parametrize("scenario", ["ivp", "periodic-fixed", "periodic-monodromy", "band-check"])
def test_a_scenario_runs_to_exit_0_with_scipy_unimportable(tmp_path, scenario):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; from periflow.cli import main; "
            "sys.exit(main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))")
    run = fresh_python(code, write_config(tmp_path, SMALL_CONFIGS[scenario]), tmp_path / "o")
    assert run.returncode == 0, run.stderr
    data_file = "band_field.npy" if scenario == "band-check" else "trajectory.npy"
    assert (tmp_path / "o" / data_file).exists()


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
    lifted = lift_field(surface.jet(theta, t)[0][:, 0], grid, dist)
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

    def counting_sample_levels(fn, grid):
        samplings.append(grid)
        return sample_levels(fn, grid)

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


@pytest.mark.parametrize("key, quantity", [("forcing", "forcing"), ("u0", "initial state")])
def test_non_finite_samples_are_reported_where_sampled(tmp_path, capsys, key, quantity):
    body = SMALL_IVP.replace("u0 = 1 + 0*theta", f"{key} = 1/theta")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"{quantity} is not finite at node 0 (time level 0)" in capsys.readouterr().err


# c0 = -15 keeps 1/dt + theta*c0 = 0.5 > 0, so every step matrix is positive
# definite, while the mean-free modes grow until the state overflows
EXPANDING_FIXED = """
[problem]
scenario = periodic-fixed
zero_order = constant
c0 = -15

[discretization]
n_nodes = 16
n_steps = 8
"""


@pytest.mark.parametrize(
    "body, message",
    [
        (SMALL_IVP.replace("u0 = 1 + 0*theta", "forcing = 1e300*cos(theta)*exp(700)"),
         "forcing is not finite at node 0 (time level 0)"),
        (EXPANDING_FIXED, "state is not finite at node 0 (time level 8)"),
        (EXPANDING_FIXED.replace("c0 = -15", "c0 = -30"),
         "step matrix is not positive definite: 1/dt + theta*c = -7 (time level 1)"),
    ],
    ids=["forcing-overflow", "expanding-step-overflow", "indefinite-step-matrix"],
)
def test_overflow_ends_with_its_one_error_line(tmp_path, capsys, body, message):
    # numpy's overflow warnings stay silent; the finiteness checks report the values
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"scenario {path} failed: {message}\n"


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
    est = contraction_estimate(parse_config(path).propagator(), seed=0)
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
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "body, flags, message",
    [
        (SMALL_CONTRACTION + "\n[output]\nseed = -1\n", [], "seed must be non-negative, got -1"),
        (SMALL_CONTRACTION, ["--seed", "-1"], "seed must be non-negative, got -1"),
        (SMALL_CONFIGS["periodic-fixed"].replace("target_mean = 1.0\n",
                                                 "target_mean = 1.0\nmax_iter = 0\n"),
         [], "max_iter must be at least 1"),
        (SMALL_IVP.replace("zero_order = divergence", "zero_order = custom"), [],
         "zero_order must be one of ('zero', 'constant', 'divergence', "
         "'divergence_plus_constant'), got 'custom'"),
        (SMALL_CONFIGS["ivp_decay"].replace("u0 = 1 + 0*theta", "forcing = cos(theta)"), [],
         "forcing = cos(theta) conflicts with scenario = ivp_decay, which runs no forcing"),
        (SMALL_IVP.replace("scenario = ivp", "scenario = ivp_decay"), [],
         "zero_order = divergence conflicts with scenario = ivp_decay, "
         "which runs zero_order = zero"),
        (SMALL_CONTRACTION.replace("zero_order = constant", "zero_order = divergence"), [],
         "zero_order = divergence conflicts with scenario = contraction, "
         "which runs zero_order = constant"),
        (SMALL_HOLDER.replace("family = circle\n", "family = circle\nradius = 0\n"), [],
         "radius must be positive, got 0.0"),
        (SMALL_HOLDER.replace("family = circle\n", "family = circle\nradius = -1\n"), [],
         "radius must be positive, got -1.0"),
        (SMALL_IVP.replace("amplitude = 0.25\n", "amplitude = 0.25\nr0 = 0\n"), [],
         "r0 must be positive, got 0.0"),
        (SMALL_HOLDER.replace("family = circle\n", "family = ellipse\na = 0\n"), [],
         "semi-axes a and b must be positive, got a=0.0, b=1.0"),
        # configparser would copy [DEFAULT] keys into every section, or drop them
        ("[DEFAULT]\nn_nodes = 64\nbogus = 1\n", [], "unknown config section [DEFAULT]"),
        ("[discretization]\nn_steps = 8\n\n[DEFAULT]\nn_nodes = 64\n", [],
         "unknown config section [DEFAULT]"),
    ],
    ids=["seed-key", "seed-flag", "zero-max-iter", "custom-zero-order", "ivp-decay-forcing",
         "ivp-decay-zero-order", "contraction-zero-order", "zero-radius", "negative-radius",
         "zero-r0", "zero-semi-axis", "default-section", "default-section-beside-another"],
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
        ("ivp_decay", "zero", "c0", "zero"),
        ("contraction", "constant", "alpha", "constant"),
    ],
)
def test_coefficient_key_the_zero_order_mode_does_not_read_exits_2(
    tmp_path, capsys, scenario, mode, key, resolved
):
    # c0 is read only by `constant`, alpha only by `divergence_plus_constant`;
    # the preset scenarios accept only their own mode
    path = write_config(tmp_path, UNREAD_COEFFICIENT.format(scenario=scenario, mode=mode, key=key))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{key} is not read by zero_order = {resolved}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the [problem], [discretization] and [output] keys but `directory`, and the
# [surface] family, that each scenario reads, stated here apart from cli.SCENARIOS
GRID_KEYS = {"n_nodes", "n_steps"}
STEPPING_KEYS = GRID_KEYS | {"family", "scheme", "zero_order", "c0", "alpha", "forcing"}
PERIODIC_KEYS = STEPPING_KEYS | {"target_mean", "tol"}
READS = {
    "ivp": STEPPING_KEYS | {"u0"}, "ivp_decay": STEPPING_KEYS | {"u0"},
    "periodic-fixed": PERIODIC_KEYS | {"max_iter"}, "periodic-monodromy": PERIODIC_KEYS,
    "contraction": PERIODIC_KEYS | {"max_iter", "seed"}, "identities": {"n_nodes"},
    "holder": GRID_KEYS | {"family"}, "band-check": {"family", "band_time", "band_h", "band_delta"},
}
# each of those keys -> (its section, a value that parses)
KEY_VALUES = {
    "family": ("surface", "bean"), "zero_order": ("problem", "zero"), "c0": ("problem", "1.0"),
    "alpha": ("problem", "1.0"),
    "forcing": ("problem", "cos(theta)"), "u0": ("problem", "5 + sin(theta)"),
    "target_mean": ("problem", "7.0"), "tol": ("problem", "1e-10"), "max_iter": ("problem", "10"),
    "band_time": ("problem", "0.5"), "n_nodes": ("discretization", "32"),
    "n_steps": ("discretization", "16"), "scheme": ("discretization", "backward_euler"),
    "band_h": ("discretization", "0.5"), "band_delta": ("discretization", "0.2"),
    "seed": ("output", "3"),
}


@pytest.mark.parametrize(
    "scenario, key",
    [*[(scenario, "u0") for scenario in ("periodic-fixed", "periodic-monodromy", "contraction",
                                         "band-check", "identities", "holder")],
     ("holder", "forcing"), ("holder", "target_mean"), ("holder", "band_time"),
     ("holder", "band_h"), ("band-check", "forcing"), ("band-check", "n_nodes"),
     ("identities", "scheme"), ("periodic-monodromy", "max_iter"), ("ivp", "target_mean"),
     ("periodic-fixed", "band_h"), ("identities", "n_steps"), ("holder", "seed"),
     ("band-check", "seed"), ("ivp", "--seed")],
    ids=lambda value: value,
)
def test_key_the_scenario_does_not_read_exits_2(tmp_path, capsys, scenario, key):
    # the manifest must not record a key the run did not read; `--seed` is
    # the flag that overrides the [output] seed
    flags = [key, "3"] if key.startswith("--") else []
    key = key.removeprefix("--")
    section, value = KEY_VALUES[key]
    lines = {"problem": "c0 = 1.0\n" if scenario == "contraction" else "", "discretization": "",
             "output": ""}
    if not flags:
        lines[section] += f"{key} = {value}\n"
    body = (f"[surface]\nperiod = 1.0\n\n[problem]\nscenario = {scenario}\n"
            f"{lines['problem']}\n[discretization]\n{lines['discretization']}"
            f"\n[output]\n{lines['output']}")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {key} is not read by scenario = {scenario}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("surface", ["family = circle", "family = bean\ndent = 0.1",
                                     "radius = 2.0"])
def test_identities_rejects_the_surface_keys_it_does_not_read(tmp_path, capsys, surface):
    # it runs the four shipped families with their default parameters at `period`
    body = SMALL_CONFIGS["identities"].replace(
        "[problem]", f"[surface]\n{surface}\nperiod = 2.0\n\n[problem]")
    path = write_config(tmp_path, body)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    key = surface.split(" = ")[0]
    assert capsys.readouterr().err == f"config error: {key} is not read by scenario = identities\n"
    assert not (tmp_path / "o").exists()


def resolved_names(out: Path) -> set[str]:
    lines = (out / "manifest.txt").read_text().splitlines()
    return {line.split(" = ")[0].strip() for line in lines if line.startswith("  ")}


def test_manifest_records_only_the_keys_the_run_read(tmp_path):
    run_and_digest(tmp_path, SMALL_BAND, "band")
    # no grid, stepping or periodic-solve key
    assert resolved_names(tmp_path / "band") == {"scenario", "surface_family", "period",
                                                 "band_time", "band_h", "band_delta"}
    run_and_digest(tmp_path, SMALL_CONFIGS["identities"], "identities")  # no surface
    assert resolved_names(tmp_path / "identities") == {"scenario", "period", "n_nodes"}
    run_and_digest(tmp_path, SMALL_CONTRACTION, "contraction")  # the one run that reads seed
    assert "seed" in resolved_names(tmp_path / "contraction")
    run_and_digest(tmp_path, SMALL_IVP, "ivp")  # zero_order = divergence reads no coefficient
    ivp = resolved_names(tmp_path / "ivp")
    assert "zero_order" in ivp and not ivp & {"c0", "alpha"}


# INI key -> its ExperimentConfig field, where the names differ
FIELD_OF_KEY = {"family": "surface_family", "forcing": "forcing_expr", "u0": "u0_expr"}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_runner_reads_the_keys_its_scenario_declares(tmp_path, monkeypatch, scenario):
    cfg = parse_config(write_config(tmp_path, SMALL_CONFIGS[scenario]))
    read = set()

    def recording(self, name):
        read.add(name)
        return object.__getattribute__(self, name)

    monkeypatch.setattr(ExperimentConfig, "__getattribute__", recording)
    SCENARIOS[scenario][1](cfg, tmp_path, RunManifest(scenario, {}))
    monkeypatch.undo()
    read &= {f.name for f in dataclasses.fields(ExperimentConfig)}
    declared = {FIELD_OF_KEY.get(key, key) for key in SCENARIOS[scenario][2]}
    if "surface_family" in declared:  # the family's parameters go with it
        declared.add("surface_params")
    # `scenario` picks the runner's branch; `period` and `directory` are outside the table
    outside = {"scenario", "period", "out_dir"}
    assert read <= declared | outside
    in_use = {"constant": "c0", "divergence_plus_constant": "alpha"}.get(cfg.zero_order)
    assert declared - ({"c0", "alpha"} - {in_use}) <= read


def test_manifest_records_resolved_presets(tmp_path):
    # a preset key left out takes the preset's value; repeating it changes nothing
    contraction = """
[surface]
family = circle

[problem]
scenario = contraction
c0 = 1.0

[discretization]
n_nodes = 32
n_steps = 32
"""
    manifest, digests = run_and_digest(tmp_path, contraction, "contr")
    assert manifest.resolved["zero_order"] == "constant"
    assert "zero_order = constant" in (tmp_path / "contr" / "manifest.txt").read_text()
    repeated = contraction.replace("c0 = 1.0", "zero_order = constant\nc0 = 1.0")
    assert run_and_digest(tmp_path, repeated, "repeated")[1] == digests

    decay = MINIMAL + "zero_order = zero\n\n[discretization]\nn_nodes = 32\nn_steps = 16\n"
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


FUZZ_EXPRESSIONS = ["cos(theta)*sin(2*pi*t/T)", "1 + 0*theta", "exp(-t)*cos(2*theta)"]
# (section, key, value) that parse_config rejects in every scenario
FUZZ_BAD_VALUES = [("discretization", "n_nodes", "abc"), ("discretization", "n_steps", "2"),
                   ("surface", "period", "-1"), ("discretization", "band_h", "0"),
                   ("discretization", "band_delta", "-0.2"), ("output", "seed", "-1"),
                   ("problem", "max_iter", "0"), ("problem", "tol", "-1"),
                   ("discretization", "scheme", "leapfrog")]
FUZZ_UNKNOWN_KEYS = [("discretization", "whatever", "3"), ("problem", "colour", "red"),
                     ("surface", "wobble", "0.1"), ("extra", "key", "1")]


@st.composite
def fuzzed_config(draw):
    """(INI text, perturbed): a consistent config whose keys appear only
    where read, plus at most one bad value, unknown key, unread key or
    conflicting preset."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    period = draw(st.sampled_from([None, 0.5, 2.0]))
    sections = {"surface": {}, "problem": {"scenario": scenario}, "discretization": {},
                "output": {}}
    if "family" in READS[scenario]:
        sections["surface"]["family"] = draw(st.sampled_from(sorted(FAMILIES)))
    if period is not None:
        sections["surface"]["period"] = repr(period)
    problem, disc = sections["problem"], sections["discretization"]
    mode = {"contraction": "constant"}.get(scenario)
    if scenario in ("ivp", "periodic-fixed", "periodic-monodromy"):
        mode = draw(st.sampled_from([None, "zero", "constant", "divergence",
                                     "divergence_plus_constant"]))
        if mode is not None:
            problem["zero_order"] = mode
    if mode == "constant":  # the contraction scenario needs c0 > ln2/T, T >= 0.5
        low = 1.5 if scenario == "contraction" else -2.0
        problem["c0"] = repr(draw(st.floats(low, 4.0)))
    elif mode == "divergence_plus_constant":
        problem["alpha"] = repr(draw(st.floats(-2.0, 4.0)))
    if scenario in ("ivp", "periodic-fixed", "periodic-monodromy", "contraction"):
        if draw(st.booleans()):
            problem["forcing"] = draw(st.sampled_from(FUZZ_EXPRESSIONS))
    if scenario in ("ivp", "ivp_decay") and draw(st.booleans()):
        problem["u0"] = draw(st.sampled_from(FUZZ_EXPRESSIONS))
    if scenario in ("periodic-fixed", "periodic-monodromy", "contraction"):
        problem["target_mean"] = repr(draw(st.floats(-1.0, 2.0)))
    if "max_iter" in READS[scenario]:
        problem["max_iter"] = str(draw(st.integers(1, 40)))
    if scenario == "contraction":
        sections["output"]["seed"] = str(draw(st.integers(0, 5)))
    if scenario == "band-check":
        problem["band_time"] = repr(draw(st.floats(0.0, 1.0)))
        disc["band_h"] = repr(draw(st.sampled_from([1.0 / 32.0, 1.0 / 16.0])))
        disc["band_delta"] = repr(draw(st.sampled_from([0.15, 0.2])))
    else:
        disc["n_nodes"] = str(draw(st.integers(8, 32)))
    if "n_steps" in READS[scenario]:
        disc["n_steps"] = str(draw(st.integers(4, 16)))
    if "scheme" in READS[scenario]:
        disc["scheme"] = draw(st.sampled_from(["backward_euler", "crank_nicolson"]))

    # every key the run leaves unread: those the scenario does not read and
    # the coefficient of a zero-order mode not drawn
    unread = set(KEY_VALUES) - READS[scenario]
    unread |= {key for key_mode, key in (("constant", "c0"), ("divergence_plus_constant", "alpha"))
               if key_mode != mode}
    perturbations = FUZZ_BAD_VALUES + FUZZ_UNKNOWN_KEYS
    perturbations += [(KEY_VALUES[key][0], key, KEY_VALUES[key][1]) for key in sorted(unread)]
    if scenario == "ivp_decay":
        perturbations += [("problem", "zero_order", "divergence"),
                          ("problem", "forcing", "cos(theta)")]
    if scenario == "contraction":
        perturbations.append(("problem", "zero_order", "zero"))
    perturbation = draw(st.none() | st.sampled_from(perturbations))
    if perturbation is not None:
        section, key, value = perturbation
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
                   for name, body in sections.items() if body)
    return text, perturbation is not None


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=fuzzed_config())
def test_fuzzed_configs_keep_the_exit_code_contract(case):
    # exit 0 or 1 on a consistent config, 2 on a perturbed one; stderr is
    # empty or its one error line, no warning escapes, a config error leaves
    # no output directory behind and a run that ends in its checks leaves a
    # manifest.  A band too wide for the curvature stays a scenario failure
    # (exit 1): `build_band` finds max|kappa| only at the band time
    text, perturbed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out" / "o")])
        lines = err.getvalue().splitlines()
        assert code == 2 if perturbed else code in (0, 1), (code, lines)
        assert not caught, [str(w.message) for w in caught]
        assert len(lines) <= 1 and err.getvalue() == "".join(f"{line}\n" for line in lines)
        if code == 2:
            assert lines[0].startswith("config error: ")
            assert not (Path(tmp) / "out").exists()
        elif lines:
            assert code == 1 and lines[0].startswith(f"scenario {path} failed: ")
        else:
            assert (Path(tmp) / "out" / "o" / "manifest.txt").is_file()
