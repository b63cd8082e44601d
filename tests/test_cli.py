import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from periflow import ConfigError, ScalarField, SpaceTimeField
from periflow.cli import emit_field_csv, main, parse_config, run_scenario


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


def test_emit_field_csv_row_counts(tmp_path):
    static = ScalarField(np.array([1.0, 2.0, 3.0, 4.0]), 0.0)
    path = tmp_path / "static.csv"
    emit_field_csv(static, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == "t,theta,u"

    traj = SpaceTimeField(np.arange(12.0).reshape(3, 4), np.array([0.0, 0.5, 1.0]))
    path2 = tmp_path / "traj.csv"
    emit_field_csv(traj, path2)
    assert len(path2.read_text().splitlines()) == 13


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
    assert "trajectory.csv" in digests and "mass_ledger.csv" in digests
    assert (tmp_path / "a" / "manifest.txt").exists()


def test_determinism_byte_identical(tmp_path):
    _, first = run_and_digest(tmp_path, SMALL_IVP, "run1")
    _, second = run_and_digest(tmp_path, SMALL_IVP, "run2")
    assert first == second


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


def test_run_fixed_point_scenario(tmp_path):
    body = SMALL_MONO.replace("periodic-monodromy", "periodic-fixed")
    manifest, digests = run_and_digest(tmp_path, body, "fixed")
    assert manifest.all_passed
    assert "iteration_ledger.csv" in digests


def test_run_contraction_scenario(tmp_path):
    body = """
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
    manifest, digests = run_and_digest(tmp_path, body, "contr")
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


def manifest_output_names(out: Path) -> list[str]:
    lines = (out / "manifest.txt").read_text().splitlines()
    return [line.split()[1] for line in lines if line.startswith("output ")]


def test_manifest_lists_only_files_this_run_wrote(tmp_path):
    fixed = SMALL_MONO.replace("periodic-monodromy", "periodic-fixed")
    run_and_digest(tmp_path, fixed, "shared")
    # listed by name, not in the order the scenario wrote them
    expected = ["iteration_ledger.csv", "mass_ledger.csv", "trajectory.csv"]
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
