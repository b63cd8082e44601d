"""Experiment runner: config parsing, scenario dispatch, reproducible output.

Configs are INI files with sections [surface] [problem] [discretization]
[output]; unknown keys, and keys the run does not read (`SCENARIOS` lists
them), are rejected.  No scenario loads scipy.  Every run writes its
data files through `tables` (the trajectory as `trajectory.npy`,
everything else as CSV) plus a manifest listing the configuration it
read, per-check pass/fail lines and the SHA-256 of each data file this run
wrote.
Identical configs and seeds produce byte-identical files.

Exit codes: 0 all checks passed, 1 a check or solver failed or sampled
data is not finite, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    compatibility_check,
    holder_estimate,
    interpolation_check,
    mass_ledger,
)
from .errors import ConfigError, PeriflowError
from .evolution import IVPConfig, Propagator
from .expressions import compile_expression
from .fields import AmbientField, ParameterGrid
from .metric import (
    assemble_metric,
    greens_formula_check,
    mean_and_mass,
    pullback_identity_check,
    trace_identity,
)
from .periodic import (
    _NORM_RTOL,
    _NORM_STEPS,
    FixedPointReport,
    SolvabilityReport,
    _check_iteration,
    _decay_rate,
    contraction_estimate,
    fixed_point_solve,
    monodromy_solve,
    periodicity_residuals,
)
from .surfaces import FAMILIES, SurfaceFamily, build_frame, commutator_check
from .tables import write_csv, write_npy

@dataclass
class ExperimentConfig:
    scenario: str = "ivp"
    surface_family: str = "circle"
    surface_params: dict = field(default_factory=dict)
    period: float = 1.0
    n_nodes: int = 256
    n_steps: int = 512
    scheme: str = "crank_nicolson"
    zero_order: str = "zero"
    c0: float = 0.0
    alpha: float = 0.0
    forcing_expr: str | None = None
    u0_expr: str = "cos(theta)"
    target_mean: float = 1.0
    tol: float = 1e-10
    max_iter: int = 40
    band_time: float = 0.0
    band_h: float = 1.0 / 128.0
    band_delta: float = 0.2
    out_dir: str = "periflow-out"
    seed: int = 0

    def build_surface(self) -> SurfaceFamily:
        return FAMILIES[self.surface_family](period=self.period, **self.surface_params)

    def build_ivp_config(self) -> IVPConfig:
        key = _COEFFICIENT_KEYS.get(self.zero_order)
        return IVPConfig(self.n_nodes, self.n_steps, self.scheme, self.zero_order,
                         getattr(self, key) if key else 0.0)

    def propagator(self) -> Propagator:
        """The run's one stepper: surface, discretization and forcing."""
        return Propagator(self.build_surface(), self.build_ivp_config(), self.forcing())

    def forcing(self):
        if self.forcing_expr is None:
            return None
        return compile_expression(self.forcing_expr, self.period)

    def _unread_by(self, key: str) -> str | None:
        """The setting under which this run leaves the INI `key` unread, or None."""
        if key in _RULED and key not in SCENARIOS[self.scenario][2]:
            return f"scenario = {self.scenario}"
        if key in _COEFFICIENT_KEYS.values() and key != _COEFFICIENT_KEYS.get(self.zero_order):
            return f"zero_order = {self.zero_order}"
        return None


def _parse_value(key: str, text: str, kind: type):
    """`text` as `kind`: str, int or a finite float."""
    try:
        value = kind(text)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"value of {key!r} is not {expected}: {text!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"value of {key!r} is not finite: {text!r}")
    return value


# scenario -> the [problem] keys its preset sets, with their values; no config may change them
_PRESETS = {
    "ivp_decay": {"forcing": None, "zero_order": "zero"},
    "contraction": {"zero_order": "constant"},
}
# zero-order mode -> the [problem] key of its coefficient; the other modes read none
_COEFFICIENT_KEYS = {"constant": "c0", "divergence_plus_constant": "alpha"}
_GRID = {"n_nodes", "n_steps"}
_STEPPING = _GRID | {"family", "scheme", "zero_order", "c0", "alpha", "forcing"}
_PERIODIC = _STEPPING | {"target_mean", "tol"}

# INI (section, key) -> (ExperimentConfig field, value type); every other key
# of [surface] must be a parameter of the chosen family
_KEYS = {
    ("surface", "family"): ("surface_family", str),
    ("surface", "period"): ("period", float),
    ("problem", "scenario"): ("scenario", str),
    ("problem", "zero_order"): ("zero_order", str),
    ("problem", "c0"): ("c0", float),
    ("problem", "alpha"): ("alpha", float),
    ("problem", "forcing"): ("forcing_expr", str),
    ("problem", "u0"): ("u0_expr", str),
    ("problem", "target_mean"): ("target_mean", float),
    ("problem", "tol"): ("tol", float),
    ("problem", "max_iter"): ("max_iter", int),
    ("problem", "band_time"): ("band_time", float),
    ("discretization", "n_nodes"): ("n_nodes", int),
    ("discretization", "n_steps"): ("n_steps", int),
    ("discretization", "scheme"): ("scheme", str),
    ("discretization", "band_h"): ("band_h", float),
    ("discretization", "band_delta"): ("band_delta", float),
    ("output", "directory"): ("out_dir", str),
    ("output", "seed"): ("seed", int),
}
# the keys on which SCENARIOS rules, with the [surface] family's parameters
# going as `family` goes; every run reads the others
_RULED = {key for _, key in _KEYS} - {"scenario", "period", "directory"}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config; raises ConfigError with the
    offending line or key on malformed input."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # no section header is empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values, surface_params = {}, {}
    for section in parser.sections():
        if section not in {known for known, _ in _KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if (section, key) in _KEYS:
                name, kind = _KEYS[section, key]
                values[name] = _parse_value(key, text, kind)
            elif section == "surface":
                surface_params[key] = text
            else:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    scenario = values.get("scenario")
    for key, preset in _PRESETS.get(scenario, {}).items():
        given = values.setdefault(_KEYS["problem", key][0], preset)
        if given != preset:
            runs = f"no {key}" if preset is None else f"{key} = {preset}"
            raise ConfigError(f"{key} = {given} conflicts with scenario = {scenario}, "
                              f"which runs {runs}")
    cfg = ExperimentConfig(**values)
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}; see `periflow list-scenarios`")
    family = cfg.surface_family
    if family not in FAMILIES:
        raise ConfigError(f"unknown surface family {family!r}; choose from {sorted(FAMILIES)}")
    for (_, key), (name, _) in _KEYS.items():
        if name in values and (setting := cfg._unread_by(key)):
            raise ConfigError(f"{key} is not read by {setting}")
    allowed = inspect.signature(FAMILIES[family]).parameters
    for key, text in surface_params.items():
        if setting := cfg._unread_by("family"):
            raise ConfigError(f"{key} is not read by {setting}")
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [surface] for family {family!r}")
        cfg.surface_params[key] = _parse_value(key, text, float)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    try:  # the library owns the discretization, surface, iteration, band and decay checks
        # and raises ValueError; the key and seed checks keep their place between them
        cfg.build_surface()
        cfg.build_ivp_config()
        _check_iteration(cfg.tol, cfg.max_iter)
        _require_seed(cfg.seed)
        if "band_h" in SCENARIOS[cfg.scenario][2]:
            from .narrowband import _check_band_sizes

            _check_band_sizes(cfg.band_h, cfg.band_delta)
        if cfg.scenario == "contraction":  # its preset mode `constant` has the floor c0
            _decay_rate(cfg.c0, cfg.period)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.forcing()  # compiles the expression
    compile_expression(cfg.u0_expr, cfg.period)


def _require_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check {self.name}: {status} (value={self.value:.6e}, tol={self.threshold:.6e})"


@dataclass
class RunManifest:
    scenario: str
    resolved: dict
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # explain a check's verdict
    outputs: list[tuple[str, str]] = field(default_factory=list)  # (name, sha256)
    wall_clock_s: float = 0.0

    def check(self, name: str, value: float, threshold: float,
              passed: bool | None = None) -> None:
        """Record a check of a measured `value`; it passes when `value` <=
        `threshold` unless `passed` gives the verdict."""
        passed = value <= threshold if passed is None else passed
        self.checks.append(CheckResult(name, passed, value, threshold))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write(self, path: Path) -> None:
        lines = ["periflow run manifest", f"scenario: {self.scenario}"]
        lines += [f"  {k} = {v}" for k, v in sorted(self.resolved.items())]
        lines.append(f"versions: periflow={__version__} numpy={np.__version__} "
                     f"python={sys.version.split()[0]}")
        lines += [c.line() for c in self.checks]
        lines += [f"note {note}" for note in self.notes]
        lines += [f"output {name} sha256={digest}" for name, digest in sorted(self.outputs)]
        lines.append(f"wall_clock_s: {self.wall_clock_s:.3f}")
        tmp = path.with_suffix(".tmp")
        tmp.write_text("\n".join(lines) + "\n", newline="\n")
        tmp.replace(path)


def emit_field_csv(values: np.ndarray, path: str | Path) -> str:
    """Write the (M+1, N) nodal `values` as a float64 C-order `.npy` array
    (row k at `grid.times[k]`, column j at `grid.nodes[j]`); return its
    SHA-256.  The name predates the binary format and stays because the
    benchmark's span tracing finds the trajectory writer by it."""
    return write_npy(path, np.ascontiguousarray(values, dtype=np.float64))


def _resolved_dict(cfg: ExperimentConfig) -> dict:
    surface = {f"surface.{k}": v for k, v in cfg.surface_params.items()}
    return surface | {name: getattr(cfg, name) for (_, key), (name, _) in _KEYS.items()
                      if key != "directory" and cfg._unread_by(key) is None}


# --- scenario bodies ---------------------------------------------------------


def _check_fixed_point(report: FixedPointReport, tol: float, manifest: RunManifest) -> None:
    """The convergence check and, when it fails, the iteration count the last
    measured contraction ratio predicts."""
    manifest.check("fixed_point_converged", report.final_residual, tol, passed=report.converged)
    if report.converged:
        return
    if report.predicted_iterations is None:
        manifest.notes.append("fixed_point_converged: no contraction ratio below one "
                              "was measured, so no iteration count is predicted")
    else:
        manifest.notes.append(
            f"fixed_point_converged: predicted_iterations={report.predicted_iterations} "
            f"at the last ratio {report.ratios[-1]:.4f} (stopped after {report.iterations})"
        )


def _check_injectivity(report: SolvabilityReport, manifest: RunManifest) -> None:
    """The injectivity check of the monodromy route and a note of what its
    value is: a lower bound of sigma_min,W(I - K) from the norm estimate,
    or an upper bound from the eigenvalue nearest 1, and the periods each
    part of the solve spent."""
    value = report.indicator
    manifest.check("injectivity_indicator", value, 1e-8, passed=value >= 1e-8)
    kind = ("lower bound 1 - nu of sigma_min,W(I - K)" if report.lower_bound else
            "upper bound |1 - lambda| of sigma_min,W(I - K) at the eigenvalue nearest 1, "
            "since nu >= 1 leaves no lower bound")
    stop = (f"successive estimates of 1 - nu agreed to {_NORM_RTOL:g}" if report.norm_converged
            else f"the budget of {_NORM_STEPS} steps ran out")
    manifest.notes.append(
        f"injectivity_indicator: {kind}; nu = {report.norm:.6g} estimates ||K||_W by "
        f"Golub-Kahan, Ritz residual {report.norm_residual:.3g}, stopped as {stop}; periods: "
        f"{report.norm_periods} certifying + {report.solve_periods} solving = "
        f"{report.norm_periods + report.solve_periods}"
    )


def _scenario_ivp(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    prop = cfg.propagator()
    traj = prop.run(compile_expression(cfg.u0_expr, cfg.period)(prop.grid.nodes, 0.0))
    manifest.outputs.append(("trajectory.npy", emit_field_csv(traj, out / "trajectory.npy")))
    ledger = mass_ledger(traj, prop)
    manifest.outputs.append(("mass_ledger.csv", ledger.write_csv(out / "mass_ledger.csv")))
    manifest.check("finite_trajectory", 0.0, 0.0, passed=bool(np.all(np.isfinite(traj))))
    if cfg.zero_order == "divergence" and prop.forcing_integrals is None:
        # relative to the weighted L1 norm of u0: the mass of a mean-free u0 is ~1e-16
        scale = float(np.dot(prop.geometry.weights0, np.abs(traj[0])))
        drift = abs(ledger.masses[-1] - ledger.masses[0]) / max(scale, 1e-300)
        manifest.check("relative_mass_drift", drift, 1e-8)


def _scenario_periodic(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    prop = cfg.propagator()
    weights0 = prop.geometry.weights0
    if cfg.scenario == "periodic-fixed":
        report = fixed_point_solve(prop, cfg.target_mean, cfg.tol, cfg.max_iter)
        traj = report.trajectory
        ratios = np.full(len(report.residuals), np.nan)  # none for the first iterate
        ratios[1 : 1 + len(report.ratios)] = report.ratios
        digest = write_csv(out / "iteration_ledger.csv", ["iterate", "residual", "ratio"],
                           [np.arange(ratios.size), report.residuals, ratios])
        manifest.outputs.append(("iteration_ledger.csv", digest))
        _check_fixed_point(report, cfg.tol, manifest)
    else:
        traj, solve_report = monodromy_solve(prop, cfg.target_mean)
        history = solve_report.residuals
        digest = write_csv(out / "krylov_ledger.csv", ["iterate", "residual"],
                           [np.arange(1, len(history) + 1), history])
        manifest.outputs.append(("krylov_ledger.csv", digest))
        _check_injectivity(solve_report, manifest)
    manifest.outputs.append(("trajectory.npy", emit_field_csv(traj, out / "trajectory.npy")))
    residuals = periodicity_residuals(traj, weights0)
    tol = max(10.0 * cfg.tol, 1e-8)
    manifest.check("relaxed_residual", residuals.relaxed, tol)
    mean0, _ = mean_and_mass(weights0, traj[0])
    mean_err = abs(mean0 - cfg.target_mean)
    manifest.check("initial_mean", mean_err, 1e-12)
    compat = compatibility_check(prop)
    if cfg.zero_order == "divergence" and abs(compat) <= 1e-10:
        manifest.check("strict_residual", residuals.strict, tol)
    ledger = mass_ledger(traj, prop)
    manifest.outputs.append(("mass_ledger.csv", ledger.write_csv(out / "mass_ledger.csv")))


def _scenario_contraction(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    prop = cfg.propagator()
    est = contraction_estimate(prop, seed=cfg.seed)
    manifest.check("end_map_ratio_bound", est.end_map_ratio, est.bound or math.inf)
    header = ["probe", "end_map_ratio", "adjusted_ratio"]
    digest = write_csv(out / "contraction_ledger.csv", header,
                       [np.arange(len(est.end_map_ratios)), est.end_map_ratios,
                        est.adjusted_ratios])
    manifest.outputs.append(("contraction_ledger.csv", digest))
    manifest.check("adjusted_ratio_below_one", est.adjusted_ratio, 1.0,
                   passed=est.adjusted_ratio < 1.0)
    report = fixed_point_solve(prop, cfg.target_mean, cfg.tol, cfg.max_iter)
    _check_fixed_point(report, cfg.tol, manifest)


def _scenario_band(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    from .narrowband import (
        band_average_extract,
        band_field_csv,
        build_band,
        coarsen,
        eikonal_residual,
        extended_operator_apply,
        flat_strip_step_equivalence,
        lift_field,
        os_operator_equivalence,
    )

    surface = cfg.build_surface()
    t = cfg.band_time
    h, delta = cfg.band_h, cfg.band_delta
    grid, dist = build_band(surface, t, h, delta)
    href = h / (1.0 / 128.0)

    eik, eik_tol = eikonal_residual(grid, dist), 1e-4 * max(1.0, href**2)
    manifest.check("eikonal_residual", eik, eik_tol)

    # surface sampling fine enough that lift interpolation stays below the
    # band truncation error at every h in the refinement study
    n_surface = 1024
    theta = np.arange(n_surface) * (2.0 * np.pi / n_surface)
    u_surface = surface.jet(theta, t)[0][:, 0]  # first ambient coordinate
    lifted = lift_field(u_surface, grid, dist)
    extracted = band_average_extract(lifted, grid, dist, surface, t, theta)
    rt = float(np.max(np.abs(extracted - u_surface)))
    rt_tol = 1e-6 * max(1.0, href**3) * max(1.0, float(np.max(np.abs(u_surface))))
    manifest.check("lift_extract_roundtrip", rt, rt_tol)

    # identity-metric extension of the first coordinate, applied once per
    # grid: against its exact image, -curvature * normal_x at the foot, and
    # against the weighted-divergence form
    def band_errors(band_grid, band_dist):
        lift = band_dist.foot[..., 0]
        exact = -band_dist.curvature * band_dist.normal[..., 0]
        applied = extended_operator_apply(lift, band_grid, band_dist)
        identity = float(np.max(np.abs((applied - exact)[band_grid.active_mask])))
        return identity, os_operator_equivalence(lift, applied, band_grid, band_dist)

    grid2, dist2 = coarsen(grid, dist)
    (err, os_res), (err2, os_res2) = band_errors(grid, dist), band_errors(grid2, dist2)
    order = math.log2(err2 / err) if err > 0 else float("inf")
    manifest.check("extension_identity_order", order, 2.0, passed=1.4 <= order <= 2.7)

    os_order = math.log2(os_res2 / os_res) if os_res > 0 else float("inf")
    manifest.check("os_equivalence_order", os_order, 2.0, passed=1.4 <= os_order <= 2.7)

    flat = flat_strip_step_equivalence()
    manifest.check("flat_strip_step", flat, 1e-10)
    digest = band_field_csv(grid, dist, lifted, out / "band_field.npy")
    manifest.outputs.append(("band_field.npy", digest))


def _scenario_identities(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    t = 0.3 * cfg.period
    grid, rows = ParameterGrid(cfg.n_nodes, 4, cfg.period), []
    for name in ("circle", "breathing", "ellipse", "bean"):
        surface = FAMILIES[name](period=cfg.period)
        frame = build_frame(surface, grid, t)
        metric = assemble_metric(surface, grid, t)

        _, x_th, x_thth, _ = surface.jet(grid.nodes, t)
        comm = commutator_check(frame, x_th[:, 0], x_thth[:, 0])  # the field x1 on the curve
        _, _, trace_diff = trace_identity(metric, frame)
        green = greens_formula_check(metric, np.cos(grid.nodes), np.sin(2.0 * grid.nodes))
        x1 = AmbientField(
            fn=lambda p: p[..., 0],
            grad=lambda p: np.broadcast_to(np.array([1.0, 0.0]), p.shape).copy(),
            hess=lambda p: np.zeros(p.shape + (2,)),
        )
        errors = [
            pullback_identity_check(surface, ParameterGrid(n, 4, cfg.period), t, x1)
            for n in (64, 128, 256, 512)
        ]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        order = float(np.mean(orders))
        rows.append((name, comm, trace_diff, green, order))
        for check, value in (("commutator", comm), ("trace", trace_diff), ("greens", green)):
            manifest.check(f"{check}_{name}", value, 1e-9)
        manifest.check(f"pullback_order_{name}", order, 2.0, passed=abs(order - 2.0) <= 0.3)
    header = ["family", "commutator", "trace", "greens", "pullback_order"]
    digest = write_csv(out / "identities.csv", header, list(zip(*rows)))
    manifest.outputs.append(("identities.csv", digest))


def _scenario_holder(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    surface = cfg.build_surface()
    grid = ParameterGrid(min(cfg.n_nodes, 64), min(cfg.n_steps, 32), cfg.period)
    manifest.resolved.update(n_nodes=grid.n_nodes, n_steps=grid.n_steps)  # the grid it ran on
    theta = grid.nodes
    values = np.stack([np.cos(theta) * math.exp(-t) for t in grid.times])
    estimates = [holder_estimate(values, grid, surface, alpha) for alpha in (0.5, 1.0)]
    rows = [(str(est.alpha), est.sup_norm, est.holder_coefficient, est.time_holder,
             est.norm_alpha, est.norm_1_alpha, est.norm_2_alpha) for est in estimates]
    # alpha goes through as text so that it prints as 1.0, not 1
    header = "alpha,sup,holder_coefficient,time_holder,norm_alpha,norm_1_alpha,norm_2_alpha"
    digest = write_csv(out / "holder.csv", header.split(","), list(zip(*rows)))
    manifest.outputs.append(("holder.csv", digest))
    checks = interpolation_check(estimates[0], [0.5, 0.25, 0.125])  # the alpha = 0.5 estimate
    worst = max(lhs - rhs for _, lhs, rhs in checks)
    manifest.check("interpolation_inequality", worst, 0.0)


# scenario name -> (description, runner, the `_RULED` keys it reads)
SCENARIOS = {
    "ivp": ("initial value solve with mass ledger", _scenario_ivp, _STEPPING | {"u0"}),
    "ivp_decay": ("ivp preset: cosine initial data, no forcing, no zero-order term",
                  _scenario_ivp, _STEPPING | {"u0"}),
    "periodic-fixed": ("relaxed-periodic solve by the contraction iteration", _scenario_periodic,
                       _PERIODIC | {"max_iter"}),
    "periodic-monodromy": ("relaxed-periodic solve of the end-map system by Krylov shooting",
                           _scenario_periodic, _PERIODIC),
    "contraction": ("measure end-map contraction ratios against the decay bound",
                    _scenario_contraction, _PERIODIC | {"max_iter", "seed"}),
    "band-check": ("narrow-band extension identity suite", _scenario_band,
                   {"family", "band_time", "band_h", "band_delta"}),
    "identities": ("operator identity residuals across the shipped families",
                   _scenario_identities, {"n_nodes"}),
    "holder": ("Hölder estimator suite on a reference field", _scenario_holder,
               _GRID | {"family"}),
}


def run_scenario(cfg: ExperimentConfig, out_dir: str | Path) -> RunManifest:
    """Dispatch a parsed config, write outputs and the manifest to `out_dir`
    (`main` passes `--out`, else the config's `[output] directory`).  A
    config error raised inside the scenario removes the directories this
    call created, which are still empty then: expressions are evaluated
    before any file is written.  The scenario runs with numpy's
    floating-point warnings off: the finiteness checks of the samples and of
    each period's end state report non-finite values instead, with their
    time level and node."""
    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    manifest = RunManifest(scenario=cfg.scenario, resolved=_resolved_dict(cfg))
    started = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            SCENARIOS[cfg.scenario][1](cfg, out, manifest)
    except ConfigError:
        for directory in created:
            directory.rmdir()
        raise
    manifest.wall_clock_s = time.perf_counter() - started
    manifest.write(out / "manifest.txt")
    return manifest


def main(argv: list[str] | None = None) -> int:
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    parser = argparse.ArgumentParser(
        prog="periflow",
        description="Time-periodic advection-diffusion experiments on moving closed curves.",
        epilog="Config defaults: "
        + ", ".join(f"{key}={defaults[name]}" for (_, key), (name, _) in _KEYS.items()
                    if defaults[name] is not None),
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("--config", required=True, help="path to the INI config")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="RNG seed, read by contraction only (overrides config)")
    sub.add_parser("list-scenarios", help="list scenario names")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "list-scenarios":
        for name, (desc, *_) in SCENARIOS.items():
            print(f"{name:20s} {desc}")
        return 0
    if args.command != "run":
        parser.print_usage()
        return 2

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if setting := cfg._unread_by("seed"):
                raise ConfigError(f"seed is not read by {setting}")
            cfg.seed = _require_seed(args.seed)
        manifest = run_scenario(cfg, cfg.out_dir if args.out is None else args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PeriflowError as exc:
        print(f"scenario {getattr(args, 'config', '?')} failed: {exc}", file=sys.stderr)
        return 1

    for check in manifest.checks:
        print(check.line())
    for note in manifest.notes:
        print(f"note {note}")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
