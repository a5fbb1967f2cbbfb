"""Config-driven experiment runner over the system catalog.

Subcommands
-----------
list-systems    catalog names, charts, and parameter schemas
simulate        integrate one trajectory; write trajectory + report + running averages
virial          integrate and write the averaged-rate report (+ running averages)
ensemble        Langevin ensemble report with error bars
gradcheck       finite-difference oracle over every analytic partial in the catalog
check-identity  assert the finite-horizon identity <rate of G> = (G(T)-G(t0))/(T-t0)

Configs are YAML mappings; every field can also be set (or overridden) by a
flag.  Unknown config keys and parameter names, numeric settings out of
range (T, dt, the tolerances and sample_interval must be finite and
positive), settings that the run would not read (_READS), and dt beside
sample_interval under rkf45 (which reads dt only as that interval's
default) are rejected before any computation.  Exit codes:
0 success, 2 config/validation error, 3 integration abort (partial artifacts
retained with an abort note), 4 identity/oracle breach — not a crash.

Deterministic configs produce byte-identical artifacts on re-runs; all
floats are emitted at 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from .core import NonFiniteError
from .integrate import (
    euler_maruyama_langevin,
    integrate_adaptive,
    integrate_fixed,
    write_trajectory_csv,
)
from .systems import (
    ParameterError,
    SYSTEM_NAMES,
    UnknownSystemError,
    _build,
    catalog_schema,
    make_system,
)
from .virial import (
    _fmt,
    ensemble_report,
    report_text,
    virial_report,
    write_running_averages,
)

try:  # package version, used in report metadata
    from importlib.metadata import version as _dist_version

    TOOL_VERSION = _dist_version("contactdyn")
except Exception:  # pragma: no cover - not installed
    TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_VERIFY = 4

_INTEGRATORS = ("rk4", "rkf45")


class ConfigError(ValueError):
    """Bad config file, flag value, or parameter set."""


@dataclass
class ExperimentConfig:
    """One experiment: system, chart, integrator knobs, horizon, outputs."""

    system: str = ""
    chart: str | None = None
    params: dict = field(default_factory=dict)
    integrator: str = "rk4"
    dt: float = 1e-3
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    T: float = 100.0
    t0: float = 0.0
    sample_every: int = 1
    sample_interval: float | None = None
    n_traj: int = 1000
    seed: int | None = None
    out: str = "out"
    identity_tol: float = 1e-8
    given: frozenset = frozenset()  # keys set by the config file or a flag


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"given"}
# the settings each command reads besides params, by how its system steps;
# any other setting given in the config file or as a flag is refused
_RUN = "system chart T out t0 identity_tol integrator dt"
_DETERMINISTIC = {"rk4": f"{_RUN} sample_every", "rkf45": f"{_RUN} rel_tol abs_tol sample_interval"}
_READS = {
    "simulate": {**_DETERMINISTIC, "euler-maruyama": "system chart T out dt sample_every seed"},
    "check-identity": _DETERMINISTIC,
    "ensemble": {"euler-maruyama": "system T out dt n_traj seed identity_tol"},
}
_READS["virial"] = _READS["simulate"]


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must be a mapping of settings")
    return data


def _parse_param_flags(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param needs key=value, got {pair!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"parameter {key!r} value {value!r} is not a number") from exc
    return params


def build_config(args) -> ExperimentConfig:
    """Merge defaults <- config file <- flags into a validated config."""
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        data = load_config_file(args.config)
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {sorted(unknown)}; "
                f"accepted: {sorted(_CONFIG_KEYS)}"
            )
        file_params = data.pop("params", {})
        if file_params is None:
            file_params = {}
        if not isinstance(file_params, dict):
            raise ConfigError("config 'params' must be a mapping")
        cfg = replace(cfg, **data, given=frozenset(data))
        cfg.params = dict(file_params)
    overrides = {
        name: getattr(args, name)
        for name in ("system", "chart", "integrator", "dt", "rel_tol", "abs_tol",
                     "T", "t0", "sample_every", "sample_interval", "n_traj",
                     "seed", "out", "identity_tol")
        if getattr(args, name, None) is not None
    }
    cfg = replace(cfg, **overrides, given=cfg.given | set(overrides))
    cfg.params.update(_parse_param_flags(getattr(args, "param", None)))

    def _num(name, value, kind):
        if value is None:
            return None
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config {name}={value!r} is not a number") from exc
        if kind is int and out != value:
            raise ConfigError(f"config {name}={value!r} must be an integer")
        return out

    cfg.T = _num("T", cfg.T, float)
    cfg.dt = _num("dt", cfg.dt, float)
    cfg.t0 = _num("t0", cfg.t0, float)
    cfg.rel_tol = _num("rel_tol", cfg.rel_tol, float)
    cfg.abs_tol = _num("abs_tol", cfg.abs_tol, float)
    cfg.identity_tol = _num("identity_tol", cfg.identity_tol, float)
    cfg.sample_interval = _num("sample_interval", cfg.sample_interval, float)
    cfg.sample_every = _num("sample_every", cfg.sample_every, int)
    cfg.n_traj = _num("n_traj", cfg.n_traj, int)
    cfg.seed = _num("seed", cfg.seed, int)

    if not cfg.system:
        raise ConfigError("a system name is required (config 'system' or --system)")
    if cfg.integrator not in _INTEGRATORS:
        raise ConfigError(f"integrator must be one of {_INTEGRATORS}, got {cfg.integrator!r}")
    for name in ("T", "dt", "rel_tol", "abs_tol", "identity_tol", "sample_interval"):
        value = getattr(cfg, name)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    if not (0 <= cfg.t0 < cfg.T):
        raise ConfigError(f"t0={cfg.t0!r} must satisfy 0 <= t0 < T")
    if cfg.sample_every < 1:
        raise ConfigError("sample_every must be >= 1")
    if cfg.n_traj < 2:
        raise ConfigError("n_traj must be >= 2")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    return cfg


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _make_spec(cfg: ExperimentConfig, command: str):
    """Build the system; refuse each given setting that `command` on it would not read."""
    try:
        spec = make_system(cfg.system, **cfg.params)
    except (UnknownSystemError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc
    stepping = "euler-maruyama" if spec.noise is not None else cfg.integrator
    reads = _READS[command].get(stepping)  # None: the command refuses the system itself
    unread = sorted(cfg.given - set(reads.split())) if reads else []
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ConfigError(f"`{command}` on '{spec.name}' steps {stepping} and does not "
                          f"read {flags} (flag or config key)")
    if stepping == "rkf45" and {"dt", "sample_interval"} <= cfg.given:
        raise ConfigError(f"`{command}` on '{spec.name}' steps rkf45, which reads --dt only "
                          "as the default --sample-interval; give one of the two")
    return spec


def _resolve_chart(spec, cfg):
    try:
        return cfg.chart or spec.default_chart, spec.chart(cfg.chart)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _noise(cfg: ExperimentConfig, spec):
    """The system's noise, reseeded when the config sets a seed."""
    return spec.noise if cfg.seed is None else replace(spec.noise, seed=cfg.seed)


def _integrate(cfg: ExperimentConfig, spec, chart_name, chart):
    meta = {"system": spec.name, "chart": chart_name}
    if spec.noise is not None:
        try:
            return euler_maruyama_langevin(
                chart, _noise(cfg, spec), cfg.T, cfg.dt,
                sample_every=cfg.sample_every, meta=meta,
            )
        except ValueError as exc:  # step checks against T and gamma
            raise ConfigError(str(exc)) from exc
    meta["integrator"] = cfg.integrator
    if cfg.integrator == "rk4":
        if not (cfg.dt <= cfg.T):
            raise ConfigError(f"dt={cfg.dt!r} must not exceed T={cfg.T!r}")
        meta.update({"dt": cfg.dt, "sample_every": cfg.sample_every})
        return integrate_fixed(
            chart.rhs, chart.x0, cfg.T, cfg.dt,
            layout=chart.layout, sample_every=cfg.sample_every, meta=meta,
        )
    # identity residuals are limited by trapezoid quadrature on the sample
    # grid, so default adaptive sampling to the same density as the rk4 grid
    interval = cfg.sample_interval if cfg.sample_interval is not None else cfg.dt
    if not (interval <= cfg.T):
        raise ConfigError(f"sample_interval={interval!r} (dt unless set) must not exceed T={cfg.T!r}")
    meta.update({"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol})
    return integrate_adaptive(
        chart.rhs, chart.x0, cfg.T, cfg.rel_tol, cfg.abs_tol,
        layout=chart.layout, sample_interval=interval, meta=meta,
    )


def _preamble(cfg: ExperimentConfig, command: str, seed=None) -> list[str]:
    lines = [
        "# contactdyn report",
        f"tool = contactdyn {TOOL_VERSION}",
        f"command = {command}",
        f"integrator = {'euler-maruyama' if command == 'ensemble' else cfg.integrator}",
    ]
    if command == "ensemble" or cfg.integrator == "rk4":
        lines.append(f"dt = {_fmt(cfg.dt)}")
    else:
        lines.append(f"rel_tol = {_fmt(cfg.rel_tol)}")
        lines.append(f"abs_tol = {_fmt(cfg.abs_tol)}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    lines.append("#")
    return lines


def _write_report_file(path: Path, report, preamble: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(preamble) + "\n")
        fh.write(report_text(report))


def _write_trajectory(outdir: Path, traj) -> None:
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    print(f"wrote {outdir / 'trajectory.csv'} ({traj.n_samples} samples)")


def _abort(outdir: Path, what: str, reason: str, traj=None) -> int:
    """Leave abort.txt (and an aborted trajectory's valid prefix); return EXIT_ABORT."""
    outdir.mkdir(parents=True, exist_ok=True)
    at = ""
    if traj is not None:
        _write_trajectory(outdir, traj)
        at = f" at t = {_fmt(float(traj.times[-1]))}"
    note = outdir / "abort.txt"
    note.write_text(f"aborted{at}: {reason}\n", encoding="utf-8")
    print(f"{what} aborted: {reason} (see {note})", file=sys.stderr)
    return EXIT_ABORT


def _identity_gate(report, tol: float) -> int:
    residual = abs(report.residual_exact)
    if residual > tol:
        print(
            f"verification failure: |residual_exact| = {residual:.3e} "
            f"exceeds tolerance {tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _run_and_report(cfg: ExperimentConfig, command: str, write_trajectory: bool) -> int:
    spec = _make_spec(cfg, command)
    chart_name, chart = _resolve_chart(spec, cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    traj = _integrate(cfg, spec, chart_name, chart)
    if traj.aborted:
        return _abort(outdir, "integration", traj.abort_reason, traj)
    stochastic = spec.noise is not None  # no pathwise rate to report
    if write_trajectory or stochastic:
        _write_trajectory(outdir, traj)
    if stochastic:
        print("stochastic system: use `ensemble` for the averaged-rate report")
        return EXIT_OK

    report = virial_report(spec, traj, t0=cfg.t0, residual_tol=cfg.identity_tol)
    _write_report_file(outdir / "report.txt", report,
                       _preamble(cfg, command))
    write_running_averages(spec, traj, outdir / "running_averages.csv", t0=cfg.t0)
    print(f"wrote {outdir / 'report.txt'}")
    print(f"wrote {outdir / 'running_averages.csv'}")
    print(f"theorem_residual = {_fmt(report.theorem_residual)}")
    print(f"residual_exact = {_fmt(report.residual_exact)}")
    print(f"verdict = {report.verdict}")
    return _identity_gate(report, cfg.identity_tol)


# ---------------------------------------------------------------------------
# subcommands


def cmd_list_systems(args) -> int:
    schema = catalog_schema()
    for name in SYSTEM_NAMES:
        spec = make_system(name)
        charts = ", ".join(sorted(spec.charts))
        print(f"{name}  [{charts}]")
        print(f"  {spec.description}")
        for p in schema[name]:
            print(f"  {p.name} = {p.default:g}  ({p.constraint})  {p.description}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = build_config(args)
    return _run_and_report(cfg, "simulate", write_trajectory=True)


def cmd_virial(args) -> int:
    cfg = build_config(args)
    return _run_and_report(cfg, "virial", write_trajectory=False)


def cmd_ensemble(args) -> int:
    cfg = build_config(args)
    spec = _make_spec(cfg, "ensemble")
    if spec.noise is None:
        raise ConfigError(
            f"'{spec.name}' is deterministic; `ensemble` needs a stochastic system"
        )
    noise = _noise(cfg, spec)
    outdir = Path(cfg.out)
    try:
        report = ensemble_report(spec, cfg.n_traj, cfg.T, cfg.dt, noise=noise,
                                 residual_tol=cfg.identity_tol)
    except NonFiniteError as exc:
        return _abort(outdir, "ensemble", str(exc))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outdir.mkdir(parents=True, exist_ok=True)
    _write_report_file(outdir / "report.txt", report,
                       _preamble(cfg, "ensemble", seed=noise.seed))
    print(f"wrote {outdir / 'report.txt'}")
    for name in report.term_names:
        print(f"<{name}> = {_fmt(report.term(name))} "
              f"+/- {_fmt(report.term_error(name))}")
    print(f"theorem_residual = {_fmt(report.theorem_residual)} "
          f"+/- {_fmt(report.theorem_error)}")
    # the pathwise identity carries noise quadratic variation: gate the
    # residual statistically, not at integrator tolerance
    sigma = report.theorem_error / report.rate_scale
    if sigma > 0 and abs(report.residual_exact) > 4 * sigma:
        print(
            f"verification failure: ensemble residual {report.residual_exact:.3e} "
            f"exceeds 4 sigma = {4 * sigma:.3e}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if getattr(args, "param", None) and not getattr(args, "system", None):
        raise ConfigError("--param needs --system (parameters are per-system)")
    names = [args.system] if getattr(args, "system", None) else list(SYSTEM_NAMES)
    failed = False
    for name in names:
        try:
            _, reports = _build(name, _parse_param_flags(getattr(args, "param", None)))
        except (UnknownSystemError, ParameterError) as exc:
            raise ConfigError(str(exc)) from exc
        for label, rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{label}: {len(rep.checks)} checks, "
                  f"max_rel = {rep.max_rel_error:.3e} {status}")
            if not rep.passed:
                failed = True
                for c in rep.failures():
                    print(f"  {c.label}: analytic {c.analytic:.9g} vs "
                          f"numeric {c.numeric:.9g} (rel {c.rel_error:.3e})",
                          file=sys.stderr)
    if failed:
        print("gradcheck: FAIL", file=sys.stderr)
        return EXIT_VERIFY
    print("gradcheck: all partials PASS")
    return EXIT_OK


def cmd_check_identity(args) -> int:
    cfg = build_config(args)
    spec = _make_spec(cfg, "check-identity")
    chart_name, chart = _resolve_chart(spec, cfg)
    if spec.noise is not None:
        raise ConfigError(
            "check-identity needs a deterministic system; the stochastic "
            "identity is statistical (see `ensemble`)"
        )
    traj = _integrate(cfg, spec, chart_name, chart)
    if traj.aborted:
        return _abort(Path(cfg.out), "integration", traj.abort_reason, traj)
    report = virial_report(spec, traj, t0=cfg.t0, residual_tol=cfg.identity_tol)
    residual = abs(report.residual_exact)
    ok = residual <= cfg.identity_tol
    print(
        f"{spec.name}/{chart_name}: |<rate of G> - boundary| = {residual:.6e} "
        f"(tol {cfg.identity_tol:.1e}) {'PASS' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--system", help="catalog system name")
    p.add_argument("--chart", help="chart to integrate in")
    p.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                   help="system parameter override (repeatable)")
    p.add_argument("--integrator", choices=list(_INTEGRATORS))
    p.add_argument("--dt", type=float,
                   help="rk4's fixed step; rkf45's default sample interval")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, help="rkf45 relative tolerance")
    p.add_argument("--abs-tol", dest="abs_tol", type=float, help="rkf45 absolute tolerance")
    p.add_argument("--T", type=float, help="integration horizon")
    p.add_argument("--t0", type=float, help="averaging window start")
    p.add_argument("--sample-every", dest="sample_every", type=int,
                   help="record every k-th step (rk4)")
    p.add_argument("--sample-interval", dest="sample_interval", type=float,
                   help="dense-output spacing (rkf45)")
    p.add_argument("--n-traj", dest="n_traj", type=int, help="ensemble size")
    p.add_argument("--seed", type=int, help="noise stream seed (stochastic)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--identity-tol", dest="identity_tol", type=float,
                   help="finite-horizon identity tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactdyn",
        description="dissipative contact dynamics: simulate, average, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-systems", help="print the catalog and parameter schemas") \
        .set_defaults(func=cmd_list_systems)

    for name, func, blurb in (
        ("simulate", cmd_simulate, "integrate and write trajectory + report"),
        ("virial", cmd_virial, "integrate and write the averaged-rate report"),
        ("check-identity", cmd_check_identity,
         "verify <rate of G> equals the boundary term"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_config_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("ensemble", help="Langevin ensemble report with error bars")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("gradcheck", help="finite-difference oracle over the catalog")
    p.add_argument("--system", help="check one system instead of the whole catalog")
    p.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                   help="system parameter override (repeatable)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
