"""Config-driven experiment runner over the system catalog.

Subcommands
-----------
list-systems    catalog names, charts, and parameter schemas
simulate        integrate one trajectory; write trajectory + report + running averages
virial          integrate and write the averaged-rate report (+ running averages)
ensemble        Langevin ensemble report with error bars
gradcheck       finite-difference oracle over every analytic partial in the catalog
check-identity  assert the finite-horizon identity <rate of G> = (G(T)-G(t0))/(T-t0)

Configs are YAML mappings; every setting, declared once as a field of
ExperimentConfig, can also be set (or overridden) by its flag.  Unknown
config keys and parameter names, numeric settings out of range (T, dt, the
tolerances and sample_interval must be finite and positive), a command
that does not run the system's kind of stepping and settings that the run
would not read (both _READS; rkf45 reads sample_interval and not dt), a
sample grid of more than _MAX_SAMPLES samples, more than _MAX_STEPS
steps of rk4 or Euler-Maruyama (T / dt) and an ensemble of more than
_MAX_TRAJ members are rejected before any computation.  Exit codes:
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

from . import __version__ as TOOL_VERSION  # report metadata
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_VERIFY = 4

_INTEGRATORS = ("rk4", "rkf45")
# samples one run may keep: 10**8 samples of a 4-vector take 3.2 GB
_MAX_SAMPLES = 10**8
# fixed steps one run may take: an inlined RK4 step takes about 1.3 us on a
# 2-core host under Python 3.11, so 10**9 steps are some 20 minutes, against
# 2 * 10**5 for the largest README run; a larger T / dt is a mistyped dt,
# which would step until the process is killed
_MAX_STEPS = 10**9
# ensemble members one run may step: each holds a PCG64 generator of about
# 1 KB besides its state and sums, so 10**5 members take some 100 MB,
# against 1000 for the README run
_MAX_TRAJ = 10**5


class ConfigError(ValueError):
    """Bad config file, flag value, or parameter set."""


def _setting(default, help: str, **flag):
    """A run setting: its default, whose type is the setting's, and its flag's help."""
    return field(default=default, metadata={"help": help, **flag})


@dataclass
class ExperimentConfig:
    """One experiment: system, chart, integrator knobs, horizon, outputs.

    Every field but params and given is a setting, and the only place it is
    declared: its config key is the field name, and its flag is --<name> with
    underscores as dashes.
    """

    system: str = _setting("", "catalog system name")
    chart: str = _setting("", "chart to integrate in")
    params: dict = field(default_factory=dict)
    integrator: str = _setting("rk4", "deterministic stepper", choices=_INTEGRATORS)
    dt: float = _setting(1e-3, "fixed step (rk4, Euler-Maruyama)")
    rel_tol: float = _setting(1e-8, "rkf45 relative tolerance")
    abs_tol: float = _setting(1e-10, "rkf45 absolute tolerance")
    T: float = _setting(100.0, "integration horizon")
    t0: float = _setting(0.0, "averaging window start")
    sample_every: int = _setting(1, "record every k-th step (rk4, Euler-Maruyama)")
    # as dense as rk4's default grid: identity residuals are limited by
    # trapezoid quadrature on the sample grid
    sample_interval: float = _setting(1e-3, "dense-output spacing (rkf45)")
    n_traj: int = _setting(1000, "ensemble size")
    seed: int = _setting(0, "noise stream seed (stochastic)")
    out: str = _setting("out", "output directory")
    identity_tol: float = _setting(1e-8, "finite-horizon identity tolerance")
    given: frozenset = frozenset()  # keys set by the config file or a flag


_SETTINGS = tuple(f for f in fields(ExperimentConfig) if f.metadata)
_CONFIG_KEYS = {f.name for f in _SETTINGS} | {"params"}
# the settings each command reads besides params, by how its system steps;
# a command refuses a system that steps any other way, and a run refuses
# any other setting given in the config file or as a flag
_RUN = "system chart T out t0 identity_tol integrator"
_DETERMINISTIC = {"rk4": f"{_RUN} dt sample_every", "rkf45": f"{_RUN} rel_tol abs_tol sample_interval"}
_READS = {
    "simulate": {**_DETERMINISTIC, "euler-maruyama": "system chart T out dt sample_every seed"},
    "check-identity": _DETERMINISTIC,
    "ensemble": {"euler-maruyama": "system T out dt n_traj seed identity_tol"},
}
_READS["virial"] = _READS["simulate"]


def load_config_file(path: str) -> dict:
    import yaml  # only config files need it, so a run without one skips its import

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
    overrides = {f.name: getattr(args, f.name) for f in _SETTINGS
                 if getattr(args, f.name, None) is not None}
    cfg = replace(cfg, **overrides, given=cfg.given | set(overrides))
    cfg.params.update(_parse_param_flags(getattr(args, "param", None)))

    for f in _SETTINGS:  # a config file's values arrive as YAML gives them
        kind, value = type(f.default), getattr(cfg, f.name)
        if kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"config {f.name}={value!r} is not a string")
            continue
        try:
            number = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config {f.name}={value!r} is not a number") from exc
        if kind is int and number != value:
            raise ConfigError(f"config {f.name}={value!r} must be an integer")
        setattr(cfg, f.name, number)

    if not cfg.system:
        raise ConfigError("a system name is required (config 'system' or --system)")
    if cfg.integrator not in _INTEGRATORS:
        raise ConfigError(f"integrator must be one of {_INTEGRATORS}, got {cfg.integrator!r}")
    for name in ("T", "dt", "rel_tol", "abs_tol", "identity_tol", "sample_interval"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    if not (0 <= cfg.t0 < cfg.T):
        raise ConfigError(f"t0={cfg.t0!r} must satisfy 0 <= t0 < T")
    if cfg.sample_every < 1:
        raise ConfigError("sample_every must be >= 1")
    if not 2 <= cfg.n_traj <= _MAX_TRAJ:
        raise ConfigError(f"n_traj must be >= 2 and <= {_MAX_TRAJ:.0e}, got {cfg.n_traj}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    return cfg


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _make_spec(cfg: ExperimentConfig, command: str):
    """Build the system and decide how the run steps; return (spec, stepping).

    Refuses a command that does not run the system's stepping, each given
    setting the run would not read, and a fixed-step run over the sample or
    step cap, before anything is stepped or written.
    """
    try:
        spec = make_system(cfg.system, **cfg.params)
    except (UnknownSystemError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc
    stepping = "euler-maruyama" if spec.noise is not None else cfg.integrator
    reads = _READS[command].get(stepping)
    if reads is None:
        runs = ", ".join(f"`{c}`" for c in _READS if stepping in _READS[c])
        raise ConfigError(f"`{command}` does not run '{spec.name}', which steps {stepping}; "
                          f"{runs} do")
    unread = sorted(cfg.given - set(reads.split()))
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ConfigError(f"`{command}` on '{spec.name}' steps {stepping} and does not "
                          f"read {flags} (flag or config key)")
    if stepping == "rkf45":
        return spec, stepping
    if "sample_every" in reads:  # the ensemble keeps no samples
        _check_sample_count(cfg.T, cfg.dt, cfg.sample_every, "T / (dt * sample_every)")
    if cfg.T / cfg.dt > _MAX_STEPS:
        raise ConfigError(f"T / dt = {cfg.T / cfg.dt:.3g} steps; "
                          f"a run takes at most {_MAX_STEPS:.0e}")
    return spec, stepping


def _resolve_chart(spec, cfg):
    try:
        return cfg.chart or spec.default_chart, spec.chart(cfg.chart)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _check_sample_count(T: float, spacing: float, every: int, grid: str) -> None:
    """Refuse a run that keeps more than _MAX_SAMPLES samples, one per `every` spacings."""
    if T / spacing > _MAX_SAMPLES * every:  # a float meets an int exactly, however large
        raise ConfigError(f"{grid} = {T / spacing / every:.3g} samples; "
                          f"a run keeps at most {_MAX_SAMPLES:.0e}")


def _integrate(cfg: ExperimentConfig, stepping: str, spec, chart_name, chart):
    meta = {"system": spec.name, "chart": chart_name}
    if stepping == "euler-maruyama":
        try:
            return euler_maruyama_langevin(
                chart, replace(spec.noise, seed=cfg.seed), cfg.T, cfg.dt,
                sample_every=cfg.sample_every, meta=meta,
            )
        except ValueError as exc:  # step checks against T and gamma
            raise ConfigError(str(exc)) from exc
    if stepping == "rk4":
        if not (cfg.dt <= cfg.T):
            raise ConfigError(f"dt={cfg.dt!r} must not exceed T={cfg.T!r}")
        return integrate_fixed(
            chart.rhs, chart.x0, cfg.T, cfg.dt,
            layout=chart.layout, sample_every=cfg.sample_every, meta=meta,
        )
    if not (cfg.sample_interval <= cfg.T):
        raise ConfigError(f"sample_interval={cfg.sample_interval!r} must not exceed T={cfg.T!r}")
    _check_sample_count(cfg.T, cfg.sample_interval, 1, "T / sample_interval")
    return integrate_adaptive(
        chart.rhs, chart.x0, cfg.T, cfg.rel_tol, cfg.abs_tol,
        layout=chart.layout, sample_interval=cfg.sample_interval, meta=meta,
    )


def _preamble(cfg: ExperimentConfig, command: str, stepping: str) -> list[str]:
    lines = [
        "# contactdyn report",
        f"tool = contactdyn {TOOL_VERSION}",
        f"command = {command}",
        f"integrator = {stepping}",
    ]
    if stepping == "rkf45":
        lines.append(f"rel_tol = {_fmt(cfg.rel_tol)}")
        lines.append(f"abs_tol = {_fmt(cfg.abs_tol)}")
    else:
        lines.append(f"dt = {_fmt(cfg.dt)}")
    if stepping == "euler-maruyama":
        lines.append(f"seed = {cfg.seed}")
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


def _run_and_report(args) -> int:
    """simulate, virial and check-identity: step one run, then report on it."""
    cfg = build_config(args)
    spec, stepping = _make_spec(cfg, args.command)
    chart_name, chart = _resolve_chart(spec, cfg)
    outdir = Path(cfg.out)

    traj = _integrate(cfg, stepping, spec, chart_name, chart)
    if traj.aborted:
        return _abort(outdir, "integration", traj.abort_reason, traj)
    if args.command != "check-identity":  # which writes a verdict line and no artifacts
        outdir.mkdir(parents=True, exist_ok=True)
    if args.command == "simulate" or stepping == "euler-maruyama":
        _write_trajectory(outdir, traj)
    if stepping == "euler-maruyama":  # no pathwise rate to report
        print("stochastic system: use `ensemble` for the averaged-rate report")
        return EXIT_OK

    report = virial_report(spec, traj, t0=cfg.t0, residual_tol=cfg.identity_tol)
    if args.command == "check-identity":
        residual = abs(report.residual_exact)
        ok = residual <= cfg.identity_tol
        print(
            f"{spec.name}/{chart_name}: |<rate of G> - boundary| = {residual:.6e} "
            f"(tol {cfg.identity_tol:.1e}) {'PASS' if ok else 'FAIL'}"
        )
        return EXIT_OK if ok else EXIT_VERIFY
    _write_report_file(outdir / "report.txt", report,
                       _preamble(cfg, args.command, stepping))
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


def cmd_ensemble(args) -> int:
    cfg = build_config(args)
    spec, stepping = _make_spec(cfg, "ensemble")
    outdir = Path(cfg.out)
    try:
        report = ensemble_report(spec, cfg.n_traj, cfg.T, cfg.dt, seed=cfg.seed,
                                 residual_tol=cfg.identity_tol)
    except NonFiniteError as exc:
        return _abort(outdir, "ensemble", str(exc))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outdir.mkdir(parents=True, exist_ok=True)
    _write_report_file(outdir / "report.txt", report,
                       _preamble(cfg, "ensemble", stepping))
    print(f"wrote {outdir / 'report.txt'}")
    for name in report.term_names:
        print(f"<{name}> = {_fmt(report.term(name))} "
              f"+/- {_fmt(report.term_error(name))}")
    print(f"theorem_residual = {_fmt(report.theorem_residual)} "
          f"+/- {_fmt(report.theorem_error)}")
    # the residual is Euler-Maruyama's first-order bias (the dropped
    # covariation sum of dq dp and the left-point versus trapezoid sums),
    # not noise, so it is there at k_BT = 0 too: gate it at 4 standard
    # errors of the term sum over rate_scale, and never below identity_tol
    sigma = report.theorem_error / report.rate_scale
    gate = max(4 * sigma, cfg.identity_tol)
    if abs(report.residual_exact) > gate:
        print(
            f"verification failure: ensemble residual {report.residual_exact:.3e} "
            f"exceeds max(4 sigma, identity_tol) = {gate:.3e}",
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
                          f"numeric {c.numeric:.9g} (rel {c.rel_error:.3e})"
                          + (f": {c.note}" if c.note else ""), file=sys.stderr)
    if failed:
        print("gradcheck: FAIL", file=sys.stderr)
        return EXIT_VERIFY
    print("gradcheck: all partials PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file")
    p.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                   help="system parameter override (repeatable)")
    for f in _SETTINGS:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), **f.metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactdyn",
        description="dissipative contact dynamics: simulate, average, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-systems", help="print the catalog and parameter schemas") \
        .set_defaults(func=cmd_list_systems)

    for name, blurb in (
        ("simulate", "integrate and write trajectory + report"),
        ("virial", "integrate and write the averaged-rate report"),
        ("check-identity", "verify <rate of G> equals the boundary term"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_config_flags(p)
        p.set_defaults(func=_run_and_report)

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
