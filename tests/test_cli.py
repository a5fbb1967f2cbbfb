"""Command-line runner: configs, overrides, artifacts, exit codes."""

import argparse
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contactdyn
from contactdyn.cli import (
    _MAX_TRAJ,
    _READS,
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    TOOL_VERSION,
    ExperimentConfig,
    build_config,
    build_parser,
    main,
)
from contactdyn.integrate import euler_maruyama_langevin
from contactdyn.systems import ParameterError, make_system
from contactdyn.virial import ensemble_report, parse_report, report_text


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# listing and validation


def test_list_systems(capsys):
    assert run("list-systems") == EXIT_OK
    out = capsys.readouterr().out
    for name in ("damped_oscillator", "parachute", "forced_oscillator",
                 "brownian_oscillator", "gierer_meinhardt"):
        assert name in out
    assert "gamma = 0.1" in out
    assert "[hamiltonian, lagrangian]" in out


def test_unknown_system_exits_2(tmp_path, capsys):
    code = run("simulate", "--system", "pendulum", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_parameter_exits_2(tmp_path, capsys):
    code = run("simulate", "--system", "damped_oscillator", "-p", "kappa=2",
               "--T", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG


def test_constraint_violation_exits_2(tmp_path):
    assert run("simulate", "--system", "damped_oscillator", "-p", "gamma=-1",
               "--T", "1", "--out", str(tmp_path)) == EXIT_CONFIG


def test_unknown_chart_exits_2(tmp_path):
    assert run("simulate", "--system", "damped_oscillator", "--chart", "polar",
               "--T", "1", "--out", str(tmp_path)) == EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("system: damped_oscillator\nwavelength: 3\n", encoding="utf-8")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
    assert "wavelength" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["system", "chart", "integrator", "out"])
@pytest.mark.parametrize("value", [None, 5, ["damped_oscillator"]], ids=["null", "int", "list"])
def test_non_string_config_value_exits_2(tmp_path, capsys, setting, value):
    # a text setting's value reached Path() or a dict lookup as a traceback
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"system": "damped_oscillator", "T": 1, "out": str(out),
                                   setting: value}), encoding="utf-8")
    assert run("simulate", "--config", str(cfg)) == EXIT_CONFIG
    assert f"config error: config {setting}={value!r} is not a string" in capsys.readouterr().err
    assert not out.exists()


def test_bad_yaml_exits_2(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("system: [unclosed\n", encoding="utf-8")
    assert run("simulate", "--config", str(cfg)) == EXIT_CONFIG


def test_bad_window_exits_2(tmp_path):
    assert run("virial", "--system", "damped_oscillator", "--T", "10",
               "--t0", "10", "--out", str(tmp_path)) == EXIT_CONFIG


def test_non_integer_sample_every_exits_2(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "system: damped_oscillator\nT: 1\nsample_every: 2.5\n", encoding="utf-8"
    )
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG


_NOT_FINITE_OR_POSITIVE = [
    ("T", ("simulate", "--system", "damped_oscillator", "--T", "inf")),
    ("T", ("ensemble", "--system", "brownian_oscillator", "--T", "inf", "--n-traj", "4")),
    ("rel_tol", ("virial", "--system", "damped_oscillator", "--integrator", "rkf45",
                 "--rel-tol", "-1", "--T", "1")),
    ("abs_tol", ("virial", "--system", "damped_oscillator", "--integrator", "rkf45",
                 "--abs-tol", "nan", "--T", "1")),
    ("identity_tol", ("virial", "--system", "damped_oscillator", "--T", "1",
                      "--sample-every", "1000", "--identity-tol", "nan")),
    ("identity_tol", ("check-identity", "--system", "damped_oscillator", "--T", "1",
                      "--sample-every", "1000", "--identity-tol", "nan")),
]


@pytest.mark.parametrize("setting, argv", _NOT_FINITE_OR_POSITIVE,
                         ids=[f"{argv[0]}-{setting}" for setting, argv in _NOT_FINITE_OR_POSITIVE])
def test_non_finite_or_non_positive_setting_exits_2(tmp_path, capsys, setting, argv):
    # an infinite horizon overflowed the step count and a bad tolerance
    # reached the stepper, both as tracebacks; a nan identity_tol let the
    # virial gate pass without checking anything
    out = tmp_path / "run"
    assert run(*argv, "--out", str(out)) == EXIT_CONFIG
    assert f"config error: {setting} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_damped(tmp_path, capsys):
    out = tmp_path / "run"
    code = run("simulate", "--system", "damped_oscillator", "--T", "20",
               "--out", str(out))
    assert code == EXIT_OK
    traj_csv = (out / "trajectory.csv").read_text(encoding="utf-8")
    assert traj_csv.splitlines()[0] == "t,s,q[0],p[0]"
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert report["system"] == "damped_oscillator"
    assert report["command"] == "simulate"
    assert report["integrator"] == "rk4"
    assert report["tool"].startswith("contactdyn ")
    assert abs(float(report["residual_exact"])) < 1e-8
    assert (out / "running_averages.csv").exists()
    assert "verdict = bounded" in capsys.readouterr().out


def test_simulate_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run("simulate", "--system", "damped_oscillator", "--T", "10",
                   "--out", str(out)) == EXIT_OK
    for name in ("trajectory.csv", "report.txt", "running_averages.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_adaptive_integrator(tmp_path):
    out = tmp_path / "run"
    code = run("simulate", "--system", "damped_oscillator", "--T", "10",
               "--integrator", "rkf45", "--out", str(out))
    assert code == EXIT_OK
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert report["integrator"] == "rkf45"
    assert "rel_tol" in report


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "system: damped_oscillator\nT: 5\nparams:\n  gamma: 0.2\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert run("simulate", "--config", str(cfg), "--T", "8",
               "--out", str(out)) == EXIT_OK
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert float(report["horizon"]) == 8.0
    assert float(report["meta.param.gamma"]) == 0.2


def test_simulate_abort_exits_3(tmp_path, capsys):
    # strongly negative self-activation drives y through the log pole at -B
    out = tmp_path / "run"
    code = run("simulate", "--system", "gierer_meinhardt", "-p", "D=-50",
               "--T", "10", "--dt", "0.01", "--out", str(out))
    assert code == EXIT_ABORT
    assert (out / "trajectory.csv").exists()
    note = (out / "abort.txt").read_text(encoding="utf-8")
    assert "aborted at t" in note
    assert "aborted" in capsys.readouterr().err


def test_simulate_brownian_trajectory_only(tmp_path, capsys):
    out = tmp_path / "run"
    code = run("simulate", "--system", "brownian_oscillator", "--T", "5",
               "--seed", "3", "--out", str(out))
    assert code == EXIT_OK
    assert (out / "trajectory.csv").exists()
    assert not (out / "report.txt").exists()
    assert "ensemble" in capsys.readouterr().out


def test_simulate_brownian_divergence_exits_3(tmp_path, capsys):
    # omega * dt = 2 makes Euler-Maruyama unstable: the run overflows
    out = tmp_path / "run"
    code = run("simulate", "--system", "brownian_oscillator", "-p", "omega=2000",
               "--T", "2", "--out", str(out))
    assert code == EXIT_ABORT
    note = (out / "abort.txt").read_text(encoding="utf-8")
    assert "aborted at t" in note
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert 1 < len(rows) < 2001
    assert np.isfinite(rows).all()
    assert "aborted" in capsys.readouterr().err
    # the file is the finite prefix that the run without a sink returns
    spec = make_system("brownian_oscillator", omega=2000.0)
    traj = euler_maruyama_langevin(spec.chart(), spec.noise, 2.0, 1e-3, sample_every=1)
    assert traj.aborted and note.endswith(f": {traj.abort_reason}\n")
    assert np.array_equal(rows, np.column_stack([traj.times, traj.states]))


@pytest.mark.parametrize("dt, T", [("0.5", "2"), ("0.03", "1")])
def test_simulate_brownian_bad_step_exits_2(tmp_path, capsys, dt, T):
    # gamma*dt >= 0.1, and T not a whole number of steps
    code = run("simulate", "--system", "brownian_oscillator", "--dt", dt,
               "--T", T, "--out", str(tmp_path / "run"))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    # the step checks run before the first block of samples opens the file
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--system", "brownian_oscillator", "-p", "seed=-5"),
    ("ensemble", "--system", "brownian_oscillator", "--n-traj", "4", "--seed", "-3"),
], ids=["param", "flag"])
def test_negative_seed_exits_2_naming_seed(tmp_path, capsys, argv):
    code = run(*argv, "--T", "1", "--out", str(tmp_path / "run"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
def test_simulate_step_exceeds_T_exits_2(tmp_path, capsys, integrator):
    # the default dt, and rkf45's default sample interval, exceed T
    code = run("simulate", "--system", "damped_oscillator", "--integrator", integrator,
               "--T", "0.0005", "--out", str(tmp_path / "run"))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# virial


def test_virial_writes_report_not_trajectory(tmp_path):
    out = tmp_path / "run"
    assert run("virial", "--system", "damped_oscillator", "--T", "20",
               "--t0", "10", "--out", str(out)) == EXIT_OK
    assert not (out / "trajectory.csv").exists()
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert float(report["window_start"]) == 10.0
    assert float(report["window"]) == 10.0


def test_virial_forced_steady_state(tmp_path):
    out = tmp_path / "run"
    T = 200.0 + 50.0 * math.pi
    code = run("virial", "--system", "forced_oscillator",
               "--T", format(T, ".17g"), "--t0", "200", "--sample-every", "10",
               "--out", str(out))
    assert code == EXIT_OK
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert float(report["term.kinetic.average"]) == pytest.approx(0.11062, rel=1e-3)
    assert float(report["term.potential.average"]) == pytest.approx(0.027655, rel=1e-3)
    assert abs(float(report["theorem_residual"])) < 1e-4
    assert report["verdict"] == "bounded"


def test_virial_parachute_growing(tmp_path):
    out = tmp_path / "run"
    assert run("virial", "--system", "parachute", "--chart", "lagrangian",
               "--T", "200", "--sample-every", "10", "--out", str(out)) == EXIT_OK
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert report["verdict"] == "growing"
    assert float(report["boundary_term"]) == pytest.approx(20.0, rel=0.01)


# ---------------------------------------------------------------------------
# ensemble


def test_ensemble_small(tmp_path, capsys):
    out = tmp_path / "run"
    code = run("ensemble", "--system", "brownian_oscillator", "--n-traj", "16",
               "--T", "20", "--seed", "11", "--out", str(out))
    assert code == EXIT_OK
    text = (out / "report.txt").read_text(encoding="utf-8")
    report = parse_report(text)
    assert report["command"] == "ensemble"
    assert report["integrator"] == "euler-maruyama"
    # the seed is a run setting alone: the system has no seed parameter
    assert report["seed"] == report["meta.seed"] == "11"
    assert "param.seed" not in text
    assert report["n_traj"] == "16"
    assert "term.kinetic.stderr" in report
    assert "+/-" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_seed_parameter_exits_2_listing_the_parameters(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert run(command, "--system", "brownian_oscillator", "-p", "seed=3", "--T", "1",
               "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: unknown parameter(s) ['seed']" in err
    assert "accepted: ['gamma', 'k_BT', 'm', 'omega']" in err
    assert not out.exists()


def test_ensemble_report_seed_equals_the_cli_seed(tmp_path):
    # bit for bit: a report float is written at 17 significant digits
    out = tmp_path / "run"
    assert run("ensemble", "--system", "brownian_oscillator", "--n-traj", "8",
               "--T", "2", "--seed", "5", "--out", str(out)) == EXIT_OK
    rep = ensemble_report(make_system("brownian_oscillator"), 8, 2.0, 1e-3, seed=5)
    assert (out / "report.txt").read_text(encoding="utf-8").endswith(report_text(rep))


def test_ensemble_rerun_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run("ensemble", "--system", "brownian_oscillator",
                   "--n-traj", "8", "--T", "10", "--seed", "5",
                   "--out", str(out)) == EXIT_OK
    assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()


def test_ensemble_seed_changes_output(tmp_path):
    # members draw spawned child streams of SeedSequence(seed), so even
    # adjacent seeds share no stream
    reports = []
    for seed in ("4", "5"):
        out = tmp_path / seed
        assert run("ensemble", "--system", "brownian_oscillator",
                   "--n-traj", "8", "--T", "10", "--seed", seed,
                   "--out", str(out)) == EXIT_OK
        reports.append(parse_report((out / "report.txt").read_text(encoding="utf-8")))
    assert reports[0]["term.kinetic.average"] != reports[1]["term.kinetic.average"]


@pytest.mark.parametrize("n_traj", ["64", "100"])
def test_noiseless_ensemble_gate_does_not_depend_on_rounding(tmp_path, capsys, n_traj):
    # at k_BT = 0 every member is the same Euler run, so the standard error
    # is 0 or about 1e-20 by rounding alone; the residual, Euler's 1e-4
    # bias, is gated at identity_tol either way
    argv = ("ensemble", "--system", "brownian_oscillator", "-p", "k_BT=0", "--T", "5",
            "--n-traj", n_traj, "--out", str(tmp_path / "run"))
    assert run(*argv) == EXIT_VERIFY
    assert "exceeds max(4 sigma, identity_tol) = 1.000e-08" in capsys.readouterr().err
    assert run(*argv, "--identity-tol", "1e-3") == EXIT_OK


def test_ensemble_rejects_deterministic_system(tmp_path):
    assert run("ensemble", "--system", "parachute", "--n-traj", "8",
               "--T", "10", "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("source", ["flag", "config"])
def test_ensemble_t0_exits_2_naming_t0(tmp_path, capsys, source):
    # the ensemble averages over [0, T]; a window start would be silently dropped
    out = tmp_path / "run"
    argv = ["ensemble", "--system", "brownian_oscillator", "--T", "1",
            "--n-traj", "4", "--out", str(out)]
    if source == "flag":
        argv += ["--t0", "0.5"]
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("t0: 0.5\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert run(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "t0" in err
    assert not out.exists()


# how each kind of run steps, and the flags that select it
_RUNS = {"rk4": ("--system", "damped_oscillator"),
         "rkf45": ("--system", "damped_oscillator", "--integrator", "rkf45"),
         "euler-maruyama": ("--system", "brownian_oscillator")}
_FLAG_VALUES = {"--rel-tol": "1e-6", "--abs-tol": "1e-9", "--sample-interval": "0.5",
                "--n-traj": "4", "--seed": "3", "--sample-every": "5",
                "--integrator": "rkf45", "--t0": "0.5", "--identity-tol": "1e-6",
                "--chart": "hamiltonian"}
# every flag each command ignores, by how the run steps
_UNREAD = [
    *[(command, stepping, flag)
      for command in ("simulate", "virial", "check-identity")
      for stepping, flags in (
          ("rk4", ("--rel-tol", "--abs-tol", "--sample-interval", "--n-traj", "--seed")),
          ("rkf45", ("--sample-every", "--n-traj", "--seed")))
      for flag in flags],
    *[(command, "euler-maruyama", flag)
      for command in ("simulate", "virial")
      for flag in ("--integrator", "--rel-tol", "--abs-tol", "--sample-interval",
                   "--n-traj", "--t0", "--identity-tol")],
    *[("ensemble", "euler-maruyama", flag)
      for flag in ("--chart", "--integrator", "--rel-tol", "--abs-tol", "--t0",
                   "--sample-every", "--sample-interval")],
]


@pytest.mark.parametrize("command, stepping, flag", _UNREAD,
                         ids=[f"{c}-{s}-{f[2:]}" for c, s, f in _UNREAD])
def test_unread_flag_exits_2_naming_it(tmp_path, capsys, command, stepping, flag):
    # a flag the run would ignore is refused before anything is stepped or written
    out = tmp_path / "run"
    code = run(command, *_RUNS[stepping], "--T", "1", flag, _FLAG_VALUES[flag],
               "--out", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and flag in err
    assert not out.exists()


class _Stepped(Exception):
    """Raised by a patched stepper: the run got past every check."""


def _patch_steppers(monkeypatch):
    import contactdyn.cli as cli_mod
    import contactdyn.virial as virial_mod

    def stepper(*args, **kwargs):
        raise _Stepped

    for module, name in ((cli_mod, "integrate_fixed"), (cli_mod, "integrate_adaptive"),
                         (cli_mod, "euler_maruyama_langevin"),
                         (virial_mod, "langevin_ensemble")):
        monkeypatch.setattr(module, name, stepper)


@pytest.mark.parametrize("command", ["simulate", "virial", "check-identity"])
def test_rkf45_refuses_dt(tmp_path, capsys, monkeypatch, command):
    # rkf45 reads --sample-interval alone, so a --dt would be dropped without
    # a word; the run is refused before it steps
    _patch_steppers(monkeypatch)
    out = tmp_path / "run"
    code = run(command, *_RUNS["rkf45"], "--T", "1", "--dt", "0.5", "--out", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "--dt" in err
    assert not out.exists()


_NUMERIC_SETTINGS = {"T", "dt", "t0", "rel_tol", "abs_tol", "identity_tol", "sample_every",
                     "sample_interval", "n_traj", "seed"}
# every numeric setting each command reads, by how the run steps
_READ_NUMERIC = sorted((command, stepping, setting)
                       for command, by_stepping in _READS.items()
                       for stepping, reads in by_stepping.items()
                       for setting in set(reads.split()) & _NUMERIC_SETTINGS)


def test_bad_numeric_setting_exits_2_before_stepping(tmp_path, monkeypatch):
    # nan, +-inf, 0 or a negative number for any numeric setting a command
    # reads, given as a flag or as a config key, exits 2 (a flag that does
    # not parse is argparse's exit 2) and steps nothing; 0 is a valid t0 and seed
    _patch_steppers(monkeypatch)
    out = tmp_path / "run"

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(_READ_NUMERIC),
           st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0]),
                     st.integers(max_value=-1), st.floats(max_value=-1e-300)),
           st.booleans())
    def refused(case, value, as_flag):
        command, stepping, setting = case
        assume(not (value == 0 and setting in ("t0", "seed")))
        argv = [command, *_RUNS[stepping], "--out", str(out)]
        if as_flag:
            argv.append(f"--{setting.replace('_', '-')}={value!r}")
        else:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(yaml.safe_dump({setting: value}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
        assert code == EXIT_CONFIG, (argv, value)
        assert not out.exists()

    refused()


# a valid value of every setting besides system and out, as a config file gives it
_SETTING_VALUES = {"chart": "hamiltonian", "integrator": "rk4", "dt": 0.5, "rel_tol": 1e-6,
                   "abs_tol": 1e-9, "T": 2.0, "t0": 0.5, "sample_every": 5,
                   "sample_interval": 0.5, "n_traj": 4, "seed": 3, "identity_tol": 1e-6}
_COMMAND_STEPPINGS = sorted((command, stepping) for command, by_stepping in _READS.items()
                            for stepping in by_stepping)


def test_drawn_settings_exit_2_exactly_when_one_is_refused(tmp_path, monkeypatch):
    # a drawn set of settings, each a flag or a config key, exits 2 and writes
    # nothing exactly when the command does not read one of them on that
    # stepping; any other set reaches the stepper
    _patch_steppers(monkeypatch)
    out = tmp_path / "run"

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.sampled_from(_COMMAND_STEPPINGS), st.data())
    def consistent(case, data):
        command, stepping = case
        reads = set(_READS[command][stepping].split())
        read = sorted(reads & set(_SETTING_VALUES))
        if stepping == "rkf45":  # its flags already give the integrator
            read.remove("integrator")
        unread = sorted(set(_SETTING_VALUES) - reads)
        keys = [key for key in read if data.draw(st.booleans())]
        keys += data.draw(st.sets(st.sampled_from(unread), max_size=2)) if unread else []
        refused = not reads.issuperset(keys)
        argv = [command, *_RUNS[stepping], "--out", str(out)]
        in_file = {}
        for key in keys:
            if data.draw(st.booleans()):
                argv.append(f"--{key.replace('_', '-')}={_SETTING_VALUES[key]}")
            else:
                in_file[key] = _SETTING_VALUES[key]
        if in_file:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(yaml.safe_dump(in_file), encoding="utf-8")
            argv += ["--config", str(cfg)]
        try:
            code = run(*argv)
        except _Stepped:
            code = None
        assert code == (EXIT_CONFIG if refused else None), (argv, in_file, code)
        assert not out.exists()

    consistent()


# every setting: each field of ExperimentConfig but params and given
_SETTING_NAMES = sorted({f.name for f in fields(ExperimentConfig)} - {"params", "given"})


@pytest.mark.parametrize("command", ["simulate", "virial", "check-identity", "ensemble"])
def test_options_are_config_param_and_one_flag_per_setting(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}
    assert sorted(options) == sorted(["config", "param", *_SETTING_NAMES])
    assert options["config"].option_strings == ["--config"]
    assert options["param"].option_strings == ["-p", "--param"]
    for f in fields(ExperimentConfig):
        if f.name in _SETTING_NAMES:
            action = options[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is type(f.default)
            assert action.help and action.help == f.metadata.get("help")


def test_config_keys_are_the_settings_and_params(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("wavelength: 3\n", encoding="utf-8")
    assert run("simulate", "--config", str(cfg)) == EXIT_CONFIG
    assert f"accepted: {sorted(['params', *_SETTING_NAMES])}" in capsys.readouterr().err


def test_each_setting_reaches_the_config_from_its_flag_and_its_key(tmp_path):
    values = {**_SETTING_VALUES, "system": "damped_oscillator", "out": "elsewhere"}
    assert sorted(values) == _SETTING_NAMES
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    from_flags = build_config(build_parser().parse_args(["simulate", *flags]))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(values), encoding="utf-8")
    from_file = build_config(build_parser().parse_args(["simulate", "--config", str(cfg)]))
    for key, value in values.items():
        assert getattr(from_flags, key) == getattr(from_file, key) == value, key
        assert type(getattr(from_flags, key)) is type(getattr(from_file, key)), key
    assert from_flags.given == from_file.given == set(values)


# T = 1 spaced 2**-27 apart is 134 217 728 samples, above the cap of 10**8;
# 2**-26 apart, or every other one of 2**-27, is 67 108 864, below it
_FINE, _COARSE = repr(2.0 ** -27), repr(2.0 ** -26)
_BEYOND_CAP = [("damped_oscillator", ("--integrator", "rkf45", "--sample-interval", "1e-300")),
               ("damped_oscillator", ("--integrator", "rkf45", "--sample-interval", _FINE)),
               ("damped_oscillator", ("--dt", "1e-300")),
               ("damped_oscillator", ("--dt", _FINE)),
               ("brownian_oscillator", ("--dt", _FINE))]
_WITHIN_CAP = [("damped_oscillator", ("--integrator", "rkf45", "--sample-interval", _COARSE)),
               ("damped_oscillator", ("--dt", _COARSE)),
               ("damped_oscillator", ("--dt", _FINE, "--sample-every", "2")),
               ("brownian_oscillator", ("--dt", _FINE, "--sample-every", "2"))]


@pytest.mark.parametrize("system, argv", _BEYOND_CAP)
def test_sample_grid_beyond_the_cap_exits_2_at_once(tmp_path, capsys, monkeypatch,
                                                    system, argv):
    # a run that would keep more than 10**8 samples is refused before it
    # steps or writes, naming how many it would keep
    _patch_steppers(monkeypatch)
    out = tmp_path / "run"
    start = time.perf_counter()
    code = run("simulate", "--system", system, "--T", "1", *argv, "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and " samples; a run keeps at most 1e+08" in err
    assert not out.exists()


@pytest.mark.parametrize("system, argv", _WITHIN_CAP)
def test_sample_grid_within_the_cap_steps(tmp_path, monkeypatch, system, argv):
    _patch_steppers(monkeypatch)
    with pytest.raises(_Stepped):
        run("simulate", "--system", system, "--T", "1", *argv, "--out", str(tmp_path / "run"))


# T = 1 in steps of 2**-30 is 1 073 741 824 steps, above the cap of 10**9;
# 2**-29 is 536 870 912, below it.  A sample stride of 10**300 keeps the
# sample grid of a 1e-300 step under its own cap.
_HUGE_STRIDE = ("--sample-every", str(10**300))
_BEYOND_STEP_CAP = [
    ("ensemble", "brownian_oscillator", ("--dt", "1e-300", "--n-traj", "2")),
    ("ensemble", "brownian_oscillator", ("--dt", repr(2.0 ** -30), "--n-traj", "2")),
    ("simulate", "damped_oscillator", ("--dt", "1e-300", *_HUGE_STRIDE)),
    ("virial", "brownian_oscillator", ("--dt", "1e-300", *_HUGE_STRIDE)),
    ("check-identity", "damped_oscillator", ("--dt", repr(2.0 ** -30), "--sample-every", "16")),
]
_WITHIN_STEP_CAP = [
    ("ensemble", "brownian_oscillator", ("--dt", repr(2.0 ** -29), "--n-traj", "2")),
    ("simulate", "damped_oscillator", ("--dt", repr(2.0 ** -29), "--sample-every", "8")),
]


@pytest.mark.parametrize("command, system, argv", _BEYOND_STEP_CAP)
def test_steps_beyond_the_cap_exit_2_at_once(tmp_path, capsys, monkeypatch,
                                             command, system, argv):
    # a run of more than 10**9 rk4 or Euler-Maruyama steps is refused before
    # it steps or writes, naming how many steps it would take
    _patch_steppers(monkeypatch)
    out = tmp_path / "run"
    start = time.perf_counter()
    code = run(command, "--system", system, "--T", "1", *argv, "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and " steps; a run takes at most 1e+09" in err
    assert not out.exists()


@pytest.mark.parametrize("command, system, argv", _WITHIN_STEP_CAP)
def test_steps_within_the_cap_step(tmp_path, monkeypatch, command, system, argv):
    _patch_steppers(monkeypatch)
    with pytest.raises(_Stepped):
        run(command, "--system", system, "--T", "1", *argv, "--out", str(tmp_path / "run"))


@pytest.mark.parametrize("n_traj", [_MAX_TRAJ + 1, 10**8])
def test_members_beyond_the_cap_exit_2_before_any_spawn(tmp_path, capsys, monkeypatch, n_traj):
    # each member holds a PCG64 generator of about 1 KB, so 10**8 members
    # would ask for some 100 GB; the run is refused before a seed is spawned
    _patch_steppers(monkeypatch)
    seeded = []
    monkeypatch.setattr(np.random, "SeedSequence", lambda *args: seeded.append(args))
    out = tmp_path / "run"
    code = run("ensemble", "--system", "brownian_oscillator", "--n-traj", str(n_traj),
               "--T", "0.001", "--out", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and f"n_traj must be >= 2 and <= 1e+05, got {n_traj}" in err
    assert seeded == [] and not out.exists()


def test_members_at_the_cap_step(tmp_path, monkeypatch):
    _patch_steppers(monkeypatch)
    with pytest.raises(_Stepped):
        run("ensemble", "--system", "brownian_oscillator", "--n-traj", str(_MAX_TRAJ),
            "--T", "0.001", "--out", str(tmp_path / "run"))


# every (command, stepping) pair that _READS leaves out: the command does not run such a system
_UNRUN = [(command, stepping) for command in _READS for stepping in _RUNS
          if stepping not in _READS[command]]


@pytest.mark.parametrize("command, stepping", _UNRUN, ids=[f"{c}-{s}" for c, s in _UNRUN])
def test_unrun_stepping_exits_2_before_stepping(tmp_path, capsys, monkeypatch, command, stepping):
    _patch_steppers(monkeypatch)
    out = tmp_path / "run"
    code = run(command, *_RUNS[stepping], "--T", "1", "--out", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: `{command}` does not run" in err and f"steps {stepping}" in err
    assert not out.exists()


def test_ensemble_all_diverged_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    code = run("ensemble", "--system", "brownian_oscillator", "-p", "omega=2000",
               "--n-traj", "4", "--T", "2", "--out", str(out))
    assert code == EXIT_ABORT
    assert "4 of 4 trajectories diverged" in (out / "abort.txt").read_text(encoding="utf-8")
    assert not (out / "report.txt").exists()
    assert "config error" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck and check-identity


def test_gradcheck_all(capsys):
    assert run("gradcheck") == EXIT_OK
    out = capsys.readouterr().out
    assert "all partials PASS" in out
    for label in ("damped_oscillator.h", "damped_oscillator.L", "parachute.h",
                  "parachute.L", "forced_oscillator.h", "brownian_oscillator.h",
                  "gierer_meinhardt.h"):
        assert label in out
    assert "skipped" not in out


def test_gradcheck_single_system(capsys):
    assert run("gradcheck", "--system", "parachute", "-p", "lam=0.25") == EXIT_OK
    out = capsys.readouterr().out
    assert "parachute.h" in out
    assert "damped_oscillator" not in out


def test_gradcheck_passes_at_high_forcing_frequency(capsys):
    # Omega * step = 0.1: a plain central difference of the drive misses the
    # exact d/dt by (Omega * step)^2 / 6, far outside the oracle's tolerance
    make_system("forced_oscillator", Omega=1e4)
    assert run("gradcheck", "--system", "forced_oscillator", "-p", "Omega=1e4") == EXIT_OK
    assert "all partials PASS" in capsys.readouterr().out


def test_gradcheck_param_without_system():
    assert run("gradcheck", "-p", "lam=0.25") == EXIT_CONFIG


def test_gradcheck_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a wrong partial is a verification failure for gradcheck, which names
    # the failing coordinate, and a config error for the run commands
    import contactdyn.systems as systems_mod

    original = systems_mod.ScalarField

    class Corrupted(original):
        def __init__(self, **kw):
            if kw.get("name") == "damped_oscillator.h":
                good = kw["d_s"]
                kw["d_s"] = lambda x: good(x) + 1.0
            super().__init__(**kw)

    monkeypatch.setattr(systems_mod, "ScalarField", Corrupted)
    assert run("gradcheck", "--system", "damped_oscillator") == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "damped_oscillator.h: 3 checks" in captured.out
    assert "  s: analytic" in captured.err
    assert "gradcheck: FAIL" in captured.err
    assert run("simulate", "--system", "damped_oscillator", "--T", "1",
               "--out", str(tmp_path)) == EXIT_CONFIG
    assert "finite-difference oracle (s)" in capsys.readouterr().err


def test_oracle_failures_name_the_violated_domain(tmp_path, capsys):
    # at B = -5 the activator-inhibitor probe state lies outside B + p > 0, so
    # no partial can be evaluated; both failure texts give that cause
    with pytest.raises(ParameterError, match=r"\(s, q\[0\], p\[0\]\): .*violates B \+ p > 0"):
        make_system("gierer_meinhardt", B=-5)
    assert run("gradcheck", "--system", "gierer_meinhardt", "-p", "B=-5") == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "  s: analytic nan vs numeric nan (rel inf): " in err
    # the evaluators unpack plain floats, as the chart rhs does
    assert err.count("state (s, q, p) = (0.0, 0.2, 0.2) violates B + p > 0") == 3
    assert run("simulate", "--system", "gierer_meinhardt", "-p", "B=-5", "--T", "1",
               "--out", str(tmp_path)) == EXIT_CONFIG
    assert "violates B + p > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("ensemble", "--system", "brownian_oscillator", "-p", "m=1e300",
     "-p", "omega=1e300", "--n-traj", "4", "--T", "1"),
    ("ensemble", "--system", "brownian_oscillator", "-p", "m=1e200",
     "-p", "gamma=1e200", "-p", "k_BT=1e10", "--n-traj", "4", "--T", "1"),
    ("simulate", "--system", "damped_oscillator", "-p", "m=6.9e-103",
     "-p", "omega=1.14e173", "-p", "gamma=8.26e-119", "--T", "1"),
], ids=["overflow", "noise_amplitude", "probe_step_underflow"])
def test_unbuildable_parameters_exit_2(argv, tmp_path, capsys):
    assert run(*argv, "--out", str(tmp_path)) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_extreme_parameters_exit_2_without_numpy_warnings(tmp_path, capsys):
    # the forced model's kinetic term overflows at m = 1e-320; the build
    # refuses the system without printing numpy's RuntimeWarnings first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("simulate", "--system", "forced_oscillator", "-p", "m=1e-320",
                   "--T", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "config error" in err
    assert "RuntimeWarning" not in err


def test_check_identity_pass(capsys):
    assert run("check-identity", "--system", "damped_oscillator",
               "--T", "10") == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_check_identity_breach_exits_4(capsys):
    code = run("check-identity", "--system", "damped_oscillator", "--T", "10",
               "--identity-tol", "1e-18")
    assert code == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_check_identity_abort_keeps_partial_run(tmp_path, capsys):
    out = tmp_path / "run"
    code = run("check-identity", "--system", "gierer_meinhardt", "-p", "D=-50",
               "--T", "10", "--dt", "0.01", "--out", str(out))
    assert code == EXIT_ABORT
    assert "aborted at t" in (out / "abort.txt").read_text(encoding="utf-8")
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert 1 < len(rows) < 1001
    assert np.isfinite(rows).all()
    assert "aborted" in capsys.readouterr().err


def test_check_identity_rejects_stochastic():
    assert run("check-identity", "--system", "brownian_oscillator",
               "--T", "5") == EXIT_CONFIG


def test_identity_gate_on_simulate(tmp_path, capsys):
    # artifacts are still written when the gate trips: verification failure,
    # not a crash
    out = tmp_path / "run"
    code = run("simulate", "--system", "damped_oscillator", "--T", "10",
               "--identity-tol", "1e-18", "--out", str(out))
    assert code == EXIT_VERIFY
    assert (out / "report.txt").exists()
    assert "verification failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# virial and check-identity step only the roles their report reads


def _artifacts(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_reduced_run_that_fails_aborts_as_the_full_run(tmp_path, capsys):
    # virial steps (x, y) of the contact chart, not z; the run leaves the
    # domain B + y > 0, so it is stepped again in full and its abort note,
    # trajectory prefix and exit code are those of simulate, which steps z
    argv = ["--system", "gierer_meinhardt", "--chart", "contact", "-p", "D=-5",
            "--T", "30", "--dt", "0.01"]
    results = {}
    for command in ("simulate", "virial", "check-identity"):
        out = tmp_path / command
        code = run(command, *argv, "--out", str(out))
        results[command] = code, _artifacts(out), capsys.readouterr().err.replace(str(out), "")
    assert results["simulate"][0] == EXIT_ABORT
    assert results["virial"] == results["simulate"] == results["check-identity"]
    assert "violates B + p > 0" in results["virial"][2]
    header = results["virial"][1]["trajectory.csv"].split(b"\n", 1)[0]
    assert header == b"t,z,x,y"


@pytest.mark.parametrize("chart", ["contact", "planar"])
def test_report_names_the_chart_that_ran(tmp_path, chart):
    # the contact chart reduced to (x, y) has the planar chart's layout; the
    # report still names the chart that ran, and prints no meta line more
    reports = {}
    for command in ("simulate", "virial"):
        out = tmp_path / command
        assert run(command, "--system", "gierer_meinhardt", "--chart", chart,
                   "--T", "5", "--out", str(out)) == EXIT_OK
        reports[command] = (out / "report.txt").read_text(encoding="utf-8")
    report = parse_report(reports["virial"])
    assert report["chart"] == report["meta.chart"] == chart
    assert reports["virial"] == reports["simulate"].replace("command = simulate",
                                                            "command = virial")


def test_traced_rhs_steps_every_role_and_gives_the_same_report(tmp_path, monkeypatch):
    # a wrapper bound in place of a chart's rhs, as a tracer binds one,
    # carries no form: the run calls it and steps every role
    import contactdyn.cli as cli_mod

    def traced(*args, **kwargs):
        spec = make_system(*args, **kwargs)
        for chart in spec.charts.values():
            rhs = chart.rhs
            object.__setattr__(chart, "rhs", lambda t, y, rhs=rhs: rhs(t, y))
        return spec

    argv = ["virial", "--system", "forced_oscillator", "--T", "20", "--t0", "5"]
    assert run(*argv, "--out", str(tmp_path / "inlined")) == EXIT_OK
    steps = []
    stepper = cli_mod.integrate_fixed
    monkeypatch.setattr(cli_mod, "make_system", traced)
    monkeypatch.setattr(cli_mod, "integrate_fixed",
                        lambda *a, **k: steps.append(stepper(*a, **k)) or steps[-1])
    assert run(*argv, "--out", str(tmp_path / "traced")) == EXIT_OK
    assert steps[0].layout == ("t", "s", "q[0]", "p[0]")
    assert _artifacts(tmp_path / "traced") == _artifacts(tmp_path / "inlined")


def test_run_whose_only_divergent_role_is_unread_completes(tmp_path, capsys):
    # with C + K < 0 the contact chart's z grows like exp(-(C + K) t) and
    # overflows first: simulate, which steps z, aborts at t = 283.4, while
    # virial steps (x, y) alone to T; G then overflows, and the nan residual
    # fails the identity gate
    argv = ["--system", "gierer_meinhardt", "--chart", "contact", "-p", "C=-1",
            "-p", "K=-1.5", "--T", "300", "--dt", "0.01", "--sample-every", "100"]
    assert run("simulate", *argv, "--out", str(tmp_path / "simulate")) == EXIT_ABORT
    assert "non-finite state at t=283.4" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow of G
        code = run("virial", *argv, "--out", str(tmp_path / "virial"))
    assert code == EXIT_VERIFY
    assert "|residual_exact| = nan" in capsys.readouterr().err
    report = parse_report((tmp_path / "virial" / "report.txt").read_text(encoding="utf-8"))
    assert report["residual_exact"] == "nan"


def test_an_overflowed_G_reads_growing_and_warns_nothing(tmp_path, capsys):
    # G overflows to inf well before T, where inf > inf would read "bounded";
    # the reduction runs unwarned, as the steppers do, and the nan residual
    # still fails the identity gate
    argv = ["virial", "--system", "gierer_meinhardt", "--chart", "contact", "-p", "C=-1",
            "-p", "K=-1.5", "--T", "400", "--dt", "0.01", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv) == EXIT_VERIFY
    assert "verdict = growing" in capsys.readouterr().out
    report = parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    assert (report["G_final"], report["verdict"], report["growth_rate"]) == ("inf", "growing", "inf")


# ---------------------------------------------------------------------------
# set-up

ROOT = Path(__file__).resolve().parents[1]


def test_tool_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == contactdyn.__version__ == TOOL_VERSION


def test_import_leaves_yaml_unloaded():
    # only a config file needs yaml, so a run from flags alone never imports it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = "import sys, contactdyn.cli; print(sorted(m for m in sys.modules if 'yaml' in m))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_forked_ensemble_ranges_print_each_line_once(tmp_path, capsys):
    # stdout to a pipe is block-buffered; the second ensemble forks a worker
    # for its second member range while the first run's lines may still sit
    # in the buffer, and no child may print them again.  Two CPUs are
    # forced, so that it forks on any host; each run prints, once, what it
    # prints on one CPU
    argv = ["ensemble", "--system", "brownian_oscillator", "--n-traj", "4", "--T", "1"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = (
        "import os, sys\n"
        "import contactdyn.cli as cli, contactdyn.integrate as integrate\n"
        "integrate._cpu_count = lambda: 2\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "for out in sys.argv[2:]:\n"
        "    assert cli.main(sys.argv[1].split() + ['--out', out]) == 0\n"
        "print(len(forks), file=sys.stderr)\n"
    )
    outs = [str(tmp_path / name) for name in ("a", "b")]
    done = subprocess.run([sys.executable, "-c", script, " ".join(argv), *outs], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.split() == ["2"]  # one worker per run
    expected = []
    for out in outs:
        assert run(*argv, "--out", out) == EXIT_OK
        expected += capsys.readouterr().out.splitlines()
    assert len(expected) == 10
    assert done.stdout.splitlines() == expected
