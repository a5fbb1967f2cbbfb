"""Command-line runner: configs, overrides, artifacts, exit codes."""

import math

import numpy as np
import pytest

from contactdyn.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from contactdyn.virial import parse_report


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
    assert "aborted at t" in (out / "abort.txt").read_text(encoding="utf-8")
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert 1 < len(rows) < 2001
    assert np.isfinite(rows).all()
    assert "aborted" in capsys.readouterr().err


@pytest.mark.parametrize("dt, T", [("0.5", "2"), ("0.03", "1")])
def test_simulate_brownian_bad_step_exits_2(tmp_path, capsys, dt, T):
    # gamma*dt >= 0.1, and T not a whole number of steps
    code = run("simulate", "--system", "brownian_oscillator", "--dt", dt,
               "--T", T, "--out", str(tmp_path / "run"))
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
    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    assert report["command"] == "ensemble"
    assert report["integrator"] == "euler-maruyama"
    assert report["seed"] == "11"
    assert report["n_traj"] == "16"
    assert "term.kinetic.stderr" in report
    assert "+/-" in capsys.readouterr().out


def test_ensemble_rerun_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run("ensemble", "--system", "brownian_oscillator",
                   "--n-traj", "8", "--T", "10", "--seed", "5",
                   "--out", str(out)) == EXIT_OK
    assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()


def test_ensemble_seed_changes_output(tmp_path):
    # per-trajectory streams are seed XOR index, so two seeds inside the same
    # power-of-two block yield the same stream *set* (means are permutation
    # invariant); distinct blocks must differ
    reports = []
    for seed in ("5", "1000"):
        out = tmp_path / seed
        assert run("ensemble", "--system", "brownian_oscillator",
                   "--n-traj", "8", "--T", "10", "--seed", seed,
                   "--out", str(out)) == EXIT_OK
        reports.append(parse_report((out / "report.txt").read_text(encoding="utf-8")))
    assert reports[0]["term.kinetic.average"] != reports[1]["term.kinetic.average"]


def test_ensemble_rejects_deterministic_system(tmp_path):
    assert run("ensemble", "--system", "parachute", "--n-traj", "8",
               "--T", "10", "--out", str(tmp_path)) == EXIT_CONFIG


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
                  "parachute.L", "forced_oscillator.h", "gierer_meinhardt.h"):
        assert label in out
    assert "stochastic stepper" in out


def test_gradcheck_single_system(capsys):
    assert run("gradcheck", "--system", "parachute", "-p", "lam=0.25") == EXIT_OK
    out = capsys.readouterr().out
    assert "parachute.h" in out
    assert "damped_oscillator" not in out


def test_gradcheck_param_without_system():
    assert run("gradcheck", "-p", "lam=0.25") == EXIT_CONFIG


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
