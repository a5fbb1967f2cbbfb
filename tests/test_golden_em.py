"""Euler-Maruyama artifacts against text recorded before the loop reduced per block.

The ensemble's report.txt and the single run's trajectory.csv were written
by the per-step loop, which evaluated the terms, the noise sum and the kept
samples after every step.  The loop that takes them once per block of steps
must write the same bytes.
"""

import hashlib
import textwrap

from contactdyn.cli import EXIT_OK, main

ENSEMBLE_REPORT = textwrap.dedent("""\
    # contactdyn report
    tool = contactdyn 0.1.0
    command = ensemble
    integrator = euler-maruyama
    dt = 0.001
    seed = 7
    #
    system = brownian_oscillator
    chart = hamiltonian
    n_traj = 64
    horizon = 2
    window_start = 0
    window = 2
    rate_scale = 0.5
    term.kinetic.sign = +1
    term.kinetic.average = 0.43546798193862907
    term.kinetic.stderr = 0.049202156046430308
    term.potential.sign = -1
    term.potential.average = 0.31130279005301542
    term.potential.stderr = 0.026630510453820727
    term.drive_friction.sign = +1
    term.drive_friction.average = -0.023646097402936172
    term.drive_friction.stderr = 0.034774185255545501
    theorem_residual = 0.10051909448267748
    theorem_stderr = 0.028396981852524861
    rate_average = 0.20103818896535497
    boundary_term = 0.20053393132868033
    residual_exact = 0.00050425763667463763
    G_initial = 0
    G_final = 0.40106786265736066
    verdict = growing
    growth_rate = 0.20053393132868033
    meta.dt = 0.001
    meta.equipartition_target = 0.5
    meta.gamma = 0.5
    meta.k_BT = 1
    meta.n_dropped = 0
    meta.param.gamma = 0.5
    meta.param.k_BT = 1
    meta.param.m = 1
    meta.param.omega = 1
    meta.seed = 7
""")

# 668 rows: step 0, every third of 2000 steps and T, which is no multiple of 3
SIMULATE_TRAJECTORY_SHA256 = "8303b150756f0eccf7a9075dda656bd03535f8a7cbf693f2c1e273d2d6b655d8"


def test_ensemble_report_is_the_recorded_text(tmp_path):
    out = tmp_path / "bath"
    assert main(["ensemble", "--system", "brownian_oscillator", "--n-traj", "64", "--T", "2",
                 "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert (out / "report.txt").read_text(encoding="utf-8") == ENSEMBLE_REPORT


def test_single_run_trajectory_is_the_recorded_bytes(tmp_path, capsys):
    out = tmp_path / "single"
    assert main(["simulate", "--system", "brownian_oscillator", "--T", "2", "--seed", "7",
                 "--sample-every", "3", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == SIMULATE_TRAJECTORY_SHA256
    assert "(668 samples)" in capsys.readouterr().out
