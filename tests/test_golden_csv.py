"""Deterministic CSV artifacts against bytes recorded before numpy formatted them.

The sha256 digests below were taken from files written when every number
went through a '%.17g' row template, and the reports' when a report was
reduced from a trajectory held whole.  `write_csv` now formats a block of
values at a time with integer arithmetic in numpy (`contactdyn._g17`), a
simulate run streams its samples into trajectory.csv and its reduction
block by block, and both must write the same bytes.
"""

import hashlib

import pytest

from contactdyn.cli import EXIT_OK, EXIT_VERIFY, main

RUNS = {
    # RKF45 with dense output: 10 002 rows of (t, q, qdot, s)
    "rkf45_lagrangian": (
        ["--chart", "lagrangian", "--integrator", "rkf45", "--T", "10"], EXIT_OK, {
            "report.txt": "98e5bc9693582f9d48cd179c93abb713b3b53df829a6dcf36382e72894eca93f",
            "trajectory.csv": "654149e5377639b69b22438d512248ca508137b76b8e1c2843238ecd0910c339",
            "running_averages.csv":
                "1947ae5370bd28127adba0eb43249c12613132747f976eb9136423b721176563",
        }),
    # RK4 at the default step, 5001 rows of (t, s, q, p); over T = 5 the
    # exact-identity residual, 1.3e-8, exceeds the default tolerance of 1e-8,
    # so the run exits 4 with its artifacts written
    "rk4_hamiltonian": (
        ["--T", "5"], EXIT_VERIFY, {
            "report.txt": "7580e780a616805a738ffb7c31cbedfde62da41348269f1816282b7651444694",
            "trajectory.csv": "2c78ac2d4b04b2b9a26f7d46f427a7c53b528aa69fda5f885873a016426ef34b",
            "running_averages.csv":
                "1869a1b70050b00176332cd2939ac27624522da58c242fda66a3b29bb8ce577e",
        }),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_damped_oscillator_csvs_are_the_recorded_bytes(tmp_path, run):
    argv, code, digests = RUNS[run]
    out = tmp_path / run
    assert main(["simulate", "--system", "damped_oscillator", *argv, "--out", str(out)]) == code
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests
