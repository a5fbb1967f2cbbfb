"""Reports, running averages, verdict lines and abort artifacts against recorded bytes.

A sibling of test_golden_csv.py, which pins simulate's three artifacts.

The sha256 digests and the check-identity lines below were recorded when a
report was reduced from a trajectory held whole, with the term averages
summed by math.fsum.  Runs now stream their samples into a `Reduction`
block by block, with exact sums, and must give the same bytes: an off-grid
window start, an rkf45 window, a last step shorter than dt, and a reduced
run that aborts and is stepped again in full for its trajectory prefix.
"""

import hashlib

import pytest

from contactdyn.cli import EXIT_ABORT, EXIT_OK, EXIT_VERIFY, main

RUNS = {
    # RK4, one sample in 7 steps: t0 falls between samples, and the window's
    # 3950 rows are written one in 4
    "forced_offgrid": (
        "virial --system forced_oscillator --T 40 --t0 12.3456 --sample-every 7", EXIT_VERIFY, {
            "report.txt": "fd5068bfec9c89263bcf04b4c3782dc62ebc8bcd5c7891c7ea4896d026d97982",
            "running_averages.csv":
                "16c9b19a19723a6160b7353521c2c4b6fddd02950f46372f5a05783f6c7217e6",
        }),
    "rkf45_offgrid": (
        "virial --system damped_oscillator --integrator rkf45 --T 20 --t0 3.3333 "
        "--sample-interval 0.003", EXIT_OK, {
            "report.txt": "e55fe9f91061d14ae8ad6638477f045df9b5381aebd901f6f7d9d5e60bd49128",
            "running_averages.csv":
                "7337cb1e7b9bd63487390ebfec84d72fd468eafc51d290a4980de1b50ca197a4",
        }),
    # 3333 steps of 0.003 and a last one of 3.7e-4 onto T
    "rk4_remainder": (
        "virial --system damped_oscillator --T 10.00037 --t0 0.4 --dt 0.003 --sample-every 3",
        EXIT_VERIFY, {
            "report.txt": "6699e65e2a0227bcacdc69e878dc9fcceb4967ea8b13f6b52ec3a23b3a036411",
            "running_averages.csv":
                "692006370975a24f1aa51fc3487db7c433539fe470c9d8a28d9aec231b380390",
        }),
    # virial steps (x, y) of the contact chart and fails at t = 0.58; the
    # run is stepped again in full for trajectory.csv
    "reduced_abort": (
        "virial --system gierer_meinhardt --chart contact -p D=-5 --T 30 --dt 0.01",
        EXIT_ABORT, {
            "abort.txt": "f278c2d1121ec375bce0d6dd7a63730ea191a06a24395e4854dc78b14f198350",
            "trajectory.csv": "af4ad40f05184f8acb82130da4f07c99b2913584e9fc23546340e938cd3a0925",
        }),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_are_the_recorded_bytes(tmp_path, name):
    command, code, digests = RUNS[name]
    out = tmp_path / name
    assert main([*command.split(), "--out", str(out)]) == code
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == digests


@pytest.mark.parametrize("command, line", [
    ("--system forced_oscillator --T 30 --t0 7.77",
     "forced_oscillator/extended: |<rate of G> - boundary| = 1.337114e-08 (tol 1.0e-08) FAIL"),
    ("--system damped_oscillator --integrator rkf45 --T 15 --t0 1.0005",
     "damped_oscillator/hamiltonian: |<rate of G> - boundary| = 2.911074e-09 (tol 1.0e-08) PASS"),
])
def test_check_identity_prints_the_recorded_line(tmp_path, capsys, command, line):
    code = main(["check-identity", *command.split(), "--out", str(tmp_path / "run")])
    assert code == (EXIT_OK if line.endswith("PASS") else EXIT_VERIFY)
    assert capsys.readouterr().out.splitlines() == [line]
    assert not (tmp_path / "run").exists()
