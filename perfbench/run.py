#!/usr/bin/env python3
"""Benchmark harness for the contactdyn command line.

    python3 perfbench/run.py --workload virial_rk4_forced --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Run it from the root of a checkout that holds src/contactdyn.  Each CLI call
runs in a fresh child process (perfbench/child.py), with BLAS capped to one
thread; calls never overlap.  For --seconds the harness repeats the
workload's call, checks every call's artifacts, and reports medians.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced calls and prints the per-layer metrics; the
spans go to .perfbench_work/trace/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

perfbench/README.md says why each workload is here and which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
MARKER = "PERFBENCH_RESULT "

BUDGET_S = 165.0  # one single-workload invocation must end within 180 s
SETUP_SAMPLES = 3  # set-up-only children before the first call; one more follows each call
IDENTITY_TOL = 1e-8
ARTIFACTS = ("report.txt", "trajectory.csv", "running_averages.csv")
# the artifacts whose size grows with the number of samples; report.txt is O(1)
SAMPLE_ARTIFACTS = ("trajectory.csv", "running_averages.csv")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MB",
    "residual_exact_abs": "1",
}
LAYER_UNITS = {
    "systems.rhs_calls": "count",
    "systems.rhs_s": "s",
    "systems.rhs_us": "us",
    "integrate.steps": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.self_s": "s",
    "integrate.self_us_per_step": "us",
    "integrate.samples": "count",
    "integrate.states_bytes": "bytes",
    "integrate.dense_output_s": "s",
    "integrate.ensemble_s": "s",
    "integrate.ensemble_ns_per_traj_step": "ns",
    "integrate.write_trajectory_csv_s": "s",
    "integrate.trajectory_csv_bytes": "bytes",
    "virial.report_s": "s",
    "virial.write_running_averages_s": "s",
    "virial.running_averages_rows": "count",
    "virial.running_averages_bytes": "bytes",
    "virial.report_text_s": "s",
    "virial.n_dropped": "count",
    "systems.make_system_s": "s",
    "systems.oracle_s": "s",
    "systems.oracle_checks": "count",
    "core.contact_vector_field_us": "us",
    "herglotz.lagrangian_field_us": "us",
    "extended.evolution_field_us": "us",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
STEPPERS = ("integrate.integrate_fixed", "integrate.integrate_adaptive",
            "integrate.langevin_ensemble")
ORACLES = ("core.check_partials", "herglotz.check_lagrangian_partials",
           "extended.check_partials_extended")


# ---------------------------------------------------------------------------
# workloads: inputs drawn from the seed, and the checks on each call


@dataclass(frozen=True)
class Inputs:
    system: str
    params: dict  # the system parameters the argv sets
    argv: list  # CLI argv, without --out
    expect: dict  # closed-form targets the check compares against


@dataclass(frozen=True)
class Call:
    """What a finished CLI call left behind, for the checks."""

    stdout: str
    report: dict
    out: Path


def draw_gamma(seed: int, default: float) -> float:
    """The damping rate, within +-5 % of its default, drawn from the workload seed.

    |residual_exact| scales about as 1/gamma: a +-20 % draw spread it by
    14-18 % between seeds, too wide to compare medians within a 25 % bound.
    """
    return default * float(np.random.default_rng(seed).uniform(0.95, 1.05))


def forced_steady_state(gamma, m=1.0, omega=1.0, F0=1.0, Omega=2.0):
    """Closed-form steady-state <KE>, <PE> of m q'' + m gamma q' + m omega^2 q = F0 cos(Omega t)."""
    a2 = (F0 / m) ** 2 / ((omega**2 - Omega**2) ** 2 + (gamma * Omega) ** 2)
    return m * Omega**2 * a2 / 4, m * omega**2 * a2 / 4


def forced_inputs(seed: int, tiny: bool) -> Inputs:
    # tiny: heavier damping so a short transient suffices, and every step
    # recorded so that the short window still meets the identity gate
    t0, periods, every, gamma0 = (30.0, 2, 1, 1.0) if tiny else (200.0, 10, 10, 0.1)
    gamma = draw_gamma(seed, gamma0)
    T = t0 + periods * math.pi  # whole forcing periods 2 pi / Omega, Omega = 2
    ke, pe = forced_steady_state(gamma)
    return Inputs(
        "forced_oscillator", {"gamma": gamma},
        ["virial", "--system", "forced_oscillator", "--T", repr(T), "--t0", repr(t0),
         "--sample-every", str(every), "-p", f"gamma={gamma!r}"],
        {"kinetic": ke, "potential": pe},
    )


def simulate_inputs(seed: int, tiny: bool) -> Inputs:
    gamma = draw_gamma(seed, 0.1)
    return Inputs(
        "damped_oscillator", {"gamma": gamma},
        ["simulate", "--system", "damped_oscillator", "--chart", "lagrangian",
         "--integrator", "rkf45", "--T", "10" if tiny else "200", "-p", f"gamma={gamma!r}"],
        {},
    )


def ensemble_inputs(seed: int, tiny: bool) -> Inputs:
    # k_BT equals the initial energy m omega^2 q0^2 / 2 = 0.5, so the ensemble
    # starts at its equilibrium mean energy.  Then <kinetic> carries no
    # start-up bias: over [0, T] that bias is (E(0) - k_BT) / (2 gamma T).
    n_traj, T = (200, 5.0) if tiny else (1000, 20.0)
    # hashed, so that seeds differing in low bits still give fresh streams
    # (members are seeded cli_seed XOR i)
    cli_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    return Inputs(
        "brownian_oscillator", {"k_BT": 0.5},
        ["ensemble", "--system", "brownian_oscillator", "--n-traj", str(n_traj),
         "--T", repr(T), "-p", "k_BT=0.5", "--seed", str(cli_seed)],
        {"kinetic": 0.25},
    )


def residual_problems(report: dict) -> list[str]:
    residual = abs(float(report["residual_exact"]))
    if residual > IDENTITY_TOL:
        return [f"|residual_exact| = {residual:.3e} > {IDENTITY_TOL:g}"]
    return []


def check_forced(call: Call, inp: Inputs) -> list[str]:
    problems = residual_problems(call.report)
    for term, target in inp.expect.items():
        got = float(call.report[f"term.{term}.average"])
        if not abs(got - target) <= 1e-3 * abs(target):
            problems.append(f"<{term}> = {got!r}, closed form {target!r} (rel tol 1e-3)")
    return problems


def check_simulate(call: Call, inp: Inputs) -> list[str]:
    problems = residual_problems(call.report)
    if call.report["verdict"] != "bounded":
        problems.append(f"verdict {call.report['verdict']!r}, expected 'bounded'")
    printed = [line for line in call.stdout.splitlines() if "trajectory.csv (" in line]
    path = call.out / "trajectory.csv"
    if not printed or not path.is_file():
        return problems + ["no trajectory.csv written"]
    samples = int(printed[-1].rsplit("(", 1)[1].split()[0])
    with open(path, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != samples:
        problems.append(f"trajectory.csv has {rows} rows for {samples} samples")
    return problems


def check_ensemble(call: Call, inp: Inputs) -> list[str]:
    problems = []
    target = inp.expect["kinetic"]
    ke = float(call.report["term.kinetic.average"])
    se = float(call.report["term.kinetic.stderr"])
    if not abs(ke - target) <= 4 * se:
        problems.append(f"<kinetic> = {ke!r} is not within 4 stderr ({4 * se:.3g}) of {target}")
    dropped = int(call.report["meta.n_dropped"])
    if dropped:
        problems.append(f"{dropped} ensemble members diverged")
    return problems


WORKLOADS = {
    "virial_rk4_forced": (forced_inputs, check_forced),
    "simulate_rkf45_lagrangian": (simulate_inputs, check_simulate),
    "ensemble_brownian": (ensemble_inputs, check_ensemble),
}


# ---------------------------------------------------------------------------
# child processes


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            out[key.strip()] = value.strip()
    return out


def run_child(job: dict, timeout: float) -> tuple[dict | None, str, str]:
    """Run child.py on `job`; return (its result or None, stdout, error text)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, "", f"timed out after {timeout:.0f} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(MARKER):
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, proc.stdout, f"child exited {proc.returncode}: {' | '.join(tail)}"
    result = json.loads(lines[-1][len(MARKER):])
    if not str(result["module"]).startswith(str(SRC)):
        return None, proc.stdout, f"imported contactdyn from {result['module']}, not {SRC}"
    return result, "\n".join(lines[:-1]), ""


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_id() -> str:
    """Hash of every file under src/: the program's identity in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source_id(),
    }


class Session:
    """The calls of one workload at one seed: runs them, checks them, counts failures."""

    def __init__(self, workload: str, seed: int, tiny: bool, env: dict):
        self.name = workload
        self.seed = seed
        make_inputs, self.check = WORKLOADS[workload]
        self.inputs = make_inputs(seed, tiny)
        self.ledger_key = f"{env['source_sha256']}/{workload}/{seed}/{'tiny' if tiny else 'full'}"
        self.start = time.perf_counter()
        self.attempted = 0
        self.problems: list[str] = []
        self.hashes: dict | None = None

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.start)

    def job(self, argv, trace=False, run_id="") -> dict:
        return {"system": self.inputs.system, "params": self.inputs.params,
                "argv": argv, "trace": trace, "run_id": run_id}

    def setup_only(self) -> float | None:
        result, _, error = run_child(self.job(None), max(10.0, self.remaining()))
        if result is None:
            self.problems.append(f"set-up child failed: {error}")
            return None
        return result["setup_s"]

    def call(self, trace: bool) -> dict | None:
        """One CLI call: its child result plus output size and residual, or None if it failed."""
        self.attempted += 1
        run_id = f"{self.name}-seed{self.seed}-call{self.attempted}"
        out = WORK / "out" / run_id
        shutil.rmtree(out, ignore_errors=True)
        job = self.job([*self.inputs.argv, "--out", str(out)], trace, run_id)
        result, stdout, error = run_child(job, max(10.0, self.remaining()))
        problems = [error] if result is None else self._check(result, stdout, out)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.problems.append(f"{run_id}: " + "; ".join(problems))
            print(f"FAILED {run_id}: " + "; ".join(problems), file=sys.stderr)
            return None
        return result

    def _check(self, result: dict, stdout: str, out: Path) -> list[str]:
        if result["exit_code"] != 0:
            return [f"contactdyn exited {result['exit_code']}"]
        report_path = out / "report.txt"
        if not report_path.is_file():
            return ["no report.txt written"]
        call = Call(stdout, parse_report(report_path.read_text(encoding="utf-8")), out)
        try:
            problems = self.check(call, self.inputs)
            result["residual_exact_abs"] = abs(float(call.report["residual_exact"]))
        except (KeyError, ValueError) as exc:
            return [f"report.txt lacks or garbles a checked field: {exc!r}"]
        sample_files = [out / n for n in SAMPLE_ARTIFACTS if (out / n).is_file()]
        # the ensemble writes no O(samples) artifact; its output is the report
        result["output_bytes"] = sum(p.stat().st_size for p in sample_files or [report_path])
        hashes = {n: file_sha256(out / n) for n in ARTIFACTS if (out / n).is_file()}
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            problems.append("artifacts differ from the first call at the same seed")
        return problems

    def check_ledger(self) -> None:
        """Compare artifact hashes with earlier runs of the same source and seed, then record them."""
        if self.hashes is None:
            return
        path = WORK / "hashes.json"
        ledger = json.loads(path.read_text()) if path.is_file() else {}
        earlier = ledger.setdefault(self.ledger_key, self.hashes)
        if earlier != self.hashes:
            self.problems.append("artifacts differ from an earlier run of the same source and seed")
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True))

    @property
    def failed(self) -> int:
        return min(len(self.problems), max(self.attempted, 1))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(results: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in results),
        "setup_s": med(setups + [r["setup_s"] for r in results]),
        "peak_rss_mb": med(r["maxrss_kb"] for r in results) / 1024,
        "output_mb": med(r["output_bytes"] for r in results) / 1e6,
        "residual_exact_abs": med(r["residual_exact_abs"] for r in results),
    }


def layer_metrics(traced: dict, plain: dict) -> dict:
    """Per-layer numbers of one traced call; `plain` is the untraced call just before it."""
    spans = traced["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids[s["parent"]].append(i)

    def self_s(i):
        """Span time not covered by child spans or by chart rhs calls."""
        rhs_own = spans[i]["attrs"]["rhs_s"] - sum(spans[j]["attrs"]["rhs_s"] for j in kids[i])
        return dur[i] - sum(dur[j] for j in kids[i]) - rhs_own

    def idx(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(*names):
        return sum(dur[i] for i in idx(*names))

    def attr(key, *names):
        return sum(spans[i]["attrs"].get(key, 0) for i in idx(*names))

    root = idx("cli.main")[0]
    rhs_calls = spans[root]["attrs"]["rhs_calls"]
    rhs_s = spans[root]["attrs"]["rhs_s"]
    accepted = attr("n_accepted", "integrate.integrate_adaptive")
    rejected = attr("n_rejected", "integrate.integrate_adaptive")
    steps = (attr("rhs_calls", "integrate.integrate_fixed") // 4  # four rhs calls per RK4 step
             + accepted + rejected + attr("traj_steps", "integrate.langevin_ensemble"))
    stepper_self = sum(self_s(i) for i in idx(*STEPPERS))
    ensemble_s = total("integrate.langevin_ensemble")
    traj_steps = attr("traj_steps", "integrate.langevin_ensemble")
    probes = traced["probes"]
    return {
        "systems.rhs_calls": rhs_calls,
        "systems.rhs_s": rhs_s,
        "systems.rhs_us": rhs_s / rhs_calls * 1e6 if rhs_calls else 0.0,
        "integrate.steps": steps,
        "integrate.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 1.0,
        "integrate.self_s": stepper_self,
        "integrate.self_us_per_step": stepper_self / steps * 1e6 if steps else 0.0,
        "integrate.samples": attr("samples", *STEPPERS),
        "integrate.states_bytes": sum(spans[i]["attrs"].get("samples", 0) * spans[i]["attrs"].get("width", 0) * 8
                                      for i in idx(*STEPPERS)),
        "integrate.dense_output_s": probes["dense_output_s"],
        "integrate.ensemble_s": ensemble_s,
        "integrate.ensemble_ns_per_traj_step": ensemble_s / traj_steps * 1e9 if traj_steps else 0.0,
        "integrate.write_trajectory_csv_s": total("integrate.write_trajectory_csv"),
        "integrate.trajectory_csv_bytes": attr("bytes", "integrate.write_trajectory_csv"),
        "virial.report_s": total("virial.virial_report", "virial.ensemble_report") - ensemble_s,
        "virial.write_running_averages_s": total("virial.write_running_averages"),
        "virial.running_averages_rows": attr("rows", "virial.write_running_averages"),
        "virial.running_averages_bytes": attr("bytes", "virial.write_running_averages"),
        "virial.report_text_s": total("virial.report_text"),
        "virial.n_dropped": attr("n_dropped", "virial.ensemble_report"),
        "systems.make_system_s": total("systems.make_system"),
        "systems.oracle_s": total(*ORACLES),
        "systems.oracle_checks": attr("checks", *ORACLES),
        "core.contact_vector_field_us": probes["contact_vector_field_us"],
        "herglotz.lagrangian_field_us": probes["lagrangian_field_us"],
        "extended.evolution_field_us": probes["evolution_field_us"],
        "cli.self_s": self_s(root),
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload for `seconds`; return the result object of the last stdout line."""
    env = environment()
    session = Session(workload, seed, tiny, env)
    deadline = session.start + seconds
    session.setup_only()  # untimed: fills the file cache and writes bytecode

    def more(last_call_s):
        """Start another call if it would end, on average, within the window and the budget."""
        now = time.perf_counter()
        return now + last_call_s / 2 < deadline and session.remaining() > 2 * last_call_s

    if not trace:
        setups = [session.setup_only() for _ in range(SETUP_SAMPLES)]
        results = []
        while True:
            t0 = time.perf_counter()
            result = session.call(trace=False)
            if result is not None:
                results.append(result)
            if not more(time.perf_counter() - t0):
                break
            setups.append(session.setup_only())  # spread set-ups over the window
        setups = [s for s in setups if s is not None]
        values = end_to_end(results, setups) if results else {}
        units = END_TO_END_UNITS
        print(f"{len(results)} calls, wall_s each: " + " ".join(f"{r['wall_s']:.4f}" for r in results))
    else:
        pairs, traced_calls = [], []
        while True:
            t0 = time.perf_counter()
            plain = session.call(trace=False)
            traced = session.call(trace=True)
            if plain is not None and traced is not None:
                pairs.append(layer_metrics(traced, plain))
                traced_calls.append(traced)
            if not more(time.perf_counter() - t0):
                break
        values = {k: statistics.median(p[k] for p in pairs) for k in LAYER_UNITS} if pairs else {}
        units = LAYER_UNITS
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps({
            "environment": env, "workload": workload, "seed": seed, "argv": session.inputs.argv,
            "spans": [s for t in traced_calls for s in t["spans"]],
            "probes": [t["probes"] for t in traced_calls], "per_call": pairs,
        }, indent=1))
    session.check_ledger()
    print("environment " + json.dumps(env))
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": not session.problems,
        "attempted": max(session.attempted, 1),
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "contactdyn" / "cli.py").is_file():
        print(f"perfbench: no src/contactdyn/cli.py under {ROOT}; "
              "run from the root of a contactdyn checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
