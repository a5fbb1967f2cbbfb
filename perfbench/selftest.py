#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny horizons.

    python3 perfbench/selftest.py

Run from the root of a checkout, as run.py is.  For every workload it runs
one untraced and one traced measurement at tiny horizons and checks that
each metric BENCHMARK.json names is emitted, with its unit, and that the
calls pass their checks.  It then gives the forced workload a closed-form
target that is 1 % off and checks that the run counts as failed.  Exits 0
when all of this holds.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the harness, imported from this directory)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, seed=1, seconds=0, trace=trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace:d}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(wanted[trace].items())}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{name} trace={trace:d}: failed at tiny horizon: {result}")

    print("selftest: the FAILED line that follows is expected")
    true_target = run.forced_steady_state
    run.forced_steady_state = lambda gamma: tuple(1.01 * v for v in true_target(gamma))
    try:
        result = run.run_workload("virial_rk4_forced", seed=1, seconds=0, trace=False, tiny=True)
    finally:
        run.forced_steady_state = true_target
    if result["correct"] or result["failed"] != 1:
        problems.append(f"a 1 % wrong closed-form target did not fail the run: {result}")

    for p in problems:
        print("SELFTEST FAIL " + p)
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
