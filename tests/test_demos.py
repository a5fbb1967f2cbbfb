"""The quick demos under demos/ pass the checks they print.

Each demo exits 1 when a printed check misses the tolerance the demo states,
so exit 0 gates: the activator-inhibitor projection gap, z residual and
fixed-point balance against 3 - sqrt(5); the damped oscillator's identity
residual and T*b against -1; the Herglotz chart agreement and E(t) against
E(0) exp(-gamma t); and the parachute's reduction to qddot = lam qdot^2 - g
and its identity residual.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the Brownian demo takes 3-4 s and the forced sweep about 6 s on a shared
# 2-vCPU host; they are left out, and the workflow runs them in a step of
# their own
QUICK_DEMOS = [
    "activator_inhibitor_projection",
    "damped_oscillator_balance",
    "herglotz_energy_decay",
    "parachute_terminal_velocity",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
