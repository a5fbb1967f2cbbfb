"""The quick demos under demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the Brownian and forced-sweep demos take 10-20 s each and are left out;
# the workflow runs them in a step of their own
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
