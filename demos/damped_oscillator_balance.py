"""Damped oscillator: term-by-term virial balance after the transient.

Integrates the (s, q, p) chart, averages the three contributions to the
rate of G = q p over a late window, and shows the boundary term falling
off like 1/T when started from G(0) != 0.  The script exits 1 when the exact
identity residual or T*b from T = 200 on misses its tolerance.
"""

import sys

import numpy as np

from contactdyn.integrate import integrate_fixed
from contactdyn.systems import make_system
from contactdyn.virial import RESIDUAL_TOL, virial_report

# T*b = G(T) - G(0) tends to -1 as G decays like exp(-gamma T / 2); from
# T = 200 on, G is below 1e-8
SETTLED_FROM, SETTLED_TOL = 200.0, 1e-6


def main():
    spec = make_system("damped_oscillator", gamma=0.1)
    chart = spec.chart("hamiltonian")

    traj = integrate_fixed(chart.rhs, chart.x0, 200.0, 1e-3,
                           layout=chart.layout, sample_every=10)
    rep = virial_report(spec, traj, t0=150.0)

    print("damped oscillator, averages over t in [150, 200]:")
    for name in rep.term_names:
        print(f"  <{name:>12}> = {rep.term(name):+.3e}")
    print(f"  theorem residual = {rep.theorem_residual:+.3e}")
    print(f"  exact identity residual = {rep.residual_exact:+.3e} (tol {RESIDUAL_TOL:.0e})")
    print(f"  verdict: {rep.verdict}")

    # boundary decay: start from (s, q, p) = (0, 1, 1) so G(0) = 1
    print("\nboundary term vs horizon (from q p = 1 at t = 0):")
    sweep = integrate_fixed(chart.rhs, [0.0, 1.0, 1.0], 400.0, 1e-3,
                            layout=chart.layout, sample_every=10)
    g = sweep.column("q[0]") * sweep.column("p[0]")
    miss = 0.0
    for T in (50.0, 100.0, 200.0, 400.0):
        i = int(np.searchsorted(sweep.times, T))
        b = (g[i] - g[0]) / sweep.times[i]
        print(f"  T = {T:6.0f}   (G(T)-G(0))/T = {b:+.6f}   T*b = {T * b:+.4f}")
        if T >= SETTLED_FROM:
            miss = max(miss, abs(T * b + 1.0))
    print("T*b settling to a constant is the 1/T law.")
    ok = abs(rep.residual_exact) <= RESIDUAL_TOL and miss <= SETTLED_TOL
    print(f"T*b within {miss:.1e} of -1 from T = {SETTLED_FROM:.0f} on "
          f"(tol {SETTLED_TOL:.0e}); all checks: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
