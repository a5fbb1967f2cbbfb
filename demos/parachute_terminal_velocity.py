"""Quadratic-drag fall: terminal velocity and an honestly unbounded G.

The momentum-chart flow collapses to qddot = lam qdot^2 - g; velocity
locks onto -sqrt(g/lam) and G = m qdot q then grows linearly, so its
boundary term tends to mg/lam = 20 instead of zero.  The report flags
that with a "growing" verdict rather than pretending the theorem closed.
The script exits 1 when the reduction to qddot = lam qdot^2 - g or the
exact identity misses its tolerance.
"""

import math
import sys

import numpy as np

from contactdyn.integrate import integrate_fixed
from contactdyn.systems import make_system
from contactdyn.virial import RESIDUAL_TOL, virial_report

M, G0, LAM = 1.0, 10.0, 0.5
REDUCTION_TOL = 1e-8  # pointwise, on the momentum chart's field


def main():
    spec = make_system("parachute", m=M, g=G0, lam=LAM)
    chart = spec.chart("hamiltonian")
    traj = integrate_fixed(chart.rhs, chart.x0, 20.0, 1e-3,
                           layout=chart.layout, sample_every=100)

    s, p = traj.column("s"), traj.column("p[0]")
    u = (p - 2 * LAM * s) / M
    vt = math.sqrt(G0 / LAM)
    print("approach to terminal velocity:")
    for t_show in (0.5, 1.0, 2.0, 5.0, 20.0):
        i = int(np.searchsorted(traj.times, t_show))
        print(f"  t = {traj.times[i]:5.1f}   qdot = {u[i]:+.8f}"
              f"   gap = {u[i] + vt:+.2e}")
    print(f"  -sqrt(g/lam) = {-vt:.8f}")

    rows = traj.states
    dots = np.array([chart.rhs(t, r) for t, r in zip(traj.times, rows)])
    qddot = (dots[:, 2] - 2 * LAM * dots[:, 0]) / M
    reduction = float(np.max(np.abs(qddot - (LAM * u**2 - G0))))
    print(f"\nmax |qddot - (lam qdot^2 - g)| along the flow:"
          f" {reduction:.2e} (tol {REDUCTION_TOL:.0e})")

    chart_l = spec.chart("lagrangian")
    rep = virial_report(
        spec,
        integrate_fixed(chart_l.rhs, chart_l.x0, 200.0, 1e-3,
                        layout=chart_l.layout, sample_every=10),
    )
    print(f"\nvelocity-chart report at T = 200:")
    print(f"  boundary term = {rep.boundary:.4f}  (mg/lam = {M * G0 / LAM:.1f})")
    print(f"  verdict = {rep.verdict}, fitted growth {rep.growth_rate:.3f}")
    print(f"  exact identity still holds: residual = {rep.residual_exact:+.2e} "
          f"(tol {RESIDUAL_TOL:.0e})")
    ok = reduction <= REDUCTION_TOL and abs(rep.residual_exact) <= RESIDUAL_TOL
    print(f"all checks: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
