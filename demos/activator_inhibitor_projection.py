"""Activator-inhibitor kinetics lifted to a contact flow.

The planar rate equations
    xdot = A/(B + y) - C x,   ydot = D x - K y
are the (x, y) projection of a three-dimensional contact flow whose extra
coordinate z integrates a Lyapunov-like quantity.  This script checks the
projection pointwise, follows the spiral into the fixed point, and prints
the virial balance there: with all constants 1 both sides equal
2 x*^2 = 3 - sqrt(5) = 0.763932.  The script exits 1 when the projection
gap, the z residual or either side of the balance misses its tolerance.
"""

import math
import sys

import numpy as np

from contactdyn.integrate import integrate_fixed
from contactdyn.systems import (
    conformal_projection_check,
    make_system,
    z_equation_residual,
)
from contactdyn.virial import virial_report

# tolerances of the printed checks: the projection gap and the z residual
# compare two routes to one field, and the balance sides are averages over
# a run that starts on the fixed point
GAP_TOL, Z_TOL, BALANCE_TOL = 1e-12, 1e-8, 1e-6


def main():
    spec = make_system("gierer_meinhardt")
    chart = spec.chart("contact")

    rng = np.random.default_rng(1)
    gap = max(
        conformal_projection_check(
            spec, (rng.uniform(-2, 2), rng.uniform(-0.5, 3), rng.uniform(-2, 2))
        ).max_difference
        for _ in range(200)
    )
    print(f"planar field vs projected contact field: max gap {gap:.2e} (tol {GAP_TOL:.0e})")

    traj = integrate_fixed(chart.rhs, chart.x0, 60.0, 1e-3,
                           layout=chart.layout, sample_every=100)
    x, y = traj.column("x"), traj.column("y")
    xstar = (math.sqrt(5.0) - 1.0) / 2.0
    print("spiral into the fixed point:")
    for t_show in (0.0, 10.0, 30.0, 60.0):
        i = int(np.searchsorted(traj.times, t_show))
        print(f"  t = {traj.times[i]:5.1f}   x = {x[i]:.6f}   y = {y[i]:.6f}")
    print(f"  x* = y* = (sqrt(5)-1)/2 = {xstar:.6f}")
    z_res = z_equation_residual(spec, traj)
    print(f"z-equation residual along the run: {z_res:.2e} (tol {Z_TOL:.0e})")

    zstar = (xstar / (1 + xstar) - math.log(1 + xstar) + xstar**2 / 2) / 2
    rep = virial_report(
        spec,
        integrate_fixed(chart.rhs, [zstar, xstar, xstar], 5.0, 1e-3,
                        layout=chart.layout, sample_every=10),
    )
    pos, neg = rep.term("saturation") + rep.term("self_activation"), rep.term("cross_decay")
    target = 3 - math.sqrt(5.0)
    print("\nvirial balance at the stationary state:")
    print(f"  saturation + self_activation = {pos:.9f}")
    print(f"  cross_decay                  = {neg:.9f}")
    print(f"  3 - sqrt(5)                  = {target:.9f}")
    miss = max(abs(pos - target), abs(neg - target))
    ok = gap <= GAP_TOL and z_res <= Z_TOL and miss <= BALANCE_TOL
    print(f"sides within {miss:.1e} of 3 - sqrt(5) (tol {BALANCE_TOL:.0e}); "
          f"all checks: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
