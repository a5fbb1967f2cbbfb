"""Velocity-chart dynamics: the energy is not conserved, but its decay is exact.

Along any trajectory of an action-dependent Lagrangian the energy
E = qdot . dL/dqdot - L obeys dE/dt = -E dL/ds evaluated through the
Legendre map.  For the damped oscillator dL/ds = -gamma is constant, so
E(t) = E(0) exp(-gamma t) exactly -- dissipation as geometry, not as an
error term.  The script integrates the velocity chart, maps each sample
to the momentum chart, and checks both the chart agreement and the decay
law.  The script exits 1 when either misses its tolerance.
"""

import sys

import numpy as np

from contactdyn.herglotz import LagrangianPoint, energy_EL, legendre_map
from contactdyn.integrate import integrate_fixed
from contactdyn.systems import make_system

GAMMA = 0.1
# tolerances of the chart agreement and of the relative miss of the decay law
CHART_TOL, DECAY_TOL = 1e-10, 1e-9


def main():
    spec = make_system("damped_oscillator", gamma=GAMMA)
    chart = spec.chart("lagrangian")
    L, h = spec.lagrangian, spec.hamiltonian

    traj = integrate_fixed(chart.rhs, chart.x0, 50.0, 1e-3,
                           layout=chart.layout, sample_every=100)

    times = traj.times
    energies = np.empty(len(times))
    chart_gap = 0.0
    for i, row in enumerate(traj.states):
        z = LagrangianPoint(row[0:1], row[1:2], row[2])
        energies[i] = energy_EL(L, z)
        chart_gap = max(chart_gap, abs(h.value(legendre_map(L, z)) - energies[i]))

    print(f"max |h(Legendre(z)) - E_L(z)| along the run: {chart_gap:.2e} "
          f"(tol {CHART_TOL:.0e})")

    rescaled = energies * np.exp(GAMMA * times) / energies[0]
    decay_miss = float(np.max(np.abs(rescaled - 1.0)))
    print(f"max |E(t) e^(gamma t)/E(0) - 1|: {decay_miss:.2e} (tol {DECAY_TOL:.0e})")
    print("\n   t        E(t)          E(0) e^(-gamma t)")
    for t_show in (0.0, 10.0, 25.0, 50.0):
        i = int(np.searchsorted(times, t_show))
        print(f"{times[i]:5.1f}   {energies[i]:.8e}   "
              f"{energies[0] * np.exp(-GAMMA * times[i]):.8e}")
    ok = chart_gap <= CHART_TOL and decay_miss <= DECAY_TOL
    print(f"all checks: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
