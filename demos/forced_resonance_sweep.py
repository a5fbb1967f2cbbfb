"""Forced damped oscillator: steady-state averages across drive frequencies.

For each drive frequency the steady-state amplitude is
A = F0 / sqrt((w^2 - W^2)^2 + (gamma W)^2), so <KE> = m A^2 W^2 / 4 and
<PE> = m w^2 A^2 / 4.  Averaging over whole drive periods after the
transient reproduces both to a few parts in 1e4 and keeps the theorem
residual at the 1e-4 level the identity promises.  The script exits 1 when
any average misses its closed form by more than 5e-4 relative.
"""

import argparse
import math
import sys

from contactdyn.integrate import integrate_fixed
from contactdyn.systems import make_system
from contactdyn.virial import virial_report

# relative miss of <KE> or <PE> from its closed form beyond which the sweep fails
REL_TOL = 5e-4


def steady_averages(m, omega, gamma, F0, Omega):
    amp = F0 / math.sqrt((omega**2 - Omega**2) ** 2 + (gamma * Omega) ** 2)
    return m * amp**2 * Omega**2 / 4, m * omega**2 * amp**2 / 4


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t0", type=float, default=200.0,
                    help="start of the averaging window (transient burn-in)")
    ap.add_argument("--periods", type=int, default=100,
                    help="number of drive periods to average over")
    args = ap.parse_args()

    m, omega, gamma, F0 = 1.0, 1.0, 0.1, 1.0
    print(f"{'Omega':>6} {'<KE> run':>12} {'<KE> exact':>12} "
          f"{'<PE> run':>12} {'<PE> exact':>12} {'residual':>10}")
    worst = 0.0
    for Omega in (0.5, 0.9, 1.0, 1.1, 2.0):
        spec = make_system("forced_oscillator", m=m, omega=omega, gamma=gamma,
                           F0=F0, Omega=Omega)
        chart = spec.chart("extended")
        T = args.t0 + args.periods * 2 * math.pi / Omega
        # the report reads G and the terms only, so s, which they do not
        # read and which (t, q, p) do not feed on, is not stepped
        traj = integrate_fixed(chart.rhs, chart.x0, T, 1e-3,
                               layout=chart.layout, sample_every=10, keep=())
        rep = virial_report(spec, traj, t0=args.t0)
        ke, pe = steady_averages(m, omega, gamma, F0, Omega)
        print(f"{Omega:6.2f} {rep.term('kinetic'):12.6f} {ke:12.6f} "
              f"{rep.term('potential'):12.6f} {pe:12.6f} "
              f"{rep.theorem_residual:10.1e}")
        worst = max(worst, abs(rep.term("kinetic") / ke - 1),
                    abs(rep.term("potential") / pe - 1))
    ok = worst <= REL_TOL
    print(f"worst relative miss {worst:.1e} (tolerance {REL_TOL:.0e}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
