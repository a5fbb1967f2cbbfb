"""Thermal bath: equipartition emerging as the ensemble grows.

Doubling the ensemble size shrinks the standard error like 1/sqrt(n);
the kinetic and potential averages converge on k_BT/2 and the realized
drive term <q(eta - gamma p)>/2 stays consistent with zero.
"""

import argparse

from contactdyn.systems import make_system
from contactdyn.virial import ensemble_report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--T", type=float, default=50.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-n", type=int, default=256)
    args = ap.parse_args()

    spec = make_system("brownian_oscillator")
    target = spec.params["k_BT"] / 2
    print(f"target k_BT/2 = {target}")
    print(f"{'n':>5} {'<KE>':>8} {'se':>7} {'<PE>':>8} {'se':>7} "
          f"{'drive':>8} {'se':>7}")
    n = 16
    while n <= args.max_n:
        rep = ensemble_report(spec, n, args.T, args.dt, seed=args.seed)
        print(f"{n:5d} {rep.term('kinetic'):8.4f} "
              f"{rep.term_error('kinetic'):7.4f} "
              f"{rep.term('potential'):8.4f} "
              f"{rep.term_error('potential'):7.4f} "
              f"{rep.term('drive_friction'):+8.4f} "
              f"{rep.term_error('drive_friction'):7.4f}")
        n *= 2


if __name__ == "__main__":
    main()
