"""Thermal bath: equipartition emerging as the ensemble grows.

Doubling the ensemble size shrinks the standard error like 1/sqrt(n);
the kinetic and potential averages converge on k_BT/2 and the realized
drive term <q(eta - gamma p)>/2 stays consistent with zero.  The script
exits 1 when, at its largest ensemble, <KE> or <PE> misses k_BT/2, or the
drive term misses 0, by more than 4 standard errors.
"""

import argparse
import sys

from contactdyn.systems import make_system
from contactdyn.virial import ensemble_report

N_SE = 4  # misses beyond this many standard errors fail the run


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
    n, rep = 16, None
    while n <= args.max_n:
        rep = ensemble_report(spec, n, args.T, args.dt, seed=args.seed)
        print(f"{n:5d} {rep.term('kinetic'):8.4f} "
              f"{rep.term_error('kinetic'):7.4f} "
              f"{rep.term('potential'):8.4f} "
              f"{rep.term_error('potential'):7.4f} "
              f"{rep.term('drive_friction'):+8.4f} "
              f"{rep.term_error('drive_friction'):7.4f}")
        n *= 2
    if rep is None:
        print(f"no ensemble: --max-n {args.max_n} is below 16")
        return 1
    misses = {term: abs(rep.term(term) - want) / rep.term_error(term)
              for term, want in (("kinetic", target), ("potential", target),
                                 ("drive_friction", 0.0))}
    ok = max(misses.values()) <= N_SE
    print(f"at n = {rep.n_traj}: misses "
          + ", ".join(f"{term} {miss:.2f}" for term, miss in misses.items())
          + f" standard errors (tol {N_SE}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
