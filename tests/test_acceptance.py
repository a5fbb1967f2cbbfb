"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and
prints a single `criterion N: PASS/FAIL - ...` line (run with -s to see
them stream).  Everything here goes through public entry points, except
criterion 2 and the divergence part of criterion 9, symbolic proofs over the
catalog's stated models (tests/test_symbolic.py); the per-module suites hold
the fine-grained oracle checks.
"""

import math

import numpy as np

from contactdyn.core import DarbouxPoint, check_partials
from contactdyn.extended import ExtendedPoint, check_partials_extended
from contactdyn.herglotz import (
    LagrangianPoint,
    check_lagrangian_partials,
    energy_EL,
    legendre_map,
)
from contactdyn.integrate import integrate_fixed
from contactdyn.systems import (
    conformal_projection_check,
    make_system,
    z_equation_residual,
)
from contactdyn.virial import ensemble_report, virial_report

from test_symbolic import (
    _CONTACT_CHARTS,
    _CONTACT_MODELS,
    contact_rate_differences,
    field_trace_difference,
)

DETERMINISTIC = ("damped_oscillator", "parachute", "forced_oscillator",
                 "gierer_meinhardt")


def _criterion(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run(chart, T, dt=1e-3, sample_every=1, x0=None):
    return integrate_fixed(
        chart.rhs, chart.x0 if x0 is None else x0, T, dt,
        layout=chart.layout, sample_every=sample_every,
    )


def test_criterion_1_exact_finite_horizon_identity():
    # <X(G)> minus (G(T)-G(0))/T vanishes for every deterministic chart,
    # whatever the long-time behaviour of G
    worst, n_charts = 0.0, 0
    for name in DETERMINISTIC:
        spec = make_system(name)
        for chart in spec.charts.values():
            rep = virial_report(spec, _run(chart, 100.0))
            worst = max(worst, abs(rep.residual_exact))
            n_charts += 1
    _criterion(
        1, worst < 1e-8,
        f"max |<X(G)> - boundary| = {worst:.3e} over {n_charts} charts "
        f"(RK4, dt=1e-3, T=100; tol 1e-8)",
    )


def test_criterion_2_bracket_minus_reeb_form():
    # the rate of G = q.p along the contact field is {G,H}_PB - G dH/ds, and
    # that of H is dH/dt - H dH/ds, proved for every state of every stated
    # contact model (G is degree 1 in p, the case where that form is exact)
    failed = [name for name in _CONTACT_MODELS
              if any(d != 0 for d in contact_rate_differences(name))]
    _criterion(
        2, not failed,
        f"rate of q.p = {{G,H}} - G H_s and rate of H = H_t - H H_s, proved "
        f"symbolically for {len(_CONTACT_MODELS)} stated models"
        + (f"; fails for {failed}" if failed else ""),
    )


def test_criterion_3_damped_averages_and_boundary_decay():
    spec = make_system("damped_oscillator")
    chart = spec.chart("hamiltonian")
    # individual term averages only vanish once the transient has died off
    # (each is ~0.05 when the window includes it); average over [150, 200],
    # where the envelope is down to ~1e-7
    rep = virial_report(spec, _run(chart, 200.0, sample_every=10), t0=150.0)
    worst_avg = max(abs(rep.term(n)) for n in rep.term_names)

    # boundary ~ 1/T needs G(0) != 0: start from (s,q,p) = (0,1,1)
    sweep = _run(chart, 400.0, sample_every=10, x0=[0.0, 1.0, 1.0])
    g = sweep.column("q[0]") * sweep.column("p[0]")
    horizons = np.array([50.0, 100.0, 200.0, 400.0])
    vals = [
        abs((g[i] - g[0]) / sweep.times[i])
        for i in (np.searchsorted(sweep.times, T) for T in horizons)
    ]
    slope = np.polyfit(np.log(horizons), np.log(vals), 1)[0]
    ok = worst_avg < 1e-6 and abs(slope + 1.0) < 0.05
    _criterion(
        3, ok,
        f"post-transient |term averages| <= {worst_avg:.3e} (tol 1e-6); "
        f"boundary log-log slope {slope:+.4f} (want -1 +/- 0.05)",
    )


def test_criterion_4_forced_steady_state():
    spec = make_system("forced_oscillator")
    T = 200.0 + 50.0 * math.pi
    rep = virial_report(spec, _run(spec.chart("extended"), T, sample_every=10),
                        t0=200.0)
    ke, pe = rep.term("kinetic"), rep.term("potential")
    e_ke = abs(ke - 0.11062) / 0.11062
    e_pe = abs(pe - 0.027655) / 0.027655
    ok = e_ke < 1e-3 and e_pe < 1e-3 and abs(rep.theorem_residual) < 1e-4
    _criterion(
        4, ok,
        f"<KE> = {ke:.6f} (rel {e_ke:.1e}), <PE> = {pe:.6f} (rel {e_pe:.1e}), "
        f"residual {rep.theorem_residual:.2e} over [200, 200+50pi]",
    )


def test_criterion_5_parachute():
    spec = make_system("parachute")
    m, g, lam = (spec.params[k] for k in ("m", "g", "lam"))
    traj = _run(spec.chart("hamiltonian"), 20.0)
    s, p = traj.column("s"), traj.column("p[0]")
    u = (p - 2 * lam * s) / m
    v_err = abs(u[-1] + math.sqrt(g / lam))

    # the (s,q,p) flow must collapse to qddot = lam qdot^2 - g pointwise
    dots = np.array([spec.chart("hamiltonian").rhs(t, row)
                     for t, row in zip(traj.times, traj.states)])
    qddot = (dots[:, 2] - 2 * lam * dots[:, 0]) / m
    reduction = np.max(np.abs(qddot - (lam * u**2 - g)))

    rep = virial_report(spec, _run(spec.chart("lagrangian"), 200.0,
                                   sample_every=10))
    b_err = abs(rep.boundary - m * g / lam) / (m * g / lam)
    ok = (v_err < 1e-4 and reduction < 1e-8 and b_err < 0.01
          and rep.verdict == "growing")
    _criterion(
        5, ok,
        f"v(20) - (-sqrt(g/lam)) = {v_err:.2e} (tol 1e-4); reduction residual "
        f"{reduction:.2e} (tol 1e-8); boundary {rep.boundary:.4f} vs 20 "
        f"(rel {b_err:.2e}), verdict {rep.verdict}",
    )


def test_criterion_6_brownian_equipartition():
    spec = make_system("brownian_oscillator")  # gamma=0.5, k_BT=1
    rep = ensemble_report(spec, 1000, 100.0, 1e-3)  # seed 0
    ke, pe = rep.term("kinetic"), rep.term("potential")
    se_ke, se_pe = rep.term_error("kinetic"), rep.term_error("potential")
    drive, se_drive = rep.term("drive_friction"), rep.term_error("drive_friction")
    joint = math.hypot(se_ke, se_pe)
    ok = (abs(ke - 0.5) < 0.025 and abs(pe - 0.5) < 0.025
          and abs(ke - pe) < 3 * joint and abs(drive) < 3 * se_drive)
    _criterion(
        6, ok,
        f"KE = {ke:.4f}+/-{se_ke:.4f}, PE = {pe:.4f}+/-{se_pe:.4f} "
        f"(target 0.5 +/- 5%); |KE-PE| = {abs(ke - pe):.4f} < 3 joint sigma "
        f"{3 * joint:.4f}; drive {drive:.4f}+/-{se_drive:.4f} ~ 0 at 3 sigma",
    )


def test_criterion_7_gierer_meinhardt():
    spec = make_system("gierer_meinhardt")
    chart = spec.chart("contact")
    xstar = (math.sqrt(5.0) - 1.0) / 2.0
    zstar = (xstar / (1 + xstar) - math.log(1 + xstar) + xstar**2 / 2) / 2.0
    rep = virial_report(spec, _run(chart, 5.0, x0=[zstar, xstar, xstar]))
    side_pos = rep.term("saturation") + rep.term("self_activation")
    side_neg = rep.term("cross_decay")
    e_pos = abs(side_pos - 0.763932)
    e_neg = abs(side_neg - 0.763932)

    rng = np.random.default_rng(7)
    proj = max(
        conformal_projection_check(
            spec,
            (rng.uniform(-2, 2), rng.uniform(-0.5, 3), rng.uniform(-2, 2)),
        ).max_difference
        for _ in range(1000)
    )
    z_res = z_equation_residual(spec, _run(chart, 50.0, sample_every=10))
    ok = e_pos < 1e-6 and e_neg < 1e-6 and proj < 1e-12 and z_res < 1e-8
    _criterion(
        7, ok,
        f"fixed-point sides {side_pos:.6f} / {side_neg:.6f} vs 0.763932 "
        f"(tol 1e-6); projection gap {proj:.2e} at 1e3 points (tol 1e-12); "
        f"z residual {z_res:.2e} (tol 1e-8)",
    )


def test_criterion_8_cross_chart_consistency():
    worst_q = worst_s = worst_e = 0.0
    for name in ("damped_oscillator", "parachute"):
        spec = make_system(name)
        tH = _run(spec.chart("hamiltonian"), 50.0, sample_every=10)
        tL = _run(spec.chart("lagrangian"), 50.0, sample_every=10)
        worst_q = max(worst_q, np.max(np.abs(tH.column("q[0]") - tL.column("q[0]"))))
        worst_s = max(worst_s, np.max(np.abs(tH.column("s") - tL.column("s"))))
        L, h = spec.lagrangian, spec.hamiltonian
        for row in tL.states[::50]:
            z = LagrangianPoint(row[0:1], row[1:2], row[2])
            worst_e = max(worst_e,
                          abs(h.value(legendre_map(L, z)) - energy_EL(L, z)))
    ok = worst_q < 1e-6 and worst_s < 1e-6 and worst_e < 1e-10
    _criterion(
        8, ok,
        f"max |q_H - q_L| = {worst_q:.2e}, max |s_H - s_L| = {worst_s:.2e} "
        f"over T=50 (tol 1e-6); max |h(Legendre) - E_L| = {worst_e:.2e} "
        f"(tol 1e-10)",
    )


def test_criterion_9_oracles_and_convergence():
    rng = np.random.default_rng(99)

    def darboux(y_lo=-1.5, y_hi=1.5):
        return DarbouxPoint(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5, 1),
                            rng.uniform(y_lo, y_hi, 1))

    damped = make_system("damped_oscillator")
    parachute = make_system("parachute")
    forced = make_system("forced_oscillator")
    gm = make_system("gierer_meinhardt")

    worst_partial = 0.0
    all_pass = True
    for _ in range(5):
        z = LagrangianPoint(rng.uniform(-1.5, 1.5, 1), rng.uniform(-1.5, 1.5, 1),
                            rng.uniform(-1.5, 1.5))
        reports = [
            check_partials(damped.hamiltonian, darboux()),
            check_partials(parachute.hamiltonian, darboux()),
            check_partials(gm.hamiltonian, darboux(-0.3, 2.5)),
            check_partials_extended(forced.extended,
                                    ExtendedPoint(rng.uniform(0, 6), darboux())),
            check_lagrangian_partials(damped.lagrangian, z),
            check_lagrangian_partials(parachute.lagrangian, z),
        ]
        all_pass = all_pass and all(r.passed for r in reports)
        worst_partial = max(worst_partial,
                            max(r.max_rel_error for r in reports))

    # the contact field's divergence, proved for every state of every contact chart
    div_failed = [c for c in _CONTACT_CHARTS if field_trace_difference(*c) != 0]

    # 4th-order step convergence on the damped oscillator: halving dt should
    # shrink the final-state error ~16x
    chart = damped.chart("hamiltonian")
    ref = _run(chart, 5.0, dt=2.5e-4, sample_every=20000).states[-1]
    e1 = np.max(np.abs(_run(chart, 5.0, dt=0.02, sample_every=250).states[-1] - ref))
    e2 = np.max(np.abs(_run(chart, 5.0, dt=0.01, sample_every=500).states[-1] - ref))
    ratio = e1 / e2

    ok = all_pass and not div_failed and 12.0 <= ratio <= 20.0
    _criterion(
        9, ok,
        f"partials max rel = {worst_partial:.2e} (pass rule 1e-6); "
        f"field trace = -2 H_s proved symbolically for {len(_CONTACT_CHARTS)} contact charts"
        + (f", fails for {div_failed}" if div_failed else "")
        + f"; RK4 halving ratio {ratio:.2f} (want [12, 20])",
    )
