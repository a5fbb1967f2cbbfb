"""Rate-split, boundary identity, term reports, verdicts, ensembles."""

import io
import math

import numpy as np
import pytest

from contactdyn.core import DarbouxPoint, ScalarField, apply_field_to_observable
from contactdyn.herglotz import LagrangianPoint, legendre_map
from contactdyn.integrate import Trajectory, NoiseSpec, integrate_fixed
from contactdyn.systems import Chart, SystemSpec, VirialTermBinding, make_system
from contactdyn.virial import (
    VirialTerm,
    boundary_term,
    ensemble_report,
    growth_verdict,
    parse_report,
    report_text,
    virial_observable,
    virial_rate,
    virial_report,
    write_report,
    write_running_averages,
)

from conftest import damped_oscillator_h, free_particle_h, parachute_h, parachute_L, random_point


# ---------------------------------------------------------------------------
# the observable G and its rate split


def test_virial_observable_hamiltonian_chart():
    G = virial_observable(1)
    x = DarbouxPoint(0.0, [1.0], [2.0])
    assert G.value(x) == 2.0
    assert G.d_s(x) == 0.0
    np.testing.assert_array_equal(G.d_q(x), [2.0])
    np.testing.assert_array_equal(G.d_p(x), [1.0])


def test_virial_observable_lagrangian_chart():
    G = virial_observable(1, masses=[1.0])
    assert G.value(LagrangianPoint([1.0], [2.0], 5.0)) == 2.0


def test_virial_observable_matches_through_legendre():
    # q = 0 kills the product in both charts; the images agree in general
    G_L = virial_observable(1, masses=[1.0])
    z = LagrangianPoint([0.0], [1.0], 3.0)
    assert G_L.value(z) == 0.0
    G_H = virial_observable(1)
    L = parachute_L()
    assert G_H.value(legendre_map(L, z)) == 0.0


def test_virial_observable_multidof():
    G = virial_observable(3)
    x = DarbouxPoint(0.0, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert G.value(x) == pytest.approx(32.0)


def test_virial_observable_validation():
    with pytest.raises(ValueError):
        virial_observable(0)
    with pytest.raises(ValueError):
        virial_observable(2, masses=[1.0])


def test_virial_rate_damped_frozen():
    pb, reeb, total = virial_rate(damped_oscillator_h(), DarbouxPoint(0.0, [1.0], [2.0]))
    assert pb == pytest.approx(3.0, abs=1e-14)
    assert reeb == pytest.approx(0.2, abs=1e-14)
    assert total == pytest.approx(2.8, abs=1e-14)


def test_virial_rate_reeb_vanishes_without_s():
    h = free_particle_h()
    rng = np.random.default_rng(5)
    for _ in range(20):
        _, reeb, _ = virial_rate(h, random_point(rng, 1))
        assert reeb == 0.0


def test_virial_rate_parachute_reeb_piece():
    h = parachute_h()  # m=1, g=10, lam=0.5
    pb, reeb, total = virial_rate(h, DarbouxPoint(0.0, [1.0], [1.0]))
    assert reeb == pytest.approx(-1.0, abs=1e-14)  # G=1 times dh/ds = -1
    assert total == pytest.approx(pb + 1.0, abs=1e-14)


def test_virial_rate_equals_flow_derivative():
    rng = np.random.default_rng(6)
    for h in (damped_oscillator_h(), parachute_h()):
        G = virial_observable(1)
        for _ in range(200):
            x = random_point(rng, 1)
            _, _, total = virial_rate(h, x)
            direct = apply_field_to_observable(h, G, x)
            scale = max(abs(direct), 1.0)
            assert abs(total - direct) / scale < 1e-10


# ---------------------------------------------------------------------------
# boundary term


def test_boundary_term_periodic_orbit():
    h = damped_oscillator_h(gamma=0.0)
    spec = make_system("damped_oscillator")  # only for the chart layout

    def rhs(t, y):
        s, q, p = y
        return np.array([p * p / 2 - q * q / 2, p, -q])

    traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                           layout=("s", "q[0]", "p[0]"))
    assert abs(boundary_term(traj, virial_observable(1))) < 1e-8
    assert h.d_s(DarbouxPoint(0.0, [1.0], [0.0])) == 0.0


def test_boundary_term_damped_decays():
    spec = make_system("damped_oscillator")
    chart = spec.chart()
    b = {}
    for T in (100.0, 200.0):
        traj = integrate_fixed(chart.rhs, chart.x0, T=T, dt=1e-3,
                               layout=chart.layout)
        b[T] = boundary_term(traj, chart.G(traj))
    assert abs(b[200.0]) < 1e-6
    assert abs(b[200.0]) <= abs(b[100.0])


def test_boundary_term_parachute_growth():
    spec = make_system("parachute")  # m=1, g=10, lam=0.5 -> m g / lam = 20
    chart = spec.chart("lagrangian")
    traj = integrate_fixed(chart.rhs, chart.x0, T=200.0, dt=1e-3,
                           layout=chart.layout)
    b = boundary_term(traj, virial_observable(1, masses=[1.0]))
    assert b == pytest.approx(20.0, rel=0.01)


def test_boundary_term_zero_span():
    traj = Trajectory(times=[0.0], states=[[0.0, 1.0, 0.0]],
                      layout=("s", "q[0]", "p[0]"))
    with pytest.raises(ValueError, match="spans no time"):
        boundary_term(traj, virial_observable(1))


# ---------------------------------------------------------------------------
# verdict heuristic on synthetic series


def test_growth_verdict_synthetic():
    t = np.linspace(0.0, 100.0, 2001)
    verdict, rate = growth_verdict(t, np.sin(t))
    assert verdict == "bounded"
    verdict, rate = growth_verdict(t, 3.0 * t)
    assert verdict == "growing"
    assert rate == pytest.approx(3.0, rel=0.05)
    verdict, rate = growth_verdict(t, np.exp(-0.1 * t))
    assert verdict == "bounded"
    verdict, rate = growth_verdict(t, np.zeros_like(t))
    assert verdict == "bounded" and rate == 0.0


# ---------------------------------------------------------------------------
# deterministic reports


@pytest.fixture(scope="module")
def damped_report_T200():
    spec = make_system("damped_oscillator")
    chart = spec.chart()
    traj = integrate_fixed(chart.rhs, chart.x0, T=200.0, dt=1e-3,
                           layout=chart.layout, sample_every=1)
    return spec, traj, virial_report(spec, traj)


def test_damped_report_residuals(damped_report_T200):
    _, _, rep = damped_report_T200
    assert abs(rep.theorem_residual) < 1e-6
    assert abs(rep.residual_exact) < 1e-9
    assert rep.verdict == "bounded"
    assert rep.term("kinetic") > 0 and rep.term("potential") > 0


def test_damped_report_internal_consistency(damped_report_T200):
    # sum(sign * <term>) must equal rate_scale * <X(G)> to rounding
    _, _, rep = damped_report_T200
    assert rep.theorem_residual == pytest.approx(
        rep.rate_scale * rep.rate_average, abs=1e-12
    )
    assert rep.residual_exact == pytest.approx(
        rep.rate_average - rep.boundary, abs=1e-15
    )


def test_damped_report_windowed_terms(damped_report_T200):
    spec, traj, _ = damped_report_T200
    rep = virial_report(spec, traj, t0=150.0)
    for name in rep.term_names:
        assert abs(rep.term(name)) < 1e-6
    assert rep.verdict == "bounded"
    assert rep.window == pytest.approx(50.0)


def test_report_rejects_bad_window(damped_report_T200):
    spec, traj, _ = damped_report_T200
    with pytest.raises(ValueError):
        virial_report(spec, traj, t0=200.0)
    with pytest.raises(ValueError):
        virial_report(spec, traj, t0=-1.0)


def test_report_rejects_aborted():
    spec = make_system("gierer_meinhardt")
    chart = spec.chart("contact")
    traj = integrate_fixed(chart.rhs, np.array([0.0, -50.0, 5.0]), T=10.0,
                           dt=1e-2, layout=chart.layout)
    assert traj.aborted
    with pytest.raises(ValueError, match="aborted"):
        virial_report(spec, traj)


def test_report_rejects_foreign_layout():
    gm = make_system("gierer_meinhardt")
    chart = gm.chart("planar")
    traj = integrate_fixed(chart.rhs, chart.x0, T=1.0, dt=1e-2,
                           layout=chart.layout)
    with pytest.raises(ValueError, match="matches no chart"):
        virial_report(make_system("damped_oscillator"), traj)


def test_parachute_lagrangian_report_growing():
    spec = make_system("parachute")
    chart = spec.chart("lagrangian")
    traj = integrate_fixed(chart.rhs, chart.x0, T=200.0, dt=1e-3,
                           layout=chart.layout)
    rep = virial_report(spec, traj)
    assert rep.verdict == "growing"
    assert rep.boundary == pytest.approx(20.0, rel=0.01)
    assert rep.growth_rate == pytest.approx(20.0, rel=0.1)
    assert abs(rep.residual_exact) < 1e-7
    # the balance at finite T is carried by the boundary term, not lost
    assert rep.theorem_residual == pytest.approx(
        rep.rate_scale * (rep.boundary + rep.residual_exact), abs=1e-12
    )


def test_forced_steady_state_report():
    spec = make_system("forced_oscillator")
    chart = spec.chart()
    T = 200.0 + 50.0 * math.pi
    traj = integrate_fixed(chart.rhs, chart.x0, T=T, dt=1e-3,
                           layout=chart.layout)
    rep = virial_report(spec, traj, t0=200.0)
    # steady state q = A cos(Omega t - phi), A = F0/sqrt((w^2-W^2)^2 + g^2 W^2)
    amp2 = 1.0 / 9.04
    assert rep.term("kinetic") == pytest.approx(amp2 * 4.0 / 4.0, rel=1e-3)
    assert rep.term("potential") == pytest.approx(amp2 / 4.0, rel=1e-3)
    assert abs(rep.theorem_residual) < 1e-4
    assert rep.verdict == "bounded"


def test_gierer_meinhardt_report_at_fixed_point():
    spec = make_system("gierer_meinhardt")
    xstar = (math.sqrt(5.0) - 1.0) / 2.0
    zstar = (xstar / (1 + xstar) - math.log(1 + xstar) + xstar**2 / 2) / 2
    chart = spec.chart("contact")
    traj = integrate_fixed(chart.rhs, np.array([zstar, xstar, xstar]), T=10.0,
                           dt=1e-3, layout=chart.layout)
    rep = virial_report(spec, traj)
    lhs = rep.term("saturation") + rep.term("self_activation")
    rhs = rep.term("cross_decay")
    assert lhs == pytest.approx(0.763932, abs=1e-6)
    assert rhs == pytest.approx(0.763932, abs=1e-6)
    assert abs(rep.theorem_residual) < 1e-9
    assert rep.verdict == "bounded"


def test_custom_observable_and_terms():
    # half-square observable G = q^2/2 depends on q alone, so its exact
    # rate along the flow is q qdot = q p / m (no Reeb correction: the
    # {G,h}_PB - G xi(h) form is special to p-degree-1 observables)
    spec = make_system("damped_oscillator")
    chart = spec.chart()
    traj = integrate_fixed(chart.rhs, chart.x0, T=20.0, dt=1e-3,
                           layout=chart.layout, sample_every=1)
    G = ScalarField(
        n=1,
        value=lambda x: x.q[0] ** 2 / 2,
        d_s=lambda x: 0.0,
        d_q=lambda x: np.array([x.q[0]]),
        d_p=lambda x: np.array([0.0]),
        name="half_square",
    )
    rate_obs = ScalarField(
        n=1,
        value=lambda x: x.q[0] * x.p[0],
        d_s=lambda x: 0.0,
        d_q=lambda x: np.array([x.p[0]]),
        d_p=lambda x: np.array([x.q[0]]),
        name="half_square_rate",
    )
    rep = virial_report(spec, traj, terms=[VirialTerm("rate", rate_obs, +1)], G=G)
    # trapezoid truncation of <X(G)> dominates at T=20: ~ dt^2 |f'(0)| / 12T
    assert abs(rep.residual_exact) < 1e-8
    assert rep.theorem_residual == pytest.approx(rep.rate_average, abs=1e-12)


def test_virial_term_validation():
    G = virial_observable(1)
    with pytest.raises(ValueError, match="sign"):
        VirialTerm("bad", G, 2)
    with pytest.raises(TypeError):
        VirialTerm("bad", object(), +1)
    corrupt = ScalarField(
        n=1,
        value=lambda x: x.q[0] * x.p[0],
        d_s=lambda x: 0.0,
        d_q=lambda x: np.array([x.p[0] + 1.0]),  # off by one
        d_p=lambda x: np.array([x.q[0]]),
        name="corrupt",
    )
    with pytest.raises(ValueError, match="oracle"):
        VirialTerm("bad", corrupt, +1)
    # callables are taken as-is
    VirialTerm("ok", lambda t, row: row[1] * row[2], +1)


def test_lagrangian_observable_term_passes_oracle():
    VirialTerm("virial", virial_observable(2, masses=[1.0, 2.0]), +1)


# ---------------------------------------------------------------------------
# many-particle form of the balance


def test_three_particle_damped_balance():
    m, omega, gamma, eps = 1.0, 1.0, 0.3, 0.5
    mw2 = m * omega * omega

    def grad_V(q):
        return mw2 * q + eps * q * np.dot(q, q)

    def rhs(t, y):
        y = np.asarray(y)
        q, p = y[1:4], y[4:7]
        V = mw2 * np.dot(q, q) / 2 + eps * np.dot(q, q) ** 2 / 4
        return np.concatenate((
            [np.dot(p, p) / (2 * m) - V - gamma * y[0]],
            p / m,
            -(grad_V(q) + gamma * p),
        ))

    layout = ("s", "q[0]", "q[1]", "q[2]", "p[0]", "p[1]", "p[2]")
    qc = ["q[0]", "q[1]", "q[2]"]
    pc = ["p[0]", "p[1]", "p[2]"]

    def cols(tr, names):
        return np.stack([tr.column(nm) for nm in names])

    def ke(tr):
        return (cols(tr, pc) ** 2).sum(axis=0) / (2 * m)

    def q_gradV(tr):
        q = cols(tr, qc)
        q2 = (q**2).sum(axis=0)
        return (mw2 * q2 + eps * q2**2) / 2

    def qp(tr):
        return gamma * (cols(tr, qc) * cols(tr, pc)).sum(axis=0) / 2

    def G(tr):
        return (cols(tr, qc) * cols(tr, pc)).sum(axis=0)

    chart = Chart(
        kind="hamiltonian",
        layout=layout,
        x0=[0.0, 1.0, -0.7, 0.4, 0.0, 0.0, 0.0],
        rhs=rhs,
        terms=(
            VirialTermBinding("kinetic", +1, ke),
            VirialTermBinding("virial_of_potential", -1, q_gradV),
            VirialTermBinding("friction", -1, qp),
        ),
        G=G,
        rate_scale=0.5,
    )
    spec = SystemSpec(
        name="damped_chain",
        params={"m": m, "omega": omega, "gamma": gamma, "eps": eps},
        charts={"hamiltonian": chart},
        default_chart="hamiltonian",
    )
    traj = integrate_fixed(rhs, chart.x0, T=150.0, dt=1e-3, layout=layout)
    rep = virial_report(spec, traj)
    # sum<p_i^2/2m> = (1/2) sum<q^i dV/dq^i> + (1/2) sum<gamma q^i p_i>
    assert rep.term("kinetic") == pytest.approx(
        rep.term("virial_of_potential") + rep.term("friction"), abs=1e-5
    )
    assert abs(rep.residual_exact) < 1e-7
    assert rep.verdict == "bounded"


# ---------------------------------------------------------------------------
# ensembles


@pytest.fixture(scope="module")
def small_brownian_report():
    spec = make_system("brownian_oscillator", seed=2024)
    return ensemble_report(spec, n_traj=64, T=50.0, dt=1e-3)


def test_ensemble_equipartition(small_brownian_report):
    rep = small_brownian_report
    assert rep.n_traj == 64
    assert rep.term_errors is not None
    ke, pe = rep.term("kinetic"), rep.term("potential")
    ke_se, pe_se = rep.term_error("kinetic"), rep.term_error("potential")
    assert ke_se > 0 and pe_se > 0
    assert ke == pytest.approx(0.5, abs=max(4 * ke_se, 0.08))
    assert pe == pytest.approx(0.5, abs=max(4 * pe_se, 0.08))
    joint = math.hypot(ke_se, pe_se)
    assert abs(ke - pe) < 4 * joint
    assert rep.meta["equipartition_target"] == pytest.approx(0.5)


def test_ensemble_drive_term_vanishes(small_brownian_report):
    rep = small_brownian_report
    assert abs(rep.term("drive_friction")) < 4 * rep.term_error("drive_friction")


def test_ensemble_identity_in_expectation(small_brownian_report):
    rep = small_brownian_report
    # pathwise rates carry noise quadratic variation; only the expectation
    # of the residual is gated
    sigma = rep.theorem_error / rep.rate_scale
    assert abs(rep.residual_exact) < max(4 * sigma, 0.05)
    assert rep.verdict == "bounded"


def test_ensemble_validation():
    spec = make_system("brownian_oscillator")
    with pytest.raises(ValueError, match="n_traj"):
        ensemble_report(spec, n_traj=1, T=10.0, dt=1e-3)
    with pytest.raises(ValueError, match="deterministic"):
        ensemble_report(make_system("damped_oscillator"), n_traj=4, T=10.0, dt=1e-3)
    with pytest.raises(ValueError, match="custom terms"):
        ensemble_report(spec, n_traj=4, T=10.0, dt=1e-3,
                        terms=[VirialTerm("x", lambda t, row: 0.0, +1)])


def test_ensemble_zero_noise_degenerates_to_deterministic():
    spec = make_system("brownian_oscillator", k_BT=0.0, gamma=0.5)
    rep = ensemble_report(spec, n_traj=4, T=50.0, dt=1e-3)
    assert rep.term_error("kinetic") == 0.0
    det = make_system("damped_oscillator", gamma=0.5)
    chart = det.chart()
    traj = integrate_fixed(chart.rhs, chart.x0, T=50.0, dt=1e-3,
                           layout=chart.layout, sample_every=1)
    det_rep = virial_report(det, traj)
    # Euler-Maruyama at k_BT = 0 is plain Euler: first-order agreement
    assert rep.term("kinetic") == pytest.approx(det_rep.term("kinetic"), abs=2e-3)
    assert rep.term("potential") == pytest.approx(det_rep.term("potential"), abs=2e-3)
    assert rep.term("drive_friction") == pytest.approx(
        -det_rep.term("friction_qp"), abs=2e-3
    )


def test_ensemble_all_diverged():
    spec = make_system("brownian_oscillator", omega=2000.0)
    with pytest.raises(ValueError, match="diverged"):
        ensemble_report(spec, n_traj=2, T=2.0, dt=1e-3)


# ---------------------------------------------------------------------------
# serialization


def test_report_text_round_trip(damped_report_T200):
    _, _, rep = damped_report_T200
    parsed = parse_report(report_text(rep))
    assert parsed["system"] == "damped_oscillator"
    assert parsed["chart"] == "hamiltonian"
    assert parsed["verdict"] == "bounded"
    assert float(parsed["boundary_term"]) == rep.boundary
    assert float(parsed["term.kinetic.average"]) == rep.term("kinetic")
    assert float(parsed["rate_scale"]) == 0.5
    assert parsed["term.potential.sign"] == "-1"
    assert parsed["meta.param.gamma"] == "0.10000000000000001"


def test_report_text_ensemble_fields(small_brownian_report):
    parsed = parse_report(report_text(small_brownian_report))
    assert "term.kinetic.stderr" in parsed
    assert "theorem_stderr" in parsed
    assert parsed["n_traj"] == "64"


def test_write_report_file_and_stream(tmp_path, damped_report_T200):
    _, _, rep = damped_report_T200
    path = tmp_path / "report.txt"
    write_report(rep, path)
    buf = io.StringIO()
    write_report(rep, buf)
    assert path.read_text(encoding="utf-8") == buf.getvalue()


def test_parse_report_rejects_garbage():
    with pytest.raises(ValueError):
        parse_report("no separator here\n")


def test_running_average_csv(tmp_path):
    spec = make_system("damped_oscillator")
    chart = spec.chart()
    traj = integrate_fixed(chart.rhs, chart.x0, T=20.0, dt=1e-2,
                           layout=chart.layout, sample_every=1)
    rep = virial_report(spec, traj)
    path = tmp_path / "running.csv"
    write_running_averages(spec, traj, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header == ["t", "avg[kinetic]", "avg[potential]", "avg[friction_qp]",
                      "theorem_residual", "boundary"]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(20.0)
    assert last[1] == pytest.approx(rep.term("kinetic"), abs=1e-9)
    assert last[4] == pytest.approx(rep.theorem_residual, abs=1e-9)
    assert last[5] == pytest.approx(rep.boundary, abs=1e-12)
    # deterministic output
    buf = io.StringIO()
    write_running_averages(spec, traj, buf)
    assert buf.getvalue() == path.read_text(encoding="utf-8")
