"""Boundary identity, term reports, verdicts, ensembles."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contactdyn.virial as virial_mod
from contactdyn.core import DarbouxPoint
from contactdyn.integrate import Trajectory, integrate_fixed
from contactdyn.systems import (
    SYSTEM_NAMES,
    Chart,
    SystemSpec,
    VirialTermBinding,
    catalog_schema,
    make_system,
)
from contactdyn.virial import (
    ensemble_report,
    growth_verdict,
    parse_report,
    report_text,
    virial_report,
    write_running_averages,
)

from conftest import DAMPED, UNDAMPED, observing_system


# ---------------------------------------------------------------------------
# boundary term


def test_boundary_term_periodic_orbit():
    # the undamped oscillator's orbit closes after 2 pi, and G = q p with it
    chart = UNDAMPED.chart()
    assert UNDAMPED.hamiltonian.d_s(DarbouxPoint(0.0, [1.0], [0.0])) == 0.0
    traj = integrate_fixed(chart.rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                           layout=chart.layout)
    assert abs(virial_report(UNDAMPED, traj).boundary) < 1e-8


def test_boundary_term_damped_decays():
    spec = make_system("damped_oscillator")
    chart = spec.chart()
    b = {}
    for T in (100.0, 200.0):
        traj = integrate_fixed(chart.rhs, chart.x0, T=T, dt=1e-3,
                               layout=chart.layout)
        b[T] = virial_report(spec, traj).boundary
    assert abs(b[200.0]) < 1e-6
    assert abs(b[200.0]) <= abs(b[100.0])


def test_boundary_term_zero_span():
    traj = Trajectory(times=[0.0], states=[[0.0, 1.0, 0.0]],
                      layout=("s", "q[0]", "p[0]"))
    with pytest.raises(ValueError, match="recorded span"):
        virial_report(make_system("damped_oscillator"), traj)


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
    for t0 in (200.0, -1.0):  # at the last sample, before the first
        with pytest.raises(ValueError, match="recorded span"):
            virial_report(spec, traj, t0=t0)


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
    # {G,h}_PB - G xi(h) form is special to p-degree-1 observables); a
    # custom balance is a chart of its own, inside a SystemSpec
    spec = make_system("damped_oscillator")  # m = 1
    chart = spec.chart()
    half_square = Chart(
        layout=chart.layout,
        x0=chart.x0,
        rhs=chart.rhs,
        terms=(VirialTermBinding("rate", +1, lambda s, q, p: q * p),),
        G=lambda s, q, p: q * q / 2,
        rate_scale=1.0,
    )
    custom = SystemSpec(
        name="half_square",
        params=spec.params,
        charts={"hamiltonian": half_square},
        default_chart="hamiltonian",
    )
    traj = integrate_fixed(chart.rhs, chart.x0, T=20.0, dt=1e-3,
                           layout=chart.layout, sample_every=1)
    rep = virial_report(custom, traj)
    # trapezoid truncation of <X(G)> dominates at T=20: ~ dt^2 |f'(0)| / 12T
    assert abs(rep.residual_exact) < 1e-8
    assert rep.theorem_residual == pytest.approx(rep.rate_average, abs=1e-12)


def test_virial_term_validation():
    with pytest.raises(ValueError, match="sign"):
        VirialTermBinding("bad", 2, lambda s, q, p: q * p)


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

    def ke(s, *qp):
        return (np.stack(qp[3:]) ** 2).sum(axis=0) / (2 * m)

    def q_gradV(s, *qp):
        q2 = (np.stack(qp[:3]) ** 2).sum(axis=0)
        return (mw2 * q2 + eps * q2**2) / 2

    def friction(s, *qp):
        return gamma * (np.stack(qp[:3]) * np.stack(qp[3:])).sum(axis=0) / 2

    def G(s, *qp):
        return (np.stack(qp[:3]) * np.stack(qp[3:])).sum(axis=0)

    chart = Chart(
        layout=layout,
        x0=[0.0, 1.0, -0.7, 0.4, 0.0, 0.0, 0.0],
        rhs=rhs,
        terms=(
            VirialTermBinding("kinetic", +1, ke),
            VirialTermBinding("virial_of_potential", -1, q_gradV),
            VirialTermBinding("friction", -1, friction),
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
    spec = make_system("brownian_oscillator")
    return ensemble_report(spec, n_traj=64, T=50.0, dt=1e-3, seed=2024)


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
    # the residual is Euler-Maruyama's first-order bias, not integrator
    # roundoff, so it is gated statistically, as the CLI gates it
    sigma = rep.theorem_error / rep.rate_scale
    assert abs(rep.residual_exact) < max(4 * sigma, 0.05)
    assert rep.verdict == "bounded"


def test_ensemble_validation():
    spec = make_system("brownian_oscillator")
    with pytest.raises(ValueError, match="n_traj"):
        ensemble_report(spec, n_traj=1, T=10.0, dt=1e-3)
    with pytest.raises(ValueError, match="'damped_oscillator' is deterministic"):
        ensemble_report(make_system("damped_oscillator"), n_traj=4, T=10.0, dt=1e-3, seed=3)
    with pytest.raises(TypeError):
        ensemble_report(spec, n_traj=4, T=10.0, dt=1e-3, terms=())
    with pytest.raises(TypeError):  # the seed is the only noise knob
        ensemble_report(spec, n_traj=4, T=10.0, dt=1e-3, noise=spec.noise)


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


def _report_fields(rep) -> dict:
    """The values report_text must write for `rep`, by key, in their own types."""
    fields = {"system": rep.system, "chart": rep.chart, "n_traj": rep.n_traj,
              "horizon": rep.T, "window_start": rep.t0, "window": rep.window,
              "rate_scale": rep.rate_scale}
    for i, name in enumerate(rep.term_names):
        fields[f"term.{name}.sign"] = rep.term_signs[i]
        fields[f"term.{name}.average"] = rep.term_averages[i]
        if rep.term_errors is not None:
            fields[f"term.{name}.stderr"] = rep.term_errors[i]
    fields["theorem_residual"] = rep.theorem_residual
    if rep.theorem_error is not None:
        fields["theorem_stderr"] = rep.theorem_error
    fields.update({"rate_average": rep.rate_average, "boundary_term": rep.boundary,
                   "residual_exact": rep.residual_exact, "G_initial": rep.G_initial,
                   "G_final": rep.G_final, "verdict": rep.verdict,
                   "growth_rate": rep.growth_rate})
    fields.update({f"meta.{k}": v for k, v in rep.meta.items()})
    return fields


def _same_float(a: float, b: float) -> bool:
    """Equal as doubles, the sign of a zero included; every nan equals every nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1, a) == math.copysign(1, b)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(SYSTEM_NAMES), st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5),
       st.integers(0, 2**32), st.floats(0.0, 0.9))
def test_report_text_round_trips_every_key_and_float(name, factors, seed, window_start):
    # each parameter is its default times a drawn factor; stochastic systems
    # give ensemble reports, the others reports over a short RK4 run
    params = {p.name: p.default * f for p, f in zip(catalog_schema()[name], factors)}
    spec = make_system(name, **params)
    if spec.noise is not None:
        rep = ensemble_report(spec, n_traj=4, T=0.5, dt=1e-2, seed=seed)
    else:
        chart = spec.chart()
        traj = integrate_fixed(chart.rhs, chart.x0, T=2.0, dt=1e-2, layout=chart.layout)
        assume(not traj.aborted)
        rep = virial_report(spec, traj, t0=2.0 * window_start)
    parsed = parse_report(report_text(rep))
    fields = _report_fields(rep)
    assert parsed.keys() == fields.keys()
    for key, value in fields.items():
        if isinstance(value, str):
            assert parsed[key] == value, key
        elif isinstance(value, (bool, np.bool_)):
            assert parsed[key] == str(bool(value)), key
        elif isinstance(value, (int, np.integer)):
            assert int(parsed[key]) == value, key
        else:
            assert _same_float(float(parsed[key]), float(value)), key


def test_report_text_ensemble_fields(small_brownian_report):
    parsed = parse_report(report_text(small_brownian_report))
    assert "term.kinetic.stderr" in parsed
    assert "theorem_stderr" in parsed
    assert parsed["n_traj"] == "64"


def test_parse_report_rejects_garbage():
    with pytest.raises(ValueError):
        parse_report("no separator here\n")


@pytest.mark.parametrize("t0", [0.0, 7.305])
def test_running_average_csv(tmp_path, t0):
    # at dt = 1e-2, t0 = 7.305 falls between samples
    spec = make_system("damped_oscillator")
    chart = spec.chart()
    traj = integrate_fixed(chart.rhs, chart.x0, T=20.0, dt=1e-2,
                           layout=chart.layout, sample_every=1)
    rep = virial_report(spec, traj, t0=t0)
    path = tmp_path / "running.csv"
    write_running_averages(spec, traj, path, t0=t0)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header == ["t", "avg[kinetic]", "avg[potential]", "avg[friction_qp]",
                      "theorem_residual", "boundary"]
    assert float(lines[1].split(",")[0]) > t0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(20.0)
    for i, name in enumerate(rep.term_names, start=1):
        assert last[i] == pytest.approx(rep.term(name), abs=1e-9)
    assert last[4] == pytest.approx(rep.theorem_residual, abs=1e-9)
    assert last[5] == pytest.approx(rep.boundary, abs=1e-12)
    # deterministic output
    buf = io.StringIO()
    write_running_averages(spec, traj, buf, t0=t0)
    assert buf.getvalue() == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("n, t0_fraction", [(999, 0.0), (1000, 0.0), (1001, 0.0),
                                            (2003, 0.0), (4321, 0.0), (4321, 0.3)])
def test_running_averages_keep_at_most_the_row_budget(monkeypatch, n, t0_fraction):
    # a window of n samples past t0 writes every row when n fits the budget;
    # a longer one writes every k-th row counted back from the one at T, with
    # k = ceil(n / budget), each the line the uncapped file has at that time
    chart = DAMPED.chart()
    traj = integrate_fixed(chart.rhs, chart.x0, T=n / 64, dt=1 / 64,
                           layout=chart.layout, sample_every=1)
    t0 = t0_fraction * n / 64
    capped = io.StringIO()
    write_running_averages(DAMPED, traj, capped, t0=t0)
    monkeypatch.setattr(virial_mod, "_AVERAGE_ROWS", 10**9)
    uncapped = io.StringIO()
    write_running_averages(DAMPED, traj, uncapped, t0=t0)

    header, *rows = capped.getvalue().splitlines()
    all_header, *all_rows = uncapped.getvalue().splitlines()
    assert header == all_header
    assert len(all_rows) == int(np.sum(traj.times > t0))
    if len(all_rows) <= 1000:
        assert capped.getvalue() == uncapped.getvalue()
    else:
        stride = -(-len(all_rows) // 1000)
        assert 1 < len(rows) <= 1000
        assert rows == all_rows[::-1][::stride][::-1]
    assert rows[-1] == all_rows[-1]
    assert float(rows[-1].split(",")[0]) == traj.times[-1] == n / 64


# ---------------------------------------------------------------------------
# the averaging window, against its one-array reference


def _reference_window(times, values, t0):
    """One value array's window over [t0, end], starting at t0 with the linear
    interpolant, and its trapezoid contributions, cut array by array: the
    reference that `virial._window`'s single cut must reproduce."""
    if t0 > times[0]:
        i = int(np.searchsorted(times, t0, side="left"))
        if times[i] > t0:
            w = (t0 - times[i - 1]) / (times[i] - times[i - 1])
            v0 = (1 - w) * values[i - 1] + w * values[i]
            times = np.concatenate(([t0], times[i:]))
            values = np.concatenate(([v0], values[i:]))
        else:
            times, values = times[i:], values[i:]
    return times, values, np.diff(times) * 0.5 * (values[1:] + values[:-1])


_GRID_VALUES = st.floats(-1e6, 1e6, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.floats(1e-3, 10.0), _GRID_VALUES, _GRID_VALUES),
                min_size=2, max_size=40),
       st.data())
def test_report_and_running_averages_equal_the_trapezoid_reference(rows, data):
    # on a drawn increasing grid and a drawn t0, on a sample or between two,
    # every average, G_initial, the boundary term and the last row of
    # running_averages.csv equal the one-array trapezoid formula bit for bit
    times = np.cumsum([0.0] + [gap for gap, _, _ in rows[1:]])
    states = np.array([[a, b] for _, a, b in rows])
    assume((np.diff(times) > 0).all())
    i = data.draw(st.integers(0, len(times) - 2))
    if data.draw(st.booleans()):
        t0 = float(times[i])
    else:
        t0 = float(times[i] + data.draw(st.floats(0.0, 1.0)) * (times[i + 1] - times[i]))
    assume(t0 < times[-1])
    terms = {"a": lambda a, b: a, "b": lambda a, b: b, "ab": lambda a, b: a * b}
    spec = observing_system(("a", "b"), G=lambda a, b: a - b, **terms)
    traj = Trajectory(times=times, states=states, layout=("a", "b"))
    rep = virial_report(spec, traj, t0=t0)
    buf = io.StringIO()
    write_running_averages(spec, traj, buf, t0=t0)
    last = [float(v) for v in buf.getvalue().splitlines()[-1].split(",")]

    averages, running = [], []
    for f in terms.values():
        t_w, _, contributions = _reference_window(times, f(*states.T), t0)
        averages.append(math.fsum(contributions.tolist()) / (t_w[-1] - t_w[0]))
        running.append(np.cumsum(contributions)[-1] / (t_w[-1] - t_w[0]))
    t_w, g_w, _ = _reference_window(times, states[:, 0] - states[:, 1], t0)
    boundary = (g_w[-1] - g_w[0]) / (times[-1] - t0)
    assert list(rep.term_averages) == averages
    assert rep.G_initial == g_w[0]
    assert rep.boundary == boundary
    residual = 0.0
    for avg in running:
        residual = residual + avg
    assert last == [t_w[-1], *running, residual, (g_w[-1] - g_w[0]) / (t_w[-1] - t_w[0])]


def test_one_report_evaluates_each_term_and_G_once():
    calls = {}

    def counted(name, f):
        def evaluate(*columns):
            calls[name] = calls.get(name, 0) + 1
            return f(*columns)
        return evaluate

    chart = DAMPED.chart()
    counting = replace(chart, G=counted("G", chart.G),
                       terms=[replace(b, value=counted(b.name, b.value)) for b in chart.terms])
    spec = replace(DAMPED, charts={"hamiltonian": counting})
    traj = integrate_fixed(chart.rhs, chart.x0, T=5.0, dt=1e-2, layout=chart.layout)
    virial_report(spec, traj, t0=1.234)
    assert calls == {"G": 1, **{b.name: 1 for b in chart.terms}}
    write_running_averages(spec, traj, io.StringIO(), t0=1.234)
    assert calls == {"G": 2, **{b.name: 2 for b in chart.terms}}
