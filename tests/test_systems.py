"""Catalog systems: schemas, oracles at construction, charts, term algebra."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactdyn.core import DarbouxPoint, DomainError, contact_vector_field
from contactdyn.extended import ExtendedPoint, evolution_field
from contactdyn.herglotz import energy_EL, LagrangianPoint, lagrangian_field, legendre_map
from contactdyn.integrate import (
    NUMPY,
    euler_maruyama_langevin,
    integrate_fixed,
    langevin_ensemble,
)
from contactdyn.systems import (
    _SYSTEMS,
    SYSTEM_NAMES,
    ParameterError,
    UnknownSystemError,
    VirialTermBinding,
    catalog_schema,
    conformal_projection_check,
    make_system,
    z_equation_residual,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_catalog_names():
    assert set(SYSTEM_NAMES) == {
        "damped_oscillator",
        "parachute",
        "forced_oscillator",
        "brownian_oscillator",
        "gierer_meinhardt",
    }


def test_schema_exposes_defaults_and_constraints():
    schema = catalog_schema()
    damped = {p.name: p for p in schema["damped_oscillator"]}
    assert damped["omega"].default == 1.0
    assert damped["gamma"].constraint == "> 0"
    assert damped["m"].check(2.0)
    assert not damped["m"].check(0.0)


def test_unknown_system_rejected():
    with pytest.raises(UnknownSystemError):
        make_system("pendulum")


def test_unknown_parameter_rejected():
    with pytest.raises(ParameterError, match="unknown parameter"):
        make_system("damped_oscillator", kappa=3.0)


@pytest.mark.parametrize(
    "name, bad",
    [
        ("damped_oscillator", {"m": 0.0}),
        ("damped_oscillator", {"gamma": -0.1}),
        ("damped_oscillator", {"omega": float("nan")}),
        ("parachute", {"lam": 0.0}),
        ("parachute", {"g": -9.8}),
        ("forced_oscillator", {"F0": -1.0}),
        ("forced_oscillator", {"Omega": 0.0}),
        ("brownian_oscillator", {"k_BT": -0.5}),
        ("brownian_oscillator", {"gamma": 0.0}),
        ("gierer_meinhardt", {"A": 0.0}),
        ("gierer_meinhardt", {"B": float("inf")}),
        ("brownian_oscillator", {"omega": float("inf")}),
    ],
)
def test_constraint_violations(name, bad):
    with pytest.raises(ParameterError):
        make_system(name, **bad)


def test_every_system_builds_with_defaults():
    for name in SYSTEM_NAMES:
        spec = make_system(name)
        assert spec.name == name
        assert spec.default_chart in spec.charts
        for chart in spec.charts.values():
            assert len(chart.x0) == len(chart.layout)


# every value its constraint admits, from subnormal to the largest float
_BY_CONSTRAINT = {
    "> 0": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ">= 0": st.floats(min_value=0.0, allow_infinity=False),
}


def _parameter_values(name):
    return st.fixed_dictionaries({
        p.name: _BY_CONSTRAINT.get(
            p.constraint, st.floats(allow_nan=False, allow_infinity=False).filter(p.check)
        )
        for p in catalog_schema()[name]
    })


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_make_system_builds_or_raises_parameter_error(name):
    @settings(derandomize=True, deadline=None)
    @given(_parameter_values(name))
    def builds_or_refuses(params):
        try:
            spec = make_system(name, **params)
        except ParameterError:
            return
        assert spec.name == name

    builds_or_refuses()


def test_brownian_noise_spec():
    # the seed is a run setting, not a parameter: the built noise has seed 0
    spec = make_system("brownian_oscillator", gamma=0.5, k_BT=1.0)
    assert spec.noise is not None
    assert spec.noise.seed == 0
    assert "seed" not in spec.params
    assert spec.noise.amplitude == pytest.approx(math.sqrt(2 * 1.0 * 0.5 * 1.0))


def test_brownian_drift_is_unforced_oscillator():
    # the Brownian drift is the forced oscillator's (s, q, p) field at F0 = 0,
    # and it evaluates on per-member arrays exactly as on floats
    params = dict(m=1.7, omega=0.8, gamma=0.3)
    drift = make_system("brownian_oscillator", **params).chart().rhs
    forced = make_system("forced_oscillator", F0=0.0, **params).chart().rhs
    rng = np.random.default_rng(13)
    states = rng.normal(size=(4, 40)) * 2
    for y in states.T.tolist():
        assert drift(y[0], tuple(y[1:])) == pytest.approx(forced(y[0], tuple(y))[1:],
                                                          rel=1e-14, abs=1e-14)
    on_arrays = drift(0.0, tuple(states[1:]))
    for k in range(3):
        np.testing.assert_array_equal(
            on_arrays[k], [drift(0.0, tuple(y[1:]))[k] for y in states.T.tolist()])


def test_chart_lookup_errors():
    spec = make_system("damped_oscillator")
    with pytest.raises(ParameterError, match="charts"):
        spec.chart("planar")


# ---------------------------------------------------------------------------
# frozen values


def test_damped_field_frozen_value():
    spec = make_system("damped_oscillator")
    np.testing.assert_allclose(
        spec.chart().rhs(0.0, np.array([0.0, 1.0, 2.0])),
        [1.5, 2.0, -1.2],
        atol=1e-14,
    )


def test_damped_matches_reference_construction():
    # h = p^2/2m + m w^2 q^2/2 + gamma s at m = w = 1, gamma = 0.1
    h = make_system("damped_oscillator", m=1.0, omega=1.0, gamma=0.1).hamiltonian
    x = DarbouxPoint(0.5, [1.5], [-2.0])
    assert h.value(x) == pytest.approx(3.175, abs=1e-14)
    assert h.d_s(x) == pytest.approx(0.1, abs=1e-14)
    np.testing.assert_allclose(h.d_q(x), [1.5], atol=1e-14)
    np.testing.assert_allclose(h.d_p(x), [-2.0], atol=1e-14)


def test_parachute_matches_reference_construction():
    # h = (p - 2 lam s)^2/2m + (m g/2 lam)(e^{2 lam q} - 1) at m = 1, g = 10,
    # lam = 0.5: 0.125 + 10 (e^0.3 - 1) at (s, q, p) = (0.5, 0.3, 1)
    h = make_system("parachute", m=1.0, g=10.0, lam=0.5).hamiltonian
    x = DarbouxPoint(0.5, [0.3], [1.0])
    assert h.value(x) == pytest.approx(3.623588075760032, abs=1e-12)
    assert h.d_s(x) == pytest.approx(-0.5, abs=1e-14)
    np.testing.assert_allclose(h.d_q(x), [13.498588075760033], atol=1e-12)
    np.testing.assert_allclose(h.d_p(x), [0.5], atol=1e-14)


def test_forced_drive_vanishes_at_zero_amplitude():
    quiet = make_system("forced_oscillator", F0=0.0)
    damped = make_system("damped_oscillator")
    rng = np.random.default_rng(9)
    for _ in range(10):
        y = rng.normal(size=4)
        vq = quiet.chart().rhs(0.0, y)
        vd = damped.chart().rhs(0.0, y[1:])
        np.testing.assert_array_equal(vq[1:], vd)
        assert vq[0] == 1.0


def test_gm_field_at_half_half():
    spec = make_system("gierer_meinhardt")
    v = spec.chart("contact").rhs(0.0, np.array([0.0, 0.5, 0.5]))
    assert v[1] == pytest.approx(1 / 1.5 - 0.5)  # xdot = A/(B+y) - Cx
    assert v[2] == pytest.approx(0.0)            # ydot = Dx - Ky
    w = spec.chart("planar").rhs(0.0, np.array([0.5, 0.5]))
    np.testing.assert_allclose(w, v[1:], atol=1e-15)


def test_gm_planar_fixed_point():
    # x = y = (sqrt(5)-1)/2 solves x/(1+x) = x and x - x = 0 at unit params
    spec = make_system("gierer_meinhardt")
    xstar = (math.sqrt(5.0) - 1.0) / 2.0
    w = spec.chart("planar").rhs(0.0, np.array([xstar, xstar]))
    np.testing.assert_allclose(w, [0.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# projection and z-equation checks


def test_projection_check_agrees_everywhere():
    spec = make_system("gierer_meinhardt")
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.normal() * 2
        yv = rng.uniform(-0.9, 5.0)
        z = rng.normal() * 3
        result = conformal_projection_check(spec, (x, yv, z))
        assert result.max_difference < 1e-12
        np.testing.assert_allclose(result.planar, result.projected_contact,
                                   atol=1e-12)


def test_projection_check_domain_error():
    spec = make_system("gierer_meinhardt")
    with pytest.raises(DomainError):
        conformal_projection_check(spec, (0.5, -1.0, 0.0))
    with pytest.raises(DomainError):
        conformal_projection_check(spec, (0.5, -2.5, 0.0))


def test_projection_check_wrong_system():
    with pytest.raises(ParameterError):
        conformal_projection_check(make_system("parachute"), (0.0, 0.0, 0.0))


def test_divergence_free_when_uncoupled():
    # with C = K = 0 the planar field is (A/(B+y), Dx): divergence-free
    spec = make_system("gierer_meinhardt", C=0.0, K=0.0)
    rhs = spec.chart("planar").rhs

    def divergence(x, yv, step=1e-6):
        ddx = (rhs(0.0, np.array([x + step, yv]))[0]
               - rhs(0.0, np.array([x - step, yv]))[0]) / (2 * step)
        ddy = (rhs(0.0, np.array([x, yv + step]))[1]
               - rhs(0.0, np.array([x, yv - step]))[1]) / (2 * step)
        return ddx + ddy

    rng = np.random.default_rng(22)
    for _ in range(20):
        assert abs(divergence(rng.normal(), rng.uniform(-0.5, 4.0))) < 1e-8


def test_z_equation_residual_along_trajectory():
    spec = make_system("gierer_meinhardt")
    chart = spec.chart("contact")
    traj = integrate_fixed(chart.rhs, chart.x0, T=10.0, dt=1e-3,
                           layout=chart.layout)
    assert z_equation_residual(spec, traj) < 1e-8


def test_gm_domain_violation_aborts_integration():
    # start below the pole barrier moving toward it: y' = Dx - Ky with large x
    spec = make_system("gierer_meinhardt")
    chart = spec.chart("contact")
    traj = integrate_fixed(chart.rhs, np.array([0.0, -50.0, 5.0]), T=10.0,
                           dt=1e-2, layout=chart.layout)
    assert traj.aborted  # y is driven through -B


# ---------------------------------------------------------------------------
# Legendre consistency between the two mechanical charts


@pytest.mark.parametrize("name", ["damped_oscillator", "parachute"])
def test_energy_matches_hamiltonian_through_legendre(name):
    spec = make_system(name)
    rng = np.random.default_rng(int(spec.params["m"] * 100) + 31)
    for _ in range(20):
        z = LagrangianPoint(q=rng.normal(size=1), qdot=rng.normal(size=1),
                            s=rng.normal())
        x = legendre_map(spec.lagrangian, z)
        assert spec.hamiltonian.value(x) == pytest.approx(
            energy_EL(spec.lagrangian, z), abs=1e-10
        )


def test_parachute_acceleration_reduction():
    # m qddot == pdot - 2 lam sdot must reduce to m(lam qdot^2 - g)
    spec = make_system("parachute", m=1.0, g=10.0, lam=0.5)
    chart = spec.chart("hamiltonian")
    lam = spec.params["lam"]
    rng = np.random.default_rng(33)
    for _ in range(30):
        y = rng.normal(size=3) * 1.5
        ds, dq, dp = chart.rhs(0.0, y)
        qddot_chart = dp - 2 * lam * ds  # d/dt of m*qdot = p - 2 lam s
        assert qddot_chart == pytest.approx(lam * dq * dq - 10.0, abs=1e-8)


# ---------------------------------------------------------------------------
# term decompositions: sum(sign * term) == rate_scale * X(G) pointwise

ALL_CHARTS = [
    ("damped_oscillator", "hamiltonian"),
    ("damped_oscillator", "lagrangian"),
    ("parachute", "hamiltonian"),
    ("parachute", "lagrangian"),
    ("forced_oscillator", "extended"),
    ("brownian_oscillator", "hamiltonian"),
    ("gierer_meinhardt", "contact"),
    ("gierer_meinhardt", "planar"),
]
# non-default parameters, so that no factor is an exact 1
OFF_DEFAULT = {
    "damped_oscillator": {"m": 1.7, "omega": 0.9, "gamma": 0.3},
    "parachute": {"m": 1.7, "lam": 0.7},
    "forced_oscillator": {"m": 1.7, "omega": 0.9, "gamma": 0.3},
    "brownian_oscillator": {"m": 1.7, "omega": 0.9},
    "gierer_meinhardt": {"A": 1.3, "C": 1.9, "D": 0.7},
}


# charts whose system carries a model of their field
MODEL_CHARTS = [c for c in ALL_CHARTS if c != ("gierer_meinhardt", "planar")]
_POSITIVE = st.floats(0.25, 4.0)
# moderate draws: the closed forms must match the generic fields to
# rounding, away from overflow and from the activator-inhibitor pole
_MODERATE = {
    "damped_oscillator": {"m": _POSITIVE, "omega": _POSITIVE, "gamma": _POSITIVE},
    "parachute": {"m": _POSITIVE, "g": st.floats(1.0, 20.0), "lam": st.floats(0.1, 1.0)},
    "forced_oscillator": {"m": _POSITIVE, "omega": _POSITIVE, "gamma": _POSITIVE,
                          "F0": st.floats(0.0, 4.0), "Omega": _POSITIVE},
    "brownian_oscillator": {"m": _POSITIVE, "omega": _POSITIVE, "gamma": _POSITIVE,
                            "k_BT": st.floats(0.0, 4.0)},
    "gierer_meinhardt": {"A": st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
                         "B": st.floats(0.0, 2.0),
                         **{k: st.floats(-2.0, 2.0) for k in "CDK"}},
}


# the damped field's closed form agrees with the generic field to 1e-13,
# the other charts' to 1e-12
_FIELD_TOL = {("damped_oscillator", "hamiltonian"): 1e-13,
              ("brownian_oscillator", "hamiltonian"): 1e-13}


def _generic_field(spec, kind, y):
    """The generic field of the system's model for a chart `kind`, in layout order."""
    if kind == "lagrangian":
        v = lagrangian_field(spec.lagrangian, LagrangianPoint(q=y[0:1], qdot=y[1:2], s=y[2]))
        return [v.dq[0], v.dqdot[0], v.ds]
    if kind == "extended":
        base = DarbouxPoint(s=y[1], q=y[2:3], p=y[3:4])
        v = evolution_field(spec.extended, ExtendedPoint(t=y[0], base=base))
        return [v.dt, v.ds, v.dq[0], v.dp[0]]
    v = contact_vector_field(spec.hamiltonian, DarbouxPoint(s=y[0], q=y[1:2], p=y[2:3]))
    return [v.ds, v.dq[0], v.dp[0]]


@pytest.mark.parametrize("name, chart_name", MODEL_CHARTS)
def test_rhs_matches_generic_field(name, chart_name):
    # every closed-form chart rhs, the one Euler-Maruyama steps included,
    # is the field its system's model generates, at drawn parameters
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.fixed_dictionaries(_MODERATE[name]),
           st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    def agrees(params, coords):
        spec = make_system(name, **params)
        chart = spec.chart(chart_name)
        y = np.array(coords[:len(chart.layout)])
        if name == "gierer_meinhardt":
            y[-1] = 0.05 + abs(y[-1]) - params["B"]  # the domain B + y > 0
        generic = _generic_field(spec, _SYSTEMS[name].charts[chart_name].kind, y)
        tol = _FIELD_TOL.get((name, chart_name), 1e-12)
        # drawn parameters scale the field, so atol scales with it
        np.testing.assert_allclose(chart.rhs(0.0, tuple(y.tolist())), generic,
                                   rtol=tol, atol=tol * max(1.0, *map(abs, generic)))

    agrees()


# the charts a deterministic run steps with RK4
_RK4_CHARTS = [c for c in ALL_CHARTS if c[0] != "brownian_oscillator"]


@pytest.mark.parametrize("name, chart_name", _RK4_CHARTS)
def test_inlined_rk4_is_bit_identical_to_calling_the_field(name, chart_name):
    # integrate_fixed inlines a compiled field into its RK4 loop; wrapped in a
    # lambda, the same field is called per stage instead, and every sample,
    # and any abort, must come out the same bit for bit
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.fixed_dictionaries(_MODERATE[name]),
           st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           st.integers(20, 150), st.floats(0.1, 0.9), st.sampled_from([1, 7]))
    def agrees(params, offsets, n_full, fraction, sample_every):
        chart = make_system(name, **params).chart(chart_name)
        y0 = chart.x0 + offsets[:len(chart.layout)]
        if name == "gierer_meinhardt":
            y0[-1] = 0.05 + abs(y0[-1])  # inside the domain B + y > 0, as B >= 0
        dt = 0.01
        runs = [integrate_fixed(rhs, y0, (n_full + fraction) * dt, dt, layout=chart.layout,
                                sample_every=sample_every)
                for rhs in (chart.rhs, lambda t, y: chart.rhs(t, y))]
        inline, called = runs
        assert "rk4" in chart.form.loops  # the inline path ran
        assert np.array_equal(inline.times, called.times)
        assert np.array_equal(inline.states, called.states)
        assert (inline.aborted, inline.abort_reason) == (called.aborted, called.abort_reason)

    agrees()


@pytest.mark.parametrize("name, chart_name", ALL_CHARTS)
def test_chart_holds_the_form_its_rhs_carries(name, chart_name):
    # one form per chart: the RK4 loop reads it from the rhs, Euler-Maruyama
    # from the chart
    chart = make_system(name).chart(chart_name)
    form = chart.form
    assert chart.rhs.straight_line is form
    # G and the terms are the form's statements, evaluated over numpy's functions
    y = (chart.x0 + 0.05 * np.arange(1, chart.x0.size + 1)).tolist()
    scope = {**NUMPY, **form.constants, **dict(zip(form.roles, y))}
    assert chart.G(*y) == eval(form.G, scope)
    assert [b.value(*y) for b in chart.terms] == [eval(term, scope) for term in form.terms]


def test_each_model_is_split_and_compiled_once_per_build(monkeypatch):
    # make_system splits each model's definitions once and runs three sources
    # per model: its evaluator bundle, the charts' fields and their balances;
    # stepping an ensemble and a single run splits nothing again
    import contactdyn.systems as systems_mod

    splits, sources = [], []
    split, run = systems_mod._split_definitions, systems_mod.exec_generated
    monkeypatch.setattr(systems_mod, "_split_definitions",
                        lambda model, params: splits.append(model) or split(model, params))
    monkeypatch.setattr(systems_mod, "exec_generated",
                        lambda source, filename, *a: sources.append(filename) or run(
                            source, filename, *a))
    for name in SYSTEM_NAMES:
        splits.clear()
        sources.clear()
        spec = make_system(name)
        models = {row.model for row in systems_mod._SYSTEMS[name].charts.values()}
        assert len(splits) == len(models)
        assert sorted(sources) == sorted(f"<{m}{suffix}>" for m in models
                                         for suffix in (" evaluators", "", " balance"))
    spec = make_system("brownian_oscillator")
    splits.clear()
    langevin_ensemble(spec.chart(), spec.noise, T=0.01, dt=1e-3, n_traj=3)
    euler_maruyama_langevin(spec.chart(), spec.noise, T=0.01, dt=1e-3)
    assert splits == []


def test_compile_refuses_names_the_generated_loop_reserves(monkeypatch):
    # the generated loops' own names start with "_", so no role or definition may
    import contactdyn.systems as systems_mod

    monkeypatch.setitem(systems_mod._MODELS, "free.h", systems_mod._Model("hamiltonian", {
        "_u": "p / m", "H": "p * _u / 2", "H_s": "0.0", "H_q": "0.0", "H_p": "_u",
    }))
    row = replace(systems_mod._DAMPED_H, model="free.h", terms=())
    with pytest.raises(ValueError, match="'_u'"):
        systems_mod._compile("free.h", {"m": 1.0}, {"hamiltonian": row})
    monkeypatch.setitem(systems_mod._KINDS, "underscored",
                        replace(systems_mod._KINDS["hamiltonian"], roles=("_s", "q", "p")))
    with pytest.raises(ValueError, match="'_s'"):
        systems_mod._compile("damped_oscillator.h", make_system("damped_oscillator").params,
                             {"underscored": replace(systems_mod._DAMPED_H, kind="underscored")})


@pytest.mark.parametrize("name, chart_name", ALL_CHARTS)
def test_terms_and_G_agree_on_floats_and_columns(name, chart_name):
    # terms and G are plain arithmetic on the state's components: on one
    # state's floats they must give, bit for bit, that state's entry of the
    # evaluation on sample columns
    chart = make_system(name, **OFF_DEFAULT[name]).chart(chart_name)
    rng = np.random.default_rng(2000)
    states = rng.uniform(-2.0, 2.0, (2000, len(chart.layout)))
    if name == "gierer_meinhardt":
        states[:, -1] = rng.uniform(-0.9, 2.0, 2000)  # the domain B + y > 0
    fns = [b.value for b in chart.terms] + [chart.G]
    columns = [f(*states.T) for f in fns]
    for k, row in enumerate(states.tolist()):
        assert [f(*row) for f in fns] == [c[k] for c in columns], row


@pytest.mark.parametrize("name, chart_name", ALL_CHARTS)
def test_term_sum_equals_scaled_rate(name, chart_name, monkeypatch):
    # make_system checks the identity at a probe state: scaling any one term
    # of the chart by 1.01 must fail the build, naming the chart
    import contactdyn.systems as systems_mod

    chart = make_system(name).chart(chart_name)
    original = systems_mod.Chart
    for i in range(len(chart.terms)):
        def sabotaged(**kw):
            if kw["layout"] == chart.layout:
                terms = list(kw["terms"])
                b = terms[i]
                terms[i] = VirialTermBinding(b.name, b.sign,
                                             lambda *y, f=b.value: 1.01 * f(*y))
                kw["terms"] = terms
            return original(**kw)

        monkeypatch.setattr(systems_mod, "Chart", sabotaged)
        with pytest.raises(ParameterError, match=f"chart '{chart_name}'"):
            make_system(name)


def test_term_check_steps_by_the_rates_of_the_roles_G_reads():
    # G = q p reads no s, so an s-rate of 1e20 must not shrink the difference
    # step until G's difference rounds to 0.0 against a term sum of -0.602
    import contactdyn.systems as systems_mod

    chart = make_system("damped_oscillator").chart("hamiltonian")

    def rhs(t, y):
        ds, dq, dp = chart.rhs(t, y)
        return 1e20 * ds, dq, dp

    systems_mod._check_term_sum("damped_oscillator", "hamiltonian", replace(chart, rhs=rhs))


def test_build_calls_the_oracles_through_the_names_a_tracer_rebinds(monkeypatch):
    # a tracer (perfbench/tracing.py) rebinds the oracles' names in
    # contactdyn.systems; every catalog build must call the rebound ones
    import contactdyn.systems as systems_mod

    reports = []
    for name in ("check_partials", "check_lagrangian_partials", "check_partials_extended"):
        def traced(*args, oracle=getattr(systems_mod, name), **kwargs):
            reports.append(oracle(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(systems_mod, name, traced)
    for name in SYSTEM_NAMES:
        make_system(name)
    assert len(reports) == 7
    assert sum(len(report.checks) for report in reports) == 30


@pytest.mark.parametrize(
    "name, chart_name",
    [
        ("damped_oscillator", "hamiltonian"),
        ("parachute", "hamiltonian"),
        ("gierer_meinhardt", "contact"),
    ],
)
def test_rate_matches_finite_difference_of_G(name, chart_name):
    # X(G) along the flow is dG/dt: check the rate reports use, the signed
    # term sum over rate_scale, against a centered difference of G over the
    # integrated trajectory
    spec = make_system(name)
    chart = spec.chart(chart_name)
    traj = integrate_fixed(chart.rhs, chart.x0, T=2.0, dt=1e-3,
                           layout=chart.layout, sample_every=1)
    g = chart.G(*traj.states.T)
    rate = sum(b.sign * b.value(*traj.states.T) for b in chart.terms) / chart.rate_scale
    dgdt = np.gradient(g, traj.times)
    interior = slice(5, -5)
    # atol covers the centered-difference truncation ~ dt^2 |G'''| / 6,
    # which dominates early in the parachute fall where G''' is O(g^2)
    np.testing.assert_allclose(rate[interior], dgdt[interior],
                               rtol=1e-4, atol=2e-4)


def test_rate_scale_values():
    assert make_system("damped_oscillator").chart("hamiltonian").rate_scale == 0.5
    assert make_system("parachute").chart("hamiltonian").rate_scale == 1.0
    assert make_system("parachute").chart("lagrangian").rate_scale == 0.5
    assert make_system("forced_oscillator").chart().rate_scale == 0.5
    assert make_system("gierer_meinhardt", A=2.0).chart().rate_scale == 0.5


def test_oracle_runs_at_construction(monkeypatch):
    # sabotage one partial and the build must fail loudly
    import contactdyn.systems as systems_mod

    original = systems_mod.ScalarField

    class Corrupted(original):
        def __init__(self, **kw):
            if kw.get("name") == "damped_oscillator.h":
                good = kw["d_s"]
                kw["d_s"] = lambda x: good(x) + 1.0
            super().__init__(**kw)

    monkeypatch.setattr(systems_mod, "ScalarField", Corrupted)
    with pytest.raises(ParameterError, match="oracle"):
        make_system("damped_oscillator")
