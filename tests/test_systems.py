"""Catalog systems: schemas, oracles at construction, charts, term algebra."""

import math

import numpy as np
import pytest

from contactdyn.core import DarbouxPoint, DomainError, contact_vector_field
from contactdyn.extended import ExtendedPoint, evolution_field
from contactdyn.herglotz import energy_EL, LagrangianPoint, lagrangian_field, legendre_map
from contactdyn.integrate import integrate_fixed
from contactdyn.systems import (
    SYSTEM_NAMES,
    ParameterError,
    UnknownSystemError,
    VirialTermBinding,
    catalog_schema,
    conformal_projection_check,
    make_system,
    z_equation_residual,
)

from conftest import damped_oscillator_h, parachute_h


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
        ("brownian_oscillator", {"seed": 0.5}),
        ("gierer_meinhardt", {"A": 0.0}),
        ("gierer_meinhardt", {"B": float("inf")}),
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


def test_brownian_noise_spec():
    spec = make_system("brownian_oscillator", gamma=0.5, k_BT=1.0, seed=42)
    assert spec.noise is not None
    assert spec.noise.seed == 42
    assert spec.noise.amplitude == pytest.approx(math.sqrt(2 * 1.0 * 0.5 * 1.0))


def test_brownian_drift_is_unforced_oscillator():
    # the Brownian drift is the forced oscillator's field at F0 = 0, and it
    # evaluates on per-member arrays exactly as on floats
    params = dict(m=1.7, omega=0.8, gamma=0.3)
    drift = make_system("brownian_oscillator", **params).chart().rhs
    forced = make_system("forced_oscillator", F0=0.0, **params).chart().rhs
    rng = np.random.default_rng(13)
    states = rng.normal(size=(4, 40)) * 2
    for y in states.T.tolist():
        assert drift(y[0], tuple(y)) == pytest.approx(forced(y[0], tuple(y)),
                                                      rel=1e-14, abs=1e-14)
    on_arrays = drift(0.0, tuple(states))
    for k in range(1, 4):
        np.testing.assert_array_equal(
            on_arrays[k], [drift(0.0, tuple(y))[k] for y in states.T.tolist()])


def test_chart_lookup_errors():
    spec = make_system("damped_oscillator")
    with pytest.raises(ParameterError, match="charts"):
        spec.chart("planar")


# ---------------------------------------------------------------------------
# fast right-hand sides agree with the generic field machinery


def _generic_hamiltonian_rhs(h):
    def rhs(t, y):
        v = contact_vector_field(h, DarbouxPoint(s=y[0], q=y[1:2], p=y[2:3]))
        return np.array([v.ds, v.dq[0], v.dp[0]])

    return rhs


def test_damped_rhs_matches_generic_field():
    spec = make_system("damped_oscillator", m=1.3, omega=0.7, gamma=0.2)
    generic = _generic_hamiltonian_rhs(spec.hamiltonian)
    rng = np.random.default_rng(11)
    for _ in range(25):
        y = rng.normal(size=3) * 2
        np.testing.assert_allclose(
            spec.chart("hamiltonian").rhs(0.0, y), generic(0.0, y),
            rtol=1e-13, atol=1e-13,
        )


def test_parachute_rhs_matches_generic_field():
    spec = make_system("parachute", m=2.0, g=9.8, lam=0.3)
    generic = _generic_hamiltonian_rhs(spec.hamiltonian)
    rng = np.random.default_rng(12)
    for _ in range(25):
        y = rng.normal(size=3)
        np.testing.assert_allclose(
            spec.chart("hamiltonian").rhs(0.0, y), generic(0.0, y),
            rtol=1e-12, atol=1e-12,
        )


def test_lagrangian_rhs_matches_generic_field():
    for name, kw in [("damped_oscillator", {}), ("parachute", {"lam": 0.4})]:
        spec = make_system(name, **kw)
        rng = np.random.default_rng(13)
        for _ in range(25):
            y = rng.normal(size=3)
            z = LagrangianPoint(q=y[0:1], qdot=y[1:2], s=y[2])
            v = lagrangian_field(spec.lagrangian, z)
            np.testing.assert_allclose(
                spec.chart("lagrangian").rhs(0.0, y),
                [v.dq[0], v.dqdot[0], v.ds],
                rtol=1e-12, atol=1e-12,
            )


def test_forced_rhs_matches_generic_field():
    spec = make_system("forced_oscillator")
    rng = np.random.default_rng(14)
    for _ in range(25):
        y = rng.normal(size=4)
        ext = ExtendedPoint(t=y[0], base=DarbouxPoint(s=y[1], q=y[2:3], p=y[3:4]))
        v = evolution_field(spec.extended, ext)
        np.testing.assert_allclose(
            spec.chart("extended").rhs(0.0, y),
            [v.dt, v.ds, v.dq[0], v.dp[0]],
            rtol=1e-12, atol=1e-12,
        )


def test_gm_contact_rhs_matches_generic_field():
    spec = make_system("gierer_meinhardt")
    rng = np.random.default_rng(15)
    for _ in range(25):
        z, x = rng.normal(size=2)
        yv = rng.uniform(-0.8, 3.0)  # keeps B + y > 0
        v = contact_vector_field(spec.hamiltonian, DarbouxPoint(s=z, q=[x], p=[yv]))
        np.testing.assert_allclose(
            spec.chart("contact").rhs(0.0, np.array([z, x, yv])),
            [v.ds, v.dq[0], v.dp[0]],
            rtol=1e-12, atol=1e-12,
        )


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
    spec = make_system("damped_oscillator", m=1.0, omega=1.0, gamma=0.1)
    ref = damped_oscillator_h()
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = DarbouxPoint(rng.normal(), rng.normal(size=1), rng.normal(size=1))
        assert spec.hamiltonian.value(x) == pytest.approx(ref.value(x), abs=1e-14)
        assert spec.hamiltonian.d_s(x) == pytest.approx(ref.d_s(x), abs=1e-14)


def test_parachute_matches_reference_construction():
    spec = make_system("parachute", m=1.0, g=10.0, lam=0.5)
    ref = parachute_h()
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = DarbouxPoint(rng.normal(), rng.normal(size=1), rng.normal(size=1))
        assert spec.hamiltonian.value(x) == pytest.approx(ref.value(x), abs=1e-12)


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


@pytest.mark.parametrize(
    "name, chart_name",
    [
        ("damped_oscillator", "hamiltonian"),
        ("damped_oscillator", "lagrangian"),
        ("parachute", "hamiltonian"),
        ("parachute", "lagrangian"),
        ("forced_oscillator", "extended"),
        ("brownian_oscillator", "extended"),
        ("gierer_meinhardt", "contact"),
        ("gierer_meinhardt", "planar"),
    ],
)
def test_term_sum_equals_scaled_rate(name, chart_name, monkeypatch):
    # make_system checks the identity at a probe state: scaling any one term
    # of the chart by 1.01 must fail the build, naming the chart
    import contactdyn.systems as systems_mod

    chart = make_system(name).chart(chart_name)
    original = systems_mod.Chart
    for i in range(len(chart.terms)):
        def sabotaged(**kw):
            if kw["kind"] == chart.kind:
                terms = list(kw["terms"])
                b = terms[i]
                terms[i] = VirialTermBinding(b.name, b.sign,
                                             lambda tr, f=b.values: 1.01 * f(tr))
                kw["terms"] = terms
            return original(**kw)

        monkeypatch.setattr(systems_mod, "Chart", sabotaged)
        with pytest.raises(ParameterError, match=f"chart '{chart_name}'"):
            make_system(name)


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
    g = chart.G(traj)
    rate = sum(b.sign * b.values(traj) for b in chart.terms) / chart.rate_scale
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
