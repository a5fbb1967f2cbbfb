"""Catalog of built-in dissipative systems with validated parameters.

Each system bundles analytic models (Darboux-chart Hamiltonian, velocity-
chart Lagrangian, extended time-dependent Hamiltonian — whichever apply),
fast closed-form right-hand sides per chart, default initial states, and
the signed term decomposition its averaged-rate report uses (a Brownian
rhs is the drift; its NoiseSpec adds the thermal force).  Analytic partials
are run through the finite-difference oracle once at construction at the
default state, and the terms are checked against the flow rate of G, so a
catalog system cannot be built with a wrong gradient or term.

Charts and layouts
------------------
hamiltonian        (s, q[0], p[0])
lagrangian         (q[0], qdot[0], s)
extended           (t, s, q[0], p[0])   -- forced and Brownian oscillators
contact  (activator-inhibitor)  (z, x, y)   -- z plays s, x plays q, y plays p
planar   (activator-inhibitor)  (x, y)

Term decompositions satisfy  sum_i sign_i * term_i(state) ==
rate_scale * X(G)(state)  pointwise, where G is the chart's virial
observable; the scale matches how each balance is conventionally written
(energies carry 1/2, the quadratic-drag form is unscaled, the
activator-inhibitor form is divided by A).  Reports take the signed term
sum over rate_scale as the rate of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DarbouxPoint,
    DomainError,
    ScalarField,
    check_partials,
    compare_derivative,
    contact_vector_field,
)
from .extended import (
    ExtendedPoint,
    TimeDependentHamiltonianModel,
    check_partials_extended,
)
from .herglotz import LagrangianModel, LagrangianPoint, check_lagrangian_partials
from .integrate import NoiseSpec, Trajectory

__all__ = [
    "ParameterSpec",
    "VirialTermBinding",
    "Chart",
    "SystemSpec",
    "ParameterError",
    "UnknownSystemError",
    "PlanarProjection",
    "SYSTEM_NAMES",
    "catalog_schema",
    "make_system",
    "conformal_projection_check",
    "z_equation_residual",
]


class ParameterError(ValueError):
    """A parameter violates its constraint, or an unknown key was supplied."""


class UnknownSystemError(ValueError):
    """Requested system is not in the catalog."""


@dataclass(frozen=True)
class ParameterSpec:
    """One named parameter: default value, constraint text, constraint check."""

    name: str
    default: float
    constraint: str
    check: Callable[[float], bool]
    description: str = ""


def _positive(v):
    return v > 0 and math.isfinite(v)


def _nonnegative(v):
    return v >= 0 and math.isfinite(v)


def _finite(v):
    return math.isfinite(v)


def _integer(v):
    return float(v).is_integer() and abs(v) < 2**63


_SCHEMAS: dict[str, tuple[ParameterSpec, ...]] = {
    "damped_oscillator": (
        ParameterSpec("m", 1.0, "> 0", _positive, "mass"),
        ParameterSpec("omega", 1.0, "> 0", _positive, "natural frequency"),
        ParameterSpec("gamma", 0.1, "> 0", _positive, "damping rate"),
    ),
    "parachute": (
        ParameterSpec("m", 1.0, "> 0", _positive, "mass"),
        ParameterSpec("g", 10.0, "> 0", _positive, "gravitational acceleration"),
        ParameterSpec("lam", 0.5, "> 0", _positive, "drag coefficient"),
    ),
    "forced_oscillator": (
        ParameterSpec("m", 1.0, "> 0", _positive, "mass"),
        ParameterSpec("omega", 1.0, "> 0", _positive, "natural frequency"),
        ParameterSpec("gamma", 0.1, "> 0", _positive, "damping rate"),
        ParameterSpec("F0", 1.0, ">= 0", _nonnegative, "forcing amplitude"),
        ParameterSpec("Omega", 2.0, "> 0", _positive, "forcing frequency"),
    ),
    "brownian_oscillator": (
        ParameterSpec("m", 1.0, "> 0", _positive, "mass"),
        ParameterSpec("omega", 1.0, "> 0", _positive, "trap frequency"),
        ParameterSpec("gamma", 0.5, "> 0", _positive, "friction rate"),
        ParameterSpec("k_BT", 1.0, ">= 0", _nonnegative, "thermal energy"),
        ParameterSpec("seed", 0.0, "64-bit integer", _integer, "noise stream seed"),
    ),
    "gierer_meinhardt": (
        ParameterSpec("A", 1.0, "finite, != 0", lambda v: _finite(v) and v != 0,
                      "activation strength"),
        ParameterSpec("B", 1.0, "finite (domain needs B + y > 0)", _finite,
                      "saturation offset"),
        ParameterSpec("C", 1.0, "finite", _finite, "cross-coupling"),
        ParameterSpec("D", 1.0, "finite", _finite, "self-activation"),
        ParameterSpec("K", 1.0, "finite", _finite, "inhibitor decay"),
    ),
}

SYSTEM_NAMES = tuple(_SCHEMAS)


def catalog_schema() -> dict[str, tuple[ParameterSpec, ...]]:
    """Name -> parameter specs for every catalog system."""
    return dict(_SCHEMAS)


@dataclass(frozen=True)
class VirialTermBinding:
    """One signed term of a system's averaged-rate balance.

    `values` evaluates the term along a trajectory, vectorized over samples.
    """

    name: str
    sign: int
    values: Callable[[Trajectory], np.ndarray]


@dataclass(frozen=True)
class Chart:
    """One runnable picture of a system.

    rhs(t, y) is the closed-form field the steppers advance: it takes the
    state as a tuple of floats in `layout` order and returns the
    derivatives as a tuple of floats; a stochastic chart's rhs is its drift,
    which also evaluates on per-member arrays.  terms, G and rate_scale are
    everything a report needs: G evaluates the virial observable along
    samples, and sum(sign*term) == rate_scale * X(G) holds identically, so
    the signed term sum over rate_scale is the flow rate X(G).  make_system
    checks that identity for every chart.
    """

    kind: str
    layout: tuple
    x0: np.ndarray
    rhs: Callable[[float, tuple], tuple]
    terms: tuple
    G: Callable[[Trajectory], np.ndarray] | None
    rate_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "layout", tuple(self.layout))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class SystemSpec:
    """A catalog system: parameters, models, and runnable charts."""

    name: str
    params: dict
    charts: dict
    default_chart: str
    hamiltonian: ScalarField | None = None
    lagrangian: LagrangianModel | None = None
    extended: TimeDependentHamiltonianModel | None = None
    noise: NoiseSpec | None = None
    description: str = ""

    def chart(self, name: str | None = None) -> Chart:
        key = name or self.default_chart
        if key not in self.charts:
            raise ParameterError(
                f"system '{self.name}' has charts {sorted(self.charts)}, not '{key}'"
            )
        return self.charts[key]


def _validate_params(name: str, overrides: dict) -> dict:
    if name not in _SCHEMAS:
        raise UnknownSystemError(
            f"unknown system '{name}'; catalog has {list(SYSTEM_NAMES)}"
        )
    schema = {p.name: p for p in _SCHEMAS[name]}
    unknown = set(overrides) - set(schema)
    if unknown:
        raise ParameterError(
            f"unknown parameter(s) {sorted(unknown)} for '{name}'; "
            f"accepted: {sorted(schema)}"
        )
    values = {}
    for pname, pspec in schema.items():
        v = float(overrides.get(pname, pspec.default))
        if not pspec.check(v):
            raise ParameterError(
                f"parameter {pname}={v:g} for '{name}' violates constraint "
                f"({pspec.constraint})"
            )
        values[pname] = v
    return values


def _oracle_or_raise(report, what: str) -> None:
    if not report.passed:
        bad = ", ".join(c.label for c in report.failures())
        raise ParameterError(
            f"analytic partials of {what} failed the finite-difference oracle ({bad})"
        )


def _check_term_sum(system: str, chart_name: str, chart: Chart) -> None:
    """Check sum(sign * term) == rate_scale * dG/dt at one probe state.

    The probe is x0 plus small positive offsets: generic (at x0, p = 0 and
    the kinetic and friction terms vanish) and inside the chart's domain
    wherever x0 is.  dG/dt is the central difference of G along the chart's
    rhs, exact up to rounding for the bilinear G of every catalog chart.
    """
    x = chart.x0 + 0.05 * np.arange(1, chart.x0.size + 1)
    where = f"terms of '{system}' chart '{chart_name}' at the probe state {x.tolist()}"
    try:
        f = np.asarray(chart.rhs(0.0, tuple(x.tolist())), dtype=float)
        eps = 1e-3 / max(1.0, float(np.max(np.abs(f))))
        probe = Trajectory(times=[-eps, 0.0, eps],
                           states=[x - eps * f, x, x + eps * f], layout=chart.layout)
        g = chart.G(probe)
        term_sum = math.fsum(float(b.sign * b.values(probe)[1]) for b in chart.terms)
    except (ArithmeticError, ValueError) as exc:
        raise ParameterError(f"{where} cannot be evaluated: {exc}") from exc
    scaled_rate = chart.rate_scale * (g[2] - g[0]) / (2 * eps)
    if not compare_derivative(term_sum, scaled_rate)[1]:
        raise ParameterError(
            f"{where} sum to {term_sum!r}, not rate_scale * dG/dt = {scaled_rate!r}"
        )


# ---------------------------------------------------------------------------
# builders


def _build_damped(params):
    m, omega, gamma = params["m"], params["omega"], params["gamma"]
    mw2 = m * omega * omega

    h = ScalarField(
        n=1,
        value=lambda x: x.p[0] ** 2 / (2 * m) + mw2 * x.q[0] ** 2 / 2 + gamma * x.s,
        d_s=lambda x: gamma,
        d_q=lambda x: np.array([mw2 * x.q[0]]),
        d_p=lambda x: np.array([x.p[0] / m]),
        name="damped_oscillator.h",
    )
    L = LagrangianModel(
        n=1,
        value=lambda z: m * z.qdot[0] ** 2 / 2 - mw2 * z.q[0] ** 2 / 2 - gamma * z.s,
        d_s=lambda z: -gamma,
        d_q=lambda z: np.array([-mw2 * z.q[0]]),
        d_qdot=lambda z: np.array([m * z.qdot[0]]),
        w=lambda z: np.array([[m]]),
        d2_q_qdot=lambda z: np.zeros((1, 1)),
        d2_s_qdot=lambda z: np.zeros(1),
        name="damped_oscillator.L",
    )

    def rhs_h(t, y):
        s, q, p = y
        return (
            p * p / (2 * m) - mw2 * q * q / 2 - gamma * s,
            p / m,
            -(mw2 * q + gamma * p),
        )

    def rhs_l(t, y):
        q, qdot, s = y
        return (
            qdot,
            -(omega * omega * q + gamma * qdot),
            m * qdot * qdot / 2 - mw2 * q * q / 2 - gamma * s,
        )

    def col(traj, name):
        return traj.column(name)

    chart_h = Chart(
        kind="hamiltonian",
        layout=("s", "q[0]", "p[0]"),
        x0=[0.0, 1.0, 0.0],
        rhs=rhs_h,
        terms=(
            VirialTermBinding("kinetic", +1,
                              lambda tr: col(tr, "p[0]") ** 2 / (2 * m)),
            VirialTermBinding("potential", -1,
                              lambda tr: mw2 * col(tr, "q[0]") ** 2 / 2),
            VirialTermBinding("friction_qp", -1,
                              lambda tr: gamma * col(tr, "q[0]") * col(tr, "p[0]") / 2),
        ),
        G=lambda tr: col(tr, "q[0]") * col(tr, "p[0]"),
        rate_scale=0.5,
    )
    chart_l = Chart(
        kind="lagrangian",
        layout=("q[0]", "qdot[0]", "s"),
        x0=[1.0, 0.0, 0.0],
        rhs=rhs_l,
        terms=(
            VirialTermBinding("kinetic", +1,
                              lambda tr: m * col(tr, "qdot[0]") ** 2 / 2),
            VirialTermBinding("potential", -1,
                              lambda tr: mw2 * col(tr, "q[0]") ** 2 / 2),
            VirialTermBinding("friction_qqdot", -1,
                              lambda tr: m * gamma * col(tr, "q[0]") * col(tr, "qdot[0]") / 2),
        ),
        G=lambda tr: m * col(tr, "qdot[0]") * col(tr, "q[0]"),
        rate_scale=0.5,
    )
    _oracle_or_raise(check_partials(h, DarbouxPoint(0.0, [1.0], [0.0])), h.name)
    _oracle_or_raise(
        check_lagrangian_partials(L, LagrangianPoint([1.0], [0.0], 0.0)), L.name
    )
    return SystemSpec(
        name="damped_oscillator",
        params=params,
        charts={"hamiltonian": chart_h, "lagrangian": chart_l},
        default_chart="hamiltonian",
        hamiltonian=h,
        lagrangian=L,
        description="linear oscillator with velocity-proportional friction",
    )


def _build_parachute(params):
    m, g, lam = params["m"], params["g"], params["lam"]

    def h_value(x):
        return (x.p[0] - 2 * lam * x.s) ** 2 / (2 * m) + (m * g / (2 * lam)) * (
            math.exp(2 * lam * x.q[0]) - 1.0
        )

    h = ScalarField(
        n=1,
        value=h_value,
        d_s=lambda x: -2 * lam * (x.p[0] - 2 * lam * x.s) / m,
        d_q=lambda x: np.array([m * g * math.exp(2 * lam * x.q[0])]),
        d_p=lambda x: np.array([(x.p[0] - 2 * lam * x.s) / m]),
        name="parachute.h",
    )
    L = LagrangianModel(
        n=1,
        value=lambda z: m * z.qdot[0] ** 2 / 2
        - (m * g / (2 * lam)) * (math.exp(2 * lam * z.q[0]) - 1.0)
        + 2 * lam * z.qdot[0] * z.s,
        d_s=lambda z: 2 * lam * z.qdot[0],
        d_q=lambda z: np.array([-m * g * math.exp(2 * lam * z.q[0])]),
        d_qdot=lambda z: np.array([m * z.qdot[0] + 2 * lam * z.s]),
        w=lambda z: np.array([[m]]),
        d2_q_qdot=lambda z: np.zeros((1, 1)),
        d2_s_qdot=lambda z: np.array([2 * lam]),
        name="parachute.L",
    )

    def rhs_h(t, y):
        s, q, p = y
        u = (p - 2 * lam * s) / m
        e = math.exp(2 * lam * q)
        pot = (m * g / (2 * lam)) * (e - 1.0)
        return (
            p * u - (m * u * u / 2 + pot),
            u,
            -m * g * e + 2 * lam * p * u,
        )

    def rhs_l(t, y):
        q, qdot, s = y
        return (
            qdot,
            lam * qdot * qdot - g,
            m * qdot * qdot / 2
            - (m * g / (2 * lam)) * (math.exp(2 * lam * q) - 1.0)
            + 2 * lam * qdot * s,
        )

    def u_of(tr):
        return (tr.column("p[0]") - 2 * lam * tr.column("s")) / m

    chart_h = Chart(
        kind="hamiltonian",
        layout=("s", "q[0]", "p[0]"),
        x0=[0.0, 0.0, 0.0],
        rhs=rhs_h,
        terms=(
            VirialTermBinding("p_velocity", +1,
                              lambda tr: tr.column("p[0]") * u_of(tr)),
            VirialTermBinding("gravity_gradient", -1,
                              lambda tr: m * g * tr.column("q[0]")
                              * np.exp(2 * lam * tr.column("q[0]"))),
            VirialTermBinding("drag_coupling", +1,
                              lambda tr: 2 * lam * tr.column("q[0]")
                              * tr.column("p[0]") * u_of(tr)),
        ),
        G=lambda tr: tr.column("q[0]") * tr.column("p[0]"),
        rate_scale=1.0,
    )
    chart_l = Chart(
        kind="lagrangian",
        layout=("q[0]", "qdot[0]", "s"),
        x0=[0.0, 0.0, 0.0],
        rhs=rhs_l,
        terms=(
            VirialTermBinding("kinetic", +1,
                              lambda tr: m * tr.column("qdot[0]") ** 2 / 2),
            VirialTermBinding("gravity", -1,
                              lambda tr: m * g * tr.column("q[0]") / 2),
            VirialTermBinding("drag", +1,
                              lambda tr: m * lam * tr.column("q[0]")
                              * tr.column("qdot[0]") ** 2 / 2),
        ),
        G=lambda tr: m * tr.column("qdot[0]") * tr.column("q[0]"),
        rate_scale=0.5,
    )
    _oracle_or_raise(check_partials(h, DarbouxPoint(0.0, [0.0], [0.0])), h.name)
    _oracle_or_raise(
        check_lagrangian_partials(L, LagrangianPoint([0.0], [0.0], 0.0)), L.name
    )
    return SystemSpec(
        name="parachute",
        params=params,
        charts={"hamiltonian": chart_h, "lagrangian": chart_l},
        default_chart="hamiltonian",
        hamiltonian=h,
        lagrangian=L,
        description="vertical fall against quadratic drag (terminal velocity sqrt(g/lam))",
    )


def _build_forced(params):
    m, omega, gamma = params["m"], params["omega"], params["gamma"]
    F0, W = params["F0"], params["Omega"]
    mw2 = m * omega * omega

    hx = TimeDependentHamiltonianModel(
        n=1,
        value=lambda y: y.base.p[0] ** 2 / (2 * m)
        + mw2 * y.base.q[0] ** 2 / 2
        + gamma * y.base.s
        - y.base.q[0] * F0 * math.cos(W * y.t),
        d_t=lambda y: y.base.q[0] * F0 * W * math.sin(W * y.t),
        d_s=lambda y: gamma,
        d_q=lambda y: np.array([mw2 * y.base.q[0] - F0 * math.cos(W * y.t)]),
        d_p=lambda y: np.array([y.base.p[0] / m]),
        name="forced_oscillator.h",
    )

    def rhs(t, y):
        tt, s, q, p = y
        drive = F0 * math.cos(W * tt)
        return (
            1.0,
            p * p / (2 * m) - mw2 * q * q / 2 - gamma * s + q * drive,
            p / m,
            -(mw2 * q - drive) - gamma * p,
        )

    def drive_term(tr):
        q, p = tr.column("q[0]"), tr.column("p[0]")
        return q * (F0 * np.cos(W * tr.column("t")) - gamma * p) / 2

    chart = Chart(
        kind="extended",
        layout=("t", "s", "q[0]", "p[0]"),
        x0=[0.0, 0.0, 1.0, 0.0],
        rhs=rhs,
        terms=(
            VirialTermBinding("kinetic", +1,
                              lambda tr: tr.column("p[0]") ** 2 / (2 * m)),
            VirialTermBinding("potential", -1,
                              lambda tr: mw2 * tr.column("q[0]") ** 2 / 2),
            VirialTermBinding("drive_friction", +1, drive_term),
        ),
        G=lambda tr: tr.column("q[0]") * tr.column("p[0]"),
        rate_scale=0.5,
    )
    _oracle_or_raise(
        check_partials_extended(hx, ExtendedPoint(0.3, DarbouxPoint(0.0, [1.0], [0.0]))),
        hx.name,
    )
    return SystemSpec(
        name="forced_oscillator",
        params=params,
        charts={"extended": chart},
        default_chart="extended",
        extended=hx,
        description="damped oscillator under periodic forcing, on the extended space",
    )


def _build_brownian(params):
    m, omega, gamma = params["m"], params["omega"], params["gamma"]
    kBT, seed = params["k_BT"], int(params["seed"])
    mw2 = m * omega**2
    noise = NoiseSpec(m=m, gamma=gamma, k_BT=kBT, seed=seed)

    def drift(t, y):
        # plain arithmetic: evaluates on floats and on per-member arrays
        tt, s, q, p = y
        return (
            1.0,
            p * p / (2 * m) - mw2 * q * q / 2 - gamma * s,
            p / m,
            -gamma * p - mw2 * q,
        )

    chart = Chart(
        kind="stochastic-extended",
        layout=("t", "s", "q[0]", "p[0]"),
        x0=[0.0, 0.0, 1.0, 0.0],
        rhs=drift,
        terms=(
            VirialTermBinding("kinetic", +1,
                              lambda tr: tr.column("p[0]") ** 2 / (2 * m)),
            VirialTermBinding("potential", -1,
                              lambda tr: mw2 * tr.column("q[0]") ** 2 / 2),
            # the thermal force's share, q*eta/2, is the realized Ito
            # integral of q dW; ensemble reports add it from the stepper
            VirialTermBinding("drive_friction", +1,
                              lambda tr: -gamma * tr.column("q[0]")
                              * tr.column("p[0]") / 2),
        ),
        G=lambda tr: tr.column("q[0]") * tr.column("p[0]"),
        rate_scale=0.5,
    )
    return SystemSpec(
        name="brownian_oscillator",
        params=params,
        charts={"extended": chart},
        default_chart="extended",
        noise=noise,
        description="harmonically trapped particle in a thermal bath (Langevin)",
    )


def _build_gierer_meinhardt(params):
    A, B, C, D, K = (params[k] for k in ("A", "B", "C", "D", "K"))

    def _domain(yv):
        if not (B + yv > 0):
            raise DomainError(f"state y={yv:g} violates B + y > 0 (B={B:g})")

    def h_value(x):
        _domain(x.p[0])
        return (A * math.log(B + x.p[0]) - D * x.q[0] ** 2 / 2
                + C * (x.s - x.q[0] * x.p[0]) + K * x.s)

    def h_dp(x):
        _domain(x.p[0])
        return np.array([A / (B + x.p[0]) - C * x.q[0]])

    h = ScalarField(
        n=1,
        value=h_value,
        d_s=lambda x: C + K,
        d_q=lambda x: np.array([-D * x.q[0] - C * x.p[0]]),
        d_p=h_dp,
        name="gierer_meinhardt.h",
    )

    def rhs_contact(t, y):
        z, x, yv = y
        if not (B + yv > 0):
            raise DomainError(f"state y={yv:g} violates B + y > 0 (B={B:g})")
        return (
            A * (yv / (B + yv) - math.log(B + yv)) + D * x * x / 2 - (C + K) * z,
            A / (B + yv) - C * x,
            D * x - K * yv,
        )

    def rhs_planar(t, y):
        x, yv = y
        if not (B + yv > 0):
            raise DomainError(f"state y={yv:g} violates B + y > 0 (B={B:g})")
        return (
            A / (B + yv) - C * x,
            D * x - K * yv,
        )

    def terms_for(xcol, ycol):
        return (
            VirialTermBinding("saturation", +1,
                              lambda tr: tr.column(ycol) / (B + tr.column(ycol))),
            VirialTermBinding("self_activation", +1,
                              lambda tr: (D / A) * tr.column(xcol) ** 2),
            VirialTermBinding("cross_decay", -1,
                              lambda tr: ((C + K) / A) * tr.column(xcol)
                              * tr.column(ycol)),
        )

    def G_xy(tr):
        return tr.column("x") * tr.column("y")

    chart_contact = Chart(
        kind="contact",
        layout=("z", "x", "y"),
        x0=[0.0, 0.2, 0.2],
        rhs=rhs_contact,
        terms=terms_for("x", "y"),
        G=G_xy,
        rate_scale=1.0 / A,
    )
    chart_planar = Chart(
        kind="planar-conformal",
        layout=("x", "y"),
        x0=[0.2, 0.2],
        rhs=rhs_planar,
        terms=terms_for("x", "y"),
        G=G_xy,
        rate_scale=1.0 / A,
    )
    _oracle_or_raise(check_partials(h, DarbouxPoint(0.0, [0.2], [0.2])), h.name)
    return SystemSpec(
        name="gierer_meinhardt",
        params=params,
        charts={"contact": chart_contact, "planar": chart_planar},
        default_chart="contact",
        hamiltonian=h,
        description="activator-inhibitor kinetics as a contact flow over its "
                    "planar conformal projection",
    )


_BUILDERS = {
    "damped_oscillator": _build_damped,
    "parachute": _build_parachute,
    "forced_oscillator": _build_forced,
    "brownian_oscillator": _build_brownian,
    "gierer_meinhardt": _build_gierer_meinhardt,
}


def make_system(name: str, **params) -> SystemSpec:
    """Build a catalog system, validating parameters against its schema.

    Unknown parameter names are rejected; constraint violations raise
    ParameterError with the offending value and its constraint.  The
    returned spec is immutable and safe to share.
    """
    values = _validate_params(name, params)
    spec = _BUILDERS[name](values)
    for chart_name, chart in spec.charts.items():
        _check_term_sum(name, chart_name, chart)
    return spec


# ---------------------------------------------------------------------------
# activator-inhibitor: projection and z-equation checks


@dataclass(frozen=True)
class PlanarProjection:
    """Planar field vs the (x, y) part of the contact field at one point."""

    planar: np.ndarray
    projected_contact: np.ndarray
    max_difference: float
    z_rate: float


def conformal_projection_check(spec: SystemSpec, point) -> PlanarProjection:
    """Compare the planar conformal field with the projected contact field.

    The contact Hamiltonian equals the planar one plus (C+K) * z, so the
    (x, y) components of the two fields agree identically; this evaluates
    both routes (analytic planar formulas vs the generic Darboux-chart
    field of the attached model) and reports the max |difference|, along
    with the z equation's right-hand side at the point.

    Raises DomainError when y <= -B.
    """
    if spec.name != "gierer_meinhardt":
        raise ParameterError("projection check applies to 'gierer_meinhardt' only")
    x, yv, z = (float(v) for v in point)
    A, B, C, D, K = (spec.params[k] for k in ("A", "B", "C", "D", "K"))
    if not (B + yv > 0):
        raise DomainError(f"point y={yv:g} violates B + y > 0 (B={B:g})")
    planar = np.asarray(spec.chart("planar").rhs(0.0, (x, yv)))
    v = contact_vector_field(spec.hamiltonian, DarbouxPoint(s=z, q=[x], p=[yv]))
    projected = np.array([v.dq[0], v.dp[0]])
    z_rate = float(v.ds)
    return PlanarProjection(
        planar=planar,
        projected_contact=projected,
        max_difference=float(np.max(np.abs(planar - projected))),
        z_rate=z_rate,
    )


def z_equation_residual(spec: SystemSpec, traj: Trajectory) -> float:
    """Max deviation of the integrated z rate from its closed form along samples.

    Two independent routes to dz/dt — the generic Darboux-chart field of
    the attached model and the closed-form combination
    A(y/(B+y) - ln(B+y)) + D x^2/2 - (C+K) z — evaluated at every recorded
    sample of a contact-chart trajectory.
    """
    if spec.name != "gierer_meinhardt":
        raise ParameterError("z-equation residual applies to 'gierer_meinhardt' only")
    A, B, C, D, K = (spec.params[k] for k in ("A", "B", "C", "D", "K"))
    worst = 0.0
    for row in traj.states:
        z, x, yv = row
        v = contact_vector_field(spec.hamiltonian, DarbouxPoint(s=z, q=[x], p=[yv]))
        closed = A * (yv / (B + yv) - math.log(B + yv)) + D * x * x / 2 - (C + K) * z
        worst = max(worst, abs(v.ds - closed))
    return worst
