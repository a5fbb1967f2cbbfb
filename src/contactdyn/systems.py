"""Catalog of built-in dissipative systems with validated parameters.

Each chart kind is stated once in `_KINDS`: its roles, layout names and
field, and for a model kind (Darboux-chart Hamiltonian, velocity-chart
Lagrangian, extended time-dependent Hamiltonian) its evaluator bundle,
oracle and probe point.  Each model is stated once in `_MODELS`, and each
system is one row of `_SYSTEMS`: its parameter specs and, per chart, the
model it runs, its chart kind, its default state and its stated virial
balance -- the observable G, the signed terms and rate_scale, as
expressions over the kind's roles, the parameters and the model's
parameter-only definitions.  A build splits each model's definitions once
and makes one form (`integrate.StraightLine`) per chart from its row.
Rendered from the forms are the evaluator bundle the oracle checks, every
chart's rhs, and every term and G as a plain function of the state's
components in layout order, ``value(*y)``, over numpy's functions, so the
same code evaluates on floats and on equal-shape column arrays; the RK4 and
Euler-Maruyama loops are rendered from the same forms on first use.  The
Brownian oscillator is the damped oscillator's Hamiltonian chart and model
with its own drive_friction term; its rhs is the drift, and its NoiseSpec
adds the thermal force.  At construction the analytic partials are run
through the finite-difference oracle and the terms are checked against the
flow rate of G, so a catalog system cannot be built with a wrong gradient
or term; tests/test_symbolic.py proves both, and each contact field's
divergence, from the same statements.

Charts and layouts
------------------
hamiltonian        (s, q[0], p[0])      -- damped, parachute, Brownian oscillators
lagrangian         (q[0], qdot[0], s)
extended           (t, s, q[0], p[0])   -- forced oscillator
contact  (activator-inhibitor)  (z, x, y)   -- z plays s, x plays q, y plays p
planar   (activator-inhibitor)  (x, y)      -- the contact field without its z row

Every chart's balance satisfies  sum_i sign_i * term_i(state) ==
rate_scale * X(G)(state)  pointwise; the scale matches how each balance is
conventionally written (energies carry 1/2, the quadratic-drag form is
unscaled, the activator-inhibitor form is divided by A).  Reports take the
signed term sum over rate_scale as the rate of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# the bundle classes and oracles that `_KINDS` names are looked up here by name
from .core import (
    DarbouxPoint,
    DomainError,
    ScalarField,
    central_difference,
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
from .integrate import (
    MATH,
    NUMPY,
    NoiseSpec,
    StraightLine,
    Trajectory,
    exec_generated,
    names_read,
)

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


def catalog_schema() -> dict[str, tuple[ParameterSpec, ...]]:
    """Name -> parameter specs for every catalog system."""
    return {name: row.params for name, row in _SYSTEMS.items()}


@dataclass(frozen=True)
class VirialTermBinding:
    """One signed term of a system's averaged-rate balance.

    `value(*y)` takes the state's components in layout order and returns
    the term; it is plain arithmetic, so it evaluates on floats and on
    equal-shape column arrays alike (`value(*traj.states.T)` gives the term
    at every sample).
    """

    name: str
    sign: int
    value: Callable[..., float]

    def __post_init__(self):
        if self.sign not in (-1, +1):
            raise ValueError(f"term '{self.name}': sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class Chart:
    """One runnable picture of a system.

    `layout` names the state's components; a catalog chart takes the
    layout names of its kind in `_KINDS`, and its form the kind's roles.
    rhs(t, y) is the field the steppers advance, compiled from the system's
    model: it takes the state as a tuple of floats in `layout` order and
    returns the derivatives as a tuple of floats; a stochastic chart's rhs
    is its drift.  terms, G and rate_scale are everything a report needs:
    G(*y), like each term's value(*y), takes the state's components in
    layout order and evaluates on floats and on column arrays alike, and
    sum(sign*term) == rate_scale * X(G) holds identically, so the signed
    term sum over rate_scale is the flow rate X(G).  make_system checks that
    identity for every chart.

    A catalog chart also carries `form`, the one `StraightLine` from which
    its rhs, G and terms were rendered and its RK4 and Euler-Maruyama loops
    are rendered on first use.  The rhs carries it as `rhs.straight_line`,
    where the RK4 loop finds it.  Euler-Maruyama reads it from the chart,
    never through the rhs: its loop has no path that calls a field, and a
    wrapper put in place of the rhs (a tracer's, say) carries no form.  A
    chart built by hand carries none and cannot be stepped by
    Euler-Maruyama.
    """

    layout: tuple
    x0: np.ndarray
    rhs: Callable[[float, tuple], tuple]
    terms: tuple
    G: Callable[..., float]
    rate_scale: float = 1.0
    form: StraightLine | None = None

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
    if name not in _SYSTEMS:
        raise UnknownSystemError(
            f"unknown system '{name}'; catalog has {list(SYSTEM_NAMES)}"
        )
    schema = {p.name: p for p in _SYSTEMS[name].params}
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


def _partials_reports(spec: SystemSpec) -> list:
    """(label, PartialsReport) pairs for every analytic model of a spec.

    Each model is probed once, at the default state of the spec's first
    chart whose roles are those of the model's kind.  The bundle's oracle is
    looked up by its name in this module when it is called.
    """
    out = []
    for kind_name, kind in _KINDS.items():
        model = getattr(spec, kind_name, None)  # a spec carries a model under its kind's name
        if model is None:
            continue
        chart = next(c for c in spec.charts.values() if c.form and c.form.roles == kind.roles)
        out.append((model.name, globals()[kind.oracle](model, kind.probe(*chart.x0.tolist()))))
    return out


def _check_term_sum(system: str, chart_name: str, chart: Chart) -> None:
    """Check sum(sign * term) == rate_scale * dG/dt at one probe state.

    The probe is x0 plus small positive offsets: generic (at x0, p = 0 and
    the kinetic and friction terms vanish) and inside the chart's domain
    wherever x0 is.  dG/dt is the central difference of G along the chart's
    rhs, exact up to rounding for the bilinear G of every catalog chart; its
    step is scaled by the field components of the roles G reads, so that a
    large rate of a role G does not read cannot shrink it to nothing.
    """
    x = chart.x0 + 0.05 * np.arange(1, chart.x0.size + 1)
    y = x.tolist()
    where = f"terms of '{system}' chart '{chart_name}' at the probe state {y}"
    # a term in numpy scalars overflows to inf or nan, which fails the
    # comparison by itself, so numpy's warnings are silenced as in _build
    try:
        with np.errstate(all="ignore"):
            f = chart.rhs(0.0, tuple(y))
            read = names_read(chart.form.G)
            eps = 1e-3 / max(1.0, *(abs(c) for role, c in zip(chart.form.roles, f)
                                    if role in read))
            rate = central_difference(
                lambda e: chart.G(*(a + e * b for a, b in zip(y, f))), 0.0, eps
            )
            term_sum = math.fsum(b.sign * b.value(*y) for b in chart.terms)
    except (ArithmeticError, ValueError) as exc:
        raise ParameterError(f"{where} cannot be evaluated: {exc}") from exc
    scaled_rate = chart.rate_scale * rate
    if not compare_derivative(term_sum, scaled_rate)[1]:
        raise ParameterError(
            f"{where} sum to {term_sum!r}, not rate_scale * dG/dt = {scaled_rate!r}"
        )


# ---------------------------------------------------------------------------
# models, stated once, and the catalog's charts with their stated balances


@dataclass(frozen=True)
class _Model:
    """A contact Hamiltonian or Lagrangian, stated once as expressions.

    `defs` holds, over the roles, the parameters and earlier names, the value
    H or L, its first partials (H_t, H_s, H_q, H_p; L_q, L_v, L_s, and W =
    L_vv, L_qv, L_sv) and shared subexpressions.  Every evaluation outside
    `domain` raises DomainError.
    """

    kind: str
    defs: dict
    domain: str = ""


@dataclass(frozen=True)
class _Kind:
    """One chart kind: the roles of its state, in layout order, the names its
    layout gives them, and its field's components over the roles and the
    definitions of a model.

    A model kind, whose model a SystemSpec carries under the kind's name,
    also states its evaluator bundle: the bundle class and its
    finite-difference oracle, by their names in this module (looked up when
    called, so that a wrapper bound over either name is the one called);
    `unpack`, how a bundle point x unpacks into the roles; `returns`, what
    each callable of the bundle returns ([...] becomes an array); and
    `probe`, the oracle's probe point at the roles' values.
    """

    roles: tuple
    layout: tuple
    field: tuple
    bundle: str = ""
    oracle: str = ""
    unpack: str = ""
    returns: dict | None = None
    probe: Callable | None = None


_CONTACT_FIELD = ("p * H_p - H", "H_p", "-(H_q + p * H_s)")
_KINDS = {
    "hamiltonian": _Kind(
        ("s", "q", "p"), ("s", "q[0]", "p[0]"), _CONTACT_FIELD,
        bundle="ScalarField", oracle="check_partials", unpack="x.s, x.q[0], x.p[0]",
        returns={"value": "H", "d_s": "H_s", "d_q": "[H_q]", "d_p": "[H_p]"},
        probe=lambda s, q, p: DarbouxPoint(s=s, q=[q], p=[p])),
    "contact": _Kind(("s", "q", "p"), ("z", "x", "y"), _CONTACT_FIELD),
    # the contact field's (q, p) rows, which read no s
    "planar-conformal": _Kind(("q", "p"), ("x", "y"), _CONTACT_FIELD[1:]),
    "extended": _Kind(
        ("t", "s", "q", "p"), ("t", "s", "q[0]", "p[0]"), ("1.0", *_CONTACT_FIELD),
        bundle="TimeDependentHamiltonianModel", oracle="check_partials_extended",
        unpack="x.t, x.base.s, x.base.q[0], x.base.p[0]",
        returns={"value": "H", "d_t": "H_t", "d_s": "H_s", "d_q": "[H_q]", "d_p": "[H_p]"},
        # away from t = 0, so that the drive's time derivative is non-trivial
        probe=lambda t, s, q, p: ExtendedPoint(t=0.3, base=DarbouxPoint(s=s, q=[q], p=[p]))),
    "lagrangian": _Kind(
        ("q", "v", "s"), ("q[0]", "qdot[0]", "s"),
        ("v", "(L_q - v * L_qv - L * L_sv + L_s * L_v) / W", "L"),
        bundle="LagrangianModel", oracle="check_lagrangian_partials",
        unpack="x.q[0], x.qdot[0], x.s",
        returns={"value": "L", "d_s": "L_s", "d_q": "[L_q]", "d_qdot": "[L_v]",
                 "w": "[[W]]", "d2_q_qdot": "[[L_qv]]", "d2_s_qdot": "[L_sv]"},
        probe=lambda q, v, s: LagrangianPoint(q=[q], qdot=[v], s=s)),
}

# every model of the catalog, by the name of its evaluator bundle
_MODELS = {
    "damped_oscillator.h": _Model("hamiltonian", {
        "mw2": "m * omega * omega",
        "H": "p * p / (2 * m) + mw2 * q * q / 2 + gamma * s",
        "H_s": "gamma", "H_q": "mw2 * q", "H_p": "p / m",
    }),
    "damped_oscillator.L": _Model("lagrangian", {
        "mw2": "m * omega * omega",
        "L": "m * v * v / 2 - mw2 * q * q / 2 - gamma * s",
        "L_q": "-mw2 * q", "L_v": "m * v", "L_s": "-gamma",
        "W": "m", "L_qv": "0.0", "L_sv": "0.0",
    }),
    "parachute.h": _Model("hamiltonian", {
        "u": "(p - 2 * lam * s) / m",  # the velocity
        "e": "exp(2 * lam * q)",
        "H": "m * u * u / 2 + (m * g / (2 * lam)) * (e - 1.0)",
        "H_s": "-2 * lam * u", "H_q": "m * g * e", "H_p": "u",
    }),
    "parachute.L": _Model("lagrangian", {
        "e": "exp(2 * lam * q)",
        "L": "m * v * v / 2 - (m * g / (2 * lam)) * (e - 1.0) + 2 * lam * v * s",
        "L_q": "-m * g * e", "L_v": "m * v + 2 * lam * s", "L_s": "2 * lam * v",
        "W": "m", "L_qv": "0.0", "L_sv": "2 * lam",
    }),
    "forced_oscillator.h": _Model("extended", {
        "mw2": "m * omega * omega",
        "drive": "F0 * cos(Omega * t)",
        "H": "p * p / (2 * m) + mw2 * q * q / 2 + gamma * s - q * drive",
        "H_t": "q * F0 * Omega * sin(Omega * t)",
        "H_s": "gamma", "H_q": "mw2 * q - drive", "H_p": "p / m",
    }),
    # the activator-inhibitor chart's z plays s, x plays q and y plays p
    "gierer_meinhardt.h": _Model("hamiltonian", {
        "H": "A * log(B + p) - D * q * q / 2 + C * (s - q * p) + K * s",
        "H_s": "C + K", "H_q": "-D * q - C * p", "H_p": "A / (B + p) - C * q",
    }, domain="B + p > 0"),
}
# the Brownian oscillator is the damped oscillator in a bath
_MODELS["brownian_oscillator.h"] = _MODELS["damped_oscillator.h"]


@dataclass(frozen=True)
class _ChartRow:
    """One chart of a catalog system: its model, kind, default state and balance.

    `x0` is in the layout of chart kind `kind`.  `rate_scale`, `G` and each
    `(name, sign, term)` of `terms` are expressions over that kind's roles,
    the parameters and the parameter-only definitions of `model`, such that
    sum(sign * term) == rate_scale * X(G) identically.
    """

    model: str
    kind: str
    x0: tuple
    rate_scale: str
    G: str
    terms: tuple


@dataclass(frozen=True)
class _SystemRow:
    """A catalog system: its parameter specs, and its charts by name, the first the default."""

    description: str
    params: tuple
    charts: dict
    noise: bool = False


_MASS = ParameterSpec("m", 1.0, "> 0", _positive, "mass")
_KINETIC = ("kinetic", +1, "p * p / (2 * m)")
_POTENTIAL = ("potential", -1, "mw2 * (q * q) / 2")
_DAMPED_H = _ChartRow("damped_oscillator.h", "hamiltonian", (0.0, 1.0, 0.0), "0.5", "q * p",
                      (_KINETIC, _POTENTIAL, ("friction_qp", -1, "gamma * q * p / 2")))
_VELOCITY_KINETIC = ("kinetic", +1, "m * (v * v) / 2")
# both Gierer-Meinhardt layouts end in (x, y), the roles (q, p)
_ACTIVATOR_INHIBITOR = (("saturation", +1, "p / (B + p)"),
                        ("self_activation", +1, "(D / A) * (q * q)"),
                        ("cross_decay", -1, "((C + K) / A) * q * p"))

# the catalog, one row per system
_SYSTEMS = {
    "damped_oscillator": _SystemRow(
        "linear oscillator with velocity-proportional friction",
        (_MASS,
         ParameterSpec("omega", 1.0, "> 0", _positive, "natural frequency"),
         ParameterSpec("gamma", 0.1, "> 0", _positive, "damping rate")), {
            "hamiltonian": _DAMPED_H,
            "lagrangian": _ChartRow(
                "damped_oscillator.L", "lagrangian", (1.0, 0.0, 0.0), "0.5", "m * v * q",
                (_VELOCITY_KINETIC, _POTENTIAL,
                 ("friction_qqdot", -1, "m * gamma * q * v / 2"))),
        }),
    "parachute": _SystemRow(
        "vertical fall against quadratic drag (terminal velocity sqrt(g/lam))",
        (_MASS,
         ParameterSpec("g", 10.0, "> 0", _positive, "gravitational acceleration"),
         ParameterSpec("lam", 0.5, "> 0", _positive, "drag coefficient")), {
            "hamiltonian": _ChartRow(
                "parachute.h", "hamiltonian", (0.0, 0.0, 0.0), "1.0", "q * p",
                (("p_velocity", +1, "p * ((p - 2 * lam * s) / m)"),
                 ("gravity_gradient", -1, "m * g * q * exp(2 * lam * q)"),
                 ("drag_coupling", +1, "2 * lam * q * p * ((p - 2 * lam * s) / m)"))),
            "lagrangian": _ChartRow(
                "parachute.L", "lagrangian", (0.0, 0.0, 0.0), "0.5", "m * v * q",
                (_VELOCITY_KINETIC, ("gravity", -1, "m * g * q / 2"),
                 ("drag", +1, "m * lam * q * (v * v) / 2"))),
        }),
    "forced_oscillator": _SystemRow(
        "damped oscillator under periodic forcing, on the extended space",
        (_MASS,
         ParameterSpec("omega", 1.0, "> 0", _positive, "natural frequency"),
         ParameterSpec("gamma", 0.1, "> 0", _positive, "damping rate"),
         ParameterSpec("F0", 1.0, ">= 0", _nonnegative, "forcing amplitude"),
         ParameterSpec("Omega", 2.0, "> 0", _positive, "forcing frequency")), {
            "extended": _ChartRow(
                "forced_oscillator.h", "extended", (0.0, 0.0, 1.0, 0.0), "0.5", "q * p",
                (_KINETIC, _POTENTIAL,
                 ("drive_friction", +1, "q * (F0 * cos(Omega * t) - gamma * p) / 2"))),
        }),
    "brownian_oscillator": _SystemRow(
        "harmonically trapped particle in a thermal bath (Langevin)",
        (_MASS,
         ParameterSpec("omega", 1.0, "> 0", _positive, "trap frequency"),
         ParameterSpec("gamma", 0.5, "> 0", _positive, "friction rate"),
         ParameterSpec("k_BT", 1.0, ">= 0", _nonnegative, "thermal energy")), {
            # the thermal force's share, q*eta/2, is the realized Ito integral
            # of q dW; ensemble reports add it from the stepper
            "hamiltonian": replace(
                _DAMPED_H, model="brownian_oscillator.h",
                terms=(_KINETIC, _POTENTIAL, ("drive_friction", +1, "-gamma * q * p / 2"))),
        }, noise=True),
    "gierer_meinhardt": _SystemRow(
        "activator-inhibitor kinetics as a contact flow over its planar conformal projection",
        (ParameterSpec("A", 1.0, "finite, != 0", lambda v: _finite(v) and v != 0,
                       "activation strength"),
         ParameterSpec("B", 1.0, "finite (domain needs B + y > 0)", _finite,
                       "saturation offset"),
         ParameterSpec("C", 1.0, "finite", _finite, "cross-coupling"),
         ParameterSpec("D", 1.0, "finite", _finite, "self-activation"),
         ParameterSpec("K", 1.0, "finite", _finite, "inhibitor decay")), {
            "contact": _ChartRow("gierer_meinhardt.h", "contact", (0.0, 0.2, 0.2), "1.0 / A",
                                 "q * p", _ACTIVATOR_INHIBITOR),
            "planar": _ChartRow("gierer_meinhardt.h", "planar-conformal", (0.2, 0.2), "1.0 / A",
                                "q * p", _ACTIVATOR_INHIBITOR),
        }),
}

SYSTEM_NAMES = tuple(_SYSTEMS)

def _split_definitions(model: _Model, params: dict) -> tuple[dict, dict]:
    """The parameters and the model's parameter-only definitions, by value, and
    each other definition as (expression, the names it reads)."""
    constants = dict(params)
    defs = {}
    for key, expr in model.defs.items():
        names = names_read(expr)
        if names <= MATH.keys() | constants.keys():
            constants[key] = eval(expr, {**MATH, **constants})
        else:
            defs[key] = (expr, names)
    return constants, defs


def _function(name: str, args: str, lines, result: str) -> list:
    """The source of a generated function: `lines`, then the return of `result`."""
    return [f"def {name}({args}):", *(f"    {line}" for line in lines), f"    return {result}"]


def _compile(name: str, params: dict, rows: dict) -> tuple:
    """The evaluator bundle of model `name` at `params`, and the Chart of each row of `rows`.

    The model's definitions are split once, and each chart gets one form
    (`StraightLine`) from its row.  Three sources are rendered from the
    forms and run: the bundle and every chart's rhs, over math's functions,
    and every chart's G and terms, over numpy's, so that these evaluate on
    floats and on equal-shape column arrays alike.  Each function unpacks
    its point or state into the roles, checks the domain and evaluates, in
    order, only the definitions its result reads (the form's `statements`);
    G and the terms read no definition and check no domain.  The constants
    are folded into the rhs, the code that is stepped, through the `ast`
    pass of `exec_generated`; the bundle, which the build oracle and the
    generic fields call, and the balance read them as globals and are
    compiled straight from their text.  An rhs maps a tuple of floats to a
    tuple of floats and carries its chart's form as `rhs.straight_line`,
    which `integrate_fixed` inlines into its RK4 loop.
    """
    model = _MODELS[name]
    kind = _KINDS[model.kind]
    constants, defs = _split_definitions(model, params)
    forms = [StraightLine(name=f"{name}/{row.kind}", roles=_KINDS[row.kind].roles,
                          defs=defs, domain=model.domain, field=_KINDS[row.kind].field,
                          terms=tuple(term for _, _, term in row.terms), G=row.G,
                          constants=constants)
             for row in rows.values()]
    bundle_source, field_source, balance_source = [], [], []
    unpack = f"{', '.join(kind.roles)} = {kind.unpack}"
    for fname, result in kind.returns.items():
        lines = forms[0].statements((result,), kind.roles)  # the model's defs and domain
        bundle_source += _function(fname, "x", [unpack, *lines],
                                   f"array({result})" if result[0] == "[" else result)
    for i, form in enumerate(forms):
        args = ", ".join(form.roles)
        field_source += _function(f"rhs{i}", "_t, _y",
                                  [f"{args} = _y", *form.statements(form.field)],
                                  f"({', '.join(form.field)})")
        balance_source += _function(f"G{i}", args, (), form.G)
        for k, term in enumerate(form.terms):
            balance_source += _function(f"term{i}_{k}", args, (), term)
    functions = {**MATH, "array": np.array, "DomainError": DomainError}
    evaluators = exec_generated("\n".join(bundle_source) + "\n", f"<{name} evaluators>",
                                {**functions, **constants})
    fields = exec_generated("\n".join(field_source) + "\n", f"<{name}>", dict(functions),
                            constants)
    balances = exec_generated("\n".join(balance_source) + "\n", f"<{name} balance>",
                              {**NUMPY, **constants})
    charts = {}
    for i, (chart, row) in enumerate(rows.items()):
        fields[f"rhs{i}"].straight_line = forms[i]
        terms = [VirialTermBinding(term, sign, balances[f"term{i}_{k}"])
                 for k, (term, sign, _) in enumerate(row.terms)]
        charts[chart] = Chart(layout=_KINDS[row.kind].layout, x0=row.x0,
                              rhs=fields[f"rhs{i}"], terms=terms, G=balances[f"G{i}"],
                              rate_scale=eval(row.rate_scale, {**MATH, **constants}),
                              form=forms[i])
    bundle = globals()[kind.bundle](n=1, name=name,
                                    **{fname: evaluators[fname] for fname in kind.returns})
    return bundle, charts


def _build_system(name: str, params: dict) -> SystemSpec:
    """Catalog system `name` at `params` (not validated), from its row of `_SYSTEMS`.

    Each model is compiled once, with the charts of every row it drives.
    """
    system = _SYSTEMS[name]
    models, charts = {}, {}
    for model in dict.fromkeys(row.model for row in system.charts.values()):
        rows = {c: row for c, row in system.charts.items() if row.model == model}
        models[_MODELS[model].kind], built = _compile(model, params, rows)
        charts.update(built)
    noise = None
    if system.noise:
        noise = NoiseSpec(m=params["m"], gamma=params["gamma"], k_BT=params["k_BT"], seed=0)
    return SystemSpec(name=name, params=params, charts={c: charts[c] for c in system.charts},
                      default_chart=next(iter(system.charts)), noise=noise,
                      description=system.description, **models)


def _build(name: str, params: dict) -> tuple[SystemSpec, list]:
    """Validate parameters, build the system and run the partials oracle.

    Returns the spec and its `_partials_reports`, which make_system turns
    into a ParameterError and gradcheck prints.  A system that cannot be
    built at valid parameters (say, an overflow of m * omega**2) raises
    ParameterError naming it.  numpy's floating-point warnings are
    silenced: at extreme parameters a model overflows to inf or nan, which
    fails the oracle by itself.
    """
    values = _validate_params(name, params)
    with np.errstate(all="ignore"):
        try:
            spec = _build_system(name, values)
        except (ArithmeticError, ValueError) as exc:
            raise ParameterError(
                f"system '{name}' cannot be built from {values}: {exc}"
            ) from exc
        return spec, _partials_reports(spec)


def make_system(name: str, **params) -> SystemSpec:
    """Build a catalog system, validating parameters against its schema.

    Unknown parameter names are rejected; constraint violations raise
    ParameterError with the offending value and its constraint, as do
    parameters at which the analytic partials fail the finite-difference
    oracle or the terms miss the flow rate of G.  The returned spec is
    immutable and safe to share.
    """
    spec, reports = _build(name, params)
    for label, report in reports:
        if not report.passed:
            bad = ", ".join(c.label for c in report.failures())
            notes = "; ".join(dict.fromkeys(c.note for c in report.failures() if c.note))
            raise ParameterError(
                f"analytic partials of {label} failed the finite-difference oracle ({bad})"
                + (f": {notes}" if notes else "")
            )
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

    The contact Hamiltonian's partials do not involve z, so the contact
    field's (x, y) rows form a planar field of their own, and the planar
    chart's rhs is those rows compiled from the same model.  This evaluates
    both routes (the planar chart's compiled rhs vs the generic
    Darboux-chart field of the model) and reports the max |difference|,
    along with the z equation's right-hand side at the point.

    Raises DomainError when y <= -B.
    """
    if spec.name != "gierer_meinhardt":
        raise ParameterError("projection check applies to 'gierer_meinhardt' only")
    x, yv, z = (float(v) for v in point)
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
    """Max deviation of the contact chart's z rate from the generic field's along samples.

    Two routes to dz/dt = y H_y - H -- the generic Darboux-chart field of
    the model and the contact chart's compiled rhs -- evaluated at every
    recorded sample of a contact-chart trajectory.
    """
    if spec.name != "gierer_meinhardt":
        raise ParameterError("z-equation residual applies to 'gierer_meinhardt' only")
    rhs = spec.chart("contact").rhs
    worst = 0.0
    for row in traj.states:
        z, x, yv = row
        v = contact_vector_field(spec.hamiltonian, DarbouxPoint(s=z, q=[x], p=[yv]))
        worst = max(worst, abs(v.ds - rhs(0.0, tuple(row))[0]))
    return worst
