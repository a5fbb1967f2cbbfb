"""Catalog of built-in dissipative systems with validated parameters.

Each model (Darboux-chart Hamiltonian, velocity-chart Lagrangian, extended
time-dependent Hamiltonian) is stated once in `_MODELS`, and each system is
one row of `_SYSTEMS`: per chart, the model it runs, its chart kind, its
default state and its stated virial balance -- the observable G, the signed
terms and rate_scale, as expressions beside the model over the chart's roles,
the parameters and the model's parameter-only definitions.  One compiler
turns the statements into the evaluator bundle the oracle checks, every
chart's rhs, and every term and G as a plain function of the state's
components in layout order, ``value(*y)``, over numpy's functions, so the
same code evaluates on floats and on equal-shape column arrays.  The
Brownian oscillator is the damped oscillator's Hamiltonian chart and model
with its own drive_friction term; its rhs is the drift, and its NoiseSpec
adds the thermal force.  At construction the analytic partials are run
through the finite-difference oracle at each chart's default state, and the
terms are checked against the flow rate of G, so a catalog system cannot be
built with a wrong gradient or term.

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

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

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
from .integrate import NoiseSpec, StraightLine, Trajectory, exec_generated

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


def _nonnegative_integer(v):
    return v >= 0 and float(v).is_integer()


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
        ParameterSpec("seed", 0.0, "non-negative integer", _nonnegative_integer,
                      "noise stream seed"),
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

    rhs(t, y) is the field the steppers advance, compiled from the system's
    model: it takes the state as a tuple of floats in `layout` order and
    returns the derivatives as a tuple of floats; a stochastic chart's rhs
    is its drift, which also evaluates on per-member arrays.  terms, G and
    rate_scale are everything a report needs: G(*y), like each term's
    value(*y), takes the state's components in layout order and evaluates on
    floats and on column arrays alike, and sum(sign*term) == rate_scale *
    X(G) holds identically, so the signed term sum over rate_scale is the
    flow rate X(G).  make_system checks that identity for every chart.
    """

    kind: str
    layout: tuple
    x0: np.ndarray
    rhs: Callable[[float, tuple], tuple]
    terms: tuple
    G: Callable[..., float]
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


def _partials_reports(spec: SystemSpec) -> list:
    """(label, PartialsReport) pairs for every analytic model of a spec.

    Each model is probed at the default state of the chart it drives.
    """
    out = []
    for chart in spec.charts.values():
        x0 = chart.x0
        if chart.kind in ("hamiltonian", "contact") and spec.hamiltonian is not None:
            x = DarbouxPoint(s=x0[0], q=x0[1:2], p=x0[2:3])
            out.append((spec.hamiltonian.name, check_partials(spec.hamiltonian, x)))
        elif chart.kind == "lagrangian" and spec.lagrangian is not None:
            z = LagrangianPoint(q=x0[0:1], qdot=x0[1:2], s=x0[2])
            out.append((spec.lagrangian.name,
                        check_lagrangian_partials(spec.lagrangian, z)))
        elif chart.kind == "extended" and spec.extended is not None:
            # probe away from t = 0 so the drive's time derivative is non-trivial
            y = ExtendedPoint(t=0.3, base=DarbouxPoint(s=x0[1], q=x0[2:3], p=x0[3:4]))
            out.append((spec.extended.name,
                        check_partials_extended(spec.extended, y)))
    return out


def _check_term_sum(system: str, chart_name: str, chart: Chart) -> None:
    """Check sum(sign * term) == rate_scale * dG/dt at one probe state.

    The probe is x0 plus small positive offsets: generic (at x0, p = 0 and
    the kinetic and friction terms vanish) and inside the chart's domain
    wherever x0 is.  dG/dt is the central difference of G along the chart's
    rhs, exact up to rounding for the bilinear G of every catalog chart.
    """
    x = chart.x0 + 0.05 * np.arange(1, chart.x0.size + 1)
    y = x.tolist()
    where = f"terms of '{system}' chart '{chart_name}' at the probe state {y}"
    # a term in numpy scalars overflows to inf or nan, which fails the
    # comparison by itself, so numpy's warnings are silenced as in _build
    try:
        with np.errstate(all="ignore"):
            f = chart.rhs(0.0, tuple(y))
            eps = 1e-3 / max(1.0, *map(abs, f))
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


# per model kind: its roles, how a model point unpacks into them, and what
# each callable of its evaluator bundle returns ([...] becomes an array)
_MODEL_KINDS = {
    "hamiltonian": ("s, q, p", "x.s, x.q[0], x.p[0]",
                    {"value": "H", "d_s": "H_s", "d_q": "[H_q]", "d_p": "[H_p]"}),
    "extended": ("t, s, q, p", "x.t, x.base.s, x.base.q[0], x.base.p[0]",
                 {"value": "H", "d_t": "H_t", "d_s": "H_s", "d_q": "[H_q]", "d_p": "[H_p]"}),
    "lagrangian": ("q, v, s", "x.q[0], x.qdot[0], x.s",
                   {"value": "L", "d_s": "L_s", "d_q": "[L_q]", "d_qdot": "[L_v]",
                    "w": "[[W]]", "d2_q_qdot": "[[L_qv]]", "d2_s_qdot": "[L_sv]"}),
}
_CONTACT_FIELD = ("p * H_p - H", "H_p", "-(H_q + p * H_s)")
# per chart kind: the state's roles in layout order, and its field's components
_FIELDS = {
    "hamiltonian": ("s, q, p", _CONTACT_FIELD),
    "contact": ("s, q, p", _CONTACT_FIELD),
    "planar-conformal": ("q, p", _CONTACT_FIELD[1:]),  # for partials free of s
    "extended": ("t, s, q, p", ("1.0", *_CONTACT_FIELD)),
    "lagrangian": ("q, v, s", ("v", "(L_q - v * L_qv - L * L_sv + L_s * L_v) / W", "L")),
}
# per chart kind: the names its layout gives those roles
_LAYOUTS = {
    "hamiltonian": ("s", "q[0]", "p[0]"),
    "contact": ("z", "x", "y"),
    "planar-conformal": ("x", "y"),
    "extended": ("t", "s", "q[0]", "p[0]"),
    "lagrangian": ("q[0]", "qdot[0]", "s"),
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
    """A catalog system: its charts by name, the first being the default."""

    description: str
    charts: dict
    noise: bool = False


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
        "linear oscillator with velocity-proportional friction", {
            "hamiltonian": _DAMPED_H,
            "lagrangian": _ChartRow(
                "damped_oscillator.L", "lagrangian", (1.0, 0.0, 0.0), "0.5", "m * v * q",
                (_VELOCITY_KINETIC, _POTENTIAL,
                 ("friction_qqdot", -1, "m * gamma * q * v / 2"))),
        }),
    "parachute": _SystemRow(
        "vertical fall against quadratic drag (terminal velocity sqrt(g/lam))", {
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
        "damped oscillator under periodic forcing, on the extended space", {
            "extended": _ChartRow(
                "forced_oscillator.h", "extended", (0.0, 0.0, 1.0, 0.0), "0.5", "q * p",
                (_KINETIC, _POTENTIAL,
                 ("drive_friction", +1, "q * (F0 * cos(Omega * t) - gamma * p) / 2"))),
        }),
    "brownian_oscillator": _SystemRow(
        "harmonically trapped particle in a thermal bath (Langevin)", {
            # the thermal force's share, q*eta/2, is the realized Ito integral
            # of q dW; ensemble reports add it from the stepper
            "hamiltonian": replace(
                _DAMPED_H, model="brownian_oscillator.h",
                terms=(_KINETIC, _POTENTIAL, ("drive_friction", +1, "-gamma * q * p / 2"))),
        }, noise=True),
    "gierer_meinhardt": _SystemRow(
        "activator-inhibitor kinetics as a contact flow over its planar conformal projection", {
            "contact": _ChartRow("gierer_meinhardt.h", "contact", (0.0, 0.2, 0.2), "1.0 / A",
                                 "q * p", _ACTIVATOR_INHIBITOR),
            "planar": _ChartRow("gierer_meinhardt.h", "planar-conformal", (0.2, 0.2), "1.0 / A",
                                "q * p", _ACTIVATOR_INHIBITOR),
        }),
}

_MATH = {"exp": math.exp, "log": math.log, "cos": math.cos, "sin": math.sin}
_NUMPY = {"exp": np.exp, "log": np.log, "cos": np.cos, "sin": np.sin}


@functools.cache
def _code(expr: str):
    """`expr` compiled as an expression, once: the statements are fixed strings."""
    return compile(expr, "<statement>", "eval")


def _split_definitions(model: _Model, params: dict) -> tuple[dict, dict]:
    """The parameters and the model's parameter-only definitions, by value, and
    each other definition with the names it reads."""
    constants = dict(params)
    reads = {}
    for key, expr in model.defs.items():
        names = set(_code(expr).co_names)
        if names <= _MATH.keys() | constants.keys():
            constants[key] = eval(_code(expr), {**_MATH, **constants})
        else:
            reads[key] = names
    return constants, reads


def _compile(name: str, params: dict, *charts: str) -> tuple:
    """The evaluator bundle of model `name` at `params`, then the rhs of each chart kind.

    Each is one generated straight-line function that unpacks its point or
    state into the roles, checks the domain and evaluates, in order, only
    the definitions its result reads.  Parameters, and definitions over
    parameters alone, are constants in each rhs, the code that is stepped,
    through the `ast` pass of `exec_generated`; the bundle, which the build
    oracle and the generic fields call, reads them as globals and is
    compiled straight from its text.  An rhs maps a tuple of floats to a
    tuple of floats and carries its body as `rhs.straight_line`, which
    `integrate_fixed` inlines into its RK4 loop; as that loop's own names
    start with an underscore, a role or definition that does is refused.
    """
    model = _MODELS[name]
    roles, point, returns = _MODEL_KINDS[model.kind]
    reserved = [key for key in (*model.defs, *roles.split(", "),
                                *(r for c in charts for r in _FIELDS[c][0].split(", ")))
                if key.startswith("_")]
    if reserved:
        raise ValueError(f"model '{name}': names {reserved} start with '_', "
                         "which generated code reserves for its own names")
    functions = {**_MATH, "array": np.array, "DomainError": DomainError}
    constants, reads = _split_definitions(model, params)

    def body(unpacked, result):
        """The domain check and the definitions `result` reads, as statements."""
        needed = set().union(*(_code(e).co_names for e in result))
        for key in reversed(reads):  # a definition reads only earlier ones
            if key in needed:
                needed |= reads[key]
        lines = []
        if model.domain:
            lines += [f"if not ({model.domain}):",
                      f"    raise DomainError('state ({unpacked}) = %r violates "
                      f"{model.domain}' % (({unpacked},),))"]
        return lines + [f"{key} = {model.defs[key]}" for key in reads if key in needed]

    bundle_source = []
    for fname, result in returns.items():
        value = f"array({result})" if result[0] == "[" else result
        bundle_source += [f"def {fname}(x):", f"    {roles} = {point}",
                          *(f"    {line}" for line in body(roles, (result,))),
                          f"    return {value}"]
    evaluators = exec_generated("\n".join(bundle_source) + "\n", f"<{name} evaluators>",
                                {**functions, **constants})
    source, forms = [], []
    for i, chart in enumerate(charts):
        layout, field = _FIELDS[chart]
        forms.append(StraightLine(name=f"{name}/{chart}", roles=tuple(layout.split(", ")),
                                  lines=tuple(body(layout, field)), result=field,
                                  constants=constants, namespace=functions))
        source += [f"def field{i}(_t, _y):", f"    {layout} = _y",
                   *(f"    {line}" for line in forms[-1].lines),
                   f"    return ({', '.join(field)})"]
    fields = exec_generated("\n".join(source) + "\n", f"<{name}>", dict(functions),
                            constants)
    for i, form in enumerate(forms):
        fields[f"field{i}"].straight_line = form
    bundle = {"hamiltonian": ScalarField, "extended": TimeDependentHamiltonianModel,
              "lagrangian": LagrangianModel}[model.kind]
    return (bundle(n=1, name=name, **{fname: evaluators[fname] for fname in returns}),
            *(fields[f"field{i}"] for i in range(len(charts))))


def _compile_balance(row: _ChartRow, params: dict) -> dict:
    """The chart's terms, G and rate_scale, compiled from their statements in `row`.

    G and each term are one plain function of the roles in layout order
    over numpy's functions, so each evaluates on floats, on sample columns
    and on ensemble member arrays; the parameters and the model's
    parameter-only definitions are their globals.
    """
    roles = _FIELDS[row.kind][0]
    source = [f"_rate_scale = {row.rate_scale}", f"def _G({roles}):", f"    return {row.G}"]
    for i, (_, _, term) in enumerate(row.terms):
        source += [f"def _term{i}({roles}):", f"    return {term}"]
    constants, _ = _split_definitions(_MODELS[row.model], params)
    out = exec_generated("\n".join(source) + "\n", f"<{row.model}/{row.kind} balance>",
                         {**_NUMPY, **constants})
    terms = [VirialTermBinding(name, sign, out[f"_term{i}"])
             for i, (name, sign, _) in enumerate(row.terms)]
    return {"terms": terms, "G": out["_G"], "rate_scale": out["_rate_scale"]}


def _build_system(name: str, params: dict) -> SystemSpec:
    """Catalog system `name` at `params` (not validated), from its row of `_SYSTEMS`.

    Each model is compiled once, with the fields of every chart it drives,
    and each chart's balance from its own row.
    """
    system = _SYSTEMS[name]
    models, fields = {}, {}
    for model in dict.fromkeys(row.model for row in system.charts.values()):
        rows = {c: row for c, row in system.charts.items() if row.model == model}
        bundle, *rhs = _compile(model, params, *(row.kind for row in rows.values()))
        models[_MODELS[model].kind] = bundle
        fields.update(zip(rows, rhs))
    charts = {c: Chart(kind=row.kind, layout=_LAYOUTS[row.kind], x0=row.x0, rhs=fields[c],
                       **_compile_balance(row, params))
              for c, row in system.charts.items()}
    noise = None
    if system.noise:
        noise = NoiseSpec(m=params["m"], gamma=params["gamma"], k_BT=params["k_BT"],
                          seed=int(params["seed"]))
    return SystemSpec(name=name, params=params, charts=charts,
                      default_chart=next(iter(charts)), noise=noise,
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
            raise ParameterError(
                f"analytic partials of {label} failed the finite-difference oracle ({bad})"
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
