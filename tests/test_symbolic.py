"""Symbolic proofs over the catalog's statements: every model's partials are
derivatives of its value, and every chart's stated balance is the scaled flow
rate of its G."""

import pytest
import sympy

from contactdyn.systems import _FIELDS, _MODEL_KINDS, _MODELS, _SYSTEMS

# each stated partial of a model kind, as (what it differentiates, along which role)
_DERIVATIVES = {
    "hamiltonian": {"H_s": ("H", "s"), "H_q": ("H", "q"), "H_p": ("H", "p")},
    "extended": {"H_t": ("H", "t"), "H_s": ("H", "s"), "H_q": ("H", "q"), "H_p": ("H", "p")},
    "lagrangian": {"L_q": ("L", "q"), "L_v": ("L", "v"), "L_s": ("L", "s"),
                   "W": ("L_v", "v"), "L_qv": ("L_v", "q"), "L_sv": ("L_v", "s")},
}
_FUNCTIONS = {"exp": sympy.exp, "log": sympy.log, "cos": sympy.cos, "sin": sympy.sin}


def _expression(text, known):
    """`text` as a sympy expression.

    A name in `known` stands for its expression, a function name for sympy's
    function, and any other name for a plain Symbol, so a parameter such as
    gamma is never sympy's function of that name.
    """
    names = compile(text, "<expression>", "eval").co_names
    scope = {n: known[n] if n in known else _FUNCTIONS.get(n, sympy.Symbol(n)) for n in names}
    return sympy.sympify(eval(text, {"__builtins__": {}}, scope))


def _symbolic(defs):
    """Every definition as a sympy expression over the roles and parameters."""
    out = {}
    for key, text in defs.items():
        out[key] = _expression(text, out)
    return out


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_stated_partials_are_derivatives_of_the_value(name):
    model = _MODELS[name]
    exprs = _symbolic(model.defs)
    roles = _MODEL_KINDS[model.kind][0].split(", ")
    for partial, (of, role) in _DERIVATIVES[model.kind].items():
        assert role in roles
        derivative = sympy.diff(exprs[of], sympy.Symbol(role))
        assert sympy.simplify(derivative - exprs[partial]) == 0, (name, partial)


@pytest.mark.parametrize("system, chart", [(system, chart) for system, row in _SYSTEMS.items()
                                           for chart in row.charts])
def test_stated_balance_is_the_scaled_rate_of_G(system, chart):
    # sum(sign * term) == rate_scale * X(G), X the chart kind's field of the model
    row = _SYSTEMS[system].charts[chart]
    roles, field = _FIELDS[row.kind]
    model = _symbolic(_MODELS[row.model].defs)
    G, rate_scale, *components = (_expression(text, model)
                                  for text in (row.G, row.rate_scale, *field))
    rate = sum(sympy.diff(G, sympy.Symbol(role)) * component
               for role, component in zip(roles.split(", "), components))
    balance = sum(sign * _expression(term, model) for _, sign, term in row.terms)
    difference = sympy.nsimplify(balance - rate_scale * rate, rational=True)
    assert sympy.simplify(difference) == 0, (system, chart)
