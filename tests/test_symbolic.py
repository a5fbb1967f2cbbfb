"""Symbolic proof that every stated catalog model's partials are derivatives of its value."""

import pytest
import sympy

from contactdyn.systems import _MODEL_KINDS, _MODELS

# each stated partial of a model kind, as (what it differentiates, along which role)
_DERIVATIVES = {
    "hamiltonian": {"H_s": ("H", "s"), "H_q": ("H", "q"), "H_p": ("H", "p")},
    "extended": {"H_t": ("H", "t"), "H_s": ("H", "s"), "H_q": ("H", "q"), "H_p": ("H", "p")},
    "lagrangian": {"L_q": ("L", "q"), "L_v": ("L", "v"), "L_s": ("L", "s"),
                   "W": ("L_v", "v"), "L_qv": ("L_v", "q"), "L_sv": ("L_v", "s")},
}
_FUNCTIONS = {"exp": sympy.exp, "log": sympy.log, "cos": sympy.cos, "sin": sympy.sin}


def _symbolic(defs):
    """Every definition as a sympy expression, roles and parameters as symbols.

    Each name that is neither a function nor an earlier definition becomes a
    plain Symbol, so a parameter such as gamma is never sympy's function of
    that name.
    """
    out = {}
    for key, text in defs.items():
        names = compile(text, key, "eval").co_names
        scope = {n: out[n] if n in out else _FUNCTIONS.get(n, sympy.Symbol(n)) for n in names}
        out[key] = sympy.sympify(eval(text, {"__builtins__": {}}, scope))
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
