"""Symbolic proofs over the catalog's statements: every model's partials are
derivatives of its value, every chart's stated balance is the scaled flow
rate of its G, and every contact model's field moves G = q.p at the contact
virial rate {G, H} - G H_s and H at H_t - H H_s."""

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


def _rate(f, kind, model):
    """The rate of f along the field of chart kind `kind`: the chain rule over its roles."""
    roles, field = _FIELDS[kind]
    return sum(sympy.diff(f, sympy.Symbol(role)) * _expression(component, model)
               for role, component in zip(roles.split(", "), field))


@pytest.mark.parametrize("system, chart", [(system, chart) for system, row in _SYSTEMS.items()
                                           for chart in row.charts])
def test_stated_balance_is_the_scaled_rate_of_G(system, chart):
    # sum(sign * term) == rate_scale * X(G), X the chart kind's field of the model
    row = _SYSTEMS[system].charts[chart]
    model = _symbolic(_MODELS[row.model].defs)
    G, rate_scale = (_expression(text, model) for text in (row.G, row.rate_scale))
    balance = sum(sign * _expression(term, model) for _, sign, term in row.terms)
    difference = sympy.nsimplify(balance - rate_scale * _rate(G, row.kind, model), rational=True)
    assert sympy.simplify(difference) == 0, (system, chart)


# the models whose field is the contact field, on the Darboux or the extended chart
_CONTACT_MODELS = sorted(name for name, model in _MODELS.items()
                         if model.kind in ("hamiltonian", "extended"))


def contact_rate_differences(name):
    """The two rate identities of model `name`'s contact field, each as rate minus claim.

    Rates are the chain rule along the field of the model's chart kind, whose
    components are built from the stated partials: (a) the rate of the
    virial G = q.p minus the contact virial form (G_q H_p - G_p H_q) - G H_s,
    the Poisson bracket {G, H} when H_s = 0; (b) the rate of H minus
    H_t - H H_s, with H_t = 0 for an autonomous model.  Both simplify to 0,
    for every state, exactly when the identities hold.
    """
    kind = _MODELS[name].kind
    model = _symbolic(_MODELS[name].defs)
    q, p = sympy.symbols("q p")
    G = q * p
    H, H_q, H_p, H_s = (model[key] for key in ("H", "H_q", "H_p", "H_s"))
    bracket = sympy.diff(G, q) * H_p - sympy.diff(G, p) * H_q
    differences = (_rate(G, kind, model) - (bracket - G * H_s),
                   _rate(H, kind, model) - (model.get("H_t", 0) - H * H_s))
    return tuple(sympy.simplify(sympy.nsimplify(d, rational=True)) for d in differences)


@pytest.mark.parametrize("name", _CONTACT_MODELS)
def test_contact_virial_form_and_hamiltonian_rate(name):
    virial, energy = contact_rate_differences(name)
    assert virial == 0, (name, virial)
    assert energy == 0, (name, energy)
