"""Symbolic proofs over the catalog's statements: every model's partials are
derivatives of its value, every chart's stated balance is the scaled flow
rate of its G, every contact model's field moves G = q.p at the contact
virial rate {G, H} - G H_s and H at H_t - H H_s, and every contact field
contracts volume at its divergence -(n+1) H_s.  The fields are those that
the chart-kind table `_KINDS` states."""

import pytest
import sympy

from contactdyn.systems import _KINDS, _MODELS, _SYSTEMS

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
    roles = _KINDS[model.kind].roles
    for partial, (of, role) in _DERIVATIVES[model.kind].items():
        assert role in roles
        derivative = sympy.diff(exprs[of], sympy.Symbol(role))
        assert sympy.simplify(derivative - exprs[partial]) == 0, (name, partial)


def _field(kind, model):
    """The field of chart kind `kind` for `model`, as (role symbol, component) pairs."""
    return [(sympy.Symbol(role), _expression(component, model))
            for role, component in zip(_KINDS[kind].roles, _KINDS[kind].field)]


def _rate(f, kind, model):
    """The rate of f along the field of chart kind `kind`: the chain rule over its roles."""
    return sum(sympy.diff(f, role) * component for role, component in _field(kind, model))


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


# the charts whose field is the contact field of a model, on the Darboux or the
# extended chart, each with one degree of freedom
_CONTACT_CHARTS = [(system, chart) for system, row in _SYSTEMS.items()
                   for chart, c in row.charts.items()
                   if c.kind in ("hamiltonian", "contact", "extended")]


def field_trace_difference(system, chart):
    """The trace of the chart's field Jacobian minus -(n+1) H_s, n = 1, simplified.

    The field is the chart kind's, with the stated partials in place, so 0
    proves the divergence of the contact field for every state.
    """
    row = _SYSTEMS[system].charts[chart]
    model = _symbolic(_MODELS[row.model].defs)
    trace = sum(sympy.diff(component, role) for role, component in _field(row.kind, model))
    return sympy.simplify(sympy.nsimplify(trace + 2 * model["H_s"], rational=True))


@pytest.mark.parametrize("system, chart", _CONTACT_CHARTS)
def test_contact_field_trace_is_minus_two_H_s(system, chart):
    assert field_trace_difference(system, chart) == 0, (system, chart)


def test_planar_field_is_the_contact_fields_q_and_p_rows_which_read_no_s():
    # the activator-inhibitor model's contact field projects to the plane:
    # its q and p rows read no s, and they are the planar chart's field
    model = _symbolic(_MODELS["gierer_meinhardt.h"].defs)
    contact = dict(_field("contact", model))
    rows = [contact[sympy.Symbol(role)] for role in ("q", "p")]
    assert all(sympy.Symbol("s") not in row.free_symbols for row in rows)
    planar = [component for _, component in _field("planar-conformal", model)]
    assert [sympy.simplify(a - b) for a, b in zip(rows, planar)] == [0, 0]
