"""Shared test helpers: catalog systems at explicit parameters, small analytic
models and random polynomial observables."""

from __future__ import annotations

import numpy as np

from contactdyn.core import DarbouxPoint, ScalarField
from contactdyn.systems import Chart, SystemSpec, VirialTermBinding, _build_system, make_system

DAMPED = make_system("damped_oscillator", m=1.0, omega=1.0, gamma=0.1)
PARACHUTE = make_system("parachute", m=1.0, g=10.0, lam=0.5)
FORCED = make_system("forced_oscillator", m=1.0, omega=1.0, gamma=0.1, F0=1.0, Omega=2.0)
# the conservative limit gamma = 0 lies outside the schema (gamma > 0), so the
# catalog's own builder makes it, past make_system's validation
UNDAMPED = _build_system("damped_oscillator", {"m": 1.0, "omega": 1.0, "gamma": 0.0})


def observing_system(layout, G, **terms) -> SystemSpec:
    """A system of one chart on `layout` whose terms (each of sign +1) and G are the given
    functions of the state's components, as a custom balance is built in README."""
    chart = Chart(layout=layout, x0=np.zeros(len(layout)), rhs=None,
                  terms=[VirialTermBinding(name, +1, f) for name, f in terms.items()], G=G)
    return SystemSpec(name="custom", params={}, charts={"custom": chart},
                      default_chart="custom")


def free_particle_h(m=1.0) -> ScalarField:
    return ScalarField(
        n=1,
        value=lambda x: x.p[0] ** 2 / (2 * m),
        d_s=lambda x: 0.0,
        d_q=lambda x: np.zeros(1),
        d_p=lambda x: np.array([x.p[0] / m]),
        name="free_particle",
    )


def random_quadratic_observable(rng: np.random.Generator, n: int, name="poly") -> ScalarField:
    """Random quadratic polynomial in (s, q, p) with exact analytic partials."""
    dim = 1 + 2 * n  # coordinate order: s, q, p
    lin = rng.normal(size=dim)
    quad = rng.normal(size=(dim, dim))
    quad = 0.5 * (quad + quad.T)
    c0 = rng.normal()

    def coords(x: DarbouxPoint) -> np.ndarray:
        return np.concatenate(([x.s], x.q, x.p))

    def value(x: DarbouxPoint) -> float:
        z = coords(x)
        return float(c0 + lin @ z + z @ quad @ z)

    def grad(x: DarbouxPoint) -> np.ndarray:
        z = coords(x)
        return lin + 2.0 * (quad @ z)

    return ScalarField(
        n=n,
        value=value,
        d_s=lambda x: float(grad(x)[0]),
        d_q=lambda x: grad(x)[1 : 1 + n],
        d_p=lambda x: grad(x)[1 + n :],
        name=name,
    )


def random_point(rng: np.random.Generator, n: int, scale=2.0) -> DarbouxPoint:
    return DarbouxPoint(
        s=float(rng.uniform(-scale, scale)),
        q=rng.uniform(-scale, scale, size=n),
        p=rng.uniform(-scale, scale, size=n),
    )
