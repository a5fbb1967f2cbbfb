"""Explicitly time-dependent contact dynamics on the extended space.

A time-dependent Hamiltonian lives on M x R with coordinates (t, s, q, p).
Its evolution field is d/dt stacked on the contact Hamiltonian field of the
frozen-time snapshot h(t, .), so trajectories carry t along with dt/dtau = 1.
The one-form h dt + ds - p_i dq^i that motivates this construction is never
materialized here; its contraction identities are exercised by the test
suite on the assembled field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DarbouxPoint,
    NonFiniteError,
    PartialsReport,
    ScalarField,
    _as_vector,
    _check_dim,
    _components,
    _darboux,
    _difference_checks,
    _flat,
    contact_vector_field,
)

__all__ = [
    "ExtendedPoint",
    "ExtendedTangent",
    "TimeDependentHamiltonianModel",
    "frozen_time",
    "lift_autonomous",
    "evolution_field",
    "check_partials_extended",
]


@dataclass(frozen=True)
class ExtendedPoint:
    """A state (t, s, q, p): time plus a point of the contact phase space."""

    t: float
    base: DarbouxPoint

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t):
            raise NonFiniteError("ExtendedPoint time must be finite")

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class ExtendedTangent:
    """Components (dt, ds, dq, dp) of a tangent vector on the extended space."""

    dt: float
    ds: float
    dq: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "ds", float(self.ds))
        object.__setattr__(self, "dq", _as_vector(self.dq, "dq"))
        object.__setattr__(self, "dp", _as_vector(self.dp, "dp"))

    @property
    def n(self) -> int:
        return self.dq.size


@dataclass(frozen=True)
class TimeDependentHamiltonianModel:
    """Evaluator bundle for h(t, s, q, p) with analytic first partials.

    Same contract as :class:`~contactdyn.core.ScalarField` plus a partial in
    t.  All callables take an :class:`ExtendedPoint`.
    """

    n: int
    value: Callable[[ExtendedPoint], float]
    d_t: Callable[[ExtendedPoint], float]
    d_s: Callable[[ExtendedPoint], float]
    d_q: Callable[[ExtendedPoint], np.ndarray]
    d_p: Callable[[ExtendedPoint], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1 degrees of freedom")


def frozen_time(h: TimeDependentHamiltonianModel, t: float) -> ScalarField:
    """Autonomous snapshot of h at fixed time t.

    The returned field closes over t; evaluating it at a DarbouxPoint x
    calls the underlying model at ExtendedPoint(t, x).
    """
    return ScalarField(
        n=h.n,
        value=lambda x: h.value(ExtendedPoint(t, x)),
        d_s=lambda x: h.d_s(ExtendedPoint(t, x)),
        d_q=lambda x: h.d_q(ExtendedPoint(t, x)),
        d_p=lambda x: h.d_p(ExtendedPoint(t, x)),
        name=h.name,
    )


def lift_autonomous(h: ScalarField) -> TimeDependentHamiltonianModel:
    """View an autonomous Hamiltonian on the extended space (d/dt == 0)."""
    return TimeDependentHamiltonianModel(
        n=h.n,
        value=lambda y: h.value(y.base),
        d_t=lambda y: 0.0,
        d_s=lambda y: h.d_s(y.base),
        d_q=lambda y: h.d_q(y.base),
        d_p=lambda y: h.d_p(y.base),
        name=h.name,
    )


def evolution_field(h: TimeDependentHamiltonianModel, y: ExtendedPoint) -> ExtendedTangent:
    """Evaluate the time-dependent evolution field at y.

    The dt component is exactly 1; the (ds, dq, dp) components are the
    contact Hamiltonian field of the frozen-time snapshot h(y.t, .)
    evaluated at y.base.  When h has no genuine time dependence these
    components are bit-identical to `contact_vector_field` on the
    autonomous model.

    Raises
    ------
    DimensionMismatchError, NonFiniteError
        As in `contact_vector_field`.
    """
    v = contact_vector_field(frozen_time(h, y.t), y.base)
    return ExtendedTangent(dt=1.0, ds=v.ds, dq=v.dq, dp=v.dp)


def check_partials_extended(
    model: TimeDependentHamiltonianModel, y: ExtendedPoint, step: float = 1e-5
) -> PartialsReport:
    """Central-difference oracle for a time-dependent model, t included.

    The partials in (t, s, q, p) are checked over the same flat coordinates,
    step rule and pass rule (relative 1e-6, absolute 1e-9 or roundoff) as
    `contactdyn.core.check_partials`, so the verdicts agree across charts.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _check_dim(model, y)
    wanted = [
        ("t", 0, lambda: model.d_t(y)),
        ("s", 1, lambda: model.d_s(y)),
        *_components("q", 2, model.d_q, y),
        *_components("p", 2 + y.n, model.d_p, y),
    ]
    checks = _difference_checks(
        lambda v: model.value(ExtendedPoint(v[0], _darboux(v[1:]))),
        [y.t, *_flat(y.base)], wanted, step,
    )
    return PartialsReport(name=model.name, checks=tuple(checks))
