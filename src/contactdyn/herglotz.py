"""Action-dependent Lagrangian dynamics on the velocity chart (q, qdot, s).

A regular Lagrangian L(q, qdot, s) generates a flow whose integral curves
satisfy the generalized Euler-Lagrange equations with action feedback: the
s coordinate accumulates L along the motion and L may depend on it.  The
dynamics needs the inverse of the velocity Hessian W = d2L/dqdot dqdot, so
every evaluation is guarded by a reciprocal-condition estimate.

The Legendre map p = dL/dqdot carries states to the Darboux chart of
`contactdyn.core`, where the image of the energy function E_L is the
contact Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DarbouxPoint,
    DimensionMismatchError,
    NonFiniteError,
    PartialsReport,
    _as_vector,
    _check_dim,
    _checked,
    _finite,
    central_difference,
)

__all__ = [
    "LagrangianPoint",
    "LagrangianTangent",
    "LagrangianModel",
    "LagrangianObservable",
    "RegularityError",
    "RCOND_MIN",
    "energy_EL",
    "regularity_estimate",
    "lagrangian_field",
    "apply_lagrangian_field",
    "legendre_map",
    "check_lagrangian_partials",
]

# Reciprocal condition estimate of W below this is treated as singular.
RCOND_MIN = 1e-12


class RegularityError(ValueError):
    """The velocity Hessian W is numerically singular; the flow is undefined."""


@dataclass(frozen=True)
class LagrangianPoint:
    """A state (q, qdot, s) on the velocity chart."""

    q: np.ndarray
    qdot: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "qdot", _as_vector(self.qdot, "qdot"))
        object.__setattr__(self, "s", float(self.s))
        if self.q.shape != self.qdot.shape:
            raise DimensionMismatchError(
                f"q has length {self.q.size} but qdot has length {self.qdot.size}"
            )
        if not (
            math.isfinite(self.s)
            and np.isfinite(self.q).all()
            and np.isfinite(self.qdot).all()
        ):
            raise NonFiniteError("LagrangianPoint entries must be finite")

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class LagrangianTangent:
    """Components (ds, dq, dqdot) of a tangent vector on the velocity chart."""

    ds: float
    dq: np.ndarray
    dqdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ds", float(self.ds))
        object.__setattr__(self, "dq", _as_vector(self.dq, "dq"))
        object.__setattr__(self, "dqdot", _as_vector(self.dqdot, "dqdot"))

    @property
    def n(self) -> int:
        return self.dq.size


@dataclass(frozen=True)
class LagrangianModel:
    """Evaluator bundle for L(q, qdot, s) with analytic first and second partials.

    Attributes
    ----------
    n : int
        Degrees of freedom.
    value, d_s : callable
        LagrangianPoint -> float.
    d_q, d_qdot : callable
        LagrangianPoint -> ndarray (n,).
    w : callable
        LagrangianPoint -> ndarray (n, n); W[i, j] = d2L/dqdot_i dqdot_j.
        Must be symmetric and invertible wherever the flow is evaluated.
    d2_q_qdot : callable
        LagrangianPoint -> ndarray (n, n); entry [j, k] = d2L/dq_j dqdot_k.
    d2_s_qdot : callable
        LagrangianPoint -> ndarray (n,); entry [k] = d2L/ds dqdot_k.
    """

    n: int
    value: Callable[[LagrangianPoint], float]
    d_s: Callable[[LagrangianPoint], float]
    d_q: Callable[[LagrangianPoint], np.ndarray]
    d_qdot: Callable[[LagrangianPoint], np.ndarray]
    w: Callable[[LagrangianPoint], np.ndarray]
    d2_q_qdot: Callable[[LagrangianPoint], np.ndarray]
    d2_s_qdot: Callable[[LagrangianPoint], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1 degrees of freedom")


@dataclass(frozen=True)
class LagrangianObservable:
    """A scalar function of (q, qdot, s) with analytic first partials."""

    n: int
    value: Callable[[LagrangianPoint], float]
    d_s: Callable[[LagrangianPoint], float]
    d_q: Callable[[LagrangianPoint], np.ndarray]
    d_qdot: Callable[[LagrangianPoint], np.ndarray]
    name: str = ""


def energy_EL(L: LagrangianModel, z: LagrangianPoint) -> float:
    """Energy function qdot . dL/dqdot - L at z.

    Under the Legendre map its image is the contact Hamiltonian of the
    system, so this is the quantity whose flow derivative reproduces the
    non-conservation law of the Darboux chart.
    """
    _check_dim(L, z)
    lq = np.asarray(L.d_qdot(z), dtype=float)
    return _finite(float(z.qdot @ lq) - float(L.value(z)), "energy", L, z)


def regularity_estimate(L: LagrangianModel, z: LagrangianPoint) -> float:
    """Reciprocal condition estimate of W at z (smallest/largest singular value).

    1.0 for a well-conditioned (or any nonzero 1x1) Hessian, 0.0 for an
    exactly singular one.
    """
    _check_dim(L, z)
    W = np.asarray(L.w(z), dtype=float)
    if W.shape != (L.n, L.n):
        raise DimensionMismatchError(f"W must be ({L.n},{L.n}), got {W.shape}")
    if not np.isfinite(W).all():
        raise NonFiniteError(f"W of '{L.name}' is non-finite at {z}")
    if L.n == 1:
        return 1.0 if W[0, 0] != 0.0 else 0.0
    sv = np.linalg.svd(W, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0


def lagrangian_field(L: LagrangianModel, z: LagrangianPoint) -> LagrangianTangent:
    """Evaluate the dynamical field of a regular Lagrangian at z.

    Components:

        ds      = L(z)
        dq^i    = qdot^i
        dqdot^i = W^{ik} ( dL/dq^k - d2L/dq^j dqdot^k qdot^j
                           - L d2L/ds dqdot^k + dL/ds dL/dqdot^k )

    Integral curves solve the generalized Euler-Lagrange equations with
    action dependence.

    Raises
    ------
    RegularityError
        If the reciprocal condition estimate of W falls below RCOND_MIN.
    NonFiniteError, DimensionMismatchError
        As in the Darboux-chart evaluations.
    """
    _check_dim(L, z)
    rc = regularity_estimate(L, z)
    if rc < RCOND_MIN:
        raise RegularityError(
            f"velocity Hessian of '{L.name}' is singular at {z} "
            f"(reciprocal condition estimate {rc:.3e} < {RCOND_MIN:g})"
        )
    lval = _finite(L.value(z), "value", L, z)
    ls = _finite(L.d_s(z), "d_s", L, z)
    lq = np.asarray(L.d_q(z), dtype=float)
    lqd = np.asarray(L.d_qdot(z), dtype=float)
    mixed_q = np.asarray(L.d2_q_qdot(z), dtype=float)   # [j, k]
    mixed_s = np.asarray(L.d2_s_qdot(z), dtype=float)   # [k]
    rhs = lq - z.qdot @ mixed_q - lval * mixed_s + ls * lqd
    if not np.isfinite(rhs).all():
        raise NonFiniteError(f"field right-hand side of '{L.name}' is non-finite at {z}")
    W = np.asarray(L.w(z), dtype=float)
    if L.n == 1:
        dqdot = rhs / W[0, 0]
    else:
        dqdot = np.linalg.solve(W, rhs)
    if not np.isfinite(dqdot).all():
        raise NonFiniteError(f"acceleration of '{L.name}' is non-finite at {z}")
    return LagrangianTangent(ds=lval, dq=z.qdot.copy(), dqdot=dqdot)


def apply_lagrangian_field(
    L: LagrangianModel, f: LagrangianObservable, z: LagrangianPoint
) -> float:
    """Rate of change of the observable f along the Lagrangian flow at z."""
    _check_dim(L, z)
    _check_dim(f, z)
    v = lagrangian_field(L, z)
    return (
        _finite(f.d_s(z), "d_s", f, z) * v.ds
        + float(np.asarray(f.d_q(z), dtype=float) @ v.dq)
        + float(np.asarray(f.d_qdot(z), dtype=float) @ v.dqdot)
    )


def legendre_map(L: LagrangianModel, z: LagrangianPoint) -> DarbouxPoint:
    """Carry a velocity-chart state to the Darboux chart: p_i = dL/dqdot^i."""
    _check_dim(L, z)
    p = np.asarray(L.d_qdot(z), dtype=float)
    if not np.isfinite(p).all():
        raise NonFiniteError(f"Legendre momenta of '{L.name}' are non-finite at {z}")
    return DarbouxPoint(s=z.s, q=z.q.copy(), p=p)


def check_lagrangian_partials(
    L: LagrangianModel, z: LagrangianPoint, step: float = 1e-5
) -> PartialsReport:
    """Central-difference oracle for all first and second partials of L.

    First partials of the value and second partials (rows of W, mixed
    q-qdot and s-qdot blocks, differentiating the analytic d_qdot) are each
    compared under the shared rel-1e-6 / abs-1e-9 rule.  W asymmetry is
    reported as its own check (analytic W[i,j] against W[j,i]).

    First-order observables (no w / mixed-second-derivative callables) get
    the first-partial checks only.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _check_dim(L, z)
    checks = []

    def at(q=None, qdot=None, s=None) -> LagrangianPoint:
        return LagrangianPoint(
            q=z.q if q is None else q,
            qdot=z.qdot if qdot is None else qdot,
            s=z.s if s is None else s,
        )

    def bump(vec, i, v):
        arr = vec.copy()
        arr[i] = v
        return arr

    hs = step * max(1.0, abs(z.s))
    checks.append(_checked(
        "s",
        lambda: L.d_s(z),
        lambda: central_difference(lambda v: L.value(at(s=v)), z.s, hs),
    ))
    for i in range(z.n):
        hq = step * max(1.0, abs(z.q[i]))
        checks.append(_checked(
            f"q[{i}]",
            lambda i=i: np.asarray(L.d_q(z), dtype=float)[i],
            lambda i=i, hq=hq: central_difference(
                lambda v: L.value(at(q=bump(z.q, i, v))), z.q[i], hq
            ),
        ))
    for i in range(z.n):
        hv = step * max(1.0, abs(z.qdot[i]))
        checks.append(_checked(
            f"qdot[{i}]",
            lambda i=i: np.asarray(L.d_qdot(z), dtype=float)[i],
            lambda i=i, hv=hv: central_difference(
                lambda v: L.value(at(qdot=bump(z.qdot, i, v))), z.qdot[i], hv
            ),
        ))
    if not callable(getattr(L, "w", None)):
        return PartialsReport(name=L.name, checks=tuple(checks))
    # second partials: differentiate the analytic d_qdot
    W = np.asarray(L.w(z), dtype=float)
    for i in range(z.n):
        for j in range(z.n):
            hv = step * max(1.0, abs(z.qdot[j]))
            checks.append(_checked(
                f"W[{i},{j}]",
                lambda i=i, j=j: W[i, j],
                lambda i=i, j=j, hv=hv: central_difference(
                    lambda v: np.asarray(L.d_qdot(at(qdot=bump(z.qdot, j, v))), dtype=float)[i],
                    z.qdot[j],
                    hv,
                ),
            ))
            checks.append(_checked(
                f"W_sym[{i},{j}]",
                lambda i=i, j=j: W[i, j],
                lambda i=i, j=j: W[j, i],
            ))
    mixed_q = np.asarray(L.d2_q_qdot(z), dtype=float)
    for j in range(z.n):
        for k in range(z.n):
            hq = step * max(1.0, abs(z.q[j]))
            checks.append(_checked(
                f"d2_q_qdot[{j},{k}]",
                lambda j=j, k=k: mixed_q[j, k],
                lambda j=j, k=k, hq=hq: central_difference(
                    lambda v: np.asarray(L.d_qdot(at(q=bump(z.q, j, v))), dtype=float)[k],
                    z.q[j],
                    hq,
                ),
            ))
    mixed_s = np.asarray(L.d2_s_qdot(z), dtype=float)
    for k in range(z.n):
        checks.append(_checked(
            f"d2_s_qdot[{k}]",
            lambda k=k: mixed_s[k],
            lambda k=k: central_difference(
                lambda v: np.asarray(L.d_qdot(at(s=v)), dtype=float)[k], z.s, hs
            ),
        ))
    return PartialsReport(name=L.name, checks=tuple(checks))
