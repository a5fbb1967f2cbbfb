"""Action-dependent Lagrangian dynamics on the velocity chart (q, qdot, s).

A regular Lagrangian L(q, qdot, s) generates a flow whose integral curves
satisfy the generalized Euler-Lagrange equations with action feedback: the
s coordinate accumulates L along the motion and L may depend on it.  The
dynamics needs the inverse of the velocity Hessian W = d2L/dqdot dqdot, so
every evaluation is guarded by a reciprocal-condition estimate.

The Legendre map p = dL/dqdot carries states to the Darboux chart of
`contactdyn.core`, where the image of the energy function E_L is the
contact Hamiltonian.  The module evaluates the field, not the rates of
observables along it: each catalog chart states its G and the terms of
G's rate (`contactdyn.systems`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _components,
    _difference_checks,
    _finite,
)

__all__ = [
    "LagrangianPoint",
    "LagrangianTangent",
    "LagrangianModel",
    "RegularityError",
    "RCOND_MIN",
    "energy_EL",
    "regularity_estimate",
    "lagrangian_field",
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
    compared under the shared rule of `contactdyn.core.check_partials`
    (rel 1e-6, abs 1e-9 or the difference's roundoff).  W asymmetry is
    reported as its own check (analytic W[i,j] against W[j,i]).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _check_dim(L, z)
    n = z.n
    flat = [z.s, *z.q, *z.qdot]   # flat indices: s 0, q 1..n, qdot n+1..2n

    def point(y) -> LagrangianPoint:
        return LagrangianPoint(q=y[1:n + 1], qdot=y[n + 1:], s=y[0])

    checks = _difference_checks(lambda y: L.value(point(y)), flat, [
        ("s", 0, lambda: L.d_s(z)),
        *_components("q", 1, L.d_q, z),
        *_components("qdot", 1 + n, L.d_qdot, z),
    ], step)

    # second partials: differences of one component of the analytic d_qdot
    def d_qdot(k: int):
        return lambda y: np.asarray(L.d_qdot(point(y)), dtype=float)[k]

    W = np.asarray(L.w(z), dtype=float)
    for i in range(n):
        for j in range(n):
            checks += _difference_checks(d_qdot(i), flat, [
                (f"W[{i},{j}]", 1 + n + j, lambda i=i, j=j: W[i, j])
            ], step)
            checks.append(_checked(
                f"W_sym[{i},{j}]",
                lambda i=i, j=j: W[i, j],
                lambda i=i, j=j: (W[j, i], 0.0),
            ))
    mixed_q = np.asarray(L.d2_q_qdot(z), dtype=float)
    for j in range(n):
        for k in range(n):
            checks += _difference_checks(d_qdot(k), flat, [
                (f"d2_q_qdot[{j},{k}]", 1 + j, lambda j=j, k=k: mixed_q[j, k])
            ], step)
    mixed_s = np.asarray(L.d2_s_qdot(z), dtype=float)
    for k in range(n):
        checks += _difference_checks(d_qdot(k), flat, [
            (f"d2_s_qdot[{k}]", 0, lambda k=k: mixed_s[k])
        ], step)
    return PartialsReport(name=L.name, checks=tuple(checks))
