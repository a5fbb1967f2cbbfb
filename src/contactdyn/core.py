"""Contact Hamiltonian mechanics in a Darboux chart.

A contact phase space of dimension 2n+1 carries coordinates (s, q, p)
in which the contact form is ds - p_i dq^i and the Reeb field is d/ds.
This module evaluates the contact Hamiltonian vector field at points.
Along the field, G = q.p changes at the contact virial rate
{G, h} - G dh/ds, h itself at -h dh/ds, and volume at the divergence
-(n+1) dh/ds; tests/test_symbolic.py proves these for every catalog model
from its stated partials, so none of them is evaluated here.  A central
finite-difference oracle (`check_partials`) guards every analytic
derivative supplied by a model.  One routine takes every difference of
that oracle and of its Lagrangian and extended-chart counterparts: it
perturbs one entry of a flat coordinate list by ``step * max(1, |entry|)``
and bounds the quotient's roundoff.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DarbouxPoint",
    "TangentVector",
    "ScalarField",
    "DimensionMismatchError",
    "NonFiniteError",
    "DomainError",
    "contact_vector_field",
    "check_partials",
    "compare_derivative",
    "PartialCheck",
    "PartialsReport",
    "REL_TOL",
    "ABS_TOL",
]


class DimensionMismatchError(ValueError):
    """Operands live on charts of different dimension."""


class NonFiniteError(ValueError):
    """An evaluation produced inf or nan (bad model or out-of-domain point)."""


class DomainError(ValueError):
    """Point lies outside a model's domain (e.g. at or beyond a log/pole)."""


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-d array, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class DarbouxPoint:
    """A state (s, q^1..q^n, p_1..p_n) on the contact phase space.

    Attributes
    ----------
    s : float
        Action-like coordinate (the Reeb direction).
    q : ndarray, shape (n,)
        Configuration coordinates.
    p : ndarray, shape (n,)
        Momenta.
    """

    s: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "p", _as_vector(self.p, "p"))
        if self.q.shape != self.p.shape:
            raise DimensionMismatchError(
                f"q has length {self.q.size} but p has length {self.p.size}"
            )
        if not (math.isfinite(self.s) and np.isfinite(self.q).all() and np.isfinite(self.p).all()):
            raise NonFiniteError("DarbouxPoint entries must be finite")

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class TangentVector:
    """Components (ds, dq, dp) of a tangent vector at a DarbouxPoint."""

    ds: float
    dq: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ds", float(self.ds))
        object.__setattr__(self, "dq", _as_vector(self.dq, "dq"))
        object.__setattr__(self, "dp", _as_vector(self.dp, "dp"))
        if self.dq.shape != self.dp.shape:
            raise DimensionMismatchError(
                f"dq has length {self.dq.size} but dp has length {self.dp.size}"
            )

    @property
    def n(self) -> int:
        return self.dq.size


@dataclass(frozen=True)
class ScalarField:
    """A smooth scalar function on the Darboux chart with analytic partials.

    The evaluator bundle carries the function value and its first partial
    derivatives.  Partials are supplied analytically by the caller; the
    finite-difference oracle `check_partials` verifies them.

    Attributes
    ----------
    n : int
        Degrees of freedom (q and p each have length n).
    value : callable
        DarbouxPoint -> float.
    d_s : callable
        DarbouxPoint -> float, the partial along the Reeb direction.
    d_q, d_p : callable
        DarbouxPoint -> ndarray of shape (n,).
    name : str
        Descriptive label used in reports and error messages.
    """

    n: int
    value: Callable[[DarbouxPoint], float]
    d_s: Callable[[DarbouxPoint], float]
    d_q: Callable[[DarbouxPoint], np.ndarray]
    d_p: Callable[[DarbouxPoint], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1 degrees of freedom")


def _check_dim(model, x) -> None:
    """Model and point (of either chart) must share the dimension n."""
    if model.n != x.n:
        raise DimensionMismatchError(
            f"model '{model.name}' has n={model.n} but point has n={x.n}"
        )


def _finite(value: float, what: str, model, x) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} of '{model.name}' is non-finite at {x}")
    return value


def contact_vector_field(h: ScalarField, x: DarbouxPoint) -> TangentVector:
    """Evaluate the contact Hamiltonian vector field of h at x.

    In Darboux coordinates the field has components

        ds   = p_i dh/dp_i - h
        dq^i = dh/dp_i
        dp_i = -(dh/dq^i + p_i dh/ds)

    Its flow conserves neither h nor phase-space volume unless h is
    independent of s: the divergence of the field is -(n+1) dh/ds.

    Raises
    ------
    DimensionMismatchError
        If x does not live on h's chart.
    NonFiniteError
        If h or any partial evaluates to inf/nan at x.
    """
    _check_dim(h, x)
    hval = _finite(h.value(x), "value", h, x)
    hs = _finite(h.d_s(x), "d_s", h, x)
    hq = np.asarray(h.d_q(x), dtype=float)
    hp = np.asarray(h.d_p(x), dtype=float)
    if not (np.isfinite(hq).all() and np.isfinite(hp).all()):
        raise NonFiniteError(f"gradient of '{h.name}' is non-finite at q={x.q}, p={x.p}")
    ds = float(x.p @ hp) - hval
    dp = -(hq + x.p * hs)
    return TangentVector(ds=ds, dq=hp, dp=dp)


# ---------------------------------------------------------------------------
# finite-difference oracle for model partials


REL_TOL = 1e-6    # flag any relative error above this
ABS_TOL = 1e-9    # absolute fallback near zero
ROUNDOFF = 4 * sys.float_info.epsilon   # relative accuracy trusted of one value


@dataclass(frozen=True)
class PartialCheck:
    """Outcome of one central-difference comparison."""

    label: str          # "s", "q[i]", "p[i]" (or "t" for extended charts)
    analytic: float
    numeric: float
    rel_error: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class PartialsReport:
    """Consistency report of a model's analytic partials against central differences."""

    name: str
    checks: tuple[PartialCheck, ...] = field(default=())

    @property
    def max_rel_error(self) -> float:
        errs = [c.rel_error for c in self.checks if math.isfinite(c.rel_error)]
        return max(errs) if errs else math.inf

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[PartialCheck]:
        return [c for c in self.checks if not c.ok]


def compare_derivative(analytic: float, numeric: float,
                       roundoff: float = 0.0) -> tuple[float, bool]:
    """Relative error and pass verdict under the rel-1e-6 / abs-1e-9 rule.

    ``roundoff`` is the numeric value's own rounding error bound; a finite
    difference within it of the analytic value passes too.
    """
    diff = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    rel = diff / scale if scale > 0 else 0.0
    ok = math.isfinite(diff) and (diff <= max(ABS_TOL, roundoff) or rel <= REL_TOL)
    return rel, ok


def central_difference(f: Callable[[float], float], t0: float, step: float) -> float:
    """Central difference (f(t0+step) - f(t0-step)) / (2 step)."""
    return (f(t0 + step) - f(t0 - step)) / (2.0 * step)


def _checked(label: str, analytic_fn, numeric_fn) -> PartialCheck:
    """One comparison; numeric_fn returns (numeric value, its roundoff bound)."""
    try:
        analytic = float(analytic_fn())
    except Exception as exc:  # evaluation failure reported, not fatal
        return PartialCheck(label, math.nan, math.nan, math.inf, False,
                            note=f"analytic evaluation failed: {exc}")
    try:
        numeric, roundoff = map(float, numeric_fn())
    except Exception as exc:
        return PartialCheck(label, analytic, math.nan, math.inf, False,
                            note=f"perturbed evaluation failed: {exc}")
    rel, ok = compare_derivative(analytic, numeric, roundoff)
    return PartialCheck(label, analytic, numeric, rel, ok)


def _flat(x: DarbouxPoint) -> list:
    """The coordinates (s, q, p) of a Darboux point as one flat list."""
    return [x.s, *x.q, *x.p]


def _darboux(y) -> DarbouxPoint:
    """Inverse of `_flat`."""
    n = (len(y) - 1) // 2
    return DarbouxPoint(s=y[0], q=y[1:n + 1], p=y[n + 1:])


def _flat_difference(f, x: list, index: int, step: float) -> tuple[float, float]:
    """Richardson-extrapolated central difference of f along x[index], and its roundoff.

    With D(k) the central difference of step k and h = step * max(1, |x[index]|),
    the estimate is (4 D(h/2) - D(h)) / 3.  Each value of f is trusted to
    ROUNDOFF of its magnitude, so the estimate carries up to ROUNDOFF *
    (|f(x+-h)| + 8 |f(x+-h/2)|) / (6h) of rounding error, |f(x+-k)| being
    |f(x+k)| + |f(x-k)|.
    """
    h = step * max(1.0, abs(x[index]))

    def along(v):
        y = list(x)
        y[index] = v
        return f(y)

    hi, lo, half_hi, half_lo = (along(x[index] + k) for k in (h, -h, h / 2, -h / 2))
    return ((4.0 * (half_hi - half_lo) / h - (hi - lo) / (2.0 * h)) / 3.0,
            ROUNDOFF * (abs(hi) + abs(lo) + 8.0 * (abs(half_hi) + abs(half_lo))) / (6.0 * h))


def _difference_checks(f, x: list, wanted, step: float) -> list[PartialCheck]:
    """Compare analytic partials of f with central differences over flat coordinates.

    f takes a list shaped like x; each (label, index, analytic) triple of
    `wanted` checks the thunk `analytic()` against the difference of f along
    x[index].  Failures to evaluate are recorded per check.
    """
    return [
        _checked(label, analytic, lambda index=index: _flat_difference(f, x, index, step))
        for label, index, analytic in wanted
    ]


def _components(name: str, offset: int, partial, point) -> list:
    """`wanted` triples for the n entries of a vector partial, flat indices from offset."""
    return [
        (f"{name}[{i}]", offset + i, lambda i=i: np.asarray(partial(point), dtype=float)[i])
        for i in range(point.n)
    ]


def check_partials(model: ScalarField, x: DarbouxPoint, step: float = 1e-5) -> PartialsReport:
    """Verify a model's analytic partials against central finite differences.

    Each coordinate is perturbed by ``step * max(1, |coordinate|)``.  A
    partial is flagged when its relative error exceeds 1e-6 and its
    absolute error exceeds both 1e-9 and the difference's roundoff bound
    (see `_flat_difference`).  Evaluation failures at perturbed points are
    recorded per-coordinate instead of aborting the report.

    Parameters
    ----------
    model : ScalarField
        Hamiltonian or observable bundle whose partials are under test.
    x : DarbouxPoint
        Interior point at which to run the oracle.
    step : float
        Base relative perturbation; must be > 0.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _check_dim(model, x)
    wanted = [
        ("s", 0, lambda: model.d_s(x)),
        *_components("q", 1, model.d_q, x),
        *_components("p", 1 + x.n, model.d_p, x),
    ]
    checks = _difference_checks(lambda y: model.value(_darboux(y)), _flat(x), wanted, step)
    return PartialsReport(name=model.name, checks=tuple(checks))
