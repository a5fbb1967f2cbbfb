"""Contact Hamiltonian mechanics in a Darboux chart.

A contact phase space of dimension 2n+1 carries coordinates (s, q, p)
in which the contact form is ds - p_i dq^i and the Reeb field is d/ds.
This module evaluates the basic objects of that picture at points:
the contact Hamiltonian vector field, the Reeb derivative, the Lagrange
(Jacobi) and Poisson brackets, and the field divergence.  A central
finite-difference oracle (`check_partials`) guards every analytic
derivative supplied by a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "DarbouxPoint",
    "TangentVector",
    "ScalarField",
    "HamiltonianModel",
    "ObservableModel",
    "DimensionMismatchError",
    "NonFiniteError",
    "DomainError",
    "constant_field",
    "contact_vector_field",
    "reeb_derivative",
    "lagrange_bracket",
    "poisson_bracket",
    "apply_field_to_observable",
    "directional_derivative",
    "divergence",
    "numerical_divergence",
    "check_partials",
    "PartialCheck",
    "PartialsReport",
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


# A contact Hamiltonian and a generic observable share the same evaluator
# bundle; the distinction is the role they play in an operation.
HamiltonianModel = ScalarField
ObservableModel = ScalarField


def constant_field(n: int, c: float, name: str = "") -> ScalarField:
    """Observable that is identically the constant c."""
    zero = np.zeros(n)
    return ScalarField(
        n=n,
        value=lambda x: c,
        d_s=lambda x: 0.0,
        d_q=lambda x: zero,
        d_p=lambda x: zero,
        name=name or f"const({c})",
    )


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


def contact_vector_field(h: HamiltonianModel, x: DarbouxPoint) -> TangentVector:
    """Evaluate the contact Hamiltonian vector field of h at x.

    In Darboux coordinates the field has components

        ds   = p_i dh/dp_i - h
        dq^i = dh/dp_i
        dp_i = -(dh/dq^i + p_i dh/ds)

    Its flow conserves neither h nor phase-space volume unless h is
    independent of s.

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


def reeb_derivative(h: HamiltonianModel, x: DarbouxPoint) -> float:
    """Derivative of h along the Reeb field, i.e. dh/ds at x."""
    _check_dim(h, x)
    return _finite(h.d_s(x), "d_s", h, x)


def lagrange_bracket(f: ObservableModel, g: ObservableModel, x: DarbouxPoint) -> float:
    """Lagrange (Jacobi) bracket {f, g} at x in Darboux coordinates.

    {f,g} = f dg/ds - df/ds g
          + p_i (df/ds dg/dp_i - df/dp_i dg/ds)
          + df/dq^i dg/dp_i - df/dp_i dg/dq^i

    Unlike a Poisson bracket, the bracket of a constant need not vanish:
    {1, g} equals the Reeb derivative of g.  For s-independent f and g the
    bracket reduces to the Poisson bracket.
    """
    _check_dim(f, x)
    _check_dim(g, x)
    fv = _finite(f.value(x), "value", f, x)
    gv = _finite(g.value(x), "value", g, x)
    fs = _finite(f.d_s(x), "d_s", f, x)
    gs = _finite(g.d_s(x), "d_s", g, x)
    fq = np.asarray(f.d_q(x), dtype=float)
    gq = np.asarray(g.d_q(x), dtype=float)
    fp = np.asarray(f.d_p(x), dtype=float)
    gp = np.asarray(g.d_p(x), dtype=float)
    out = (
        fv * gs
        - fs * gv
        + float(x.p @ (fs * gp - fp * gs))
        + float(fq @ gp - fp @ gq)
    )
    if not math.isfinite(out):
        raise NonFiniteError(f"lagrange_bracket({f.name},{g.name}) non-finite at {x}")
    return out


def poisson_bracket(f: ObservableModel, g: ObservableModel, x: DarbouxPoint) -> float:
    """Poisson bracket {f, g}_PB = df/dq^i dg/dp_i - df/dp_i dg/dq^i at x."""
    _check_dim(f, x)
    _check_dim(g, x)
    fq = np.asarray(f.d_q(x), dtype=float)
    gq = np.asarray(g.d_q(x), dtype=float)
    fp = np.asarray(f.d_p(x), dtype=float)
    gp = np.asarray(g.d_p(x), dtype=float)
    out = float(fq @ gp - fp @ gq)
    if not math.isfinite(out):
        raise NonFiniteError(f"poisson_bracket({f.name},{g.name}) non-finite at {x}")
    return out


def apply_field_to_observable(h: HamiltonianModel, f: ObservableModel, x: DarbouxPoint) -> float:
    """Rate of change of f along the contact field of h, at x.

    Computed through the bracket identity X_h(f) = {f, h} - f dh/ds.  The
    result equals the directional derivative of f along
    contact_vector_field(h, x); that equality is the independent cross-check
    used by the test suite.
    """
    return lagrange_bracket(f, h, x) - _finite(f.value(x), "value", f, x) * reeb_derivative(h, x)


def directional_derivative(f: ObservableModel, x: DarbouxPoint, v: TangentVector) -> float:
    """Chain-rule derivative of f at x along the tangent vector v."""
    _check_dim(f, x)
    if v.n != x.n:
        raise DimensionMismatchError(f"tangent has n={v.n} but point has n={x.n}")
    return (
        _finite(f.d_s(x), "d_s", f, x) * v.ds
        + float(np.asarray(f.d_q(x), dtype=float) @ v.dq)
        + float(np.asarray(f.d_p(x), dtype=float) @ v.dp)
    )


def divergence(h: HamiltonianModel, x: DarbouxPoint) -> float:
    """Divergence of the contact field: -(n+1) dh/ds at x.

    Zero exactly when h is independent of s, recovering the volume-preserving
    (Liouville) behaviour of the symplectic case.
    """
    return -(h.n + 1) * reeb_derivative(h, x)


def numerical_divergence(h: HamiltonianModel, x: DarbouxPoint, step: float = 1e-5) -> float:
    """Trace of a central-finite-difference Jacobian of the contact field.

    Independent oracle for `divergence`; agreement within ~1e-6 absolute is
    expected for well-scaled Hamiltonians.
    """
    n = x.n
    trace = 0.0

    def shifted(coord: str, i: int, delta: float) -> DarbouxPoint:
        if coord == "s":
            return replace(x, s=x.s + delta)
        arr = getattr(x, coord).copy()
        arr[i] += delta
        return replace(x, **{coord: arr})

    # d(ds)/ds
    hs = step * max(1.0, abs(x.s))
    plus = contact_vector_field(h, shifted("s", 0, hs))
    minus = contact_vector_field(h, shifted("s", 0, -hs))
    trace += (plus.ds - minus.ds) / (2 * hs)
    for i in range(n):
        hq = step * max(1.0, abs(x.q[i]))
        plus = contact_vector_field(h, shifted("q", i, hq))
        minus = contact_vector_field(h, shifted("q", i, -hq))
        trace += (plus.dq[i] - minus.dq[i]) / (2 * hq)
        hp = step * max(1.0, abs(x.p[i]))
        plus = contact_vector_field(h, shifted("p", i, hp))
        minus = contact_vector_field(h, shifted("p", i, -hp))
        trace += (plus.dp[i] - minus.dp[i]) / (2 * hp)
    return trace


# ---------------------------------------------------------------------------
# finite-difference oracle for model partials


REL_TOL = 1e-6    # flag any relative error above this
ABS_TOL = 1e-9    # absolute fallback near zero


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


def compare_derivative(analytic: float, numeric: float) -> tuple[float, bool]:
    """Relative error and pass verdict under the rel-1e-6 / abs-1e-9 rule."""
    diff = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    rel = diff / scale if scale > 0 else 0.0
    ok = diff <= ABS_TOL or rel <= REL_TOL
    return rel, ok


def central_difference(f: Callable[[float], float], t0: float, step: float) -> float:
    """Central difference (f(t0+step) - f(t0-step)) / (2 step)."""
    return (f(t0 + step) - f(t0 - step)) / (2.0 * step)


def _checked(label: str, analytic_fn, numeric_fn) -> PartialCheck:
    try:
        analytic = float(analytic_fn())
    except Exception as exc:  # evaluation failure reported, not fatal
        return PartialCheck(label, math.nan, math.nan, math.inf, False,
                            note=f"analytic evaluation failed: {exc}")
    try:
        numeric = float(numeric_fn())
    except Exception as exc:
        return PartialCheck(label, analytic, math.nan, math.inf, False,
                            note=f"perturbed evaluation failed: {exc}")
    rel, ok = compare_derivative(analytic, numeric)
    return PartialCheck(label, analytic, numeric, rel, ok)


def check_partials(model: ScalarField, x: DarbouxPoint, step: float = 1e-5) -> PartialsReport:
    """Verify a model's analytic partials against central finite differences.

    Each coordinate is perturbed by ``step * max(1, |coordinate|)``.  A
    partial is flagged when its relative error exceeds 1e-6 (absolute
    fallback 1e-9 near zero).  Evaluation failures at perturbed points are
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
    checks: list[PartialCheck] = []

    hs = step * max(1.0, abs(x.s))
    checks.append(_checked(
        "s",
        lambda: model.d_s(x),
        lambda: central_difference(lambda v: model.value(replace(x, s=v)), x.s, hs),
    ))
    for i in range(x.n):
        hq = step * max(1.0, abs(x.q[i]))

        def val_q(v, i=i):
            arr = x.q.copy()
            arr[i] = v
            return model.value(replace(x, q=arr))

        checks.append(_checked(
            f"q[{i}]",
            lambda i=i: np.asarray(model.d_q(x), dtype=float)[i],
            lambda i=i, hq=hq: central_difference(lambda v, i=i: val_q(v, i), x.q[i], hq),
        ))
    for i in range(x.n):
        hp = step * max(1.0, abs(x.p[i]))

        def val_p(v, i=i):
            arr = x.p.copy()
            arr[i] = v
            return model.value(replace(x, p=arr))

        checks.append(_checked(
            f"p[{i}]",
            lambda i=i: np.asarray(model.d_p(x), dtype=float)[i],
            lambda i=i, hp=hp: central_difference(lambda v, i=i: val_p(v, i), x.p[i], hp),
        ))
    return PartialsReport(name=model.name, checks=tuple(checks))
