"""Averaged-rate reports for the contact flow of an observable.

For an observable G carried along a flow, the time average of its rate
over a finite horizon equals the boundary term (G(T) - G(t0)) / (T - t0)
exactly — that identity holds for every run and is reported as
``residual_exact``.  When G stays bounded the boundary term dies off like
1/T, so the signed sum of the decomposed term averages (the
``theorem_residual``) tends to zero; when G grows the verdict flags the
hypothesis failure instead of misreporting the residual as numerical
error.

Reports come in two flavors: deterministic (one trajectory) and ensemble
(the stochastic chart's terms with standard-error bars; the identity is
asserted only in expectation because pathwise rates carry the unmodeled
quadratic variation of the noise).  Both take the averaged rate of the
chart's G as the signed term sum over rate_scale, so ``residual_exact`` also
checks the terms; a custom model G gets its rate from the system's models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DarbouxPoint,
    NonFiniteError,
    ScalarField,
    apply_field_to_observable,
    check_partials,
    poisson_bracket,
    reeb_derivative,
)
from .extended import frozen_time
from .herglotz import (
    LagrangianObservable,
    LagrangianPoint,
    apply_lagrangian_field,
    check_lagrangian_partials,
)
from .integrate import Trajectory, langevin_ensemble, trapezoid_average, write_csv
from .systems import SystemSpec

__all__ = [
    "RESIDUAL_TOL",
    "GROWTH_FACTOR",
    "VirialTerm",
    "VirialReport",
    "virial_observable",
    "virial_rate",
    "boundary_term",
    "growth_verdict",
    "virial_report",
    "ensemble_report",
    "report_text",
    "write_report",
    "parse_report",
    "write_running_averages",
]

# Residual tolerance the verdict threshold is anchored to: bounded-G reports
# should show |residual_exact| below ~10x integrator tolerance, and a fitted
# growth of |G| is only meaningful once it clears that noise floor by a wide
# margin.
RESIDUAL_TOL = 1e-8
GROWTH_FACTOR = 100.0


@dataclass(frozen=True)
class VirialTerm:
    """One signed term on the left side of an averaged-rate balance.

    `observable` is a Darboux-chart model, a velocity-chart model, or a
    plain callable ``f(t, state_row) -> float``.  Model observables have
    their analytic partials spot-checked against finite differences at a
    generic probe point, so a term with a wrong gradient cannot enter a
    report silently.
    """

    name: str
    observable: object
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, +1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        obs = self.observable
        if isinstance(obs, ScalarField):
            n = obs.n
            probe = DarbouxPoint(
                0.25,
                [1.0 + i / 7.0 for i in range(n)],
                [0.5 - i / 9.0 for i in range(n)],
            )
            report = check_partials(obs, probe)
        elif isinstance(obs, LagrangianObservable):
            n = obs.n
            probe = LagrangianPoint(
                [1.0 + i / 7.0 for i in range(n)],
                [0.5 - i / 9.0 for i in range(n)],
                0.25,
            )
            report = check_lagrangian_partials(obs, probe)
        elif callable(obs):
            return
        else:
            raise TypeError(
                "observable must be a chart model or a callable f(t, row)"
            )
        if not report.passed:
            bad = ", ".join(c.label for c in report.failures())
            raise ValueError(
                f"term '{self.name}': analytic partials failed the "
                f"finite-difference oracle ({bad})"
            )


def virial_observable(n: int, masses: Sequence[float] | None = None):
    """The virial of a mechanical system, G = q.p, in either chart.

    With `masses` omitted, returns the Darboux-chart model G = sum_i q^i p_i.
    With `masses` given (length n), returns the velocity-chart model
    G = sum_i m_i qdot^i q^i — the same observable through the fiber map
    p_i = m_i qdot^i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if masses is None:
        return ScalarField(
            n=n,
            value=lambda x: float(np.dot(x.q, x.p)),
            d_s=lambda x: 0.0,
            d_q=lambda x: np.array(x.p, dtype=float),
            d_p=lambda x: np.array(x.q, dtype=float),
            name="virial",
        )
    m = np.asarray(masses, dtype=float)
    if m.shape != (n,):
        raise ValueError(f"masses must have shape ({n},), got {m.shape}")
    return LagrangianObservable(
        n=n,
        value=lambda z: float(np.dot(m * z.qdot, z.q)),
        d_s=lambda z: 0.0,
        d_q=lambda z: m * z.qdot,
        d_qdot=lambda z: m * z.q,
        name="virial",
    )


def virial_rate(h: ScalarField, x: DarbouxPoint):
    """Split the flow derivative of G = q.p into bracket and Reeb pieces.

    Returns (pb, reeb_term, total) with pb the canonical Poisson bracket
    {G, h}, reeb_term = G * dh/ds, and total = pb - reeb_term, which is
    the full rate of G along the contact flow.  For s-independent h the
    Reeb piece vanishes and the classical statement is recovered.
    """
    G = virial_observable(x.n)
    pb = poisson_bracket(G, h, x)
    reeb_term = G.value(x) * reeb_derivative(h, x)
    return pb, reeb_term, pb - reeb_term


def boundary_term(traj: Trajectory, G) -> float:
    """(G(final) - G(initial)) / elapsed over the whole trajectory."""
    values = _values_along(traj, G)
    elapsed = traj.times[-1] - traj.times[0]
    if elapsed <= 0:
        raise ValueError("trajectory spans no time; boundary term undefined")
    return float((values[-1] - values[0]) / elapsed)


def growth_verdict(times, g_values, t0: float = 0.0,
                   residual_tol: float = RESIDUAL_TOL):
    """Classify |G| over the averaging window as bounded or growing.

    Compares the max of |G| over the leading and trailing halves of the
    window; their difference per unit time estimates d max|G| / dt (exact
    for linearly growing G).  Returns (verdict, growth_rate); "growing"
    needs the rate to clear GROWTH_FACTOR * residual_tol AND the trailing
    max to genuinely exceed the leading one (by > 5%), so bounded
    oscillations whose sampled peaks jitter at discretization level stay
    "bounded".
    """
    times = np.asarray(times, dtype=float)
    g = np.abs(np.asarray(g_values, dtype=float))
    t_end = times[-1]
    t_mid = t0 + 0.5 * (t_end - t0)
    lead = (times >= t0) & (times <= t_mid)
    trail = times >= t_mid
    if int(lead.sum()) < 1 or int(trail.sum()) < 2:
        return "bounded", 0.0
    m_lead = float(np.max(g[lead]))
    m_trail = float(np.max(g[trail]))
    half = t_end - t_mid
    growth_rate = max(0.0, (m_trail - m_lead) / half)
    significant = (m_trail - m_lead) > 0.05 * max(m_trail, m_lead)
    growing = significant and growth_rate > GROWTH_FACTOR * residual_tol
    return ("growing" if growing else "bounded"), growth_rate


@dataclass(frozen=True)
class VirialReport:
    """Term averages, boundary identity, and boundedness verdict of one run."""

    system: str
    chart: str
    T: float
    t0: float
    window: float
    term_names: tuple
    term_signs: tuple
    term_averages: tuple
    term_errors: tuple | None
    theorem_residual: float
    theorem_error: float | None
    rate_average: float
    boundary: float
    residual_exact: float
    rate_scale: float
    G_initial: float
    G_final: float
    verdict: str
    growth_rate: float
    n_traj: int = 1
    meta: dict = field(default_factory=dict)

    def term(self, name: str) -> float:
        """Time average of one named term."""
        return self.term_averages[self.term_names.index(name)]

    def term_error(self, name: str) -> float:
        if self.term_errors is None:
            raise ValueError("deterministic report carries no error bars")
        return self.term_errors[self.term_names.index(name)]


# ---------------------------------------------------------------------------
# evaluating observables along trajectories


def _point_factory(layout):
    """Row-unpacker for a trajectory layout, plus the chart family it implies."""
    names = tuple(layout)
    if names == ("z", "x", "y"):
        # activator-inhibitor contact chart: z plays s, x plays q, y plays p
        return (lambda t, row: DarbouxPoint(s=row[0], q=row[1:2], p=row[2:3]),
                "darboux")
    qs = [i for i, nm in enumerate(names) if nm.startswith("q[")]
    qdots = [i for i, nm in enumerate(names) if nm.startswith("qdot[")]
    ps = [i for i, nm in enumerate(names) if nm.startswith("p[")]
    if qdots and "s" in names:
        s_i = names.index("s")
        return (lambda t, row: LagrangianPoint(q=row[qs], qdot=row[qdots], s=row[s_i]),
                "lagrangian")
    if ps and "s" in names:
        s_i = names.index("s")
        return (lambda t, row: DarbouxPoint(s=row[s_i], q=row[qs], p=row[ps]),
                "darboux")
    raise ValueError(f"layout {names} carries no recognizable chart structure")


def _values_along(traj: Trajectory, obj) -> np.ndarray:
    """Evaluate a term observable / G at every recorded sample."""
    if isinstance(obj, np.ndarray):
        vals = np.asarray(obj, dtype=float)
        if vals.shape != traj.times.shape:
            raise ValueError("precomputed values must match the sample count")
        return vals
    if hasattr(obj, "values") and hasattr(obj, "sign"):
        return np.asarray(obj.values(traj), dtype=float)
    if isinstance(obj, (ScalarField, LagrangianObservable)):
        unpack, family = _point_factory(traj.layout)
        want = "lagrangian" if isinstance(obj, LagrangianObservable) else "darboux"
        if family != want:
            raise ValueError(
                f"{type(obj).__name__} observable cannot be evaluated on a "
                f"{family}-chart trajectory"
            )
        return np.array(
            [obj.value(unpack(t, row)) for t, row in zip(traj.times, traj.states)]
        )
    if callable(obj):
        return np.array(
            [obj(t, row) for t, row in zip(traj.times, traj.states)], dtype=float
        )
    raise TypeError(f"cannot evaluate {type(obj).__name__} along a trajectory")


def _term_entries(terms, traj):
    entries = []
    for term in terms:
        if hasattr(term, "values") and hasattr(term, "sign"):
            entries.append((term.name, int(term.sign),
                            np.asarray(term.values(traj), dtype=float)))
        elif isinstance(term, VirialTerm):
            entries.append((term.name, term.sign,
                            _values_along(traj, term.observable)))
        else:
            raise TypeError(
                "terms must be VirialTerm or a system chart's term bindings"
            )
    return entries


def _window_inputs(system: SystemSpec, traj: Trajectory, terms, G, t0: float):
    """The chart matching the trajectory's layout, term entries, G values.

    `terms` and `G` default to the chart's own; t0 must lie in the span.
    """
    for chart_name, chart in system.charts.items():
        if chart.layout == traj.layout:
            break
    else:
        raise ValueError(
            f"trajectory layout {traj.layout} matches no chart of "
            f"'{system.name}' (have {[c.layout for c in system.charts.values()]})"
        )
    times = traj.times
    if not (times[0] <= t0 < times[-1]):
        raise ValueError(
            f"t0={t0:g} must lie inside the recorded span [{times[0]:g}, {times[-1]:g})"
        )
    entries = _term_entries(chart.terms if terms is None else terms, traj)
    if G is None:
        if chart.G is None:
            raise ValueError(f"chart '{chart_name}' binds no observable G")
        g_vals = np.asarray(chart.G(traj), dtype=float)
    else:
        g_vals = _values_along(traj, G)
    return chart_name, chart, entries, g_vals


def _rate_for_custom_G(system: SystemSpec, traj: Trajectory, G) -> np.ndarray:
    """Exact flow rate of a model observable along recorded samples."""
    unpack, family = _point_factory(traj.layout)
    names = tuple(traj.layout)
    if isinstance(G, LagrangianObservable):
        if system.lagrangian is None:
            raise ValueError(f"'{system.name}' has no velocity-chart model")
        return np.array(
            [apply_lagrangian_field(system.lagrangian, G, unpack(t, row))
             for t, row in zip(traj.times, traj.states)]
        )
    if not isinstance(G, ScalarField):
        raise TypeError(
            "custom G must be a chart model with partials; plain callables "
            "admit no exact rate"
        )
    if names and names[0] == "t":
        if system.extended is None:
            raise ValueError(f"'{system.name}' has no extended-space model")
        out = np.empty(len(traj.times))
        for k, (t, row) in enumerate(zip(traj.times, traj.states)):
            h_now = frozen_time(system.extended, row[0])
            out[k] = apply_field_to_observable(h_now, G, unpack(t, row))
        return out
    if system.hamiltonian is None:
        raise ValueError(f"'{system.name}' has no Darboux-chart model")
    return np.array(
        [apply_field_to_observable(system.hamiltonian, G, unpack(t, row))
         for t, row in zip(traj.times, traj.states)]
    )


def _scalar_meta(source: dict) -> dict:
    return {
        k: v for k, v in source.items()
        if isinstance(v, (str, bool, int, float, np.integer, np.floating))
    }


# ---------------------------------------------------------------------------
# reports


def virial_report(
    system: SystemSpec,
    traj: Trajectory,
    terms=None,
    G=None,
    *,
    t0: float = 0.0,
    residual_tol: float = RESIDUAL_TOL,
    extra_meta: dict | None = None,
) -> VirialReport:
    """Assemble the averaged-rate report of one deterministic trajectory.

    Defaults to the term decomposition and observable bound to the chart
    the trajectory was produced in (matched by layout); the chart's signed
    term sum over rate_scale is the rate of its G.  Custom `terms`
    (VirialTerm) and a custom model `G` are accepted; a custom G's rate is
    evaluated through the system's attached models, keeping the boundary
    identity exact.  `t0` starts the averaging window late to skip
    transients.
    """
    if traj.aborted:
        raise ValueError(
            f"trajectory aborted ({traj.abort_reason}); no report assembled"
        )
    if system.noise is not None:
        raise ValueError(
            f"'{system.name}' is stochastic: its runs have no pathwise rate; "
            "use ensemble_report"
        )
    chart_name, chart, entries, g_vals = _window_inputs(system, traj, terms, G, t0)
    times = traj.times
    t_end = float(times[-1])
    window = t_end - t0

    term_avgs = tuple(
        float(trapezoid_average(times, vals, t0=t0)) for _, _, vals in entries
    )
    theorem_residual = math.fsum(
        sign * avg for (_, sign, _), avg in zip(entries, term_avgs)
    )
    if G is not None:
        rate_avg = float(trapezoid_average(
            times, _rate_for_custom_G(system, traj, G), t0=t0))
    elif terms is None:
        rate_avg = theorem_residual / chart.rate_scale
    else:
        rate_avg = math.fsum(b.sign * trapezoid_average(times, b.values(traj), t0=t0)
                             for b in chart.terms) / chart.rate_scale
    g0 = float(np.interp(t0, times, g_vals))
    gT = float(g_vals[-1])
    boundary = (gT - g0) / window
    verdict, growth_rate = growth_verdict(times, g_vals, t0, residual_tol)

    meta = _scalar_meta(traj.meta)
    meta.update({f"param.{k}": v for k, v in system.params.items()})
    if extra_meta:
        meta.update(_scalar_meta(extra_meta))

    return VirialReport(
        system=system.name,
        chart=chart_name,
        T=t_end,
        t0=float(t0),
        window=window,
        term_names=tuple(name for name, _, _ in entries),
        term_signs=tuple(sign for _, sign, _ in entries),
        term_averages=term_avgs,
        term_errors=None,
        theorem_residual=theorem_residual,
        theorem_error=None,
        rate_average=rate_avg,
        boundary=boundary,
        residual_exact=rate_avg - boundary,
        rate_scale=chart.rate_scale,
        G_initial=g0,
        G_final=gT,
        verdict=verdict,
        growth_rate=growth_rate,
        meta=meta,
    )


def ensemble_report(
    system: SystemSpec,
    n_traj: int,
    T: float,
    dt: float,
    noise=None,
    terms=None,
    G=None,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> VirialReport:
    """Averaged-rate report of a Langevin ensemble, with error bars.

    Term averages are ensemble means of the per-member horizon averages of
    the chart's own terms; errors are standard errors over the ensemble.
    `drive_friction` gains rate_scale times the realized Ito noise integral,
    which only the stepper can accumulate, so custom `terms`/`G` are
    rejected.  The boundary identity is exact only in expectation here:
    pathwise rates carry the
    quadratic variation of the noise, so tests gate residuals at 3 sigma
    rather than at integrator tolerance.  Diverged members are dropped;
    NonFiniteError is raised when fewer than two remain.
    """
    if system.noise is None and noise is None:
        raise ValueError(
            f"'{system.name}' is deterministic; use virial_report on a trajectory"
        )
    if terms is not None or G is not None:
        raise ValueError(
            "ensemble reports use the decomposition fixed by the realized "
            "noise statistics; custom terms are a deterministic-report feature"
        )
    if n_traj < 2:
        raise ValueError("an ensemble needs n_traj >= 2")
    noise = noise if noise is not None else system.noise
    chart_name = system.default_chart
    chart = system.chart(chart_name)
    stats = langevin_ensemble(chart, noise, T, dt, n_traj)

    names = tuple(b.name for b in chart.terms)
    signs = tuple(b.sign for b in chart.terms)
    per_member = stats.term_averages.copy()
    per_member[names.index("drive_friction")] += chart.rate_scale * stats.noise_virial
    boundary_i = (stats.G_final - stats.G_initial) / T

    finite = np.isfinite(per_member).all(axis=0) & np.isfinite(boundary_i)
    n_dropped = int(n_traj - finite.sum())
    if finite.sum() < 2:
        raise NonFiniteError(
            f"{n_dropped} of {n_traj} trajectories diverged; no ensemble left"
        )
    per_member, boundary_i = per_member[:, finite], boundary_i[finite]
    combo = sum(sign * vals for sign, vals in zip(signs, per_member))
    n_eff = int(finite.sum())

    def mean_se(a):
        return float(np.mean(a)), float(np.std(a, ddof=1) / math.sqrt(n_eff))

    term_stats = [mean_se(vals) for vals in per_member]
    res_m, res_se = mean_se(combo)
    b_m, b_se = mean_se(boundary_i)

    rate_avg = res_m / chart.rate_scale
    growing = abs(b_m) > max(3 * b_se, GROWTH_FACTOR * residual_tol)

    meta = {
        "dt": dt,
        "seed": noise.seed,
        "gamma": noise.gamma,
        "k_BT": noise.k_BT,
        "equipartition_target": noise.k_BT / 2,
        "n_dropped": n_dropped,
    }
    meta.update({f"param.{k}": v for k, v in system.params.items()})

    return VirialReport(
        system=system.name,
        chart=chart_name,
        T=float(T),
        t0=0.0,
        window=float(T),
        term_names=names,
        term_signs=signs,
        term_averages=tuple(m for m, _ in term_stats),
        term_errors=tuple(se for _, se in term_stats),
        theorem_residual=res_m,
        theorem_error=res_se,
        rate_average=rate_avg,
        boundary=b_m,
        residual_exact=rate_avg - b_m,
        rate_scale=chart.rate_scale,
        G_initial=float(np.mean(stats.G_initial[finite])),
        G_final=float(np.mean(stats.G_final[finite])),
        verdict="growing" if growing else "bounded",
        growth_rate=abs(b_m),
        n_traj=n_eff,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def report_text(report: VirialReport) -> str:
    """Key-value text form, one `key = value` per line, floats at 17 digits."""
    lines = [
        f"system = {report.system}",
        f"chart = {report.chart}",
        f"n_traj = {report.n_traj}",
        f"horizon = {_fmt(report.T)}",
        f"window_start = {_fmt(report.t0)}",
        f"window = {_fmt(report.window)}",
        f"rate_scale = {_fmt(report.rate_scale)}",
    ]
    for i, name in enumerate(report.term_names):
        lines.append(f"term.{name}.sign = {report.term_signs[i]:+d}")
        lines.append(f"term.{name}.average = {_fmt(report.term_averages[i])}")
        if report.term_errors is not None:
            lines.append(f"term.{name}.stderr = {_fmt(report.term_errors[i])}")
    lines.append(f"theorem_residual = {_fmt(report.theorem_residual)}")
    if report.theorem_error is not None:
        lines.append(f"theorem_stderr = {_fmt(report.theorem_error)}")
    lines += [
        f"rate_average = {_fmt(report.rate_average)}",
        f"boundary_term = {_fmt(report.boundary)}",
        f"residual_exact = {_fmt(report.residual_exact)}",
        f"G_initial = {_fmt(report.G_initial)}",
        f"G_final = {_fmt(report.G_final)}",
        f"verdict = {report.verdict}",
        f"growth_rate = {_fmt(report.growth_rate)}",
    ]
    for k in sorted(report.meta):
        lines.append(f"meta.{k} = {_fmt(report.meta[k])}")
    return "\n".join(lines) + "\n"


def write_report(report: VirialReport, path_or_file) -> None:
    text = report_text(report)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def parse_report(text: str) -> dict:
    """Inverse of report_text: `key = value` lines into a flat dict of strings.

    Blank lines and `#` comment lines (metadata block separators) are skipped.
    """
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"unparseable report line: {line!r}")
        out[key] = value
    return out


def write_running_averages(
    system: SystemSpec,
    traj: Trajectory,
    path_or_file,
    terms=None,
    G=None,
    t0: float = 0.0,
) -> None:
    """CSV of per-term running averages vs horizon, for convergence plots.

    Columns: t, one running average per term, the running theorem residual
    (signed sum), and the running boundary term (G(t) - G(t0)) / (t - t0).
    Rows start at the first sample past t0.
    """
    _, _, entries, g_vals = _window_inputs(system, traj, terms, G, t0)
    times = traj.times
    after = times > t0
    t_w = np.concatenate([[t0], times[after]])
    g0 = float(np.interp(t0, times, g_vals))

    def running_avg(vals):
        v0 = np.interp(t0, times, vals)
        v_w = np.concatenate([[v0], vals[after]])
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (v_w[1:] + v_w[:-1]) * np.diff(t_w))]
        )
        return cum[1:] / (t_w[1:] - t0)

    columns = [("t", t_w[1:])]
    signed_sum = np.zeros(len(t_w) - 1)
    for name, sign, vals in entries:
        avg = running_avg(vals)
        signed_sum = signed_sum + sign * avg
        columns.append((f"avg[{name}]", avg))
    columns.append(("theorem_residual", signed_sum))
    columns.append(("boundary", (g_vals[after] - g0) / (t_w[1:] - t0)))

    write_csv(path_or_file, [name for name, _ in columns],
              np.column_stack([vals for _, vals in columns]))
