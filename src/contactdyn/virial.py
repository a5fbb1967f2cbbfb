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
(the stochastic chart's terms with standard-error bars).  An ensemble's
``residual_exact`` is not noise but the first-order bias of the
Euler-Maruyama scheme: the covariation sum of dq dp that the discrete
product rule keeps and the term sums drop, plus the difference between the
trapezoid averages of the terms and the left-point sums the scheme steps
with.  It halves with dt (about 5.3e-4, 2.6e-4 and 1.3e-4 at dt = 2e-3,
1e-3 and 5e-4, for 1000 members at k_BT = 0.5 and T = 20) and stays without
noise (1.0e-4 at k_BT = 0 and T = 5).  Both flavors read only the chart:
its G and the averaged rate of G as the signed term sum over rate_scale, so
``residual_exact`` also checks the terms.  A custom balance is a chart of
its own, with its terms and G, inside a SystemSpec.  A run's boundary term
is its report's ``boundary``, and ``report_text`` is the report's text
form; the pointwise rate of G = q.p is the catalog's stated balance, proved
symbolically in the test suite.

A deterministic report and its running averages come from one pass over
the samples (`reduce_trajectory`): G and each term are evaluated once, on
the window [t0, end] (starting at t0 with the linear interpolant of each
value when t0 falls between samples, so shifting the window start does not
quantize to the sample grid), and the averages use trapezoidal quadrature
under compensated summation so that horizons of 10^5+ samples do not
accumulate roundoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import NonFiniteError
from .integrate import Trajectory, langevin_ensemble, write_csv
from .systems import SystemSpec

__all__ = [
    "RESIDUAL_TOL",
    "GROWTH_FACTOR",
    "VirialReport",
    "growth_verdict",
    "virial_report",
    "ensemble_report",
    "report_text",
    "parse_report",
    "reduce_trajectory",
    "write_running_averages",
]

# Residual tolerance the verdict threshold is anchored to: bounded-G reports
# should show |residual_exact| below ~10x integrator tolerance, and a fitted
# growth of |G| is only meaningful once it clears that noise floor by a wide
# margin.
RESIDUAL_TOL = 1e-8
GROWTH_FACTOR = 100.0

# data rows of running_averages.csv at most: the averages converge like 1/T,
# and a plot of that needs about a thousand points, not one per sample
_AVERAGE_ROWS = 1000


def growth_verdict(times, g_values, t0: float = 0.0,
                   residual_tol: float = RESIDUAL_TOL):
    """Classify |G| over the averaging window as bounded or growing.

    Compares the max of |G| over the leading and trailing halves of the
    window; their difference per unit time estimates d max|G| / dt (exact
    for linearly growing G).  Returns (verdict, growth_rate); "growing"
    needs the rate to clear GROWTH_FACTOR * residual_tol AND the trailing
    max to genuinely exceed the leading one (by > 5%), so bounded
    oscillations whose sampled peaks jitter at discretization level stay
    "bounded".  A trailing max that is not finite (G overflowed) reads
    "growing" at rate inf.  `times` increase, so each half is a slice.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g_values, dtype=float)
    t_end = times[-1]
    t_mid = t0 + 0.5 * (t_end - t0)
    lead = slice(np.searchsorted(times, t0, "left"), np.searchsorted(times, t_mid, "right"))
    trail = slice(np.searchsorted(times, t_mid, "left"), len(times))
    if lead.stop - lead.start < 1 or trail.stop - trail.start < 2:
        return "bounded", 0.0
    # max |G| without an array the size of G: max and min propagate nan too
    m_lead, m_trail = (float(max(abs(g[part].max()), abs(g[part].min()))) for part in (lead, trail))
    if not math.isfinite(m_trail):
        return "growing", math.inf
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
# the one reduction pass over a deterministic trajectory

# samples handed to math.fsum as Python floats at a time
_FSUM_BLOCK = 8192


def _scalar_meta(source: dict) -> dict:
    return {
        k: v for k, v in source.items()
        if isinstance(v, (str, bool, int, float, np.integer, np.floating))
    }


def reduce_trajectory(
    system: SystemSpec,
    traj: Trajectory,
    *,
    t0: float = 0.0,
    residual_tol: float = RESIDUAL_TOL,
):
    """The report of one deterministic run and its running averages, from one pass.

    Returns (report, running): the `VirialReport` of the window [t0, end]
    of the chart the trajectory ran in, and the kept rows of
    `write_running_averages` as a dict from column name to values.  G is
    evaluated once; its window ends, kept rows and verdict (over the
    samples at or after t0) are read before it is dropped.  Then each term
    in turn is evaluated, its trapezoid contributions are formed in one
    scratch array, fed to math.fsum a block at a time and summed
    cumulatively in place, so beside the trajectory the pass holds a few
    columns of samples.  A component that was not recorded is passed as
    None, since G and the terms read only live roles.  The arithmetic runs
    unwarned, as the steppers' does: an overflowed G reads "growing".
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
    # the chart whose layout is the run's: its meta's "chart_layout" when it
    # recorded only some components (see `integrate_fixed`'s `keep`)
    layout = traj.meta.get("chart_layout", traj.layout)
    for chart_name, chart in system.charts.items():
        if chart.layout == layout:
            break
    else:
        raise ValueError(
            f"trajectory layout {layout} matches no chart of "
            f"'{system.name}' (have {[c.layout for c in system.charts.values()]})"
        )
    times = traj.times
    if not (times[0] <= t0 < times[-1]):
        raise ValueError(
            f"t0={t0:g} must lie inside the recorded span [{times[0]:g}, {times[-1]:g})"
        )
    # the window is its start at t0 and then the samples from `start` on;
    # its first value is the sample at t0, or the interpolant at weight w
    start, w = 1, None
    if t0 > times[0]:
        start = int(np.searchsorted(times, t0, side="left"))
        if times[start] > t0:
            w = (t0 - times[start - 1]) / (times[start] - times[start - 1])
        else:
            start += 1

    def first(v):
        return v[start - 1] if w is None else (1 - w) * v[start - 1] + w * v[start]

    t_end = float(times[-1])
    window = t_end - t0
    n = len(times) - start  # trapezoids in the window, one running-average row each
    stride = -(-n // _AVERAGE_ROWS)
    kept = slice((n - 1) % stride, None, stride)
    t_kept = times[start:][kept].copy()
    elapsed = t_kept - t0
    half_steps = np.subtract(times[start:], times[start - 1:-1])
    half_steps[0] = times[start] - t0
    half_steps *= 0.5

    recorded = dict(zip(traj.layout, traj.states.T))
    columns = [recorded.get(name) for name in chart.layout]
    with np.errstate(all="ignore"):
        g = np.asarray(chart.G(*columns), dtype=float)
        g0, gT = float(first(g)), float(g[-1])
        g_kept = g[start:][kept].copy()
        verdict, growth_rate = growth_verdict(times, g, t0, residual_tol)
        del g
        term_avgs, running = [], {"t": t_kept}
        signed_sum = np.zeros(len(t_kept))
        c = np.empty(n)
        for b in chart.terms:
            v = np.asarray(b.value(*columns), dtype=float)
            np.add(v[start:], v[start - 1:-1], out=c)
            c[0] = v[start] + first(v)
            del v
            c *= half_steps
            total = math.fsum(itertools.chain.from_iterable(
                c[i:i + _FSUM_BLOCK].tolist() for i in range(0, n, _FSUM_BLOCK)))
            term_avgs.append(float(total / window))
            avg = np.cumsum(c, out=c)[kept] / elapsed
            signed_sum = signed_sum + int(b.sign) * avg
            running[f"avg[{b.name}]"] = avg
        running["theorem_residual"] = signed_sum
        running["boundary"] = (g_kept - g0) / elapsed

    signs = tuple(int(b.sign) for b in chart.terms)
    theorem_residual = math.fsum(sign * avg for sign, avg in zip(signs, term_avgs))
    rate_avg = theorem_residual / chart.rate_scale
    boundary = (gT - g0) / window
    meta = _scalar_meta(traj.meta)
    meta.update({f"param.{k}": v for k, v in system.params.items()})
    return VirialReport(
        system=system.name,
        chart=chart_name,
        T=t_end,
        t0=float(t0),
        window=window,
        term_names=tuple(b.name for b in chart.terms),
        term_signs=signs,
        term_averages=tuple(term_avgs),
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
    ), running


# ---------------------------------------------------------------------------
# reports


def virial_report(
    system: SystemSpec,
    traj: Trajectory,
    *,
    t0: float = 0.0,
    residual_tol: float = RESIDUAL_TOL,
) -> VirialReport:
    """Assemble the averaged-rate report of one deterministic trajectory.

    The report of `reduce_trajectory`'s pass, which says what it reads;
    `t0` starts the averaging window late to skip transients.
    """
    return reduce_trajectory(system, traj, t0=t0, residual_tol=residual_tol)[0]


def ensemble_report(
    system: SystemSpec,
    n_traj: int,
    T: float,
    dt: float,
    seed: int = 0,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> VirialReport:
    """Averaged-rate report of a Langevin ensemble, with error bars.

    Member i draws the system's noise from child i of SeedSequence(seed),
    as `contactdyn ensemble --seed` does.  Term averages are ensemble means
    of the per-member horizon averages of the chart's own terms; errors are
    standard errors over the ensemble.
    `drive_friction` gains rate_scale times the realized Ito noise integral,
    which only the stepper can accumulate.  `residual_exact` is then the
    Euler-Maruyama scheme's first-order bias (see the module docstring),
    there without noise too, so the CLI's `ensemble` gates it at
    max(4 standard errors of the term sum over rate_scale, identity_tol)
    rather than at integrator tolerance.  Diverged members are dropped;
    NonFiniteError is raised when fewer than two remain.  A system without
    noise is refused with a ValueError that names it.
    """
    if system.noise is None:
        raise ValueError(
            f"'{system.name}' is deterministic; use virial_report on a trajectory"
        )
    if n_traj < 2:
        raise ValueError("an ensemble needs n_traj >= 2")
    noise = replace(system.noise, seed=seed)
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
    # a mean boundary that overflowed grows, though inf > inf is False
    growing = not math.isfinite(b_m) or abs(b_m) > max(3 * b_se, GROWTH_FACTOR * residual_tol)

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
    t0: float = 0.0,
) -> None:
    """CSV of per-term running averages vs horizon, for convergence plots.

    Columns: t, one running average per term, the running theorem residual
    (signed sum), and the running boundary term (G(t) - G(t0)) / (t - t0).
    The window and its trapezoid contributions are the report's, summed
    cumulatively over every sample past t0, in the same pass
    (`reduce_trajectory`).  Of those n rows at most `_AVERAGE_ROWS` are
    written: with stride k = ceil(n / _AVERAGE_ROWS), row i is kept when
    (n - 1 - i) % k == 0.  The row at the final sample is always written, a
    window of at most `_AVERAGE_ROWS` samples writes every row, and a
    written row is the same line whatever the stride.
    """
    running = reduce_trajectory(system, traj, t0=t0)[1]
    write_csv(path_or_file, list(running), list(running.values()))
