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

A deterministic report and its running averages come from a streaming
reduction (`Reduction`), a sink that the steppers feed one block of samples
at a time while they step, so a run of any horizon holds one block of
samples and at most `_AVERAGE_ROWS` kept rows.  G and each term are
evaluated once per sample, on the window [t0, end] (starting at t0 with
the linear interpolant of each value when t0 falls between samples, so
shifting the window start does not quantize to the sample grid); the
averages are trapezoidal quadratures whose contributions are summed
exactly (`_ExactSum`, rounded once, as math.fsum rounds), so horizons of
10^5+ samples do not accumulate roundoff.  `reduce_trajectory` feeds a
stored trajectory through the same reduction.
"""

from __future__ import annotations

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
    "Reduction",
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


class _HalfExtremes:
    """The max and min of G over the two halves of the window [t0, t_end], fed in blocks.

    The leading half holds the samples at times in [t0, t_mid], the
    trailing half those in [t_mid, t_end], with t_mid = t0 + (t_end - t0)/2.
    The running max and min propagate nan, as numpy's max and min do.
    """

    def __init__(self, t0: float, t_end: float):
        self.t0, self.t_end = t0, t_end
        self.t_mid = t0 + 0.5 * (t_end - t0)
        self.lead = [0, None, None]  # count, max, min
        self.trail = [0, None, None]

    def add(self, times: np.ndarray, g: np.ndarray) -> None:
        """Take the samples `g` at increasing `times`, which continue those taken before."""
        lead = slice(np.searchsorted(times, self.t0, "left"),
                     np.searchsorted(times, self.t_mid, "right"))
        trail = slice(np.searchsorted(times, self.t_mid, "left"), len(times))
        for half, part in ((self.lead, g[lead]), (self.trail, g[trail])):
            if part.size:
                hi, lo = part.max(), part.min()
                half[0] += part.size
                half[1] = hi if half[1] is None else np.maximum(half[1], hi)
                half[2] = lo if half[2] is None else np.minimum(half[2], lo)

    def verdict(self, residual_tol: float):
        """(verdict, growth_rate) of `growth_verdict` from the extremes taken."""
        if self.lead[0] < 1 or self.trail[0] < 2:
            return "bounded", 0.0
        # max |G| without an array the size of G: max and min propagate nan too
        m_lead, m_trail = (float(max(abs(hi), abs(lo))) for _, hi, lo in (self.lead, self.trail))
        if not math.isfinite(m_trail):
            return "growing", math.inf
        half = self.t_end - self.t_mid
        growth_rate = max(0.0, (m_trail - m_lead) / half)
        significant = (m_trail - m_lead) > 0.05 * max(m_trail, m_lead)
        growing = significant and growth_rate > GROWTH_FACTOR * residual_tol
        return ("growing" if growing else "bounded"), growth_rate


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
    "growing" at rate inf.  `times` increase; the window ends at the last.
    A `Reduction` reaches the same verdict from its blocks.
    """
    times = np.asarray(times, dtype=float)
    extremes = _HalfExtremes(t0, float(times[-1]))
    extremes.add(times, np.asarray(g_values, dtype=float))
    return extremes.verdict(residual_tol)


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
# the streaming reduction of a deterministic run

# a double is m * 2**e with m in [0.5, 1) (np.frexp) and e >= -1073, so it
# is the integer m * 2**53 times 2**(e + 1073) units of 2**-_UNIT_BITS
_UNIT_BITS = 1126
_HALF_BITS = 26
# samples a stored trajectory is fed to its reduction at a time
_REDUCE_ROWS = 4096


class _ExactSum:
    """The exact sum of float64 values added a block at a time, rounded once at the end.

    math.fsum needs every value in one call; this takes them in blocks, as
    a sink receives them, and keeps the sum as one Python int in units of
    2**-1126, the least subnormal being 2**52 of them (a long accumulator:
    Neal, "Fast exact summation using small and large superaccumulators",
    arXiv:1505.05571).  A block's values are split by np.frexp into 53-bit
    integer significands and exponents; the significands are summed per
    exponent in two 26-bit halves (np.add.reduceat over the values sorted
    by exponent), so no int64 sum can overflow, and each exponent's sums are
    shifted into the int.  `value` divides the int by 2**1126, which Python
    rounds correctly, so it is the sum that math.fsum gives, and an exact
    zero is +0.0.  Non-finite values follow fsum's rules: any nan gives
    nan, infinities of one sign give that infinity, and infinities of both
    signs raise ValueError.  A finite sum beyond the doubles raises
    OverflowError, as fsum's does.
    """

    def __init__(self):
        self._acc = 0
        self._nan = self._pos = self._neg = False

    def add(self, values: np.ndarray) -> None:
        x = np.asarray(values, dtype=float).ravel()
        finite = np.isfinite(x)
        if not finite.all():
            odd = x[~finite]
            self._nan |= bool(np.isnan(odd).any())
            self._pos |= bool((odd > 0).any())
            self._neg |= bool((odd < 0).any())
            x = x[finite]
        if not x.size:
            return
        m, e = np.frexp(x)
        order = np.argsort(e, kind="stable")
        e = e[order]
        significand = (m[order] * 2.0 ** 53).astype(np.int64)
        starts = np.flatnonzero(np.diff(e, prepend=e[0] - 1))
        high = np.add.reduceat(significand >> _HALF_BITS, starts)
        low = np.add.reduceat(significand & ((1 << _HALF_BITS) - 1), starts)
        acc = 0
        for shift, h, lo in zip((e[starts] + 1073).tolist(), high.tolist(), low.tolist()):
            acc += ((h << _HALF_BITS) + lo) << shift
        self._acc += acc

    def value(self) -> float:
        if self._pos and self._neg:
            raise ValueError("-inf + inf in the exact sum")
        if self._nan:
            return math.nan
        if self._pos or self._neg:
            return math.inf if self._pos else -math.inf
        return self._acc / (1 << _UNIT_BITS)


def _scalar_meta(source: dict) -> dict:
    return {
        k: v for k, v in source.items()
        if isinstance(v, (str, bool, int, float, np.integer, np.floating))
    }


class Reduction:
    """The report of one deterministic run and its running averages, fed as the run steps.

    A sink (see `integrate._Feed`): the stepper calls it with each block
    of samples, and `result(meta)` then gives (report, running), the
    `VirialReport` of the window [t0, t_end] of chart `chart_name` and the
    kept rows of `write_running_averages` as a dict from column name to
    values.  `n_window`, the number of samples at times after t0, fixes
    the kept rows before the first block arrives: with stride k =
    ceil(n_window / _AVERAGE_ROWS), window row i is kept when
    (n_window - 1 - i) % k == 0.  The steppers give it
    (`integrate.fixed_samples_after`, `integrate.adaptive_samples_after`);
    `reduce_trajectory` counts a stored trajectory's.

    Samples before the window are dropped as they come, but the last one,
    from which the window starts.  On each block, G and each term are
    evaluated once, on the block's window samples; the first window
    sample's trapezoid reaches back to the previous block's last sample, or
    to t0, where the value is the sample there or the linear interpolant of
    the samples around it.  Per block the reduction keeps, for each term,
    the trapezoid contributions' exact sum (`_ExactSum`) and their running
    cumulative sum (the previous block's carried into the first
    contribution, as `np.cumsum` would add it), read at the kept rows; G at
    the kept rows and at the ends; and the extremes of G over each half of
    the window for `growth_verdict`, whose middle comes from t_end.  So
    the reduction holds one block and at most _AVERAGE_ROWS kept rows,
    whatever the run's length, and every number is the one that a pass over
    the stored samples gives.  A component that was not recorded is passed
    as None, since G and the terms read only live roles.  The arithmetic
    runs unwarned, as the steppers' does: an overflowed G reads "growing".
    """

    def __init__(self, system: SystemSpec, chart_name: str, *, t0: float, t_end: float,
                 n_window: int, residual_tol: float = RESIDUAL_TOL):
        if system.noise is not None:
            raise ValueError(
                f"'{system.name}' is stochastic: its runs have no pathwise rate; "
                "use ensemble_report"
            )
        self.system, self.chart_name = system, chart_name
        self.chart = system.charts[chart_name]
        self.t0, self.t_end, self.n_window = float(t0), float(t_end), int(n_window)
        self.residual_tol = residual_tol
        self._stride = -(-self.n_window // _AVERAGE_ROWS)
        self._columns = None  # per chart layout name: its column in the blocks, or None
        self._before = None  # the last sample before the window started: (times, states)
        self._rows = 0  # window samples taken
        self._last = None  # time and term values at the last window sample taken (or at t0)
        self._g0 = self._gT = None
        self._extremes = _HalfExtremes(self.t0, self.t_end)
        self._sums = [_ExactSum() for _ in self.chart.terms]
        self._carry = [None] * len(self.chart.terms)
        # the kept rows, filled in order: t, G, then each term's running average
        self._kept = np.empty((2 + len(self.chart.terms), (self.n_window - 1) // self._stride + 1))
        self._n_kept = 0

    def __call__(self, times: np.ndarray, states: np.ndarray, layout: tuple) -> None:
        if self._columns is None:
            self._columns = [layout.index(n) if n in layout else None for n in self.chart.layout]
        if self._last is None:
            # the window starts at the first sample past t0, from the one before it
            i = int(np.searchsorted(times, self.t0, "right"))
            if i == 0 and self._before is None:
                raise ValueError(f"t0={self.t0:g} lies before the first sample, "
                                 f"at {float(times[0]):g}")
            if i == len(times):
                self._before = times[-1:].copy(), states[-1:].copy()
                return
            if i == 0:
                times = np.concatenate((self._before[0], times))
                states = np.concatenate((self._before[1], states))
            else:
                times, states = times[i - 1:], states[i - 1:]
            self._before = None
        with np.errstate(all="ignore"):
            self._take(times, states)

    def _values(self, states: np.ndarray):
        """G and each term at the rows of `states`."""
        columns = [None if j is None else states[:, j] for j in self._columns]
        return (np.asarray(self.chart.G(*columns), dtype=float),
                [np.asarray(b.value(*columns), dtype=float) for b in self.chart.terms])

    def _take(self, times: np.ndarray, states: np.ndarray) -> None:
        g, terms = self._values(states)
        if self._last is None:
            # row 0 is the last sample at or before t0: the window's first
            # value is that sample at t0, or the interpolant at weight w
            w = None
            if times[0] != self.t0:
                w = (self.t0 - times[0]) / (times[1] - times[0])

            def first(v):
                return v[0] if w is None else (1 - w) * v[0] + w * v[1]

            self._g0 = float(first(g))
            self._extremes.add(times[:1], g[:1])
            self._last = self.t0, [first(v) for v in terms]
            times, g, terms = times[1:], g[1:], [v[1:] for v in terms]
        self._extremes.add(times, g)
        t_prev, v_prev = self._last
        m = len(times)
        half_steps = np.empty(m)
        np.subtract(times[1:], times[:-1], out=half_steps[1:])
        half_steps[0] = times[0] - t_prev
        half_steps *= 0.5
        kept = slice((self.n_window - 1 - self._rows) % self._stride, None, self._stride)
        rows = slice(self._n_kept, self._n_kept + len(range(m)[kept]))
        self._n_kept = rows.stop
        elapsed = times[kept] - self.t0
        self._kept[0, rows] = times[kept]
        self._kept[1, rows] = g[kept]
        for k, v in enumerate(terms):
            c = np.empty(m)
            np.add(v[1:], v[:-1], out=c[1:])
            c[0] = v[0] + v_prev[k]
            c *= half_steps
            self._sums[k].add(c)
            if self._carry[k] is not None:
                c[0] = self._carry[k] + c[0]
            np.cumsum(c, out=c)
            self._carry[k] = c[-1]
            np.divide(c[kept], elapsed, out=self._kept[2 + k, rows])
        self._rows += m
        self._gT = float(g[-1])
        self._last = float(times[-1]), [v[-1] for v in terms]

    def result(self, meta: dict):
        """(report, running) of the samples taken; `meta` is the run's, as a Trajectory's."""
        if self._rows != self.n_window or self._last[0] != self.t_end:
            raise ValueError(
                f"the run fed {self._rows} samples after t0 = {self.t0:g} up to "
                f"t = {self._last[0] if self._last else math.nan:g}; the reduction "
                f"expected {self.n_window} up to {self.t_end:g}"
            )
        chart, window = self.chart, self.t_end - self.t0
        t_kept, g_kept, *averages = self._kept
        elapsed = t_kept - self.t0
        term_avgs, running = [], {"t": t_kept}
        signed_sum = np.zeros(len(elapsed))
        with np.errstate(all="ignore"):
            for b, total, avg in zip(chart.terms, self._sums, averages):
                term_avgs.append(float(total.value() / window))
                signed_sum = signed_sum + int(b.sign) * avg
                running[f"avg[{b.name}]"] = avg
            running["theorem_residual"] = signed_sum
            running["boundary"] = (g_kept - self._g0) / elapsed
        verdict, growth_rate = self._extremes.verdict(self.residual_tol)

        signs = tuple(int(b.sign) for b in chart.terms)
        theorem_residual = math.fsum(sign * avg for sign, avg in zip(signs, term_avgs))
        rate_avg = theorem_residual / chart.rate_scale
        boundary = (self._gT - self._g0) / window
        info = _scalar_meta(meta)
        info.update({f"param.{k}": v for k, v in self.system.params.items()})
        return VirialReport(
            system=self.system.name,
            chart=self.chart_name,
            T=self.t_end,
            t0=self.t0,
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
            G_initial=self._g0,
            G_final=self._gT,
            verdict=verdict,
            growth_rate=growth_rate,
            meta=info,
        ), running


def reduce_trajectory(
    system: SystemSpec,
    traj: Trajectory,
    *,
    t0: float = 0.0,
    residual_tol: float = RESIDUAL_TOL,
):
    """The report of one stored deterministic run and its running averages.

    Returns (report, running), as `Reduction.result` does: the trajectory
    is fed to a `Reduction` of the chart whose layout it has (its meta's
    "chart_layout" when it recorded only some components, see
    `integrate_fixed`'s `keep`), _REDUCE_ROWS samples at a time, so beside
    the trajectory the pass holds one block's values.
    """
    if traj.aborted:
        raise ValueError(
            f"trajectory aborted ({traj.abort_reason}); no report assembled"
        )
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
    reduction = Reduction(system, chart_name, t0=t0, t_end=float(times[-1]),
                          n_window=len(times) - int(np.searchsorted(times, t0, "right")),
                          residual_tol=residual_tol)
    for i in range(0, len(times), _REDUCE_ROWS):
        reduction(times[i:i + _REDUCE_ROWS], traj.states[i:i + _REDUCE_ROWS], traj.layout)
    return reduction.result(traj.meta)


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
