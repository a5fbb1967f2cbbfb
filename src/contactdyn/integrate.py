"""Trajectory generation and numerically careful time averaging.

The deterministic steppers hold one trajectory's state as a tuple of
Python floats and advance it through a right-hand-side callable
``rhs(t, y) -> dy``: `y` is a tuple of d floats and `dy` any length-d
sequence of floats (a tuple from the catalog charts; an ndarray also works,
since the steppers only iterate over it).  On 3- and 4-component states
float arithmetic costs a fraction of numpy's per-call overhead.  Chart
packing (which component is s, q, p, ...) is the caller's business and is
recorded in the trajectory's ``layout``.  Three steppers are provided:
classical fixed-step RK4, an embedded RK4(5) pair with cubic-Hermite dense
output, and one Euler-Maruyama loop over a stochastic chart's drift and
terms, shared by single runs and ensembles (members are bit-identical to
single runs with matching seeds).

Deterministic averages use trapezoidal quadrature under compensated
summation so that horizons of 10^5+ samples do not accumulate roundoff.
"""

from __future__ import annotations

import math
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .core import NonFiniteError, DomainError

__all__ = [
    "Trajectory",
    "NoiseSpec",
    "LangevinEnsembleStats",
    "integrate_fixed",
    "integrate_adaptive",
    "euler_maruyama_langevin",
    "langevin_ensemble",
    "trapezoid_average",
    "write_trajectory_csv",
]

# fixed-step samples are recorded every this many steps unless overridden
DEFAULT_SAMPLE_EVERY = 10

# adaptive step controller bounds
_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0
_UNDERFLOW_FRACTION = 1e-12   # abort when h < this fraction of the horizon

# float arithmetic raises OverflowError / ZeroDivisionError where numpy
# would return inf; either way the step has no usable derivative
_FIELD_ERRORS = (
    NonFiniteError,
    DomainError,
    OverflowError,
    FloatingPointError,
    ZeroDivisionError,
)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of a flat state vector.

    Attributes
    ----------
    times : ndarray (N,)
        Strictly increasing sample times.
    states : ndarray (N, d)
        One state row per sample, components named by `layout`.
    layout : tuple of str
        Component names, e.g. ("s", "q[0]", "p[0]").
    meta : dict
        System name, parameters, integrator, step/tolerance, seed, counters.
    aborted : bool
        True if integration stopped early; the recorded samples are the
        valid prefix.
    abort_reason : str
        Machine-readable reason ("" when not aborted).
    """

    times: np.ndarray
    states: np.ndarray
    layout: tuple
    meta: dict = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "layout", tuple(self.layout))
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError(
                f"times {times.shape} and states {states.shape} are inconsistent"
            )
        if states.shape[1] != len(self.layout):
            raise ValueError(
                f"layout names {len(self.layout)} components, states have {states.shape[1]}"
            )
        if times.size == 0:
            raise ValueError("trajectory must contain at least the initial sample")
        if times.size > 1 and not (np.diff(times) > 0).all():
            raise ValueError("times must be strictly increasing")
        if not (np.isfinite(times).all() and np.isfinite(states).all()):
            raise NonFiniteError("trajectory samples must be finite")

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def n_samples(self) -> int:
        return self.times.size

    def column(self, name: str) -> np.ndarray:
        """All samples of one named component."""
        return self.states[:, self.layout.index(name)]


@dataclass(frozen=True)
class NoiseSpec:
    """Thermal-noise parameters of a stochastic chart.

    The diffusion amplitude is sqrt(2 m gamma k_BT); k_BT = 0 is accepted
    and reduces the stepper to deterministic Euler.
    """

    m: float
    gamma: float
    k_BT: float
    seed: int

    def __post_init__(self):
        if not (self.m > 0 and self.gamma > 0):
            raise ValueError("need m > 0 and gamma > 0")
        if not (self.k_BT >= 0 and math.isfinite(self.k_BT)):
            raise ValueError("need finite k_BT >= 0")
        if not math.isfinite(self.amplitude):
            raise ValueError("diffusion amplitude must be finite")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def amplitude(self) -> float:
        """sqrt(2 m gamma k_BT), the noise strength multiplying dW."""
        return math.sqrt(2.0 * self.m * self.gamma * self.k_BT)


def trapezoid_average(times: np.ndarray, values: np.ndarray, t0: float = 0.0) -> float:
    """Trapezoidal time average of sampled values over [max(t0, start), end].

    Uses exact compensated summation (math.fsum) of the trapezoid
    contributions.  If t0 falls between samples the boundary value is
    obtained by linear interpolation, so shifting the window start does not
    quantize to the sample grid.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size == 0:
        raise ValueError("times and values must be equal-length and non-empty")
    if t0 > times[-1]:
        raise ValueError(f"window start {t0} lies beyond the final sample {times[-1]}")
    if t0 > times[0]:
        i = int(np.searchsorted(times, t0, side="left"))
        if times[i] > t0:
            w = (t0 - times[i - 1]) / (times[i] - times[i - 1])
            v0 = (1 - w) * values[i - 1] + w * values[i]
            times = np.concatenate(([t0], times[i:]))
            values = np.concatenate(([v0], values[i:]))
        else:
            times, values = times[i:], values[i:]
    if times.size == 1:
        return float(values[0])
    dts = np.diff(times)
    contributions = dts * 0.5 * (values[1:] + values[:-1])
    return math.fsum(contributions.tolist()) / (times[-1] - times[0])


# ---------------------------------------------------------------------------
# fixed-step RK4


def _initial_state(y0: Sequence[float], layout: Sequence[str]) -> tuple:
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or y.size != len(layout):
        raise ValueError(f"y0 must be a flat vector of length {len(layout)}")
    return tuple(y.tolist())


def integrate_fixed(
    rhs: Callable[[float, tuple], Sequence[float]],
    y0: Sequence[float],
    T: float,
    dt: float,
    *,
    layout: Sequence[str],
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    meta: dict | None = None,
) -> Trajectory:
    """Classical 4th-order Runge-Kutta with a shortened final step onto T.

    Samples are recorded at the initial state, every `sample_every`-th step,
    and at the final time.  On the first non-finite state (or an evaluation
    error from `rhs`) the trajectory is truncated at the last good sample
    and returned with ``aborted=True`` and a machine-readable reason.

    Parameters
    ----------
    rhs : callable
        (t, y) -> dy/dt; `y` is a tuple of floats, dy a length-d sequence.
    y0 : sequence of float
        Initial state, matching `layout`.
    T, dt : float
        Horizon (> 0) and step (0 < dt <= T).
    """
    if not (T > 0):
        raise ValueError("need T > 0")
    if not (0 < dt <= T):
        raise ValueError("need 0 < dt <= T")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    y = _initial_state(y0, layout)

    n_full = int(math.floor(T / dt + 1e-12))
    rem = T - n_full * dt
    if rem < 1e-12 * dt:
        rem = 0.0

    times = [0.0]
    states = array("d", y)  # samples, row after row
    aborted = False
    reason = ""
    t = 0.0
    n_steps = n_full + (1 if rem > 0 else 0)
    # an rhs computing in numpy overflows to inf/nan, which the finiteness
    # test below catches, so its warnings are silenced
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            h = dt if k < n_full else rem
            hh = 0.5 * h
            h6 = h / 6.0
            try:
                k1 = rhs(t, y)
                k2 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k1)]))
                k3 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k2)]))
                k4 = rhs(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
                y_new = tuple([a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                               for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
            except _FIELD_ERRORS as exc:
                aborted, reason = True, f"field evaluation failed at t={t:.6g}: {exc}"
                break
            t_new = T if k == n_steps - 1 else (k + 1) * dt
            if not all(map(math.isfinite, y_new)):
                aborted, reason = True, f"non-finite state at t={t_new:.6g}"
                break
            y, t = y_new, t_new
            if (k + 1) % sample_every == 0 or k == n_steps - 1:
                if t > times[-1]:
                    times.append(t)
                    states.extend(y)

    info = dict(meta or {})
    info.setdefault("integrator", "rk4")
    info.update(dt=dt, T=T, sample_every=sample_every)
    return Trajectory(
        times=np.array(times),
        states=np.frombuffer(states).reshape(-1, len(layout)),
        layout=tuple(layout),
        meta=info,
        aborted=aborted,
        abort_reason=reason,
    )


# ---------------------------------------------------------------------------
# embedded RK4(5), Fehlberg coefficients, cubic Hermite dense output

_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _weighted_sum(coeffs, ks) -> list:
    """Per component, coeffs[0]*ks[0][j] + coeffs[1]*ks[1][j] + ..., left to right."""
    sums = [coeffs[0] * v for v in ks[0]]
    for c, k in zip(coeffs[1:], ks[1:]):
        sums = [s + c * v for s, v in zip(sums, k)]
    return sums


def _hermite(theta: float, y0, d0, y1, d1, h: float) -> tuple:
    t2, t3 = theta * theta, theta * theta * theta
    c0 = 2 * t3 - 3 * t2 + 1
    c1 = (t3 - 2 * t2 + theta) * h
    c2 = -2 * t3 + 3 * t2
    c3 = (t3 - t2) * h
    return tuple([c0 * a + c1 * b + c2 * c + c3 * d
                  for a, b, c, d in zip(y0, d0, y1, d1)])


def integrate_adaptive(
    rhs: Callable[[float, tuple], Sequence[float]],
    y0: Sequence[float],
    T: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    *,
    layout: Sequence[str],
    sample_interval: float | None = None,
    first_step: float | None = None,
    meta: dict | None = None,
) -> Trajectory:
    """Embedded Runge-Kutta 4(5) with proportional step control.

    The 4th-order solution is propagated; the embedded 5th-order difference
    drives the controller h <- h * clip(0.9 err^(-1/5), 0.2, 5).  Samples
    are produced on a uniform grid of spacing `sample_interval` (default
    T/1000) by cubic Hermite interpolation using the stage-1 derivatives at
    both step ends, plus the exact endpoint T.  `rhs` follows the contract
    of `integrate_fixed`.

    A step shrinking below 1e-12 * T aborts the trajectory (stiffness or
    singularity signal); evaluation failures shrink the step first and only
    abort on underflow.
    """
    if not (T > 0):
        raise ValueError("need T > 0")
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    if sample_interval is None:
        sample_interval = T / 1000.0
    if not (0 < sample_interval <= T):
        raise ValueError("need 0 < sample_interval <= T")
    y = _initial_state(y0, layout)
    d = len(y)

    h_min = _UNDERFLOW_FRACTION * T
    h = first_step if first_step is not None else min(T / 100.0, 1.0)
    h = min(h, T)

    times = [0.0]
    states = array("d", y)  # samples, row after row
    next_sample = sample_interval
    t = 0.0
    aborted = False
    reason = ""
    n_accept = n_reject = 0
    d_left = None  # derivative at the left end of the current step

    with np.errstate(all="ignore"):
        while t < T and not aborted:
            h = min(h, T - t)
            if h < h_min:
                aborted, reason = True, (
                    f"step underflow at t={t:.6g} (h={h:.3e} < {h_min:.3e})"
                )
                break
            try:
                if d_left is None:
                    d_left = rhs(t, y)
                k = [d_left]
                for i in range(1, 6):
                    yi = tuple([a + h * b for a, b in zip(y, _weighted_sum(_A[i], k))])
                    k.append(rhs(t + _C[i] * h, yi))
                y_new = tuple([a + h * b for a, b in zip(y, _weighted_sum(_B4, k))])
                err_vec = [h * b for b in _weighted_sum(_ERR, k)]
            except _FIELD_ERRORS as exc:
                h *= _SHRINK_MIN
                n_reject += 1
                if h < h_min:
                    aborted, reason = True, (
                        f"field evaluation failed at t={t:.6g} with no recoverable step: {exc}"
                    )
                continue
            if not all(map(math.isfinite, y_new)):
                h *= _SHRINK_MIN
                n_reject += 1
                continue
            sq = 0.0
            for e, a, b in zip(err_vec, y, y_new):
                r = e / (abs_tol + rel_tol * max(abs(a), abs(b)))
                sq += r * r
            err = math.sqrt(sq / d)
            if not math.isfinite(err):
                h *= _SHRINK_MIN
                n_reject += 1
                continue
            if err <= 1.0:
                t_new = t + h
                try:
                    d_right = rhs(t_new, y_new)
                except _FIELD_ERRORS as exc:
                    aborted, reason = True, (
                        f"field evaluation failed at accepted state t={t_new:.6g}: {exc}"
                    )
                    break
                # dense output over (t, t_new]
                while next_sample <= t_new + 1e-14 * T and next_sample < T - 1e-14 * T:
                    if next_sample > times[-1]:
                        times.append(next_sample)
                        states.extend(_hermite((next_sample - t) / h,
                                               y, d_left, y_new, d_right, h))
                    next_sample += sample_interval
                y, t, d_left = y_new, t_new, d_right
                n_accept += 1
                if t >= T * (1.0 - 1e-14):
                    if T > times[-1]:
                        times.append(T)
                        states.extend(y)
                    break
            else:
                n_reject += 1
            factor = _SAFETY * err ** (-0.2) if err > 0 else _GROW_MAX
            h *= min(_GROW_MAX, max(_SHRINK_MIN, factor))

    info = dict(meta or {})
    info.setdefault("integrator", "rkf45")
    info.update(
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        T=T,
        sample_interval=sample_interval,
        n_accepted=n_accept,
        n_rejected=n_reject,
    )
    return Trajectory(
        times=np.array(times),
        states=np.frombuffer(states).reshape(-1, len(layout)),
        layout=tuple(layout),
        meta=info,
        aborted=aborted,
        abort_reason=reason,
    )


# ---------------------------------------------------------------------------
# Euler-Maruyama over a stochastic chart, vectorized over members

# member-steps recorded per block: bounds a block's memory whatever n_traj is
_BLOCK_MEMBER_STEPS = 1 << 19
# steps per partial sum of the term averages: roundoff grows with about
# _SUM_STEPS + n_steps / _SUM_STEPS additions instead of n_steps
_SUM_STEPS = 1024


@dataclass(frozen=True)
class LangevinEnsembleStats:
    """Per-member horizon averages from an Euler-Maruyama run.

    `term_averages[k, i]` is member i's trapezoid average over [0, T] of the
    chart's k-th term.  `noise_virial` is (1/T) * sum of q * dW -- the Ito
    integral (1/T)∫q η dt realized by the discretization, which no post-hoc
    resampling of states can recover.  The other arrays have length n_traj.
    """

    n_traj: int
    T: float
    dt: float
    seed: int
    term_averages: np.ndarray
    noise_virial: np.ndarray
    G_initial: np.ndarray
    G_final: np.ndarray


def _records(layout: tuple, states: np.ndarray) -> SimpleNamespace:
    """Step-major block states as chart terms read them: column(name) is (steps, n_traj)."""
    return SimpleNamespace(column=lambda name: states[:, layout.index(name)])


def _langevin_core(chart, noise: NoiseSpec, T: float, dt: float, n_traj: int,
                   sample_every: int | None):
    """Euler-Maruyama over n_traj independent noise streams of one chart.

    The drift is the chart's rhs, evaluated on per-member arrays.  Per step
    the thermal force dW enters p, and -q*eta enters h, so s also gains
    q * dW/dt.  Single runs and ensemble members share this path, so every
    emitted number is identical for a given per-member seed.  Per-member
    generators are PCG64 streams seeded with seed XOR member index.

    Returns the stats and, when `sample_every` is set, the states of shape
    (N, d, n_traj) at step 0, every sample_every-th step and T.
    """
    if chart.layout != ("t", "s", "q[0]", "p[0]"):
        raise ValueError(f"Euler-Maruyama steps (t, s, q[0], p[0]), not {chart.layout}")
    if not (T > 0 and 0 < dt <= T):
        raise ValueError("need T > 0 and 0 < dt <= T")
    if noise.gamma * dt >= 0.1:
        raise ValueError(
            f"gamma*dt = {noise.gamma * dt:.3g} >= 0.1: step too coarse for the damping rate"
        )
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError("T must be an integer number of Langevin steps (T = n*dt)")

    amp = noise.amplitude * math.sqrt(dt)
    gens = [np.random.Generator(np.random.PCG64(noise.seed ^ i)) for i in range(n_traj)]
    block = min(n_steps, max(1, _BLOCK_MEMBER_STEPS // n_traj))
    rec = np.empty((block + 1, len(chart.layout), n_traj))
    rec[0] = chart.x0[:, None]
    t, s, q, p = 0.0, rec[0, 1], rec[0, 2], rec[0, 3]
    G_initial = chart.G(_records(chart.layout, rec[:1]))[0]
    samples = [rec[:1].copy()]
    sums = np.zeros((len(chart.terms), n_traj))
    partial = np.zeros_like(sums)
    noise_sum = np.zeros(n_traj)

    step = 0
    # stiff parameter choices blow up through inf/nan; callers detect that
    # in the returned stats and samples, so the arithmetic runs unwarned
    with np.errstate(all="ignore"):
        while step < n_steps:
            nb = min(block, n_steps - step)
            if amp > 0.0:
                dW = np.stack([g.standard_normal(nb) for g in gens], axis=1) * amp
            else:
                dW = np.zeros((nb, n_traj))
            ks = np.arange(step + 1, step + nb + 1)
            t_next = np.where(ks < n_steps, ks * dt, T)
            rec[1:nb + 1, 0] = t_next[:, None]
            for j, t_new in enumerate(t_next.tolist()):
                dWj = dW[j]
                _, ds, dq, dp = chart.rhs(t, (t, s, q, p))
                noise_sum += q * dWj
                s = rec[j + 1, 1] = s + dt * (ds + q * (dWj / dt))
                q = rec[j + 1, 2] = q + dt * dq
                p = rec[j + 1, 3] = p + dt * dp + dWj
                t = t_new
            # trapezoid over the block, one row at a time and in partial
            # sums over fixed step ranges, so that a member's sums do not
            # depend on n_traj (which sets the block length)
            block_states = _records(chart.layout, rec[:nb + 1])
            vals = np.stack([b.values(block_states) for b in chart.terms], axis=1)
            for k, row in zip(ks.tolist(), dt * 0.5 * (vals[:-1] + vals[1:])):
                partial += row
                if k % _SUM_STEPS == 0:
                    sums += partial
                    partial[:] = 0.0
            if sample_every is not None:
                samples.append(rec[1:nb + 1][(ks % sample_every == 0) | (ks == n_steps)])
            rec[0] = rec[nb]
            step += nb

    stats = LangevinEnsembleStats(
        n_traj=n_traj,
        T=T,
        dt=dt,
        seed=noise.seed,
        term_averages=(sums + partial) / T,
        noise_virial=noise_sum / T,
        G_initial=G_initial,
        G_final=chart.G(_records(chart.layout, rec[:1]))[0],
    )
    return stats, (np.concatenate(samples) if sample_every is not None else None)


def euler_maruyama_langevin(
    chart,
    noise: NoiseSpec,
    T: float,
    dt: float,
    *,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    meta: dict | None = None,
) -> Trajectory:
    """One realization of a stochastic chart with additive thermal noise.

    State layout (t, s, q, p).  Per step, with dW = amplitude*sqrt(dt)*N(0,1):
    p gains its Euler drift plus dW; the same realized increment divided by
    dt stands in for the noise in the s equation (left-point q); q and s
    advance by Euler drift.  Identical seed => bit-identical trajectory.

    The trajectory's meta carries `stats`, the realized horizon averages
    including the Ito noise-virial integral (1/T)∫ q dW, which downstream
    reports need and cannot rebuild from samples.  A run that diverges is
    truncated at its last finite sample and returned with ``aborted=True``,
    as `integrate_fixed` does.
    """
    stats, samples = _langevin_core(chart, noise, T, dt, 1, sample_every)
    rows = samples[:, :, 0]
    finite = np.isfinite(rows).all(axis=1)
    aborted = not finite.all()
    n_finite = int(finite.argmin()) if aborted else len(rows)
    reason = f"non-finite state at t={rows[n_finite, 0]:.6g}" if aborted else ""
    info = dict(meta or {})
    info.setdefault("integrator", "euler-maruyama")
    info.update(dt=dt, T=T, seed=noise.seed, sample_every=sample_every, stats=stats)
    return Trajectory(
        times=rows[:n_finite, 0],
        states=rows[:n_finite],
        layout=chart.layout,
        meta=info,
        aborted=aborted,
        abort_reason=reason,
    )


def langevin_ensemble(chart, noise: NoiseSpec, T: float, dt: float,
                      n_traj: int) -> LangevinEnsembleStats:
    """Horizon averages for n_traj independent realizations of a stochastic chart.

    Member i uses the stream seeded with noise.seed XOR i; its entries in
    the returned arrays are bit-identical to the single run with that seed.
    Only the per-member averages that ensemble reports need are kept.
    """
    if n_traj < 1:
        raise ValueError("need n_traj >= 1")
    return _langevin_core(chart, noise, T, dt, n_traj, None)[0]


# ---------------------------------------------------------------------------
# CSV export

_CSV_BLOCK_ROWS = 8192


def write_csv(path_or_file, names: Sequence[str], rows: np.ndarray) -> None:
    """Write a header of `names` and one line per row, every number as %.17g.

    17 significant digits round-trip every double, so the file reproduces
    `rows` exactly.  `path_or_file` is a path or an open text stream.  Rows
    are formatted and written in blocks, so memory stays flat in the row
    count.
    """
    template = ",".join(["%.17g"] * len(names))
    if hasattr(path_or_file, "write"):
        target = nullcontext(path_or_file)
    else:
        target = open(path_or_file, "w", encoding="utf-8", newline="\n")
    with target as out:
        out.write(",".join(names) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS].tolist()
            out.write("\n".join([template % tuple(row) for row in block]) + "\n")


def write_trajectory_csv(traj: Trajectory, path, observables: dict | None = None) -> None:
    """Write `t,<components>,<observables>` rows with 17 significant digits.

    `observables` maps column name -> per-sample ndarray.  Every emitted
    number round-trips to the same double.
    """
    obs = observables or {}
    for name, vals in obs.items():
        if len(vals) != traj.n_samples:
            raise ValueError(f"observable '{name}' has {len(vals)} values, "
                             f"expected {traj.n_samples}")
    rows = np.column_stack([traj.times, traj.states,
                            *(np.asarray(vals, dtype=float) for vals in obs.values())])
    write_csv(path, ["t", *traj.layout, *obs.keys()], rows)
