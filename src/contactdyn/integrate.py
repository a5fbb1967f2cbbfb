"""Trajectory generation and CSV export.

The deterministic steppers hold one trajectory's state as a tuple of
Python floats and advance it through a right-hand-side callable
``rhs(t, y) -> dy``: `y` is a tuple of d floats and `dy` exactly d floats
(a tuple from the catalog charts; an ndarray also works, since the steppers
only unpack it).  A result of any other length raises ValueError at the
first evaluation.  On 3- and 4-component states float arithmetic costs a
fraction of numpy's per-call overhead, so the schemes step through
generated straight-line code that holds the stages in scalars.

A catalog chart is stated once, as one form (`StraightLine`), from which
its rhs, G and terms are rendered (in `systems`) and the two loops below
are rendered on first use.  Fixed-step RK4 runs one generated loop over all
its steps: a catalog rhs carries its form as `rhs.straight_line`, and the
loop inlines the form's statements into every stage with the parameters as
constants, so it calls nothing; any other rhs is called once per stage.
A run that records no trajectory (`keep=()`: a report reads only G and
the terms) steps only the live roles, so a virial report of a chart whose
(q, p) rows read no s steps (q, p) alone; without a sink, a run that fails
that way is stepped again in full, so that its abort is the full run's.
Euler-Maruyama over a stochastic chart, shared by single runs and
ensembles (member 0 is bit-identical to the single run with the same
seed), runs a loop that inlines the drift, the terms, G, the noise entry,
the trapezoid sums and the sample rows.  It reads the form from the chart,
never through the rhs, and steps only the live roles, those that the run's
outputs read: an ensemble of a chart whose (q, p) rows do not read s steps
(q, p) alone.  Per step it only advances the state, into buffers of one
block of _BLOCK_STEPS steps; the terms, their running trapezoid sums, the
noise sum and the kept samples are taken once per block over those rows,
so a run needs O(n_traj) memory plus a fixed noise buffer and the block
buffers whatever the horizon.
The embedded RK4(5) pair steps through a straight-line kernel generated
once per state width, and its cubic-Hermite dense output
is evaluated in numpy passes over chunks of accepted steps.

The steppers hand their samples to a sink a block at a time (`_Feed`):
RK4 and Euler-Maruyama at most _SINK_ROWS at a time and at the end, RKF45
each dense-output pass and then T.  Given a sink, such as a report's
`virial.Reduction` or `TrajectoryCsv`, a run holds one block whatever T
is and returns a `RunSummary`; given none, a collecting sink keeps the
samples and the run returns its `Trajectory`.  Chart packing
(which component is s, q, p, ...) is the caller's business and is recorded
in the trajectory's ``layout``.

The member ranges of an ensemble are independent: they run on every CPU
of the process's affinity set through a fork-join helper (`_forked`), and
the outputs do not depend on how many CPUs there are; ``taskset -c 0``
pins a run to one.
"""

from __future__ import annotations

import ast
import functools
import linecache
import math
import os
import pickle
import signal
import sys
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import NonFiniteError, DomainError

__all__ = [
    "Trajectory",
    "RunSummary",
    "TrajectoryCsv",
    "NoiseSpec",
    "LangevinEnsembleStats",
    "integrate_fixed",
    "integrate_adaptive",
    "euler_maruyama_langevin",
    "langevin_ensemble",
    "write_trajectory_csv",
    "fixed_samples_after",
    "adaptive_samples_after",
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
        # no float temporary the size of the samples: min/max propagate nan
        if times.size > 1 and not (times[1:] > times[:-1]).all():
            raise ValueError("times must be strictly increasing")
        if not all(np.isfinite((a.min(), a.max())).all() for a in (times, states) if a.size):
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
class RunSummary:
    """What a run that fed a sink returns: its Trajectory without the samples.

    `n_samples` and `t_final` count and end the samples handed to the
    sink; the other fields mean what they mean on a `Trajectory`.
    """

    n_samples: int
    t_final: float
    layout: tuple
    meta: dict = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str = ""


# ---------------------------------------------------------------------------
# sinks: where a run's samples go, a block at a time

# samples that a stepping loop gathers before it hands them to its sink
_SINK_ROWS = 4096


class _Feed:
    """Hands the samples of one run to `sink` a block at a time, and counts them.

    A sink is a callable sink(times, states, layout): `times` (n,) and
    `states` (n, len(layout)) are float64 arrays of the block's samples in
    time order, which the sink may keep, and `layout` names the columns of
    `states`, the same for every block of the run.
    """

    def __init__(self, sink, layout: tuple):
        self.sink = sink
        self.layout = layout
        self.n_samples = 0
        self.t_final = math.nan

    def block(self, times: np.ndarray, states: np.ndarray) -> None:
        self.n_samples += len(times)
        self.t_final = float(times[-1])
        self.sink(times, states, self.layout)

    def arrays(self, times: array, states: array):
        """The flush of a generated loop: hand on its array('d')s; return fresh ones."""
        if times:
            self.block(np.frombuffer(times), np.frombuffer(states).reshape(len(times), -1))
        return array("d"), array("d")

    def result(self, meta: dict, reason: str) -> RunSummary:
        return RunSummary(n_samples=self.n_samples, t_final=self.t_final, layout=self.layout,
                          meta=meta, aborted=bool(reason), abort_reason=reason)


class _Collect(_Feed):
    """The feed of a run that returns its Trajectory: it keeps every sample.

    A generated loop's arrays are kept and grown in place (the flush hands
    back the same arrays), and a block is appended to them, so the samples
    are held once, 8 bytes a double, and the Trajectory wraps them.
    """

    def __init__(self, layout: tuple):
        super().__init__(self._append, layout)
        self.times, self.states = array("d"), array("d")

    def _append(self, times, states, layout):
        self.times.frombytes(times.tobytes())
        self.states.frombytes(states.tobytes())

    def arrays(self, times, states):
        self.times, self.states = times, states
        return times, states

    def result(self, meta, reason) -> Trajectory:
        return Trajectory(
            times=np.frombuffer(self.times),
            states=np.frombuffer(self.states).reshape(-1, len(self.layout)),
            layout=self.layout,
            meta=meta,
            aborted=bool(reason),
            abort_reason=reason,
        )


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


# ---------------------------------------------------------------------------
# generated straight-line code: the RK4 loop and the RKF45 step kernel


class _Constants(ast.NodeTransformer):
    """Turns every load of a name in `values` into that value's constant."""

    def __init__(self, values: dict):
        self.values = values

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.values:
            return ast.copy_location(ast.Constant(self.values[node.id]), node)
        return node


def exec_generated(source: str, filename: str, namespace: dict,
                   constants: dict | None = None) -> dict:
    """Compile generated `source` and run it in `namespace`; return the namespace.

    Each name in `constants` is compiled as its value, a constant, so
    CPython folds subexpressions over constants alone (`2 * m`) with the
    same IEEE operation the run would do.  The source is registered in
    linecache under `filename` (say ``<rk4 loop: damped_oscillator.h/hamiltonian>``),
    so tracebacks and inspect.getsource show the generated code; it names
    the constants, not their values, so one model's source is the same at
    every parameter set.
    """
    code = source
    if constants:
        code = _Constants(constants).visit(ast.parse(source, filename))
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(code, filename, "exec"), namespace)
    return namespace


# the functions a form's statements call: math's where they run on floats,
# so that an overflow raises (the rhs, the RK4 loop, the evaluator bundle),
# and numpy's where they run on arrays (G, the terms, the Euler-Maruyama loop)
MATH = {"exp": math.exp, "log": math.log, "cos": math.cos, "sin": math.sin}
NUMPY = {"exp": np.exp, "log": np.log, "cos": np.cos, "sin": np.sin}


@functools.cache
def names_read(expr: str) -> frozenset:
    """The names that expression `expr` reads, compiled once: statements are fixed strings."""
    return frozenset(compile(expr, "<statement>", "eval").co_names)


@dataclass(eq=False)
class StraightLine:
    """One chart's statements, from which all of its generated code is rendered.

    `roles` name the state's components in layout order.  `defs` holds each
    definition that reads the state, in the order stated, as (expression,
    names it reads); a definition reads roles, constants and earlier
    definitions.  Every state must satisfy the condition `domain` ("" for
    none).  `field` gives the derivatives of the roles, in order, and reads
    time only through a role.  `terms` and `G` are the chart's virial
    balance, expressions over the roles and constants that read no
    definition.  Each name of `constants` (the parameters and the
    definitions over parameters alone) stands for its value in all generated
    code.  `name` labels the generated sources.

    Rendered from it are the chart's rhs, G and term functions (by
    `systems`, whose evaluator bundle shares `statements`), the body that
    the RK4 loop inlines into every stage, and the Euler-Maruyama loop.
    Both step only the `live` roles where nothing records the others.  The
    rhs carries the form, so RK4 finds it there; Euler-Maruyama reads it
    from the chart, since it has no path that calls a field and a wrapper
    put in place of the rhs (a tracer's, say) carries no form.  The loops
    are made on first use and kept in `loops`: "rk4" for every role or, say,
    "rk4, steps (q, p)" for some, and "em" or "em, samples" by whether they
    keep samples.  Names of the loops' own start with an underscore, which
    no role, definition or constant may.
    """

    name: str
    roles: tuple
    defs: dict
    domain: str
    field: tuple
    terms: tuple
    G: str
    constants: dict
    loops: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        reserved = [key for key in (*self.roles, *self.defs, *self.constants)
                    if key.startswith("_")]
        if reserved:
            raise ValueError(f"'{self.name}': names {reserved} start with '_', "
                             "which generated code reserves for its own names")

    def reads(self, exprs) -> set:
        """The names that `exprs` read, with those of every definition they read."""
        needed = set().union(*map(names_read, exprs))
        for key in reversed(self.defs):  # a definition reads only earlier ones
            if key in needed:
                needed |= self.defs[key][1]
        return needed

    def statements(self, result, roles=None, check="if not ({}):") -> list:
        """The domain check over `roles` (all, by default) and the definitions `result` reads.

        `check` is the test that the domain's condition fills in; the
        definitions come in the order stated.
        """
        unpacked = ", ".join(self.roles if roles is None else roles)
        lines = []
        if self.domain:
            lines += [check.format(self.domain),
                      f"    raise DomainError('state ({unpacked}) = %r violates "
                      f"{self.domain}' % (({unpacked},),))"]
        needed = self.reads(result)
        return lines + [f"{key} = {expr}" for key, (expr, _) in self.defs.items()
                        if key in needed]

    def live(self, keep) -> tuple:
        """The roles to step so that the roles of `keep`, the terms and G come out exact.

        A role is live when it is kept, when the terms, G or the domain
        check read it, or when the field component of a live role reads it;
        the live roles are returned in layout order.
        """
        roles = set(self.roles)
        read_anyway = (self.G, *self.terms, *([self.domain] if self.domain else []))
        live = set(keep) | self.reads(read_anyway) & roles
        while True:
            read = self.reads([c for role, c in zip(self.roles, self.field) if role in live])
            if read & roles <= live:
                return tuple(role for role in self.roles if role in live)
            live |= read & roles

    def restricted(self, roles) -> StraightLine:
        """This form with only `roles`, live roles in layout order, and their field components.

        Its name says which roles it steps; it shares the definitions,
        domain, balance and constants, and keeps no loops.
        """
        return replace(self, name=f"{self.name}, steps ({', '.join(roles)})", roles=tuple(roles),
                       field=tuple(c for role, c in zip(self.roles, self.field) if role in roles),
                       loops={})


def _generate_rk4(d: int, form: StraightLine | None):
    """Classical RK4 on d-component states as one generated loop function.

    The function is loop(y, n_full, n, rem, dt, T, every, times, states,
    rhs, flush, rows): it takes n steps from the state tuple y, n_full of
    length dt and, when n > n_full, a last one of length rem onto T, and
    appends the time and state after every `every`-th step and after the
    last one to the array('d')s `times` and `states` unless that time does
    not pass the last one appended.  Step k starts at time k * dt; the last
    step ends at T.  Whenever `times` holds `rows` samples, and once more
    when the loop ends, it calls flush(times, states), which hands them on
    and returns the arrays to append to from then on (`_Feed.arrays`).  It
    returns None, or (k, exc) when step k failed: exc is the field error it
    raised, or None when the new state is not finite.

    The state is held in scalars, and each stage evaluates the field in one
    of two forms: with `form`, it assigns the stage state to the form's
    roles and runs the statements of its field inline, so the loop calls
    nothing and reads time only at samples; without, it calls rhs(t, y),
    unpacking the result into d scalars, so a result of another length
    raises ValueError naming the expected count.  Either way the arithmetic is that of the
    per-component formulas: stages y + hh*k and the update
    y + h6*(k1 + 2.0*k2 + 2.0*k3 + k4).  A `restricted` form steps only its
    roles, and its statements define only what their field components read,
    so each stepped component gets the same numbers as in the full loop.
    Names of the loop's own start with an underscore, which no role or
    definition of a form may.
    """
    ys = [f"_y{j}" for j in range(d)]
    lines = form.statements(form.field) if form is not None else None

    def tup(items):
        return "(" + "".join(f"{item}, " for item in items) + ")"

    def stage(i, time, state):
        ks = [f"_k{i}_{j}" for j in range(d)]
        if form is None:
            return [f"{', '.join(ks)}, = _rhs({time}, {tup(state)})"]
        return ([f"{role} = {value}" for role, value in zip(form.roles, state)]
                + lines
                + [f"{k} = {expr}" for k, expr in zip(ks, form.field)])

    body = stage(1, "_t", ys)
    body += stage(2, "_t + _hh", [f"{y} + _hh * _k1_{j}" for j, y in enumerate(ys)])
    body += stage(3, "_t + _hh", [f"{y} + _hh * _k2_{j}" for j, y in enumerate(ys)])
    body += stage(4, "_t + _h", [f"{y} + _h * _k3_{j}" for j, y in enumerate(ys)])
    body += [f"{y} = {y} + _h6 * (_k1_{j} + 2.0 * _k2_{j} + 2.0 * _k3_{j} + _k4_{j})"
             for j, y in enumerate(ys)]
    # x - x is 0.0 for finite x and nan for an inf or nan, so the sum is 0.0
    # exactly when every component is finite; it costs no call
    body += ["if not (" + " + ".join(f"({y} - {y})" for y in ys) + " == 0.0):",
             "    _flush(_times, _states)",
             "    return _k, None"]
    if form is None:
        body.insert(0, "_t = _k * _dt")
    source = [
        "def loop(_y, _n_full, _n, _rem, _dt, _T, _every, _times, _states, _rhs, _flush, _rows):",
        f"    {tup(ys)} = _y",
        "    _k = 0",
        "    _last = _times[-1]",
        "    try:",
        "        while _k < _n:",
        "            if _k < _n_full:",
        "                _h, _stop = _dt, min(_k + _every, _n_full)",
        "            else:",
        "                _h, _stop = _rem, _n",
        "            _hh = 0.5 * _h",
        "            _h6 = _h / 6.0",
        "            for _k in range(_k, _stop):",
        *(" " * 16 + line for line in body),
        "            _k = _stop",
        "            if _k % _every == 0 or _k == _n:",
        "                _t = _T if _k == _n else _k * _dt",
        "                if _t > _last:",
        "                    _last = _t",
        "                    _times.append(_t)",
        f"                    _states.extend({tup(ys)})",
        "                    if len(_times) == _rows:",
        "                        _times, _states = _flush(_times, _states)",
        "    except _FIELD_ERRORS as _exc:",
        "        _flush(_times, _states)",
        "        return _k, _exc",
        "    _flush(_times, _states)",
        "    return None",
    ]
    namespace = {"_FIELD_ERRORS": _FIELD_ERRORS}
    if form is None:
        label, constants = f"rhs call, d={d}", None
    else:
        label, constants = form.name, form.constants
        namespace.update(MATH, DomainError=DomainError)
    return exec_generated("\n".join(source) + "\n", f"<rk4 loop: {label}>", namespace,
                          constants)["loop"]


@functools.cache
def _rk4_call_loop(d: int):
    """The loop that calls its rhs, one per state width, made on first use."""
    return _generate_rk4(d, None)


def _rk4_loop(rhs, layout: tuple, keep):
    """The RK4 loop that steps `rhs` on states of `layout`, and the components it steps.

    A field carrying its chart's form of the layout's width as
    `rhs.straight_line` (every compiled catalog field does) is inlined, and
    only the form's roles that are live for the roles named in `keep` (a
    collection of layout names, or None for all) are stepped; its loop is
    generated on the first call and kept on the form under a key that names
    the stepped roles.  Any other callable, a wrapper of a catalog field
    included, goes through the width's shared loop that calls it and steps
    every component.  The components are returned as layout indices.
    """
    d = len(layout)
    form = getattr(rhs, "straight_line", None)
    if form is None or len(form.roles) != d:
        return _rk4_call_loop(d), range(d)
    stepped = form.roles
    if keep is not None:
        stepped = form.live(role for name, role in zip(layout, form.roles) if name in keep)
    key = "rk4" if stepped == form.roles else f"rk4, steps ({', '.join(stepped)})"
    if key not in form.loops:
        form.loops[key] = _generate_rk4(
            len(stepped), form if stepped == form.roles else form.restricted(stepped))
    return form.loops[key], [form.roles.index(role) for role in stepped]


# Fehlberg RK4(5) coefficients
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


@functools.cache
def _rkf45_kernel(d: int):
    """One RKF45 step in straight-line float arithmetic on d-component states, compiled on first use.

    Gives step(rhs, t, y, h, k0, rel_tol, abs_tol) -> (y_new, err), where
    k0 is rhs(t, y), y_new the 4th-order solution and err the RMS over
    components of the embedded error estimate divided by
    abs_tol + rel_tol*max(|y|, |y_new|).

    The generated source unpacks `y` and every stage's rhs result into d
    scalars, so a result of another length raises ValueError naming the
    expected count, and writes each component's arithmetic out in full: it
    sums c0*k0 + c1*k1 + ... left to right, zero coefficients included,
    with every coefficient written as its repr, which round-trips.
    """
    def unpack(prefix):
        return "".join(f"{prefix}{j}, " for j in range(d))

    def vec(component):
        return "(" + "".join(component(j) + ", " for j in range(d)) + ")"

    def weighted(coeffs, j):
        return " + ".join(f"{c!r} * k{i}_{j}" for i, c in enumerate(coeffs))

    lines = [
        "def step(rhs, t, y, h, k0, rel_tol, abs_tol):",
        f"    {unpack('y')}= y",
        f"    {unpack('k0_')}= k0",
    ]
    for i in range(1, 6):
        stage = vec(lambda j: f"y{j} + h * ({weighted(_A[i], j)})")
        lines.append(f"    {unpack(f'k{i}_')}= rhs(t + {_C[i]!r} * h, {stage})")
    for j in range(d):
        lines.append(f"    n{j} = y{j} + h * ({weighted(_B4, j)})")
    for j in range(d):
        lines.append(f"    r{j} = h * ({weighted(_ERR, j)})"
                     f" / (abs_tol + rel_tol * max(abs(y{j}), abs(n{j})))")
    squares = " + ".join(f"r{j} * r{j}" for j in range(d))
    lines.append(f"    return {vec(lambda j: f'n{j}')}, sqrt(({squares}) / {d})")
    namespace = exec_generated("\n".join(lines) + "\n", f"<rkf45 kernel, d={d}>",
                               {"sqrt": math.sqrt})
    return namespace["step"]


# ---------------------------------------------------------------------------
# fixed-step RK4


def _initial_state(y0: Sequence[float], layout: Sequence[str]) -> tuple:
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or y.size != len(layout):
        raise ValueError(f"y0 must be a flat vector of length {len(layout)}")
    return tuple(y.tolist())


def _fixed_steps(T: float, dt: float) -> tuple:
    """(n_full, rem, n): n_full steps of dt, a last step of rem onto T when rem > 0, n steps in all."""
    n_full = int(math.floor(T / dt + 1e-12))
    rem = T - n_full * dt
    if rem < 1e-12 * dt:
        rem = 0.0
    return n_full, rem, n_full + (1 if rem > 0 else 0)


def fixed_samples_after(after: float, T: float, dt: float, sample_every: int) -> int:
    """The number of samples that a completed `integrate_fixed` run records at times > `after`.

    Its samples are time 0, the times k * dt of the steps k < n that are
    multiples of `sample_every`, and T after the last step n, so the count
    follows from the step counts alone, before a step is taken.
    """
    n = _fixed_steps(T, dt)[2]
    last = (n - 1) // sample_every  # the multiples of sample_every below n

    def time(j):
        return (j * sample_every) * dt

    j = max(1, int(after / (sample_every * dt)))  # then the first j whose time passes `after`
    while j > 1 and time(j - 1) > after:
        j -= 1
    while j <= last and time(j) <= after:
        j += 1
    return (0.0 > after) + max(0, last - j + 1) + (T > after)


def integrate_fixed(
    rhs: Callable[[float, tuple], Sequence[float]],
    y0: Sequence[float],
    T: float,
    dt: float,
    *,
    layout: Sequence[str],
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    meta: dict | None = None,
    keep: Sequence[str] | None = None,
    sink=None,
):
    """Classical 4th-order Runge-Kutta with a shortened final step onto T.

    Samples are recorded at the initial state, every `sample_every`-th step,
    and at the final time.  On the first non-finite state (or an evaluation
    error from `rhs`) the trajectory is truncated at the last good sample
    and returned with ``aborted=True`` and a machine-readable reason.

    The samples go to `sink` (see `_Feed`) in blocks of _SINK_ROWS, and the
    last block when the run ends, so the run holds one block whatever T is,
    and a `RunSummary` is returned.  Without a sink the samples are
    collected in place and the `Trajectory` is returned; either way the
    same loop steps the run and flushes its blocks.

    A compiled catalog field is stepped with its arithmetic inlined into a
    loop generated for it (see `_rk4_loop`); any other `rhs` is called four
    times per step.  Both give bit-identical trajectories.

    `keep` names the layout components that the caller reads besides its
    chart's G and terms; None, the default, keeps every component.  With a
    compiled catalog field only the live roles are stepped: the kept ones
    and those that G, the terms, the domain check or the field components
    of live roles read (`StraightLine.live`).  So a virial report of a chart
    whose (q, p) rows read no s steps (q, p) alone, with every stepped
    component bit-identical to the full run's.  The trajectory's layout then
    names the stepped components, and its meta's "chart_layout" the full
    `layout`.  A reduced run that fails is stepped again with every
    component, and that aborted trajectory is returned, so an abort reads as
    it does with `keep=None`.  Under a sink it is not: the sink has had the
    reduced run's samples, the failure returned is the reduced run's, and a
    caller that wants the full run's abort and prefix steps again with
    `keep=None`.  A component that is not stepped is not tested for
    finiteness either: a run whose only non-finite component is one that
    nothing reads completes.  Any other `rhs` steps every component.

    Parameters
    ----------
    rhs : callable
        (t, y) -> dy/dt; `y` is a tuple of d floats and dy must hold exactly
        d floats, else ValueError is raised at the first evaluation.
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
    layout = tuple(layout)
    if keep is not None and not set(keep) <= set(layout):
        raise ValueError(f"keep names {sorted(set(keep) - set(layout))}, not in layout {layout}")
    n_full, rem, n_steps = _fixed_steps(T, dt)

    def run(keep, sink):
        loop, columns = _rk4_loop(rhs, layout, keep)
        stepped = tuple(layout[j] for j in columns)
        feed = _Collect(stepped) if sink is None else _Feed(sink, stepped)
        x = tuple(y[j] for j in columns)
        # an rhs computing in numpy overflows to inf/nan, which the loop's
        # finiteness test catches, so its warnings are silenced
        with np.errstate(all="ignore"):
            failure = loop(x, n_full, n_steps, rem, dt, T, sample_every, array("d", [0.0]),
                           array("d", x), rhs, feed.arrays, _SINK_ROWS)
        return feed, failure

    feed, failure = run(keep, sink)
    if failure is not None and sink is None and len(feed.layout) < len(layout):
        feed, failure = run(None, None)
    reason = ""
    if failure is not None:
        k, exc = failure
        if exc is None:
            reason = f"non-finite state at t={T if k == n_steps - 1 else (k + 1) * dt:.6g}"
        else:
            reason = f"field evaluation failed at t={k * dt:.6g}: {exc}"

    info = dict(meta or {})
    info.setdefault("integrator", "rk4")
    info.update(dt=dt, T=T, sample_every=sample_every)
    if len(feed.layout) < len(layout):
        info["chart_layout"] = layout
    return feed.result(info, reason)


# ---------------------------------------------------------------------------
# embedded RK4(5) with cubic Hermite dense output

# accepted steps held before their samples are evaluated, and the most
# samples that one numpy pass over them evaluates
_DENSE_CHUNK = 4096


def _sample_times(interval: float, T: float):
    """The dense-output grid in chunks of at most _DENSE_CHUNK times, below T - 1e-14*T.

    The grid runs interval, 2 * interval, ..., each time the previous one
    plus `interval`: the chain of ``+=`` that a scalar loop builds, which
    `np.add.accumulate` builds a chunk at a time and carries on from chunk
    to chunk, so the times do not depend on where the chunks end.
    `_dense_output` samples at these times, and `adaptive_samples_after`
    counts them.
    """
    end, start = T - 1e-14 * T, interval
    while start < end:
        n = int(min(_DENSE_CHUNK, (end - start) / interval + 2))
        grid = np.full(n, interval)
        grid[0] = start
        np.add.accumulate(grid, out=grid)
        stop = int(np.searchsorted(grid, end, "left"))
        yield grid[:stop]
        start = float(grid[stop] if stop < n else grid[-1] + interval)


class _SampleGrid:
    """The times of `_sample_times`, taken from the front as the steps reach them."""

    def __init__(self, interval: float, T: float):
        self._chunks = _sample_times(interval, T)
        self._head = np.empty(0)

    def take(self, last: float) -> np.ndarray:
        """The next grid times up to `last`, at most one chunk of them; empty when there are none."""
        if not self._head.size:
            self._head = next(self._chunks, self._head)
        stop = int(np.searchsorted(self._head, last, "right"))
        times, self._head = self._head[:stop], self._head[stop:]
        return times


def adaptive_samples_after(after: float, T: float, sample_interval: float) -> int:
    """The number of samples that a completed `integrate_adaptive` run records at times > `after`.

    Its samples are time 0, every time of the grid (`_sample_times`) and T;
    the grid is built here as the run builds it, before a step is taken.
    """
    return ((0.0 > after) + (T > after)
            + sum(len(ts) - int(np.searchsorted(ts, after, "right"))
                  for ts in _sample_times(sample_interval, T)))


def _dense_output(steps: array, t_end: float, y_end, d_end, grid: _SampleGrid,
                  T: float, feed: _Feed) -> None:
    """Hand the cubic Hermite samples inside accepted `steps` to `feed`, a pass at a time.

    `steps` is an array('d') of 2 + 2d floats per accepted step, in order: its
    start time t, its length h, and the d components of the state and then
    of the derivative at its start.  Each step ends where the next one
    starts, and the last at t_end with state y_end and derivative d_end.
    A grid time belongs to the first step whose end plus 1e-14*T reaches
    it; the times of `grid` that some step reaches are taken from it, and
    the interpolant there, at theta = (time - t) / h, is the sample.

    Each pass evaluates at most _DENSE_CHUNK grid times as columns, in the
    operation order of the scalar formula w0*y0 + w1*d0 + w2*y1 + w3*d1,
    and hands them to `feed` as one block.  numpy applies each operation
    per element in IEEE double, so every sample equals the scalar loop's
    bit for bit.
    """
    if not steps:
        return
    d = len(y_end)
    records = np.frombuffer(steps).reshape(-1, 2 + 2 * d)
    starts, hs = records[:, 0], records[:, 1]
    ends = np.append(starts[1:], t_end) + 1e-14 * T
    # row k: the state and derivative where step k starts
    ys = np.vstack((records[:, 2:2 + d], [y_end]))
    ds = np.vstack((records[:, 2 + d:], [d_end]))
    last = float(ends[-1])
    while (ts := grid.take(last)).size:
        k = np.searchsorted(ends, ts, "left")
        h = hs[k]
        theta = (ts - starts[k]) / h
        t2 = theta * theta
        t3 = t2 * theta
        w0 = 2 * t3 - 3 * t2 + 1
        w1 = (t3 - 2 * t2 + theta) * h
        w2 = -2 * t3 + 3 * t2
        w3 = (t3 - t2) * h
        feed.block(ts, w0[:, None] * ys[k] + w1[:, None] * ds[k]
                   + w2[:, None] * ys[k + 1] + w3[:, None] * ds[k + 1])


def integrate_adaptive(
    rhs: Callable[[float, tuple], Sequence[float]],
    y0: Sequence[float],
    T: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    *,
    layout: Sequence[str],
    sample_interval: float | None = None,
    meta: dict | None = None,
    sink=None,
):
    """Embedded Runge-Kutta 4(5) with proportional step control.

    The 4th-order solution is propagated; the embedded 5th-order difference
    drives the controller h <- h * clip(0.9 err^(-1/5), 0.2, 5).  Samples
    are produced on a uniform grid of spacing `sample_interval` (default
    T/1000) by cubic Hermite interpolation using the stage-1 derivatives at
    both step ends, plus the exact endpoint T.  `rhs` follows the contract
    of `integrate_fixed`.  Accepted steps are held until _DENSE_CHUNK of
    them have been taken or the run ends, and their samples are then
    evaluated together (`_dense_output`); they equal, bit for bit, those of
    a loop that interpolates sample by sample after each step.

    The samples go to `sink` (see `_Feed`): the initial state, each dense
    pass of at most _DENSE_CHUNK samples, then the endpoint T, so the run
    holds at most _DENSE_CHUNK steps and one pass whatever T is, and a
    `RunSummary` is returned.  Without a sink they are collected and the
    `Trajectory` is returned, through the same calls.

    A step shrinking below 1e-12 * T aborts the trajectory (stiffness or
    singularity signal); evaluation failures shrink the step first and only
    abort on underflow.  An aborted trajectory keeps the samples of every
    accepted step.
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
    layout = tuple(layout)
    step = _rkf45_kernel(len(y))

    h_min = _UNDERFLOW_FRACTION * T
    h = max(min(T / 100.0, 1.0), h_min)  # a horizon over 1e12 starts at h_min

    feed = _Collect(layout) if sink is None else _Feed(sink, layout)
    feed.block(np.zeros(1), np.array([y]))
    grid = _SampleGrid(sample_interval, T)
    pending = array("d")  # t, h, y and dy of each accepted step not yet sampled
    chunk_floats = _DENSE_CHUNK * (2 + 2 * len(y))
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
                y_new, err = step(rhs, t, y, h, d_left, rel_tol, abs_tol)
            except _FIELD_ERRORS as exc:
                h *= _SHRINK_MIN
                n_reject += 1
                if h < h_min:
                    aborted, reason = True, (
                        f"field evaluation failed at t={t:.6g} with no recoverable step: {exc}"
                    )
                continue
            if not (all(map(math.isfinite, y_new)) and math.isfinite(err)):
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
                pending.append(t)
                pending.append(h)
                pending.extend(y)
                pending.extend(d_left)
                y, t, d_left = y_new, t_new, d_right
                n_accept += 1
                if t >= T * (1.0 - 1e-14):
                    break
                if len(pending) == chunk_floats:
                    _dense_output(pending, t, y, d_left, grid, T, feed)
                    pending = array("d")
            else:
                n_reject += 1
            factor = _SAFETY * err ** (-0.2) if err > 0 else _GROW_MAX
            h *= min(_GROW_MAX, max(_SHRINK_MIN, factor))
        # every exit, an abort included, keeps the samples of every accepted step
        _dense_output(pending, t, y, d_left, grid, T, feed)
    if not aborted and T > feed.t_final:
        feed.block(np.array([T]), np.array([y]))  # T itself, exactly, after the last step

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
    return feed.result(info, reason)


# ---------------------------------------------------------------------------
# fork-join over the CPUs of this process's affinity set


def _cpu_count() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or cannot tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class _WorkerTraceback(Exception):
    """The traceback of an exception that a worker process raised, as text."""


def _send(fd: int, payload: bytes) -> None:
    """Write one frame to `fd`: the length of `payload` as 8 bytes, then `payload`."""
    view = memoryview(len(payload).to_bytes(8, "little") + payload)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int, pid: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = os.readv(fd, [view[got:]])
        if not read:
            raise RuntimeError(f"worker process {pid} ended without sending its result")
        got += read
    return buf


def _receive(pid: int, fd: int):
    """The next result from worker `pid`; the exception it raised is raised here."""
    size = int.from_bytes(_read_exact(fd, 8, pid), "little")
    ok, value, trace = pickle.loads(_read_exact(fd, size, pid))
    if not ok:
        raise value from _WorkerTraceback(trace)
    return value


def _serve(fn, items, fd: int):
    """Send a frame of fn(item) for each of `items` through `fd`, up to the first exception.

    It runs in a forked child and ends it with os._exit, whatever happens:
    unwinding further would run the parent's code in the child, and an exit
    handler or the flush of an inherited buffer would repeat the parent's.
    """
    code = 0
    try:
        for item in items:
            ok = True
            try:
                payload = pickle.dumps((True, fn(item), ""))
            except BaseException as exc:
                ok = False
                payload = pickle.dumps((False, exc, traceback.format_exc()))
            _send(fd, payload)
            if not ok:
                break
    except BaseException:  # the reader closed its end, or an exception does not pickle
        code = 1
    finally:
        os._exit(code)


def _forked(fn, items):
    """Yield fn(item) for each of `items`, in order, from W processes at once.

    W is the number of CPUs this process may run on (`_cpu_count`), and at
    most the number of items.  Item i runs in worker i % W.  Worker 0 is
    this process; the others are children forked before the first item runs,
    so they inherit `fn` and `items` as they are (`fn` may be a closure) and
    only results cross over: each child writes one frame per item to its own
    pipe, an 8-byte length and then the pickle of the result or of the
    exception that the item raised.  That exception is raised here with its
    type and text, the child's traceback as its cause, and the child sends
    nothing more.  A child blocks while its pipe is full, so beyond the
    pipe's buffer it holds only the result it is writing.  However the
    iteration ends (the last item, an exception, or a caller that stops
    early or is interrupted), this process closes its read ends, kills the
    children if items were left, and reaps every child before the generator
    finishes.  stdout and stderr are flushed before forking, so no child
    holds a copy of their buffers.
    """
    items = list(items)
    n_workers = min(_cpu_count(), len(items))
    if n_workers < 2:
        yield from map(fn, items)
        return
    sys.stdout.flush()
    sys.stderr.flush()
    pids, reads = [], []
    finished = False
    try:
        for w in range(1, n_workers):
            read_end, write_end = os.pipe()
            reads.append(read_end)
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                raise
            if pid == 0:
                for fd in reads:
                    os.close(fd)
                _serve(fn, items[w::n_workers], write_end)  # never returns
            os.close(write_end)
            pids.append(pid)
        for i, item in enumerate(items):
            w = i % n_workers
            yield fn(item) if w == 0 else _receive(pids[w - 1], reads[w - 1])
        finished = True
    finally:
        for fd in reads:
            os.close(fd)
        for pid in pids:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Euler-Maruyama over a stochastic chart, vectorized over members

# member-steps of noise drawn per block: each of the two noise buffers holds
# this many doubles, whatever n_traj and T are
_NOISE_MEMBER_STEPS = 1 << 19
# steps per partial sum of the term averages: roundoff grows with about
# _SUM_STEPS + n_steps / _SUM_STEPS additions instead of n_steps
_SUM_STEPS = 1024
# steps per block of the Euler-Maruyama loop: the terms, the noise sum and
# the kept samples are taken once per block over (_BLOCK_STEPS + 1)-row
# buffers of the stepped roles; it divides _SUM_STEPS
_BLOCK_STEPS = 32


@dataclass(frozen=True)
class LangevinEnsembleStats:
    """Per-member horizon averages from an Euler-Maruyama run.

    `term_averages[k, i]` is member i's trapezoid average over [0, T] of the
    chart's k-th term.  `noise_virial` is (1/T) * sum of q * dW -- the Ito
    integral (1/T)∫q η dt realized by the discretization, which no post-hoc
    resampling of states can recover.  The other arrays have length n_traj.
    All of them are running sums kept while stepping, each gaining one
    step at a time; only the current block of _BLOCK_STEPS states is held.
    """

    n_traj: int
    T: float
    dt: float
    seed: int
    term_averages: np.ndarray
    noise_virial: np.ndarray
    G_initial: np.ndarray
    G_final: np.ndarray


def _sum_rows(rows):
    """rows[0] + rows[1] + ... + rows[-1], added in that order.

    numpy reduces the rows of a C-contiguous 2-D array one after another,
    each over all of its columns at once; over a lone contiguous axis it
    sums pairwise, so rows of one value each are accumulated instead.
    """
    return np.add.reduce(rows, 0) if rows.size > len(rows) else np.add.accumulate(rows)[-1]


def _generate_langevin(form: StraightLine, stepped: tuple, sampled: bool):
    """Euler-Maruyama over one stochastic chart as one generated loop function.

    The form's roles are, by position, s, q and p; the loop advances those
    of `stepped`, in layout order.  The function is loop(x, n, dt, T,
    every, times, kept, draw), with flush after draw when `sampled`.  From
    x, the values of the stepped roles (floats, or equal-shape arrays with
    one entry per member), it takes n steps of length dt; draw(k) gives the
    noise increments of the noise block of steps after step k, one float or
    member row per step.  Per step, with the drift evaluated at the old
    state: s gains dt * (drift + q * (dW/dt)), q gains dt * drift and p
    gains dt * drift + dW, and the new value of each stepped role goes into
    the role's buffer, _BLOCK_STEPS + 1 rows of the role's shape, whose row
    0 holds the state that the block of steps started from.

    Everything else runs once per block, which ends at every multiple of
    _BLOCK_STEPS and at the end of a noise block, over the buffer rows:
    the noise sum gains the Ito products q * dW of the block's old states,
    and every term is evaluated on the rows, whose (previous + current) *
    (dt/2) is added to its partial sum, folded into its total every
    _SUM_STEPS steps (a multiple of _BLOCK_STEPS, so between blocks).
    Each sum gains one step at a time, in step order (`_sum_rows`), so
    every sum is the one that a per-step loop would make.  When `sampled`,
    x is one member's floats, `times` (rows,) and `kept` (rows, 3) hold
    step 0 in row 0, and every `every`-th step goes into their next rows;
    where a block could overfill them, flush(times[:m], kept[:m]) first
    hands on the m rows so far and returns the buffers to go on in, as the
    RK4 loop's does.  Then the block's last row is carried into row 0.  At
    the end T takes step n's row, or one of its own, and the rows are flushed.

    It returns (term sums, noise sum, G at x, G at the end): floats or
    member arrays.  The loop calls no function of the chart: it runs inline
    the domain check and the definitions that the drift components of the
    stepped roles read, the terms and G, over numpy's functions and with the
    form's constants folded in.  Its domain check is `if not all(...)`, so
    it holds for every member.
    """
    s, q, p = form.roles
    drift = [c for role, c in zip(form.roles, form.field) if role in stepped]
    update = {
        s: f"{s} = {s} + _dt * (_d_{s} + {q} * (_dW / _dt))",
        q: f"{q} = {q} + _dt * _d_{q}",
        p: f"{p} = {p} + _dt * _d_{p} + _dW",
    }
    ks = range(len(form.terms))
    step = [*form.statements(drift, stepped, check="if not all({}):"),
            *(f"_d_{role} = {expr}" for role, expr in zip(stepped, drift)),
            *(update[role] for role in stepped),
            *(f"_b_{role}[_r] = {role}" for role in stepped)]
    # the roles name the block's rows (0 to _r) from here to the carry
    block = [*(f"{role} = _b_{role}[:_r + 1]" for role in stepped),
             f"_c = {q}[:-1] * _dWs",
             "_c[0] = _noise + _c[0]",
             "_noise = _sum_rows(_c)"]
    for k, term in zip(ks, form.terms):
        block += [f"_c = {term}",
                  "_c = (_c[:-1] + _c[1:]) * _half_dt",
                  f"_c[0] = _part{k} + _c[0]",
                  f"_part{k} = _sum_rows(_c)"]
    block += [f"if _step % {_SUM_STEPS} == 0:",
              *(f"    _sum{k} += _part{k}" for k in ks),
              "    " + "".join(f"_part{k} = " for k in ks) + "0.0"]
    if sampled:
        # a block of steps keeps at most _BLOCK_STEPS rows, and T may take one more
        block += [f"if _n_kept > len(_times) - {_BLOCK_STEPS + 1}:",
                  "    _times, _kept = _flush(_times[:_n_kept], _kept[:_n_kept])",
                  "    _n_kept = 0",
                  # rows _j, _j + every, ... are the steps of the block that are multiples of every
                  "_j = _every - (_step - _r) % _every",
                  "_m = _n_kept + (_r - _j + _every) // _every",
                  "_times[_n_kept:_m] = _arange(_step - _r + _j, _step + 1, _every) * _dt",
                  *(f"_kept[_n_kept:_m, {i}] = {role}[_j::_every]"
                    for i, role in enumerate(form.roles)),
                  "_n_kept = _m"]
    block += [line for role in stepped
              for line in (f"_b_{role}[0] = {role}[-1]", f"{role} = _b_{role}[0]")]
    lines = [
        f"def loop(_x, _n, _dt, _T, _every, _times, _kept, _draw{', _flush' if sampled else ''}):",
        f"    {''.join(f'{role}, ' for role in stepped)}= _x",
        *(f"    _b_{role} = _empty(({_BLOCK_STEPS + 1}, *_shape({role})))" for role in stepped),
        *(f"    _b_{role}[0] = {role}" for role in stepped),
        f"    _G0 = {form.G}",
        "    " + "".join(f"_sum{k} = _part{k} = " for k in ks) + "_noise = 0.0",
        "    _half_dt = _dt * 0.5",
        "    _step = 0",
        *(["    _n_kept = 1"] if sampled else []),
        "    while _step < _n:",
        "        _noises = _draw(_step)",
        "        _start = 0",
        "        while _start < len(_noises):",
        f"            _dWs = _noises[_start:_start + {_BLOCK_STEPS} - _step % {_BLOCK_STEPS}]",
        "            _r = 0",
        "            for _dW in _dWs:",
        "                _r += 1",
        *(" " * 16 + line for line in step),
        "            _start += _r",
        "            _step += _r",
        *(" " * 12 + line for line in block),
    ]
    if sampled:  # T takes the row of step n, or one of its own
        lines += ["    if _n % _every:",
                  "        _n_kept += 1",
                  "    _times[_n_kept - 1] = _T",
                  *(f"    _kept[_n_kept - 1, {i}] = {role}" for i, role in enumerate(form.roles)),
                  "    _flush(_times[:_n_kept], _kept[:_n_kept])"]
    sums = "".join(f"_sum{k} + _part{k}, " for k in ks)
    lines += [f"    return ({sums}), _noise, _G0, {form.G}"]
    source = "\n".join(lines) + "\n"
    label = f"{form.name}, steps ({', '.join(stepped)}){', samples' if sampled else ''}"
    namespace = {**NUMPY, "all": np.all, "DomainError": DomainError,
                 "_sum_rows": _sum_rows, "_arange": np.arange, "_empty": np.empty,
                 "_shape": np.shape}
    return exec_generated(source, f"<em loop: {label}>", namespace, form.constants)["loop"]


def _langevin_core(chart, noise: NoiseSpec, T: float, dt: float, n_traj: int,
                   members: range | None = None, sample_every: int | None = None, flush=None):
    """Euler-Maruyama over the members, a range of n_traj noise streams, of one chart.

    The chart's layout is (s, q[0], p[0]) and its `form`, read from the
    chart and not through its rhs, gives its drift, terms and G as
    statements; time is the loop's own variable.  Per step the thermal
    force dW enters p, and -q*eta enters h, so s also gains q * dW/dt.  The
    step runs in one loop generated from the form (see `_generate_langevin`)
    on its first use, which steps only the live roles: those that the
    terms, G, the noise sum and the kept samples read, closed over the drift
    components that they read.  So an ensemble of a
    chart whose (q, p) rows do not read s steps (q, p) alone, and a single
    run, which keeps samples, steps every role.  One member steps in numpy
    float64 scalars, more in member arrays; both give the same numbers.
    Single runs and ensemble members share this path, so every emitted
    number is identical for a given member stream.  Member i draws from a
    PCG64 stream seeded with child i of SeedSequence(seed), so a single run
    is member 0.  `members` (all n_traj by default) are the streams stepped:
    members start:stop are seeded from SeedSequence(seed).spawn(stop)[start:].
    Each fills its row of one noise buffer per block of steps, and a
    stream's numbers do not depend on the block length.

    The term averages are running trapezoid sums: once per block of steps
    (at most _BLOCK_STEPS) every term is evaluated on the block's states,
    and each step's (previous + current) * (dt/2) is added in step order to
    a partial sum that is folded into the total every _SUM_STEPS steps, so
    a member's sums do not depend on n_traj, on which members share its
    run or on where the blocks end.  Memory is O(len(members)) plus two
    noise buffers of len(members) * block doubles each and one buffer of
    (_BLOCK_STEPS + 1) * len(members) doubles per stepped role, whatever T
    is; the noise block is sized from the whole ensemble's n_traj, so that
    the noise buffers of all of its member ranges hold _NOISE_MEMBER_STEPS
    doubles each between them.  Given `flush`, one member keeps samples
    (step 0, every sample_every-th step and T) in buffers of _SINK_ROWS
    rows that the loop flushes, so memory stays as flat.

    Returns the stats of `members`.
    """
    if chart.layout != ("s", "q[0]", "p[0]"):
        raise ValueError(f"Euler-Maruyama steps (s, q[0], p[0]), not {chart.layout}")
    form = chart.form
    if form is None:
        raise ValueError("Euler-Maruyama steps a catalog chart's statements; "
                         "this chart carries none")
    if not (T > 0 and 0 < dt <= T):
        raise ValueError("need T > 0 and 0 < dt <= T")
    if noise.gamma * dt >= 0.1:
        raise ValueError(
            f"gamma*dt = {noise.gamma * dt:.3g} >= 0.1: step too coarse for the damping rate"
        )
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError("T must be an integer number of Langevin steps (T = n*dt)")

    sampled = flush is not None
    # the noise sum reads q; kept samples read every role
    stepped = form.live(form.roles if sampled else form.roles[1:2])
    key = "em, samples" if sampled else "em"
    if key not in form.loops:
        form.loops[key] = _generate_langevin(form, stepped, sampled)
    loop = form.loops[key]

    members = range(n_traj) if members is None else members
    n = len(members)
    amp = noise.amplitude * math.sqrt(dt)
    seeds = np.random.SeedSequence(noise.seed).spawn(members.stop)[members.start:]
    gens = [np.random.default_rng(c) for c in seeds]
    block = min(n_steps, max(1, _NOISE_MEMBER_STEPS // n_traj))
    raw = np.empty((n, block))  # one generator's draws per row
    dW = np.zeros((block, n))   # one step's increments per row

    def draw(step):
        """The increments of the next block of steps: member rows, or scalars for one member."""
        nb = min(block, n_steps - step)
        if amp > 0.0:
            for g, row in zip(gens, raw):
                g.standard_normal(out=row[:nb])
            np.multiply(raw[:, :nb].T, amp, out=dW[:nb])
        return dW[:nb] if n > 1 else dW[:nb, 0]

    # one member steps numpy float64 scalars, the entries of chart.x0
    x = [v if n == 1 else np.full(n, v)
         for role, v in zip(form.roles, chart.x0) if role in stepped]
    args = (x, n_steps, dt, T, None, None, None, draw)
    if sampled:  # the first buffers, which start with step 0
        times, kept = np.empty(_SINK_ROWS), np.empty((_SINK_ROWS, len(chart.layout)))
        times[0], kept[0] = 0.0, chart.x0
        args = (x, n_steps, dt, T, sample_every, times, kept, draw, flush)
    # stiff parameter choices blow up through inf/nan; callers detect that
    # in the returned stats and the flushed samples, so the arithmetic runs unwarned
    with np.errstate(all="ignore"):
        sums, noise_sum, G_initial, G_final = loop(*args)
    return LangevinEnsembleStats(
        n_traj=n,
        T=T,
        dt=dt,
        seed=noise.seed,
        term_averages=np.array([np.full(n, v) for v in sums]) / T,
        noise_virial=np.full(n, noise_sum) / T,
        G_initial=np.full(n, G_initial),
        G_final=np.full(n, G_final),
    )


def euler_maruyama_langevin(
    chart,
    noise: NoiseSpec,
    T: float,
    dt: float,
    *,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    meta: dict | None = None,
    sink=None,
):
    """One realization of a stochastic chart with additive thermal noise.

    State layout (s, q[0], p[0]), the chart's; the sample times come from
    the stepping loop.  Per step, with dW = amplitude*sqrt(dt)*N(0,1): p
    gains its Euler drift plus dW; the same realized increment divided by
    dt stands in for the noise in the s equation (left-point q); q and s
    advance by Euler drift.  Identical seed => bit-identical trajectory.

    The samples (step 0, every `sample_every`-th step and T) go to `sink`
    as `integrate_fixed`'s do, in blocks of at most _SINK_ROWS, and so
    does a diverging run's up to its first non-finite one, with
    ``aborted=True``.  The meta carries `stats`, the realized horizon
    averages including the Ito noise-virial integral (1/T)∫ q dW, which
    downstream reports need and cannot rebuild from samples.  The step
    checks raise ValueError before a sample is handed on.
    """
    feed = _Collect(chart.layout) if sink is None else _Feed(sink, chart.layout)
    reason = ""

    def flush(times, states):
        """Hand on the rows before the first non-finite one; return fresh buffers."""
        nonlocal reason
        if not reason:
            finite = np.isfinite(states).all(axis=1)
            n = len(times) if finite.all() else int(finite.argmin())
            if n:
                feed.block(times[:n], states[:n])
            if n < len(times):
                reason = f"non-finite state at t={times[n]:.6g}"
        return np.empty(_SINK_ROWS), np.empty((_SINK_ROWS, len(chart.layout)))

    stats = _langevin_core(chart, noise, T, dt, 1, sample_every=sample_every, flush=flush)
    info = dict(meta or {})
    info.setdefault("integrator", "euler-maruyama")
    info.update(dt=dt, T=T, seed=noise.seed, sample_every=sample_every, stats=stats)
    return feed.result(info, reason)


def langevin_ensemble(chart, noise: NoiseSpec, T: float, dt: float,
                      n_traj: int) -> LangevinEnsembleStats:
    """Horizon averages for n_traj independent realizations of a stochastic chart.

    Member i draws from child i of SeedSequence(noise.seed); member 0's
    entries are bit-identical to the single run with the same seed.
    The members are split into W contiguous ranges, one per CPU of this
    process's affinity set (at most one per member), which `_forked` steps
    at once, and the ranges' stats are joined in member order.  A member's
    numbers do not depend on its range, so the stats do not depend on W.
    Only the per-member running sums that ensemble reports need are kept:
    memory is O(n_traj) plus a fixed noise buffer and the (_BLOCK_STEPS +
    1)-row state buffers of one block of steps, whatever T is, summed over
    the processes (this one holds its own range's share).
    """
    if n_traj < 1:
        raise ValueError("need n_traj >= 1")
    n_ranges = min(_cpu_count(), n_traj)
    ranges = [range(i * n_traj // n_ranges, (i + 1) * n_traj // n_ranges)
              for i in range(n_ranges)]
    parts = list(_forked(lambda members: _langevin_core(chart, noise, T, dt, n_traj, members),
                         ranges))
    return LangevinEnsembleStats(
        n_traj=n_traj,
        T=T,
        dt=dt,
        seed=noise.seed,
        term_averages=np.concatenate([part.term_averages for part in parts], axis=1),
        noise_virial=np.concatenate([part.noise_virial for part in parts]),
        G_initial=np.concatenate([part.G_initial for part in parts]),
        G_final=np.concatenate([part.G_final for part in parts]),
    )


# ---------------------------------------------------------------------------
# CSV export

_CSV_BLOCK_ROWS = 1024


@functools.cache
def _keep_freed_heap() -> None:
    """Let the C heap keep what one CSV block frees for the next, once per process.

    glibc's malloc hands the top of its heap back to the system whenever
    more than its trim threshold lies free there: 128 KiB, until a block
    that mmap served is freed, which raises it to twice that block's size.
    `_g17.format_rows` frees about 1 MB of temporaries per block of 1024
    rows of 4 columns, so without a raised threshold every block faults
    them in again, page by page: 25 000 minor faults and some 0.1 s in an
    rkf45 simulate run of 200 001 samples, none once a 1 MB block had been
    freed.  An untouched 4 MiB array, made and dropped here, raises it;
    other allocators ignore it.
    """
    np.empty(1 << 19)


def _write_rows(out, columns, text: bool) -> None:
    """Write the rows of `columns` to `out` in blocks of _CSV_BLOCK_ROWS, every number as %.17g."""
    from . import _g17  # here, so that importing the package does not compile it

    _keep_freed_heap()
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        rows = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
        chunk = _g17.format_rows(rows)
        out.write(chunk.decode("ascii") if text else chunk)


def write_csv(path_or_file, names: Sequence[str], columns) -> None:
    """Write a header of `names` and one line per row, every number as %.17g.

    `columns` are the table's columns, 1-D arrays of one length (views of
    the caller's arrays serve), or a 2-D array of its rows.  17 significant
    digits round-trip every double, so the file reproduces the table
    exactly.  `path_or_file` is a path, written in binary, or an open text
    stream, which is given the text.  Rows are formatted and written in
    blocks of _CSV_BLOCK_ROWS: each block's rows are stacked from the
    columns, and `_g17.format_rows` gives their text, the bytes of '%.17g'
    value by value, from integer arithmetic in numpy (one '%' per block
    formats the values it does not cover).  No copy of the whole table is
    made, so memory stays flat in the row count: one block is held at a
    time.  A run that is not held whole is written the same way, a sink
    block at a time, by `TrajectoryCsv`.
    """
    if isinstance(columns, np.ndarray) and columns.ndim == 2:
        columns = columns.T
    header = ",".join(names) + "\n"
    text = hasattr(path_or_file, "write")
    with nullcontext(path_or_file) if text else open(path_or_file, "wb") as out:
        out.write(header if text else header.encode())
        _write_rows(out, list(columns), text)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,<components>` rows with 17 significant digits, through `write_csv`.

    Every number is the text of '%.17g' and round-trips to the same double;
    `path` is a path or an open text stream.
    """
    write_csv(path, ["t", *traj.layout], [traj.times, *traj.states.T])


class TrajectoryCsv:
    """A sink (see `_Feed`) that writes a run's samples to `path` as `write_trajectory_csv` does.

    The file, and any missing directory above it, is made when the first
    block arrives, with the header `t,<layout>`; each block's rows follow
    as `write_csv` writes them, so the file is byte for byte that of the
    run's Trajectory while only one block is held.  Use it as a context
    manager, which closes the file.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._out = None

    def __call__(self, times, states, layout) -> None:
        if self._out is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._out = open(self.path, "wb")
            self._out.write((",".join(["t", *layout]) + "\n").encode())
        _write_rows(self._out, [times, *states.T], False)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._out is not None:
            self._out.close()
