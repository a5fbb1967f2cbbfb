"""Spans around the calls into contactdyn's layers, recorded from outside the package.

Nothing under src/ is edited.  `Tracer.install` replaces the names that
`contactdyn.cli`, `contactdyn.virial` and `contactdyn.systems` import with
timing wrappers, and wraps the chart `rhs` of every spec that the CLI's
`make_system` returns.  `uninstall` puts the originals back.

A span is a dict with `name`, `start`, `end`, `parent` (index of the
enclosing span, -1 at top level), `run` (the run id) and `attrs`.  Spans are
kept in memory; the caller writes them out once.  Chart `rhs` calls are too
many to keep one span each (about a million on the forced workload), so they
are counted and timed in aggregate: every span carries `rhs_calls` and
`rhs_s`, the calls made while it was open, its children included.
"""

from __future__ import annotations

import time

CLI_NAMES = (
    "make_system",
    "integrate_fixed",
    "integrate_adaptive",
    "write_trajectory_csv",
    "virial_report",
    "ensemble_report",
    "report_text",
    "write_running_averages",
)
VIRIAL_NAMES = ("langevin_ensemble",)
# the build-time finite-difference oracle, as make_system calls it
SYSTEMS_NAMES = ("check_partials", "check_lagrangian_partials", "check_partials_extended")


def span_name(fn) -> str:
    """`<module>.<function>` with the package prefix dropped, e.g. `integrate.integrate_fixed`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._rhs = [0, 0.0]  # calls, seconds, over the whole run
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn(*args, **kwargs)` inside a span called `name`; return its result."""
        index = len(self.spans)
        span = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else -1,
            "run": self.run_id,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(index)
        calls0, secs0 = self._rhs
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            span["attrs"]["rhs_calls"] = self._rhs[0] - calls0
            span["attrs"]["rhs_s"] = self._rhs[1] - secs0
        self._after(fn.__name__, args, out, span["attrs"])
        return out

    def _wrap(self, fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _traced_rhs(self, rhs):
        acc = self._rhs
        clock = time.perf_counter

        def traced_rhs(t, y):
            t0 = clock()
            out = rhs(t, y)
            acc[1] += clock() - t0
            acc[0] += 1
            return out

        return traced_rhs

    def _after(self, fname: str, args, out, attrs: dict) -> None:
        """Cheap facts about one call, read from its arguments and result.

        File sizes are read later, so that no file is scanned inside a span.
        """
        if fname == "make_system":
            for chart in out.charts.values():
                if chart.rhs is not None:
                    # Chart is a frozen dataclass; this rebinds one field of this spec only
                    object.__setattr__(chart, "rhs", self._traced_rhs(chart.rhs))
        elif fname in ("integrate_fixed", "integrate_adaptive"):
            attrs["samples"] = int(out.n_samples)
            attrs["width"] = len(out.layout)
            attrs["n_accepted"] = int(out.meta.get("n_accepted", 0))
            attrs["n_rejected"] = int(out.meta.get("n_rejected", 0))
        elif fname == "langevin_ensemble":
            attrs["n_traj"] = int(out.n_traj)
            attrs["traj_steps"] = int(round(out.T / out.dt)) * int(out.n_traj)
        elif fname == "write_trajectory_csv":
            attrs["path"] = str(args[1])
        elif fname == "write_running_averages":
            attrs["path"] = str(args[2])
        elif fname == "ensemble_report":
            attrs["n_dropped"] = int(out.meta["n_dropped"])
        elif fname.startswith("check_"):
            attrs["checks"] = len(out.checks)

    def install(self) -> None:
        import contactdyn.cli
        import contactdyn.systems
        import contactdyn.virial

        for module, names in (
            (contactdyn.cli, CLI_NAMES),
            (contactdyn.virial, VIRIAL_NAMES),
            (contactdyn.systems, SYSTEMS_NAMES),
        ):
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)
