"""One benchmark call, in a fresh process started by run.py.

    python3 perfbench/child.py '<job as JSON>'

The job names the workload's system and parameters, the CLI argv (null for
a set-up-only call), whether to trace, and a run id.  The process times its
set-up (importing contactdyn.cli and building the workload's system, with
the build-time oracle), then one `contactdyn.cli.main(argv)` call, and
prints one line `PERFBENCH_RESULT <json>` last on stdout.

A traced call also returns its spans and, after the timed call and with the
tracer removed, two probes: the dense-output cost of an rkf45 run, and the
per-call cost of the generic model fields.
"""

import json
import os
import resource
import sys
import time

MARKER = "PERFBENCH_RESULT "


def _per_call_us(fn, *args, calls=2000, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((time.perf_counter() - t0) / calls)
    times.sort()
    return times[len(times) // 2] * 1e6


def model_field_probes(spec) -> dict:
    """Per-call cost of the generic model path, at the state q=1, p=qdot=0, s=0, t=0.

    That state is the x0 of every benchmark workload's chart.  Models the
    workload's system lacks come from the damped oscillator; a missing
    extended model is the autonomous lift of the Darboux-chart one.
    """
    from contactdyn.core import DarbouxPoint, contact_vector_field
    from contactdyn.extended import ExtendedPoint, evolution_field, lift_autonomous
    from contactdyn.herglotz import LagrangianPoint, lagrangian_field
    from contactdyn.systems import make_system

    ref = make_system("damped_oscillator")
    h = spec.hamiltonian or ref.hamiltonian
    L = spec.lagrangian or ref.lagrangian
    hx = spec.extended or lift_autonomous(h)
    x = DarbouxPoint(s=0.0, q=[1.0], p=[0.0])
    return {
        "contact_vector_field_us": _per_call_us(contact_vector_field, h, x),
        "lagrangian_field_us": _per_call_us(lagrangian_field, L, LagrangianPoint([1.0], [0.0], 0.0)),
        "evolution_field_us": _per_call_us(evolution_field, hx, ExtendedPoint(t=0.0, base=x)),
    }


def dense_output_s(cli, argv) -> float:
    """`integrate_adaptive` at the run's sample interval minus the same call at interval T."""
    from contactdyn.integrate import integrate_adaptive
    from contactdyn.systems import make_system

    cfg = cli.build_config(cli.build_parser().parse_args(argv))
    if cfg.integrator != "rkf45":
        return 0.0
    chart = make_system(cfg.system, **cfg.params).chart(cfg.chart)
    interval = cfg.sample_interval if cfg.sample_interval is not None else cfg.dt
    elapsed = []
    for every in (interval, cfg.T):
        t0 = time.perf_counter()
        integrate_adaptive(chart.rhs, chart.x0, cfg.T, cfg.rel_tol, cfg.abs_tol,
                           layout=chart.layout, sample_interval=every)
        elapsed.append(time.perf_counter() - t0)
    return elapsed[0] - elapsed[1]


def file_facts(spans) -> None:
    """Bytes and data rows of every file a traced writer produced."""
    for span in spans:
        path = span["attrs"].get("path")
        if path and os.path.exists(path):
            span["attrs"]["bytes"] = os.path.getsize(path)
            with open(path, "rb") as fh:
                span["attrs"]["rows"] = sum(1 for _ in fh) - 1  # minus the header


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import contactdyn.cli as cli
    from contactdyn.systems import make_system

    spec = make_system(job["system"], **job["params"])
    result = {"setup_s": time.perf_counter() - t0, "module": cli.__file__}

    if job["argv"] is not None:
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer(job["run_id"])
            tracer.install()
            t1 = time.perf_counter()
            try:
                code = tracer.call("cli.main", cli.main, job["argv"])
            finally:
                result["wall_s"] = time.perf_counter() - t1
                tracer.uninstall()
            file_facts(tracer.spans)
            result["spans"] = tracer.spans
            result["probes"] = {"dense_output_s": dense_output_s(cli, job["argv"]),
                                **model_field_probes(spec)}
        else:
            t1 = time.perf_counter()
            code = cli.main(job["argv"])
            result["wall_s"] = time.perf_counter() - t1
        result["exit_code"] = code
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(MARKER + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
