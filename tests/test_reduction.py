"""The streaming reduction: exact block sums, block-split invariance, and flat memory in T."""

import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactdyn.integrate as integrate_mod
from contactdyn import euler_maruyama_langevin, integrate_adaptive, integrate_fixed, make_system
from contactdyn.cli import main
from contactdyn.integrate import adaptive_samples_after, fixed_samples_after
from contactdyn.virial import Reduction, _ExactSum, reduce_trajectory


def outcome(fn):
    """What fn() gives, comparable bit for bit: its value's bytes ('nan' for any nan) or its error."""
    try:
        value = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def exact(values):
    """The sum by fsum's rules, rounded once from the exact rational sum of the finite values."""
    odd = [v for v in values if not math.isfinite(v)]
    if math.inf in odd and -math.inf in odd:
        raise ValueError("-inf + inf")
    if odd:
        return math.nan if any(map(math.isnan, odd)) else odd[0]
    return float(sum(map(Fraction, values), Fraction(0)))  # OverflowError past the doubles


def block_sum(values, cuts):
    total = _ExactSum()
    for block in np.split(np.array(values, dtype=float), sorted(cuts)):
        total.add(block)
    return total.value()


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_values = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(from_bits),  # every double, nan and inf included
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),  # subnormals and the smallest normals
    st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([1e16, -1e16, 1.0, -1.0, 2.0 ** -52, 5e-324, -5e-324, 0.0, -0.0]),
)


@st.composite
def _cancelling(draw):
    """Values with their negations among them, so that most of the sum cancels."""
    values = draw(st.lists(_values, min_size=1, max_size=40))
    values += [-v for v in draw(st.lists(st.sampled_from(values), max_size=40))]
    return draw(st.permutations(values))


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.one_of(st.lists(_values, max_size=80), _cancelling()), st.data())
def test_block_sums_are_fsum_at_any_split(values, data):
    cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=6))
    ours = outcome(lambda: block_sum(values, cuts))
    assert ours == outcome(lambda: exact(values))
    # fsum raises OverflowError when a partial sum overflows, even where the
    # exact sum is a double; everywhere else it gives what the blocks give
    reference = outcome(lambda: math.fsum(values))
    if reference != "OverflowError":
        assert ours == reference


def test_block_sums_follow_fsums_rules_for_non_finite_values():
    cases = [[1.0, math.nan, 2.0], [math.inf, 1.0], [-math.inf, 5.0, -math.inf],
             [math.inf, math.nan], [math.inf, -math.inf, math.nan], [], [-0.0, -0.0],
             [1e308, 1e308], [1e308, 1e308, -1e308], [5e-324] * 3, [1e16, 1.0, -1e16]]
    for values in cases:
        for cuts in ([], [1], [0, 2, 2]):
            assert outcome(lambda: block_sum(values, cuts)) == outcome(lambda: exact(values))
    assert outcome(lambda: block_sum([math.inf, -math.inf], [1])) == "ValueError"
    assert outcome(lambda: block_sum([1e308, 1e308, -1e308], [])) == struct.pack("<d", 1e308)


def test_random_vectors_at_4096_rows_equal_fsum():
    rng = np.random.default_rng(29)
    for scale in (1.0, 1e-290, 1e290):
        x = rng.standard_normal(20_000) * scale * 10.0 ** rng.uniform(-8, 8, 20_000)
        total = _ExactSum()
        for i in range(0, len(x), 4096):
            total.add(x[i:i + 4096])
        assert total.value() == math.fsum(x.tolist())


# ---------------------------------------------------------------------------
# the sink: the blocks a run hands on are its Trajectory's samples


def _blocks(run, **kwargs):
    blocks = []
    summary = run(**kwargs, sink=lambda times, states, layout: blocks.append(
        (times.copy(), states.copy(), layout)))
    return summary, blocks, run(**kwargs)


@pytest.mark.parametrize("stepper", ["rk4", "rkf45", "euler-maruyama"])
def test_a_sink_gets_the_trajectorys_samples_in_blocks(stepper):
    chart = make_system("damped_oscillator").chart("lagrangian")
    kwargs = dict(rhs=chart.rhs, y0=chart.x0, layout=chart.layout)
    if stepper == "rkf45":
        run = integrate_adaptive
        kwargs.update(T=30.0, sample_interval=1e-3)
    elif stepper == "rk4":
        run = integrate_fixed
        kwargs.update(T=10.0003, dt=1e-3, sample_every=1)
    else:  # 10 001 samples: step 0, every step but the last, and T
        spec = make_system("brownian_oscillator")
        run = euler_maruyama_langevin
        kwargs = dict(chart=spec.chart(), noise=spec.noise, T=10.0, dt=1e-3, sample_every=1)
    summary, blocks, traj = _blocks(run, **kwargs)
    assert len(blocks) >= 3 and max(len(t) for t, _, _ in blocks) <= 4096
    assert {layout for _, _, layout in blocks} == {traj.layout}
    assert np.array_equal(np.concatenate([t for t, _, _ in blocks]), traj.times)
    assert np.array_equal(np.concatenate([s for _, s, _ in blocks]), traj.states)
    assert (summary.n_samples, summary.t_final, summary.layout, summary.aborted) == (
        traj.n_samples, traj.t_final, traj.layout, traj.aborted)
    # Euler-Maruyama's meta holds its stats, whose arrays compare element by element
    assert summary.meta.keys() == traj.meta.keys()
    for key, value in summary.meta.items():
        if key == "stats":
            for name in ("term_averages", "noise_virial", "G_initial", "G_final"):
                assert np.array_equal(getattr(value, name), getattr(traj.meta[key], name))
        else:
            assert value == traj.meta[key], key


def test_a_reduced_run_that_fails_under_a_sink_is_not_stepped_again():
    # without a sink the failed (x, y) run is stepped again in full for its
    # abort; under one the caller does that (the CLI, into trajectory.csv)
    chart = make_system("gierer_meinhardt", D=-5.0).chart("contact")
    kwargs = dict(layout=chart.layout, sample_every=1, keep=())
    summary, blocks, traj = _blocks(integrate_fixed, rhs=chart.rhs, y0=chart.x0, T=30.0,
                                    dt=0.01, **kwargs)
    assert summary.aborted and traj.aborted
    assert traj.layout == chart.layout and len(summary.layout) < len(chart.layout)
    assert {layout for _, _, layout in blocks} == {summary.layout}
    assert summary.n_samples == sum(len(t) for t, _, _ in blocks)


# ---------------------------------------------------------------------------
# a Reduction gives the same numbers however its samples are split


def _reduce_in_blocks(spec, traj, t0, sizes):
    times = traj.times
    n = len(times) - int(np.searchsorted(times, t0, "right"))
    layout = traj.meta.get("chart_layout", traj.layout)
    name = next(name for name, chart in spec.charts.items() if chart.layout == layout)
    reduction = Reduction(spec, name, t0=t0, t_end=float(times[-1]), n_window=n)
    i = 0
    for size in sizes:
        if i < len(times):
            reduction(times[i:i + size], traj.states[i:i + size], traj.layout)
            i += size
    if i < len(times):
        reduction(times[i:], traj.states[i:], traj.layout)
    return reduction.result(traj.meta)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(["damped_oscillator", "forced_oscillator", "gierer_meinhardt"]),
       st.floats(0.0, 0.9), st.lists(st.integers(1, 700), min_size=1, max_size=8))
def test_any_block_split_gives_the_stored_runs_report(system, t0_fraction, sizes):
    spec = make_system(system)
    chart = spec.chart("")
    traj = integrate_fixed(chart.rhs, chart.x0, 4.0, 2e-3, layout=chart.layout,
                           sample_every=1, keep=())
    t0 = t0_fraction * 4.0
    report, running = reduce_trajectory(spec, traj, t0=t0)
    split_report, split_running = _reduce_in_blocks(spec, traj, t0, sizes)
    assert split_report == report
    assert list(split_running) == list(running)
    for name, column in running.items():
        assert np.array_equal(split_running[name], column, equal_nan=True), name


def test_a_reduction_refuses_a_run_that_fed_too_few_samples():
    spec = make_system("damped_oscillator")
    chart = spec.chart("")
    traj = integrate_fixed(chart.rhs, chart.x0, 1.0, 0.01, layout=chart.layout, sample_every=1)
    reduction = Reduction(spec, "hamiltonian", t0=0.0, t_end=1.0, n_window=100)
    reduction(traj.times[:50], traj.states[:50], traj.layout)
    with pytest.raises(ValueError, match="fed 49 samples"):
        reduction.result(traj.meta)


@pytest.mark.parametrize("T, dt, every", [(1.0, 0.01, 1), (10.00037, 0.003, 3), (5.0, 0.1, 7),
                                          (2.0, 2.0, 1), (1.0, 0.3, 2)])
def test_fixed_sample_counts_are_the_runs(T, dt, every):
    chart = make_system("damped_oscillator").chart("")
    times = integrate_fixed(chart.rhs, chart.x0, T, dt, layout=chart.layout,
                            sample_every=every).times
    for after in (0.0, *times[1:-1:3], *(times[1:-1] + 1e-9), T * 0.37):
        assert fixed_samples_after(after, T, dt, every) == np.sum(times > after)


@pytest.mark.parametrize("T, interval", [(10.0, 1e-3), (3.0, 0.7), (200.0, 1.3), (1.0, 1.0)])
def test_adaptive_sample_counts_are_the_runs(T, interval):
    chart = make_system("damped_oscillator").chart("lagrangian")
    times = integrate_adaptive(chart.rhs, chart.x0, T, layout=chart.layout,
                               sample_interval=interval).times
    for after in (0.0, *times[1:-1:7], T * 0.37, times[-2]):
        assert adaptive_samples_after(after, T, interval) == np.sum(times > after)


# ---------------------------------------------------------------------------
# memory that does not grow with T


def _traced_peak(argv, out) -> int:
    """Bytes that tracemalloc saw at most during one CLI run (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        main([*argv, "--out", str(out)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a run ten times longer may peak this much higher: the reduction holds one
# block of samples and at most 1000 kept rows, rkf45 at most 4096 pending
# steps; a run that held its samples would add 48 bytes a sample or more
_MARGIN = 512 * 1024


def test_virial_memory_is_flat_in_T(tmp_path):
    argv = ["virial", "--system", "damped_oscillator", "--dt", "0.01"]
    main([*argv, "--T", "10", "--out", str(tmp_path / "warm")])  # generates the loop
    short = _traced_peak([*argv, "--T", "1000"], tmp_path / "short")
    long = _traced_peak([*argv, "--T", "10000"], tmp_path / "long")  # 10**6 samples
    assert long < short + _MARGIN, (short, long)


def test_brownian_simulate_memory_is_flat_in_T(tmp_path, monkeypatch):
    # two noise buffers of min(steps, _NOISE_MEMBER_STEPS) doubles are the
    # same size at both horizons; the samples go to trajectory.csv a block
    # at a time, where a run that held them added 32 bytes a sample
    monkeypatch.setattr(integrate_mod, "_NOISE_MEMBER_STEPS", 1000)
    argv = ["simulate", "--system", "brownian_oscillator", "--dt", "0.01"]
    main([*argv, "--T", "10", "--out", str(tmp_path / "warm")])  # generates the loop
    short = _traced_peak([*argv, "--T", "50"], tmp_path / "short")
    long = _traced_peak([*argv, "--T", "500"], tmp_path / "long")  # 50 001 samples
    assert long < short + _MARGIN, (short, long)


def test_rkf45_simulate_memory_is_flat_in_T(tmp_path):
    argv = ["simulate", "--system", "damped_oscillator", "--integrator", "rkf45",
            "--sample-interval", "0.01"]
    main([*argv, "--T", "10", "--out", str(tmp_path / "warm")])  # builds the CSV tables
    short = _traced_peak([*argv, "--T", "200"], tmp_path / "short")
    long = _traced_peak([*argv, "--T", "2000"], tmp_path / "long")  # 200 001 samples
    assert long < short + _MARGIN, (short, long)
    # the run wrote many times what it held
    assert (tmp_path / "long" / "trajectory.csv").stat().st_size > 5 * long
