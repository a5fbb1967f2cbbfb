"""Steppers and averaging: convergence order, analytic envelopes, noise, aborts."""

import ast
import gc
import inspect
import io
import math
import os
import sys
import time
import traceback
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactdyn.integrate as integrate_mod
from contactdyn.core import DomainError, contact_vector_field
from contactdyn.integrate import (
    _A,
    _B4,
    _C,
    _ERR,
    NoiseSpec,
    Trajectory,
    euler_maruyama_langevin,
    integrate_adaptive,
    _SUM_STEPS,
    integrate_fixed,
    langevin_ensemble,
    write_trajectory_csv,
)
from contactdyn.systems import SYSTEM_NAMES, make_system
from contactdyn.virial import virial_report

from conftest import DAMPED, PARACHUTE, UNDAMPED, observing_system

LAYOUT_SQP = ("s", "q[0]", "p[0]")


def contact_rhs(h):
    """Flat-vector adapter (s, q, p) for a one-degree-of-freedom Hamiltonian."""
    from contactdyn.core import DarbouxPoint

    def rhs(t, y):
        v = contact_vector_field(h, DarbouxPoint(s=y[0], q=y[1:2], p=y[2:3]))
        return np.array([v.ds, v.dq[0], v.dp[0]])

    return rhs


class TestFixedStep:
    def test_harmonic_one_period(self):
        rhs = contact_rhs(UNDAMPED.hamiltonian)
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3, layout=LAYOUT_SQP)
        assert not traj.aborted
        assert traj.t_final == pytest.approx(2 * math.pi, abs=1e-12)
        assert traj.states[-1, 1] == pytest.approx(1.0, abs=1e-9)
        assert traj.states[-1, 2] == pytest.approx(0.0, abs=1e-9)

    def test_fourth_order_convergence(self):
        rhs = contact_rhs(UNDAMPED.hamiltonian)
        errs = []
        for dt in (0.1, 0.05):
            traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=dt,
                                   layout=LAYOUT_SQP, sample_every=1)
            err = abs(traj.states[-1, 1] - 1.0) + abs(traj.states[-1, 2] - 0.0)
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0, f"order-check ratio {ratio}"

    def test_damped_energy_envelope(self):
        # E(t) exp(gamma t) oscillates about E0 with relative excursion just
        # above gamma/2 (it reaches ~1.0526 E0 for gamma = 0.1), so the bound
        # here is 1.06 rather than 1.05
        gamma = 0.1
        spec = make_system("damped_oscillator", m=1.0, omega=1.0, gamma=gamma)
        rhs = spec.chart("hamiltonian").rhs
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=40.0, dt=1e-3, layout=LAYOUT_SQP)
        q, p = traj.states[:, 1], traj.states[:, 2]
        energy = 0.5 * (p**2 + q**2)
        ratio = energy * np.exp(gamma * traj.times) / 0.5
        assert ratio.max() < 1.06
        assert energy[-1] < 0.5 * math.exp(-gamma * 39.0)

    def test_parachute_terminal_velocity(self):
        rhs = PARACHUTE.chart("hamiltonian").rhs
        traj = integrate_fixed(rhs, [0.0, 0.0, 0.0], T=20.0, dt=1e-3, layout=LAYOUT_SQP)
        s, p = traj.states[-1, 0], traj.states[-1, 2]
        velocity = (p - 2 * 0.5 * s) / 1.0
        assert velocity == pytest.approx(-math.sqrt(10.0 / 0.5), abs=1e-4)

    def test_final_partial_step_lands_on_T(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0005, dt=1e-3, layout=LAYOUT_SQP)
        assert traj.t_final == 1.0005

    def test_sampling_stride(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0, dt=0.01,
                               layout=LAYOUT_SQP, sample_every=10)
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)
        assert traj.n_samples == 11

    def test_abort_on_blowup(self):
        # qdot = q^2 blows up in finite time (t* = 1/q0)
        def rhs(t, y):
            return np.array([y[0] ** 2])

        traj = integrate_fixed(rhs, [1.0], T=2.0, dt=1e-3, layout=("q",))
        assert traj.aborted
        assert "non-finite" in traj.abort_reason or "failed" in traj.abort_reason
        assert traj.n_samples >= 2  # valid prefix retained
        assert np.isfinite(traj.states).all()

    def test_parameter_validation(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        with pytest.raises(ValueError):
            integrate_fixed(rhs, [0.0, 1.0, 0.0], T=-1.0, dt=1e-3, layout=LAYOUT_SQP)
        with pytest.raises(ValueError):
            integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0, dt=2.0, layout=LAYOUT_SQP)
        with pytest.raises(ValueError):
            integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0, dt=1e-3,
                            layout=LAYOUT_SQP, sample_every=0)


class TestAdaptive:
    def test_matches_fixed_on_harmonic(self):
        rhs = contact_rhs(UNDAMPED.hamiltonian)
        fixed = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                                layout=LAYOUT_SQP)
        adaptive = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=2 * math.pi,
                                      rel_tol=1e-10, abs_tol=1e-12, layout=LAYOUT_SQP)
        assert not adaptive.aborted
        np.testing.assert_allclose(adaptive.states[-1], fixed.states[-1], atol=1e-8)

    def test_endpoint_exact(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        traj = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=10.0, layout=LAYOUT_SQP)
        assert traj.t_final == 10.0

    def test_dense_output_grid(self):
        rhs = contact_rhs(UNDAMPED.hamiltonian)
        traj = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=5.0, rel_tol=1e-9,
                                  abs_tol=1e-11, layout=LAYOUT_SQP, sample_interval=0.1)
        # uniform grid plus exact endpoint; interpolation follows cos t closely
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-9)
        np.testing.assert_allclose(traj.states[:, 1], np.cos(traj.times), atol=1e-7)

    def test_step_underflow_aborts(self):
        # derivative with a pole at q = 1: forces endless shrinking
        def rhs(t, y):
            return np.array([1.0 / (1.0 - y[0])])

        traj = integrate_adaptive(rhs, [0.0], T=10.0, rel_tol=1e-8, abs_tol=1e-10,
                                  layout=("q",))
        assert traj.aborted
        assert "underflow" in traj.abort_reason or "failed" in traj.abort_reason
        assert traj.times[-1] < 10.0

    def test_horizon_beyond_1e12_steps_from_t0(self):
        # the first step, capped at 1.0, sat below the underflow floor 1e-12 * T
        traj = integrate_adaptive(lambda t, y: (0.0,), (1.0,), 1e13, layout=("x",),
                                  sample_interval=1e12)
        assert not traj.aborted, traj.abort_reason
        assert traj.meta["n_accepted"] > 0
        assert traj.t_final == 1e13

    def test_rejection_counters_recorded(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        traj = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=10.0, layout=LAYOUT_SQP)
        assert traj.meta["n_accepted"] > 0
        assert traj.meta["n_rejected"] >= 0

    def test_tolerance_validation(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        with pytest.raises(ValueError):
            integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=1.0, rel_tol=0.0, layout=LAYOUT_SQP)


def reference_rk4(rhs, y0, n_steps, dt):
    """RK4 on numpy arrays, the array formula integrate_fixed reproduces on floats."""
    def f(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    y, t, states = np.asarray(y0, dtype=float), 0.0, [np.asarray(y0, dtype=float)]
    for k in range(n_steps):
        h = dt
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y, t = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (k + 1) * dt
        states.append(y)
    return np.array(states)


def reference_rkf45(rhs, y0, T, rel_tol, abs_tol, sample_interval):
    """RKF45 with Hermite dense output on numpy arrays, stage sums as matrix products."""
    def f(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    y, t, h = np.asarray(y0, dtype=float), 0.0, min(T / 100.0, 1.0)
    states, next_sample, n_acc, n_rej = [y], sample_interval, 0, 0
    d_left = f(t, y)
    while t < T:
        h = min(h, T - t)
        k = [d_left]
        for i in range(1, 6):
            k.append(f(t + _C[i] * h, y + h * (np.stack(k).T @ np.array(_A[i]))))
        kmat = np.stack(k)
        y_new = y + h * (kmat.T @ np.array(_B4))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((h * (kmat.T @ np.array(_ERR)) / scale) ** 2)))
        if err <= 1.0:
            d_right = f(t + h, y_new)
            while next_sample <= t + h + 1e-14 * T and next_sample < T - 1e-14 * T:
                th = (next_sample - t) / h
                t2, t3 = th * th, th * th * th
                states.append((2 * t3 - 3 * t2 + 1) * y + (t3 - 2 * t2 + th) * h * d_left
                              + (-2 * t3 + 3 * t2) * y_new + (t3 - t2) * h * d_right)
                next_sample += sample_interval
            y, t, d_left, n_acc = y_new, t + h, d_right, n_acc + 1
            if t >= T * (1.0 - 1e-14):
                states.append(y)
                break
        else:
            n_rej += 1
        h *= min(5.0, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 5.0))
    return np.array(states), n_acc, n_rej


def _weighted_sum(coeffs, ks) -> list:
    """Per component, coeffs[0]*ks[0][j] + coeffs[1]*ks[1][j] + ..., left to right."""
    sums = [coeffs[0] * v for v in ks[0]]
    for c, k in zip(coeffs[1:], ks[1:]):
        sums = [s + c * v for s, v in zip(sums, k)]
    return sums


def _hermite(theta, y0, d0, y1, d1, h) -> tuple:
    t2, t3 = theta * theta, theta * theta * theta
    c0 = 2 * t3 - 3 * t2 + 1
    c1 = (t3 - 2 * t2 + theta) * h
    c2 = -2 * t3 + 3 * t2
    c3 = (t3 - t2) * h
    return tuple([c0 * a + c1 * b + c2 * c + c3 * d for a, b, c, d in zip(y0, d0, y1, d1)])


def scalar_rkf45(rhs, y0, T, rel_tol, abs_tol, sample_interval):
    """RKF45 on float tuples with one scalar Hermite call per sample.

    Returns (times, states, n_accepted, n_rejected).  This is the loop the
    straight-line step kernel and the chunked dense output replaced, its
    abort paths included: a field error or a non-finite step shrinks h, and
    a step below 1e-12 * T, or a field error at an accepted state, ends the
    run after the samples of the last accepted step.  So the stepper's
    samples must equal these bit for bit.
    """
    y, t, h = tuple(float(v) for v in y0), 0.0, min(T / 100.0, 1.0)
    times, states = [0.0], [y]
    next_sample, n_acc, n_rej = sample_interval, 0, 0
    d_left = None
    while t < T:
        h = min(h, T - t)
        if h < 1e-12 * T:
            break
        try:
            if d_left is None:
                d_left = rhs(t, y)
            k = [d_left]
            for i in range(1, 6):
                yi = tuple([a + h * b for a, b in zip(y, _weighted_sum(_A[i], k))])
                k.append(rhs(t + _C[i] * h, yi))
        except integrate_mod._FIELD_ERRORS:
            h *= 0.2
            n_rej += 1
            if h < 1e-12 * T:
                break
            continue
        y_new = tuple([a + h * b for a, b in zip(y, _weighted_sum(_B4, k))])
        sq = 0.0
        for e, a, b in zip(_weighted_sum(_ERR, k), y, y_new):
            r = h * e / (abs_tol + rel_tol * max(abs(a), abs(b)))
            sq += r * r
        err = math.sqrt(sq / len(y))
        if not (all(map(math.isfinite, y_new)) and math.isfinite(err)):
            h *= 0.2
            n_rej += 1
            continue
        if err <= 1.0:
            t_new = t + h
            try:
                d_right = rhs(t_new, y_new)
            except integrate_mod._FIELD_ERRORS:
                break
            while next_sample <= t_new + 1e-14 * T and next_sample < T - 1e-14 * T:
                if next_sample > times[-1]:
                    times.append(next_sample)
                    states.append(_hermite((next_sample - t) / h, y, d_left, y_new, d_right, h))
                next_sample += sample_interval
            y, t, d_left, n_acc = y_new, t_new, d_right, n_acc + 1
            if t >= T * (1.0 - 1e-14):
                times.append(T)
                states.append(y)
                break
        else:
            n_rej += 1
        h *= min(5.0, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 5.0))
    return np.array(times), np.array(states), n_acc, n_rej


# member-steps per block of the block-record reference below
_REFERENCE_BLOCK_MEMBER_STEPS = 1 << 19


def block_record_langevin(chart, noise, T, dt, n_traj, sample_every):
    """Euler-Maruyama that records blocks of states and averages them afterwards.

    Returns (term_averages, noise_virial, G_initial, G_final, sample_times,
    samples).  This is the loop that the running trapezoid sums replaced: it
    keeps a (block + 1, 3, n_traj) record of every (s, q, p) state and a
    (block + 1,) record of its times, evaluates the terms on the whole block
    and adds its trapezoid rows one at a time, so the stepper's stats must
    equal these bit for bit.
    """
    n_steps = int(round(T / dt))
    amp = noise.amplitude * math.sqrt(dt)
    gens = [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(noise.seed).spawn(n_traj)]
    block = min(n_steps, max(1, _REFERENCE_BLOCK_MEMBER_STEPS // n_traj))
    rec = np.empty((block + 1, len(chart.layout), n_traj))
    rec_t = np.zeros(block + 1)
    rec[0] = chart.x0[:, None]
    t, s, q, p = 0.0, rec[0, 0], rec[0, 1], rec[0, 2]
    G_initial = chart.G(*rec[0])
    samples, sample_times = [rec[:1].copy()], [rec_t[:1].copy()]
    sums = np.zeros((len(chart.terms), n_traj))
    partial = np.zeros_like(sums)
    noise_sum = np.zeros(n_traj)
    step = 0
    with np.errstate(all="ignore"):
        while step < n_steps:
            nb = min(block, n_steps - step)
            if amp > 0.0:
                dW = np.stack([g.standard_normal(nb) for g in gens], axis=1) * amp
            else:
                dW = np.zeros((nb, n_traj))
            ks = np.arange(step + 1, step + nb + 1)
            t_next = np.where(ks < n_steps, ks * dt, T)
            rec_t[1:nb + 1] = t_next
            for j, t_new in enumerate(t_next.tolist()):
                dWj = dW[j]
                ds, dq, dp = chart.rhs(t, (s, q, p))
                noise_sum += q * dWj
                s = rec[j + 1, 0] = s + dt * (ds + q * (dWj / dt))
                q = rec[j + 1, 1] = q + dt * dq
                p = rec[j + 1, 2] = p + dt * dp + dWj
                t = t_new
            block_states = rec[:nb + 1].transpose(1, 0, 2)
            vals = np.stack([b.value(*block_states) for b in chart.terms], axis=1)
            for k, row in zip(ks.tolist(), dt * 0.5 * (vals[:-1] + vals[1:])):
                partial += row
                if k % _SUM_STEPS == 0:
                    sums += partial
                    partial[:] = 0.0
            kept = (ks % sample_every == 0) | (ks == n_steps)
            samples.append(rec[1:nb + 1][kept])
            sample_times.append(rec_t[1:nb + 1][kept])
            rec[0] = rec[nb]
            step += nb
    return ((sums + partial) / T, noise_sum / T, G_initial, chart.G(*rec[0]),
            np.concatenate(sample_times), np.concatenate(samples))


def ring_rhs(d):
    """y_j' = -0.1 y_j + y_{j-1} - y_{j+1} on a ring of d floats: damped waves."""
    def rhs(t, y):
        return tuple(-0.1 * y[j] + y[j - 1] - y[(j + 1) % d] for j in range(d))

    return rhs


def problem(case):
    """(rhs, y0, layout) of the catalog chart "<system>-<chart>" or of "ring-<d>"."""
    name, variant = case.rsplit("-", 1)
    if name == "ring":
        d = int(variant)
        return ring_rhs(d), [math.cos(j) for j in range(d)], [f"y{j}" for j in range(d)]
    c = make_system(name).chart(variant)
    return c.rhs, c.x0, c.layout


_DENSE_OUTPUT_CASES = ["damped_oscillator-lagrangian", "ring-1", "ring-2", "ring-7"]
_DETERMINISTIC_CHARTS = [f"{spec.name}-{chart}" for spec in map(make_system, SYSTEM_NAMES)
                         if spec.noise is None for chart in spec.charts]


def assert_equals_scalar_loop(traj, rhs, y0, T, rel_tol, abs_tol, sample_interval):
    """`traj` has scalar_rkf45's step counts and, bit for bit, its samples."""
    times, states, n_acc, n_rej = scalar_rkf45(rhs, y0, T, rel_tol, abs_tol, sample_interval)
    assert (traj.meta["n_accepted"], traj.meta["n_rejected"]) == (n_acc, n_rej)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


class TestFloatStepping:
    """The generated float kernels against array and scalar references, and their abort paths."""

    @pytest.mark.parametrize("case", ["forced_oscillator-extended", "damped_oscillator-hamiltonian",
                                      "ring-1", "ring-2", "ring-7"])
    def test_rk4_bit_identical_to_array_formula(self, case):
        rhs, y0, layout = problem(case)
        traj = integrate_fixed(rhs, y0, T=2.0, dt=1e-3, layout=layout, sample_every=1)
        ref = reference_rk4(rhs, y0, 2000, 1e-3)
        assert traj.n_samples == 2001
        assert np.array_equal(traj.states, ref)

    def test_rkf45_matches_array_formula(self):
        c = make_system("damped_oscillator").chart("lagrangian")
        traj = integrate_adaptive(c.rhs, c.x0, 50.0, 1e-8, 1e-10, layout=c.layout,
                                  sample_interval=1e-2)
        ref, n_acc, n_rej = reference_rkf45(c.rhs, c.x0, 50.0, 1e-8, 1e-10, 1e-2)
        assert (traj.meta["n_accepted"], traj.meta["n_rejected"]) == (n_acc, n_rej)
        assert n_rej > 0
        assert traj.states.shape == ref.shape
        np.testing.assert_allclose(traj.states, ref, rtol=0.0, atol=1e-13)

    # at interval 1e-2 every step holds many samples; at 1.3, longer than a
    # typical step, steps hold no sample or one
    @pytest.mark.parametrize("case, sample_interval", [
        *(pytest.param(case, 1e-2, id=case) for case in _DENSE_OUTPUT_CASES),
        *(pytest.param(case, 1.3, id=f"{case}-sparse") for case in _DENSE_OUTPUT_CASES),
    ])
    def test_rkf45_dense_output_equals_scalar_loop(self, case, sample_interval):
        rhs, y0, layout = problem(case)
        traj = integrate_adaptive(rhs, y0, 50.0, 1e-8, 1e-10, layout=layout,
                                  sample_interval=sample_interval)
        assert_equals_scalar_loop(traj, rhs, y0, 50.0, 1e-8, 1e-10, sample_interval)
        if sample_interval > 1.0:
            assert traj.n_samples < traj.meta["n_accepted"]

    def test_one_step_holds_more_samples_than_a_chunk(self):
        # RK4(5) integrates y' = (1, t) exactly, so the error estimate stays at
        # rounding level and h grows fivefold a step: 4 steps hold 1e5 samples
        def rhs(t, y):
            return (1.0, t)

        traj = integrate_adaptive(rhs, [0.0, 0.0], 100.0, layout=("a", "b"),
                                  sample_interval=1e-3)
        assert_equals_scalar_loop(traj, rhs, [0.0, 0.0], 100.0, 1e-8, 1e-10, 1e-3)
        assert traj.n_samples > traj.meta["n_accepted"] * integrate_mod._DENSE_CHUNK

    def test_sparse_run_takes_more_steps_than_a_chunk(self):
        rhs, y0, layout = problem("damped_oscillator-lagrangian")
        traj = integrate_adaptive(rhs, y0, 200.0, 1e-11, 1e-13, layout=layout,
                                  sample_interval=1.3)
        assert_equals_scalar_loop(traj, rhs, y0, 200.0, 1e-11, 1e-13, 1.3)
        assert traj.meta["n_accepted"] > integrate_mod._DENSE_CHUNK > traj.n_samples

    # sample intervals from 1e-3, far below a typical step, to above one;
    # chunks down to one step, so that many runs cross many chunk boundaries
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.sampled_from(_DETERMINISTIC_CHARTS), st.floats(0.5, 20.0), st.floats(-3.0, 0.5),
           st.floats(-11.0, -5.0), st.floats(-13.0, -7.0), st.sampled_from([1, 2, 7, 64, None]))
    def test_dense_output_equals_scalar_loop_at_drawn_settings(self, case, T, log_interval,
                                                              log_rel, log_abs, chunk):
        rhs, y0, layout = problem(case)
        interval, rel_tol, abs_tol = min(T, 10.0 ** log_interval), 10.0 ** log_rel, 10.0 ** log_abs
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(integrate_mod, "_DENSE_CHUNK", chunk)
            traj = integrate_adaptive(rhs, y0, T, rel_tol, abs_tol, layout=layout,
                                      sample_interval=interval)
        assert_equals_scalar_loop(traj, rhs, y0, T, rel_tol, abs_tol, interval)

    @pytest.mark.parametrize("blowup, d", [
        pytest.param(lambda q: math.exp(1000.0 + q), 1, id="overflow"),
        pytest.param(lambda q: 1.0 / (q - q), 1, id="zero-division"),
        pytest.param(lambda q: math.exp(1000.0 + q), 7, id="overflow-d7"),
    ])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["rk4", "rkf45"])
    def test_float_errors_abort_with_valid_prefix(self, blowup, d, adaptive):
        # q' = 1 in the last of d components until it reaches 0.5, where float
        # arithmetic raises inside a kernel stage instead of returning inf
        def rhs(t, y):
            return (0.0,) * (d - 1) + (1.0 if y[-1] < 0.5 else blowup(y[-1]),)

        layout, y0 = [f"y{j}" for j in range(d)], [0.0] * d
        if adaptive:
            traj = integrate_adaptive(rhs, y0, T=2.0, layout=layout, sample_interval=0.01)
            # the samples of every accepted step, however the steps were chunked
            assert_equals_scalar_loop(traj, rhs, y0, 2.0, 1e-8, 1e-10, 0.01)
        else:
            traj = integrate_fixed(rhs, y0, T=2.0, dt=1e-3, layout=layout)
        assert traj.aborted
        assert "failed" in traj.abort_reason
        assert traj.n_samples >= 2
        assert traj.times[-1] < 0.5 + 1e-9
        np.testing.assert_allclose(traj.states[:, -1], traj.times, atol=1e-12)
        assert not traj.states[:, :-1].any()

    @pytest.mark.parametrize("chunk", [1, 5, None], ids=["chunk-1", "chunk-5", "chunk-default"])
    def test_step_underflow_keeps_the_scalar_prefix(self, monkeypatch, chunk):
        # y' = 1/(1 - y) reaches its pole at t = 0.5, where the steps shrink
        # until they underflow; steps accepted since the last chunk are held
        if chunk is not None:
            monkeypatch.setattr(integrate_mod, "_DENSE_CHUNK", chunk)

        def rhs(t, y):
            return (1.0 / (1.0 - y[0]),)

        traj = integrate_adaptive(rhs, [0.0], 10.0, layout=("y",), sample_interval=1e-3)
        assert traj.aborted and "underflow" in traj.abort_reason
        assert_equals_scalar_loop(traj, rhs, [0.0], 10.0, 1e-8, 1e-10, 1e-3)
        assert traj.n_samples > 400

    @pytest.mark.parametrize("returned", [2, 4], ids=["short", "long"])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["rk4", "rkf45"])
    def test_wrong_length_rhs_raises_at_first_evaluation(self, adaptive, returned):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (y[1], -y[0], 0.0, 5.0)[:returned]

        with pytest.raises(ValueError, match=r"expected 3"):
            if adaptive:
                integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=1.0, layout=LAYOUT_SQP)
            else:
                integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0, dt=0.1, layout=LAYOUT_SQP)
        assert len(calls) == 1


class TestInlinedField:
    """The RK4 loop a compiled catalog field is inlined into: aborts, caching, source."""

    @pytest.mark.parametrize("name, chart_name, params, y0, reason", [
        pytest.param("gierer_meinhardt", "contact", {"D": -5.0}, None, "violates B + p > 0",
                     id="domain-contact"),
        pytest.param("gierer_meinhardt", "planar", {"D": -5.0}, None, "violates B + p > 0",
                     id="domain-planar"),
        pytest.param("parachute", "hamiltonian", {"g": 1e-300, "lam": 1.0}, [0.0, 300.0, 20.0],
                     "math range error", id="overflow-hamiltonian"),
        pytest.param("parachute", "lagrangian", {"g": 1e-300, "lam": 1.0}, [300.0, 20.0, 0.0],
                     "math range error", id="overflow-lagrangian"),
        pytest.param("gierer_meinhardt", "planar", {"C": -50.0}, None, "non-finite state",
                     id="non-finite"),
    ])
    def test_abort_matches_call_path(self, name, chart_name, params, y0, reason):
        # a DomainError, an exp overflow and a state growing to inf end the
        # inlined run where and as they end the run that calls the field
        chart = make_system(name, **params).chart(chart_name)
        y0 = chart.x0 if y0 is None else y0
        inline, called = (integrate_fixed(rhs, y0, T=30.0, dt=0.01, layout=chart.layout,
                                          sample_every=1)
                          for rhs in (chart.rhs, lambda t, y: chart.rhs(t, y)))
        assert "rk4" in chart.form.loops
        assert inline.aborted and reason in inline.abort_reason
        assert inline.abort_reason == called.abort_reason
        assert inline.n_samples > 2
        assert np.array_equal(inline.times, called.times)
        assert np.array_equal(inline.states, called.states)

    def test_loop_is_made_on_the_first_run_and_kept_on_the_field(self, monkeypatch):
        made = []
        generate = integrate_mod._generate_rk4
        monkeypatch.setattr(integrate_mod, "_generate_rk4",
                            lambda d, form: made.append(form) or generate(d, form))
        chart = make_system("damped_oscillator").chart("hamiltonian")
        assert made == [] and chart.form.loops == {}
        integrate_fixed(chart.rhs, chart.x0, T=1.0, dt=0.1, layout=chart.layout)
        loop = chart.form.loops["rk4"]
        integrate_fixed(chart.rhs, chart.x0, T=2.0, dt=0.1, layout=chart.layout)
        assert made == [chart.form]
        assert chart.form.loops == {"rk4": loop}

    def test_inlined_run_calls_no_field(self):
        # 100 RK4 steps make 400 field evaluations: all inlined, none a call
        chart = make_system("forced_oscillator").chart("extended")
        calls = {True: 0, False: 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code is chart.rhs.__code__:
                calls[inline] += 1

        for inline, rhs in ((True, chart.rhs), (False, lambda t, y: chart.rhs(t, y))):
            sys.setprofile(count)
            try:
                integrate_fixed(rhs, chart.x0, T=1.0, dt=0.01, layout=chart.layout)
            finally:
                sys.setprofile(None)
        assert calls == {True: 0, False: 400}

    def test_kept_loops_do_not_keep_systems_alive(self):
        first = make_system("damped_oscillator")
        chart = first.chart()
        integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout)
        spec, field = weakref.ref(first), weakref.ref(chart.rhs)
        del first, chart
        for i in range(200):
            chart = make_system("damped_oscillator", gamma=0.1 + 1e-3 * i).chart()
            integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout)
        gc.collect()
        assert spec() is None and field() is None

    def test_generated_source_shows_in_tracebacks_and_getsource(self):
        chart = make_system("forced_oscillator").chart("extended")
        integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout)
        loop = chart.form.loops["rk4"]
        assert loop.__code__.co_filename == "<rk4 loop: forced_oscillator.h/extended>"
        assert "drive = F0 * cos(Omega * t)" in inspect.getsource(loop)

        def rhs(t, y):
            raise KeyError("not a field error")

        with pytest.raises(KeyError) as called:
            integrate_fixed(rhs, [0.0], T=1.0, dt=0.1, layout=("y",))
        text = "".join(traceback.format_exception(called.value))
        assert '"<rk4 loop: rhs call, d=1>"' in text and "= _rhs(_t, (_y0, ))" in text

        with pytest.raises(DomainError) as outside:
            make_system("gierer_meinhardt").chart("planar").rhs(0.0, (0.2, -5.0))
        text = "".join(traceback.format_exception(outside.value))
        assert '"<gierer_meinhardt.h>"' in text and "raise DomainError(" in text

    @pytest.mark.parametrize("name, chart_name, stepped", [
        ("damped_oscillator", "hamiltonian", ("q[0]", "p[0]")),
        ("damped_oscillator", "lagrangian", ("q[0]", "qdot[0]", "s")),  # the v row reads L
        ("parachute", "hamiltonian", ("s", "q[0]", "p[0]")),  # the velocity reads s
        ("parachute", "lagrangian", ("q[0]", "qdot[0]", "s")),
        ("forced_oscillator", "extended", ("t", "q[0]", "p[0]")),
        ("gierer_meinhardt", "contact", ("x", "y")),
        ("gierer_meinhardt", "planar", ("x", "y")),
    ])
    def test_a_run_that_keeps_nothing_steps_the_live_roles(self, name, chart_name, stepped):
        chart = make_system(name).chart(chart_name)
        traj = integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout,
                               keep=())
        assert traj.layout == stepped
        assert traj.meta.get("chart_layout", traj.layout) == chart.layout
        assert ("chart_layout" in traj.meta) == (stepped != chart.layout)
        # a kept component is stepped and recorded
        unread = [column for column in chart.layout if column not in stepped]
        kept = integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout,
                               keep=unread)
        assert kept.layout == chart.layout

    def test_reduced_loop_is_kept_under_the_roles_it_steps(self, monkeypatch):
        made = []
        generate = integrate_mod._generate_rk4
        monkeypatch.setattr(integrate_mod, "_generate_rk4",
                            lambda d, form: made.append(form.name) or generate(d, form))
        chart = make_system("forced_oscillator").chart("extended")
        for keep in ((), None, ("t", "p[0]"), ("s",), ()):
            integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout, keep=keep)
        label = "forced_oscillator.h/extended"
        assert made == [f"{label}, steps (t, q, p)", label]
        assert set(chart.form.loops) == {"rk4", "rk4, steps (t, q, p)"}
        loop = chart.form.loops["rk4, steps (t, q, p)"]
        assert loop.__code__.co_filename == f"<rk4 loop: {label}, steps (t, q, p)>"
        tree = ast.parse(inspect.getsource(loop))
        assigned = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        # no s and no H, which only the s row reads; three components per stage
        assert {"t", "q", "p", "drive", "H_q", "H_p", "_k4_2"} <= assigned
        assert not {"s", "H", "_k4_3"} & assigned

    def test_keep_names_components_of_the_layout(self):
        chart = make_system("damped_oscillator").chart("hamiltonian")
        with pytest.raises(ValueError, match=r"keep names \['q'\], not in layout"):
            integrate_fixed(chart.rhs, chart.x0, T=0.1, dt=0.01, layout=chart.layout,
                            keep=("q",))

    @pytest.mark.parametrize("params, reason", [
        ({"D": -5.0}, "violates B + p > 0"),
        ({"C": -50.0}, "non-finite state"),
    ])
    def test_reduced_run_that_fails_is_the_full_run(self, params, reason):
        # the contact chart reduced to (x, y) leaves the domain or blows up;
        # it is stepped again with z, and the abort is the full run's
        chart = make_system("gierer_meinhardt", **params).chart("contact")
        full, reduced = (integrate_fixed(chart.rhs, chart.x0, T=30.0, dt=0.01, sample_every=1,
                                         layout=chart.layout, keep=keep)
                         for keep in (None, ()))
        assert reduced.aborted and reason in reduced.abort_reason
        assert reduced.abort_reason == full.abort_reason
        assert reduced.layout == full.layout == chart.layout
        assert reduced.meta == full.meta
        assert np.array_equal(reduced.times, full.times)
        assert np.array_equal(reduced.states, full.states)

    def test_reduced_run_completes_when_only_an_unread_role_diverges(self):
        # with C + K < 0, z grows like exp(-(C + K) t) and overflows at
        # t = 283.4, long before x and y; a run that steps (x, y) alone
        # reaches T, and its columns are the full run's up to the abort
        chart = make_system("gierer_meinhardt", C=-1.0, K=-1.5).chart("contact")
        full, reduced = (integrate_fixed(chart.rhs, chart.x0, T=300.0, dt=0.01,
                                         sample_every=100, layout=chart.layout, keep=keep)
                         for keep in (None, ()))
        assert full.aborted and "non-finite state at t=283.4" in full.abort_reason
        assert not reduced.aborted and reduced.t_final == 300.0
        n = full.n_samples
        assert np.array_equal(reduced.times[:n], full.times)
        for name in reduced.layout:
            assert np.array_equal(reduced.column(name)[:n], full.column(name))


class TestVolumeContraction:
    def test_box_contraction_matches_divergence(self):
        # det of the flow-map Jacobian after time T equals exp(-(n+1) gamma T)
        gamma, T = 0.1, 5.0
        spec = make_system("damped_oscillator", m=1.0, omega=1.0, gamma=gamma)
        rhs = spec.chart("hamiltonian").rhs
        x0 = np.array([0.0, 1.0, 0.0])

        def flow(x):
            traj = integrate_fixed(rhs, x, T=T, dt=1e-3, layout=LAYOUT_SQP)
            return traj.states[-1]

        eps = 1e-6
        J = np.empty((3, 3))
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = eps
            J[:, j] = (flow(x0 + dx) - flow(x0 - dx)) / (2 * eps)
        det = np.linalg.det(J)
        assert det == pytest.approx(math.exp(-2 * gamma * T), rel=0.01)


# (n_traj, T, noise buffer, parameters) of the stepper-against-reference cases
_LANGEVIN_CASES = [
    (1, 2.5, 700, {}),
    (3, 2.5, 1000, {}),
    (1000, 0.6, None, {}),
    (3, 1.5, 1000, {"k_BT": 0.0}),
    (4, 1.0, 900, {"omega": 2000.0}),
    (2, 2.5, 666, {}),
    (1, 2.048, None, {}),
]
_LANGEVIN_IDS = ["n1", "n3", "n1000", "k_BT0", "diverging", "n2", "n1-fold-end"]


class TestLangevin:
    def system(self, seed=12345, **kw):
        args = dict(gamma=0.5, k_BT=1.0)
        args.update(kw)
        spec = make_system("brownian_oscillator", **args)
        return spec.chart(), replace(spec.noise, seed=seed)

    def test_seed_reproducibility(self):
        chart, noise = self.system()
        a = euler_maruyama_langevin(chart, noise, T=1.0, dt=1e-3)
        b = euler_maruyama_langevin(chart, noise, T=1.0, dt=1e-3)
        np.testing.assert_array_equal(a.states, b.states)

    def test_different_seed_differs(self):
        chart, noise = self.system()
        a = euler_maruyama_langevin(chart, noise, T=1.0, dt=1e-3)
        c = euler_maruyama_langevin(chart, replace(noise, seed=999), T=1.0, dt=1e-3)
        assert not np.array_equal(a.states, c.states)

    def test_zero_noise_is_euler(self):
        m, omega, gamma, dt = 1.0, 1.0, 0.05, 1e-3
        chart, noise = self.system(gamma=gamma, k_BT=0.0)
        chart = replace(chart, x0=[0.0, 1.0, 0.5])
        traj = euler_maruyama_langevin(chart, noise, T=0.1, dt=dt, sample_every=1)
        s, q, p = 0.0, 1.0, 0.5
        for i in range(1, traj.n_samples):
            ds = p * p / (2 * m) - m * omega**2 * q * q / 2 - gamma * s
            s, q, p = s + dt * ds, q + dt * (p / m), p + dt * (-gamma * p - m * omega**2 * q)
            assert traj.states[i, 0] == pytest.approx(s, rel=1e-14, abs=1e-300)
            assert traj.states[i, 1] == pytest.approx(q, rel=1e-14)
            assert traj.states[i, 2] == pytest.approx(p, rel=1e-14)

    def test_ensemble_member_bit_matches_single_run(self, monkeypatch):
        # a short noise buffer makes the ensemble (500 steps a block) and
        # the single runs (1500) cut their noise blocks at different steps;
        # T = 2.5 crosses two partial-sum flushes
        monkeypatch.setattr(integrate_mod, "_NOISE_MEMBER_STEPS", 1500)
        chart, noise = self.system(seed=777)
        stats = langevin_ensemble(chart, noise, T=2.5, dt=1e-3, n_traj=3)
        single = euler_maruyama_langevin(chart, noise, T=2.5, dt=1e-3).meta["stats"]
        np.testing.assert_array_equal(stats.term_averages[:, 0], single.term_averages[:, 0])
        assert stats.noise_virial[0] == single.noise_virial[0]
        assert stats.G_final[0] == single.G_final[0]
        # the other members draw their own streams
        assert len(set(stats.noise_virial.tolist())) == 3

    @pytest.mark.parametrize(
        "n_traj, T, noise_steps, params, sample_every",
        [*((*case, every) for every in (7, None) for case in _LANGEVIN_CASES),
         (1, 2.5, 700, {}, 1), (2, 2.5, 666, {}, 50), (3, 0.5, 1000, {}, 500)],
        ids=[*_LANGEVIN_IDS, *(f"{name}-no-samples" for name in _LANGEVIN_IDS),
             "n1-every-step", "n2-every-50", "n3-every-500"])
    def test_running_sums_bit_match_block_records(self, monkeypatch, n_traj, T,
                                                  noise_steps, params, sample_every):
        # every case but the last ends inside a noise block (steps = blocks
        # * length + rest): 2500 = 3 * 700 + 400, 2500 = 7 * 333 + 169, 600 =
        # 524 + 76 at the default buffer, 1500 = 4 * 333 + 168, 1000 = 4 *
        # 225 + 100, 2500 = 7 * 333 + 169 for two members; the 333-step noise
        # blocks cut the loop's blocks of _BLOCK_STEPS short.  Those runs also
        # end inside a block of the loop, and 2048 steps end on a partial-sum
        # flush.  Samples are kept every step, every 7 and every 50 steps,
        # and every 500 of 500 steps (no row but the last), by member 0 alone,
        # stepped with the noise blocks of n_traj members into buffers of 40
        # rows.  Without samples the loop steps only (q, p), which the terms,
        # G and the noise sum read; the reference steps all of (s, q, p)
        if noise_steps is not None:
            monkeypatch.setattr(integrate_mod, "_NOISE_MEMBER_STEPS", noise_steps)
        chart, noise = self.system(seed=4242, **params)
        *expected, expected_times, expected_samples = block_record_langevin(
            chart, noise, T, 1e-3, n_traj, sample_every or 7)
        names = ("term_averages", "noise_virial", "G_initial", "G_final")
        stats = integrate_mod._langevin_core(chart, noise, T, 1e-3, n_traj)
        for name, b in zip(names, expected):
            assert np.array_equal(getattr(stats, name), b, equal_nan=True), name
        if "omega" in params:
            assert not np.isfinite(stats.G_final).any()
        if sample_every is None:
            return
        monkeypatch.setattr(integrate_mod, "_SINK_ROWS", 40)
        blocks = []

        def flush(times, states):
            blocks.append((times.copy(), states.copy()))
            return np.empty(40), np.empty((40, 3))

        single = integrate_mod._langevin_core(chart, noise, T, 1e-3, n_traj, range(1),
                                              sample_every, flush)
        for name, b in zip(names, expected):
            assert np.array_equal(getattr(single, name), b[..., :1], equal_nan=True), name
        assert max(len(t) for t, _ in blocks) <= 40
        assert np.array_equal(np.concatenate([t for t, _ in blocks]), expected_times)
        assert np.array_equal(np.concatenate([s for _, s in blocks]), expected_samples[..., 0],
                              equal_nan=True)

    def test_generated_loops_step_only_the_live_roles(self):
        # the ensemble's loop steps (q, p): no s and no H, which only the s
        # row reads; the single run keeps samples of s and steps it
        chart, noise = self.system()
        form = chart.form
        assert form.loops == {}  # generated by the first stepping call
        langevin_ensemble(chart, noise, T=0.01, dt=1e-3, n_traj=2)
        ensemble = form.loops["em"]
        langevin_ensemble(chart, noise, T=0.02, dt=1e-3, n_traj=3)
        assert form.loops == {"em": ensemble}
        euler_maruyama_langevin(chart, noise, T=0.01, dt=1e-3)
        single = form.loops["em, samples"]
        assert form.live(("q",)) == ("q", "p") and form.live(form.roles) == form.roles
        label = "brownian_oscillator.h/hamiltonian"
        assert ensemble.__code__.co_filename == f"<em loop: {label}, steps (q, p)>"
        assert single.__code__.co_filename == f"<em loop: {label}, steps (s, q, p), samples>"

        def assigned(loop):
            tree = ast.parse(inspect.getsource(loop))
            return {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}

        assert {"q", "p", "H_q", "H_p"} <= assigned(ensemble)
        assert not {"s", "H"} & assigned(ensemble)
        assert {"s", "q", "p", "H", "H_q", "H_p"} <= assigned(single)
        # the single run keeps every role's rows of the block's multiples of
        # `every`, and the ensemble keeps none
        for i, role in enumerate(form.roles):
            assert f"_kept[_n_kept:_m, {i}] = {role}[_j::_every]" in inspect.getsource(single)
        assert "_kept[" not in inspect.getsource(ensemble)
        assert "_flush(" in inspect.getsource(single)
        assert "_flush" not in inspect.getsource(ensemble)
        # per step each loop runs the drift and the update and writes the
        # new state into the block buffers; the terms, the noise sum, the
        # partial sums and the samples are taken once per block
        for loop, stepped in ((ensemble, ("q", "p")), (single, form.roles)):
            tree = ast.parse(inspect.getsource(loop))
            per_step, = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
            assert ast.unparse(per_step.iter) == "_dWs"
            names = {node.id for node in ast.walk(per_step) if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Store)}
            drift = [c for role, c in zip(form.roles, form.field) if role in stepped]
            assert names == {"_dW", "_r", *stepped, *form.reads(drift) & set(form.defs),
                             *(f"_d_{role}" for role in stepped)}
            stored = {ast.unparse(node.value) for node in ast.walk(per_step)
                      if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)}
            assert stored == {f"_b_{role}" for role in stepped}
            read = {node.id for node in ast.walk(per_step) if isinstance(node, ast.Name)}
            assert not {"_noise", "_kept", "_times", "_every", "_step"} & read

    def test_block_rows_are_summed_in_row_order(self):
        # partial sums gain one step at a time: rows of one value are
        # accumulated (np.add.reduce would sum them pairwise) and rows of
        # members are reduced one row after another
        rng = np.random.default_rng(3)
        for shape in [(33,), (32,), (9,), (1,), (32, 1), (32, 2), (17, 3), (33, 500)]:
            rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape)
            expected = rows[0]
            for row in rows[1:]:
                expected = expected + row
            assert np.array_equal(integrate_mod._sum_rows(rows), expected), shape
        rows = rng.standard_normal(32) * 10.0 ** rng.integers(-9, 9, 32)
        assert integrate_mod._sum_rows(rows) != np.add.reduce(rows)  # pairwise differs
        assert _SUM_STEPS % integrate_mod._BLOCK_STEPS == 0

    def test_domain_check_stays_and_keeps_its_roles_live(self, monkeypatch):
        import contactdyn.systems as systems_mod

        reference_chart, noise = self.system(seed=31)
        reference = langevin_ensemble(reference_chart, noise, T=0.5, dt=1e-3, n_traj=3)
        model = systems_mod._MODELS["brownian_oscillator.h"]
        # a check that holds reads s, which no term, G or noise sum reads
        monkeypatch.setitem(systems_mod._MODELS, "brownian_oscillator.h",
                            replace(model, domain="s < 1e9"))
        chart, _ = self.system(seed=31)
        stats = langevin_ensemble(chart, noise, T=0.5, dt=1e-3, n_traj=3)
        euler_maruyama_langevin(chart, noise, T=0.5, dt=1e-3)
        assert chart.form.live(("q",)) == ("s", "q", "p")
        for key in ("em", "em, samples"):
            loop = chart.form.loops[key]
            assert "steps (s, q, p)" in loop.__code__.co_filename
            assert "if not all(s < 1e9):" in inspect.getsource(loop)
        np.testing.assert_array_equal(stats.term_averages, reference.term_averages)
        np.testing.assert_array_equal(stats.noise_virial, reference.noise_virial)
        # without noise s falls from 0 at the rate -H = -1/2, so a check
        # that s stays above -1e-3 fails at the third step, for member
        # arrays and one member alike
        monkeypatch.setitem(systems_mod._MODELS, "brownian_oscillator.h",
                            replace(model, domain="s > -1e-3"))
        chart, noise = self.system(seed=31, k_BT=0.0)
        with pytest.raises(DomainError, match="violates s > -1e-3") as failed:
            langevin_ensemble(chart, noise, T=0.5, dt=1e-3, n_traj=3)
        text = "".join(traceback.format_exception(failed.value))
        assert '"<em loop: brownian_oscillator.h/hamiltonian, steps (s, q, p)>"' in text
        with pytest.raises(DomainError, match="violates s > -1e-3"):
            euler_maruyama_langevin(chart, noise, T=0.5, dt=1e-3)

    def test_wrapped_rhs_steps_the_same(self):
        # Euler-Maruyama reads the form from the chart, not through its rhs,
        # so a wrapper put in place of the rhs (as a tracer does) carries no
        # form and changes nothing
        chart, noise = self.system(seed=8)
        wrapped = replace(chart, rhs=lambda t, y: chart.rhs(t, y))
        runs = [langevin_ensemble(c, noise, T=0.1, dt=1e-3, n_traj=3) for c in (chart, wrapped)]
        np.testing.assert_array_equal(runs[0].term_averages, runs[1].term_averages)
        single = [euler_maruyama_langevin(c, noise, T=0.1, dt=1e-3) for c in (chart, wrapped)]
        np.testing.assert_array_equal(single[0].states, single[1].states)

    @pytest.mark.parametrize(
        "case", [*((n, 0.3, None, {}) for n in (2, 3, 4, 5)),
                 _LANGEVIN_CASES[_LANGEVIN_IDS.index("diverging")]],
        ids=["n2", "n3", "n4", "n5", "diverging"])
    def test_stats_do_not_depend_on_the_cpu_count(self, monkeypatch, case):
        # the members are split into one range per CPU, and a range of one
        # member steps scalars where the others step member arrays
        n_traj, T, _, params = case
        chart, noise = self.system(seed=4242, **params)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(integrate_mod, "_cpu_count", lambda: cpus)
            runs.append(langevin_ensemble(chart, noise, T=T, dt=1e-3, n_traj=n_traj))
        for stats in runs[1:]:
            assert stats.n_traj == n_traj
            for name in ("term_averages", "noise_virial", "G_initial", "G_final"):
                assert np.array_equal(getattr(stats, name), getattr(runs[0], name),
                                      equal_nan=True), name
        if "omega" in params:
            assert not np.isfinite(runs[0].G_final).any()

    def test_chart_without_statements_is_refused(self):
        chart, noise = self.system()
        with pytest.raises(ValueError, match="carries none"):
            langevin_ensemble(replace(chart, form=None), noise, T=0.1, dt=1e-3, n_traj=2)

    def test_ensemble_memory_is_noise_buffers_plus_per_member(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; the two noise buffers
        # hold at most _NOISE_MEMBER_STEPS doubles each, and the rest
        # (generators, member arrays, sums, and the block of steps: a
        # buffer of _BLOCK_STEPS + 1 doubles per stepped role and a few
        # temporaries of that size per member) is a few kB per member.  One
        # CPU keeps every member range in this process, where tracemalloc
        # sees it
        monkeypatch.setattr(integrate_mod, "_cpu_count", lambda: 1)
        chart, noise = self.system(k_BT=0.5, seed=5)
        n_traj = 1000
        tracemalloc.start()
        try:
            langevin_ensemble(chart, noise, T=1.0, dt=1e-3, n_traj=n_traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * integrate_mod._NOISE_MEMBER_STEPS + 4096 * n_traj

    def test_equipartition_small_ensemble(self):
        # coarse 3-sigma style sanity check at modest cost; the full-size
        # ensemble lives in the acceptance suite
        chart, noise = self.system(seed=2024)
        stats = langevin_ensemble(chart, noise, T=50.0, dt=1e-3, n_traj=64)
        names = [b.name for b in chart.terms]
        ke = stats.term_averages[names.index("kinetic")].mean()
        pe = stats.term_averages[names.index("potential")].mean()
        assert ke == pytest.approx(0.5, rel=0.15)
        assert pe == pytest.approx(0.5, rel=0.15)

    def test_guard_on_coarse_step(self):
        chart, noise = self.system(gamma=200.0)
        with pytest.raises(ValueError, match="gamma"):
            euler_maruyama_langevin(chart, noise, T=1.0, dt=1e-3)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(m=-1.0, gamma=0.5, k_BT=1.0, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(m=1.0, gamma=0.0, k_BT=1.0, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(m=1.0, gamma=0.5, k_BT=-0.5, seed=0)
        assert NoiseSpec(m=2.0, gamma=0.5, k_BT=2.0, seed=0).amplitude == pytest.approx(2.0)


class TestAveraging:
    """Time averages of sampled quantities, taken as `virial_report` terms of a custom chart."""

    def test_constant_average(self):
        times = np.linspace(0.0, 7.3, 1001)
        spec = observing_system(("v",), G=lambda v: v, c=lambda v: np.full_like(v, 4.2))
        traj = Trajectory(times=times, states=np.zeros((1001, 1)), layout=("v",))
        assert virial_report(spec, traj).term("c") == pytest.approx(4.2, rel=1e-14)

    def _one_period(self, term):
        # one period of the undamped orbit q = cos t
        chart = UNDAMPED.chart()
        traj = integrate_fixed(chart.rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                               layout=chart.layout, sample_every=1)
        spec = observing_system(chart.layout, G=lambda s, q, p: q * p, f=term)
        return virial_report(spec, traj).term("f")

    def test_odd_function_over_period(self):
        assert self._one_period(lambda s, q, p: q) == pytest.approx(0.0, abs=1e-8)

    def test_quadratic_over_period(self):
        assert self._one_period(lambda s, q, p: q ** 2) == pytest.approx(0.5, abs=1e-6)

    def test_window_start_interpolates(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        spec = observing_system(("v",), G=lambda v: v, v=lambda v: v)  # v = t
        traj = Trajectory(times=times, states=times[:, None], layout=("v",))
        rep = virial_report(spec, traj, t0=0.5)
        # over [0.5, 3]: mean of t = 1.75
        assert rep.term("v") == pytest.approx(1.75, rel=1e-14)
        assert rep.G_initial == 0.5

    def test_window_beyond_data_rejected(self):
        spec = observing_system(("v",), G=lambda v: v, v=lambda v: v)
        traj = Trajectory(times=np.array([0.0, 1.0]), states=np.ones((2, 1)), layout=("v",))
        with pytest.raises(ValueError, match="recorded span"):
            virial_report(spec, traj, t0=2.0)


class TestFixedStepMemory:
    @pytest.mark.parametrize("keep", [None, ()])
    def test_bytes_per_sample_are_the_recorded_doubles(self, keep):
        # times and states grow as array('d') buffers that the trajectory
        # wraps without a copy: 8 bytes per recorded double, plus at most 1/16
        # for the buffers' over-allocation and the one boolean per time of
        # the trajectory's check that times increase.  Times kept as a list of
        # Python floats took some 40 bytes each instead of 8
        chart = make_system("forced_oscillator").chart("extended")
        # the first run generates the loop, which is kept on the chart's form
        integrate_fixed(chart.rhs, chart.x0, T=1.0, dt=1e-3, layout=chart.layout, keep=keep)
        tracemalloc.start()
        try:
            traj = integrate_fixed(chart.rhs, chart.x0, T=50.0, dt=1e-3,
                                   layout=chart.layout, sample_every=1, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, width = traj.n_samples, len(traj.layout)
        assert width == (4 if keep is None else 3)
        assert peak <= 8 * (1 + width) * n * 17 / 16 + n + 16 * 1024


class TestTrajectoryType:
    def test_monotonic_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 1)), layout=("q",))

    def test_layout_length_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0]), states=np.zeros((1, 2)), layout=("q",))

    def test_column_access(self):
        traj = Trajectory(times=np.array([0.0, 1.0]),
                          states=np.array([[1.0, 2.0], [3.0, 4.0]]),
                          layout=("a", "b"))
        np.testing.assert_array_equal(traj.column("b"), [2.0, 4.0])


class TestCsv:
    def test_round_trip_17_digits(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=0.5, dt=1e-3, layout=LAYOUT_SQP)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,s,q[0],p[0]"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], traj.times)
        np.testing.assert_array_equal(parsed[:, 1:4], traj.states)

    def test_deterministic_bytes(self):
        rhs = contact_rhs(DAMPED.hamiltonian)
        outs = []
        for _ in range(2):
            traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=0.5, dt=1e-3, layout=LAYOUT_SQP)
            buf = io.StringIO()
            write_trajectory_csv(traj, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_block_format_equals_row_by_row(self):
        # write_csv formats a block of rows at a time with _g17.format_rows;
        # the text must be that of formatting row by row with `%`, across
        # block edges and at the ends of the doubles.  At least 16 385 rows,
        # so that the logspace scales are dense in every decade
        block = integrate_mod._CSV_BLOCK_ROWS
        n = 2 * max(block, 8192) + 1
        scales = np.logspace(-300, 300, n)[:, None]
        rows = np.random.default_rng(5).standard_normal((n, 3)) * scales
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324, math.inf, math.nan]
        for i in (0, block - 1, block, n - 1):
            rows[i] = np.roll(extremes, i)[:3]
        buf = io.StringIO()
        integrate_mod.write_csv(buf, ["a", "b", "c"], rows)
        per_row = "".join("%.17g,%.17g,%.17g\n" % tuple(row) for row in rows.tolist())
        assert buf.getvalue() == "a,b,c\n" + per_row
        assert buf.getvalue().count("\n") == n + 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_text_does_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path, cpus):
        # the blocks are written in order whatever the CPU count
        monkeypatch.setattr(integrate_mod, "_cpu_count", lambda: cpus)
        block = integrate_mod._CSV_BLOCK_ROWS
        n_rows = 3 * max(block, 8192) + 1
        rows = np.random.default_rng(11).standard_normal((n_rows, 2))
        for n in (0, 1, block - 1, block, block + 1, n_rows):
            expected = "x,y\n" + "".join("%.17g,%.17g\n" % tuple(row)
                                         for row in rows[:n].tolist())
            buf = io.StringIO()
            integrate_mod.write_csv(buf, ["x", "y"], rows[:n])
            assert buf.getvalue() == expected, n
            path = tmp_path / f"{n}.csv"
            integrate_mod.write_csv(path, ["x", "y"], rows[:n])
            assert path.read_bytes() == expected.encode(), n

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_columns_give_the_bytes_of_their_stacked_rows(self, monkeypatch, cpus):
        # the columns, views of one array among them, are stacked a block at a
        # time; the text is that of the rows stacked whole, at the block edges
        monkeypatch.setattr(integrate_mod, "_cpu_count", lambda: cpus)
        block = integrate_mod._CSV_BLOCK_ROWS
        n_rows = max(block, 8192) + 1
        rng = np.random.default_rng(17)
        times, states = rng.standard_normal(n_rows), rng.standard_normal((n_rows, 3))
        for n in (0, 1, block - 1, block, block + 1, n_rows):
            stacked, columns = io.StringIO(), io.StringIO()
            integrate_mod.write_csv(stacked, ["t", "a", "b", "c"],
                                    np.column_stack([times[:n], states[:n]]))
            integrate_mod.write_csv(columns, ["t", "a", "b", "c"],
                                    [times[:n], *states[:n].T])
            assert columns.getvalue() == stacked.getvalue(), n
            assert columns.getvalue().count("\n") == n + 1

    def test_trajectory_csv_memory_does_not_grow_with_the_rows(self):
        # numpy reports its buffers to tracemalloc.  The rows are stacked one
        # block at a time, so writing 4 times the rows raises the traced peak
        # by less than one block of the stacked doubles; stacking the whole
        # trajectory first raised it by the added rows' stacked copy

        class Discard:
            def write(self, text):
                return len(text)

        block = integrate_mod._CSV_BLOCK_ROWS
        chart = DAMPED.chart("hamiltonian")
        peaks = []
        for n in (2 * max(block, 8192), 8 * max(block, 8192)):
            traj = integrate_fixed(chart.rhs, chart.x0, T=(n - 1) * 1e-3, dt=1e-3,
                                   layout=chart.layout, sample_every=1)
            assert traj.n_samples == n
            tracemalloc.start()
            try:
                write_trajectory_csv(traj, Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * (1 + len(chart.layout)) * block


class TestForked:
    """The fork-join helper behind the ensemble's member ranges."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(integrate_mod, "_cpu_count", lambda: 2)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_items_run_in_worker_i_mod_w_and_come_back_in_order(self):
        pids = list(integrate_mod._forked(lambda item: os.getpid(), range(5)))
        assert pids[0::2] == [os.getpid()] * 3
        assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()
        assert list(integrate_mod._forked(lambda i: i * i, range(7))) == [i * i for i in range(7)]
        self.assert_no_child_left()

    def test_one_item_or_one_cpu_forks_nothing(self, monkeypatch):
        assert list(integrate_mod._forked(lambda item: os.getpid(), [0])) == [os.getpid()]
        monkeypatch.setattr(integrate_mod, "_cpu_count", lambda: 1)
        pids = list(integrate_mod._forked(lambda item: os.getpid(), range(3)))
        assert pids == [os.getpid()] * 3

    def test_a_childs_error_reaches_the_caller_with_its_type_and_text(self):
        parent = os.getpid()

        def child_fails(item):
            if os.getpid() == parent:
                return item
            raise DomainError(f"state (s, q, p) = ({item}.0, 0.2, 0.2) violates B + p > 0")

        results = integrate_mod._forked(child_fails, range(4))
        assert next(results) == 0
        with pytest.raises(DomainError) as failed:
            next(results)
        assert type(failed.value) is DomainError
        assert str(failed.value) == "state (s, q, p) = (1.0, 0.2, 0.2) violates B + p > 0"
        # the child's traceback is the cause
        text = "".join(traceback.format_exception(failed.value))
        assert "in child_fails" in text and "_WorkerTraceback" in text
        self.assert_no_child_left()

    def test_a_child_that_dies_is_an_error(self):
        def dies(item):
            if item == 1:
                os._exit(3)
            return item

        with pytest.raises(RuntimeError, match="ended without sending its result"):
            list(integrate_mod._forked(dies, range(4)))
        self.assert_no_child_left()

    def test_no_child_outlives_a_caller_that_stops_early_or_is_interrupted(self):
        parent = os.getpid()

        def slow(item):
            if os.getpid() != parent:
                time.sleep(30)  # killed long before
            return item

        results = integrate_mod._forked(slow, range(6))
        assert next(results) == 0
        started = time.perf_counter()
        results.close()
        assert time.perf_counter() - started < 10
        self.assert_no_child_left()

        def interrupted(item):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return slow(item)

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            list(integrate_mod._forked(interrupted, range(6)))
        assert time.perf_counter() - started < 10
        self.assert_no_child_left()
