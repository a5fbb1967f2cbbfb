"""Steppers and averaging: convergence order, analytic envelopes, noise, aborts."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

import contactdyn.integrate as integrate_mod
from contactdyn.core import contact_vector_field
from contactdyn.integrate import (
    _A,
    _B4,
    _C,
    _ERR,
    NoiseSpec,
    Trajectory,
    euler_maruyama_langevin,
    integrate_adaptive,
    integrate_fixed,
    langevin_ensemble,
    trapezoid_average,
    write_trajectory_csv,
)
from contactdyn.systems import make_system

from conftest import damped_oscillator_h, parachute_h

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
        rhs = contact_rhs(damped_oscillator_h(gamma=0.0))
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3, layout=LAYOUT_SQP)
        assert not traj.aborted
        assert traj.t_final == pytest.approx(2 * math.pi, abs=1e-12)
        assert traj.states[-1, 1] == pytest.approx(1.0, abs=1e-9)
        assert traj.states[-1, 2] == pytest.approx(0.0, abs=1e-9)

    def test_fourth_order_convergence(self):
        rhs = contact_rhs(damped_oscillator_h(gamma=0.0))
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
        rhs = contact_rhs(damped_oscillator_h(gamma=gamma))
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=40.0, dt=1e-3, layout=LAYOUT_SQP)
        q, p = traj.states[:, 1], traj.states[:, 2]
        energy = 0.5 * (p**2 + q**2)
        ratio = energy * np.exp(gamma * traj.times) / 0.5
        assert ratio.max() < 1.06
        assert energy[-1] < 0.5 * math.exp(-gamma * 39.0)

    def test_parachute_terminal_velocity(self):
        rhs = contact_rhs(parachute_h())
        traj = integrate_fixed(rhs, [0.0, 0.0, 0.0], T=20.0, dt=1e-3, layout=LAYOUT_SQP)
        s, p = traj.states[-1, 0], traj.states[-1, 2]
        velocity = (p - 2 * 0.5 * s) / 1.0
        assert velocity == pytest.approx(-math.sqrt(10.0 / 0.5), abs=1e-4)

    def test_final_partial_step_lands_on_T(self):
        rhs = contact_rhs(damped_oscillator_h())
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0005, dt=1e-3, layout=LAYOUT_SQP)
        assert traj.t_final == 1.0005

    def test_sampling_stride(self):
        rhs = contact_rhs(damped_oscillator_h())
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
        rhs = contact_rhs(damped_oscillator_h())
        with pytest.raises(ValueError):
            integrate_fixed(rhs, [0.0, 1.0, 0.0], T=-1.0, dt=1e-3, layout=LAYOUT_SQP)
        with pytest.raises(ValueError):
            integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0, dt=2.0, layout=LAYOUT_SQP)
        with pytest.raises(ValueError):
            integrate_fixed(rhs, [0.0, 1.0, 0.0], T=1.0, dt=1e-3,
                            layout=LAYOUT_SQP, sample_every=0)


class TestAdaptive:
    def test_matches_fixed_on_harmonic(self):
        rhs = contact_rhs(damped_oscillator_h(gamma=0.0))
        fixed = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                                layout=LAYOUT_SQP)
        adaptive = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=2 * math.pi,
                                      rel_tol=1e-10, abs_tol=1e-12, layout=LAYOUT_SQP)
        assert not adaptive.aborted
        np.testing.assert_allclose(adaptive.states[-1], fixed.states[-1], atol=1e-8)

    def test_endpoint_exact(self):
        rhs = contact_rhs(damped_oscillator_h())
        traj = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=10.0, layout=LAYOUT_SQP)
        assert traj.t_final == 10.0

    def test_dense_output_grid(self):
        rhs = contact_rhs(damped_oscillator_h(gamma=0.0))
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

    def test_rejection_counters_recorded(self):
        rhs = contact_rhs(damped_oscillator_h())
        traj = integrate_adaptive(rhs, [0.0, 1.0, 0.0], T=10.0, layout=LAYOUT_SQP)
        assert traj.meta["n_accepted"] > 0
        assert traj.meta["n_rejected"] >= 0

    def test_tolerance_validation(self):
        rhs = contact_rhs(damped_oscillator_h())
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


class TestFloatStepping:
    """The float loops against numpy-array references, and their abort paths."""

    @pytest.mark.parametrize("system, chart", [("forced_oscillator", "extended"),
                                               ("damped_oscillator", "hamiltonian")])
    def test_rk4_bit_identical_to_array_formula(self, system, chart):
        c = make_system(system).chart(chart)
        traj = integrate_fixed(c.rhs, c.x0, T=2.0, dt=1e-3, layout=c.layout,
                               sample_every=1)
        ref = reference_rk4(c.rhs, c.x0, 2000, 1e-3)
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

    @pytest.mark.parametrize("blowup", [lambda q: math.exp(1000.0 + q),
                                        lambda q: 1.0 / (q - q)],
                             ids=["overflow", "zero-division"])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["rk4", "rkf45"])
    def test_float_errors_abort_with_valid_prefix(self, blowup, adaptive):
        # q' = 1 until q reaches 0.5, where float arithmetic raises instead of
        # returning inf
        def rhs(t, y):
            return (1.0 if y[0] < 0.5 else blowup(y[0]),)

        if adaptive:
            traj = integrate_adaptive(rhs, [0.0], T=2.0, layout=("q",),
                                      sample_interval=0.01)
        else:
            traj = integrate_fixed(rhs, [0.0], T=2.0, dt=1e-3, layout=("q",))
        assert traj.aborted
        assert "failed" in traj.abort_reason
        assert traj.n_samples >= 2
        assert traj.times[-1] < 0.5 + 1e-9
        np.testing.assert_allclose(traj.states[:, 0], traj.times, atol=1e-12)


class TestVolumeContraction:
    def test_box_contraction_matches_divergence(self):
        # det of the flow-map Jacobian after time T equals exp(-(n+1) gamma T)
        gamma, T = 0.1, 5.0
        rhs = contact_rhs(damped_oscillator_h(gamma=gamma))
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


class TestLangevin:
    def system(self, **kw):
        args = dict(gamma=0.5, k_BT=1.0, seed=12345)
        args.update(kw)
        spec = make_system("brownian_oscillator", **args)
        return spec.chart(), spec.noise

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
        chart = replace(chart, x0=[0.0, 0.0, 1.0, 0.5])
        traj = euler_maruyama_langevin(chart, noise, T=0.1, dt=dt, sample_every=1)
        s, q, p = 0.0, 1.0, 0.5
        for i in range(1, traj.n_samples):
            ds = p * p / (2 * m) - m * omega**2 * q * q / 2 - gamma * s
            s, q, p = s + dt * ds, q + dt * (p / m), p + dt * (-gamma * p - m * omega**2 * q)
            assert traj.states[i, 1] == pytest.approx(s, rel=1e-14, abs=1e-300)
            assert traj.states[i, 2] == pytest.approx(q, rel=1e-14)
            assert traj.states[i, 3] == pytest.approx(p, rel=1e-14)

    def test_ensemble_member_bit_matches_single_run(self, monkeypatch):
        # a short block makes the ensemble and the single runs cut their
        # blocks at different steps
        monkeypatch.setattr(integrate_mod, "_BLOCK_MEMBER_STEPS", 1500)
        chart, noise = self.system(seed=777)
        stats = langevin_ensemble(chart, noise, T=2.5, dt=1e-3, n_traj=3)
        for i in range(3):
            single = euler_maruyama_langevin(chart, replace(noise, seed=777 ^ i),
                                             T=2.5, dt=1e-3)
            sstats = single.meta["stats"]
            np.testing.assert_array_equal(stats.term_averages[:, i],
                                          sstats.term_averages[:, 0])
            assert stats.noise_virial[i] == sstats.noise_virial[0]
            assert stats.G_final[i] == sstats.G_final[0]

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
    def test_constant_average(self):
        times = np.linspace(0.0, 7.3, 1001)
        assert trapezoid_average(times, np.full(1001, 4.2)) == pytest.approx(4.2, rel=1e-14)

    def test_odd_function_over_period(self):
        rhs = contact_rhs(damped_oscillator_h(gamma=0.0))
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                               layout=LAYOUT_SQP, sample_every=1)
        assert trapezoid_average(traj.times, traj.states[:, 1]) == pytest.approx(0.0, abs=1e-8)

    def test_quadratic_over_period(self):
        rhs = contact_rhs(damped_oscillator_h(gamma=0.0))
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=2 * math.pi, dt=1e-3,
                               layout=LAYOUT_SQP, sample_every=1)
        assert trapezoid_average(traj.times, traj.states[:, 1] ** 2) == pytest.approx(
            0.5, abs=1e-6)

    def test_window_start_interpolates(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([0.0, 1.0, 2.0, 3.0])  # v = t
        # over [0.5, 3]: mean of t = 1.75
        assert trapezoid_average(times, values, t0=0.5) == pytest.approx(1.75, rel=1e-14)

    def test_window_beyond_data_rejected(self):
        with pytest.raises(ValueError):
            trapezoid_average(np.array([0.0, 1.0]), np.array([1.0, 1.0]), t0=2.0)


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
        rhs = contact_rhs(damped_oscillator_h())
        traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=0.5, dt=1e-3, layout=LAYOUT_SQP)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, observables={"energy": traj.states[:, 2] ** 2})
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,s,q[0],p[0],energy"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], traj.times)
        np.testing.assert_array_equal(parsed[:, 1:4], traj.states)
        np.testing.assert_array_equal(parsed[:, 4], traj.states[:, 2] ** 2)

    def test_deterministic_bytes(self):
        rhs = contact_rhs(damped_oscillator_h())
        outs = []
        for _ in range(2):
            traj = integrate_fixed(rhs, [0.0, 1.0, 0.0], T=0.5, dt=1e-3, layout=LAYOUT_SQP)
            buf = io.StringIO()
            write_trajectory_csv(traj, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_observable_length_mismatch(self):
        traj = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 1)), layout=("q",))
        with pytest.raises(ValueError):
            write_trajectory_csv(traj, io.StringIO(), observables={"x": np.zeros(3)})
