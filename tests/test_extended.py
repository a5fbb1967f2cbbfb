"""Extended-space evolution field: frozen values, lifts, contraction identities."""

import math

import numpy as np
import pytest

from contactdyn.core import NonFiniteError, contact_vector_field
from contactdyn.extended import (
    ExtendedPoint,
    TimeDependentHamiltonianModel,
    check_partials_extended,
    evolution_field,
    frozen_time,
    lift_autonomous,
)
from contactdyn.systems import make_system

from conftest import (
    DAMPED,
    FORCED,
    PARACHUTE,
    free_particle_h,
    random_point,
    random_quadratic_observable,
)


def ept(t, s, q, p):
    from contactdyn.core import DarbouxPoint

    return ExtendedPoint(t=t, base=DarbouxPoint(s=s, q=np.atleast_1d(q), p=np.atleast_1d(p)))


class TestEvolutionField:
    def test_forced_at_t0(self):
        v = evolution_field(FORCED.extended, ept(0.0, 0.0, 1.0, 2.0))
        assert v.dt == 1.0
        assert v.ds == pytest.approx(2.5, abs=1e-14)
        assert v.dq[0] == pytest.approx(2.0, abs=1e-14)
        assert v.dp[0] == pytest.approx(-0.2, abs=1e-14)

    def test_forcing_node_at_quarter_period(self):
        # cos(2 * pi/4) = 0: instantaneously the autonomous damped field
        v = evolution_field(FORCED.extended, ept(math.pi / 4, 0.0, 1.0, 2.0))
        assert v.dt == 1.0
        assert v.ds == pytest.approx(1.5, abs=1e-14)
        assert v.dq[0] == pytest.approx(2.0, abs=1e-14)
        assert v.dp[0] == pytest.approx(-1.2, abs=1e-14)

    def test_zero_amplitude_reduces_to_damped(self):
        rng = np.random.default_rng(2)
        h_off = make_system("forced_oscillator", m=1.0, omega=1.0, gamma=0.1, F0=0.0,
                            Omega=2.0).extended
        h_auto = DAMPED.hamiltonian
        for _ in range(20):
            x = random_point(rng, 1)
            t = float(rng.uniform(-5, 5))
            v = evolution_field(h_off, ExtendedPoint(t, x))
            w = contact_vector_field(h_auto, x)
            # bit-identical: same arithmetic path on the same floats
            assert v.ds == w.ds
            assert v.dq[0] == w.dq[0]
            assert v.dp[0] == w.dp[0]

    def test_lift_autonomous_bit_identical(self):
        rng = np.random.default_rng(4)
        for h in (DAMPED.hamiltonian, PARACHUTE.hamiltonian, free_particle_h()):
            lifted = lift_autonomous(h)
            for _ in range(10):
                x = random_point(rng, 1)
                v = evolution_field(lifted, ExtendedPoint(float(rng.normal()), x))
                w = contact_vector_field(h, x)
                assert v.dt == 1.0
                assert (v.ds, v.dq[0], v.dp[0]) == (w.ds, w.dq[0], w.dp[0])

    def test_dt_always_one(self):
        rng = np.random.default_rng(6)
        h = FORCED.extended
        for _ in range(25):
            y = ExtendedPoint(float(rng.uniform(-10, 10)), random_point(rng, 1))
            assert evolution_field(h, y).dt == 1.0


class TestExtendedPoint:
    def test_non_finite_time_rejected(self):
        with pytest.raises(NonFiniteError):
            ept(math.inf, 0.0, 0.0, 0.0)

    def test_n(self):
        assert ept(0.0, 0.0, 1.0, 2.0).n == 1


class TestFrozenTime:
    def test_snapshot_matches_direct_evaluation(self):
        h = FORCED.extended
        t = 0.3
        snap = frozen_time(h, t)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = random_point(rng, 1)
            y = ExtendedPoint(t, x)
            assert snap.value(x) == h.value(y)
            assert snap.d_s(x) == h.d_s(y)
            np.testing.assert_array_equal(snap.d_q(x), h.d_q(y))
            np.testing.assert_array_equal(snap.d_p(x), h.d_p(y))


class TestCheckPartialsExtended:
    def test_forced_passes(self):
        for t in (0.0, 0.7, 2.5):
            report = check_partials_extended(FORCED.extended, ept(t, 0.2, 1.0, 2.0))
            assert report.passed, report.failures()
            labels = [c.label for c in report.checks]
            assert labels == ["t", "s", "q[0]", "p[0]"]

    def test_corrupted_time_partial_flagged(self):
        h = FORCED.extended
        bad = TimeDependentHamiltonianModel(
            n=1,
            value=h.value,
            d_t=lambda y: h.d_t(y) + 0.5,
            d_s=h.d_s,
            d_q=h.d_q,
            d_p=h.d_p,
            name="bad_t",
        )
        report = check_partials_extended(bad, ept(0.4, 0.2, 1.0, 2.0))
        assert not report.passed
        assert {c.label for c in report.failures()} == {"t"}

    def test_step_validation(self):
        with pytest.raises(ValueError):
            check_partials_extended(FORCED.extended, ept(0.0, 0.0, 1.0, 2.0), step=-1.0)

    def test_labels_and_indices_at_n2(self):
        rng = np.random.default_rng(12)
        h = random_quadratic_observable(rng, 2)

        def drive(y):
            return math.cos(1.3 * y.t)

        hx = TimeDependentHamiltonianModel(
            n=2,
            value=lambda y: h.value(y.base) * drive(y),
            d_t=lambda y: -1.3 * h.value(y.base) * math.sin(1.3 * y.t),
            d_s=lambda y: h.d_s(y.base) * drive(y),
            d_q=lambda y: h.d_q(y.base) * drive(y),
            d_p=lambda y: h.d_p(y.base) * drive(y),
            name="driven",
        )
        y = ExtendedPoint(t=0.4, base=random_point(rng, 2))
        report = check_partials_extended(hx, y)
        assert [c.label for c in report.checks] == ["t", "s", "q[0]", "q[1]", "p[0]", "p[1]"]
        assert report.passed, report.failures()
        bad = TimeDependentHamiltonianModel(
            n=2, value=hx.value, d_t=hx.d_t, d_s=hx.d_s,
            d_q=lambda y: hx.d_q(y) + np.array([0.0, 1.0]), d_p=hx.d_p, name="bad_q1",
        )
        assert [c.label for c in check_partials_extended(bad, y).failures()] == ["q[1]"]

    def test_dimension_checked_before_evaluation(self):
        from contactdyn.core import DimensionMismatchError

        def never(y):
            raise AssertionError("evaluated")

        model = TimeDependentHamiltonianModel(
            n=2, value=never, d_t=never, d_s=never, d_q=never, d_p=never
        )
        with pytest.raises(DimensionMismatchError):
            check_partials_extended(model, ept(0.0, 0.0, 1.0, 2.0))


def _alpha_of_field(h, y, v):
    # alpha = h dt + ds - p dq paired with the field components
    return h.value(y) * v.dt + v.ds - float(y.base.p @ v.dq)


def _contraction_components(h, y, v):
    """Components of the field contracted into d(alpha), from the definition.

    With alpha = h dt + ds - p_i dq^i one has
    d(alpha) = dh ^ dt - dp_i ^ dq^i, and pairing the field (dt, ds, dq, dp)
    into the first slot gives the coefficients below coordinate by coordinate.
    """
    hs = h.d_s(y)
    hq = np.asarray(h.d_q(y), dtype=float)
    hp = np.asarray(h.d_p(y), dtype=float)
    c_dt = hs * v.ds + float(hq @ v.dq) + float(hp @ v.dp)
    c_ds = -hs * v.dt
    c_dq = -hq * v.dt - v.dp
    c_dp = -hp * v.dt + v.dq
    return c_dt, c_ds, c_dq, c_dp


class TestStructureConditions:
    """The two defining conditions of the evolution field, in coordinates."""

    def models(self):
        return [
            FORCED.extended,
            lift_autonomous(DAMPED.hamiltonian),
            lift_autonomous(PARACHUTE.hamiltonian),
        ]

    def test_alpha_annihilates_field(self):
        rng = np.random.default_rng(10)
        for h in self.models():
            for _ in range(25):
                y = ExtendedPoint(float(rng.uniform(-4, 4)), random_point(rng, 1))
                v = evolution_field(h, y)
                assert _alpha_of_field(h, y, v) == pytest.approx(0.0, abs=1e-12)

    def test_contraction_spatial_components(self):
        # ds, dq, dp coefficients of the contraction equal those of
        # -xi(h) alpha (the dq one reducing to +p dh/ds, the dp one to 0)
        rng = np.random.default_rng(12)
        for h in self.models():
            for _ in range(25):
                y = ExtendedPoint(float(rng.uniform(-4, 4)), random_point(rng, 1))
                v = evolution_field(h, y)
                _, c_ds, c_dq, c_dp = _contraction_components(h, y, v)
                hs = h.d_s(y)
                assert c_ds == pytest.approx(-hs, rel=1e-12, abs=1e-12)
                assert c_dq[0] == pytest.approx(y.base.p[0] * hs, rel=1e-12, abs=1e-12)
                assert c_dp[0] == pytest.approx(0.0, abs=1e-12)

    def test_contraction_time_component(self):
        # The dt coefficient is -h dh/ds exactly (the instantaneous rate of h
        # along the spatial field).  The combination dh/dt - h dh/ds matches
        # it only where dh/dt = 0: for genuinely time-dependent models the
        # two differ by exactly dh/dt, which the autonomous lifts make zero.
        rng = np.random.default_rng(14)
        for h in self.models():
            for _ in range(25):
                y = ExtendedPoint(float(rng.uniform(-4, 4)), random_point(rng, 1))
                v = evolution_field(h, y)
                c_dt, _, _, _ = _contraction_components(h, y, v)
                hval, ht, hs = h.value(y), h.d_t(y), h.d_s(y)
                assert c_dt == pytest.approx(-hval * hs, rel=1e-10, abs=1e-10)
                defect = (ht - hval * hs) - c_dt
                assert defect == pytest.approx(ht, rel=1e-10, abs=1e-10)

    def test_time_component_matches_zeta_form_when_autonomous(self):
        rng = np.random.default_rng(16)
        h = lift_autonomous(DAMPED.hamiltonian)
        for _ in range(25):
            y = ExtendedPoint(float(rng.uniform(-4, 4)), random_point(rng, 1))
            v = evolution_field(h, y)
            c_dt, _, _, _ = _contraction_components(h, y, v)
            assert c_dt == pytest.approx(h.d_t(y) - h.value(y) * h.d_s(y), rel=1e-12, abs=1e-12)
