"""Point evaluations on the Darboux chart: fields, divergence, oracle.

The divergence -(n+1) H_s of every catalog chart's field is proved in
test_symbolic.py; here the generic field's Jacobian trace, taken by central
differences, is held to it at n = 1, 2 and 3.
"""

import numpy as np
import pytest

from contactdyn.core import (
    DarbouxPoint,
    DimensionMismatchError,
    NonFiniteError,
    ScalarField,
    TangentVector,
    check_partials,
    contact_vector_field,
)
from contactdyn.systems import make_system

from conftest import (
    DAMPED,
    PARACHUTE,
    free_particle_h,
    random_point,
    random_quadratic_observable,
)


def pt(s, q, p):
    return DarbouxPoint(s=s, q=np.atleast_1d(q), p=np.atleast_1d(p))


def jacobian_trace(h, x, step=1e-5):
    """Trace of the central-difference Jacobian of h's contact field at x."""
    flat = np.concatenate(([x.s], x.q, x.p))

    def component(k, y):
        v = contact_vector_field(h, DarbouxPoint(s=y[0], q=y[1:h.n + 1], p=y[h.n + 1:]))
        return np.concatenate(([v.ds], v.dq, v.dp))[k]

    unit = np.eye(flat.size) * step
    return sum((component(k, flat + unit[k]) - component(k, flat - unit[k])) / (2 * step)
               for k in range(flat.size))


class TestDarbouxPoint:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DarbouxPoint(s=0.0, q=np.zeros(2), p=np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            DarbouxPoint(s=np.inf, q=np.zeros(1), p=np.zeros(1))
        with pytest.raises(NonFiniteError):
            DarbouxPoint(s=0.0, q=np.array([np.nan]), p=np.zeros(1))

    def test_scalar_inputs_promoted(self):
        x = DarbouxPoint(s=0, q=1.0, p=2.0)
        assert x.n == 1
        assert x.q[0] == 1.0 and x.p[0] == 2.0


class TestContactVectorField:
    def test_free_particle(self):
        v = contact_vector_field(free_particle_h(), pt(0.0, 0.0, 1.0))
        assert v.ds == pytest.approx(0.5, abs=1e-15)
        assert v.dq[0] == pytest.approx(1.0, abs=1e-15)
        assert v.dp[0] == pytest.approx(0.0, abs=1e-15)

    def test_damped_oscillator(self):
        v = contact_vector_field(DAMPED.hamiltonian, pt(0.0, 1.0, 2.0))
        assert v.ds == pytest.approx(1.5, abs=1e-14)
        assert v.dq[0] == pytest.approx(2.0, abs=1e-14)
        assert v.dp[0] == pytest.approx(-1.2, abs=1e-14)

    def test_parachute_free_fall_onset(self):
        v = contact_vector_field(PARACHUTE.hamiltonian, pt(0.0, 0.0, 0.0))
        assert v.ds == pytest.approx(0.0, abs=1e-14)
        assert v.dq[0] == pytest.approx(0.0, abs=1e-14)
        assert v.dp[0] == pytest.approx(-10.0, abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contact_vector_field(DAMPED.hamiltonian, DarbouxPoint(0.0, np.zeros(2), np.zeros(2)))

    def test_non_finite_partial_raises(self):
        bad = ScalarField(
            n=1,
            value=lambda x: x.q[0],
            d_s=lambda x: 0.0,
            d_q=lambda x: np.array([np.nan]),
            d_p=lambda x: np.zeros(1),
            name="bad",
        )
        with pytest.raises(NonFiniteError):
            contact_vector_field(bad, pt(0.0, 0.0, 0.0))

    def test_eta_pairing(self):
        # ds - p.dq on the field equals -h (defining condition of the field)
        rng = np.random.default_rng(7)
        for h in (DAMPED.hamiltonian, PARACHUTE.hamiltonian, free_particle_h()):
            for _ in range(20):
                x = random_point(rng, 1)
                v = contact_vector_field(h, x)
                lhs = v.ds - float(x.p @ v.dq)
                assert lhs == pytest.approx(-h.value(x), rel=1e-12, abs=1e-12)


class TestReebDerivative:
    # the Reeb derivative of h is its partial h.d_s
    def test_s_independent(self):
        assert free_particle_h().d_s(pt(0.3, 0.7, -1.1)) == 0.0

    def test_damped(self):
        assert DAMPED.hamiltonian.d_s(pt(5.0, -3.0, 2.0)) == pytest.approx(0.1)

    def test_parachute(self):
        assert PARACHUTE.hamiltonian.d_s(pt(0.0, 0.0, 1.0)) == pytest.approx(-1.0)


class TestApplyField:
    """Rates of functions along the contact field, by the chain rule at a point."""

    @staticmethod
    def rate(grad, v):
        ds, dq, dp = grad
        return ds * v.ds + float(np.dot(dq, v.dq)) + float(np.dot(dp, v.dp))

    def test_virial_rate_damped(self):
        # G = q p: {G, h} = p h_p - q h_q = 3 and G h_s = 0.2 at (0, 1, 2)
        x = pt(0.0, 1.0, 2.0)
        val = self.rate((0.0, x.p, x.q), contact_vector_field(DAMPED.hamiltonian, x))
        assert val == pytest.approx(2.8, rel=1e-12)

    def test_hamiltonian_not_conserved(self):
        # X_h(h) = -h dh/ds; at (0,1,2) the damped oscillator gives -0.25
        h = DAMPED.hamiltonian
        x = pt(0.0, 1.0, 2.0)
        val = self.rate((h.d_s(x), h.d_q(x), h.d_p(x)), contact_vector_field(h, x))
        assert val == pytest.approx(-0.25, rel=1e-12)
        assert val == pytest.approx(-h.value(x) * h.d_s(x), rel=1e-12)


class TestDivergence:
    # the Jacobian trace of the generic field against -(n+1) h_s
    def test_s_independent_is_zero(self):
        assert jacobian_trace(free_particle_h(), pt(0.0, 1.0, 2.0)) == pytest.approx(0.0, abs=1e-9)

    def test_damped(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            trace = jacobian_trace(DAMPED.hamiltonian, random_point(rng, 1))
            assert trace == pytest.approx(-0.2, abs=1e-9)

    def test_parachute(self):
        trace = jacobian_trace(PARACHUTE.hamiltonian, pt(0.0, 0.0, 1.0))
        assert trace == pytest.approx(2.0, abs=1e-6)

    def test_matches_jacobian_trace(self):
        rng = np.random.default_rng(5)
        for h in (DAMPED.hamiltonian, PARACHUTE.hamiltonian, free_particle_h()):
            for _ in range(10):
                x = random_point(rng, 1, scale=1.0)
                assert jacobian_trace(h, x) == pytest.approx(-2 * h.d_s(x), abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_jacobian_trace_coupled(self, n):
        # random quadratics couple every coordinate pair, so pairing a field
        # component with the wrong coordinate changes the trace
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            h = random_quadratic_observable(rng, n)
            x = random_point(rng, n, scale=1.0)
            assert jacobian_trace(h, x) == pytest.approx(-(n + 1) * h.d_s(x), abs=1e-6)


class TestCheckPartials:
    def test_damped_passes(self):
        report = check_partials(DAMPED.hamiltonian, pt(0.0, 1.0, 2.0), step=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_parachute_passes(self):
        report = check_partials(PARACHUTE.hamiltonian, pt(0.0, 1.0, 1.0), step=1e-5)
        assert report.passed

    def test_corrupted_partial_flagged(self):
        h = DAMPED.hamiltonian
        corrupted = ScalarField(
            n=1,
            value=h.value,
            d_s=h.d_s,
            d_q=lambda x: h.d_q(x) + 1.0,  # off by one
            d_p=h.d_p,
            name="corrupted",
        )
        report = check_partials(corrupted, pt(0.0, 1.0, 2.0))
        assert not report.passed
        bad = {c.label for c in report.failures()}
        assert bad == {"q[0]"}
        # analytic 2 vs numeric 1, normalised by max(|2|, |1|, 1)
        (check,) = report.failures()
        assert check.rel_error == pytest.approx(0.5, rel=0.1)

    def test_roundoff_of_a_large_value_passes(self):
        # h ~ m*omega^2*q^2/2 = 2e6 at the probe, so the differences carry
        # ~eps*|h|/step of roundoff, above 1e-6 of the s partial gamma = 0.1;
        # the partials are exact, so the model builds and passes
        h = make_system("damped_oscillator", omega=2000.0, gamma=0.1).hamiltonian
        report = check_partials(h, pt(0.0, 1.0, 0.0))
        assert report.passed
        assert report.max_rel_error > 1e-6

    def test_roundoff_allowance_still_flags_a_wrong_partial(self):
        h = make_system("damped_oscillator", omega=2000.0, gamma=0.1).hamiltonian
        corrupted = ScalarField(
            n=1,
            value=h.value,
            d_s=lambda x: 1.01 * h.d_s(x),  # 1% off
            d_q=h.d_q,
            d_p=h.d_p,
            name="corrupted",
        )
        report = check_partials(corrupted, pt(0.0, 1.0, 0.0))
        assert {c.label for c in report.failures()} == {"s"}

    def test_evaluation_failure_reported_not_fatal(self):
        def value(x):
            if x.q[0] > 1.0:
                raise ValueError("out of domain")
            return x.q[0]

        model = ScalarField(
            n=1,
            value=value,
            d_s=lambda x: 0.0,
            d_q=lambda x: np.ones(1),
            d_p=lambda x: np.zeros(1),
            name="guarded",
        )
        report = check_partials(model, pt(0.0, 1.0, 0.0))
        q_check = next(c for c in report.checks if c.label == "q[0]")
        assert not q_check.ok and "failed" in q_check.note
        # remaining coordinates still checked
        assert next(c for c in report.checks if c.label == "s").ok

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            check_partials(DAMPED.hamiltonian, pt(0.0, 1.0, 2.0), step=0.0)

    def test_labels_and_indices_at_n2(self):
        rng = np.random.default_rng(8)
        h = random_quadratic_observable(rng, 2)
        x = random_point(rng, 2)
        report = check_partials(h, x)
        assert [c.label for c in report.checks] == ["s", "q[0]", "q[1]", "p[0]", "p[1]"]
        assert report.passed, report.failures()
        corrupted = ScalarField(
            n=2,
            value=h.value,
            d_s=h.d_s,
            d_q=h.d_q,
            d_p=lambda x: h.d_p(x) + np.array([0.0, 1.0]),
            name="corrupted",
        )
        assert [c.label for c in check_partials(corrupted, x).failures()] == ["p[1]"]

    def test_dimension_checked_before_evaluation(self):
        def never(x):
            raise AssertionError("evaluated")

        model = ScalarField(n=2, value=never, d_s=never, d_q=never, d_p=never)
        with pytest.raises(DimensionMismatchError):
            check_partials(model, pt(0.0, 1.0, 2.0))


class TestTangentVector:
    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            TangentVector(ds=0.0, dq=np.zeros(2), dp=np.zeros(1))

    def test_n(self):
        v = TangentVector(ds=1.0, dq=np.zeros(3), dp=np.zeros(3))
        assert v.n == 3


def test_nparticle_field_shapes():
    # three uncoupled damped oscillators assembled as one n=3 model
    m, omega, gamma = 1.0, 1.0, 0.1
    h = ScalarField(
        n=3,
        value=lambda x: float(x.p @ x.p) / (2 * m)
        + m * omega**2 * float(x.q @ x.q) / 2
        + gamma * x.s,
        d_s=lambda x: gamma,
        d_q=lambda x: m * omega**2 * x.q,
        d_p=lambda x: x.p / m,
        name="damped_3",
    )
    x = DarbouxPoint(0.0, np.array([1.0, 0.0, -1.0]), np.array([0.0, 2.0, 0.5]))
    v = contact_vector_field(h, x)
    assert v.n == 3
    np.testing.assert_allclose(v.dq, x.p / m)
    np.testing.assert_allclose(v.dp, -(m * omega**2 * x.q + x.p * gamma))
    assert jacobian_trace(h, x) == pytest.approx(-4 * gamma, abs=1e-9)
    assert check_partials(h, x).passed
