"""Velocity-chart dynamics: energy, field, Legendre bridge, regularity guard."""

import numpy as np
import pytest

from contactdyn.herglotz import (
    LagrangianModel,
    LagrangianPoint,
    RegularityError,
    check_lagrangian_partials,
    energy_EL,
    lagrangian_field,
    legendre_map,
    regularity_estimate,
)

from conftest import DAMPED, PARACHUTE, UNDAMPED


def lpt(q, qdot, s):
    return LagrangianPoint(q=np.atleast_1d(q), qdot=np.atleast_1d(qdot), s=s)


def free_particle_L(m=1.0):
    return LagrangianModel(
        n=1,
        value=lambda z: m * z.qdot[0] ** 2 / 2,
        d_s=lambda z: 0.0,
        d_q=lambda z: np.zeros(1),
        d_qdot=lambda z: np.array([m * z.qdot[0]]),
        w=lambda z: np.array([[m]]),
        d2_q_qdot=lambda z: np.zeros((1, 1)),
        d2_s_qdot=lambda z: np.zeros(1),
        name="free_L",
    )


def random_lpoint(rng, n=1, scale=2.0):
    return LagrangianPoint(
        q=rng.uniform(-scale, scale, size=n),
        qdot=rng.uniform(-scale, scale, size=n),
        s=float(rng.uniform(-scale, scale)),
    )


class TestEnergy:
    def test_free_particle(self):
        rng = np.random.default_rng(0)
        L = free_particle_L()
        for _ in range(10):
            z = random_lpoint(rng)
            assert energy_EL(L, z) == pytest.approx(z.qdot[0] ** 2 / 2, rel=1e-14)

    def test_damped_oscillator(self):
        assert energy_EL(DAMPED.lagrangian, lpt(1.0, 2.0, 0.0)) == pytest.approx(2.5)

    def test_parachute(self):
        # the qdot-s cross term drops out of the energy
        assert energy_EL(PARACHUTE.lagrangian, lpt(0.0, 1.0, 3.0)) == pytest.approx(0.5)


class TestLagrangianField:
    def test_damped_oscillator(self):
        v = lagrangian_field(DAMPED.lagrangian, lpt(1.0, 2.0, 0.0))
        assert v.ds == pytest.approx(1.5, abs=1e-14)
        assert v.dq[0] == pytest.approx(2.0, abs=1e-14)
        assert v.dqdot[0] == pytest.approx(-1.2, abs=1e-14)

    def test_parachute_release(self):
        v = lagrangian_field(PARACHUTE.lagrangian, lpt(0.0, 0.0, 0.0))
        assert v.ds == pytest.approx(0.0, abs=1e-14)
        assert v.dq[0] == pytest.approx(0.0, abs=1e-14)
        assert v.dqdot[0] == pytest.approx(-10.0, abs=1e-13)

    def test_parachute_acceleration_closed_form(self):
        # the exponential and s-coupling terms cancel: qddot = lam qdot^2 - g
        # at every state, not just the release point
        rng = np.random.default_rng(1)
        L = PARACHUTE.lagrangian
        lam, g = 0.5, 10.0
        for _ in range(20):
            z = random_lpoint(rng, scale=1.0)
            v = lagrangian_field(L, z)
            assert v.dqdot[0] == pytest.approx(lam * z.qdot[0] ** 2 - g, rel=1e-11, abs=1e-11)

    def test_undamped_limit(self):
        v = lagrangian_field(UNDAMPED.lagrangian, lpt(1.0, 0.0, 0.0))
        assert v.ds == pytest.approx(-0.5)
        assert v.dq[0] == 0.0
        assert v.dqdot[0] == pytest.approx(-1.0)

    def test_ds_is_lagrangian_value(self):
        rng = np.random.default_rng(2)
        for L in (DAMPED.lagrangian, PARACHUTE.lagrangian):
            for _ in range(15):
                z = random_lpoint(rng)
                assert lagrangian_field(L, z).ds == pytest.approx(L.value(z), rel=1e-14)

    def test_coupled_two_dof(self):
        # anisotropic mass matrix with off-diagonal coupling: exercise the solve
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        k, gamma = 1.5, 0.2
        L = LagrangianModel(
            n=2,
            value=lambda z: 0.5 * float(z.qdot @ M @ z.qdot)
            - 0.5 * k * float(z.q @ z.q)
            - gamma * z.s,
            d_s=lambda z: -gamma,
            d_q=lambda z: -k * z.q,
            d_qdot=lambda z: M @ z.qdot,
            w=lambda z: M,
            d2_q_qdot=lambda z: np.zeros((2, 2)),
            d2_s_qdot=lambda z: np.zeros(2),
            name="coupled",
        )
        rng = np.random.default_rng(3)
        Minv = np.linalg.inv(M)
        for _ in range(10):
            z = random_lpoint(rng, n=2)
            v = lagrangian_field(L, z)
            np.testing.assert_allclose(v.dqdot, -k * (Minv @ z.q) - gamma * z.qdot, rtol=1e-12)
        assert check_lagrangian_partials(L, random_lpoint(rng, n=2)).passed


class TestRegularity:
    def test_scalar_estimate(self):
        assert regularity_estimate(DAMPED.lagrangian, lpt(0.0, 0.0, 0.0)) == 1.0

    def test_cubic_kinetic_singular_at_rest(self):
        L = LagrangianModel(
            n=1,
            value=lambda z: z.qdot[0] ** 3 / 3,
            d_s=lambda z: 0.0,
            d_q=lambda z: np.zeros(1),
            d_qdot=lambda z: np.array([z.qdot[0] ** 2]),
            w=lambda z: np.array([[2 * z.qdot[0]]]),
            d2_q_qdot=lambda z: np.zeros((1, 1)),
            d2_s_qdot=lambda z: np.zeros(1),
            name="cubic",
        )
        with pytest.raises(RegularityError, match="singular"):
            lagrangian_field(L, lpt(0.0, 0.0, 0.0))
        # away from rest the field exists
        v = lagrangian_field(L, lpt(0.0, 1.0, 0.0))
        assert v.dqdot[0] == pytest.approx(0.0, abs=1e-14)

    def test_rank_deficient_matrix(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        L = LagrangianModel(
            n=2,
            value=lambda z: 0.5 * float(z.qdot @ M @ z.qdot),
            d_s=lambda z: 0.0,
            d_q=lambda z: np.zeros(2),
            d_qdot=lambda z: M @ z.qdot,
            w=lambda z: M,
            d2_q_qdot=lambda z: np.zeros((2, 2)),
            d2_s_qdot=lambda z: np.zeros(2),
            name="degenerate",
        )
        assert regularity_estimate(L, random_lpoint(np.random.default_rng(4), n=2)) < 1e-12
        with pytest.raises(RegularityError):
            lagrangian_field(L, lpt([0.0, 0.0], [1.0, 0.0], 0.0))


class TestLegendre:
    def test_damped(self):
        x = legendre_map(DAMPED.lagrangian, lpt(1.0, 2.0, 0.0))
        assert (x.s, x.q[0], x.p[0]) == (0.0, 1.0, 2.0)

    def test_parachute_shifted_momentum(self):
        x = legendre_map(PARACHUTE.lagrangian, lpt(0.0, 1.0, 3.0))
        assert (x.s, x.q[0], x.p[0]) == (3.0, 0.0, 4.0)
        # image value of the Hamiltonian equals the energy on the source side
        assert PARACHUTE.hamiltonian.value(x) == pytest.approx(0.5)

    def test_hamiltonian_matches_energy(self):
        rng = np.random.default_rng(5)
        pairs = [
            (DAMPED.lagrangian, DAMPED.hamiltonian),
            (PARACHUTE.lagrangian, PARACHUTE.hamiltonian),
        ]
        for L, h in pairs:
            for _ in range(30):
                z = random_lpoint(rng)
                assert h.value(legendre_map(L, z)) == pytest.approx(
                    energy_EL(L, z), rel=1e-12, abs=1e-12
                )

    def test_field_components_agree_through_legendre(self):
        # ds and dq of the two pictures coincide at matched states
        from contactdyn.core import contact_vector_field

        rng = np.random.default_rng(6)
        pairs = [
            (DAMPED.lagrangian, DAMPED.hamiltonian),
            (PARACHUTE.lagrangian, PARACHUTE.hamiltonian),
        ]
        for L, h in pairs:
            for _ in range(20):
                z = random_lpoint(rng)
                vL = lagrangian_field(L, z)
                vH = contact_vector_field(h, legendre_map(L, z))
                assert vL.ds == pytest.approx(vH.ds, rel=1e-12, abs=1e-12)
                assert vL.dq[0] == pytest.approx(vH.dq[0], rel=1e-12, abs=1e-12)

    def test_energy_rate_matches_nonconservation_law(self):
        # d(E_L)/dt along the flow = -(h dh/ds) at the Legendre image
        from contactdyn.core import reeb_derivative

        rng = np.random.default_rng(7)
        pairs = [
            (DAMPED.lagrangian, DAMPED.hamiltonian),
            (PARACHUTE.lagrangian, PARACHUTE.hamiltonian),
        ]
        for L, h in pairs:
            for _ in range(15):
                z = random_lpoint(rng, scale=1.0)
                v = lagrangian_field(L, z)

                def along(eps):
                    return energy_EL(
                        L,
                        LagrangianPoint(
                            q=z.q + eps * v.dq,
                            qdot=z.qdot + eps * v.dqdot,
                            s=z.s + eps * v.ds,
                        ),
                    )

                eps = 1e-6
                rate = (along(eps) - along(-eps)) / (2 * eps)
                x = legendre_map(L, z)
                assert rate == pytest.approx(
                    -h.value(x) * reeb_derivative(h, x), rel=1e-6, abs=1e-6
                )


class TestReebFieldOfVelocityChart:
    def test_derived_components_annihilate_structure(self):
        # xi_L = d/ds - W^{ij} (d2L/ds dqdot_j) d/dqdot_i: check the defining
        # contraction a_i(xi_L) = 0 where a_i is the differential of dL/dqdot_i
        # restricted to (s, qdot), which is what the two-form pairing needs.
        rng = np.random.default_rng(8)
        for L in (DAMPED.lagrangian, PARACHUTE.lagrangian):
            for _ in range(10):
                z = random_lpoint(rng)
                W = np.asarray(L.w(z), dtype=float)
                mixed_s = np.asarray(L.d2_s_qdot(z), dtype=float)
                xi_qdot = -np.linalg.solve(W, mixed_s)
                residual = W @ xi_qdot + mixed_s
                np.testing.assert_allclose(residual, np.zeros(z.n), atol=1e-14)

    def test_parachute_reeb_velocity_component(self):
        z = lpt(0.0, 1.0, 0.0)
        L = PARACHUTE.lagrangian
        W = np.asarray(L.w(z), dtype=float)
        mixed_s = np.asarray(L.d2_s_qdot(z), dtype=float)
        xi_qdot = -np.linalg.solve(W, mixed_s)
        assert xi_qdot[0] == pytest.approx(-1.0)  # -(2 lam)/m at lam=0.5, m=1


class TestOracle:
    def test_catalog_lagrangians_pass(self):
        rng = np.random.default_rng(9)
        for L in (DAMPED.lagrangian, PARACHUTE.lagrangian):
            for _ in range(5):
                report = check_lagrangian_partials(L, random_lpoint(rng))
                assert report.passed, report.failures()

    def test_corrupt_mixed_partial_flagged(self):
        L = PARACHUTE.lagrangian
        bad = LagrangianModel(
            n=1,
            value=L.value,
            d_s=L.d_s,
            d_q=L.d_q,
            d_qdot=L.d_qdot,
            w=L.w,
            d2_q_qdot=L.d2_q_qdot,
            d2_s_qdot=lambda z: np.array([0.7]),  # true value 2*lam = 1.0
            name="bad_mixed",
        )
        report = check_lagrangian_partials(bad, lpt(0.0, 1.0, 0.5))
        assert {c.label for c in report.failures()} == {"d2_s_qdot[0]"}

    def test_asymmetric_w_flagged(self):
        M = np.array([[1.0, 0.2], [0.0, 1.0]])  # deliberately asymmetric
        L = LagrangianModel(
            n=2,
            value=lambda z: 0.5 * float(z.qdot @ ((M + M.T) / 2) @ z.qdot),
            d_s=lambda z: 0.0,
            d_q=lambda z: np.zeros(2),
            d_qdot=lambda z: ((M + M.T) / 2) @ z.qdot,
            w=lambda z: M,
            d2_q_qdot=lambda z: np.zeros((2, 2)),
            d2_s_qdot=lambda z: np.zeros(2),
            name="asym",
        )
        report = check_lagrangian_partials(L, random_lpoint(np.random.default_rng(10), n=2))
        labels = {c.label for c in report.failures()}
        assert "W_sym[0,1]" in labels or "W_sym[1,0]" in labels

    def test_step_validation(self):
        with pytest.raises(ValueError):
            check_lagrangian_partials(DAMPED.lagrangian, lpt(0.0, 0.0, 0.0), step=0.0)

    def test_labels_and_indices_at_n2(self):
        # distinct entries in every block, so a misplaced index shows
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        A = np.array([[0.5, -1.2], [0.7, 0.1]])   # L has qdot . A q
        b = np.array([0.4, -0.9])                 # L has s * (qdot . b)

        def model(d2_q_qdot):
            return LagrangianModel(
                n=2,
                value=lambda z: 0.5 * float(z.qdot @ M @ z.qdot) + float(z.qdot @ A @ z.q)
                + z.s * float(z.qdot @ b) - 0.25 * z.s ** 2,
                d_s=lambda z: float(z.qdot @ b) - 0.5 * z.s,
                d_q=lambda z: A.T @ z.qdot,
                d_qdot=lambda z: M @ z.qdot + A @ z.q + z.s * b,
                w=lambda z: M,
                d2_q_qdot=d2_q_qdot,
                d2_s_qdot=lambda z: b,
                name="coupled",
            )

        z = LagrangianPoint(q=np.array([0.3, -0.8]), qdot=np.array([1.1, 0.6]), s=0.7)
        report = check_lagrangian_partials(model(lambda z: A.T), z)
        assert [c.label for c in report.checks] == [
            "s", "q[0]", "q[1]", "qdot[0]", "qdot[1]",
            "W[0,0]", "W_sym[0,0]", "W[0,1]", "W_sym[0,1]",
            "W[1,0]", "W_sym[1,0]", "W[1,1]", "W_sym[1,1]",
            "d2_q_qdot[0,0]", "d2_q_qdot[0,1]", "d2_q_qdot[1,0]", "d2_q_qdot[1,1]",
            "d2_s_qdot[0]", "d2_s_qdot[1]",
        ]
        assert report.passed, report.failures()
        corrupted = A.T + np.array([[0.0, 0.0], [1.0, 0.0]])
        report = check_lagrangian_partials(model(lambda z: corrupted), z)
        assert [c.label for c in report.failures()] == ["d2_q_qdot[1,0]"]


def test_point_validation():
    from contactdyn.core import DimensionMismatchError, NonFiniteError

    with pytest.raises(DimensionMismatchError):
        LagrangianPoint(q=np.zeros(2), qdot=np.zeros(1), s=0.0)
    with pytest.raises(NonFiniteError):
        LagrangianPoint(q=np.zeros(1), qdot=np.array([np.inf]), s=0.0)
