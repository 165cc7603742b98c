import re

import numpy as np
import pytest

from mpmech import dynamics
from mpmech.dynamics import (
    HamiltonianSpec,
    TrajectoryRecord,
    gradient,
    integrate,
    integrate_ep,
    legendre,
)
from mpmech.errors import (
    DegenerateMetricError,
    DimensionMismatch,
    InputError,
    IntegrationError,
)

P0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class TestGradient:
    def test_identity_quadratic(self):
        spec = HamiltonianSpec.quadratic(np.eye(2))
        assert np.array_equal(gradient(spec, [1.0, 2.0]), [1.0, 2.0])

    def test_linear_term_only(self, rng):
        b = np.array([0.0, 0.0, 1.0])
        spec = HamiltonianSpec.quadratic(np.zeros((3, 3)), b)
        for _ in range(10):
            z = rng.standard_normal(3)
            assert np.array_equal(gradient(spec, z), b)

    def test_blackbox_matches_analytic_derivative(self):
        spec = HamiltonianSpec.blackbox(lambda z: np.sin(z[0]), dim=1)
        grad = gradient(spec, np.array([0.3]))
        assert abs(grad[0] - np.cos(0.3)) <= 1e-8

    @pytest.mark.parametrize("dim", [6.7, 6.0, "6", "abc", True, np.True_, 0, -1, None])
    def test_blackbox_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(InputError, match=f"^a black-box dimension must be an integer of "
                                             f"at least 1, got {re.escape(repr(dim))}$"):
            HamiltonianSpec.blackbox(lambda z: 0.0, dim)

    def test_blackbox_dimension_may_be_a_numpy_integer(self):
        spec = HamiltonianSpec.blackbox(lambda z: 0.0, np.int64(6))
        assert spec.dim == 6 and type(spec.dim) is int

    @pytest.mark.parametrize("f", [5, None, "f"], ids=["int", "None", "str"])
    def test_blackbox_must_be_callable(self, f):
        with pytest.raises(InputError, match=f"^a black box must be callable, got {type(f).__name__}$"):
            HamiltonianSpec.blackbox(f, 6)

    @pytest.mark.parametrize("result", ["x", [1.0, 2.0], None, 1j])
    def test_blackbox_result_must_be_a_number(self, result):
        spec = HamiltonianSpec.blackbox(lambda z: result, 2)
        message = f"^a black box returned {type(result).__name__}, not a number$"
        with pytest.raises(InputError, match=message):
            gradient(spec, [1.0, 2.0])
        with pytest.raises(InputError, match=message):
            spec.value([1.0, 2.0])

    def test_blackbox_own_errors_escape_unchanged(self):
        def f(z):
            raise ValueError("inside the black box")
        spec = HamiltonianSpec.blackbox(f, 2)
        for call in (lambda: gradient(spec, [1.0, 2.0]), lambda: spec.value([1.0, 2.0])):
            with pytest.raises(ValueError, match="^inside the black box$") as err:
                call()
            assert type(err.value) is ValueError

    def test_dimension_mismatch(self):
        spec = HamiltonianSpec.quadratic(np.eye(2))
        with pytest.raises(DimensionMismatch):
            gradient(spec, [1.0, 2.0, 3.0])

    def test_non_finite_value_rejected(self):
        spec = HamiltonianSpec.blackbox(lambda z: np.sqrt(z[0]) if z[0] >= 0 else np.nan, dim=1)
        with pytest.raises(InputError):
            gradient(spec, np.array([0.0]))  # NaN on the negative side, as sqrt

    def test_asymmetric_quadratic_rejected(self):
        Q = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            HamiltonianSpec.quadratic(Q)


class TestLegendre:
    def test_identity_metric(self):
        H = legendre(np.eye(3), np.eye(3))
        assert np.array_equal(H.Q, np.eye(6))
        assert np.abs(H.b).max() == 0.0

    def test_diagonal_metric(self):
        H = legendre(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        assert np.allclose(np.diag(H.Q), [1.0, 0.5, 1.0 / 3.0, 1.0, 1.0, 1.0])

    def test_singular_metric_rejected(self):
        with pytest.raises(DegenerateMetricError):
            legendre(np.diag([1.0, 1.0, 0.0]), np.eye(3))

    def test_asymmetric_metric_rejected(self):
        M = np.eye(3)
        M[0, 1] = 0.5
        with pytest.raises(DegenerateMetricError):
            legendre(M, np.eye(3))

    def test_round_trip_through_gradient(self, rng):
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 3))
            Mg = A @ A.T + 0.5 * np.eye(3)
            Mh = B @ B.T + 0.5 * np.eye(3)
            xi, eta = rng.standard_normal((2, 3))
            z = np.concatenate([Mg @ xi, Mh @ eta])
            back = gradient(legendre(Mg, Mh), z)
            assert np.abs(back - np.concatenate([xi, eta])).max() <= 1e-12 * (
                1.0 + np.abs(z).max())


class TestIntegrate:
    def test_constant_hamiltonian_freezes_state(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.zeros((6, 6)))
        rec = integrate(double, spec, P0, 0.1, 1.0)
        assert np.array_equal(rec.states[-1], P0)
        assert rec.drift["H"] == 0.0

    def test_first_step_matches_vector_field(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        dt = 1e-3
        rec = integrate(double, spec, P0, dt, 10 * dt)
        from mpmech.matched_pair import matched_lp_rhs
        rhs0 = matched_lp_rhs(double, P0, gradient(spec, P0))
        assert np.abs(rec.states[1] - (P0 + dt * rhs0)).max() <= 10 * dt ** 2

    def test_energy_drift_short_window(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        rec = integrate(double, spec, P0, 1e-3, 2.0)
        assert rec.drift["H"] <= 1e-10

    def test_rigid_body_submotion(self, e3_heavytop):
        # nu = 0 freezes the second factor and reduces to free rigid-body motion
        double = e3_heavytop
        Q = np.zeros((6, 6))
        Q[:3, :3] = np.diag([1.0, 0.5, 1.0 / 3.0])
        spec = HamiltonianSpec.quadratic(Q)
        p0 = np.array([0.2, 1.0, 0.4, 0.0, 0.0, 0.0])
        rec = integrate(double, spec, p0, 1e-3, 2.0,
                        invariants={"mu_norm2": lambda mu, nu: float(mu @ mu)})
        assert np.abs(rec.nu).max() == 0.0
        assert rec.drift["H"] <= 1e-10
        assert rec.drift["mu_norm2"] <= 1e-10

    def test_left_convention_reverses_time(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        fwd = integrate(double, spec, P0, 1e-3, 0.1, "right")
        back = integrate(double, spec, fwd.states[-1], 1e-3, 0.1, "left")
        assert np.abs(back.states[-1] - P0).max() <= 1e-10

    def test_invariant_series_lengths(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        rec = integrate(double, spec, P0, 0.01, 0.1,
                        invariants={"nu_norm2": lambda mu, nu: float(nu @ nu)})
        assert len(rec.times) == 11
        assert len(rec.invariants["H"]) == 11
        assert len(rec.invariants["nu_norm2"]) == 11
        assert np.all(np.diff(rec.times) > 0)

    def test_bad_grid_rejected(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        with pytest.raises(InputError):
            integrate(double, spec, P0, 0.0, 1.0)
        with pytest.raises(InputError):
            integrate(double, spec, P0, 0.1, 0.0)

    def test_reserved_invariant_name(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        with pytest.raises(InputError):
            integrate(double, spec, P0, 0.1, 1.0,
                      invariants={"H": lambda mu, nu: 0.0})

    @pytest.mark.parametrize("mode", ["lp", "ep"])
    @pytest.mark.parametrize("invariants,error,message", [
        ({"H": lambda mu, nu: 0.0}, InputError, "invariant name 'H' is reserved for the Hamiltonian"),
        ({"I": HamiltonianSpec.quadratic(np.eye(5))}, DimensionMismatch,
         "invariant 'I' has dimension 5, not 6"),
        ({"x": 5}, InputError, "invariant 'x' is neither a HamiltonianSpec nor callable: int"),
    ], ids=["reserved_name", "wrong_dimension", "not_callable"])
    def test_invariants_are_checked_before_the_run(self, monkeypatch, sl2c_derived, mode,
                                                   invariants, error, message):
        def no_run(*args):
            raise AssertionError("the RK4 loop was entered")
        monkeypatch.setattr(dynamics, "_run_rk4", no_run)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            if mode == "lp":
                integrate(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)),
                          P0, 1e-3, 200.0, invariants=invariants)
            else:
                integrate_ep(sl2c_derived, legendre(np.eye(3), np.eye(3)), P0,
                             1e-3, 200.0, invariants)

    @pytest.mark.parametrize("spec,error,message", [
        (5, InputError, "invariant 'H' is neither a HamiltonianSpec nor callable: int"),
        (HamiltonianSpec.quadratic(np.eye(5)), DimensionMismatch,
         "invariant 'H' has dimension 5, not 6"),
    ], ids=["int", "wrong_dimension"])
    def test_hamiltonian_is_checked_by_the_invariant_gate(self, monkeypatch, sl2c_derived,
                                                          spec, error, message):
        def no_run(*args):
            raise AssertionError("the RK4 loop was entered")
        monkeypatch.setattr(dynamics, "_run_rk4", no_run)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            integrate(sl2c_derived, spec, P0, 1e-3, 1.0)

    def test_callable_hamiltonian_runs_as_a_black_box(self, sl2c_derived):
        def H(mu, nu):
            return 0.5 * float(mu @ mu) + 0.25 * float(nu @ nu) ** 2 + float(mu @ nu)
        rec = integrate(sl2c_derived, H, P0, 0.01, 0.5)
        ref = integrate(sl2c_derived, HamiltonianSpec.blackbox(lambda z: H(z[:3], z[3:]), 6),
                        P0, 0.01, 0.5)
        assert np.array_equal(rec.states, ref.states)
        assert np.array_equal(rec.invariants["H"], ref.invariants["H"])
        assert rec.drift == ref.drift and len(rec.states) == 51

    def test_callable_invariant_returning_text_is_an_input_error(self, sl2c_derived):
        with pytest.raises(InputError, match="^a black box returned str, not a number$"):
            integrate(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)), P0, 0.1, 0.2,
                      invariants={"I": lambda mu, nu: "x"})

    def test_blow_up_reports_last_good_time(self, sl2c_derived):
        double = sl2c_derived
        huge = np.zeros(6)
        huge[0] = 1e300
        spec = HamiltonianSpec.quadratic(np.zeros((6, 6)), huge)
        with pytest.raises(IntegrationError) as err:
            integrate(double, spec, P0, 1.0, 10.0)
        assert err.value.last_good_time >= 0.0
        assert err.value.last_good_time < 10.0


class TestIntegrateEp:
    def test_zero_state_is_fixed(self, sl2c_derived):
        energy = legendre(np.eye(3), np.eye(3))
        rec = integrate_ep(sl2c_derived, energy, np.zeros(6), 0.1, 1.0)
        assert np.abs(rec.states).max() == 0.0

    def test_energy_drift_short_window(self, sl2c_derived):
        energy = legendre(np.eye(3), np.eye(3))
        rec = integrate_ep(sl2c_derived, energy, P0, 1e-3, 2.0)
        assert rec.drift["H"] <= 1e-10

    def test_matches_left_lie_poisson_flow(self, sl2c_derived):
        energy = legendre(np.eye(3), np.eye(3))
        double = sl2c_derived
        ep = integrate_ep(sl2c_derived, energy, P0, 1e-3, 1.0)
        lp = integrate(double, energy, P0, 1e-3, 1.0, "left")
        assert np.abs(ep.states - lp.states).max() <= 1e-9

    def test_velocity_recovery(self, sl2c_derived, rng):
        Mg = np.diag([1.0, 2.0, 3.0])
        state0 = rng.standard_normal(6)
        rec = integrate_ep(sl2c_derived, legendre(Mg, np.eye(3)), state0, 0.01, 0.1)
        assert rec.velocities is not None
        recovered = rec.velocities[0]
        assert np.allclose(recovered[:3], state0[:3], atol=1e-12)
        assert np.allclose(rec.states[0][:3], Mg @ state0[:3], atol=1e-12)

    @pytest.mark.parametrize("energy", [5, lambda mu, nu: 0.0], ids=["int", "callable"])
    def test_energy_must_be_a_hamiltonian_spec(self, sl2c_derived, energy):
        with pytest.raises(InputError, match=f"^the energy must be a HamiltonianSpec, "
                                             f"got {type(energy).__name__}$"):
            integrate_ep(sl2c_derived, energy, P0, 0.1, 1.0)


class TestTrajectoryRecord:
    def test_rejects_inconsistent_lengths(self):
        with pytest.raises(InputError):
            TrajectoryRecord(np.array([0.0, 1.0]), np.zeros((3, 2)), (1, 1), {}, {})

    def test_rejects_non_increasing_times(self):
        with pytest.raises(InputError):
            TrajectoryRecord(np.array([0.0, 0.0]), np.zeros((2, 2)), (1, 1), {}, {})

    def test_component_views(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        rec = integrate(double, spec, P0, 0.1, 0.5)
        assert rec.mu.shape == (6, 3)
        assert rec.nu.shape == (6, 3)
        assert np.array_equal(rec.states[:, :3], rec.mu)
