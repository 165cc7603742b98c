"""The RK4 loop behind ``integrate``: four field stages per step, rows that
are textbook RK4 steps across the finiteness-scan blocks, rows bitwise equal
to the dispatched ``np.dot`` stages, buffers that belong to one run, and
blow-ups reported at the step where the state first became non-finite or
a black box first failed near it."""

import numpy as np
import pytest

from mpmech import dynamics
from mpmech.dynamics import FINITE_BLOCK, HamiltonianSpec, integrate
from mpmech.errors import InputError, IntegrationError

from oracles import dispatched_rk4, homogeneous_tensor, lie_poisson_field, rk4_step

P0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


# H = 2 z_6: z_dot = M(z) grad H has eigenvalues +-2 on sl2c_derived, so the
# state overflows after a few hundred steps of dt 1
GROWING_B = 2.0 * np.eye(6)[5]


class TestStages:
    def test_blackbox_evaluates_gradient_four_times_per_step(self, sl2c_derived, monkeypatch):
        calls = []
        gradient = dynamics.gradient

        def counted(spec, z):
            calls.append(1)
            return gradient(spec, z)

        monkeypatch.setattr(dynamics, "gradient", counted)
        spec = HamiltonianSpec.blackbox(lambda z: 0.5 * float(z @ z), 6)
        steps = FINITE_BLOCK + 44
        integrate(sl2c_derived, spec, P0, 0.01, steps * 0.01)
        assert len(calls) == 4 * steps

    def test_left_rows_are_textbook_steps(self, sl2c_derived, rng):
        # dt 0.03 is not a power of two, so the prescaled stage tensors round
        # differently from dt * f; 300 steps cross a scan-block boundary
        A = rng.standard_normal((6, 6))
        Q, b = A @ A.T / 6.0, 0.1 * rng.standard_normal(6)
        double = sl2c_derived
        rec = integrate(double, HamiltonianSpec.quadratic(Q, b), [0.6, -0.3, 0.5, 0.2, 0.4, -0.3],
                        0.03, 9.0, "left")
        assert rec.states.shape == (301, 6)
        field = lie_poisson_field(double.algebra.C, -1.0, lambda z: Q @ z + b)
        for prev, row in zip(rec.states[:-1], rec.states[1:]):
            ref = rk4_step(field, prev, 0.03)
            assert np.abs(ref - row).max() <= 1e-12 * (1.0 + np.abs(row).max())



def random_quadratic(rng):
    A = rng.standard_normal((6, 6))
    return A @ A.T / 6.0, 0.1 * rng.standard_normal(6)


Z0 = np.array([0.6, -0.3, 0.5, 0.2, 0.4, -0.3])
SIGNS = {"right": 1.0, "left": -1.0}


class TestBufferedStages:
    # 600 steps of dt 0.03 cross two FINITE_BLOCK boundaries; the buffered
    # ndarray.dot stages run the same BLAS calls on the same operands as the
    # dispatched np.dot ones, so every row must be bitwise equal
    @pytest.mark.parametrize("convention", ["right", "left"])
    def test_quadratic_rows_equal_dispatched_stages(self, sl2c_derived, rng, convention):
        Q, b = random_quadratic(rng)
        double = sl2c_derived
        rec = integrate(double, HamiltonianSpec.quadratic(Q, b), Z0, 0.03, 18.0, convention)
        G = homogeneous_tensor(double.algebra.C, SIGNS[convention], Q, b)
        ref = dispatched_rk4(G, np.append(Z0, 1.0), 0.03, 600)[:, :6]
        assert 600 > 2 * FINITE_BLOCK and rec.states.shape == (601, 6)
        assert np.array_equal(rec.states, ref)

    @pytest.mark.parametrize("convention", ["right", "left"])
    def test_blackbox_rows_equal_dispatched_stages(self, sl2c_derived, rng, convention):
        Q, b = random_quadratic(rng)
        spec = HamiltonianSpec.blackbox(lambda z: 0.5 * z @ Q @ z + b @ z + 0.1 * np.cos(z[0]), 6)
        double = sl2c_derived
        rec = integrate(double, spec, Z0, 0.03, 18.0, convention)
        ref = dispatched_rk4(SIGNS[convention] * double.algebra.C, Z0, 0.03, 600,
                             lambda z: dynamics.gradient(spec, z))
        assert np.array_equal(rec.states, ref)

    def test_blackbox_that_integrates(self, sl2c_derived, rng):
        # each stage writes M(z) before it evaluates the gradient, so an inner
        # run that shared the outer run's buffer would overwrite M(z) first
        Q, b = random_quadratic(rng)
        double = sl2c_derived
        inner = HamiltonianSpec.blackbox(lambda z: float(z @ z), 6)

        def plain(z):
            return 0.5 * z @ Q @ z + b @ z

        def nested(z):
            integrate(double, inner, -2.0 * z, 0.1, 0.1)
            return plain(z)

        rows = [integrate(double, HamiltonianSpec.blackbox(f, 6), Z0, 0.03, 0.3).states
                for f in (plain, nested)]
        assert np.array_equal(*rows)


class TestBlowUpTimes:
    # expected values are those of a finiteness check after every step
    def test_first_step(self, sl2c_derived):
        b = np.zeros(6)
        b[0] = 1e300
        spec = HamiltonianSpec.quadratic(np.zeros((6, 6)), b)
        with pytest.raises(IntegrationError, match=r"^state became non-finite at t=1$") as err:
            integrate(sl2c_derived, spec, P0, 1.0, 10.0)
        assert err.value.last_good_time == 0.0

    @pytest.mark.parametrize("convention", ["right", "left"])
    def test_after_the_first_block(self, sl2c_derived, convention):
        spec = HamiltonianSpec.quadratic(np.zeros((6, 6)), GROWING_B)
        with pytest.raises(IntegrationError, match=r"^state became non-finite at t=365$") as err:
            integrate(sl2c_derived, spec, P0, 1.0, 1000.0, convention)
        assert err.value.last_good_time == 364.0
        assert FINITE_BLOCK < 365 < 2 * FINITE_BLOCK

    @pytest.mark.parametrize("convention", ["right", "left"])
    def test_blackbox_rejecting_the_blown_up_state(self, sl2c_derived, convention):
        # gradient() rejects an infinite state: in the right convention row 365
        # overflows and the next step's first stage reads it; in the left one a
        # stage input of step 365 overflows before the row does.  The blow-up
        # is what is reported either way.
        spec = HamiltonianSpec.blackbox(lambda z: 2.0 * z[5], 6)
        with pytest.raises(IntegrationError, match=r"^state became non-finite at t=365$") as err:
            integrate(sl2c_derived, spec, P0, 1.0, 1000.0, convention)
        assert err.value.last_good_time == 364.0

    def test_blackbox_overflowing_at_a_finite_state(self, sl2c_derived):
        # every row stays finite; H overflows near a stage input of step 565
        spec = HamiltonianSpec.blackbox(lambda z: z[3] ** 3 + z[0] * z[4] ** 2, 6)
        with pytest.raises(IntegrationError, match=r"^Hamiltonian is non-finite near "
                                                   r"component 0 at t=5\.65$") as err:
            integrate(sl2c_derived, spec, [1, 0.2, 0, 0.3, 1, 0.1], 0.01, 20)
        assert err.value.last_good_time == 5.64

    def test_blackbox_non_finite_past_the_first_stage(self, sl2c_derived):
        # H is finite near p0, whose z_6 is 0.1, but not near the second stage's input
        spec = HamiltonianSpec.blackbox(lambda z: float("inf") if z[5] > 0.2 else float(z @ z), 6)
        with pytest.raises(IntegrationError, match=r"^Hamiltonian is non-finite near "
                                                   r"component 0 at t=0\.5$") as err:
            integrate(sl2c_derived, spec, [1, 0.2, 0, 0.3, 1, 0.1], 0.5, 5)
        assert err.value.last_good_time == 0.0

    @pytest.mark.parametrize("convention", ["right", "left"])
    def test_blackbox_non_finite_at_the_initial_state(self, sl2c_derived, convention):
        spec = HamiltonianSpec.blackbox(lambda z: float("inf") if z[1] == 0.0 else float(z @ z), 6)
        with pytest.raises(InputError, match="^Hamiltonian is non-finite near component 0$"):
            integrate(sl2c_derived, spec, P0, 1.0, 1000.0, convention)
