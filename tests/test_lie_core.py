import numpy as np
import pytest

from mpmech.errors import DimensionMismatch, InputError, ValidationError
from mpmech.lie_core import (
    LieAlgebra,
    abelian,
    ad_star,
    bracket,
    lie_poisson_bracket,
    lie_poisson_rhs,
    trivialized_forms_eval,
)
from mpmech.sl2c import k_algebra, su2_algebra

from oracles import brute_jacobi_defect, k_ad_star


def corrupted_su2():
    # [e1, e2] picks up a spurious e1 component; the (e1, e2, e3) Jacobiator
    # is then [e3, e1] = e2, a unit defect
    C = su2_algebra().C.copy()
    C[0, 0, 1] = 1.0
    C[0, 1, 0] = -1.0
    return C


def rescaled_su2():
    # doubling the e3 output of [e1, e2] still satisfies Jacobi: in three
    # dimensions only the (1, 2, 3) triple is nontrivial and it vanishes for
    # any diagonal bracket of this kind
    C = su2_algebra().C.copy()
    C[2, 0, 1] = 2.0
    C[2, 1, 0] = -2.0
    return C


class TestConstruction:
    def test_antisymmetrizes_small_noise(self):
        C = su2_algebra().C.copy()
        C[2, 0, 1] += 1e-14
        alg = LieAlgebra(C)
        assert np.array_equal(alg.C, -alg.C.transpose(0, 2, 1))

    def test_rejects_gross_asymmetry(self):
        C = np.zeros((2, 2, 2))
        C[0, 0, 1] = 1.0  # no antisymmetric partner
        with pytest.raises(InputError):
            LieAlgebra(C)

    def test_rejects_non_cubic_tensor(self):
        with pytest.raises(InputError):
            LieAlgebra(np.zeros((2, 3, 2)))

    def test_jacobi_gate_rejects_corrupted_algebra(self):
        with pytest.raises(ValidationError):
            LieAlgebra(corrupted_su2())

    def test_jacobi_gate_is_opt_in(self):
        alg = LieAlgebra(corrupted_su2(), validate=False)
        assert not alg.validated
        with pytest.raises(ValidationError):
            alg.validate()

    def test_constants_are_frozen(self):
        alg = su2_algebra()
        with pytest.raises(ValueError):
            alg.C[0, 0, 0] = 1.0

    def test_name_length_checked(self):
        with pytest.raises(InputError):
            LieAlgebra(np.zeros((2, 2, 2)), names=("a",))


class TestBracket:
    def test_su2_cross_product(self):
        alg = su2_algebra()
        assert np.allclose(bracket(alg, [1, 0, 0], [0, 1, 0]), [0, 0, 1])

    def test_self_bracket_vanishes(self, rng):
        alg = su2_algebra()
        for _ in range(50):
            x = rng.standard_normal(3)
            assert np.abs(bracket(alg, x, x)).max() == 0.0

    def test_k_algebra_bracket(self):
        # direct evaluation of k x (f1 x f3)
        alg = k_algebra()
        assert np.allclose(bracket(alg, [1, 0, 0], [0, 0, 1]), [1, 0, 0])

    def test_antisymmetry_random(self, rng):
        alg = k_algebra()
        for _ in range(100):
            x, y = rng.standard_normal((2, 3))
            assert np.allclose(bracket(alg, x, y), -bracket(alg, y, x), atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bracket(su2_algebra(), [1, 0], [0, 1, 0])


class TestAdStar:
    def test_su2_closed_form_example(self):
        assert np.allclose(ad_star(su2_algebra(), [0, 0, 1], [1, 2, 3]), [-2, 1, 0])

    def test_zero_generator(self):
        assert np.abs(ad_star(su2_algebra(), [0, 0, 0], [1, 2, 3])).max() == 0.0

    def test_k_closed_form_example(self):
        assert np.allclose(ad_star(k_algebra(), [0, 0, 1], [1, 2, 3]), [1, 2, 0])

    def test_duality_with_bracket(self, rng):
        for alg in (su2_algebra(), k_algebra()):
            for _ in range(1000):
                xi, zeta = rng.standard_normal((2, 3))
                mu = rng.standard_normal(3)
                scale = 1.0 + max(np.abs(xi).max(), np.abs(mu).max(), np.abs(zeta).max())
                err = abs(ad_star(alg, xi, mu) @ zeta + mu @ bracket(alg, xi, zeta))
                assert err <= 1e-12 * scale

    def test_su2_matches_cross_product(self, rng):
        alg = su2_algebra()
        for _ in range(1000):
            xi, mu = rng.standard_normal((2, 3))
            assert np.abs(ad_star(alg, xi, mu) - np.cross(xi, mu)).max() <= 1e-14

    def test_k_matches_closed_form(self, rng):
        alg = k_algebra()
        for _ in range(1000):
            y, psi = rng.standard_normal((2, 3))
            assert np.abs(ad_star(alg, y, psi) - k_ad_star(y, psi)).max() <= 1e-14


class TestJacobiDefect:
    def test_su2_satisfies_jacobi(self):
        assert su2_algebra().jacobi_check("jacobi").value <= 1e-12

    def test_abelian_is_exact(self):
        assert abelian(4).jacobi_check("jacobi").value == 0.0

    def test_corrupted_su2_matches_brute_force(self):
        C = corrupted_su2()
        alg = LieAlgebra(C, validate=False)
        expected = brute_jacobi_defect(C)
        assert expected > 0.1
        assert alg.jacobi_check("jacobi").value == pytest.approx(expected, abs=1e-12)

    def test_rescaled_su2_still_satisfies_jacobi(self):
        C = rescaled_su2()
        assert brute_jacobi_defect(C) == pytest.approx(0.0, abs=1e-14)
        assert LieAlgebra(C).jacobi_check("jacobi").value <= 1e-14


class TestLiePoisson:
    def test_bracket_value(self):
        val = lie_poisson_bracket(su2_algebra(), [0, 0, 1], [1, 0, 0], [0, 1, 0])
        assert val == pytest.approx(1.0)

    def test_same_gradient_vanishes(self, rng):
        alg = su2_algebra()
        for _ in range(50):
            mu, g = rng.standard_normal((2, 3))
            assert lie_poisson_bracket(alg, mu, g, g) == 0.0

    def test_abelian_vanishes(self, rng):
        alg = abelian(3)
        for _ in range(50):
            mu, g, f = rng.standard_normal((3, 3))
            assert lie_poisson_bracket(alg, mu, g, f) == 0.0

    def test_isotropic_kinetic_energy_is_stationary(self, rng):
        alg = su2_algebra()
        for _ in range(50):
            mu = rng.standard_normal(3)
            assert np.abs(lie_poisson_rhs(alg, mu, mu)).max() == 0.0

    def test_rigid_body_example(self):
        # inertia diag(1, 2, 3): gradient of the kinetic energy at (0, 1, 1)
        mu = np.array([0.0, 1.0, 1.0])
        grad = np.array([0.0, 0.5, 1.0 / 3.0])
        rhs = lie_poisson_rhs(su2_algebra(), mu, grad)
        assert np.allclose(rhs, [1.0 / 6.0, 0.0, 0.0])

    def test_left_is_negated_right(self, rng):
        alg = k_algebra()
        for _ in range(100):
            mu, g = rng.standard_normal((2, 3))
            right = lie_poisson_rhs(alg, mu, g, "right")
            left = lie_poisson_rhs(alg, mu, g, "left")
            assert np.array_equal(left, -right)

    def test_unknown_convention(self):
        with pytest.raises(InputError):
            lie_poisson_rhs(su2_algebra(), [1, 0, 0], [0, 1, 0], "sideways")


class TestOrbitForm:
    def test_su2_value(self):
        val = lie_poisson_bracket(su2_algebra(), [0, 0, 1], [1, 0, 0], [0, 1, 0])
        assert val == pytest.approx(1.0)

    def test_equal_generators(self, rng):
        alg = su2_algebra()
        for _ in range(20):
            mu, xi = rng.standard_normal((2, 3))
            assert lie_poisson_bracket(alg, mu, xi, xi) == 0.0

    def test_zero_point(self, rng):
        xi1, xi2 = rng.standard_normal((2, 3))
        assert lie_poisson_bracket(su2_algebra(), np.zeros(3), xi1, xi2) == 0.0


class TestTrivializedForms:
    def test_equal_vectors_give_zero_two_form(self, rng):
        alg = su2_algebra()
        m = rng.standard_normal(3)
        v = (rng.standard_normal(3), rng.standard_normal(3))
        theta, omega = trivialized_forms_eval(alg, m, v, v)
        assert omega == 0.0
        assert theta == pytest.approx(m @ v[1])

    def test_abelian_pairing_term(self, rng):
        alg = abelian(4)
        m = rng.standard_normal(4)
        e1 = np.eye(4)[0]
        v1 = (e1, np.zeros(4))
        v2 = (np.zeros(4), e1)
        _, omega = trivialized_forms_eval(alg, m, v1, v2)
        assert omega == pytest.approx(-1.0)

    def test_reduces_to_orbit_form(self):
        alg = su2_algebra()
        zero = np.zeros(3)
        v1 = (zero, np.array([1.0, 0.0, 0.0]))
        v2 = (zero, np.array([0.0, 1.0, 0.0]))
        _, omega = trivialized_forms_eval(alg, [0, 0, 1], v1, v2)
        assert omega == pytest.approx(1.0)
