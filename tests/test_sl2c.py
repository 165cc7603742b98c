import numpy as np
import pytest

from mpmech.errors import EmbeddingError, InputError, ValidationError
from mpmech.sl2c import (
    EmbeddedBasis,
    derive_actions_from_embedding,
    group_act,
    iwasawa_factor,
    k_basis,
    standard_basis,
    su2_basis,
)

from group_elements import (
    group_left_act,
    group_right_act,
    k_inverse,
    k_multiply,
    k_to_matrix,
    random_k_element,
    random_sl2c,
    random_su2,
)
from oracles import commutator_projection

K_ID = np.zeros(3)


class TestKGroup:
    def test_identity_matrix(self):
        assert np.abs(k_to_matrix(K_ID) - np.eye(2)).max() == 0.0

    def test_matrix_example(self):
        M = k_to_matrix((0.0, 0.0, 3.0))
        assert np.allclose(M, [[2.0, 0.0], [0.0, 0.5]])

    def test_unit_determinant(self, rng):
        for _ in range(1000):
            k = random_k_element(rng)
            assert abs(np.linalg.det(k_to_matrix(k)) - 1.0) <= 1e-12

    def test_product_example(self):
        out = k_multiply((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        assert tuple(out) == (2.0, 0.0, 1.0)

    def test_identity_laws(self, rng):
        k = random_k_element(rng)
        for out in (k_multiply(k, K_ID), k_multiply(K_ID, k)):
            assert np.allclose(out, k, atol=1e-15)

    def test_inverse(self, rng):
        for _ in range(100):
            k = random_k_element(rng)
            out = k_multiply(k, k_inverse(k))
            assert np.abs(out).max() <= 1e-12

    def test_matrix_homomorphism(self, rng):
        for _ in range(1000):
            k1, k2 = random_k_element(rng), random_k_element(rng)
            lhs = k_to_matrix(k_multiply(k1, k2))
            rhs = k_to_matrix(k1) @ k_to_matrix(k2)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_associativity(self, rng):
        for _ in range(200):
            k1, k2, k3 = (random_k_element(rng) for _ in range(3))
            a = k_multiply(k_multiply(k1, k2), k3)
            b = k_multiply(k1, k_multiply(k2, k3))
            assert np.abs(np.subtract(a, b)).max() <= 1e-12

    def test_domain_boundary(self):
        with pytest.raises(InputError):
            group_act((0.0, 0.0, -1.0), np.eye(2))


class TestSU2:
    def test_sampler_is_special_unitary(self, rng):
        for _ in range(200):
            M = random_su2(rng)
            assert np.abs(M.conj().T @ M - np.eye(2)).max() <= 1e-12
            assert abs(np.linalg.det(M) - 1.0) <= 1e-12

    def test_sampler_deterministic(self):
        a = random_su2(np.random.default_rng(5))
        b = random_su2(np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            group_act(K_ID, np.array([[2.0, 0.0], [0.0, 0.5]]))


class TestIwasawa:
    def test_identity(self):
        A, B = iwasawa_factor(np.eye(2, dtype=complex))
        assert np.abs(A - np.eye(2)).max() <= 1e-15
        assert tuple(B) == (0.0, 0.0, 0.0)

    def test_unitary_input_is_its_own_factor(self, rng):
        for _ in range(100):
            g = random_su2(rng)
            A, B = iwasawa_factor(g)
            assert np.abs(A - g).max() <= 1e-12
            assert np.abs(B).max() <= 1e-12

    def test_diagonal_example(self):
        A, B = iwasawa_factor(np.diag([2.0, 0.5]).astype(complex))
        assert np.abs(A - np.eye(2)).max() <= 1e-12
        assert np.allclose(B, [0.0, 0.0, 3.0])

    def test_reconstruction_residual(self, rng):
        worst = 0.0
        for _ in range(1000):
            M = random_sl2c(rng)
            A, B = iwasawa_factor(M)
            worst = max(worst, float(np.abs(A @ k_to_matrix(B) - M).max()))
        assert worst <= 1e-12

    def test_uniqueness(self, rng):
        for _ in range(200):
            g = random_su2(rng)
            k = random_k_element(rng)
            A, B = iwasawa_factor(g @ k_to_matrix(k))
            assert np.abs(A - g).max() <= 1e-10
            assert np.abs(np.subtract(B, k)).max() <= 1e-10

    def test_rejects_wrong_determinant(self):
        with pytest.raises(InputError):
            iwasawa_factor(np.diag([2.0, 1.0]).astype(complex))


class TestGroupActions:
    def test_unit_acts_trivially(self, rng):
        g = random_su2(rng)
        assert np.abs(group_left_act(K_ID, g) - g).max() <= 1e-12
        out = group_right_act(K_ID, g)
        assert np.abs(out).max() <= 1e-12

    def test_identity_element_laws(self, rng):
        e = np.eye(2, dtype=complex)
        h = random_k_element(rng)
        acted, remainder = group_act(h, e)
        assert np.abs(acted - np.eye(2)).max() <= 1e-12
        assert np.allclose(remainder, h, atol=1e-12)

    def test_product_compatibility(self, rng):
        for _ in range(200):
            h = random_k_element(rng)
            g1, g2 = random_su2(rng), random_su2(rng)
            lhs = group_left_act(h, g1 @ g2)
            step1 = group_left_act(h, g1)
            step2 = group_left_act(group_right_act(h, g1), g2)
            rhs = step1 @ step2
            assert np.abs(lhs - rhs).max() <= 1e-10


class TestDeriveActions:
    def test_expected_action_values(self):
        mp = derive_actions_from_embedding(standard_basis())
        e = np.eye(3)
        from mpmech.matched_pair import left_act, right_act
        assert np.allclose(left_act(mp, e[2], e[0]), e[0], atol=1e-12)
        assert np.allclose(right_act(mp, e[2], e[0]), e[1], atol=1e-12)

    def test_su2_constants_are_cross_product(self):
        mp = derive_actions_from_embedding(standard_basis())
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k] = 1.0
            eps[i, k, j] = -1.0
        assert np.abs(mp.g.C - eps).max() <= 1e-12

    def test_output_is_compatible(self, compatibility_defects):
        mp = derive_actions_from_embedding(standard_basis())
        assert max(compatibility_defects(mp)) <= 1e-12

    def test_commuting_diagonal_bases_give_zero_tensors(self):
        basis = EmbeddedBasis(
            (np.diag([0.5, -0.5]).astype(complex),),
            (np.diag([0.0, 1.0]).astype(complex),),
        )
        mp = derive_actions_from_embedding(basis)
        assert np.abs(mp.rho).max() == 0.0
        assert np.abs(mp.sigma).max() == 0.0

    def test_rank_deficient_basis_rejected(self):
        e = su2_basis()
        basis = EmbeddedBasis(tuple(e), (e[0],))  # duplicate direction
        with pytest.raises(EmbeddingError):
            derive_actions_from_embedding(basis)

    def test_commutator_escaping_span_rejected(self):
        # e1, e2 alone do not span their commutator e3
        e = su2_basis()
        basis = EmbeddedBasis((e[0],), (e[1],))
        with pytest.raises(EmbeddingError):
            derive_actions_from_embedding(basis)


class TestBuiltinPairs:
    def test_derived_is_validated(self, sl2c_derived, compatibility_defects):
        assert sl2c_derived.validated
        assert max(compatibility_defects(sl2c_derived)) <= 1e-12

    def test_heavytop_is_exactly_compatible(self, e3_heavytop, compatibility_defects):
        assert e3_heavytop.validated
        assert compatibility_defects(e3_heavytop) == (0.0, 0.0)

    def test_printed_is_not_validated(self, sl2c_printed, compatibility_defects):
        assert not sl2c_printed.validated
        assert compatibility_defects(sl2c_printed)[0] >= 4.0 - 1e-12

    def test_derived_double_matches_commutator_constants(self, sl2c_derived):
        oracle = commutator_projection(su2_basis(), k_basis())
        C = sl2c_derived.algebra.C
        assert C.shape == (6, 6, 6)
        assert np.abs(C - oracle).max() <= 1e-12
