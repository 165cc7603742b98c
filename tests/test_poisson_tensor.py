"""One Poisson-tensor kernel: ``lie_core.poisson_tensor(C, z) = M(z)``,
``M[i, j] = sum_k C[k, i, j] z_k``, is the only contraction of the structure
constants behind the bracket, the Poisson tensor of a double and the
Jacobiator (as it is behind ``coadjoint`` and ``matched_lp_rhs``).  Checked
against a loop oracle and against the einsums these functions used before,
with exact antisymmetry on unvalidated random algebras, one largest-entry
witness rule, no ``np.cross`` in the printed tensors, and InputError for the
matrix inputs of the SL(2,C) example."""

import warnings

import numpy as np
import pytest

from mpmech import lie_core, matched_pair, sl2c
from mpmech.errors import InputError, ValidationError
from mpmech.lie_core import (
    LieAlgebra,
    _jacobiator,
    _largest_entry,
    bracket,
    float_array,
    lie_poisson_bracket,
    poisson_tensor,
    trivialized_forms_eval,
)
from mpmech.matched_pair import matched_lp_rhs
from mpmech.sl2c import (derive_actions_from_embedding, group_act, iwasawa_factor, k_algebra,
                         su2_algebra)

from group_elements import random_sl2c
from helpers import count_calls, random_antisymmetric, random_pair
from oracles import einsum_bracket, einsum_cobracket, einsum_jacobiator

DIMS = range(1, 8)
DOUBLES = [(51, 2, 4), (52, 4, 1), (53, 5, 2)]
STACKS = [(), (4,), (2, 3)]


def random_algebra(seed, dim):
    return LieAlgebra(random_antisymmetric(np.random.default_rng(seed), dim), validate=False)


def loop_poisson_tensor(C, z):
    """``M[..., i, j] = sum_k C[k, i, j] z[..., k]``, one scalar term at a time."""
    K, I, J = C.shape
    z = np.asarray(z, dtype=float)
    M = np.zeros(z.shape[:-1] + (I, J))
    for lead in np.ndindex(z.shape[:-1]):
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    M[lead + (i, j)] += C[k, i, j] * z[lead + (k,)]
    return M


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def scale(C):
    return 1.0 + float(np.abs(C).max())


class TestPoissonTensor:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("lead", STACKS)
    def test_against_the_loop_oracle(self, dim, lead):
        C = random_algebra(dim, dim).C
        z = np.random.default_rng(100 + dim).standard_normal(lead + (dim,))
        M = poisson_tensor(C, z)
        assert M.shape == lead + (dim, dim)
        tol = 1e-14 * dim * scale(C) * (1.0 + float(np.abs(z).max()))
        assert np.abs(M - loop_poisson_tensor(C, z)).max() <= tol

    def test_rectangular_constants(self, rng):
        # a transposed action tensor, as the action maps use it: K, I and J differ
        C = rng.standard_normal((2, 3, 5))
        z = rng.standard_normal((6, 2))
        assert np.abs(poisson_tensor(C, z) - loop_poisson_tensor(C, z)).max() <= 1e-13

    def test_coadjoint_is_its_row_contraction(self, rng):
        C = random_algebra(7, 5).C
        z, x = rng.standard_normal((2, 9, 5))
        assert same_bits(lie_core.coadjoint(C, z, x),
                         np.einsum("...ij,...j->...i", poisson_tensor(C, z), x))


class TestCobracket:
    @pytest.mark.parametrize("seed,n,m", DOUBLES)
    def test_exactly_antisymmetric_with_zero_diagonal(self, seed, n, m):
        double = random_pair(seed, n, m)
        rng = np.random.default_rng(seed)
        off = ~np.eye(n + m, dtype=bool)
        for exponent in (-3, 0, 3):
            z = rng.standard_normal(n + m) * 10.0 ** exponent
            M = poisson_tensor(double.algebra.C, z)
            assert np.array_equal(M, -M.T)
            assert same_bits(M[off], (-M.T)[off])
            assert np.all(np.diag(M) == 0.0)

    @pytest.mark.parametrize("seed,n,m", DOUBLES)
    def test_is_the_kernel_and_matches_the_einsum(self, seed, n, m):
        double = random_pair(seed, n, m)
        C = double.algebra.C
        z = np.random.default_rng(seed).standard_normal(n + m)
        M = poisson_tensor(C, z)
        tol = 1e-14 * scale(C) * (1.0 + np.abs(z).max())
        assert np.abs(M - einsum_cobracket(C, z)).max() <= tol

    def test_builtins_keep_exact_antisymmetry(self, pairs, rng):
        for mp in pairs.values():
            M = poisson_tensor(mp.algebra.C, rng.standard_normal(6))
            assert np.array_equal(M, -M.T) and np.all(np.diag(M) == 0.0)


def bracket_algebras():
    """Random algebras of dims 1-7, and the g, h and double of the random doubles."""
    algebras = [random_algebra(200 + dim, dim) for dim in DIMS]
    for seed, n, m in DOUBLES:
        mp = random_pair(seed, n, m)
        algebras += [mp.g, mp.h, mp.algebra]
    return algebras


class TestBracket:
    @pytest.mark.parametrize("alg", bracket_algebras(), ids=lambda a: f"dim{a.dim}")
    def test_exactly_antisymmetric(self, alg):
        rng = np.random.default_rng(alg.dim)
        for _ in range(5):
            x, y = rng.standard_normal((2, alg.dim))
            xy, yx = bracket(alg, x, y), bracket(alg, y, x)
            # bit for bit up to the sign of zeros: 0.5 * (a - a) is +0.0 both ways
            assert np.array_equal(yx, -xy) and same_bits(yx[xy != 0.0], -xy[xy != 0.0])
            assert same_bits(bracket(alg, x, x), np.zeros(alg.dim))
            tol = 1e-14 * scale(alg.C) ** 2 * (1.0 + np.abs(x).max()) * (1.0 + np.abs(y).max())
            assert np.abs(xy - einsum_bracket(alg.C, x, y)).max() <= tol

    @pytest.mark.parametrize("alg", bracket_algebras()[:7], ids=lambda a: f"dim{a.dim}")
    def test_within_rounding_of_the_einsum_on_unit_arguments(self, alg):
        eye = np.eye(alg.dim)
        for i in range(alg.dim):
            for j in range(alg.dim):
                got, want = bracket(alg, eye[i], eye[j]), einsum_bracket(alg.C, eye[i], eye[j])
                assert np.abs(got - want).max() <= 1e-14 * scale(alg.C) ** 2

    def test_views_stay_exactly_antisymmetric(self, rng):
        alg = random_pair(51, 2, 4).algebra
        z, x, y = rng.standard_normal((3, 6))
        assert lie_poisson_bracket(alg, z, x, y) == -lie_poisson_bracket(alg, z, y, x)
        assert lie_poisson_bracket(alg, z, x, x) == 0.0
        _, omega = trivialized_forms_eval(alg, z, (x, y), (x, y))
        assert omega == 0.0


def jacobiator_algebras():
    jacobi = {"su2": su2_algebra().C, "k": k_algebra().C}
    for name in sl2c.BUILTIN_PAIRS:
        jacobi[f"{name}_double"] = sl2c.builtin_pairs()[name].algebra.C
    broken = {f"random_{dim}": random_algebra(300 + dim, dim).C for dim in DIMS}
    return {**jacobi, **broken}


class TestJacobiator:
    @pytest.mark.parametrize("name,C", jacobiator_algebras().items())
    def test_within_rounding_of_the_three_einsums(self, name, C):
        J = _jacobiator(C)
        assert np.abs(J - einsum_jacobiator(C)).max() <= 1e-14 * scale(C) ** 2

    def test_is_the_kernel_at_the_rows_of_c(self):
        # P[m, i, j, l] = M(C[m, i])[j, l], the E_m part of [e_i, [e_j, e_l]], from the loop oracle
        C = random_algebra(9, 4).C
        P = loop_poisson_tensor(C, C.reshape(16, 4)).reshape(4, 4, 4, 4)
        J = P + P.transpose(0, 3, 1, 2) + P.transpose(0, 2, 3, 1)
        assert np.abs(_jacobiator(C) - J).max() <= 1e-14 * scale(C) ** 2

    def test_jacobi_and_non_jacobi_verdicts_stay(self):
        # every antisymmetric bracket on dims 1 and 2 satisfies the Jacobi identity
        holds = {"su2", "k", "sl2c_derived_double", "e3_heavytop_double", "random_1", "random_2"}
        for name, C in jacobiator_algebras().items():
            assert LieAlgebra(C, validate=False).jacobi_check("jacobi").ok == (name in holds)

    def test_scaled_past_the_float_range_fails_without_warnings(self):
        C = 1e200 * su2_algebra().C
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = LieAlgebra(C, validate=False).jacobi_check("jacobi defect")
            assert not check.ok
            with pytest.raises(ValidationError, match="jacobi defect"):
                LieAlgebra(C)


class TestOneKernel:
    def test_bracket_and_its_views_reach_the_kernel(self, monkeypatch, rng):
        calls = count_calls(monkeypatch, lie_core, "poisson_tensor")
        alg = random_algebra(1, 4)
        x, y, z = rng.standard_normal((3, 4))
        bracket(alg, x, y)
        assert len(calls) == 2
        lie_poisson_bracket(alg, z, x, y)
        trivialized_forms_eval(alg, z, (x, y), (y, x))
        assert len(calls) == 6

    def test_cobracket_reaches_the_kernel(self, monkeypatch, pairs, rng):
        double = pairs["e3_heavytop"]
        calls = count_calls(monkeypatch, lie_core, "poisson_tensor")
        matched_lp_rhs(double, *rng.standard_normal((2, 6)))
        lie_poisson_bracket(double.algebra, *rng.standard_normal((3, 6)))
        assert len(calls) == 3

    def test_jacobiator_reaches_the_kernel_once(self, monkeypatch):
        alg = random_algebra(2, 5)
        calls = count_calls(monkeypatch, lie_core, "poisson_tensor")
        alg.jacobi_check("jacobi")
        alg.jacobi_check("jacobi")
        assert len(calls) == 1


class TestLargestEntry:
    def test_value_and_index(self):
        T = np.array([[1.0, -5.0, 2.0], [5.0, 0.5, -3.0]])
        assert _largest_entry(T) == (5.0, (0, 1))  # the first of equal magnitudes
        value, index = _largest_entry(T.reshape(1, 2, 3))
        assert (value, tuple(map(int, index))) == (5.0, (0, 0, 1))

    def test_nan_counts_as_largest(self):
        value, index = _largest_entry(np.array([3.0, np.nan, -np.inf]))
        assert np.isnan(value) and index == (1,)

    def test_witnesses_name_the_largest_entries(self, pairs):
        printed = pairs["sl2c_printed"]
        checks = {c.name: c for c in matched_pair.validation_report(printed)}
        J = printed.algebra.jacobiator
        _, (_, i, j, l) = _largest_entry(J)
        names = printed.g.names + printed.h.names
        assert checks["jacobi defect (double)"].witness == f"({names[i]}, {names[j]}, {names[l]})"
        condition = checks["compatibility condition 1"]
        n = printed.g.dim
        value, (_, a, i, j) = _largest_entry(J[:n, n:, :n, :n])
        witness = f"({names[n + a]}, {names[i]}, {names[j]})"
        assert (condition.value, condition.witness) == (value, witness)

    def test_audit_action_witness(self, pairs):
        report = matched_pair.audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"],
                                             samples=4, closed_forms=sl2c.sl2c_closed_forms())
        diff = pairs["sl2c_printed"].sigma - pairs["sl2c_derived"].sigma
        _, (_, a, i) = _largest_entry(diff)
        assert report.line("action <|").witness == f"(f{a + 1}, e{i + 1})"


class TestOneCrossProduct:
    def test_printed_tensors_use_no_np_cross(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.cross called")

        rho, sigma = sl2c._printed_tensors()
        monkeypatch.setattr(np, "cross", refuse)
        again = sl2c._printed_tensors()
        assert same_bits(again[0], rho) and same_bits(again[1], sigma)

    def test_same_bits_as_np_cross(self):
        eye = np.eye(3)
        rho = np.cross(eye[:, None], np.cross(eye, sl2c.KHAT)).transpose(2, 0, 1)
        assert same_bits(sl2c._printed_tensors()[0], rho)

    def test_levi_civita_tensor(self):
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k], eps[i, k, j] = 1.0, -1.0
        assert same_bits(sl2c._EPS, eps) and not sl2c._EPS.flags.writeable


BIG = 10 ** 400


class TestComplexInputGate:
    @pytest.mark.parametrize("make", [
        lambda: iwasawa_factor([[BIG, 0], [0, 1]]),
        lambda: derive_actions_from_embedding(([[BIG, 0], [0, 0]],), ()),
        lambda: group_act((0.0, 0.0, 0.0), [[BIG, 0], [0, 1]]),
        lambda: iwasawa_factor([[1, "a"], [0, 1]]),
        lambda: iwasawa_factor([[1, [2]], [0, 1]]),
        lambda: derive_actions_from_embedding(([[1, "a"], [0, 0]],), ()),
        lambda: derive_actions_from_embedding((), ([[1, "a"], [0, 0]],)),
        lambda: group_act((0.0, 0.0, 0.0), [[1, "a"], [0, 1]]),
    ])
    def test_is_input_error(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="is not a numeric array: "):
                make()

    @pytest.mark.parametrize("value", [
        [[1, 0], [0, 1]],
        [[0.5 + 1j, -0.0], [2, -1j]],
        np.array([[1.0, 2.0], [3.0, -0.0]]),
        np.array([[1j, 2.0], [3.0, 4.0 - 0.0j]]),
    ])
    def test_valid_input_keeps_its_bits(self, value):
        gated = float_array(value, "matrix", complex)
        plain = np.asarray(value, dtype=complex)
        assert gated.dtype == complex and same_bits(gated.view(float), plain.view(float))

    def test_api_results_keep_their_bits(self):
        M = random_sl2c(np.random.default_rng(3))
        unitary, triangular = iwasawa_factor(M.tolist())
        again, same = iwasawa_factor(M)
        assert same_bits(unitary.view(float), again.view(float))
        assert same_bits(triangular, same)
        # derive reads its matrices through the gate: nested lists give the arrays' bits
        g_matrices, h_matrices, _, _ = sl2c.standard_basis()
        derived = derive_actions_from_embedding(g_matrices, h_matrices)
        listed = derive_actions_from_embedding([M.tolist() for M in g_matrices],
                                               [M.tolist() for M in h_matrices])
        for got, want in ((listed.g.C, derived.g.C), (listed.h.C, derived.h.C),
                          (listed.rho, derived.rho), (listed.sigma, derived.sigma)):
            assert same_bits(got, want)
