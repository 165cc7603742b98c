"""The ``factor`` path on Python scalars: ``iwasawa_factor`` checks finiteness,
the determinant and, on its unitary factor, unitarity (``sl2c._require_su2``)
on the four entries as Python complex numbers, ``cmd_factor`` prints through
one precomputed JSON template, and ``matrix_from_json`` checks shapes on plain
lists.  Checked against the numpy forms they replaced (``oracles.iwasawa_numpy``
and ``su2_check_numpy``): the same factors bit for bit, the same verdicts and
messages, and the same stdout bytes as ``json.dumps(doc, indent=2)``."""

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from mpmech import formats, sl2c
from mpmech.cli import main
from mpmech.errors import InputError, ValidationError
from mpmech.sl2c import group_act, iwasawa_factor

from group_elements import k_to_matrix, random_k_element, random_sl2c, random_su2
from helpers import count_calls
from oracles import iwasawa_numpy, su2_check_numpy


def run_factor(M):
    """Exit code, stdout and stderr of ``mpmech factor -`` on the matrix ``M``."""
    out, err, old = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(formats.matrix_to_json(M)))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["factor", "-"])
    finally:
        sys.stdin = old
    return rc, out.getvalue(), err.getvalue()


def expected_stdout(M):
    """The document ``factor`` printed before its template, from the numpy factors
    of ``M`` as read back from its JSON text."""
    U, (a, b, c) = iwasawa_numpy(formats.matrix_from_json(json.loads(json.dumps(formats.matrix_to_json(M)))))
    return json.dumps({"su2": formats.matrix_to_json(U), "k": [a, b, c]}, indent=2) + "\n"


def su2_check(V):
    """The SU(2) check ``iwasawa_factor`` runs on its unitary factor, run on ``V``."""
    sl2c._require_su2(*np.asarray(V, dtype=complex).ravel().tolist(), 1e-12)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def verdict(make):
    """``None`` if ``make()`` returns, else the kind and message of its error;
    any other exception escapes and fails the test."""
    try:
        make()
    except InputError as exc:
        return "input", str(exc)
    except ValidationError as exc:
        return "validation", str(exc)
    return None


def assert_same_outcome(M):
    """``iwasawa_factor(M)`` fails as the numpy factorization does (the same error
    kind, and the same message up to the printed determinant), or returns the
    same factors bit for bit."""
    ref, got = iwasawa_numpy(M), verdict(lambda: iwasawa_factor(M))
    if isinstance(ref[0], str):
        assert got is not None and got[0] == ref[0]
        assert re.sub("determinant .* is", "determinant is", got[1]) == \
            re.sub("determinant .* is", "determinant is", ref[1])
    else:
        assert got is None
        U, k = iwasawa_factor(M)
        assert same_bits(U, ref[0]) and same_bits(k, ref[1])


# matrices whose factors hold -0.0, whole numbers or entries near 1e-300
SPECIAL = [
    np.eye(2, dtype=complex),
    np.array([[1.0, -0.0], [-0.0, 1.0]], dtype=complex),
    np.array([[-1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
    np.array([[2.0, 0.0], [3.0, 0.5]], dtype=complex),
    np.array([[0.5, 0.0], [-4.0, 2.0]], dtype=complex),
    np.array([[1.0, 1e-300], [0.0, 1.0]], dtype=complex),
    np.array([[1.0, 0.0], [3e-300, 1.0]], dtype=complex),
    np.array([[1.0, -2e-300j], [0.0, 1.0]]),
    np.diag([1j, -1j]),
]


class TestFactorStdout:
    def test_random_matrices_print_the_json_document(self):
        rng = np.random.default_rng(1501)
        for _ in range(500):
            M = random_sl2c(rng)
            rc, out, err = run_factor(M)
            assert (rc, err) == (0, "")
            assert out == expected_stdout(M)
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("M", SPECIAL, ids=range(len(SPECIAL)))
    def test_special_factors(self, M):
        rc, out, err = run_factor(M)
        assert (rc, err) == (0, "")
        assert out == expected_stdout(M)

    def test_special_cases_reach_signed_zeros_and_tiny_entries(self):
        text = "".join(run_factor(M)[1] for M in SPECIAL)
        assert "-0.0," in text and "1.0," in text and "e-300" in text

    def test_template_is_json_indent_2(self):
        numbers = [0.1 * k - 0.5 for k in range(6)] + [-0.0, 1.0, 1e-300, 5e-324, -0.0]
        U = np.array(numbers[0:8:2]) + 1j * np.array(numbers[1:8:2])
        k = np.array(numbers[8:])
        doc = {"su2": formats.matrix_to_json(U.reshape(2, 2)), "k": numbers[8:]}
        assert formats.factor_to_json(U.reshape(2, 2), k) == json.dumps(doc, indent=2)


class TestFactorsAgainstNumpy:
    def test_factors_bitwise_equal(self):
        rng = np.random.default_rng(1502)
        for t in range(2000):
            M = random_sl2c(rng)
            if t % 4 == 1:  # real entries, scaled to determinant 1
                A = rng.standard_normal((2, 2))
                A[1] *= np.sign(np.linalg.det(A))
                M = (A / np.sqrt(np.linalg.det(A))).astype(complex)
            U, k = iwasawa_factor(M)
            U_ref, abc = iwasawa_numpy(M)
            assert same_bits(U, U_ref)
            assert same_bits(k, abc)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6, 1e150])
    def test_rejections_match(self, scale):
        rng = np.random.default_rng(1503)
        for _ in range(200):
            assert_same_outcome(scale * random_sl2c(rng))

    @pytest.mark.parametrize("value", [1e300, -1e300j, complex(1e300, 1e300), np.inf,
                                       complex(0, -np.inf), np.nan, complex(1, np.nan)])
    def test_huge_and_non_finite_entries(self, value):
        for i, j in np.ndindex(2, 2):
            M = np.eye(2, dtype=complex)
            M[i, j] = value
            assert_same_outcome(M)

    def test_determinant_modulus_past_the_float_range(self):
        M = np.diag([complex(1.5e308, -1.5e308), 1.0])  # abs(det - 1) would raise OverflowError
        assert verdict(lambda: iwasawa_factor(M))[0] == iwasawa_numpy(M)[0] == "input"

    def test_exact_determinant_where_numpys_lu_loses_it(self):
        """numpy's LU gives det [[1, 0], [c, 1]] = 0 for |c| near 2e308, so that exact
        SL(2,C) matrix was rejected; ``a d - b c`` is 1, and it factors as I @ K(c, 0)."""
        c = complex(1.5e308, -1.5e308)
        M = np.array([[1.0, 0.0], [c, 1.0]])
        assert iwasawa_numpy(M) == ("input", "matrix determinant 0j is not 1")
        U, k = iwasawa_factor(M)
        assert same_bits(U, np.eye(2, dtype=complex))
        assert tuple(k) == (c.real, c.imag, 0.0)


class TestSU2Verdicts:
    @pytest.mark.parametrize("eps", [0.5e-12, 2e-12])
    def test_perturbed_unitaries(self, eps):
        rng = np.random.default_rng(1504)
        verdicts = set()
        for _ in range(300):
            U = random_su2(rng)
            E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            V = U + eps * E / np.abs(E).max()
            got = verdict(lambda: su2_check(V))
            ref = su2_check_numpy(V)
            assert got == (None if ref is None else ("validation", ref))
            verdicts.add(got)
        assert len(verdicts) > 1  # both sides of the bound are reached

    @pytest.mark.parametrize("value", [1e300, -1e300, 1e300j, complex(1e300, 1e300),
                                       complex(1.5e308, 1.5e308), np.inf, -np.inf,
                                       complex(0, np.inf), np.nan, complex(np.nan, 1.0)])
    def test_huge_and_non_finite_entries(self, value):
        rng = np.random.default_rng(1505)
        for base in (np.eye(2, dtype=complex), random_su2(rng)):
            for i, j in np.ndindex(2, 2):
                V = base.copy()
                V[i, j] = value
                ref = su2_check_numpy(V)
                assert ref is not None
                assert verdict(lambda: su2_check(V)) == ("validation", ref)

    def test_unit_determinant_is_checked(self):
        V = np.diag([1.0, 1j])  # unitary, determinant i
        assert su2_check_numpy(V) == "matrix does not have unit determinant"
        assert verdict(lambda: su2_check(V)) == ("validation", su2_check_numpy(V))


class TestBounds:
    def test_unitarity_bound_rejects_2e_12(self):
        V = np.eye(2) + np.array([[2e-12, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="not unitary"):
            group_act(np.zeros(3), V)

    def test_unit_determinant_bound_rejects_2e_12(self):
        V = np.diag([1.0, np.exp(2e-12j)])  # unitary to rounding, determinant off by 2e-12
        with pytest.raises(ValidationError, match="unit determinant"):
            group_act(np.zeros(3), V)

    def test_determinant_bound_rejects_5e_10(self):
        M = np.diag([1.0 + 5e-10, 1.0]).astype(complex)
        with pytest.raises(InputError, match="determinant"):
            iwasawa_factor(M)


class TestArrayFactors:
    def test_factors_are_read_only_arrays(self):
        U, k = iwasawa_factor(random_sl2c(np.random.default_rng(1506)))
        assert (U.shape, U.dtype, k.shape, k.dtype) == ((2, 2), complex, (3,), float)
        for factor in (U, k):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 0.0

    def test_one_conversion(self, monkeypatch):
        M = random_sl2c(np.random.default_rng(1507))
        conversions = count_calls(monkeypatch, sl2c, "float_array")
        iwasawa_factor(M)
        assert len(conversions) == 1

    def test_group_act_refactors_the_product(self):
        rng = np.random.default_rng(1508)
        for _ in range(50):
            k, U = random_k_element(rng), random_su2(rng)
            acted, rest = group_act(k, U)
            want = iwasawa_factor(k_to_matrix(k) @ U)
            assert same_bits(acted, want[0]) and same_bits(rest, want[1])

    @pytest.mark.parametrize("k, U, message", [
        ((0.0, 0.0), np.eye(2), "expected k of shape (3,) and a 2x2 U, got (2,) and (2, 2)"),
        ((0.0, 0.0, 0.0), np.eye(3), "expected k of shape (3,) and a 2x2 U, got (3,) and (3, 3)"),
        ((0.0, np.nan, 0.0), np.eye(2), "K element needs finite a, b and c > -1, got (0.0, nan, 0.0)"),
    ])
    def test_group_act_checks_its_arrays(self, k, U, message):
        with pytest.raises(InputError) as info:
            group_act(k, U)
        assert str(info.value) == message


class TestMatrixFromJson:
    @pytest.mark.parametrize("entries", [
        5, "ab", [], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]], [[[1, 2, 3]] * 2] * 2,
        [[[[1], [2]]] * 2] * 2, [[[[1, 2], [3, 4]]] * 2] * 2, [[[], []], [[], []]],
        [[1, {}], [3, 4]], [[[1, 2, 3], [1, 2, 3]], [[1, 2, 3], 4]], [[1, [2, "x"]], [3, 4]],
    ])
    def test_rejections_name_numpys_object_shape_or_the_first_bad_cell(self, entries):
        shape = np.asarray(entries, dtype=object).shape
        with pytest.raises(InputError) as info:
            formats.matrix_from_json(entries)
        if shape in ((2, 2), (2, 2, 2)):
            assert str(info.value).startswith("matrix entry ")
        else:
            assert str(info.value) == f"expected a 2x2 matrix, got shape {shape}"

    @pytest.mark.parametrize("entries", [[[1, 0], [0, 1]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                         [[[1.5, -2], 0], [0.25, [0, 1]]],
                                         [[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], -0.0]]])
    def test_accepted(self, entries):
        cells = [complex(*c) if isinstance(c, list) else complex(c) for row in entries for c in row]
        assert same_bits(formats.matrix_from_json(entries), np.reshape(cells, (2, 2)))

    @pytest.mark.parametrize("real", [-0.0, 0.0, -1.5])
    def test_a_pair_cell_and_a_plain_cell_give_the_same_bits(self, monkeypatch, capsys, real):
        pair, plain = [[1, [real, 0]], [0, 1]], [[1, real], [0, 1]]
        assert same_bits(formats.matrix_from_json(pair), formats.matrix_from_json(plain))
        printed = []
        for doc in (pair, plain):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
            assert main(["factor", "-"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
