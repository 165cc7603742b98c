"""Brackets and two-forms are antisymmetric in floating point, not just to
rounding: equal arguments give exactly 0.0 and swapped arguments give the
exact negation.  The double of ``sl2c_derived`` has structure constants
other than 0 and +-1, where a plain contraction breaks both properties."""

import numpy as np
import pytest

from mpmech.lie_core import bracket, lie_poisson_bracket, trivialized_forms_eval
from mpmech.sl2c import builtin_pairs

PAIR_NAMES = sorted(builtin_pairs())


@pytest.fixture(scope="module")
def derived_double_algebra(pairs):
    alg = pairs["sl2c_derived"].algebra
    assert not np.all(np.isin(alg.C, (-1.0, 0.0, 1.0)))
    return alg


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_matched_self_bracket_is_zero(pairs, name, rng):
    alg = pairs[name].algebra
    for _ in range(200):
        z, grad = rng.standard_normal((2, 6))
        assert lie_poisson_bracket(alg, z, grad, grad) == 0.0


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_matched_bracket_swap_negates_exactly(pairs, name, rng):
    alg = pairs[name].algebra
    for _ in range(200):
        z, gh, gf = rng.standard_normal((3, 6))
        assert lie_poisson_bracket(alg, z, gh, gf) == -lie_poisson_bracket(alg, z, gf, gh)


def test_bracket_is_exactly_antisymmetric(derived_double_algebra, rng):
    alg = derived_double_algebra
    for _ in range(200):
        x, y = rng.standard_normal((2, alg.dim))
        assert np.array_equal(bracket(alg, x, x), np.zeros(alg.dim))
        assert np.array_equal(bracket(alg, y, x), -bracket(alg, x, y))


def test_lie_poisson_bracket_same_gradient_is_zero(derived_double_algebra, rng):
    alg = derived_double_algebra
    for _ in range(200):
        mu, g, f = rng.standard_normal((3, alg.dim))
        assert lie_poisson_bracket(alg, mu, g, g) == 0.0
        assert lie_poisson_bracket(alg, mu, f, g) == -lie_poisson_bracket(alg, mu, g, f)


def test_kks_equal_generators_is_zero(derived_double_algebra, rng):
    alg = derived_double_algebra
    for _ in range(200):
        mu, xi = rng.standard_normal((2, alg.dim))
        assert lie_poisson_bracket(alg, mu, xi, xi) == 0.0


def test_trivialized_two_form_on_equal_vectors_is_zero(derived_double_algebra, rng):
    alg = derived_double_algebra
    for _ in range(200):
        m, m_hat, x = rng.standard_normal((3, alg.dim))
        _, omega = trivialized_forms_eval(alg, m, (m_hat, x), (m_hat, x))
        assert omega == 0.0
