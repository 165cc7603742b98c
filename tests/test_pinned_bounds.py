"""Each bound in ``src/`` that no other test sat on, pinned from both sides where the
other side is cheap: a case just past the bound is rejected and one well inside it
passes, so loosening the bound (or tightening it far) fails a test."""

import numpy as np
import pytest

from mpmech.dynamics import HamiltonianSpec, _grid, gradient
from mpmech.errors import EmbeddingError, InputError, ValidationError
from mpmech.matched_pair import pair_from_double
from mpmech.sl2c import derive_actions_from_embedding, group_act, iwasawa_factor, standard_basis


class TestUnitarityOfGroupAct:
    # determinant exactly 1, so only group_act's own unitarity check (1e-12) can reject it
    @staticmethod
    def factor(eps):
        return np.diag([1.0 + eps, 1.0 / (1.0 + eps)])

    def test_rejects_1e_11(self):
        with pytest.raises(ValidationError, match="^matrix is not unitary$"):
            group_act(np.zeros(3), self.factor(1e-11))

    def test_accepts_1e_13(self):
        acted, rest = group_act(np.zeros(3), self.factor(1e-13))
        assert np.isfinite(acted).all() and np.isfinite(rest).all()


class TestUnitarityOfIwasawaFactor:
    # a determinant off 1 by 5e-11 passes the determinant check (1e-10), so only the SU(2)
    # check of the factor U (1e-12) can reject it: U^dagger U - I has |det M|^2 - 1 at (1, 1)
    def test_rejects_a_determinant_off_by_5e_11(self):
        with pytest.raises(ValidationError, match="^matrix is not unitary$"):
            iwasawa_factor(np.diag([1.0 + 5e-11, 1.0]))

    def test_accepts_a_determinant_off_by_1e_13(self):
        U, k = iwasawa_factor(np.diag([1.0 + 1e-13, 1.0]))
        assert np.abs(U - np.eye(2)).max() <= 1e-12 and np.abs(k).max() <= 1e-12


class TestClosureOfADouble:
    def test_pair_from_double_rejects_a_g_bracket_leaving_g_by_1e_9(self, sl2c_derived):
        C = sl2c_derived.algebra.C.copy()
        C[3, 0, 1] += 1e-9  # an h part of [e1, e2]
        C[3, 1, 0] -= 1e-9
        with pytest.raises(EmbeddingError, match="^g basis is not closed under commutators$"):
            pair_from_double(C, 3, None, None)

    @staticmethod
    def derive(eps):
        g, h, g_names, h_names = standard_basis()
        g = [g[0], g[1], g[2] + eps * np.eye(2)]  # [e1, e2] now leaves the span by eps I
        return derive_actions_from_embedding(g, h, g_names, h_names)

    def test_derive_rejects_a_residual_of_1e_9(self):
        with pytest.raises(EmbeddingError, match=r"\(residual 1\.000e-09\)$"):
            self.derive(1e-9)

    def test_derive_accepts_a_residual_of_1e_13(self):
        assert self.derive(1e-13).validated


class TestLongestGrid:
    def test_rejects_one_step_more_than_2_to_the_23(self):
        with pytest.raises(InputError, match=r"\(at most 8388608\)$"):
            _grid(1.0, 2.0 ** 23 + 1.0)

    def test_accepts_2_to_the_23_steps(self):
        steps, times = _grid(1.0, 2.0 ** 23)
        assert steps == 2 ** 23 and times.nbytes == 64 * 2 ** 20 + 8  # a 64 MiB grid
        assert times[-1] == 2.0 ** 23


def test_blackbox_gradient_of_a_cubic_is_within_2e_9():
    # central differences at FD_STEP = 1e-6 read 7.0e-10 here, and 9.2e-9 at 1e-4
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6, 6))
    S = sum(A.transpose(p) for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                     (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
    spec = HamiltonianSpec.blackbox(lambda z: np.einsum("ijk,i,j,k->", S, z, z, z), 6)
    worst = 0.0
    for z in rng.standard_normal((200, 6)):
        exact = 3.0 * np.einsum("ijk,j,k->i", S, z, z)
        worst = max(worst, np.abs(gradient(spec, z) - exact).max() / (1.0 + np.abs(exact).max()))
    assert worst <= 2e-9, worst
