"""The double's structure constants as the one source of truth: the
compatibility conditions read off its Jacobiator, and ``derive`` solving
every commutator of an embedded basis at once and splitting the result
with ``pair_from_double``."""

import json

import numpy as np
import pytest

from mpmech import formats, lie_core
from mpmech.cli import main
from mpmech.errors import EmbeddingError
from mpmech.lie_core import LieAlgebra
from mpmech.matched_pair import MatchedPair, build_double, pair_from_double, validation_report
from mpmech.sl2c import (
    EmbeddedBasis,
    derive_actions_from_embedding,
    k_algebra,
    k_basis,
    standard_basis,
    su2_algebra,
    su2_basis,
)

from group_elements import random_sl2c
from helpers import count_calls, random_antisymmetric, random_pair
from oracles import commutator_projection, condition_tensors


PAIRS = {
    "direct_product": lambda: MatchedPair(su2_algebra(), k_algebra(),
                                          np.zeros((3, 3, 3)), np.zeros((3, 3, 3))),
    "random_3x3": lambda: random_pair(11, 3, 3),
    "random_2x4": lambda: random_pair(12, 2, 4),
    "random_4x1": lambda: random_pair(13, 4, 1),
}


@pytest.fixture(params=["sl2c_derived", "sl2c_printed", "e3_heavytop", *PAIRS])
def any_pair(request, pairs):
    return pairs[request.param] if request.param in pairs else PAIRS[request.param]()


class TestConditionsFromTheJacobiator:
    def test_blocks_match_the_five_term_conditions(self, any_pair):
        mp = any_pair
        reference = condition_tensors(mp.g.C, mp.h.C, mp.rho, mp.sigma)
        report = {c.name: c for c in validation_report(mp)}
        n = mp.g.dim
        J = mp.algebra.jacobiator
        scale = 1.0 + max(np.abs(t).max() for t in (mp.g.C, mp.h.C, mp.rho, mp.sigma))
        tol = 1e-12 * scale ** 2
        found = ((report["compatibility condition 1"], J[:n, n:, :n, :n], (mp.h, mp.g, mp.g)),
                 (report["compatibility condition 2"], -J[n:, n:, n:, :n], (mp.h, mp.h, mp.g)))
        for D, (check, block, algebras) in zip(reference, found):
            largest = float(np.abs(D).max())
            assert abs(check.value - largest) <= tol
            assert np.abs(block - D).max() <= tol
            # the witness is a largest entry of the reference
            witness = tuple(check.witness[1:-1].split(", "))
            column = D[(slice(None),) + tuple(a.names.index(w) for a, w in zip(algebras, witness))]
            assert float(np.abs(column).max()) >= largest - tol
            if largest > 1e-6:  # a defect above rounding has the reference's witness
                _, *first = np.unravel_index(int(np.abs(D).argmax()), D.shape)
                assert witness == tuple(a.name_of(k) for a, k in zip(algebras, first))

    def test_check_computes_no_jacobiator_when_repeated(self, monkeypatch):
        assert main(["check", "sl2c_printed"]) == 1
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        assert main(["check", "sl2c_printed"]) == 1
        assert jacobi == []

    def test_jacobi_defect_reuses_the_kept_jacobiator(self, monkeypatch, rng):
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        alg = LieAlgebra(random_antisymmetric(rng, 4), validate=False)
        first = alg.jacobi_check("jacobi").value
        assert alg.jacobi_check("jacobi").value == first
        assert first == float(np.abs(alg.jacobiator).max()) > 0.0
        assert len(jacobi) == 1
        assert not alg.jacobiator.flags.writeable


class TestDeriveInOneSolve:
    @pytest.mark.parametrize("g,h,factor", [(slice(0, 2), slice(2, 3), "g"),
                                            (slice(2, 3), slice(0, 2), "h")])
    def test_rejects_a_factor_that_is_not_closed(self, g, h, factor):
        basis = EmbeddedBasis(tuple(su2_basis()[g]), tuple(su2_basis()[h]))
        with pytest.raises(EmbeddingError, match=f"^{factor} basis is not closed under commutators$"):
            derive_actions_from_embedding(basis)

    @pytest.mark.parametrize("g,h", [([], []), (su2_basis(), []), ([], k_basis())])
    def test_empty_factor_is_input_error(self, tmp_path, capsys, g, h):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"g": [formats.matrix_to_json(M) for M in g],
                                    "h": [formats.matrix_to_json(M) for M in h]}))
        assert main(["derive", "--basis", str(path), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == "input error: algebra dimension must be positive\n"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conjugated_basis_matches_commutator_projection(self, seed):
        A = random_sl2c(np.random.default_rng(seed))
        A_inv = np.linalg.inv(A)
        g = [A @ M @ A_inv for M in su2_basis()]
        h = [A @ M @ A_inv for M in k_basis()]
        mp = derive_actions_from_embedding(EmbeddedBasis(tuple(g), tuple(h)))
        oracle = commutator_projection(g, h)
        C = mp.algebra.C
        assert np.abs(C - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())

    def test_one_least_squares_solve(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        derive_actions_from_embedding(standard_basis())
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["sl2c_derived", "e3_heavytop"])
    def test_pair_from_double_inverts_build_double(self, pairs, name):
        mp = pairs[name]
        assert build_double(mp) is mp and mp.split == (mp.g.dim, mp.h.dim)
        back = pair_from_double(build_double(mp).algebra.C, mp.g.dim, mp.g.names, mp.h.names)
        assert back.validated and (back.g.names, back.h.names) == (mp.g.names, mp.h.names)
        for got, want in ((back.g.C, mp.g.C), (back.h.C, mp.h.C),
                          (back.rho, mp.rho), (back.sigma, mp.sigma)):
            assert np.array_equal(got, want)
