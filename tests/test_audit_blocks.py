"""Bounded work arrays: the formula audit evaluates its rows over blocks of at
most ``AUDIT_BLOCK_SAMPLES`` samples, and ``bracket`` contracts the transposed
structure constants that each ``LieAlgebra`` keeps once, contiguous and
read-only, instead of copying them on every call."""

import numpy as np
import pytest

from mpmech import lie_core, matched_pair, sl2c
from mpmech.lie_core import bracket, coadjoint
from mpmech.matched_pair import (
    AUDIT_BLOCK_SAMPLES,
    ClosedFormActions,
    audit_formulas,
    build_double,
)

from test_validation_report import count_calls

CASES = {  # (derived, printed, closed forms)
    "sl2c closed forms": ("sl2c_derived", "sl2c_printed", True),
    "tensor sets": ("sl2c_derived", "sl2c_printed", False),
    "identical pairs": ("sl2c_derived", "sl2c_derived", False),
    "heavy top": ("e3_heavytop", "sl2c_derived", False),
}


def audit(pairs, case, samples, seed):
    derived, printed, closed = CASES[case]
    return audit_formulas(pairs[derived], pairs[printed], samples, seed,
                          sl2c.sl2c_closed_forms() if closed else None)


def count_block_rows(monkeypatch):
    """The calls of ``coadjoint`` made by the audit, a fixed number per block."""
    return count_calls(monkeypatch, matched_pair, "coadjoint")


class TestAuditBlocks:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_blocks_of_seven_give_the_same_report(self, pairs, monkeypatch, case, seed):
        whole = audit(pairs, case, 1000, seed)
        monkeypatch.setattr(matched_pair, "AUDIT_BLOCK_SAMPLES", 7)
        blocked = audit(pairs, case, 1000, seed)
        assert [line.name for line in blocked.lines] == [line.name for line in whole.lines]
        for line, ref in zip(blocked.lines, whole.lines):
            assert (line.status, line.witness, line.detail) == (ref.status, ref.witness, ref.detail)
            assert abs(line.max_deviation - ref.max_deviation) <= 1e-15 * ref.max_deviation

    def test_every_block_is_evaluated(self, pairs, monkeypatch):
        calls = count_block_rows(monkeypatch)
        audit(pairs, "sl2c closed forms", AUDIT_BLOCK_SAMPLES, 1)
        per_block = len(calls)
        monkeypatch.setattr(matched_pair, "AUDIT_BLOCK_SAMPLES", 7)
        audit(pairs, "sl2c closed forms", 1000, 0)
        assert per_block == 10  # eight action and dual maps and two fields
        assert len(calls) == per_block * (1 + -(-1000 // 7))

    def test_a_nan_in_the_last_block_is_kept(self, pairs, monkeypatch):
        monkeypatch.setattr(matched_pair, "AUDIT_BLOCK_SAMPLES", 7)
        pr = pairs["sl2c_printed"]

        def co_left(mu, eta, nan=True):  # exact, but NaN on the audit's last sample
            out = matched_pair.co_left_act(pr, mu, eta)
            if nan and len(mu) == 1000 % 7:
                out[-1] = np.nan
            return out
        report = audit_formulas(pairs["sl2c_derived"], pr, 1000, 0, ClosedFormActions(co_left))
        exact = audit_formulas(pairs["sl2c_derived"], pr, 1000, 0,
                               ClosedFormActions(lambda mu, eta: co_left(mu, eta, nan=False)))
        line = report.line("dual *<|")
        assert np.isnan(line.max_deviation) and line.status == "MISMATCH"
        assert exact.line("dual *<|").status == "MATCH"
        assert [r for r in report.lines if r.name != line.name] == \
            [r for r in exact.lines if r.name != line.name]


class TestLeftConstants:
    def test_contiguous_read_only_and_kept(self, pairs):
        for mp in pairs.values():
            for alg in (mp.g, mp.h, build_double(mp).algebra):
                T = alg.left_constants
                assert T.flags.c_contiguous and not T.flags.writeable
                assert T is alg.left_constants
                assert np.array_equal(T, alg.C.transpose(1, 0, 2))

    @pytest.mark.parametrize("name", sl2c.BUILTIN_PAIRS)
    def test_bracket_bitwise_as_the_transposed_view(self, pairs, name):
        alg = build_double(pairs[name]).algebra
        view = alg.C.transpose(1, 0, 2)
        rng = np.random.default_rng(1506)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(200):
                x, y = scale * rng.standard_normal((2, alg.dim))
                old = 0.5 * (coadjoint(view, x, y) - coadjoint(view, y, x))
                assert bracket(alg, x, y).tobytes() == old.tobytes()

    def test_bracket_copies_no_constants(self, sl2c_derived, monkeypatch):
        alg = build_double(sl2c_derived).algebra
        alg.left_constants
        seen = []
        real = lie_core.poisson_tensor
        monkeypatch.setattr(lie_core, "poisson_tensor",
                            lambda C, z: seen.append(C) or real(C, z))
        bracket(alg, np.ones(alg.dim), np.arange(alg.dim, dtype=float))
        assert len(seen) == 2 and all(C is alg.left_constants for C in seen)
