"""Bounded work arrays: the formula audit evaluates its eleven rows over blocks
of at most ``AUDIT_BLOCK_SAMPLES`` samples, with the constants that
``_audit_plan`` keeps for the last (derived, printed) pairs, and matches the
per-row reference; every case passes a full set of closed forms, the sl2c ones
or the printed pair's exact ones.  ``bracket`` contracts the transposed
structure constants that each ``LieAlgebra`` keeps once, contiguous and
read-only, instead of copying them on every call."""

import contextlib
import dataclasses
import gc
import io
import json
import pathlib
import weakref

import numpy as np
import pytest

from mpmech import lie_core, matched_pair, sl2c
from mpmech.cli import main
from mpmech.errors import DimensionMismatch
from mpmech.lie_core import bracket, coadjoint
from mpmech.matched_pair import AUDIT_BLOCK_SAMPLES, MatchedPair, _audit_plan, audit_formulas

from helpers import count_calls, exact_closed_forms
from oracles import per_row_audit

CLOSED_FORMS = ("co_left", "co_right", "a_star", "b_star", "lp_rhs")
CASES = {  # (derived, printed, the sl2c closed forms taken; the others are exact)
    "sl2c closed forms": ("sl2c_derived", "sl2c_printed", CLOSED_FORMS),
    "tensor sets": ("sl2c_derived", "sl2c_printed", ()),
    "identical pairs": ("sl2c_derived", "sl2c_derived", ()),
    "heavy top": ("e3_heavytop", "sl2c_derived", ()),
}


def closed_forms(pairs, derived, printed, taken):
    """The sl2c closed forms named in ``taken``, and the printed pair's exact ones for
    the rest (see ``exact_closed_forms``)."""
    cf = sl2c.sl2c_closed_forms()
    return dataclasses.replace(exact_closed_forms(pairs[printed], pairs[derived]),
                               **{name: getattr(cf, name) for name in taken})


def audit(pairs, case, samples, seed):
    derived, printed, _ = CASES[case]
    return audit_formulas(pairs[derived], pairs[printed], closed_forms(pairs, *CASES[case]),
                          samples, seed)


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
        assert per_block == 7  # the four action maps in one call, four duals and two fields
        assert len(calls) == per_block * (1 + -(-1000 // 7))

    def test_a_nan_in_the_last_block_is_kept(self, pairs, monkeypatch):
        monkeypatch.setattr(matched_pair, "AUDIT_BLOCK_SAMPLES", 7)
        pr = pairs["sl2c_printed"]

        def co_left(mu, eta, nan=True):  # exact, but NaN on the audit's last sample
            out = matched_pair.co_left_act(pr, mu, eta)
            if nan and len(mu) == 1000 % 7:
                out[-1] = np.nan
            return out
        cf = sl2c.sl2c_closed_forms()
        report = audit_formulas(pairs["sl2c_derived"], pr,
                                dataclasses.replace(cf, co_left=co_left), 1000, 0)
        exact = audit_formulas(pairs["sl2c_derived"], pr, dataclasses.replace(
            cf, co_left=lambda mu, eta: co_left(mu, eta, nan=False)), 1000, 0)
        line = report.line("dual *<|")
        assert np.isnan(line.max_deviation) and line.status == "MISMATCH"
        assert exact.line("dual *<|").status == "MATCH"
        assert [r for r in report.lines if r.name != line.name] == \
            [r for r in exact.lines if r.name != line.name]


# the CASES above, each sl2c closed form alone, and the heavy top against the derived
# pair with all of them
ORACLE_CASES = {
    **CASES,
    **{f"{name} alone": ("sl2c_derived", "sl2c_printed", (name,)) for name in CLOSED_FORMS},
    "heavy top, sl2c closed forms": ("e3_heavytop", "sl2c_derived", CLOSED_FORMS),
}
ROW_OF = {"co_left": "dual *<|", "co_right": "dual *|>", "a_star": "dual a*", "b_star": "dual b*",
          "lp_rhs (mu_dot)": "closed-form rhs (mu)", "lp_rhs (nu_dot)": "closed-form rhs (nu)"}
GOLDEN = json.loads((pathlib.Path(__file__).parent / "audit_golden.json").read_text())


def fresh(mp, validate=False):
    return MatchedPair(mp.g, mp.h, mp.rho, mp.sigma, validate=validate)


class TestAuditPlan:
    @pytest.mark.parametrize("samples", [1, 7, 50, 1000, AUDIT_BLOCK_SAMPLES + 1])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_lines_are_the_per_row_audit(self, pairs, case, samples):
        derived, printed, _ = ORACLE_CASES[case]
        closed = closed_forms(pairs, *ORACLE_CASES[case])
        for seed in (0, 3):
            report = audit_formulas(pairs[derived], pairs[printed], closed, samples, seed)
            oracle = per_row_audit(pairs[derived], pairs[printed], samples, seed, closed)
            assert len(report.lines) == len(oracle) == 11
            for line, (name, dev, status, witness, detail) in zip(report.lines, oracle):
                assert (line.name, line.status, line.witness, line.detail) == \
                    (name, status, witness, detail)
                assert abs(line.max_deviation - dev) <= 1e-15 * dev
                assert dev != 0.0 or line.max_deviation == 0.0

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_cli_output_is_golden(self, tmp_path, key):
        """stdout and the --json bytes of ``mpmech audit sl2c``, as written before the plan."""
        seed, samples = key.split()
        path = tmp_path / "audit.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["audit", "sl2c", "--samples", samples, "--seed", seed,
                         "--json", str(path)]) == 0
        assert out.getvalue() == GOLDEN[key]["stdout"] + f"wrote {path}\n"
        assert path.read_bytes() == GOLDEN[key]["json"].encode("ascii")

    def test_plan_arrays_are_read_only(self, pairs):
        derived = fresh(pairs["sl2c_derived"], validate=True)
        audit_formulas(derived, pairs["sl2c_printed"], sl2c.sl2c_closed_forms(), 10, 0)
        actions, C_plus, _, _ = _audit_plan(derived, pairs["sl2c_printed"])
        assert "_audit_plan" not in vars(derived)  # the pair keeps no audit state
        for T in (actions, C_plus, *derived.map_tensors.values(),
                  *pairs["sl2c_printed"].map_tensors.values()):
            assert T.flags.c_contiguous
            with pytest.raises(ValueError):
                T[(0,) * T.ndim] = 1.0

    def test_each_printed_pair_gets_its_own_report(self, pairs):
        derived = fresh(pairs["sl2c_derived"], validate=True)
        cf = sl2c.sl2c_closed_forms()
        for printed in ("sl2c_printed", "e3_heavytop", "sl2c_printed", "sl2c_derived"):
            report = audit_formulas(derived, pairs[printed], cf, 50, 2)
            hits = _audit_plan.cache_info().hits
            _audit_plan(derived, pairs[printed])  # the plan kept is this printed pair's
            assert _audit_plan.cache_info().hits == hits + 1
            assert [(line.name, line.max_deviation, line.status, line.witness, line.detail)
                    for line in report.lines] == per_row_audit(derived, pairs[printed], 50, 2, cf)

    def test_one_plan_is_kept(self, pairs):
        derived = fresh(pairs["sl2c_derived"], validate=True)
        plans = []  # each plan's stacked action tensor, and its printed pair
        for _ in range(200):
            printed = fresh(pairs["sl2c_printed"])
            audit_formulas(derived, printed, sl2c.sl2c_closed_forms(), 1, 0)
            plans.append((weakref.ref(_audit_plan(derived, printed)[0]), weakref.ref(printed)))
        del printed
        gc.collect()
        alive = [(T(), mp()) for T, mp in plans if T() is not None or mp() is not None]
        assert len(alive) == 1 and alive[0][0] is _audit_plan(derived, alive[0][1])[0]
        assert _audit_plan.cache_info().currsize == 1

    def test_complex_closed_forms_with_real_values_are_audited(self, pairs):
        """A complex128 result with zero imaginary part reads as its real values."""
        cf = sl2c.sl2c_closed_forms()
        as_complex = dataclasses.replace(
            cf, co_left=lambda mu, eta: cf.co_left(mu, eta).astype(complex),
            lp_rhs=lambda *args: tuple(part.astype(complex) for part in cf.lp_rhs(*args)))
        report = audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], as_complex, 50, 3)
        assert all(type(line.max_deviation) is float for line in report.lines)
        assert report == audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], cf, 50, 3)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (21, 3), (20, 3, 1)])
    @pytest.mark.parametrize("name", CLOSED_FORMS[:4] + ("lp_rhs (mu_dot)", "lp_rhs (nu_dot)"))
    def test_closed_forms_of_another_shape_are_rejected(self, pairs, name, shape):
        """A result that would broadcast against the (20, 3) rows is a DimensionMismatch."""
        cf = sl2c.sl2c_closed_forms()
        wrong = np.ones(shape)
        row = ROW_OF[name]
        if name.startswith("lp_rhs"):
            half = name.endswith("(nu_dot)")
            closed = dataclasses.replace(cf, lp_rhs=lambda *args: tuple(
                wrong if k == half else part for k, part in enumerate(cf.lp_rhs(*args))))
        else:
            closed = dataclasses.replace(cf, **{name: lambda u, v: wrong})
        with pytest.raises(DimensionMismatch) as err:
            audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], closed, 20, 1)
        assert str(err.value) == f"{row}: the closed form has shape {shape}, expected (20, 3)"


class TestLeftConstants:
    def test_contiguous_read_only_and_kept(self, pairs):
        for mp in pairs.values():
            for alg in (mp.g, mp.h, mp.algebra):
                T = alg.left_constants
                assert T.flags.c_contiguous and not T.flags.writeable
                assert T is alg.left_constants
                assert np.array_equal(T, alg.C.transpose(1, 0, 2))

    @pytest.mark.parametrize("name", sl2c.BUILTIN_PAIRS)
    def test_bracket_bitwise_as_the_transposed_view(self, pairs, name):
        alg = pairs[name].algebra
        view = alg.C.transpose(1, 0, 2)
        rng = np.random.default_rng(1506)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(200):
                x, y = scale * rng.standard_normal((2, alg.dim))
                old = 0.5 * (coadjoint(view, x, y) - coadjoint(view, y, x))
                assert bracket(alg, x, y).tobytes() == old.tobytes()

    def test_bracket_copies_no_constants(self, sl2c_derived, monkeypatch):
        alg = sl2c_derived.algebra
        alg.left_constants
        seen = []
        real = lie_core.poisson_tensor
        monkeypatch.setattr(lie_core, "poisson_tensor",
                            lambda C, z: seen.append(C) or real(C, z))
        bracket(alg, np.ones(alg.dim), np.arange(alg.dim, dtype=float))
        assert len(seen) == 2 and all(C is alg.left_constants for C in seen)
