"""``coadjoint`` and the six action maps as one matrix product and one
row-wise contraction, checked against their 3-operand einsums; the closed
forms' cross product against ``np.cross``, bit for bit; the audit against
the einsum reference; and InputError for ragged or non-numeric input to
the Python API."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from mpmech import formats, lie_core, matched_pair, sl2c
from mpmech.dynamics import HamiltonianSpec, integrate, legendre
from mpmech.errors import InputError
from mpmech.lie_core import LieAlgebra, ad_star, coadjoint
from mpmech.matched_pair import (
    MatchedPair,
    audit_formulas,
    left_act,
    matched_lp_rhs,
    pair_from_double,
)
from mpmech.sl2c import KHAT, _cross, su2_algebra

from helpers import random_pair
from oracles import EINSUM_MAPS, einsum_coadjoint

PAIRS = [(41, 2, 4), (42, 4, 1), (43, 5, 2)]
# the factor (g or h) of each map's two arguments
SIDES = {"left_act": "hg", "right_act": "hg", "co_left_act": "gh",
         "a_star": "hh", "co_right_act": "gh", "b_star": "gg"}
SHAPES = {"one vector": ((), ()), "stack": ((7,), (7,)),
          "vector against stack": ((), (7,)), "stack against vector": ((7,), ())}


def draw(rng, lead, k):
    return rng.standard_normal(lead + (k,))


def close(got, want, bound):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * bound.max()


class TestAgainstEinsums:
    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    @pytest.mark.parametrize("seed,n,m", PAIRS)
    def test_coadjoint(self, seed, n, m, shape, rng):
        C = random_pair(seed, n, m).algebra.C
        z, x = (draw(rng, lead, n + m) for lead in SHAPES[shape])
        close(coadjoint(C, z, x), einsum_coadjoint(C, z, x),
              einsum_coadjoint(np.abs(C), np.abs(z), np.abs(x)))

    @pytest.mark.parametrize("name", SIDES)
    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    @pytest.mark.parametrize("seed,n,m", PAIRS)
    def test_maps(self, seed, n, m, shape, name, rng):
        mp = random_pair(seed, n, m)
        u, v = (draw(rng, lead, {"g": n, "h": m}[side])
                for lead, side in zip(SHAPES[shape], SIDES[name]))
        magnitude = SimpleNamespace(rho=np.abs(mp.rho), sigma=np.abs(mp.sigma))
        close(getattr(matched_pair, name)(mp, u, v), EINSUM_MAPS[name](mp, u, v),
              EINSUM_MAPS[name](magnitude, np.abs(u), np.abs(v)))

    def test_isotropic_stack_stays_exactly_stationary(self, rng):
        # the row-wise step has no fused multiply-add, so ad*_mu mu is exactly 0 on su(2)
        mus = rng.standard_normal((1000, 3))
        assert np.abs(coadjoint(su2_algebra().C, mus, mus)).max() == 0.0


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCross:
    def test_random_stacks(self, rng):
        a, b = rng.standard_normal((2, 500, 3))
        assert same_bits(_cross(a, b), np.cross(a, b))
        assert same_bits(_cross(a[0], b[0]), np.cross(a[0], b[0]))

    def test_signed_zeros(self):
        vectors = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0, 2.5], repeat=3)))
        a, b = vectors[:, None], vectors[None, :]
        assert same_bits(_cross(a, b), np.cross(a, b))
        zero_signs = np.signbit(np.cross(a, b)[np.cross(a, b) == 0.0])
        assert zero_signs.any() and not zero_signs.all()  # both +0.0 and -0.0 occur

    def test_khat_against_stacks(self, rng):
        stack = rng.standard_normal((50, 3))
        stack[::3] = -0.0
        for a, b in ((KHAT, stack), (stack, KHAT), (KHAT, stack[0]), (stack[:, None], stack)):
            assert same_bits(_cross(a, b), np.cross(a, b))

    def test_closed_forms_use_no_np_cross(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("np.cross called")

        monkeypatch.setattr(np, "cross", refuse)
        forms = sl2c.sl2c_closed_forms()
        u, v, x, y = rng.standard_normal((4, 5, 3))
        forms.co_left(u, v), forms.co_right(u, v), forms.a_star(u, v), forms.lp_rhs(u, v, x, y)


@pytest.fixture
def einsum_reference(monkeypatch):
    """The audit as it was before the two steps: 3-operand einsums and np.cross."""
    monkeypatch.setattr(matched_pair, "coadjoint", einsum_coadjoint)
    for name, fn in EINSUM_MAPS.items():
        monkeypatch.setattr(matched_pair, name, fn)
    monkeypatch.setattr(sl2c, "_cross", np.cross)


def sl2c_audit(samples, seed):
    pairs = sl2c.builtin_pairs()
    return audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], sl2c.sl2c_closed_forms(),
                          samples, seed)


class TestAuditAgainstEinsums:
    @pytest.mark.parametrize("samples", [1, 50, 1000])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_same_rows(self, seed, samples, request):
        report = sl2c_audit(samples, seed)
        request.getfixturevalue("einsum_reference")
        reference = sl2c_audit(samples, seed)
        assert [line.name for line in report.lines] == [line.name for line in reference.lines]
        assert "MISMATCH" in {line.status for line in report.lines}
        for line, ref in zip(report.lines, reference.lines):
            assert (line.status, line.witness, line.detail) == (ref.status, ref.witness, ref.detail)
            if ref.status == "MISMATCH":
                assert abs(line.max_deviation - ref.max_deviation) <= 1e-12 * ref.max_deviation
            else:
                assert max(line.max_deviation, ref.max_deviation) < 1e-13


class TestRaggedOrNonNumericInput:
    @pytest.mark.parametrize("call", [
        lambda mp: integrate(mp, HamiltonianSpec.quadratic(np.eye(6)),
                             [1.0, [2.0], 3.0, 0.0, 0.0, 0.0], 0.1, 0.1),
        lambda mp: left_act(mp, [[1, 2], [3]], [1, 2, 3]),
        lambda mp: left_act(mp, [1, 2, 3], [1, "x", 3]),
        lambda mp: ad_star(mp.g, ["a", 1, 2], [1, 2, 3]),
        lambda mp: ad_star(mp.g, [1, 2, 3], {"mu": 1}),
        lambda mp: matched_lp_rhs(mp, [1.0, [2.0], 3.0, 0.0, 0.0, 0.0], np.zeros(6)),
        lambda mp: matched_lp_rhs(mp, np.zeros(6), [1.0, 0.0, 0.0, 0.0, 0.0, "c"]),
        lambda mp: LieAlgebra([[[0.0]], [0.0]]),
        lambda mp: MatchedPair(mp.g, mp.h, [[[0.0]] * 3, [0.0]], mp.sigma, validate=False),
        lambda mp: MatchedPair(mp.g, mp.h, mp.rho, "sigma", validate=False),
        lambda mp: pair_from_double([[[0.0]], [0.0]], 1, None, None),
        lambda mp: HamiltonianSpec.quadratic([[1.0, 0.0], [0.0]]),
        lambda mp: HamiltonianSpec.quadratic(np.eye(2), [1.0, [2.0]]),
        lambda mp: legendre([[1.0], ["x"]], np.eye(3)),
    ], ids=["ragged flat", "ragged stack", "string in a map", "string in ad_star", "dict in ad_star",
            "ragged rhs point", "string rhs gradient", "ragged constants", "ragged rho",
            "string sigma", "ragged double", "ragged Q", "ragged b", "string metric"])
    def test_is_an_input_error(self, call, sl2c_derived):
        with pytest.raises(InputError, match="not a numeric array"):
            call(sl2c_derived)

    def test_formats_reads_floats_through_lie_core(self):
        assert formats.float_array is lie_core.float_array
        with pytest.raises(InputError, match="Q is not a numeric array"):
            formats.float_array([[1.0], [2.0, 3.0]], "Q")
