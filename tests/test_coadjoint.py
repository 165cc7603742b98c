"""One coadjoint contraction behind the Lie-Poisson and Euler-Poincare
fields and the audit, one definition of each action map (on one vector or
a stack of rows), and the flat 2-vector reading of a 1+1 pair."""

import re

import numpy as np
import pytest

from mpmech import cli, lie_core
from mpmech.dynamics import HamiltonianSpec, integrate, integrate_ep, legendre
from mpmech.errors import DimensionMismatch, InputError
from mpmech.lie_core import abelian, ad_star, coadjoint, lie_poisson_rhs
from mpmech.matched_pair import (
    ClosedFormActions,
    MatchedPair,
    a_star,
    audit_formulas,
    b_star,
    co_left_act,
    co_right_act,
    left_act,
    matched_lp_rhs,
    right_act,
)
from mpmech.sl2c import KHAT

from helpers import random_pair
from oracles import euler_poincare_five_term, lie_poisson_field

BUILTINS = ("sl2c_derived", "sl2c_printed", "e3_heavytop")
RANDOM_PAIRS = [(21, 3, 3), (22, 2, 4), (23, 4, 1), (24, 1, 1), (25, 5, 2)]
# each map with the factor (g or h) of each of its two arguments
MAPS = [
    (left_act, ("h", "g")),
    (right_act, ("h", "g")),
    (co_left_act, ("g", "h")),
    (a_star, ("h", "h")),
    (co_right_act, ("g", "h")),
    (b_star, ("g", "g")),
]


def dims(mp, sides):
    return [{"g": mp.g.dim, "h": mp.h.dim}[s] for s in sides]


def spd(rng, k):
    A = rng.standard_normal((k, k))
    return A @ A.T + k * np.eye(k)


def magnitude(C, z, x):
    """Entrywise bound sum |C[k, i, j] z_k x_j| on the terms of coadjoint(C, z, x)."""
    return coadjoint(np.abs(C), np.abs(z), np.abs(x))


class TestContraction:
    def test_equals_loop_field_on_stacks(self, rng):
        for seed, n, m in RANDOM_PAIRS:
            C = random_pair(seed, n, m).algebra.C
            Z, X = rng.standard_normal((2, 7, n + m))
            loops = np.array([lie_poisson_field(C, 1.0, lambda z, x=x: x)(z) for z, x in zip(Z, X)])
            assert np.abs(coadjoint(C, Z, X) - loops).max() <= 1e-14 * magnitude(C, Z, X).max()

    def test_broadcasts_over_leading_axes(self, sl2c_derived, rng):
        C = sl2c_derived.algebra.C
        Z, X = rng.standard_normal((2, 2, 3, 6))
        assert coadjoint(C, Z, X).shape == (2, 3, 6)
        x = X[0, 0]
        rows = np.array([[coadjoint(C, z, x) for z in row] for row in Z])
        assert np.abs(coadjoint(C, Z, x) - rows).max() <= 1e-14 * magnitude(C, Z, x).max()

    def test_ad_star_and_lie_poisson_rhs_are_views(self, pairs, rng):
        for mp in pairs.values():
            alg = mp.g
            xi, mu = rng.standard_normal((2, alg.dim))
            assert np.array_equal(ad_star(alg, xi, mu), coadjoint(alg.C, mu, xi))
            assert np.array_equal(lie_poisson_rhs(alg, mu, xi, "left"), -coadjoint(alg.C, mu, xi))

    def test_matched_lp_rhs_is_the_signed_contraction(self, sl2c_derived, rng):
        double = sl2c_derived
        for convention, sign in (("right", 1.0), ("left", -1.0)):
            z, x = rng.standard_normal((2, 6))
            rhs = matched_lp_rhs(double, z, x, convention)
            assert np.array_equal(rhs, sign * coadjoint(double.algebra.C, z, x))


class TestEulerPoincareAgainstFiveTerms:
    def check(self, mp, rng, samples=50):
        n, m = mp.g.dim, mp.h.dim
        metric_g, metric_h = spd(rng, n), spd(rng, m)
        C = mp.algebra.C
        for _ in range(samples):
            xi, eta = rng.standard_normal(n), rng.standard_normal(m)
            # integrate_ep's field: the left convention at the momenta z, gradient (xi, eta)
            z = np.concatenate([metric_g @ xi, metric_h @ eta])
            v = np.concatenate([xi, eta])
            ref = np.concatenate(euler_poincare_five_term(
                mp.g.C, mp.h.C, mp.rho, mp.sigma, metric_g, metric_h, xi, eta))
            assert np.abs(-coadjoint(C, z, v) - ref).max() <= 1e-13 * magnitude(C, z, v).max()

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_pairs(self, pairs, name, rng):
        self.check(pairs[name], rng)

    @pytest.mark.parametrize("seed,n,m", RANDOM_PAIRS)
    def test_unvalidated_random_pairs(self, seed, n, m, rng):
        mp = random_pair(seed, n, m)
        self.check(mp, rng)
        assert not mp.validated

    def test_rejects_metric_blocks_of_the_wrong_size(self, sl2c_derived):
        with pytest.raises(DimensionMismatch, match="Hamiltonian dimension 5 does not match"):
            integrate_ep(sl2c_derived, legendre(np.eye(2), np.eye(3)),
                         np.ones(6), 0.1, 0.1)


class TestStackedMaps:
    @pytest.mark.parametrize("fn,sides", MAPS, ids=[f.__name__ for f, _ in MAPS])
    @pytest.mark.parametrize("seed,n,m", [(31, 3, 3), (32, 2, 4), (33, 4, 1)])
    def test_stack_equals_rows(self, fn, sides, seed, n, m, rng):
        mp = random_pair(seed, n, m)
        U, V = (rng.standard_normal((9, k)) for k in dims(mp, sides))
        rows = np.array([fn(mp, u, v) for u, v in zip(U, V)])
        stack = fn(mp, U, V)
        assert stack.shape == rows.shape
        tol = 1e-13 * (1.0 + np.abs(rows).max())  # summation order only
        assert np.abs(stack - rows).max() <= tol
        # one vector against a stack broadcasts
        assert np.abs(fn(mp, U[0], V) - np.array([fn(mp, U[0], v) for v in V])).max() <= tol

    @pytest.mark.parametrize("fn,sides", MAPS, ids=[f.__name__ for f, _ in MAPS])
    def test_rejects_a_wrong_last_dimension(self, fn, sides, rng):
        mp = random_pair(34, 2, 4)
        U, V = (rng.standard_normal((5, k)) for k in dims(mp, sides))
        for bad in (rng.standard_normal((5, U.shape[1] + 1)), 1.0, np.ones((U.shape[1], 0))):
            with pytest.raises(DimensionMismatch):
                fn(mp, bad, V)
        with pytest.raises(DimensionMismatch):
            fn(mp, U, V[:, :-1])

    @pytest.mark.parametrize("fn,sides", MAPS, ids=[f.__name__ for f, _ in MAPS])
    def test_rejects_leading_axes_that_do_not_broadcast(self, fn, sides, rng):
        mp = random_pair(35, 2, 4)
        k, l = dims(mp, sides)
        with pytest.raises(DimensionMismatch) as err:
            fn(mp, rng.standard_normal((5, k)), rng.standard_normal((4, l)))
        assert f"(5, {k})" in str(err.value) and f"(4, {l})" in str(err.value)
        assert fn(mp, rng.standard_normal(k), rng.standard_normal((4, l))).shape[0] == 4
        assert fn(mp, rng.standard_normal((4, 1, k)), rng.standard_normal((3, l))).shape[:2] == (4, 3)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("fn,sides", MAPS, ids=[f.__name__ for f, _ in MAPS])
    def test_rejects_a_non_numeric_argument(self, fn, sides, side, rng):
        mp = random_pair(36, 2, 4)
        args = [rng.standard_normal((5, k)) for k in dims(mp, sides)]
        args[side] = [["a"] * args[side].shape[1]] * 5
        with pytest.raises(InputError, match="^coadjoint (point z|vector x) is not a numeric array: "):
            fn(mp, *args)

    @pytest.mark.parametrize("z,x,what", [("abc", np.ones(6), "point z"),
                                          (np.ones(6), [["a"]], "vector x")], ids=["z", "x"])
    def test_coadjoint_reads_both_arguments_as_floats(self, sl2c_derived, z, x, what):
        with pytest.raises(InputError, match=f"^coadjoint {what} is not a numeric array: "):
            coadjoint(sl2c_derived.algebra.C, z, x)

    def test_matched_lp_rhs_rejects_a_point_of_length_5(self, sl2c_derived):
        with pytest.raises(DimensionMismatch, match=r"^dual vector has shape \(5,\), expected \(6,\)$"):
            matched_lp_rhs(sl2c_derived, np.ones(5), np.ones(6))

    def test_coadjoint_rejects_a_length_one_x(self):
        # einsum would broadcast a length-1 last axis of x against the constants' last axis
        C = np.zeros((3, 3, 3))
        C[0] = np.eye(3)
        for z, x in (([1, 0, 0], np.ones(1)), (np.ones((5, 3)), np.ones((5, 1)))):
            shapes = f"rows of shapes {np.shape(z)} and {x.shape} with constants of shape (3, 3, 3)"
            with pytest.raises(DimensionMismatch, match=re.escape(shapes)):
                coadjoint(C, z, x)
        assert coadjoint(C, [1, 0, 0], np.ones(3)).tolist() == [1.0, 1.0, 1.0]

    def test_maps_read_their_pairs_tensors(self, sl2c_printed, monkeypatch, rng):
        seen = []
        real = lie_core.poisson_tensor
        monkeypatch.setattr(lie_core, "poisson_tensor", lambda C, z: seen.append(C) or real(C, z))
        for fn, sides in MAPS:
            fn(sl2c_printed, *(rng.standard_normal((50, k)) for k in dims(sl2c_printed, sides)))
        tensors = sl2c_printed.map_tensors
        assert len(seen) == len(MAPS)
        assert all(T is tensors[fn.__name__] for T, (fn, _) in zip(seen, MAPS))
        assert all(T.flags.c_contiguous and not T.flags.writeable for T in seen)

    def test_audit_calls_the_maps(self, sl2c_derived, sl2c_printed):
        # closed forms that are the maps themselves reproduce the audit's exact rows bit for bit
        pr = sl2c_printed
        C = sl2c_derived.algebra.C
        n = sl2c_derived.g.dim

        def lp_rhs(mu, nu, x, y):
            F = coadjoint(C, np.hstack([mu, nu]), np.hstack([x, y]))
            return F[:, :n], F[:, n:]

        forms = ClosedFormActions(lambda u, v: co_left_act(pr, u, v),
                                  lambda u, v: co_right_act(pr, u, v),
                                  lambda u, v: a_star(pr, u, v),
                                  lambda u, v: b_star(pr, u, v), lp_rhs)
        report = audit_formulas(sl2c_derived, pr, samples=64, seed=5, closed_forms=forms)
        for name in ("dual *<|", "dual *|>", "dual a*", "dual b*",
                     "closed-form rhs (mu)", "closed-form rhs (nu)"):
            assert report.line(name).max_deviation == 0.0


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestBuiltinTensorsAgainstLoops:
    def test_printed_and_e3_tensors(self, pairs):
        eye = np.eye(3)
        rho_p, sigma_p, sigma_e3 = np.zeros((3, 3, 3, 3))
        for a in range(3):
            for i in range(3):
                rho_p[:, a, i] = np.cross(eye[a], np.cross(eye[i], KHAT))
                sigma_p[:, a, i] = np.cross(eye[i], eye[a])
                sigma_e3[:, a, i] = np.cross(eye[a], eye[i])
        assert same_bits(pairs["sl2c_printed"].rho, rho_p)
        assert same_bits(pairs["sl2c_printed"].sigma, sigma_p)
        assert same_bits(pairs["e3_heavytop"].sigma, sigma_e3)
        assert same_bits(pairs["e3_heavytop"].rho, np.zeros((3, 3, 3)))

    def test_builtin_hamiltonians(self):
        n = m = 3
        Q = np.zeros((6, 6))
        Q[:n, :n] = np.eye(n)
        b = np.zeros(6)
        b[n + 2] = 1.0
        top = cli.builtin_hamiltonian("heavy_top", n, m)
        assert same_bits(top.Q, Q) and same_bits(top.b, b)
        Q[:n, :n] = np.diag([1.0, 0.5, 1.0 / 3.0])
        body = cli.load_hamiltonian("rigid_body_123", n, m)
        assert same_bits(body.Q, Q) and same_bits(body.b, np.zeros(6))
        assert same_bits(cli.load_hamiltonian("quadratic_identity", n, m).Q, np.eye(6))
        with pytest.raises(InputError, match="built-ins are quadratic_identity, heavy_top, "
                                              "rigid_body_123"):
            cli.builtin_hamiltonian("spinning_top", n, m)


class TestLegendre:
    def test_accepts_an_ill_conditioned_metric(self):
        # inv() of this metric is asymmetric past quadratic()'s 1e-12 test, so
        # legendre has to symmetrize the inverse blocks itself
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        M = (q * np.geomspace(1.0, 1e10, 6)) @ q.T
        metric_g = 0.5 * M + 0.5 * M.T
        inv = np.linalg.inv(metric_g)
        with pytest.raises(InputError, match="not symmetric"):
            HamiltonianSpec.quadratic(inv)
        assert same_bits(legendre(metric_g, np.eye(3)).Q[:6, :6], 0.5 * inv + 0.5 * inv.T)


class TestFlatTwoVector:
    @pytest.fixture
    def line_pair(self):
        return MatchedPair(abelian(1), abelian(1), np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))

    def test_flat_list_is_a_state(self, line_pair):
        record = integrate(line_pair, HamiltonianSpec.quadratic(np.eye(2)),
                           [1.0, 2.0], 0.1, 1.0)
        assert record.mu[0].tolist() == [1.0] and record.nu[0].tolist() == [2.0]
        assert np.array_equal(record.states, np.tile([1.0, 2.0], (11, 1)))
        energy = legendre(np.eye(1), 2.0 * np.eye(1))
        assert np.array_equal(integrate_ep(line_pair, energy, (3.0, 4.0), 0.1, 1.0).states[-1],
                              [3.0, 8.0])
        record = integrate_ep(line_pair, energy, [3.0, 4.0], 0.1, 0.1)
        assert record.velocities[0].tolist() == [3.0, 4.0]
