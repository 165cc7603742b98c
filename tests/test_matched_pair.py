import numpy as np
import pytest

from mpmech.errors import DimensionMismatch, ValidationError
from mpmech.lie_core import coadjoint, lie_poisson_bracket, poisson_tensor
from mpmech.matched_pair import (
    MatchedPair,
    a_star,
    audit_formulas,
    b_star,
    co_left_act,
    co_right_act,
    left_act,
    matched_lp_rhs,
    right_act,
    validation_report,
)
from mpmech.dynamics import integrate_ep, legendre
from mpmech.sl2c import k_algebra, sl2c_closed_forms, su2_algebra

from helpers import exact_closed_forms
from oracles import semidirect_lp_rhs

E = np.eye(3)
E6 = np.eye(6)


def euler_poincare_field(mp, metrics, xi, eta):
    """The Euler-Poincare momentum rate at velocities (xi, eta) of the metric blocks
    ``metrics = (M_g, M_h)``, integrate_ep's field: minus the double's coadjoint at
    (M_g xi, M_h eta) with gradient (xi, eta)."""
    metric_g, metric_h = metrics
    z = np.concatenate([metric_g @ xi, metric_h @ eta])
    return -coadjoint(mp.algebra.C, z, np.concatenate([xi, eta]))


def direct_product():
    return MatchedPair(su2_algebra(), k_algebra(),
                       np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))


class TestActions:
    # expected values frozen from 2x2 matrix-commutator projections
    def test_left_action_examples(self, sl2c_derived):
        assert np.allclose(left_act(sl2c_derived, E[2], E[0]), E[0], atol=1e-12)
        assert np.allclose(left_act(sl2c_derived, E[0], E[2]), 0.0, atol=1e-12)

    def test_left_action_bilinear_in_zero(self, sl2c_derived, rng):
        xi = rng.standard_normal(3)
        assert np.abs(left_act(sl2c_derived, np.zeros(3), xi)).max() == 0.0

    def test_right_action_examples(self, sl2c_derived):
        assert np.allclose(right_act(sl2c_derived, E[2], E[0]), E[1], atol=1e-12)
        assert np.allclose(right_act(sl2c_derived, E[0], E[0]), 0.0, atol=1e-12)

    def test_right_action_on_zero(self, sl2c_derived, rng):
        eta = rng.standard_normal(3)
        assert np.abs(right_act(sl2c_derived, eta, np.zeros(3))).max() == 0.0

    def test_shape_mismatch(self, sl2c_derived):
        with pytest.raises(DimensionMismatch):
            left_act(sl2c_derived, [1, 0], [1, 0, 0])


class TestDualActions:
    def test_co_left_example(self, sl2c_derived):
        # f2 |> e_i is zero or along e3, orthogonal to mu = e1
        out = co_left_act(sl2c_derived, E[0], E[1])
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_co_left_zero(self, sl2c_derived, rng):
        mu = rng.standard_normal(3)
        assert np.abs(co_left_act(sl2c_derived, mu, np.zeros(3))).max() == 0.0

    def test_a_star_examples(self, sl2c_derived, e3_heavytop):
        assert np.allclose(a_star(sl2c_derived, E[1], E[1]), 0.0, atol=1e-12)
        assert np.abs(a_star(sl2c_derived, E[1], np.zeros(3))).max() == 0.0
        # trivial-left-action pair: a*_Y nu = nu x Y
        assert np.allclose(a_star(e3_heavytop, E[2], E[1]), E[0], atol=1e-12)

    def test_co_right_examples(self, sl2c_derived, e3_heavytop):
        assert np.allclose(co_right_act(sl2c_derived, E[0], E[1]), E[2], atol=1e-12)
        assert np.abs(co_right_act(sl2c_derived, np.zeros(3), E[1])).max() == 0.0
        # trivial-left-action pair: xi *|> nu = xi x nu
        assert np.allclose(co_right_act(e3_heavytop, E[0], E[1]), E[2], atol=1e-12)

    def test_b_star_examples(self, sl2c_derived, e3_heavytop, rng):
        assert np.allclose(b_star(sl2c_derived, E[0], E[0]), E[2], atol=1e-12)
        assert np.abs(b_star(sl2c_derived, E[0], np.zeros(3))).max() == 0.0
        for _ in range(20):
            xi, mu = rng.standard_normal((2, 3))
            assert np.abs(b_star(e3_heavytop, xi, mu)).max() == 0.0

    @pytest.mark.parametrize("pair_name", ["sl2c_derived", "sl2c_printed", "e3_heavytop"])
    def test_pairing_identities(self, pairs, pair_name, rng):
        mp = pairs[pair_name]
        for _ in range(1000):
            eta = rng.standard_normal(3)
            xi = rng.standard_normal(3)
            mu = rng.standard_normal(3)
            nu = rng.standard_normal(3)
            scale = 1.0 + max(np.abs(v).max() for v in (eta, xi, mu, nu))
            tol = 1e-13 * scale
            assert abs(co_left_act(mp, mu, eta) @ xi - mu @ left_act(mp, eta, xi)) <= tol
            assert abs(b_star(mp, xi, mu) @ eta - mu @ left_act(mp, eta, xi)) <= tol
            assert abs(a_star(mp, eta, nu) @ xi - nu @ right_act(mp, eta, xi)) <= tol
            assert abs(co_right_act(mp, xi, nu) @ eta - nu @ right_act(mp, eta, xi)) <= tol


class TestCompatibility:
    def test_derived_pair_is_compatible(self, sl2c_derived, compatibility_defects):
        d1, d2 = compatibility_defects(sl2c_derived)
        assert d1 <= 1e-12
        assert d2 <= 1e-12

    def test_direct_product_is_exact(self, compatibility_defects):
        assert compatibility_defects(direct_product()) == (0.0, 0.0)

    def test_printed_pair_fails_condition_one(self, sl2c_printed):
        # hand evaluation of condition 1 at (f3, e1, e2) gives (0, 0, -4)
        report = {c.name: c for c in validation_report(sl2c_printed)}
        condition = report["compatibility condition 1"]
        assert condition.value >= 4.0 - 1e-12
        assert condition.witness == "(f3, e1, e2)"
        assert condition.value > report["compatibility condition 2"].value
        J = sl2c_printed.algebra.jacobiator
        assert np.allclose(J[:3, 3 + 2, 0, 1], [0.0, 0.0, -4.0], atol=1e-12)

    def test_validation_gate(self, sl2c_printed):
        with pytest.raises(ValidationError):
            MatchedPair(sl2c_printed.g, sl2c_printed.h,
                        sl2c_printed.rho, sl2c_printed.sigma)

    def test_matched_pair_theorem(self, sl2c_derived, e3_heavytop):
        # compatibility implies the double satisfies Jacobi
        for mp in (sl2c_derived, e3_heavytop):
            assert mp.algebra.jacobi_check("jacobi").value <= 1e-12


class TestDoubleAlgebra:
    def test_mixed_bracket_example(self, sl2c_derived):
        from mpmech.lie_core import bracket
        double = sl2c_derived
        e1 = np.concatenate([E[0], np.zeros(3)])
        f1 = np.concatenate([np.zeros(3), E[0]])
        out = bracket(double.algebra, e1, f1)
        expected = np.concatenate([E[2], np.zeros(3)])  # [e1, f1] = e3
        assert np.allclose(out, expected, atol=1e-12)

    def test_trivial_actions_give_block_diagonal(self):
        double = direct_product()
        C = double.algebra.C
        n = 3
        assert np.abs(C[:n, n:, :n]).max() == 0.0
        assert np.abs(C[n:, n:, :n]).max() == 0.0
        assert np.abs(C[:n, :n, n:]).max() == 0.0
        assert np.abs(C[n:, :n, n:]).max() == 0.0
        assert np.array_equal(C[:n, :n, :n], su2_algebra().C)
        assert np.array_equal(C[n:, n:, n:], k_algebra().C)

    def test_block_extraction_round_trip(self, sl2c_derived):
        double = sl2c_derived
        C = double.algebra.C
        n = 3
        assert np.array_equal(C[:n, :n, :n], sl2c_derived.g.C)
        assert np.array_equal(C[n:, n:, n:], sl2c_derived.h.C)
        assert np.array_equal(C[:n, n:, :n], sl2c_derived.rho)
        assert np.array_equal(C[n:, n:, :n], sl2c_derived.sigma)

    def test_double_jacobi(self, sl2c_derived):
        assert sl2c_derived.algebra.jacobi_check("jacobi").value <= 1e-12


class TestCobracket:
    def test_zero_point(self, sl2c_derived):
        double = sl2c_derived
        M = poisson_tensor(double.algebra.C, np.zeros(6))
        assert np.abs(M).max() == 0.0

    def test_antisymmetric(self, sl2c_derived, rng):
        double = sl2c_derived
        for _ in range(100):
            M = poisson_tensor(double.algebra.C, rng.standard_normal(6))
            assert np.allclose(M, -M.T, atol=0)

    def test_entry_example(self, sl2c_derived):
        double = sl2c_derived
        M = poisson_tensor(double.algebra.C, E6[2])
        assert M[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_kernel_has_two_casimir_directions(self, sl2c_derived, rng):
        double = sl2c_derived
        for _ in range(100):
            M = poisson_tensor(double.algebra.C, rng.standard_normal(6))
            sv = np.linalg.svd(M, compute_uv=False)
            norm = sv[0] if sv[0] > 0 else 1.0
            assert np.sum(sv <= 1e-10 * norm) >= 2


class TestMatchedBracket:
    def test_self_bracket_vanishes(self, sl2c_derived, rng):
        alg = sl2c_derived.algebra
        for _ in range(100):
            z, grad = rng.standard_normal((2, 6))
            assert lie_poisson_bracket(alg, z, grad, grad) == 0.0

    def test_antisymmetry(self, sl2c_derived, rng):
        alg = sl2c_derived.algebra
        for _ in range(200):
            z, gh, gf = rng.standard_normal((3, 6))
            scale = 1.0 + max(np.abs(v).max() for v in (gh, gf, z))
            total = lie_poisson_bracket(alg, z, gh, gf) + lie_poisson_bracket(alg, z, gf, gh)
            assert abs(total) <= 1e-13 * scale

    def test_g_block_term(self, sl2c_derived, rng):
        alg = sl2c_derived.algebra
        for _ in range(20):
            z = rng.standard_normal(6)
            val = lie_poisson_bracket(alg, z, E6[0], E6[1])
            assert val == pytest.approx(z[2], abs=1e-12)

    def test_mixed_term(self, sl2c_derived):
        # only <nu, f2 <| e1> survives; f2 <| e1 = f2 x e1 = -f3
        val = lie_poisson_bracket(sl2c_derived.algebra, E6[5], E6[0], E6[4])
        assert val == pytest.approx(1.0, abs=1e-12)


class TestMatchedRhs:
    def test_zero_point(self, sl2c_derived):
        double = sl2c_derived
        rhs = matched_lp_rhs(double, np.concatenate([np.zeros(3), np.zeros(3)]),
                             np.concatenate([np.ones(3), np.ones(3)]))
        assert np.abs(rhs).max() == 0.0

    def test_isotropic_quadratic_flow(self, sl2c_derived):
        double = sl2c_derived
        mu, nu = E[0], E[1]
        rhs = matched_lp_rhs(double, np.concatenate([mu, nu]), np.concatenate([mu, nu]))
        assert np.allclose(rhs[:3], 0.0, atol=1e-12)
        assert np.allclose(rhs[3:], E[2], atol=1e-12)
        assert abs(rhs[:3] @ mu + rhs[3:] @ nu) <= 1e-12

    def test_heavy_top_point(self, e3_heavytop):
        double = e3_heavytop
        mu, nu = E[0], E[1]
        grad = (mu.copy(), E[2])  # H = |mu|^2 / 2 + nu_3
        rhs = matched_lp_rhs(double, np.concatenate([mu, nu]), np.concatenate(grad))
        assert np.allclose(rhs[:3], [-1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(rhs[3:], [0.0, 0.0, 1.0], atol=1e-12)
        # conservation of energy and both Casimir derivatives at this point
        assert abs(rhs[:3] @ grad[0] + rhs[3:] @ grad[1]) <= 1e-12
        assert abs(rhs[:3] @ nu + rhs[3:] @ mu) <= 1e-12
        assert abs(2.0 * (rhs[3:] @ nu)) <= 1e-12

    def test_left_is_negated_right(self, sl2c_derived, e3_heavytop, rng):
        for mp in (sl2c_derived, e3_heavytop):
            double = mp
            for _ in range(50):
                z, grad = rng.standard_normal((2, 6))
                right = matched_lp_rhs(double, z, grad, "right")
                left = matched_lp_rhs(double, z, grad, "left")
                assert np.array_equal(left, -right)
                assert np.array_equal(matched_lp_rhs(double, z, grad), right)

    def test_energy_rate_vanishes_pointwise(self, sl2c_derived, rng):
        double = sl2c_derived
        for _ in range(200):
            z = rng.standard_normal(6)
            x, y = rng.standard_normal((2, 3))
            scale = 1.0 + max(np.abs(v).max() for v in (z, x, y))
            rhs = matched_lp_rhs(double, z, np.concatenate([x, y]))
            assert abs(rhs[:3] @ x + rhs[3:] @ y) <= 1e-12 * scale

    def test_flow_derivative_matches_bracket(self, sl2c_derived, rng):
        double = sl2c_derived
        for _ in range(100):
            z, gh, gf = rng.standard_normal((3, 6))
            rhs = matched_lp_rhs(double, z, gh)
            dF = rhs[:3] @ gf[:3] + rhs[3:] @ gf[3:]
            scale = 1.0 + max(np.abs(v).max() for v in (z, gh, gf))
            assert abs(dF - lie_poisson_bracket(double.algebra, z, gf, gh)) <= 1e-12 * scale

    def test_unvalidated_double_rejected(self, sl2c_printed):
        double = sl2c_printed
        with pytest.raises(ValidationError):
            matched_lp_rhs(double, np.concatenate([E[0], E[1]]), np.concatenate([E[0], E[1]]))


class TestEulerPoincare:
    def test_zero_state(self, sl2c_derived):
        metrics = (np.eye(3), np.eye(3))
        p_dot = euler_poincare_field(sl2c_derived, metrics, np.zeros(3), np.zeros(3))
        assert np.abs(p_dot).max() == 0.0
        record = integrate_ep(sl2c_derived, legendre(*metrics), np.zeros(6), 0.1, 0.1)
        assert np.abs(record.velocities).max() == 0.0

    def test_identity_metric_example(self, sl2c_derived):
        metrics = (np.eye(3), np.eye(3))
        p_dot = euler_poincare_field(sl2c_derived, metrics, E[0], E[1])
        assert np.allclose(p_dot[:3], 0.0, atol=1e-12)
        assert np.allclose(p_dot[3:], [0.0, 0.0, -1.0], atol=1e-12)

    def test_energy_rate_vanishes(self, sl2c_derived, rng):
        metrics = (np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 1.0, 0.5]))
        for _ in range(200):
            xi, eta = rng.standard_normal((2, 3))
            scale = 1.0 + max(np.abs(xi).max(), np.abs(eta).max())
            p_dot = euler_poincare_field(sl2c_derived, metrics, xi, eta)
            assert abs(p_dot[:3] @ xi + p_dot[3:] @ eta) <= 1e-12 * scale ** 2

    def test_negates_right_rhs_for_identity_metric(self, sl2c_derived, rng):
        metrics = (np.eye(3), np.eye(3))
        double = sl2c_derived
        for _ in range(100):
            xi, eta = rng.standard_normal((2, 3))
            p_dot = euler_poincare_field(sl2c_derived, metrics, xi, eta)
            rhs = matched_lp_rhs(double, np.concatenate([xi, eta]), np.concatenate([xi, eta]), "right")
            assert np.allclose(p_dot, -rhs, atol=1e-13)


class TestSemidirectDegeneration:
    def test_matches_independent_semidirect_rhs(self, e3_heavytop, rng):
        double = e3_heavytop
        Cg = e3_heavytop.g.C
        # representation of g on the abelian factor: xi . v = -(v <| xi)
        rep = -e3_heavytop.sigma.transpose(0, 2, 1)
        for _ in range(1000):
            mu, nu, x, y = rng.standard_normal((4, 3))
            rhs = matched_lp_rhs(double, np.concatenate([mu, nu]), np.concatenate([x, y]))
            mu_dot, nu_dot = semidirect_lp_rhs(Cg, rep, mu, nu, x, y)
            assert np.abs(rhs[:3] - mu_dot).max() <= 1e-12
            assert np.abs(rhs[3:] - nu_dot).max() <= 1e-12


class TestAudit:
    def test_self_comparison_matches_but_the_plus_sign_rows(self, sl2c_derived):
        # exact closed forms of a pair against itself; the plus-sign field is another field
        report = audit_formulas(sl2c_derived, sl2c_derived,
                                exact_closed_forms(sl2c_derived, sl2c_derived), samples=100, seed=3)
        assert {line.name for line in report.lines if line.status != "MATCH"} == {
            "plus-sign rhs vs canonical", "plus-sign rhs energy rate"}

    def test_sl2c_statuses(self, sl2c_derived, sl2c_printed):
        report = audit_formulas(sl2c_derived, sl2c_printed, samples=300, seed=0,
                                closed_forms=sl2c_closed_forms())
        expected = {
            "action |>": "MATCH",
            "action <|": "MISMATCH",
            "dual *<|": "MISMATCH",
            "dual *|>": "MATCH",
            "dual a*": "MATCH",
            "dual b*": "MISMATCH",
            "closed-form rhs (mu)": "MISMATCH",
            "closed-form rhs (nu)": "MISMATCH",
            "canonical rhs energy rate": "MATCH",
            "plus-sign rhs vs canonical": "MISMATCH",
            "plus-sign rhs energy rate": "MISMATCH",
        }
        for name, status in expected.items():
            assert report.line(name).status == status, name

    def test_mismatch_detail_carries_witness(self, sl2c_derived, sl2c_printed):
        report = audit_formulas(sl2c_derived, sl2c_printed, samples=50, seed=0,
                                closed_forms=sl2c_closed_forms())
        line = report.line("action <|")
        assert "(f3, e1, e2)" in line.detail
        assert "4" in line.detail

    def test_deterministic_under_seed(self, sl2c_derived, sl2c_printed):
        kwargs = dict(samples=120, seed=7, closed_forms=sl2c_closed_forms())
        a = audit_formulas(sl2c_derived, sl2c_printed, **kwargs)
        b = audit_formulas(sl2c_derived, sl2c_printed, **kwargs)
        assert a.to_json_dict() == b.to_json_dict()

    def test_text_rendering(self, sl2c_derived, sl2c_printed):
        report = audit_formulas(sl2c_derived, sl2c_printed, samples=50, seed=0,
                                closed_forms=sl2c_closed_forms())
        text = report.to_text()
        assert "MATCH" in text and "MISMATCH" in text
