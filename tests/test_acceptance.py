"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import json

import numpy as np
import pytest

from mpmech.cli import main
from mpmech.dynamics import HamiltonianSpec, LagrangianSpec, integrate, integrate_ep, legendre
from mpmech.lie_core import lie_poisson_bracket, poisson_tensor
from mpmech.matched_pair import (
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
from mpmech.sl2c import (
    builtin_pairs,
    iwasawa_factor,
    k_basis,
    sl2c_closed_forms,
    su2_basis,
)

from group_elements import (
    group_left_act,
    group_right_act,
    k_multiply,
    k_to_matrix,
    random_k_element,
    random_sl2c,
    random_su2,
)
from oracles import commutator_projection, semidirect_lp_rhs

P0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def report(number: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pairs():
    return builtin_pairs()


def test_criterion_01_matched_pair_validity(pairs):
    mp = pairs["sl2c_derived"]
    worst = max(c.value for c in validation_report(mp))  # both conditions and the double's Jacobi
    report(1, "derived pair compatibility and double Jacobi within 1e-12",
           worst <= 1e-12, f"max defect {worst:.3e}")


def test_criterion_02_oracle_equivalence(pairs):
    oracle = commutator_projection(su2_basis(), k_basis())
    C = pairs["sl2c_derived"].algebra.C
    dev = float(np.abs(C - oracle).max())
    report(2, "double constants equal matrix-commutator constants (216 entries)",
           C.size == 216 and dev <= 1e-12, f"max entry deviation {dev:.3e}")


def test_criterion_03_pairing_identities(pairs):
    mp = pairs["sl2c_derived"]
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(1000):
        eta, xi, mu, nu = rng.standard_normal((4, 3))
        scale = 1.0 + max(np.abs(v).max() for v in (eta, xi, mu, nu))
        errs = (
            abs(co_left_act(mp, mu, eta) @ xi - mu @ left_act(mp, eta, xi)),
            abs(b_star(mp, xi, mu) @ eta - mu @ left_act(mp, eta, xi)),
            abs(a_star(mp, eta, nu) @ xi - nu @ right_act(mp, eta, xi)),
            abs(co_right_act(mp, xi, nu) @ eta - nu @ right_act(mp, eta, xi)),
        )
        worst = max(worst, max(errs) / scale)
    report(3, "four dual-action pairing identities on 1000 samples",
           worst <= 1e-13, f"max scaled violation {worst:.3e}")


def test_criterion_04_bracket_antisymmetry(pairs):
    alg = pairs["sl2c_derived"].algebra
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        z, gh, gf = rng.standard_normal((3, 6))
        scale = 1.0 + max(np.abs(v).max() for v in (z, gh, gf))
        swap = lie_poisson_bracket(alg, z, gh, gf) + lie_poisson_bracket(alg, z, gf, gh)
        self_bracket = lie_poisson_bracket(alg, z, gh, gh)
        worst = max(worst, abs(swap) / scale, abs(self_bracket) / scale)
    report(4, "bracket antisymmetry and {H,H}=0 on 1000 samples",
           worst <= 1e-13, f"max scaled violation {worst:.3e}")


def test_criterion_05_energy_conservation(pairs):
    double = pairs["sl2c_derived"]
    spec = HamiltonianSpec.quadratic(np.eye(6))
    record = integrate(double, spec, P0, 1e-3, 10.0)
    drift = record.drift["H"]
    report(5, "energy drift <= 1e-8 over t in [0, 10] at dt = 1e-3",
           drift <= 1e-8, f"relative drift {drift:.3e}")


def test_criterion_06_casimirs_and_semidirect(pairs):
    mp = pairs["e3_heavytop"]
    double = mp
    Q = np.zeros((6, 6))
    Q[:3, :3] = np.eye(3)
    b = np.zeros(6)
    b[5] = 1.0
    spec = HamiltonianSpec.quadratic(Q, b)
    record = integrate(double, spec, P0, 1e-3, 10.0, invariants={
        "nu_norm2": lambda mu, nu: float(nu @ nu),
        "mu_dot_nu": lambda mu, nu: float(mu @ nu),
    })
    casimir_drift = max(record.drift["nu_norm2"], record.drift["mu_dot_nu"])

    rep = -mp.sigma.transpose(0, 2, 1)
    rng = np.random.default_rng(60)
    rhs_dev = 0.0
    for _ in range(1000):
        mu, nu, x, y = rng.standard_normal((4, 3))
        ours = matched_lp_rhs(double, np.concatenate([mu, nu]), np.concatenate([x, y]))
        mu_dot, nu_dot = semidirect_lp_rhs(mp.g.C, rep, mu, nu, x, y)
        rhs_dev = max(rhs_dev, float(np.abs(ours[:3] - mu_dot).max()),
                      float(np.abs(ours[3:] - nu_dot).max()))
    report(6, "e(3) Casimir drift <= 1e-8 and semidirect RHS agreement <= 1e-12",
           casimir_drift <= 1e-8 and rhs_dev <= 1e-12,
           f"drift {casimir_drift:.3e}, rhs deviation {rhs_dev:.3e}")


def test_criterion_07_euler_poincare_legendre(pairs):
    mp = pairs["sl2c_derived"]
    lag = LagrangianSpec(np.eye(3), np.eye(3))
    ep = integrate_ep(mp, legendre(lag), P0, 1e-3, 10.0)
    lp = integrate(mp, legendre(lag), P0, 1e-3, 10.0, "left")
    dev = float(np.abs(ep.states - lp.states).max())
    report(7, "EP trajectory equals left Lie-Poisson trajectory of Legendre H",
           dev <= 1e-9, f"max pointwise deviation {dev:.3e}")


def test_criterion_08_poisson_rank(pairs):
    C = pairs["sl2c_derived"].algebra.C
    rng = np.random.default_rng(80)
    ok = True
    min_kernel = 6
    for _ in range(100):
        sv = np.linalg.svd(poisson_tensor(C, rng.standard_normal(6)), compute_uv=False)
        norm = sv[0] if sv[0] > 0 else 1.0
        kernel = int(np.sum(sv <= 1e-10 * norm))
        min_kernel = min(min_kernel, kernel)
        ok = ok and kernel >= 2
    report(8, "Poisson tensor keeps >= 2 Casimir directions at 100 points",
           ok, f"min kernel dimension {min_kernel}")


def test_criterion_09_group_level():
    rng = np.random.default_rng(90)
    recon = 0.0
    laws = 0.0
    homo = 0.0
    identity = np.eye(2, dtype=complex)
    k_identity = np.zeros(3)

    for _ in range(1000):
        M = random_sl2c(rng)
        A, B = iwasawa_factor(M)
        recon = max(recon, float(np.abs(A @ k_to_matrix(B) - M).max()))

        h, h2 = random_k_element(rng), random_k_element(rng)
        g, g2 = random_su2(rng), random_su2(rng)

        # law 1: h |> (g1 g2) = (h |> g1) ((h <| g1) |> g2)
        lhs = group_left_act(h, g @ g2)
        rhs = (group_left_act(h, g)
               @ group_left_act(group_right_act(h, g), g2))
        laws = max(laws, float(np.abs(lhs - rhs).max()))

        # law 2: (h1 h2) |> g = h1 |> (h2 |> g)
        lhs = group_left_act(k_multiply(h, h2), g)
        rhs = group_left_act(h, group_left_act(h2, g))
        laws = max(laws, float(np.abs(lhs - rhs).max()))

        # law 3: (h1 h2) <| g = (h1 <| (h2 |> g)) * (h2 <| g)
        lhs = group_right_act(k_multiply(h, h2), g)
        rhs = k_multiply(group_right_act(h, group_left_act(h2, g)), group_right_act(h2, g))
        laws = max(laws, float(np.abs(lhs - rhs).max()))

        # law 4: h |> e_G = e_G
        laws = max(laws, float(np.abs(group_left_act(h, identity)
                                      - np.eye(2)).max()))
        # law 5: e_H <| g = e_H
        laws = max(laws, float(np.abs(group_right_act(k_identity, g)).max()))

        homo = max(homo, float(np.abs(
            k_to_matrix(k_multiply(h, h2))
            - k_to_matrix(h) @ k_to_matrix(h2)).max()))

    report(9, "Iwasawa reconstruction, five group laws, K homomorphism",
           recon <= 1e-12 and laws <= 1e-10 and homo <= 1e-12,
           f"reconstruction {recon:.3e}, laws {laws:.3e}, homomorphism {homo:.3e}")


def test_criterion_10_audit_reproducibility(pairs):
    kwargs = dict(samples=1000, seed=0, closed_forms=sl2c_closed_forms())
    report_a = audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], **kwargs)
    report_b = audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], **kwargs)

    expected_mismatch = ("action <|", "dual *<|", "dual b*",
                         "plus-sign rhs energy rate")
    expected_match = ("action |>", "dual *|>", "dual a*")
    ok = all(report_a.line(n).status == "MISMATCH" for n in expected_mismatch)
    ok = ok and all(report_a.line(n).status == "MATCH" for n in expected_match)
    detail_line = report_a.line("action <|").detail or ""
    ok = ok and "(f3, e1, e2)" in detail_line and "4" in detail_line
    ok = ok and report_a.to_json_dict() == report_b.to_json_dict()
    report(10, "audit statuses, condition-1 witness, and determinism",
           ok, detail_line)


def test_criterion_11_rk4_order(pairs):
    double = pairs["sl2c_derived"]
    spec = HamiltonianSpec.quadratic(np.eye(6))
    dt, t_end = 0.05, 5.0

    def endpoint(step):
        return integrate(double, spec, P0, step, t_end).states[-1]

    reference = endpoint(dt / 16.0)
    err_coarse = float(np.abs(endpoint(dt) - reference).max())
    err_fine = float(np.abs(endpoint(dt / 2.0) - reference).max())
    ratio = err_coarse / err_fine
    report(11, "halving dt reduces endpoint error by a factor in [12, 20]",
           12.0 <= ratio <= 20.0, f"ratio {ratio:.2f}")


def test_criterion_12_cli_contract(tmp_path, pairs):
    from mpmech import formats

    valid = tmp_path / "valid.json"
    formats.dump_pair_document(pairs["sl2c_derived"], str(valid))
    broken = tmp_path / "broken.json"
    broken.write_text('{"g": {"dim": 3, "C"')

    codes = (
        main(["check", str(valid)]),
        main(["check", "sl2c_printed"]),
        main(["check", str(broken)]),
    )

    argv = ["simulate", "--pair", "sl2c_derived",
            "--hamiltonian", "quadratic_identity",
            "--initial", "1,0,0,0,1,0", "--dt", "0.001", "--t-end", "1",
            "--invariants", "nu_norm2", "--seed", "7"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    same_csv = open(a + ".csv", "rb").read() == open(b + ".csv", "rb").read()
    sa = json.load(open(a + ".summary.json"))
    sb = json.load(open(b + ".summary.json"))
    sa.pop("wall_time_s")
    sb.pop("wall_time_s")

    ok = codes == (0, 1, 2) and same_csv and sa == sb
    report(12, "CLI exit codes 0/1/2 and byte-identical outputs under a fixed seed",
           ok, f"exit codes {codes}")
