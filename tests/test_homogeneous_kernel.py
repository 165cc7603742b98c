"""The homogeneous quadratic RK4 kernel behind ``simulate``, spec-valued
invariants and the quadratic built-in invariants, and the fixes that ride
along: ``mu_dot_nu`` on unequal dimensions, antisymmetrizing near the float
limit and the per-process built-in pairs."""

import json
import warnings

import numpy as np
import pytest

from mpmech import cli, sl2c
from mpmech.cli import BUILTIN_HAMILTONIANS, BUILTIN_INVARIANTS, main
from mpmech.dynamics import HamiltonianSpec, gradient, integrate
from mpmech.errors import DimensionMismatch, InputError
from mpmech.lie_core import LieAlgebra

from helpers import UNEQUAL_DOC, simulate_args

STEP_TOL = 1e-12
EP_Q = np.array([[1.0, 0.2, 0.0, 0.0, 0.0, 0.0],
                 [0.2, 2.0, 0.1, 0.0, 0.0, 0.0],
                 [0.0, 0.1, 3.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 1.5, 0.3, 0.0],
                 [0.0, 0.0, 0.0, 0.3, 2.5, 0.1],
                 [0.0, 0.0, 0.0, 0.0, 0.1, 0.7]])


def component_field(C, sign, grad):
    """z_dot_i = sign * sum_{k,j} C[k, i, j] z_k grad_j(z), row by row."""
    return lambda Z: sign * np.einsum("kij,rk,rj->ri", C, Z, grad(Z))


def rk4_rows(field, Z, dt):
    """One plain RK4 step from every row of Z."""
    k1 = field(Z)
    k2 = field(Z + 0.5 * dt * k1)
    k3 = field(Z + 0.5 * dt * k2)
    k4 = field(Z + dt * k3)
    return Z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def assert_rows_are_rk4_steps(states, field, dt):
    err = np.abs(rk4_rows(field, states[:-1], dt) - states[1:]).max()
    assert err <= STEP_TOL * (1.0 + np.abs(states).max())


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(prefix):
    with open(prefix + ".csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


class TestCsvRowsAreRk4Steps:
    @pytest.mark.parametrize("case", ["lp_identity", "lp_left", "ep_block_spd", "heavy_top"])
    def test_simulate_rows(self, tmp_path, pairs, case):
        pair, ham, sign, dt = "sl2c_derived", "quadratic_identity", 1.0, 0.01
        Q, b = np.eye(6), np.zeros(6)
        flags = {"--initial": "0.6,-0.3,0.5,0.2,0.4,-0.3", "--dt": str(dt), "--t-end": "5",
                 "--invariants": "mu_norm2,nu_norm2,mu_dot_nu"}
        if case == "lp_left":
            flags["--convention"] = "left"
            sign = -1.0
        elif case == "ep_block_spd":
            flags["--mode"] = "ep"
            ham, sign, Q = _write(tmp_path, "h.json", {"Q": EP_Q.tolist()}), -1.0, EP_Q
        elif case == "heavy_top":
            pair, ham = "e3_heavytop", "heavy_top"
            spec = BUILTIN_HAMILTONIANS["heavy_top"](3, 3)
            Q, b = spec.Q, spec.b
            flags["--initial"] = "0.3,-0.5,0.8,0.1,0.2,0.9"
        prefix = str(tmp_path / "run")
        argv = simulate_args(prefix, **{"--pair": pair, "--hamiltonian": ham, **flags})
        assert main(argv) == 0
        header, rows = _read_csv(prefix)
        assert rows.shape == (501, 11)
        Z = rows[:, 1:7]
        C = pairs[pair].algebra.C
        assert_rows_are_rk4_steps(Z, component_field(C, sign, lambda Z: Z @ Q + b), dt)
        H = 0.5 * np.einsum("ri,ij,rj->r", Z, Q, Z) + Z @ b
        assert np.abs(rows[:, 7] - H).max() <= 1e-14 * (1.0 + np.abs(H).max())

    def test_blackbox_rows(self, sl2c_derived):
        # the black-box path: central-difference gradient inside each stage
        double = sl2c_derived
        spec = HamiltonianSpec.blackbox(lambda z: 0.5 * float(z @ z) + 0.1 * z[5], dim=6)
        dt = 0.01
        rec = integrate(double, spec, [0.6, -0.3, 0.5, 0.2, 0.4, -0.3], dt, 1.0)

        def grad(Z):
            return np.array([gradient(spec, z) for z in Z])

        assert_rows_are_rk4_steps(rec.states, component_field(double.algebra.C, 1.0, grad), dt)
        ref = np.array([spec.value(z) for z in rec.states])
        assert np.array_equal(rec.invariants["H"], ref)

    def test_homogeneous_coordinate_stays_out(self, sl2c_derived):
        rec = integrate(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)),
                        [1.0, 0.0, 0.0, 0.0, 1.0, 0.0], 0.01, 1.0)
        assert rec.states.shape == (101, 6)
        assert rec.mu.shape == rec.nu.shape == (101, 3)


class TestQuadraticInvariants:
    def test_builtins_match_per_row_products(self, sl2c_derived):
        specs = {name: make(3, 3) for name, make in BUILTIN_INVARIANTS.items()}
        assert all(spec.is_quadratic for spec in specs.values())
        rec = integrate(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)),
                        [0.6, -0.3, 0.5, 0.7, 0.4, -0.3], 0.01, 10.0, invariants=specs)
        mu, nu = rec.mu, rec.nu
        refs = {"mu_norm2": [float(a @ a) for a in mu],
                "nu_norm2": [float(c @ c) for c in nu],
                "mu_dot_nu": [float(a @ c) for a, c in zip(mu, nu)]}
        # relative to sum |mu_i nu_i|, the scale of a dot product's rounding
        scales = {"mu_norm2": refs["mu_norm2"], "nu_norm2": refs["nu_norm2"],
                  "mu_dot_nu": np.abs(mu * nu).sum(axis=1)}
        for name, ref in refs.items():
            got = rec.invariants[name]
            assert np.all(np.abs(got - ref) <= 1e-15 * np.asarray(scales[name])), name

    def test_spec_invariant_through_python_api(self, sl2c_derived, rng):
        A = rng.standard_normal((6, 6))
        inv = HamiltonianSpec.quadratic(A + A.T, rng.standard_normal(6))
        rec = integrate(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)),
                        [0.6, -0.3, 0.5, 0.7, 0.4, -0.3], 0.01, 1.0,
                        invariants={"custom": inv,
                                    "box": HamiltonianSpec.blackbox(inv.value, 6),
                                    "call": lambda mu, nu: inv.value(np.concatenate([mu, nu]))})
        ref = np.array([inv.value(z) for z in rec.states])
        assert np.all(np.abs(rec.invariants["custom"] - ref) <= 1e-13 * (1.0 + np.abs(ref)))
        assert np.array_equal(rec.invariants["box"], ref)
        assert np.array_equal(rec.invariants["call"], ref)
        assert set(rec.drift) == {"H", "custom", "box", "call"}

    def test_bad_invariants_rejected(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        with pytest.raises(DimensionMismatch):
            integrate(double, spec, np.ones(6), 0.1, 1.0,
                      invariants={"small": HamiltonianSpec.quadratic(np.eye(5))})
        with pytest.raises(InputError):
            integrate(double, spec, np.ones(6), 0.1, 1.0, invariants={"H": spec})


class TestMuDotNuUnequalDimensions:
    def test_rejected_before_integrating(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("integrated"))
        prefix = str(tmp_path / "r")
        argv = simulate_args(prefix, **{"--pair": _write(tmp_path, "pair.json", UNEQUAL_DOC),
                                        "--initial": "1,2,3", "--invariants": "mu_dot_nu"})
        assert main(argv) == 2

    def test_norms_still_run(self, tmp_path):
        prefix = str(tmp_path / "r")
        argv = simulate_args(prefix, **{"--pair": _write(tmp_path, "pair.json", UNEQUAL_DOC),
                                        "--initial": "1,2,3", "--t-end": "0.01",
                                        "--invariants": "mu_norm2,nu_norm2"})
        assert main(argv) == 0
        header, rows = _read_csv(prefix)
        assert header[-2:] == ["mu_norm2", "nu_norm2"]
        assert np.allclose(rows[:, -2:], [1.0, 13.0], rtol=0, atol=1e-15)


class TestAntisymmetrizeNearFloatLimit:
    def test_no_overflow(self):
        C = np.zeros((2, 2, 2))
        C[0, 0, 1], C[0, 1, 0] = 1e308, -1e308
        C[1, 0, 1], C[1, 1, 0] = -1.5e308, 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alg = LieAlgebra(C, validate=False)
        assert np.all(np.isfinite(alg.C))
        assert np.array_equal(alg.C, C)


class TestBuiltinPairsOncePerProcess:
    def test_same_pairs_fresh_dict(self):
        first, second = sl2c.builtin_pairs(), sl2c.builtin_pairs()
        assert first is not second
        assert all(first[name] is second[name] for name in sl2c.BUILTIN_PAIRS)
        first.clear()
        assert list(sl2c.builtin_pairs()) == list(sl2c.BUILTIN_PAIRS)
