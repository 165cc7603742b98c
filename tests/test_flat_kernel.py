"""The shared Lie-Poisson RK4 kernel, the vectorized monitor and CSV writer,
and the inputs the CLI must reject as malformed (exit 2)."""

import json

import numpy as np
import pytest

from mpmech import formats
from mpmech.cli import BUILTIN_INVARIANTS, builtin_hamiltonian, main
from mpmech.dynamics import (
    HamiltonianSpec,
    LagrangianSpec,
    TrajectoryRecord,
    _invariant_specs,
    _monitor,
    integrate,
    integrate_ep,
    legendre,
)
from mpmech.errors import InputError
from mpmech.lie_core import LieAlgebra

from helpers import corrupted_su2, simulate_args
from oracles import csv_reference, euler_poincare_five_term, monitor_per_spec

P0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def rk4_euler_poincare(mp, lag, state0, dt, steps):
    """Plain RK4 on the five-term component form of the Euler-Poincare field,
    in momenta; it shares no code with the double or ``coadjoint``."""
    n = mp.g.dim
    inv_g = np.linalg.inv(lag.metric_g)
    inv_h = np.linalg.inv(lag.metric_h)

    def f(z):
        return np.concatenate(euler_poincare_five_term(
            mp.g.C, mp.h.C, mp.rho, mp.sigma, lag.metric_g, lag.metric_h,
            inv_g @ z[:n], inv_h @ z[n:]))

    z = np.concatenate([lag.metric_g @ state0[:n], lag.metric_h @ state0[n:]])
    states = [z]
    for _ in range(steps):
        k1 = f(z)
        k2 = f(z + 0.5 * dt * k1)
        k3 = f(z + 0.5 * dt * k2)
        k4 = f(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(z)
    return np.array(states)


class TestEpAgainstComponentForm:
    @pytest.mark.parametrize("metrics", [
        (np.eye(3), np.eye(3)),
        (np.diag([1.0, 2.0, 3.0]), np.array([[2.0, 0.5, 0.0],
                                              [0.5, 1.5, 0.2],
                                              [0.0, 0.2, 1.0]])),
    ], ids=["identity", "non_identity"])
    def test_matches_independent_rk4(self, sl2c_derived, metrics):
        lag = LagrangianSpec(*metrics)
        dt, steps = 1e-3, 10_000
        rec = integrate_ep(sl2c_derived, legendre(lag), P0, dt, steps * dt)
        ref = rk4_euler_poincare(sl2c_derived, lag, P0, dt, steps)
        assert rec.states.shape == ref.shape
        assert np.abs(rec.states - ref).max() <= 1e-9


class TestCsvWriter:
    def test_byte_identical_to_per_cell_reference(self, tmp_path, rng):
        rows = 2 * formats.CSV_BLOCK_ROWS + 37
        states = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-300, 300, (rows, 6))
        states[5, 0] = -0.0
        states[6, 1] = 5e-324
        states[7, 2] = 1e308
        states[8, 3] = -1e308
        invariants = {"H": rng.standard_normal(rows),
                      "nu_norm2": rng.standard_normal(rows),
                      "mu_dot_nu": np.full(rows, -0.0)}
        invariants["H"][9] = 5e-324
        rec = TrajectoryRecord(0.1 * np.arange(rows), states, (3, 3), invariants, {})
        path = tmp_path / "traj.csv"
        formats.trajectory_to_csv(rec, str(path))
        assert path.read_bytes() == csv_reference(rec).encode("utf-8")


class TestVectorizedMonitor:
    def test_quadratic_h_matches_value(self, rng):
        A = rng.standard_normal((6, 6))
        spec = HamiltonianSpec.quadratic(A @ A.T + np.eye(6))
        states = rng.standard_normal((2000, 6))
        series, _ = _monitor(states, {"H": spec})
        ref = np.array([spec.value(z) for z in states])
        assert np.all(np.abs(series["H"] - ref) <= 1e-15 * np.abs(ref))

    @pytest.mark.parametrize("rows", [1, 2, 257])
    @pytest.mark.parametrize("pair", ["sl2c_derived", "e3_heavytop"])
    def test_stacked_pass_has_the_per_spec_bits(self, pairs, pair, rows, rng):
        A = rng.standard_normal((6, 6))
        invariants = {"mu_norm2": BUILTIN_INVARIANTS["mu_norm2"](3, 3),
                      "box": HamiltonianSpec.blackbox(lambda z: float(z @ A @ z), 6),
                      "form": HamiltonianSpec.quadratic(A + A.T, rng.standard_normal(6)),
                      "call": lambda mu, nu: float(mu @ nu) ** 2,
                      "mu_dot_nu": BUILTIN_INVARIANTS["mu_dot_nu"](3, 3)}
        double, spec = pairs[pair], builtin_hamiltonian("heavy_top", 3, 3)
        rec = integrate(double, spec, [0.3, -0.5, 0.8, 0.1, 0.2, 0.9], 0.05,
                        0.05 * max(rows - 1, 1), invariants=invariants)
        states = rec.states[:rows]  # integrate's own rows: a strided view
        specs = _invariant_specs(double.split, spec, invariants)
        series, drift = _monitor(states, specs)
        ref_series, ref_drift = monitor_per_spec(states, specs)
        assert list(series) == list(ref_series) == ["H", *invariants]
        for name, ref in ref_series.items():
            assert series[name].tobytes() == ref.tobytes(), name
        assert np.array(list(drift.values())).tobytes() == np.array(list(ref_drift.values())).tobytes()
        assert all(type(value) is float for value in drift.values())

    def test_linear_term_along_trajectory(self, e3_heavytop):
        spec = builtin_hamiltonian("heavy_top", 3, 3)
        rec = integrate(e3_heavytop, spec,
                        [0.3, 1.0, 0.2, 0.1, 0.5, 0.8], 1e-3, 2.0)
        ref = np.array([spec.value(z) for z in rec.states])
        assert np.all(np.abs(rec.invariants["H"] - ref) <= 1e-15 * np.abs(ref))

    def test_blackbox_hamiltonian_integrates(self, sl2c_derived):
        double = sl2c_derived
        quad = HamiltonianSpec.quadratic(np.eye(6))
        box = HamiltonianSpec.blackbox(lambda z: 0.5 * float(z @ z), dim=6)
        exact = integrate(double, quad, P0, 1e-2, 1.0)
        approx = integrate(double, box, P0, 1e-2, 1.0,
                           invariants={"nu_norm2": lambda mu, nu: float(nu @ nu)})
        assert np.abs(approx.states - exact.states).max() <= 1e-8
        assert np.abs(approx.invariants["H"] - exact.invariants["H"]).max() <= 1e-8
        assert approx.drift["H"] <= 1e-8
        assert len(approx.invariants["nu_norm2"]) == 101


class TestGrid:
    def test_non_multiple_grid_rejected(self, sl2c_derived):
        double = sl2c_derived
        spec = HamiltonianSpec.quadratic(np.eye(6))
        with pytest.raises(InputError):
            integrate(double, spec, P0, 0.3, 1.0)

    def test_inexact_multiple_accepted(self, sl2c_derived):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        double = sl2c_derived
        rec = integrate(double, HamiltonianSpec.quadratic(np.eye(6)), P0, 0.1, 0.3)
        assert len(rec.times) == 4


class TestToleranceScale:
    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_bad_scale_rejected(self, monkeypatch, value):
        monkeypatch.setenv("MPM_TOLERANCE_SCALE", value)
        with pytest.raises(InputError):
            LieAlgebra(corrupted_su2())
        with pytest.raises(InputError):
            LieAlgebra(corrupted_su2(), validate=False).validate()
        assert main(["check", "sl2c_derived"]) == 2


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _zeros3():
    return [[[0.0] * 3] * 3] * 3


class TestMalformedInputExits2:
    @pytest.mark.parametrize("g_constants", [
        [[[0.0, 1.0], [0.0]], [[0.0]], [[0.0]]],
        [[["a", "b", "c"]] * 3] * 3,
        [[[{}, 0.0, 0.0]] * 3] * 3,
    ], ids=["ragged", "strings", "objects"])
    def test_tensor_document(self, tmp_path, g_constants):
        doc = {"g": {"dim": 3, "C": g_constants}, "h": {"dim": 3, "C": _zeros3()},
               "rho": _zeros3(), "sigma": _zeros3()}
        assert main(["check", _write(tmp_path, "pair.json", doc)]) == 2

    def test_ragged_action_tensor(self, tmp_path):
        doc = {"g": {"dim": 3, "C": _zeros3()}, "h": {"dim": 3, "C": _zeros3()},
               "rho": [[[0.0]], [[0.0, 1.0]]], "sigma": _zeros3()}
        assert main(["check", _write(tmp_path, "pair.json", doc)]) == 2

    @pytest.mark.parametrize("ham", [
        {"Q": [[1.0, 0.0], [0.0]]},
        {"Q": [["x"] * 6] * 6},
        {"Q": np.eye(6).tolist(), "b": [0.0, [1.0]]},
        {"Q": np.diag([1.0, 1.0, float("nan"), 1.0, 1.0, 1.0]).tolist()},
        {"Q": np.eye(6).tolist(), "b": [0.0, 0.0, float("inf"), 0.0, 0.0, 0.0]},
    ], ids=["ragged_Q", "string_Q", "ragged_b", "nan_Q", "inf_b"])
    def test_hamiltonian_file(self, tmp_path, ham):
        argv = simulate_args(str(tmp_path / "r"),
                             **{"--hamiltonian": _write(tmp_path, "h.json", ham)})
        assert main(argv) == 2

    @pytest.mark.parametrize("flags", [
        {"--t-end": "nan"}, {"--t-end": "inf"}, {"--t-end": "-inf"},
        {"--dt": "nan"}, {"--dt": "inf"},
        {"--dt": "0.3", "--t-end": "1"},
        {"--initial": "nan,0,0,0,1,0"}, {"--initial": "1,0,0,0,inf,0"},
        {"--mode": "ep", "--initial": "1,0,-inf,0,1,0"},
        {"--mode": "ep", "--hamiltonian": "rigid_body_123"},
    ], ids=lambda flags: " ".join(f"{k}={v}" for k, v in flags.items()))
    def test_simulate_flags(self, tmp_path, flags):
        assert main(simulate_args(str(tmp_path / "r"), **flags)) == 2

    @pytest.mark.parametrize("ham", [
        {"Q": np.eye(6).tolist(), "b": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]},
        {"Q": (np.eye(6) + 0.5 * np.eye(6, k=3) + 0.5 * np.eye(6, k=-3)).tolist()},
        {"Q": np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 1.0]).tolist()},
        {"Q": np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]).tolist()},
        {"Q": np.eye(5).tolist()},
        {"Q": np.diag([1e-320] * 6).tolist()},
    ], ids=["linear_term", "coupling", "singular_block", "indefinite_block", "5x5",
            "momenta_overflow"])
    def test_ep_hamiltonian_file(self, tmp_path, ham):
        argv = simulate_args(str(tmp_path / "r"), **{
            "--mode": "ep", "--hamiltonian": _write(tmp_path, "h.json", ham)})
        assert main(argv) == 2
        assert not (tmp_path / "r.csv").exists()


class TestSummary:
    @pytest.mark.parametrize("mode,convention,recorded", [
        ("lp", "right", "right"), ("lp", "left", "left"),
        ("ep", "right", "left"), ("ep", "left", "left"),
    ])
    def test_convention_records_the_integrated_flow(self, tmp_path, mode,
                                                    convention, recorded):
        prefix = str(tmp_path / "run")
        argv = simulate_args(prefix, **{"--mode": mode, "--convention": convention,
                                        "--t-end": "0.01"})
        assert main(argv) == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["convention"] == recorded
