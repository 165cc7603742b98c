"""One gate per input of a flow: the ``HamiltonianSpec`` constructor checks the
Hamiltonian, ``integrate`` and ``integrate_ep`` check the initial state, and the
command line hands both over without checks of its own."""

import json

import numpy as np
import pytest

from helpers import count_calls, simulate_args
from mpmech import cli, dynamics
from mpmech.dynamics import HamiltonianSpec, gradient, integrate, integrate_ep
from mpmech.errors import DimensionMismatch, InputError, IntegrationError

NON_FINITE = [np.nan, np.inf, -np.inf]


class TestConstructor:
    def test_a_non_callable_black_box(self):
        with pytest.raises(InputError, match="^a black box must be callable, got int$"):
            HamiltonianSpec(6, None, None, 5)

    def test_a_quadratic_form_of_the_wrong_size(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^quadratic form has shape \(5, 5\), expected \(6, 6\)$"):
            HamiltonianSpec(6, np.eye(5), None, None)

    def test_a_linear_term_alone_is_a_missing_quadratic_form(self):
        with pytest.raises(InputError, match=r"^quadratic form must be square, got shape \(\)$"):
            HamiltonianSpec(6, None, np.zeros(6), None)

    @pytest.mark.parametrize("Q, b", [(np.eye(6), None), (None, np.zeros(6)),
                                      (np.eye(6), np.zeros(6))], ids=["Q", "b", "Q and b"])
    def test_a_quadratic_form_and_a_black_box_do_not_mix(self, Q, b):
        with pytest.raises(InputError, match="^a Hamiltonian is a quadratic form or a black box, "
                                             "not both$"):
            HamiltonianSpec(6, Q, b, lambda z: 0.0)

    def test_builds_what_the_factories_build(self):
        Q = np.array([[2.0, 0.3], [0.3 + 1e-13, 1.0]])
        spec = HamiltonianSpec(2, Q, [1.0, 2.0], None)
        made = HamiltonianSpec.quadratic(Q, [1.0, 2.0])
        assert spec.dim == made.dim == 2 and spec.f is None
        assert spec.Q.tobytes() == made.Q.tobytes() and spec.b.tobytes() == made.b.tobytes()
        assert not spec.Q.flags.writeable and not spec.b.flags.writeable
        f = np.linalg.norm
        box = HamiltonianSpec(np.int64(3), None, None, f)
        assert type(box.dim) is int and box.dim == 3 and box.f is f and box.Q is box.b is None


class TestGradient:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("spec", [HamiltonianSpec.blackbox(lambda z: 1.0, 6),
                                      HamiltonianSpec.quadratic(np.eye(6))],
                             ids=["box", "quadratic"])
    def test_a_non_finite_state_is_an_input_error(self, spec, bad):
        with pytest.raises(InputError, match="^non-finite entries in state$"):
            gradient(spec, [bad] * 6)

    def test_a_black_box_run_that_blows_up_ends_as_before(self, sl2c_derived):
        # a black box that stays finite off the float range: before gradient checked its
        # state, the run went on to the end of the block, whose scan raised this same
        # error; now the stage whose input left the float range ends the block early
        spec = HamiltonianSpec.blackbox(lambda z: 0.5 * float(z[5]) if np.isfinite(z).all()
                                        else 0.0, 6)
        with pytest.raises(IntegrationError, match="^state became non-finite at t=1426$") as err:
            integrate(sl2c_derived, spec, [1, 0.2, 0.1, 0.3, 1, 0.1], 2.0, 4000.0)
        assert err.value.last_good_time == 1424.0
        assert str(err.value.__context__) == "non-finite entries in state"


class TestInitialState:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("spec", [HamiltonianSpec.quadratic(np.eye(6)),
                                      HamiltonianSpec.blackbox(lambda z: 0.5 * float(z @ z), 6)],
                             ids=["quadratic", "box"])
    def test_integrate_rejects_a_non_finite_dual_point_before_any_step(
            self, spec, bad, sl2c_derived, monkeypatch):
        steps = count_calls(monkeypatch, dynamics, "_run_rk4")
        with pytest.raises(InputError, match="^non-finite entries in dual point$"):
            integrate(sl2c_derived, spec, [bad, 0, 0, 0, 1, 0], 0.01, 0.1)
        assert steps == []

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_integrate_ep_names_the_velocities(self, bad, sl2c_derived, monkeypatch):
        steps = count_calls(monkeypatch, dynamics, "_run_rk4")
        with pytest.raises(InputError, match="^non-finite entries in initial velocities$"):
            integrate_ep(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)), [1, 0, bad, 0, 1, 0],
                         0.01, 0.1)
        assert steps == []

    def test_parse_initial_only_parses(self):
        z = cli.parse_initial("1; nan, 1e999,")
        assert z.shape == (3,) and z[0] == 1.0 and np.isnan(z[1]) and z[2] == np.inf


class TestMonitor:
    def test_black_box_series_is_f_of_each_row_without_value(self, sl2c_derived, monkeypatch):
        def f(mu, nu):
            return float(np.sin(mu @ nu) + mu[0] * nu[2] ** 3)
        values = count_calls(monkeypatch, HamiltonianSpec, "value")
        record = integrate(sl2c_derived, HamiltonianSpec.quadratic(np.diag([1.0, 2, 3, 1, 2, 3])),
                           [1, 0.2, 0, 0.3, 1, 0.1], 0.01, 1.0, invariants={"box": f})
        expected = np.array([f(z[:3], z[3:]) for z in record.states])
        assert record.invariants["box"].tobytes() == expected.tobytes()
        assert values == []


class TestCommandLine:
    @pytest.mark.parametrize("initial, mode, message", [
        ("nan,0,0,0,1,0", "lp", "non-finite entries in dual point"),
        ("1e999,0,0,0,1,0", "lp", "non-finite entries in dual point"),
        ("inf,0,0,0,1,0", "ep", "non-finite entries in initial velocities"),
        ("1,0,0,0,1", "lp", "dual point has shape (5,), expected (6,)"),
        ("1,0,0,0,1", "ep", "initial velocities has shape (5,), expected (6,)"),
    ])
    def test_a_rejected_initial_state_is_the_flows_message(self, initial, mode, message,
                                                           tmp_path, capsys):
        argv = simulate_args(str(tmp_path / "run"), **{"--initial": initial, "--mode": mode})
        assert (cli.main(argv), capsys.readouterr().err) == (2, f"input error: {message}\n")
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"Q": [[1.0, 0.0], [0.0]]}, "quadratic form is not a numeric array: "),
        ({"Q": np.eye(6).tolist(), "b": [1.0, [2.0]]}, "linear term is not a numeric array: "),
    ], ids=["ragged Q", "ragged b"])
    def test_a_hamiltonian_document_reaches_the_constructor_unconverted(self, doc, message,
                                                                        tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        assert cli.main(simulate_args(str(tmp_path / "run"), **{"--hamiltonian": str(path)})) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")
