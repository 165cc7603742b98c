import csv
import json

import numpy as np
import pytest

from mpmech import formats
from mpmech.cli import BUILTIN_HAMILTONIANS, BUILTIN_INVARIANTS, main
from mpmech.dynamics import integrate
from mpmech.sl2c import builtin_pairs, derive_actions_from_embedding, standard_basis

from helpers import count_calls, simulate_args
from oracles import csv_reference


@pytest.fixture
def derived_doc(tmp_path):
    path = tmp_path / "derived.json"
    formats.dump_pair_document(builtin_pairs()["sl2c_derived"], str(path))
    return str(path)


class TestCheck:
    def test_builtin_derived_passes(self, capsys):
        assert main(["check", "sl2c_derived"]) == 0
        out = capsys.readouterr().out
        assert "valid matched pair" in out

    def test_builtin_printed_fails_with_witness(self, capsys):
        assert main(["check", "sl2c_printed"]) == 1
        out = capsys.readouterr().out
        assert "(f3, e1, e2)" in out
        assert "FAIL" in out

    def test_heavytop_passes(self):
        assert main(["check", "e3_heavytop"]) == 0

    def test_document_round_trip(self, derived_doc):
        assert main(["check", derived_doc]) == 0

    def test_truncated_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"g": {"dim": 3')
        assert main(["check", str(bad)]) == 2

    def test_missing_file_is_input_error(self):
        assert main(["check", "/no/such/file.json"]) == 2

    @pytest.mark.parametrize("names", [[1, 2, 3], [["e1"], ["e2"], ["e3"]], "e1e2e3", 5])
    def test_names_must_be_strings(self, tmp_path, capsys, names):
        doc = formats.pair_to_dict(builtin_pairs()["sl2c_derived"])
        doc["g"]["names"] = names
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e12", "nan", "abc"])
    def test_no_environment_variable_loosens_the_check(self, monkeypatch, capsys, value):
        def run():
            codes = [main(["check", name]) for name in ("sl2c_printed", "sl2c_derived")]
            return codes, capsys.readouterr()
        want = run()
        assert want[0] == [1, 0]
        monkeypatch.setenv("MPM_TOLERANCE_SCALE", value)
        assert run() == want


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(simulate_args(prefix)) == 0
        header = open(prefix + ".csv").readline().strip()
        assert header == "t,mu_1,mu_2,mu_3,nu_1,nu_2,nu_3,H,nu_norm2,mu_dot_nu"
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["steps"] == 1000
        assert summary["drift"]["H"] <= 1e-8

    def test_deterministic_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(simulate_args(a)) == 0
        assert main(simulate_args(b)) == 0
        assert open(a + ".csv", "rb").read() == open(b + ".csv", "rb").read()
        sa = json.load(open(a + ".summary.json"))
        sb = json.load(open(b + ".summary.json"))
        sa.pop("wall_time_s")
        sb.pop("wall_time_s")
        assert sa == sb

    def test_zero_t_end_rejected(self, tmp_path):
        argv = simulate_args(str(tmp_path / "r"), **{"--t-end": "0"})
        assert main(argv) == 2

    def test_unvalidated_pair_fails(self, tmp_path):
        argv = simulate_args(str(tmp_path / "r"), **{"--pair": "sl2c_printed"})
        assert main(argv) == 1

    def test_heavy_top_invariants(self, tmp_path):
        prefix = str(tmp_path / "ht")
        argv = simulate_args(prefix, **{
            "--pair": "e3_heavytop",
            "--hamiltonian": "heavy_top",
            "--initial": "1,0,0,0,1,0",
            "--t-end": "1",
        })
        assert main(argv) == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["drift"]["nu_norm2"] <= 1e-8
        assert summary["drift"]["mu_dot_nu"] <= 1e-8

    def test_ep_mode_runs(self, tmp_path):
        prefix = str(tmp_path / "ep")
        argv = simulate_args(prefix, **{"--mode": "ep", "--t-end": "1"})
        assert main(argv) == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["drift"]["H"] <= 1e-8

    def test_ep_mode_starts_from_the_files_form(self, tmp_path):
        # perturbed block forms as in the ep_long benchmark: the first row holds the momenta
        # solve(Q, v0) of the file's Q bit for bit, not of the inverse of its inverse
        rng = np.random.default_rng(24)
        for k in range(5):
            Q = np.diag([1.0, 2.0, 3.0, 1.5, 2.5, 0.7])
            for blk in (slice(0, 3), slice(3, 6)):
                N = 1e-3 * rng.standard_normal((3, 3))
                Q[blk, blk] += N + N.T
            v0 = rng.standard_normal(6)
            path, prefix = tmp_path / f"q{k}.json", str(tmp_path / f"ep{k}")
            path.write_text(json.dumps({"Q": Q.tolist()}))
            argv = simulate_args(prefix, **{"--mode": "ep", "--hamiltonian": str(path),
                                            "--initial": None, "--t-end": "0.001"})
            assert main(argv + ["--initial=" + ",".join(map(repr, v0.tolist()))]) == 0
            rows = list(csv.reader(open(prefix + ".csv")))
            first = np.array([float(cell) for cell in rows[1][1:7]])
            assert first.tobytes() == np.linalg.solve(Q, v0).tobytes()

    def test_ep_mode_needs_block_quadratic(self, tmp_path):
        argv = simulate_args(str(tmp_path / "r"),
                             **{"--mode": "ep", "--hamiltonian": "heavy_top",
                                "--pair": "e3_heavytop"})
        assert main(argv) == 2

    def test_unknown_invariant_rejected(self, tmp_path):
        argv = simulate_args(str(tmp_path / "r"), **{"--invariants": "bogus"})
        assert main(argv) == 2

    def test_repeated_invariant_rejected(self, tmp_path, capsys):
        argv = simulate_args(str(tmp_path / "r"), **{"--invariants": "mu_norm2, mu_norm2"})
        assert main(argv) == 2
        assert "input error: invariant 'mu_norm2' is named twice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", "sub/"])
    def test_out_without_a_file_name_rejected(self, tmp_path, monkeypatch, capsys, out):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(simulate_args(out)) == 2
        assert "input error: --out needs a file name prefix" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["sub"]

    def test_unwritable_summary_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "r.summary.json").mkdir()
        assert main(simulate_args(str(tmp_path / "r"))) == 2
        assert "input error: cannot write" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.summary.json"]

    @pytest.mark.parametrize("hamiltonian", sorted(BUILTIN_HAMILTONIANS))
    def test_builtin_specs_are_cached_and_read_only(self, tmp_path, hamiltonian):
        argv = simulate_args(str(tmp_path / "ok"), **{
            "--pair": "e3_heavytop", "--hamiltonian": hamiltonian, "--t-end": "0.01",
            "--invariants": ",".join(BUILTIN_INVARIANTS)})
        assert main(argv) == 0  # builds and caches the specs
        makers = [BUILTIN_HAMILTONIANS[hamiltonian], *BUILTIN_INVARIANTS.values()]
        specs = [make(3, 3) for make in makers]
        before = [(s.Q.tobytes(), s.b.tobytes()) for s in specs]
        argv[-1] = str(tmp_path / "again")
        assert main(argv) == 0
        assert all(make(3, 3) is spec for make, spec in zip(makers, specs))
        assert [(s.Q.tobytes(), s.b.tobytes()) for s in specs] == before
        for s in specs:
            for array in (s.Q, s.b):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    @pytest.mark.parametrize("steps", [1, 200])
    def test_short_heavy_top_files_are_golden(self, tmp_path, steps):
        meta = {"pair": "e3_heavytop", "hamiltonian": "heavy_top", "mode": "lp",
                "convention": "right", "dt": 0.05, "t_end": 0.05 * steps, "seed": 3}
        prefix = str(tmp_path / "ht")
        argv = simulate_args(prefix, **{
            "--pair": "e3_heavytop", "--hamiltonian": "heavy_top", "--dt": repr(meta["dt"]),
            "--t-end": repr(meta["t_end"]), "--initial": "0.3,-0.5,0.8,0.1,0.2,0.9",
            "--invariants": "mu_norm2,nu_norm2,mu_dot_nu", "--seed": "3"})
        assert main(argv) == 0
        record = integrate(builtin_pairs()["e3_heavytop"],
                           BUILTIN_HAMILTONIANS["heavy_top"](3, 3),
                           [0.3, -0.5, 0.8, 0.1, 0.2, 0.9], meta["dt"], meta["t_end"],
                           invariants={name: BUILTIN_INVARIANTS[name](3, 3)
                                       for name in ("mu_norm2", "nu_norm2", "mu_dot_nu")})
        assert len(record.times) == steps + 1
        assert open(prefix + ".csv", "rb").read() == csv_reference(record).encode()
        text = open(prefix + ".summary.json", "rb").read().decode()
        wall = json.loads(text)["wall_time_s"]
        assert text == json.dumps(formats.summary_dict(record, wall, **meta), indent=2) + "\n"

    def test_wrong_initial_length_rejected(self, tmp_path):
        argv = simulate_args(str(tmp_path / "r"), **{"--initial": "1,0,0"})
        assert main(argv) == 2

    def test_custom_quadratic_file(self, tmp_path):
        spec = {"Q": np.eye(6).tolist(), "b": [0.0] * 6}
        path = tmp_path / "h.json"
        path.write_text(json.dumps(spec))
        prefix = str(tmp_path / "custom")
        argv = simulate_args(prefix, **{"--hamiltonian": str(path), "--t-end": "0.5"})
        assert main(argv) == 0

    def test_rigid_body_builtin(self, tmp_path):
        prefix = str(tmp_path / "rb")
        argv = simulate_args(prefix, **{
            "--pair": "e3_heavytop",
            "--hamiltonian": "rigid_body_123",
            "--initial": "0,1,1,0,0,0",
            "--t-end": "1",
        })
        assert main(argv) == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["drift"]["H"] <= 1e-8


class TestAudit:
    def test_table_content(self, capsys):
        assert main(["audit", "sl2c", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        for token in ("action |>", "action <|", "dual *<|", "dual *|>",
                      "dual a*", "dual b*", "closed-form rhs (mu)",
                      "plus-sign rhs energy rate"):
            assert token in out
        assert "(f3, e1, e2)" in out

    def test_json_report(self, tmp_path):
        path = tmp_path / "audit.json"
        assert main(["audit", "sl2c", "--samples", "100", "--json", str(path)]) == 0
        doc = json.load(open(path))
        statuses = {line["name"]: line["status"] for line in doc["lines"]}
        assert statuses["action |>"] == "MATCH"
        assert statuses["action <|"] == "MISMATCH"

    def test_unknown_target(self):
        assert main(["audit", "so-what"]) == 2

    @pytest.mark.parametrize("json_path", ["", "sub/"])
    def test_json_without_a_file_name_rejected(self, tmp_path, monkeypatch, capsys, json_path):
        """An empty --json path is rejected, as --out is, before the audit runs."""
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["audit", "sl2c", "--samples", "50", "--json", json_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "input error: --json needs a file name" in err
        assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


class TestDeriveAndFactor:
    def test_derive_builtin_round_trip(self, tmp_path):
        doc = tmp_path / "pair.json"
        assert main(["derive", "--builtin", "sl2c", "--out", str(doc)]) == 0
        assert main(["check", str(doc)]) == 0

    def test_derive_builtin_writes_the_builtin_pair(self, tmp_path, monkeypatch):
        """The built-in pair is the derivation from the standard basis, so the
        document has its bytes, and no call solves the least-squares system again."""
        want = tmp_path / "want.json"
        formats.dump_pair_document(derive_actions_from_embedding(*standard_basis()), str(want))
        builtin_pairs()
        calls = count_calls(monkeypatch, np.linalg, "lstsq")
        for name in ("first.json", "second.json"):
            assert main(["derive", "--builtin", "sl2c", "--out", str(tmp_path / name)]) == 0
            assert (tmp_path / name).read_bytes() == want.read_bytes()
        assert calls == []

    def test_derive_from_basis_file(self, tmp_path):
        from mpmech.sl2c import k_basis, su2_basis
        basis_doc = {
            "g": [formats.matrix_to_json(M) for M in su2_basis()],
            "h": [formats.matrix_to_json(M) for M in k_basis()],
            "g_names": ["e1", "e2", "e3"],
            "h_names": ["f1", "f2", "f3"],
        }
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis_doc))
        out = tmp_path / "derived.json"
        assert main(["derive", "--basis", str(basis_path), "--out", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    @pytest.mark.parametrize("change", [{"g": 5}, {"h": {"a": 1}}, {"g_names": 5},
                                        {"h_names": [[1], {}, None]}, {"g_names": [1, 2, 3]}])
    def test_malformed_basis_file_is_input_error(self, tmp_path, capsys, change):
        from mpmech.sl2c import k_basis, su2_basis
        basis_doc = {"g": [formats.matrix_to_json(M) for M in su2_basis()],
                     "h": [formats.matrix_to_json(M) for M in k_basis()], **change}
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis_doc))
        out = tmp_path / "derived.json"
        assert main(["derive", "--basis", str(basis_path), "--out", str(out)]) == 2
        assert "input error:" in capsys.readouterr().err
        assert not out.exists()

    def test_factor_identity(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        assert main(["factor", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == [0.0, 0.0, 0.0]
        assert doc["su2"][0][0] == [1.0, 0.0]

    def test_factor_rejects_non_unimodular(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[2.0, 0.0], [0.0, 1.0]]))
        assert main(["factor", str(path)]) == 2

    def test_missing_subcommand_is_input_error(self):
        assert main([]) == 2
