"""Repeated ``cli.main`` calls in one process, and the exit contract for
file I/O, step counts and overflow-free symmetrization."""

import argparse
import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from mpmech import cli, formats
from mpmech.cli import build_parser, main
from mpmech.dynamics import MAX_STEPS, HamiltonianSpec, _grid, legendre
from mpmech.errors import DegenerateMetricError, InputError

from helpers import count_calls, simulate_args

IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def identity_matrix(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(IDENTITY))
    return str(path)


class TestParserReuse:
    def test_usage_error_then_valid_factor(self, identity_matrix):
        assert run(["factor"])[0] == 2
        rc, out, _ = run(["factor", identity_matrix])
        assert rc == 0
        assert json.loads(out)["su2"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    def test_convention_does_not_carry_over(self, tmp_path):
        flags = {"--dt": "0.1", "--t-end": "1"}
        left = simulate_args(str(tmp_path / "left"), **flags, **{"--convention": "left"})
        right = simulate_args(str(tmp_path / "right"), **flags)
        assert "--convention" not in right
        assert run(left)[0] == 0
        assert run(right)[0] == 0
        summary = json.loads((tmp_path / "right.summary.json").read_text())
        assert summary["convention"] == "right"
        summary = json.loads((tmp_path / "left.summary.json").read_text())
        assert summary["convention"] == "left"

    def test_help_then_valid_call(self, identity_matrix):
        rc, out, _ = run(["--help"])
        assert rc == 0
        assert out.startswith("usage: mpmech")
        assert run(["factor", identity_matrix])[0] == 0

    def test_usage_error_goes_to_the_current_stderr(self, capsys):
        first = io.StringIO()
        with contextlib.redirect_stderr(first):
            assert main(["factor"]) == 2
        assert "usage: mpmech factor" in first.getvalue()
        seen = first.getvalue()
        assert main(["no-such-command"]) == 2
        assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
        assert first.getvalue() == seen

    def test_second_call_builds_no_parser(self, monkeypatch, identity_matrix):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        assert run(["factor", identity_matrix])[0] == 0
        assert built and built[0] == "mpmech"
        count = len(built)
        assert run(["factor", identity_matrix])[0] == 0
        assert run(["check", "e3_heavytop"])[0] == 0
        assert len(built) == count

    def test_build_parser_returns_a_new_parser(self):
        first, second = build_parser(), build_parser()
        assert first is not second
        assert cli._parser() is cli._parser()
        assert cli._parser() not in (first, second)


def dispatch_table(tmp_path, matrix):
    """Argvs for each command: a valid call, a missing required argument, a bad
    type, an unknown option, an extra positional and -h; then argvs with no
    command, an unknown one and top-level flags."""
    out = str(tmp_path / "out")
    valid = {
        "check": ["check", "e3_heavytop"],
        "simulate": simulate_args(out, **{"--dt": "0.1", "--t-end": "0.2"}),
        "audit": ["audit", "sl2c", "--samples", "5"],
        "derive": ["derive", "--builtin", "sl2c", "--out", out + ".json"],
        "factor": ["factor", matrix],
    }
    missing = {"check": ["check"], "simulate": ["simulate", "--pair", "e3_heavytop"],
               "audit": ["audit"], "derive": ["derive", "--out", out], "factor": ["factor"]}
    table = []
    for name, argv in valid.items():
        table += [argv, missing[name], argv + ["--samples", "x"], argv + ["--no-such-option"],
                  argv + ["extra"], [name, "-h"], [name, "--help"], argv + ["-h"],
                  [name, "--", "x"], argv + ["--", "extra"]]
    return table + [[], ["-h"], ["--help"], ["no-such-command"], ["-h", "factor"],
                    ["--no-such-option", "check"], ["fact", matrix],
                    ["audit", "sl2c", "--samples", "-5"], ["audit", "sl2c", "--samp", "5"]]


class TestDispatch:
    """``main`` parses a command's arguments with that command's subparser alone;
    every argv must give the exit code, stdout and stderr of the full parser."""

    def test_table_matches_the_full_parser(self, monkeypatch, tmp_path, identity_matrix):
        table = dispatch_table(tmp_path, identity_matrix)
        monkeypatch.setenv("COLUMNS", "80")
        fast = [run(argv) for argv in table]
        monkeypatch.setattr(cli._parser(), "commands", {})  # every argv through the full parser
        full = [run(argv) for argv in table]
        for argv, got, want in zip(table, fast, full):
            assert got == want, argv
        codes = {rc for rc, _, _ in full}
        assert codes == {0, 2}

    def test_the_table_reaches_each_outcome(self, tmp_path, identity_matrix):
        results = {tuple(argv): run(argv) for argv in dispatch_table(tmp_path, identity_matrix)}
        assert results[()][0] == 2 and "required: command" in results[()][2]
        assert results[("--help",)][:2] == (0, results[("-h",)][1])
        assert results[("check", "-h")][1].startswith("usage: mpmech check")
        rc, out, err = results[("factor", identity_matrix, "extra")]
        assert (rc, out) == (2, "") and err.endswith("mpmech: error: unrecognized arguments: extra\n")
        assert "invalid int value: 'x'" in results[("audit", "sl2c", "--samples", "5", "--samples", "x")][2]
        assert "invalid choice: 'fact'" in results[("fact", identity_matrix)][2]

    def test_a_command_is_parsed_once(self, monkeypatch, identity_matrix):
        parser = cli._parser()
        calls = count_calls(monkeypatch, parser, "parse_known_args")
        sub = count_calls(monkeypatch, parser.commands["factor"], "parse_known_args")
        assert run(["factor", identity_matrix])[0] == 0
        assert (len(calls), len(sub)) == (0, 1)
        assert run(["factor", identity_matrix, "extra"])[0] == 2
        assert (len(calls), len(sub)) == (1, 3)  # leftovers: the full parser parses again


UNDECODABLE = b'{"Q": "\xff\xfe"}'
OVER_NESTED = "[" * 100_000 + "]" * 100_000


def reading(kind, path, tmp_path):
    out = str(tmp_path / "out")
    return {
        "check": ["check", path],
        "factor": ["factor", path],
        "derive": ["derive", "--basis", path, "--out", out + ".json"],
        "simulate": simulate_args(out, **{"--hamiltonian": path}),
    }[kind]


class TestFileContract:
    @pytest.mark.parametrize("kind", ["check", "simulate", "derive", "factor"])
    def test_undecodable_input(self, tmp_path, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(UNDECODABLE)
        rc, _, err = run(reading(kind, str(path), tmp_path))
        assert rc == 2
        assert err.startswith("input error: cannot read ")
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("kind", ["check", "factor", "simulate", "derive"])
    def test_over_nested_input(self, tmp_path, kind):
        path = tmp_path / "deep.json"
        path.write_text(OVER_NESTED)
        rc, _, err = run(reading(kind, str(path), tmp_path))
        assert rc == 2
        assert err.startswith("input error: cannot read ")
        assert "recursion" in err

    @pytest.mark.parametrize("argv, written", [
        (simulate_args("{d}/r", **{"--dt": "0.1", "--t-end": "1"}), "{d}/r.csv"),
        (["derive", "--builtin", "sl2c", "--out", "{d}/pair.json"], "{d}/pair.json"),
        (["audit", "sl2c", "--samples", "5", "--json", "{d}/audit.json"], "{d}/audit.json"),
    ])
    def test_output_in_a_missing_directory(self, tmp_path, argv, written):
        missing = str(tmp_path / "missing")
        rc, _, err = run([arg.format(d=missing) for arg in argv])
        assert rc == 2
        assert err.startswith(f"input error: cannot write {written.format(d=missing)}: ")

    def test_factor_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(IDENTITY)))
        assert run(["factor", "-"])[0] == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [0"))
        rc, _, err = run(["factor", "-"])
        assert rc == 2
        assert err.startswith("input error: cannot read matrix ")


def text_mode_read(path):
    """What ``read_json`` read a path with before: ``json.load`` on a text-mode
    file, as its document or its error message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        return str(exc)


class TestReadJson:
    """``read_json`` reads a path in one binary read, decoded as strict UTF-8 with
    universal newlines: the documents and messages of the text-mode reader."""

    @pytest.mark.parametrize("data, message", [
        (b"[[1, 0],\r\n [0, ]]", "Expecting value: line 2 column 6 (char 14)"),
        (b"[[1, 0],\r [0, ]]", "Expecting value: line 2 column 6 (char 14)"),
        (b"[[1, 0],\r\r\n\n [0, ]]", "Expecting value: line 4 column 6 (char 16)"),
        (b"\xef\xbb\xbf[[1, 0], [0, 1]]",
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'[[1, 0],\r\n [0, "\xff"]]',
         "'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"),
    ])
    def test_messages_are_the_text_mode_readers(self, tmp_path, data, message):
        path = tmp_path / "m.json"
        path.write_bytes(data)
        assert text_mode_read(path) == message
        with pytest.raises(InputError) as info:
            formats.read_json(str(path), "matrix")
        assert str(info.value) == f"cannot read matrix {path}: {message}"
        rc, out, err = run(["factor", str(path)])
        assert (rc, out, err) == (2, "", f"input error: cannot read matrix {path}: {message}\n")

    @pytest.mark.parametrize("data", [b"[[1, 0],\r\n [0, 1]]\r\n", b'["a",\r"b"\r\n]',
                                      b'{"k":\r\r\n[0.5, "\xc3\xa9"]}\r', b"[]"])
    def test_documents_are_the_text_mode_readers(self, tmp_path, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        assert formats.read_json(str(path), "doc") == text_mode_read(path)

    def test_factor_reads_stdin_as_text(self, monkeypatch, identity_matrix):
        buffer = io.BytesIO(b"[[1, 0],\r\n [0, ]]")
        buffer.name = "<stdin>"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(buffer, encoding="utf-8"))
        assert run(["factor", "-"]) == (2, "", "input error: cannot read matrix <stdin>: "
                                               "Expecting value: line 2 column 6 (char 14)\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"[[1, 0],\r\n [0, 1]]\r\n")))
        assert run(["factor", "-"]) == run(["factor", identity_matrix])


class TestStepCountAndSymmetrize:
    @pytest.mark.parametrize("dt, t_end", [(1e-300, 1e300), (1e-300, 1.0), (1.0, 1e300),
                                           (1.0, 2.0 ** 53 + 2.0), (1.0, MAX_STEPS + 1.0)])
    def test_step_count_beyond_the_float_grid_rejected(self, dt, t_end):
        with pytest.raises(InputError, match="too many steps"):
            _grid(dt, t_end)

    def test_overflowing_step_count_exits_2(self, tmp_path):
        argv = simulate_args(str(tmp_path / "r"), **{"--dt": "1e-300", "--t-end": "1e300"})
        rc, _, err = run(argv)
        assert rc == 2
        assert "too many steps" in err

    def test_unallocatable_step_count_exits_2(self, tmp_path):
        # 2**52 whole steps: a (steps + 1, 7) states array would need 224 PiB
        argv = simulate_args(str(tmp_path / "r"), **{"--dt": "1", "--t-end": "4503599627370496"})
        rc, _, err = run(argv)
        assert rc == 2
        assert err.startswith("input error: ") and "too many steps" in err
        assert "Traceback" not in err

    def test_opposite_huge_entries_rejected_without_warning(self):
        Q = np.eye(6)
        Q[0, 1], Q[1, 0] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="not symmetric"):
                HamiltonianSpec.quadratic(Q)
            with pytest.raises(DegenerateMetricError, match="g metric is not symmetric"):
                legendre(Q[:3, :3], np.eye(3))

    def test_quadratic_keeps_huge_symmetric_entries(self):
        Q = np.eye(6)
        Q[0, 1] = Q[1, 0] = 1e308
        Q[2, 2] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = HamiltonianSpec.quadratic(Q)
        assert np.array_equal(spec.Q, Q)
        assert np.isfinite(spec.Q).all()

    def test_metric_and_legendre_keep_huge_entries(self):
        M = np.diag([1.7e308, 1e308, 1.0])
        M[0, 1] = M[1, 0] = 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = legendre(M, np.eye(3))
        inv = np.linalg.inv(M)  # legendre inverts M itself, not a rounded copy of it
        assert np.array_equal(spec.Q[:3, :3], 0.5 * inv + 0.5 * inv.T)
        assert np.isfinite(spec.Q).all()
