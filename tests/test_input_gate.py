"""One gate for arrays from outside the program: every structure tensor, action
tensor, quadratic form, Lagrangian metric, state and matrix basis is converted
by ``float_array`` and checked for finiteness and (anti)symmetry by the same
code, so a 400-digit integer, a NaN or an entry near 1e308 is an input error
(exit 2) wherever it appears, with no traceback, numpy warning or LAPACK
message on stderr."""

import io
import json
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpmech import formats
from mpmech.cli import main
from mpmech.dynamics import HamiltonianSpec, LagrangianSpec, gradient
from mpmech.errors import DegenerateMetricError, EmbeddingError, InputError
from mpmech.lie_core import LieAlgebra
from mpmech.sl2c import (
    EmbeddedBasis,
    derive_actions_from_embedding,
    k_basis,
    su2_basis,
)

BIG = 10 ** 400  # a JSON integer past the float range
BASIS_DOC = {"g": [formats.matrix_to_json(M) for M in su2_basis()],
             "h": [formats.matrix_to_json(M) for M in k_basis()]}
SIMULATE = ["simulate", "--pair", "sl2c_derived", "--initial=1,0,0,0,1,0",
            "--dt", "0.01", "--t-end", "0.1"]


def pair_doc():
    def zero():
        return np.zeros((3, 3, 3)).tolist()
    return {"g": {"dim": 3, "C": zero()}, "h": {"dim": 3, "C": zero()},
            "rho": zero(), "sigma": zero()}


def basis_doc(*cells):
    """The standard basis document, as text, with ``(factor, matrix, i, j, value)`` replaced."""
    doc = json.loads(json.dumps(BASIS_DOC))
    for factor, k, i, j, value in cells:
        doc[factor][k][i][j] = value
    return json.dumps(doc)


def check_doc(edit):
    doc = pair_doc()
    edit(doc)
    return json.dumps(doc)


def set_big_c(doc):
    doc["g"]["C"][0][0][1] = BIG


def set_big_rho(doc):
    doc["rho"][0][0][1] = BIG


def set_symmetric_1e308(doc):
    doc["g"]["C"][0][0][1] = doc["g"]["C"][0][1][0] = 1e308


def hamiltonian(Q=None, b=None):
    doc = {"Q": np.eye(6).tolist() if Q is None else Q}
    if b is not None:
        doc["b"] = b
    return json.dumps(doc)


def big_q():
    Q = np.eye(6).tolist()
    Q[0][0] = BIG
    return Q


# (label, argv, the text of the file {doc} or of stdin, exit code)
REPROS = [
    ("check: 400-digit integer in C", ["check", "{doc}"], check_doc(set_big_c), 2),
    ("check: 400-digit integer in rho", ["check", "{doc}"], check_doc(set_big_rho), 2),
    ("check: symmetric C near 1e308", ["check", "{doc}"], check_doc(set_symmetric_1e308), 2),
    ("simulate: 400-digit integer in Q", SIMULATE + ["--hamiltonian", "{doc}"],
     hamiltonian(big_q()), 2),
    ("simulate: b near 1e308", SIMULATE + ["--hamiltonian", "{doc}"],
     hamiltonian(b=[1e308] * 6), 1),
    ("factor: 400-digit integer", ["factor", "-"], f"[[{BIG}, 0], [0, 1]]", 2),
    ("factor: 1/P22 past the float range", ["factor", "-"], "[[1e160, 0], [1e160, 1e-160]]", 2),
    ("factor: determinant past the float range", ["factor", "-"],
     "[[0.0, 1.26323140357513e+119], [1.4230909157059732e+189, 0.0]]", 2),
    ("factor: unitary factor past the float range", ["factor", "-"],
     "[[1.6685580496821343e+299, 3.0], [1.0, 2.3972794957670264e-299]]", 1),
    ("derive: 400-digit integer", ["derive", "--basis", "{doc}"],
     basis_doc(("g", 0, 0, 0, [BIG, 0])), 2),
    ("derive: NaN", ["derive", "--basis", "{doc}"],
     basis_doc(("g", 0, 0, 0, [float("nan"), 0.0])), 2),
    ("derive: Infinity", ["derive", "--basis", "{doc}"],
     basis_doc(("h", 1, 1, 0, float("inf"))), 2),
    ("derive: 1e999", ["derive", "--basis", "{doc}"],
     basis_doc(("g", 2, 0, 0, "X")).replace('"X"', "1e999"), 2),
    ("derive: commutators past the float range", ["derive", "--basis", "{doc}"],
     basis_doc(("g", 0, 1, 1, 1e308), ("h", 0, 1, 0, 1e308)), 2),
]


def run_cli(argv, stdin=""):
    """Exit code and stderr of ``main``; a numpy warning is raised, so it escapes."""
    err, old = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main(argv)
    finally:
        sys.stdin = old
    return rc, err.getvalue()


class TestCliRepros:
    @pytest.mark.parametrize("label, argv, text, code", REPROS, ids=[r[0] for r in REPROS])
    def test_exit_code_and_message(self, label, argv, text, code, tmp_path, capfd):
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = [a.replace("{doc}", str(path)) for a in argv]
        if argv[0] in ("simulate", "derive"):
            argv += ["--out", str(tmp_path / "out")]
        rc, err = run_cli(argv, text)
        assert rc == code
        assert err.startswith("input error: " if code == 2 else "error: ")
        assert "Traceback" not in err
        fd_out, fd_err = capfd.readouterr()
        assert "DLASCL" not in fd_out + fd_err and "Warning" not in fd_out + fd_err

    def test_400_digit_integers_name_the_float_range(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(check_doc(set_big_c))
        assert "int too large to convert to float" in run_cli(["check", str(path)])[1]

    def test_symmetric_1e308_defect_is_reported_finite(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(check_doc(set_symmetric_1e308))
        err = run_cli(["check", str(path)])[1]
        assert "not antisymmetric" in err and "defect 1.000e+308" in err


class TestApiGate:
    def test_ragged_state_is_an_input_error(self):
        spec = HamiltonianSpec.quadratic(np.eye(2))
        with pytest.raises(InputError, match="state is not a numeric array"):
            spec.value([1, [2]])
        with pytest.raises(InputError, match="state is not a numeric array"):
            gradient(spec, [1, [2]])

    def test_ragged_metric_in_euler_poincare_rhs(self):
        ragged = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0]]
        with pytest.raises(InputError, match="g metric is not a numeric array"):
            LagrangianSpec(ragged, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_metric_is_degenerate(self, bad):
        with pytest.raises(DegenerateMetricError, match="non-finite entries in g metric"):
            LagrangianSpec([[bad]], [[1.0]])

    def test_400_digit_structure_constant(self):
        with pytest.raises(InputError, match="int too large to convert to float"):
            LieAlgebra([[[BIG]]])

    def test_non_finite_quadratic_form_and_linear_term(self):
        with pytest.raises(InputError, match="non-finite entries in quadratic form"):
            HamiltonianSpec.quadratic([[np.nan]])
        with pytest.raises(InputError, match="non-finite entries in linear term"):
            HamiltonianSpec.quadratic([[1.0]], [np.inf])

    def test_linear_term_is_copied_before_it_is_frozen(self):
        b = np.zeros(2)
        spec = HamiltonianSpec.quadratic(np.eye(2), b)
        assert b.flags.writeable and not spec.b.flags.writeable

    def test_non_finite_embedded_basis(self):
        mats = [np.array(M) for M in su2_basis()]
        mats[1][0, 1] = np.nan
        with pytest.raises(InputError, match="non-finite entries in basis matrices"):
            EmbeddedBasis(tuple(mats), tuple(k_basis()))

    def test_overflowing_commutators_are_an_embedding_error(self):
        g, h = [np.array(M) for M in su2_basis()], [np.array(M) for M in k_basis()]
        g[0][1, 1], h[0][1, 0] = 1e308, 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingError, match="non-finite entries in basis commutators"):
                derive_actions_from_embedding(EmbeddedBasis(tuple(g), tuple(h)))

    def test_antisymmetry_defect_near_1e308_is_finite(self):
        C = np.zeros((2, 2, 2))
        C[0, 0, 1] = C[0, 1, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="antisymmetric") as err:
                LieAlgebra(C, validate=False)
        defect = float(re.search(r"defect (\S+)\)", str(err.value)).group(1))
        assert np.isfinite(defect) and defect == 1e308

    def test_accepted_tensors_keep_their_bits(self):
        A = np.random.default_rng(3).standard_normal((3, 3, 3))
        C = A - (1 - 1e-14) * A.transpose(0, 2, 1)  # antisymmetric to 1e-14, not exactly
        assert (LieAlgebra(C, validate=False).C.tobytes()
                == (0.5 * C - 0.5 * C.transpose(0, 2, 1)).tobytes())
        Q = np.array([[2.0, 0.3], [0.3 + 1e-13, 1.0]])
        half = 0.5 * Q
        assert HamiltonianSpec.quadratic(Q).Q.tobytes() == (half + half.T).tobytes()


def quadratic_form(defect):
    return lambda: HamiltonianSpec.quadratic([[1.0, 1.0], [1.0 + defect, 1.0]])


def structure_tensor(defect):
    def build():
        C = np.zeros((2, 2, 2))
        C[0, 0, 1], C[0, 1, 0] = 1.0, -1.0 - defect
        return LieAlgebra(C, validate=False)
    return build


class TestToleranceScale:
    """Mirrored entries of magnitude 1 may differ by the unscaled bound
    1e-12 (1 + max |entry|) = 2e-12 in the symmetric and the antisymmetric
    test alike; MPM_TOLERANCE_SCALE=1e6 widens both."""

    @pytest.mark.parametrize("build", [quadratic_form(2.2e-12), structure_tensor(2.2e-12)],
                             ids=["quadratic form", "structure tensor"])
    def test_just_above_the_unscaled_bound(self, build, monkeypatch):
        with pytest.raises(InputError, match="symmetric"):
            build()
        monkeypatch.setenv("MPM_TOLERANCE_SCALE", "1e6")
        build()

    @pytest.mark.parametrize("build", [quadratic_form(1.8e-12), structure_tensor(1.8e-12)],
                             ids=["quadratic form", "structure tensor"])
    def test_just_below_the_unscaled_bound(self, build):
        build()

    def test_scale_reaches_the_lagrangian_metric(self, monkeypatch):
        M = [[1.0, 1.0], [1.0 + 3.3e-12, 2.0]]  # bound 3e-12
        with pytest.raises(DegenerateMetricError, match="g metric is not symmetric"):
            LagrangianSpec(M, [[1.0]])
        monkeypatch.setenv("MPM_TOLERANCE_SCALE", "1e6")
        LagrangianSpec(M, [[1.0]])


# -- derive --basis documents, mutated -------------------------------------------

ODD_CELLS = [None, True, "x", "1.5", [], [1.0], [1.0, "x"], [[1.0], 2.0], {}, [1.0, 2.0, 3.0]]
numbers = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
                                     1e-308, 1e160, 0.0, -0.0, 1, BIG, -BIG]),
                    st.floats(allow_nan=False, allow_infinity=False))
cells = st.one_of(numbers, st.lists(numbers, min_size=2, max_size=2), st.sampled_from(ODD_CELLS))


@st.composite
def basis_documents(draw):
    doc = json.loads(json.dumps(BASIS_DOC))
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.sampled_from(["g", "h"]))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "drop", "matrix", "names"]))
        mats = doc[factor]
        if kind == "cell" and mats:
            k = draw(st.integers(0, len(mats) - 1))
            if isinstance(mats[k], list) and all(isinstance(row, list) and len(row) == 2
                                                 for row in mats[k]) and len(mats[k]) == 2:
                mats[k][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(cells)
        elif kind == "drop" and mats:
            mats.pop(draw(st.integers(0, len(mats) - 1)))
        elif kind == "matrix":
            mats.append(draw(st.one_of(st.sampled_from(ODD_CELLS),
                                       st.lists(st.lists(cells, min_size=2, max_size=2),
                                                min_size=2, max_size=2))))
        elif kind == "names":
            names = [["a", "b", "c"], ["a"], "abc", [1], None]
            doc[f"{factor}_names"] = draw(st.sampled_from(names))
    return doc


class TestDeriveFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(doc=basis_documents())
    def test_mutated_basis_documents(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            with open(f"{tmp}/basis.json", "w") as fh:
                json.dump(doc, fh)
            rc, err = run_cli(["derive", "--basis", f"{tmp}/basis.json", "--out", f"{tmp}/p.json"])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
