"""The validation report behind ``MatchedPair.validate`` and ``mpmech check``,
its bilinear tolerance rule, the batched formula audit against a per-sample
reference, and the CLI exit contract under mutated inputs."""

import ast
import contextlib
import io
import itertools
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmech
from mpmech import dynamics, formats, lie_core, matched_pair, sl2c
from mpmech.cli import main
from mpmech.dynamics import HamiltonianSpec, _grid, integrate, integrate_ep
from mpmech.errors import InputError, ValidationError
from mpmech.lie_core import Check, LieAlgebra, ad_star, defect_bound, lie_poisson_rhs
from mpmech.matched_pair import (
    AUDIT_MAX_SAMPLES,
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
from mpmech.sl2c import builtin_pairs, group_act, iwasawa_factor, sl2c_closed_forms

from helpers import (UNEQUAL_DOC, corrupted_su2, count_calls, exact_closed_forms, random_pair,
                     random_valid_pair, simulate_args)

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mpmech"
REMOVED_NAMES = ("compat_defect", "CompatDefect", "jacobi_defect", "kks_eval",
                 "matched_ad_star", "euler_poincare_rhs",
                 "DualPoint", "as_dual_point", "cobracket_eval", "matched_bracket_eval",
                 "DoubleAlgebra", "_as_pair", "EmbeddedBasis", "LagrangianSpec", "_AuditPlan",
                 "tolerance_scale", "_compatibility_checks")
REPORT_NAMES = [
    "jacobi defect (g)",
    "jacobi defect (h)",
    "compatibility condition 1",
    "compatibility condition 2",
    "jacobi defect (double)",
]


def four_index_readers(source):
    """Names of the functions in ``source`` that subscript with a 4-element tuple,
    outside type annotations (return, argument and annotated-assignment ones)."""
    tree = ast.parse(source)
    annotations = [ann for node in ast.walk(tree) for ann in (getattr(node, "annotation", None),
                                                               getattr(node, "returns", None))
                   if isinstance(ann, ast.AST)]
    skip = {id(node) for ann in annotations for node in ast.walk(ann)}
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and any(
        isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
        and len(node.slice.elts) == 4 and id(node) not in skip for node in ast.walk(fn))}


def environment_reads(source):
    """The lines of ``source`` that name ``environ``, ``environb``, ``getenv`` or
    ``getenvb``, as an attribute (``os.environ``), a name or an import."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in names
                   or isinstance(node, ast.Name) and node.id in names
                   or isinstance(node, ast.alias) and node.name in names})


def scaled_document(mp, factor):
    """Tensor document of ``mp`` with every tensor multiplied by ``factor``."""
    doc = formats.pair_to_dict(mp)
    for alg in ("g", "h"):
        doc[alg]["C"] = (np.array(doc[alg]["C"]) * factor).tolist()
    for key in ("rho", "sigma"):
        doc[key] = (np.array(doc[key]) * factor).tolist()
    return doc


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CHECK_GOLDEN = json.loads((TESTS / "check_golden.json").read_text())


class TestOneJacobiator:
    """All five checks read the double's Jacobiator, computed once per pair."""

    def test_factor_jacobiators_are_blocks_of_the_double(self, pairs):
        built = [*pairs.values(), *(random_valid_pair(seed, n) for seed in (0, 1) for n in (2, 3, 4)),
                 *(random_pair(seed, 3, 3) for seed in range(5))]
        for mp in built:
            n, J = mp.g.dim, mp.algebra.jacobiator
            assert J[:n, :n, :n, :n].tobytes() == lie_core._jacobiator(mp.g.C).tobytes()
            assert J[n:, n:, n:, n:].tobytes() == lie_core._jacobiator(mp.h.C).tobytes()

    @pytest.mark.parametrize("validated", [True, False])
    def test_a_pair_runs_one_jacobiator(self, monkeypatch, sl2c_derived, validated):
        g, h = (LieAlgebra(alg.C, alg.names, validate=validated)
                for alg in (sl2c_derived.g, sl2c_derived.h))
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        assert MatchedPair(g, h, sl2c_derived.rho, sl2c_derived.sigma).validated
        assert len(jacobi) == 1

    def test_derive_runs_one_jacobiator(self, monkeypatch):
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        assert sl2c.derive_actions_from_embedding(*sl2c.standard_basis()).validated
        assert len(jacobi) == 1

    @pytest.mark.parametrize("factor,block", [("g", slice(0, 3)), ("h", slice(3, 6))])
    def test_pair_from_double_names_the_factor_failing_jacobi(self, factor, block):
        C = np.zeros((6, 6, 6))
        C[block, block, block] = corrupted_su2()
        with pytest.raises(ValidationError, match=rf"^jacobi defect \({factor}\) 1\.000e\+00 "
                                                  r"exceeds 2\.000e-10 at \(x1, x2, x3\); "
                                                  r"jacobi defect \(double\) 1\.000e\+00"):
            matched_pair.pair_from_double(C, 3, None, None)

    @pytest.mark.parametrize("key", CHECK_GOLDEN)
    def test_check_output_is_golden(self, tmp_path, capsys, key):
        """``mpmech check`` stdout, byte for byte, of the built-ins, the document of
        ``derive --builtin sl2c`` and those of ``random_valid_pair(seed, n)``."""
        pair = str(tmp_path / "pair.json")
        if key.startswith("random_valid_pair"):
            formats.dump_pair_document(random_valid_pair(*map(int, key.split()[1:])), pair)
        elif key == "derive --builtin sl2c":
            assert main(["derive", "--builtin", "sl2c", "--out", pair]) == 0
            capsys.readouterr()
        else:
            pair = key
        code = main(["check", pair])
        out = capsys.readouterr().out
        assert out == CHECK_GOLDEN[key]
        assert code == (0 if out.endswith("pair is a valid matched pair\n") else 1)


class TestReport:
    @pytest.mark.parametrize("name", ["sl2c_derived", "sl2c_printed", "e3_heavytop"])
    def test_five_named_checks(self, pairs, name):
        checks = validation_report(pairs[name])
        assert [c.name for c in checks] == REPORT_NAMES
        assert all(c.witness.startswith("(") for c in checks)

    @pytest.mark.parametrize("name", ["sl2c_derived", "sl2c_printed", "e3_heavytop"])
    def test_validate_raises_exactly_when_a_check_fails(self, pairs, name):
        mp = pairs[name]
        fresh = MatchedPair(mp.g, mp.h, mp.rho, mp.sigma, validate=False)
        if all(c.ok for c in validation_report(fresh)):
            assert fresh.validate().validated
        else:
            with pytest.raises(ValidationError, match="compatibility condition 1"):
                fresh.validate()
            assert not fresh.validated

    def test_check_prints_the_report(self, capsys, sl2c_printed):
        assert main(["check", "sl2c_printed"]) == 1
        printed = capsys.readouterr().out.splitlines()
        expected = []
        for c in validation_report(sl2c_printed):
            tail = "" if c.ok else f"  witness {c.witness}"
            expected.append(f"{'PASS' if c.ok else 'FAIL'}  {c.name}: {c.value:.3e} "
                            f"(tolerance {c.bound:.3e}){tail}")
        assert printed == expected + ["pair FAILED validation"]

    def test_check_computes_each_defect_once(self, monkeypatch, tmp_path, pairs):
        path = write_json(tmp_path, "pair.json", formats.pair_to_dict(pairs["sl2c_derived"]))
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        assert main(["check", path]) == 0
        assert len(jacobi) == 1   # the double, whose blocks are all five checks

    def test_validate_reuses_validated_algebras(self, monkeypatch, sl2c_derived):
        g, h = sl2c_derived.g, sl2c_derived.h
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        MatchedPair(g, h, sl2c_derived.rho, sl2c_derived.sigma)
        assert len(jacobi) == 1   # the new double only

    def test_a_valid_pair_validates_its_algebras(self, monkeypatch):
        # g and h of a derived pair are built unvalidated; the pair's checks cover them
        mp = sl2c.derive_actions_from_embedding(*sl2c.standard_basis())
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        for alg in (mp.validate().g, mp.h, mp.algebra):
            assert alg.validated and alg.validate() is alg
        assert jacobi == []

    def test_an_invalid_pair_validates_no_algebra(self, sl2c_printed):
        g, h = (LieAlgebra(alg.C, alg.names, validate=False)
                for alg in (sl2c_printed.g, sl2c_printed.h))
        mp = MatchedPair(g, h, sl2c_printed.rho, sl2c_printed.sigma, validate=False)
        with pytest.raises(ValidationError, match="compatibility condition 1"):
            mp.validate()
        assert not (g.validated or h.validated or mp.algebra.validated)

    def test_one_reader_of_the_compatibility_blocks(self, monkeypatch, pairs):
        # the deleted names stay deleted
        for module in (mpmech, lie_core, matched_pair, dynamics, sl2c):
            assert [name for name in REMOVED_NAMES if hasattr(module, name)] == [], module.__name__
        assert not hasattr(mpmech, "build_double")  # matched_pair keeps it as an alias
        # a 4-index subscript is a read of a block of a Jacobiator, the one rank-4 tensor
        readers = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                   for name in four_index_readers(path.read_text())}
        assert readers == {"matched_pair.validation_report"}
        mp = random_pair(0, 3, 3)
        jacobi = count_calls(monkeypatch, lie_core, "_jacobiator")
        validation_report(mp)
        assert len(jacobi) == 1 and "jacobiator" not in vars(mp.g) | vars(mp.h)

    def test_no_module_reads_the_environment(self):
        reads = {path.name: environment_reads(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
        assert len(reads) == 8 and not any(reads.values()), reads
        source = ("import os\nfrom os import getenv\n"
                  "def f():\n    return os.environ.get('X'), getenv('Y'), os.path.sep\n")
        assert environment_reads(source) == [2, 4]

    def test_annotations_are_not_block_reads(self):
        source = (
            "def annotated(x: tuple[a, b, c, d]) -> tuple[list, list, tuple[str, ...], dict]:\n"
            "    y: tuple[a, b, c, d] = x\n"
            "    return y\n"
            "def reader(J) -> tuple[a, b, c, d]:\n"
            "    return J[:1, 1:, :1, :1]\n")
        assert four_index_readers(source) == {"reader"}

    def test_no_test_module_imports_another(self):
        # shared helpers live in helpers.py; an import between test modules can be circular
        imported = {f"{path.name} imports {name}" for path in sorted(TESTS.glob("test_*.py"))
                    for node in ast.walk(ast.parse(path.read_text(), str(path)))
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                                 else [alias.name for alias in node.names])
                    if name.split(".")[0].startswith("test_")}
        assert imported == set()

    def test_matched_lp_rhs_is_the_flat_lie_poisson_rhs(self, pairs, rng):
        with pytest.raises(ValidationError, match="compatibility condition 1"):
            matched_lp_rhs(pairs["sl2c_printed"], np.zeros(6), np.zeros(6))
        for name in ("sl2c_derived", "e3_heavytop"):
            double = pairs[name]
            for convention in ("right", "left"):
                z, x = rng.standard_normal((2, 6))
                want = lie_poisson_rhs(double.algebra, z, x, convention)
                got = matched_lp_rhs(double, z, x, convention)
                assert got.shape == (6,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("flow", [
        lambda double: integrate(double, HamiltonianSpec.quadratic(np.eye(6)), np.ones(6),
                                 0.1, 0.1),
        lambda double: matched_lp_rhs(double, np.ones(6), np.ones(6)),
    ], ids=["integrate", "matched_lp_rhs"])
    def test_flows_validate_their_pair(self, pairs, flow):
        fresh = formats.pair_from_dict(formats.pair_to_dict(pairs["sl2c_derived"]))
        assert not fresh.validated
        flow(fresh)
        assert fresh.validated
        with pytest.raises(ValidationError, match="compatibility condition 1"):
            flow(pairs["sl2c_printed"])

    @pytest.mark.parametrize("flow", [
        lambda mp, p: integrate(mp, HamiltonianSpec.quadratic(np.eye(6)), p, 0.1, 0.1),
        lambda mp, p: integrate_ep(mp, HamiltonianSpec.quadratic(np.eye(6)), p, 0.1, 0.1),
        lambda mp, p: matched_lp_rhs(mp, p, np.ones(6)),
        lambda mp, p: matched_lp_rhs(mp, np.ones(6), p),
    ], ids=["integrate", "integrate_ep", "matched_lp_rhs point", "matched_lp_rhs gradient"])
    def test_flows_take_one_flat_vector(self, pairs, flow):
        mp = pairs["sl2c_derived"]
        flow(mp, np.ones(6))
        for bad in ((np.ones(3), np.ones(3)), ([1.0, 2.0, 3.0], [4.0, 5.0]), np.ones(5)):
            with pytest.raises(InputError):
                flow(mp, bad)

    def test_audit_detail_reads_the_report_once_per_pair_of_pairs(self, monkeypatch, pairs):
        """``_audit_plan`` reads condition 1 off the report, once per pair of pairs."""
        printed = pairs["sl2c_printed"]
        fresh = MatchedPair(printed.g, printed.h, printed.rho, printed.sigma, validate=False)
        condition = validation_report(fresh)[2]
        reports = count_calls(monkeypatch, matched_pair, "validation_report")
        first = audit_formulas(pairs["sl2c_derived"], fresh, samples=10,
                               closed_forms=sl2c_closed_forms())
        assert len(reports) == 1
        second = audit_formulas(pairs["sl2c_derived"], fresh, samples=10, seed=3,
                                closed_forms=sl2c_closed_forms())
        assert len(reports) == 1
        assert matched_pair._audit_plan(pairs["sl2c_derived"], fresh)[3] == \
            first.line("action <|").detail
        assert len(reports) == 1
        for report in (first, second):
            assert report.line("action <|").detail == (
                f"compatibility condition 1 defect {condition.value:g} at {condition.witness}")
        assert condition.witness == "(f3, e1, e2)"

    @pytest.mark.parametrize("largest,bound", [(0.0, 0.5e-10), (1.0, 2e-10), (1e6 - 1.0, 50.0)])
    def test_bound_grows_as_the_square_of_the_scale(self, largest, bound):
        assert defect_bound(np.array([largest]), np.zeros(3)) == pytest.approx(bound, rel=1e-15)

    def test_bound_is_the_largest_of_the_per_tensor_bounds(self, pairs, rng):
        def per_tensor(*tensors):
            s = 1.0 + max(float(np.abs(t).max()) for t in tensors)
            return lie_core.DEFECT_TOLERANCE * s * s
        sets = [(mp.g.C, mp.h.C, mp.rho, mp.sigma) for mp in pairs.values()]
        sets += [(mp.g.C,) for mp in pairs.values()]
        sets += [tuple(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
                       for shape in ((3, 3, 3), (2, 4, 2), (5,))) for _ in range(50)]
        for tensors in sets:
            assert defect_bound(*tensors) == per_tensor(*tensors)

    def test_bound_past_the_float_range_is_infinite(self):
        assert defect_bound(np.array([1e200])) == np.inf

    @pytest.mark.parametrize("value,bound,ok", [
        (1.0, 1.0, True), (0.0, 1e-10, True), (2.0, 1.0, False),
        (np.nan, 1.0, False), (0.0, np.nan, False), (np.inf, 1.0, False),
        (0.0, np.inf, False), (np.inf, np.inf, False),
    ])
    def test_check_passes_only_finite_values_within_bound(self, value, bound, ok):
        assert Check("defect", value, bound, "(e1)").ok is ok


class TestToleranceRegressions:
    def test_scaled_corrupted_algebra_is_rejected(self, tmp_path, sl2c_derived):
        # defect ~5e19 against the old s**3 bound ~1e20; the s**2 bound is ~5e9
        with pytest.raises(ValidationError):
            LieAlgebra(corrupted_su2() * 1e10)
        doc = formats.pair_to_dict(sl2c_derived)
        doc["g"]["C"] = (corrupted_su2() * 1e10).tolist()
        assert main(["check", write_json(tmp_path, "pair.json", doc)]) == 1

    def test_scaled_valid_pair_validates(self, sl2c_derived):
        mp = sl2c_derived
        scaled = MatchedPair(LieAlgebra(mp.g.C * 1e6), LieAlgebra(mp.h.C * 1e6),
                             mp.rho * 1e6, mp.sigma * 1e6)
        assert scaled.validated

    @pytest.mark.parametrize("name,factor,rc", [
        ("sl2c_derived", 1e6, 0),      # compatibility 8.5e-4 > 1e-4 under the old bound
        ("sl2c_derived", 1e110, 0),    # the old bound raised OverflowError
        ("sl2c_printed", 1e110, 1),
        ("sl2c_derived", 1e200, 1),    # defects overflow: a non-finite defect fails
    ])
    def test_check_of_scaled_documents(self, tmp_path, pairs, name, factor, rc):
        path = write_json(tmp_path, "pair.json", scaled_document(pairs[name], factor))
        assert main(["check", path]) == rc

    @pytest.mark.parametrize("name,factor", [("sl2c_printed", 1e110), ("sl2c_derived", 1e200)])
    def test_simulate_of_huge_invalid_documents_fails(self, tmp_path, pairs, name, factor):
        path = write_json(tmp_path, "pair.json", scaled_document(pairs[name], factor))
        assert main(simulate_args(str(tmp_path / "r"), **{"--pair": path})) == 1


class TestInputContract:
    def test_wide_range_factor_matrix(self, tmp_path):
        M = [[1e200, 0.0], [0.0, 1e-200]]   # determinant 1, P22 underflows to 0
        with pytest.raises(InputError):
            iwasawa_factor(np.array(M))
        assert main(["factor", write_json(tmp_path, "m.json", M)]) == 2

    @pytest.mark.parametrize("abc", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, np.inf)])
    def test_k_element_needs_finite_coordinates(self, abc):
        with pytest.raises(InputError):
            group_act(abc, np.eye(2))

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_audit_needs_a_positive_sample_count(self, samples, pairs):
        assert main(["audit", "sl2c", "--samples", samples]) == 2
        with pytest.raises(InputError):
            audit_formulas(pairs["sl2c_derived"], pairs["sl2c_derived"], sl2c_closed_forms(),
                           samples=int(samples))

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--samples", "100000000000"],
                                       ["--samples", str(AUDIT_MAX_SAMPLES + 1)]])
    def test_audit_rejects_before_allocating(self, flags, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit drew samples")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(["audit", "sl2c", *flags]) == 2
        assert capsys.readouterr().err.startswith("input error: the audit ")

    def test_audit_seed_and_sample_cap_through_the_api(self, pairs):
        de, cf = pairs["sl2c_derived"], sl2c_closed_forms()
        with pytest.raises(InputError, match="seed must be non-negative"):
            audit_formulas(de, de, cf, samples=1, seed=-1)
        with pytest.raises(InputError, match=f"1 to {AUDIT_MAX_SAMPLES} samples"):
            audit_formulas(de, de, cf, samples=AUDIT_MAX_SAMPLES + 1)
        assert audit_formulas(de, de, cf, samples=1, seed=2 ** 64).samples == 1

    @pytest.mark.parametrize("samples,seed,what", [
        (True, 0, "sample count"), (np.True_, 0, "sample count"), (2.5, 0, "sample count"),
        ("3", 0, "sample count"), (None, 0, "sample count"), (3, True, "seed"),
        (3, False, "seed"), (3, 1.0, "seed"), (3, "7", "seed"), (3, np.float64(7), "seed")])
    def test_audit_counts_must_be_integers(self, pairs, samples, seed, what):
        de = pairs["sl2c_derived"]
        with pytest.raises(InputError, match=f"^the audit {what} must be an integer, got "):
            audit_formulas(de, de, sl2c_closed_forms(), samples, seed)

    @pytest.mark.parametrize("args,kind", [((1000, 7), "int"), ((None,), "NoneType"),
                                           ((sl2c_closed_forms,), "function")])
    def test_audit_closed_forms_are_checked_before_the_draws(self, monkeypatch, pairs, args,
                                                             kind):
        draws = count_calls(monkeypatch, np.random, "default_rng")
        with pytest.raises(InputError, match=f"^the audit closed forms must be a "
                                             f"ClosedFormActions, got {kind}$"):
            audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"], *args)
        assert draws == []

    def test_audit_report_stores_plain_ints(self, pairs):
        de, pr, cf = pairs["sl2c_derived"], pairs["sl2c_printed"], sl2c_closed_forms()
        report = audit_formulas(de, pr, cf, np.int64(3), np.uint8(7))
        assert type(report.samples) is int and type(report.seed) is int
        assert report == audit_formulas(de, pr, cf, 3, 7)
        assert report.to_text().startswith("formula audit: 3 samples, seed 7, ")

    @pytest.mark.parametrize("matrix", [[[True, 0], [0, 1]], [[1, 0], [0, False]],
                                        [[[1.0, False], 0], [0, 1]]])
    def test_factor_rejects_boolean_entries(self, tmp_path, capsys, matrix):
        with pytest.raises(InputError, match="is not a number"):
            formats.matrix_from_json(matrix)
        assert main(["factor", write_json(tmp_path, "m.json", matrix)]) == 2
        assert capsys.readouterr().err.startswith("input error: matrix entry ")

    def test_boolean_dimension_rejected(self, tmp_path):
        alg = {"dim": True, "C": [[[0.0]]]}
        doc = {"g": alg, "h": alg, "rho": [[[0.0]]], "sigma": [[[0.0]]]}
        assert main(["check", write_json(tmp_path, "pair.json", doc)]) == 2

    def test_no_assert_in_the_package(self):
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


# -- batched audit against a per-sample reference -----------------------------

def reference_deviations(de, pr, samples, seed, cf):
    """Largest deviation of every audit row, one sample at a time through the
    public per-sample maps, matched_lp_rhs and the component-form plus-sign
    field."""
    n, m = de.g.dim, de.h.dim
    rng = np.random.default_rng(seed)
    etas, xis, mus, nus = (rng.standard_normal((samples, k)) for k in (m, n, n, m))
    out = {}

    def worst(name, pairs):
        out[name] = max(float(np.abs(np.asarray(a) - np.asarray(b)).max()) for a, b in pairs)

    worst("action |>", [(left_act(pr, e, x), left_act(de, e, x)) for e, x in zip(etas, xis)])
    worst("action <|", [(right_act(pr, e, x), right_act(de, e, x)) for e, x in zip(etas, xis)])
    duals = [("dual *<|", co_left_act, mus, etas, cf.co_left),
             ("dual *|>", co_right_act, xis, nus, cf.co_right),
             ("dual a*", a_star, etas, nus, cf.a_star),
             ("dual b*", b_star, xis, mus, cf.b_star)]
    for name, canonical, us, vs, closed in duals:
        worst(name, [(closed(u, v), canonical(pr, u, v)) for u, v in zip(us, vs)])

    double = de
    rows = list(zip(mus, nus, xis, etas))
    fields = [matched_lp_rhs(double, np.concatenate([mu, nu]), np.concatenate([x, y]))
              for mu, nu, x, y in rows]
    closed = [np.concatenate(cf.lp_rhs(mu, nu, x, y)) for mu, nu, x, y in rows]
    worst("closed-form rhs (mu)", [(c[:n], f[:n]) for c, f in zip(closed, fields)])
    worst("closed-form rhs (nu)", [(c[n:], f[n:]) for c, f in zip(closed, fields)])
    worst("canonical rhs energy rate",
          [(f[:n] @ x + f[n:] @ y, 0.0) for (_, _, x, y), f in zip(rows, fields)])
    plus = [np.concatenate([
        ad_star(de.g, x, mu) + co_left_act(de, mu, y) + a_star(de, y, nu),
        ad_star(de.h, y, nu) + co_right_act(de, x, nu) + b_star(de, x, mu)])
        for mu, nu, x, y in rows]
    worst("plus-sign rhs vs canonical", zip(plus, fields))
    worst("plus-sign rhs energy rate",
          [(p[:n] @ x + p[n:] @ y, 0.0) for (_, _, x, y), p in zip(rows, plus)])
    return out


class TestBatchedAudit:
    @pytest.mark.parametrize("printed,closed", [
        ("sl2c_printed", True), ("sl2c_printed", False), ("sl2c_derived", False),
    ])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_per_sample_reference(self, pairs, printed, closed, seed):
        de, pr = pairs["sl2c_derived"], pairs[printed]
        cf = sl2c_closed_forms() if closed else exact_closed_forms(pr, de)
        report = audit_formulas(de, pr, samples=200, seed=seed, closed_forms=cf)
        ref = reference_deviations(de, pr, 200, seed, cf)
        assert [line.name for line in report.lines] == list(ref)
        for line in report.lines:
            expected = ref[line.name]
            assert line.max_deviation == pytest.approx(expected, rel=1e-12, abs=1e-14), line.name
            assert line.status == ("MATCH" if expected <= report.tolerance else "MISMATCH")

    def test_exact_closed_forms_all_match(self, pairs):
        # the canonical transposes of the printed tensors, written as closed forms
        pr = pairs["sl2c_printed"]
        exact = exact_closed_forms(pr, pairs["sl2c_derived"])
        report = audit_formulas(pairs["sl2c_derived"], pr, samples=100, closed_forms=exact)
        statuses = {line.name: line.status for line in report.lines}
        assert statuses["closed-form rhs (mu)"] == statuses["closed-form rhs (nu)"] == "MATCH"
        assert all(statuses[name] == "MATCH" for name in
                   ("dual *<|", "dual *|>", "dual a*", "dual b*"))

    def test_closed_forms_on_stacked_rows_match_their_formulas(self, rng):
        # the printed closed forms, written out for one vector at a time
        k = np.array([0.0, 0.0, 1.0])
        cf = sl2c_closed_forms()
        mu, nu, x, y = rng.standard_normal((4, 20, 3))
        mu_dot, nu_dot = cf.lp_rhs(mu, nu, x, y)
        stacked = (cf.co_left(mu, y), cf.co_right(x, nu), cf.a_star(y, nu), cf.b_star(x, mu))
        for s in range(20):
            m_, n_, x_, y_ = mu[s], nu[s], x[s], y[s]
            expected = [
                np.cross(x_ + np.cross(y_, k), m_) + np.cross(y_, n_),
                (k @ y_) * n_ - (n_ @ y_ + m_ @ x_) * k + np.cross(n_, x_) + (m_ @ k) * x_,
                np.cross(m_, np.cross(k, y_)),
                np.cross(n_, x_),
                np.cross(y_, n_),
                (m_ @ k) * x_ - (m_ @ x_) * k,
            ]
            got = [mu_dot[s], nu_dot[s]] + [rows[s] for rows in stacked]
            for a, b in zip(got, expected):
                assert np.allclose(a, b, rtol=0, atol=1e-13)


# -- the exit contract under mutated inputs -------------------------------------

BASE_DOC = formats.pair_to_dict(builtin_pairs()["sl2c_derived"])
ODD_VALUES = [None, True, False, "x", "1.5", [], [1.0], {}, 0, -1, 2.5,
              float("nan"), float("inf"), -float("inf"), 1e308, -1e308]
PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def _scale_leaves(node, factor):
    if isinstance(node, list):
        return [_scale_leaves(v, factor) for v in node]
    if isinstance(node, float) or (isinstance(node, int) and not isinstance(node, bool)):
        return node * factor
    return node


@st.composite
def tensor_documents(draw):
    doc = json.loads(json.dumps(BASE_DOC))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["g", "h", "rho", "sigma"]))
        kind = draw(st.sampled_from(["scale", "leaf", "ragged", "dim", "names", "drop", "replace"]))
        holder, field = (doc[key], "C") if key in ("g", "h") and isinstance(doc[key], dict) \
            else (doc, key)
        if field not in holder:
            continue
        if kind == "scale":
            holder[field] = _scale_leaves(holder[field], 10.0 ** draw(st.integers(-320, 300)))
        elif kind in ("leaf", "ragged"):
            node = holder[field]
            while isinstance(node, list) and node and isinstance(node[0], list):
                node = node[draw(st.integers(0, len(node) - 1))]
            if isinstance(node, list) and node:
                if kind == "ragged":
                    node.pop()
                else:
                    node[draw(st.integers(0, len(node) - 1))] = draw(st.sampled_from(ODD_VALUES))
        elif kind in ("dim", "names") and holder is not doc:
            holder[kind] = draw(st.sampled_from(ODD_VALUES + [3, ["a", "b", "c"], "abc"]))
        elif kind == "drop":
            del holder[field]
        elif kind == "replace":
            holder[field] = draw(st.sampled_from(ODD_VALUES))
    return doc


finite = st.floats(min_value=-1e300, max_value=1e300).filter(lambda v: abs(v) > 1e-300)
number = st.one_of(st.floats(allow_nan=True, allow_infinity=True), finite)
cell = st.one_of(number, st.lists(number, min_size=2, max_size=2),
                 st.sampled_from(["x", None, True, [1.0], [1.0, "x"], [[1.0], 2.0]]))
unimodular = st.one_of(
    st.integers(-308, 308).map(lambda k: [[10.0 ** k, 0.0], [0.0, 10.0 ** -k]]),
    st.tuples(finite, finite, finite).map(
        lambda abc: [[abc[0], abc[1]], [abc[2], (1.0 + abc[1] * abc[2]) / abc[0]]]),
)
matrices = st.one_of(unimodular, st.lists(st.lists(cell, min_size=1, max_size=3),
                                          min_size=1, max_size=3))


@st.composite
def hamiltonian_documents(draw):
    """A quadratic Hamiltonian file, mutated: ragged, odd or non-finite
    cells, the wrong size, an asymmetric Q, a missing or replaced field."""
    size = draw(st.sampled_from([6, 6, 6, 3, 0, 5, 7]))
    doc = {"Q": np.eye(size).tolist(), "b": [0.0] * size}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["Q", "b"]))
        kind = draw(st.sampled_from(["ragged", "leaf", "asymmetric", "drop", "replace"]))
        node = doc.get(key)
        if kind == "drop":
            doc.pop(key, None)
        elif kind == "replace":
            doc[key] = draw(st.sampled_from(ODD_VALUES))
        elif isinstance(node, list) and node:
            row = node[draw(st.integers(0, len(node) - 1))] if key == "Q" else node
            if not (isinstance(row, list) and row):
                continue
            i = draw(st.integers(0, len(row) - 1))
            if kind == "ragged":
                row.pop()
            elif kind == "leaf":
                row[i] = draw(st.sampled_from(ODD_VALUES))
            elif isinstance(row[i], float):
                row[i] += draw(st.sampled_from([1e-3, 1.0, 1e300]))
    return doc


invariant_lists = st.lists(
    st.sampled_from(["mu_norm2", "nu_norm2", "mu_dot_nu", "", " ", "H", "bogus", "MU_NORM2"]),
    max_size=5).map(",".join)


# dt and t_end cells for the grid fuzz.  Every pair either gives at most 2,500
# steps or is rejected before the grid is allocated (see
# test_drawn_grids_are_small_or_rejected).
GRID_VALUES = ["nan", "inf", "-inf", "0", "-0.05", "-1e300", "1e-300", "1e300", "abc", "",
               "0.001", "0.05", "0.1", "0.3", "1", "2.5"]
INITIAL_CELLS = ["1", "0", "-0.5", "2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
                 "abc", ""]
initial_states = st.one_of(
    st.sampled_from(["1,0,0,0,1,0", "0.5,-1,0,2,1,0"]),
    st.lists(st.sampled_from(INITIAL_CELLS), min_size=6, max_size=6).map(",".join),
    st.lists(st.sampled_from(INITIAL_CELLS), max_size=8).map(",".join),
)


# --samples and --seed cells for the audit fuzz: every drawn count is at most
# 12 or rejected before the samples are drawn (see
# test_drawn_audit_samples_are_small_or_rejected).
AUDIT_SAMPLES = [-10 ** 11, AUDIT_MAX_SAMPLES + 1, 10 ** 11, 2 ** 64, "abc", "1e3", "", "-0"]
AUDIT_SEEDS = [-2 ** 63, -1, 2 ** 64, 10 ** 30, "x", "1.5", ""]


class TestExitContract:
    def test_drawn_audit_samples_are_small_or_rejected(self, pairs):
        de = pairs["sl2c_derived"]
        for samples in AUDIT_SAMPLES:
            if isinstance(samples, int) and samples > 12:
                with pytest.raises(InputError):
                    audit_formulas(de, de, sl2c_closed_forms(), samples=samples)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(samples=st.one_of(st.integers(-5, 12), st.sampled_from(AUDIT_SAMPLES)),
           seed=st.one_of(st.integers(-3, 3), st.sampled_from(AUDIT_SEEDS)))
    def test_audit_samples_and_seeds(self, samples, seed):
        rc = run_main(["audit", "sl2c", "--samples", str(samples), "--seed", str(seed)])[0]
        valid = (isinstance(samples, int) and 1 <= samples <= 12
                 and isinstance(seed, int) and seed >= 0)
        assert rc == (0 if valid else 2)

    def test_drawn_grids_are_small_or_rejected(self):
        for dt, t_end in itertools.product(GRID_VALUES, repeat=2):
            try:
                ratio = float(t_end) / float(dt)
            except (ValueError, ZeroDivisionError):
                continue
            if not 0 < ratio <= 2500 * (1 + 1e-9):
                with pytest.raises(InputError):
                    _grid(float(dt), float(t_end))

    @PROPERTY_SETTINGS
    @given(dt=st.sampled_from(GRID_VALUES), t_end=st.sampled_from(GRID_VALUES),
           initial=initial_states)
    def test_grids_and_initial_states(self, dt, t_end, initial):
        with tempfile.TemporaryDirectory() as tmp:
            argv = simulate_args(str(pathlib.Path(tmp) / "r"),
                                 **{"--dt": None, "--t-end": None, "--initial": None})
            argv += [f"--dt={dt}", f"--t-end={t_end}", f"--initial={initial}"]
            assert run_main(argv)[0] in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(doc=tensor_documents())
    def test_mutated_tensor_documents(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(pathlib.Path(tmp) / "pair.json")
            pathlib.Path(path).write_text(json.dumps(doc))
            assert run_main(["check", path])[0] in (0, 1, 2)
            argv = simulate_args(str(pathlib.Path(tmp) / "r"),
                                 **{"--pair": path, "--dt": "0.05", "--t-end": "0.2"})
            assert run_main(argv)[0] in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(ham=st.one_of(hamiltonian_documents(),
                         st.sampled_from(["quadratic_identity", "heavy_top", "rigid_body_123"])),
           invariants=invariant_lists, unequal=st.booleans(),
           mode=st.sampled_from(["lp", "ep"]), convention=st.sampled_from(["right", "left"]))
    def test_mutated_hamiltonians_and_invariants(self, ham, invariants, unequal, mode,
                                                 convention):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            if isinstance(ham, dict):
                (tmp / "h.json").write_text(json.dumps(ham))
                ham = str(tmp / "h.json")
            flags = {"--hamiltonian": ham, "--invariants": invariants, "--mode": mode,
                     "--convention": convention, "--dt": "0.05", "--t-end": "0.2"}
            if unequal:
                (tmp / "pair.json").write_text(json.dumps(UNEQUAL_DOC))
                flags.update({"--pair": str(tmp / "pair.json"), "--initial": "1,2,3"})
            prefix = str(tmp / "r")
            rc = run_main(simulate_args(prefix, **flags))[0]
            assert rc in (0, 1, 2)
            if rc == 0:
                names = [n.strip() for n in invariants.split(",") if n.strip()]
                header = pathlib.Path(prefix + ".csv").read_text().splitlines()[0].split(",")
                assert header[len(header) - len(names):] == names

    @PROPERTY_SETTINGS
    @given(matrix=matrices)
    def test_factor_matrices(self, matrix):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "m.json"
            path.write_text(json.dumps(matrix))
            rc, out = run_main(["factor", str(path)])
        assert rc in (0, 1, 2)
        if rc == 0:
            doc = json.loads(out)
            assert np.all(np.isfinite(np.array(doc["su2"], dtype=float)))
            assert np.all(np.isfinite(doc["k"]))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(samples=st.one_of(st.integers(-5, 12), st.sampled_from(["abc", "1.5", "", "-0", "1e3"])))
    def test_audit_sample_counts(self, samples):
        rc = run_main(["audit", "sl2c", "--samples", str(samples)])[0]
        expected_ok = isinstance(samples, int) and samples > 0
        assert rc == (0 if expected_ok else 2)
