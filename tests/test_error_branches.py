"""One test per error branch that no other test reaches: through ``mpmech``'s
command line with its exit code where the command line can reach the branch,
else through the API call that raises it."""

import json

import numpy as np
import pytest

from mpmech import formats
from mpmech.cli import main
from mpmech.errors import DimensionMismatch, InputError
from mpmech.matched_pair import audit_formulas
from mpmech.sl2c import (derive_actions_from_embedding, iwasawa_factor, k_basis,
                         sl2c_closed_forms, su2_basis)

from helpers import random_pair


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


def write_document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCommandLine:
    def test_derive_an_unknown_builtin_basis(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run(capsys, ["derive", "--builtin", "sl3c", "--out", str(out)]) == (
            2, "input error: unknown built-in basis 'sl3c'; available: sl2c\n")
        assert not out.exists()

    def test_check_a_document_that_is_an_array(self, tmp_path, capsys):
        path = write_document(tmp_path, [])
        assert run(capsys, ["check", path]) == (
            2, "input error: tensor document must be a JSON object\n")

    def test_check_constants_whose_shape_is_not_the_dimension(self, tmp_path, capsys, sl2c_derived):
        doc = formats.pair_to_dict(sl2c_derived)
        doc["g"]["dim"] = 2
        assert run(capsys, ["check", write_document(tmp_path, doc)]) == (
            2, "input error: g: tensor shape (3, 3, 3) does not match dim 2\n")

    def test_check_an_action_tensor_of_the_wrong_shape(self, tmp_path, capsys, sl2c_derived):
        doc = formats.pair_to_dict(sl2c_derived)
        doc["rho"] = np.zeros((3, 3, 2)).tolist()
        assert run(capsys, ["check", write_document(tmp_path, doc)]) == (
            2, "input error: rho has shape (3, 3, 2), expected (3, 3, 3)\n")


class TestApi:
    def test_algebra_entry_that_is_not_an_object(self):
        # pair_from_dict requires an object first, so only a direct call gets here
        with pytest.raises(InputError, match="^h must be an object$"):
            formats.algebra_from_dict([], "h")

    def test_audit_of_pairs_with_different_splits(self, sl2c_derived):
        with pytest.raises(DimensionMismatch, match="^audited pairs live on different algebras$"):
            audit_formulas(sl2c_derived, random_pair(3, 2, 4), sl2c_closed_forms(), samples=10)

    def test_audit_line_of_an_unknown_row(self, sl2c_derived, sl2c_printed):
        report = audit_formulas(sl2c_derived, sl2c_printed, sl2c_closed_forms(), samples=10)
        assert report.line("dual *|>").name == "dual *|>"
        with pytest.raises(KeyError, match="no such row"):
            report.line("no such row")

    def test_factor_a_3x3_array(self):
        # the command line reads 2x2 matrices only
        with pytest.raises(InputError, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
            iwasawa_factor(np.eye(3))

    def test_derive_from_a_3x3_basis_matrix(self):
        with pytest.raises(InputError, match="^basis matrices must be 2x2$"):
            derive_actions_from_embedding(su2_basis(), [np.eye(3)])

    def test_basis_checks_run_g_before_h(self):
        # every g matrix is read, then each is checked, before h is read
        nan = np.full((2, 2), np.nan)
        with pytest.raises(InputError, match="^basis matrices must be 2x2$"):
            derive_actions_from_embedding([np.eye(2), np.eye(3)], [nan, [[1, "a"], [0, 0]]])
        with pytest.raises(InputError, match="^non-finite entries in basis matrices$"):
            derive_actions_from_embedding([nan, np.eye(3)], k_basis())
        with pytest.raises(InputError, match="^non-finite entries in basis matrices$"):
            derive_actions_from_embedding([nan], [[[1, "a"], [0, 0]]])
        with pytest.raises(InputError, match="is not a numeric array"):
            derive_actions_from_embedding([np.eye(3), [[1, "a"], [0, 0]]], k_basis())
