"""File formats: the JSON tensor document, trajectory CSV, and 2x2 matrices.

The tensor document is a UTF-8 JSON object

    {"g": {"dim": n, "C": [[[...]]], "names": [...]},
     "h": {"dim": m, "C": [[[...]]], "names": [...]},
     "rho": [[[...]]], "sigma": [[[...]]]}

with every tensor dense and nested exactly [target][first][second].  CSV
rows are printed with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import InputError
from .lie_core import LieAlgebra
from .matched_pair import MatchedPair


def _require(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise InputError(f"{where} is missing the key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise InputError(f"{where}[{key!r}] must be {kind.__name__}")
    return value


def float_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; ragged or non-numeric nesting is an InputError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not a numeric array: {exc}") from exc


def algebra_from_dict(doc: dict, where: str = "algebra") -> LieAlgebra:
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be an object")
    dim = _require(doc, "dim", int, where)
    constants = float_array(_require(doc, "C", list, where), f"{where}['C']")
    if constants.shape != (dim, dim, dim):
        raise InputError(
            f"{where}: tensor shape {constants.shape} does not match dim {dim}"
        )
    names = doc.get("names")
    return LieAlgebra(constants, names, validate=False)


def algebra_to_dict(alg: LieAlgebra) -> dict:
    doc = {"dim": alg.dim, "C": alg.C.tolist()}
    if alg.names is not None:
        doc["names"] = list(alg.names)
    return doc


def pair_from_dict(doc: dict) -> MatchedPair:
    """Build an (unvalidated) matched pair from a tensor document."""
    if not isinstance(doc, dict):
        raise InputError("tensor document must be a JSON object")
    g = algebra_from_dict(_require(doc, "g", dict, "document"), "g")
    h = algebra_from_dict(_require(doc, "h", dict, "document"), "h")
    rho = float_array(_require(doc, "rho", list, "document"), "rho")
    sigma = float_array(_require(doc, "sigma", list, "document"), "sigma")
    return MatchedPair(g, h, rho, sigma, validate=False)


def pair_to_dict(mp: MatchedPair) -> dict:
    return {
        "g": algebra_to_dict(mp.g),
        "h": algebra_to_dict(mp.h),
        "rho": mp.rho.tolist(),
        "sigma": mp.sigma.tolist(),
    }


def load_pair_document(path: str) -> MatchedPair:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read tensor document {path}: {exc}") from exc
    return pair_from_dict(doc)


def dump_pair_document(mp: MatchedPair, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair_to_dict(mp), fh, indent=2)
        fh.write("\n")


# -- 2x2 complex matrices ------------------------------------------------------

def matrix_from_json(entries) -> np.ndarray:
    """Parse a 2x2 complex matrix; entries are [re, im] pairs or plain reals."""
    arr = np.asarray(entries, dtype=object)
    if arr.shape not in ((2, 2), (2, 2, 2)):
        raise InputError(f"expected a 2x2 matrix, got shape {arr.shape}")
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            cell = entries[i][j]
            if isinstance(cell, (int, float)):
                out[i, j] = float(cell)
            elif isinstance(cell, (list, tuple)) and len(cell) == 2:
                out[i, j] = float(cell[0]) + 1j * float(cell[1])
            else:
                raise InputError(f"matrix entry {cell!r} is not a number or [re, im]")
    return out


def matrix_to_json(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(M[i, j].real), float(M[i, j].imag)] for j in range(2)]
            for i in range(2)]


# -- trajectory CSV -----------------------------------------------------------

CSV_BLOCK_ROWS = 256  # rows per "%"-format call; bounds the text held at once


def trajectory_to_csv(record: TrajectoryRecord, path: str) -> None:
    """Columns: t, mu_1..mu_n, nu_1..nu_m, H, then extra invariants.  Cells
    are "%.17g", the same text as f"{x:.17g}"."""
    n, m = record.split
    extras = [name for name in record.invariants if name != "H"]
    header = (["t"]
              + [f"mu_{i + 1}" for i in range(n)]
              + [f"nu_{j + 1}" for j in range(m)]
              + ["H"] + extras)
    columns = [record.times[:, None], record.states]
    columns += [record.invariants[name][:, None] for name in ["H"] + extras]
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(record.times), CSV_BLOCK_ROWS):
            block = np.hstack([col[start:start + CSV_BLOCK_ROWS] for col in columns])
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def summary_dict(record: TrajectoryRecord, wall_time_s: float, **meta) -> dict:
    return {**meta, "steps": len(record.times) - 1, "drift": dict(record.drift),
            "wall_time_s": wall_time_s}
