"""File formats: the JSON tensor document, trajectory CSV, and 2x2 matrices.

The tensor document is a UTF-8 JSON object

    {"g": {"dim": n, "C": [[[...]]], "names": [...]},
     "h": {"dim": m, "C": [[[...]]], "names": [...]},
     "rho": [[[...]]], "sigma": [[[...]]]}

with every tensor dense and nested exactly [target][first][second].  A CSV
cell is the text of "%.17g" % x, so values round-trip exactly.  numpy builds
it where 10**E <= |x| < 10**(E + 1), E in -11..16: s = |x| * 10**(16 - E) in
np.longdouble has exact operands, so it is rounded once, by at most 2**-8,
and |s - rint(s)| < 0.5 - 2**-7 proves rint(s) the correctly rounded 17-digit
significand and no tie.  Every other cell (0, inf, nan, E out of range, near
ties, neighbours of 10**k, all cells where long double is double) is "%"'s.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import InputError
from .lie_core import LieAlgebra, float_array
from .matched_pair import MatchedPair


def read_json(source, what: str):
    """The JSON document in ``source``, a path or a text stream; an unreadable,
    non-UTF-8, malformed or too deeply nested document is an InputError."""
    try:
        if not isinstance(source, str):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        name = getattr(source, "name", source)
        raise InputError(f"cannot read {what} {name}: {exc}") from exc


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened for writing UTF-8 text; any OSError is an InputError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(doc, path: str) -> None:
    with _output(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _require(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise InputError(f"{where} is missing the key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{where}[{key!r}] must be {kind.__name__}")
    return value


def basis_names(doc: dict, key: str, where: str) -> tuple[str, ...] | None:
    """``doc[key]`` as basis names: None if absent or null, else a list of strings."""
    names = doc.get(key)
    if names is None:
        return None
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise InputError(f"{where}[{key!r}] must be a list of strings")
    return tuple(names)


def algebra_from_dict(doc: dict, where: str = "algebra") -> LieAlgebra:
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be an object")
    dim = _require(doc, "dim", int, where)
    constants = float_array(_require(doc, "C", list, where), f"{where}['C']")
    if constants.shape != (dim, dim, dim):
        raise InputError(
            f"{where}: tensor shape {constants.shape} does not match dim {dim}"
        )
    return LieAlgebra(constants, basis_names(doc, "names", where), validate=False)


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
    return pair_from_dict(read_json(path, "tensor document"))


def dump_pair_document(mp: MatchedPair, path: str) -> None:
    write_json(pair_to_dict(mp), path)


# -- 2x2 complex matrices ------------------------------------------------------

def _number(value) -> bool:  # JSON true/false load as bool, an int subclass
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _object_shape(value) -> tuple:
    """``np.asarray(value, dtype=object).shape``: nested list lengths down to where they differ."""
    if not isinstance(value, (list, tuple)):
        return ()
    return (len(value),) + tuple(os.path.commonprefix([_object_shape(v) for v in value]))


def matrix_from_json(entries) -> np.ndarray:
    """Parse a 2x2 complex matrix; entries are [re, im] pairs or plain reals."""
    rows = entries if isinstance(entries, (list, tuple)) and len(entries) == 2 else ()
    cells = [cell for row in rows if isinstance(row, (list, tuple)) and len(row) == 2 for cell in row]
    pairs = [isinstance(c, (list, tuple)) and len(c) == 2 and all(map(_number, c)) for c in cells]
    bad = [c for c, pair in zip(cells, pairs) if not (pair or _number(c))]
    if len(cells) != 4 or bad:
        shape = _object_shape(entries)
        if shape not in ((2, 2), (2, 2, 2)):
            raise InputError(f"expected a 2x2 matrix, got shape {shape}")
        raise InputError(f"matrix entry {bad[0]!r} is not a number or [re, im]")
    parts = [x for c, pair in zip(cells, pairs) for x in (c if pair else (c, 0))]
    return float_array(parts, "matrix").view(complex).reshape(2, 2)  # each (re, im) bit for bit


def matrix_to_json(M: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(M, dtype=complex).tolist()]


_FACTOR_TEXT = json.dumps({"su2": [[[0, 0]] * 2] * 2, "k": [0] * 3}, indent=2).replace("0", "%s")


def factor_to_json(U: np.ndarray, k) -> str:
    """``json.dumps({"su2": matrix_to_json(U), "k": [k.a, k.b, k.c]}, indent=2)`` for finite
    numbers: that text, built once with a %s per number, filled as json writes them."""
    numbers = [x for z in U.ravel().tolist() for x in (z.real, z.imag)] + [k.a, k.b, k.c]
    return _FACTOR_TEXT % tuple(map(float.__repr__, numbers))


# -- trajectory CSV -----------------------------------------------------------

CSV_BLOCK_ROWS = 256  # rows formatted at once; bounds the text held at once


def _cell_templates(count: int) -> np.ndarray:
    """Row 17 p + k: the 44 bytes of a cell with decimal exponent 16 - p whose
    last written digit is k, with 255 on digits (and NUL where no character is):
    0 sign | 1-5 "0.000" | 6-38 each digit then a "." slot | 39-42 "e-05" | 43 ","."""
    rows = np.zeros((count, 17, 44), np.uint8)
    rows[..., 43] = ord(",")
    for p, k in np.ndindex(count, 17):
        row, E = rows[p, k], 16 - p
        row[6:7 + 2 * k:2] = 255
        if E < -4:
            row[7] = ord(".") if k else 0
            row[39:43] = list(b"e-%02d" % -E)
        elif E < 0:
            row[1:2 - E] = list(b"0." + b"0" * (-1 - E))
        elif E < k:
            row[7 + 2 * E] = ord(".")
    return rows.reshape(-1, 44)


# 10**p while np.longdouble holds it exactly: p <= 27 with a 64-bit significand
_POW10 = np.longdouble(10) ** np.arange(64)
_POW10 = _POW10[:[int(v) == 10**p for p, v in enumerate(_POW10)].index(False)]
# |s - rint(s)| below this proves rint(s) correct; negative if long double is double
_MARGIN = 0.5 - float(np.spacing(_POW10.dtype.type(1e17)))
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()  # i -> the 4 ASCII digits of i
_TEMPLATES = _cell_templates(len(_POW10))


def _significands(x: np.ndarray):
    """(ok, p, n): where ok, 10**(16 - p) <= |x| < 10**(17 - p) and n is |x|'s
    correctly rounded 17-digit significand, not a tie; elsewhere n = 10**16."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 16 - np.floor(np.log10(a))  # off by one near 10**k: the range test fails
        ok = (p >= 0) & (p < len(_POW10))
        p = np.where(ok, p, 0).astype(np.intp)
        s = a * _POW10[p]  # exact operands, so one rounding, by at most 2**-8
        n = np.rint(s)
        ok &= np.abs((s - n).astype(float)) < _MARGIN
        n = n.astype(np.int64)
    ok &= (n > 10**16) & (n < 10**17)
    return ok, p, np.where(ok, n, 10**16)


def _csv_block(block: np.ndarray) -> bytes:
    """``block``'s rows as CSV text, each cell the bytes of "%.17g" % x."""
    x = block.ravel()
    ok, p, n = _significands(x)
    top, rest = np.divmod(n, 10**16)
    hi, lo = np.divmod(rest, 10**8)
    groups = np.column_stack((top,) + np.divmod(hi, 10**4) + np.divmod(lo, 10**4))
    digits = _DIGITS4[groups].view(np.uint8)[:, 3:]
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    cells = _TEMPLATES[17 * p + np.maximum(last, 16 - p)]  # %g keeps integer zeros
    cells[:, 6:39:2] &= digits
    cells[np.signbit(x), 0] = ord("-")
    bad = np.flatnonzero(~ok)
    text = np.array(["%.17g" % v for v in x[bad].tolist()], "S43")
    cells[bad, :43] = text.view(np.uint8).reshape(-1, 43)
    cells.reshape(block.shape + (44,))[:, -1, 43] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def trajectory_to_csv(record: TrajectoryRecord, path: str) -> None:
    """Columns: t, mu_1..mu_n, nu_1..nu_m, H, then extra invariants.  Cells
    are "%.17g" text (the same as f"{x:.17g}"), built in numpy and proved
    exact cell by cell as the module docstring says, else formatted by "%"."""
    n, m = record.split
    extras = [name for name in record.invariants if name != "H"]
    header = (["t"]
              + [f"mu_{i + 1}" for i in range(n)]
              + [f"nu_{j + 1}" for j in range(m)]
              + ["H"] + extras)
    columns = [record.times[:, None], record.states]
    columns += [record.invariants[name][:, None] for name in ["H"] + extras]
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(record.times), CSV_BLOCK_ROWS):
            block = np.hstack([col[start:start + CSV_BLOCK_ROWS] for col in columns])
            fh.write(_csv_block(block).decode("ascii"))


def summary_dict(record: TrajectoryRecord, wall_time_s: float, **meta) -> dict:
    return {**meta, "steps": len(record.times) - 1, "drift": dict(record.drift),
            "wall_time_s": wall_time_s}
