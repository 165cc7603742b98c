"""File formats: the JSON tensor document, trajectory CSV, and 2x2 matrices.

The tensor document is a UTF-8 JSON object

    {"g": {"dim": n, "C": [[[...]]], "names": [...]},
     "h": {"dim": m, "C": [[[...]]], "names": [...]},
     "rho": [[[...]]], "sigma": [[[...]]]}

with every tensor dense and nested exactly [target][first][second].  A CSV
cell is the text of "%.17g" % x, so values round-trip exactly.  numpy builds
it in float64 where 1e-28 <= |x| < 1e17: with 10**E <= |x| < 10**(E + 1) and
p = 16 - E in 0..44, 10**p = hi + lo exactly, lo = 0 for p <= 22 and |lo| <=
ulp(hi) / 2 above.  Dekker's two-product gives |x| hi = P + e exactly, with
P = fl(|x| hi) and |e| <= 8.  s = |x| 10**p < 1e17, so |x lo| <= s 2**-53 < 16,
t = fl(|x| lo) is within 2**-50 of it, and r = fl(e + t) within 2**-48 of s - P.
P > 2**53 is an integer, so |r - rint(r)| < 0.5 - 2**-40 proves P + rint(r) the
correctly rounded 17-digit significand and s no tie.  Every other cell (0,
inf, nan, |x| out of range, near ties, neighbours of 10**k) is "%"'s.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import InputError
from .lie_core import LieAlgebra, float_array
from .matched_pair import MatchedPair


def read_json(source, what: str):
    """The JSON document in ``source``, a path or a text stream; an unreadable,
    non-UTF-8, malformed or too deeply nested document is an InputError.  A path
    is read at once, as strict UTF-8 with universal newlines like text mode."""
    try:
        if not isinstance(source, str):
            return json.load(source)
        with open(source, "rb") as fh:
            text = fh.read().decode("utf-8")
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, ValueError, RecursionError) as exc:
        name = getattr(source, "name", source)
        raise InputError(f"cannot read {what} {name}: {exc}") from exc


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened for writing bytes; any OSError is an InputError."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(doc, path: str) -> None:
    """``doc`` as ``json.dump(doc, fh, indent=2)`` text and a newline, in one
    write: json.dump writes token by token.  The text is ASCII."""
    text = json.dumps(doc, indent=2) + "\n"
    with _output(path) as fh:
        fh.write(text.encode())


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


def factor_to_json(U: np.ndarray, k: np.ndarray) -> str:
    """``json.dumps({"su2": matrix_to_json(U), "k": k.tolist()}, indent=2)`` for finite
    numbers: that text, built once with a %s per number, filled as json writes them."""
    numbers = [x for z in U.ravel().tolist() for x in (z.real, z.imag)] + k.tolist()
    return _FACTOR_TEXT % tuple(map(float.__repr__, numbers))


# -- trajectory CSV -----------------------------------------------------------

CSV_BLOCK_ROWS = 256  # rows formatted at once; bounds the text held at once


@functools.cache
def _tens() -> np.ndarray:
    """(4, 45): column p holds 10**p = hi + lo, hi the nearest double and lo
    the exact rest, then hi's Veltkamp halves hh + hl = hi, 26 bits each."""
    hi = np.array([float(10**p) for p in range(45)])
    lo = [float(10**p - int(v)) for p, v in enumerate(hi.tolist())]  # <= 50 bits: exact
    hh = hi * 134217729.0 - (hi * 134217729.0 - hi)
    return np.array([hi, lo, hh, hi - hh])


@functools.cache
def _cell_tables():
    """(templates, top, words, last).  Row 17 p + k of ``templates``: the 48 bytes
    of a cell with exponent 16 - p and last digit k, 255 on the sign and digits:
    0 sign | 1-5 "0.000" | 6-38 each digit then a "." slot | 39-42 "e-05" | 43 ",".
    ``top[d + 10 sign]`` is bytes 0-7 for a top digit d, ``words[g]`` the next 8
    for a 4-digit group g, 255 elsewhere; group j ends in digit ``4 j + last[g]``."""
    k = np.arange(17)
    rows = np.zeros((45, 17, 48), np.uint8)
    rows[..., 0], rows[..., 43], rows[..., 6:40:2] = 255, ord(","), 255 * (k <= k[:, None])
    for p in range(45):
        E = 16 - p
        if E < -4:
            rows[p, 1:, 7], rows[p, :, 39:43] = ord("."), list(b"e-%02d" % -E)
        elif E < 0:
            rows[p, :, 1:2 - E] = list(b"0." + b"0" * (-1 - E))
        else:  # a "." after digit E if a later digit is written
            rows[p, E + 1:, 7 + 2 * E] = ord(".")
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
    words = np.full((10000, 8), 255, np.uint8)
    words[:, ::2] = digits + ord("0")
    top = np.full((2, 10, 8), 255, np.uint8)
    top[:, :, 0], top[:, :, 6] = [[0], [ord("-")]], words[:10, 6]
    last = np.where(digits.any(axis=1), 4 - np.argmax(digits[:, ::-1] != 0, axis=1), -12)
    return (rows.reshape(-1, 48).view(np.uint64), top.view(np.uint64).ravel(),
            words.view(np.uint64).ravel(), last.astype(np.int8))


_GROUPS, _OFFSETS = 10 ** np.arange(16, -1, -4)[:, None], np.int8([[0], [4], [8], [12]])


def _significands(x: np.ndarray):
    """(ok, p, n): where ok, 10**(16 - p) <= |x| < 10**(17 - p) and n is |x|'s
    correctly rounded 17-digit significand, not a tie; elsewhere n = 10**16."""
    a = np.abs(x)
    with np.errstate(all="ignore"):  # 0, inf, nan and p off by one fail the tests below
        p = np.fmin(np.fmax(16 - np.floor(np.log10(a)), 0), 44).astype(np.intp)
        hi, lo, hh, hl = np.take(_tens(), p, axis=1)
        c = a * 134217729.0
        ah = c - (c - a)  # Veltkamp: a = ah + al, 26 bits each
        al = a - ah
        s = a * hi
        r = ((ah * hh - s) + ah * hl + al * hh) + al * hl + a * lo  # e + t
        q = np.rint(r)
        ok = np.abs(r - q) < 0.5 - 2.0**-40
        n = s.astype(np.int64) + q.astype(np.int64)
    ok &= (n > 10**16) & (n < 10**17)
    return ok, p, np.where(ok, n, 10**16)


def _csv_block(block: np.ndarray) -> bytes:
    """``block``'s rows as CSV text, each cell the bytes of "%.17g" % x."""
    templates, top, words, last = _cell_tables()
    x = block.ravel()
    ok, p, n = _significands(x)
    Q = n // _GROUPS  # the top digit, then 4 more digits a row
    G = Q[1:] - Q[:-1] * 10**4  # (4, cells): the 4-digit groups after the top digit
    k = (np.take(last, G) + _OFFSETS).max(axis=0)
    cells = np.take(templates, 17 * p + np.maximum(k, 16 - p), axis=0)  # %g keeps integer zeros
    cells[:, 0] &= np.take(top, Q[0] + 10 * np.signbit(x))
    cells.T[1:5] &= np.take(words, G)
    bad = np.flatnonzero(~ok)
    text = np.array(["%.17g" % v for v in x[bad].tolist()], "S43")
    chars = cells.view(np.uint8)
    chars[bad, :43] = text.view(np.uint8).reshape(-1, 43)
    chars.reshape(block.shape + (48,))[:, -1, 43] = ord("\n")
    return chars.tobytes().translate(None, b"\0")


def trajectory_to_csv(record: TrajectoryRecord, path: str) -> None:
    """Columns: t, mu_1..mu_n, nu_1..nu_m, H, then extra invariants.  Cells
    are "%.17g" text (the same as f"{x:.17g}"), built in numpy and proved
    exact cell by cell as the module docstring says, else formatted by "%"."""
    n, m = record.split
    extras = [name for name in record.invariants if name != "H"]
    header = ["t", *(f"mu_{i + 1}" for i in range(n)), *(f"nu_{j + 1}" for j in range(m)),
              "H", *extras]
    columns = [record.times[:, None], record.states]
    columns += [record.invariants[name][:, None] for name in ["H"] + extras]
    with _output(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(record.times), CSV_BLOCK_ROWS):
            block = np.concatenate([col[start:start + CSV_BLOCK_ROWS] for col in columns], axis=1)
            fh.write(_csv_block(block))


def summary_dict(record: TrajectoryRecord, wall_time_s: float, **meta) -> dict:
    return {**meta, "steps": len(record.times) - 1, "drift": dict(record.drift),
            "wall_time_s": wall_time_s}
