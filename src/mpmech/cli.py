"""Batch command line front end.

Subcommands: ``check`` (validate a tensor document or built-in pair),
``simulate`` (integrate a Lie-Poisson or Euler-Poincare flow to CSV +
summary JSON), ``audit`` (reconcile the closed-form action set against the
derived one), ``derive`` (tensor document from a matrix basis), ``factor``
(factor one determinant-1 matrix).

Exit codes: 0 success, 1 validation or run failure, 2 malformed input, which
covers unreadable, non-UTF-8 or too deeply nested input files, numbers outside
the float range (such as a 400-digit JSON integer), NaN or infinite entries in
tensors, Hamiltonians, initial states and matrix bases, output paths that
cannot be written or name no file, an invariant named twice, simulate grids
over 2**23 (``MAX_STEPS``) steps, and audits of over 2**20
(``AUDIT_MAX_SAMPLES``) samples or with a negative seed.  ``simulate`` hands the
parsed initial state (in ep mode the Hamiltonian too) to the flow unchanged, and
the flow's conditions on them are the ones its docstring gives.  ``main`` may be
called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

import numpy as np

from . import formats, sl2c
from .dynamics import HamiltonianSpec, integrate, integrate_ep
from .errors import InputError, IntegrationError, ValidationError
from .matched_pair import MatchedPair, audit_formulas, validation_report


def _pairing(n: int, m: int, first: str, second: str) -> HamiltonianSpec:
    """The pairing of two blocks of z = (mu, nu) as 0.5 z^T Q z."""
    A, B = ({"mu": np.eye(n + m)[:n], "nu": np.eye(n + m)[n:]}[k] for k in (first, second))
    if len(A) != len(B):
        raise InputError(f"invariant mu_dot_nu needs dim g == dim h, got {n} and {m}")
    return HamiltonianSpec.quadratic(A.T @ B + B.T @ A)


# name -> (dim g, dim h) -> quadratic spec, built once per (dim g, dim h): Q and b are read-only
BUILTIN_INVARIANTS = {
    "mu_norm2": functools.cache(lambda n, m: _pairing(n, m, "mu", "mu")),
    "nu_norm2": functools.cache(lambda n, m: _pairing(n, m, "nu", "nu")),
    "mu_dot_nu": functools.cache(lambda n, m: _pairing(n, m, "mu", "nu")),
}


def load_pair(name_or_path: str) -> MatchedPair:
    if name_or_path in sl2c.BUILTIN_PAIRS:
        return sl2c.builtin_pairs()[name_or_path]
    return formats.load_pair_document(name_or_path)


def _heavy_top(n: int, m: int) -> HamiltonianSpec:
    if m < 3:
        raise InputError("heavy_top needs an h factor of dimension >= 3")
    return HamiltonianSpec.quadratic(np.diag(np.repeat([1.0, 0.0], (n, m))), np.eye(n + m)[n + 2])


def _rigid_body_123(n: int, m: int) -> HamiltonianSpec:
    if n != 3:
        raise InputError("rigid_body_123 needs a g factor of dimension 3")
    return HamiltonianSpec.quadratic(np.diag([1.0, 0.5, 1.0 / 3.0] + [0.0] * m))


BUILTIN_HAMILTONIANS = {  # as BUILTIN_INVARIANTS
    "quadratic_identity": functools.cache(lambda n, m: HamiltonianSpec.quadratic(np.eye(n + m))),
    "heavy_top": functools.cache(_heavy_top),
    "rigid_body_123": functools.cache(_rigid_body_123),
}


def load_hamiltonian(name_or_path: str, n: int, m: int) -> HamiltonianSpec:
    """A built-in Hamiltonian on dims (n, m), else ``HamiltonianSpec.quadratic`` of the
    ``Q`` and optional ``b`` of the JSON object at the path."""
    if name_or_path in BUILTIN_HAMILTONIANS:
        return BUILTIN_HAMILTONIANS[name_or_path](n, m)
    doc = formats.read_json(name_or_path, "Hamiltonian")
    if not isinstance(doc, dict) or "Q" not in doc:
        raise InputError("Hamiltonian file must be an object with a 'Q' matrix")
    return HamiltonianSpec.quadratic(doc["Q"], doc.get("b"))


def parse_initial(text: str) -> np.ndarray:
    """The floats of ``text``, separated by commas or semicolons; their count and
    finiteness are checked by the flow that starts from them."""
    try:
        return np.array([float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()])
    except ValueError as exc:
        raise InputError(f"cannot parse initial state {text!r}: {exc}") from exc


# -- subcommands ---------------------------------------------------------------

def cmd_check(args) -> int:
    checks = validation_report(load_pair(args.pair))
    for check in checks:
        tail = "" if check.ok else f"  witness {check.witness}"
        print(f"{'PASS' if check.ok else 'FAIL'}  {check.name}: {check.value:.3e} "
              f"(tolerance {check.bound:.3e}){tail}")
    valid = all(check.ok for check in checks)
    print("pair is a valid matched pair" if valid else "pair FAILED validation")
    return 0 if valid else 1


def cmd_simulate(args) -> int:
    if not os.path.basename(args.out):
        raise InputError(f"--out needs a file name prefix, got {args.out!r}")
    mp = load_pair(args.pair)
    mp.validate()
    n, m = mp.g.dim, mp.h.dim
    spec = load_hamiltonian(args.hamiltonian, n, m)
    z0 = parse_initial(args.initial)
    invariants = {}
    for name in filter(None, map(str.strip, args.invariants.split(","))):
        if name not in BUILTIN_INVARIANTS:
            raise InputError(f"unknown invariant {name!r}; built-ins are "
                             f"{', '.join(sorted(BUILTIN_INVARIANTS))}")
        if name in invariants:
            raise InputError(f"invariant {name!r} is named twice")
        invariants[name] = BUILTIN_INVARIANTS[name](n, m)

    start = time.perf_counter()
    if args.mode == "lp":
        record = integrate(mp, spec, z0, args.dt, args.t_end, args.convention, invariants)
    else:
        record = integrate_ep(mp, spec, z0, args.dt, args.t_end, invariants)
    wall = time.perf_counter() - start

    csv_path, summary_path = args.out + ".csv", args.out + ".summary.json"
    formats.trajectory_to_csv(record, csv_path)
    summary = formats.summary_dict(
        record, wall, pair=args.pair, hamiltonian=args.hamiltonian, mode=args.mode,
        convention=args.convention if args.mode == "lp" else "left", dt=args.dt,
        t_end=args.t_end, seed=args.seed)
    try:
        formats.write_json(summary, summary_path)
    except InputError:
        with contextlib.suppress(OSError):  # leave no CSV without its summary
            os.remove(csv_path)
        raise
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def cmd_audit(args) -> int:
    if args.json is not None and not os.path.basename(args.json):
        raise InputError(f"--json needs a file name, got {args.json!r}")
    if args.target != "sl2c":
        raise InputError(f"unknown audit target {args.target!r}; available: sl2c")
    pairs = sl2c.builtin_pairs()
    report = audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"],
                            samples=args.samples, seed=args.seed,
                            closed_forms=sl2c.sl2c_closed_forms())
    print(report.to_text())
    if args.json is not None:
        formats.write_json(report.to_json_dict(), args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_derive(args) -> int:
    if args.builtin:
        if args.builtin != "sl2c":
            raise InputError(f"unknown built-in basis {args.builtin!r}; available: sl2c")
        mp = sl2c.builtin_pairs()["sl2c_derived"]  # derived from sl2c.standard_basis()
    else:
        doc = formats.read_json(args.basis, "basis file")
        if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in ("g", "h")):
            raise InputError("basis file must be an object with 'g' and 'h' matrix lists")
        mp = sl2c.derive_actions_from_embedding(
            [formats.matrix_from_json(M) for M in doc["g"]],
            [formats.matrix_from_json(M) for M in doc["h"]],
            formats.basis_names(doc, "g_names", "basis file"),
            formats.basis_names(doc, "h_names", "basis file"),
        )
    formats.dump_pair_document(mp, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_factor(args) -> int:
    doc = formats.read_json(sys.stdin if args.matrix == "-" else args.matrix, "matrix")
    M = formats.matrix_from_json(doc)
    print(formats.factor_to_json(*sl2c.iwasawa_factor(M)))
    return 0


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpmech",
        description="Matched-pair Lie algebra mechanics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for main's dispatch

    p = sub.add_parser("check", help="validate a pair (built-in name or tensor document)")
    p.add_argument("pair")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="integrate a flow and write CSV + summary")
    p.add_argument("--pair", required=True)
    p.add_argument("--hamiltonian", required=True,
                   help="built-in name or path to a JSON quadratic spec")
    p.add_argument("--initial", required=True,
                   help="comma-separated dual coordinates (velocities in ep mode)")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--convention", choices=("right", "left"), default="right")
    p.add_argument("--mode", choices=("lp", "ep"), default="lp")
    p.add_argument("--invariants", default="",
                   help="comma-separated built-in invariant names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("audit", help="closed-form vs derived formula audit")
    p.add_argument("target", help="audit target (sl2c)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("derive", help="tensor document from a matrix basis")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--basis", help="path to a matrix-basis JSON file")
    group.add_argument("--builtin", help="built-in basis name (sl2c)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("factor", help="factor a determinant-1 2x2 complex matrix")
    p.add_argument("matrix", help="path to a JSON matrix of [re, im] entries, or -")
    p.set_defaults(fn=cmd_factor)

    return parser


# main's parser, built on first use: parsing never changes it, and argparse
# looks up sys.stderr and the terminal width only when it prints.
_parser = functools.cache(build_parser)


def _parse(argv):
    """``_parser().parse_args(argv)``: a command's own subparser parses the rest
    as the full parser would; only what it leaves over goes through both."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
