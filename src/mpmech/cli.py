"""Batch command line front end.

Subcommands: ``check`` (validate a tensor document or built-in pair),
``simulate`` (integrate a Lie-Poisson or Euler-Poincare flow to CSV +
summary JSON), ``audit`` (reconcile the closed-form action set against the
derived one), ``derive`` (tensor document from a matrix basis), ``factor``
(factor one determinant-1 matrix).

Exit codes: 0 success, 1 validation or run failure, 2 malformed input.  The
environment variable MPM_TOLERANCE_SCALE multiplies every validation
tolerance (default 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import formats, sl2c
from .dynamics import HamiltonianSpec, LagrangianSpec, integrate, integrate_ep
from .errors import InputError, IntegrationError, ValidationError
from .lie_core import jacobi_defect, tolerance_scale
from .matched_pair import MatchedPair, audit_formulas, build_double, compat_defect

BUILTIN_INVARIANTS = {
    "mu_norm2": lambda mu, nu: float(mu @ mu),
    "nu_norm2": lambda mu, nu: float(nu @ nu),
    "mu_dot_nu": lambda mu, nu: float(mu @ nu),
}


def load_pair(name_or_path: str) -> MatchedPair:
    builtins = sl2c.builtin_pairs()
    if name_or_path in builtins:
        return builtins[name_or_path]
    return formats.load_pair_document(name_or_path)


def builtin_hamiltonian(name: str, n: int, m: int) -> HamiltonianSpec:
    if name == "quadratic_identity":
        return HamiltonianSpec.quadratic(np.eye(n + m))
    if name == "heavy_top":
        if m < 3:
            raise InputError("heavy_top needs an h factor of dimension >= 3")
        Q = np.zeros((n + m, n + m))
        Q[:n, :n] = np.eye(n)
        b = np.zeros(n + m)
        b[n + 2] = 1.0
        return HamiltonianSpec.quadratic(Q, b)
    if name == "rigid_body_123":
        if n != 3:
            raise InputError("rigid_body_123 needs a g factor of dimension 3")
        Q = np.zeros((n + m, n + m))
        Q[:n, :n] = np.diag([1.0, 0.5, 1.0 / 3.0])
        return HamiltonianSpec.quadratic(Q)
    raise InputError(
        f"unknown Hamiltonian {name!r}; built-ins are quadratic_identity, "
        f"heavy_top, rigid_body_123"
    )


def load_hamiltonian(name_or_path: str, n: int, m: int) -> HamiltonianSpec:
    if name_or_path in ("quadratic_identity", "heavy_top", "rigid_body_123"):
        return builtin_hamiltonian(name_or_path, n, m)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read Hamiltonian {name_or_path}: {exc}") from exc
    if not isinstance(doc, dict) or "Q" not in doc:
        raise InputError("Hamiltonian file must be an object with a 'Q' matrix")
    b = doc.get("b")
    spec = HamiltonianSpec.quadratic(formats.float_array(doc["Q"], "Q"),
                                     None if b is None else formats.float_array(b, "b"))
    if spec.dim != n + m:
        raise InputError(
            f"Hamiltonian dimension {spec.dim} does not match the pair ({n + m})"
        )
    return spec


def parse_initial(text: str, dim: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse initial state {text!r}: {exc}") from exc
    if len(values) != dim:
        raise InputError(f"initial state has {len(values)} components, expected {dim}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"initial state {text!r} has non-finite components")
    return np.array(values)


# -- subcommands ---------------------------------------------------------------

def cmd_check(args) -> int:
    mp = load_pair(args.pair)
    env = tolerance_scale()
    failed = False

    def report(label: str, value: float, bound: float, witness: str = ""):
        nonlocal failed
        ok = value <= bound
        failed = failed or not ok
        tail = f"  witness {witness}" if (witness and not ok) else ""
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {value:.3e} "
              f"(tolerance {bound:.3e}){tail}")

    for label, alg in (("g", mp.g), ("h", mp.h)):
        bound = 1e-10 * (1.0 + float(np.abs(alg.C).max())) ** 3 * env
        report(f"jacobi defect ({label})", jacobi_defect(alg), bound)

    defect = compat_defect(mp)
    bound = 1e-10 * mp.scale() * env
    report("compatibility condition 1", defect.d1, bound,
           f"({', '.join(defect.witness1)})")
    report("compatibility condition 2", defect.d2, bound,
           f"({', '.join(defect.witness2)})")

    double = build_double(mp)
    dbound = 1e-10 * (1.0 + float(np.abs(double.algebra.C).max())) ** 3 * env
    report("jacobi defect (double)", jacobi_defect(double.algebra), dbound)

    print("pair FAILED validation" if failed else "pair is a valid matched pair")
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    mp = load_pair(args.pair)
    mp.validate()
    n, m = mp.g.dim, mp.h.dim
    spec = load_hamiltonian(args.hamiltonian, n, m)
    z0 = parse_initial(args.initial, n + m)
    invariants = {}
    if args.invariants:
        for name in args.invariants.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in BUILTIN_INVARIANTS:
                raise InputError(
                    f"unknown invariant {name!r}; built-ins are "
                    f"{', '.join(sorted(BUILTIN_INVARIANTS))}"
                )
            invariants[name] = BUILTIN_INVARIANTS[name]

    start = time.perf_counter()
    if args.mode == "lp":
        record = integrate(build_double(mp), spec, z0, args.dt, args.t_end,
                           args.convention, invariants)
    else:
        if not spec.is_quadratic or np.abs(spec.b).max() > 0:
            raise InputError("ep mode needs a quadratic Hamiltonian with no linear term")
        Q = spec.Q
        if np.abs(Q[:n, n:]).max() > 0:
            raise InputError("ep mode needs a block-diagonal quadratic form")
        try:
            lagrangian = LagrangianSpec(np.linalg.inv(Q[:n, :n]), np.linalg.inv(Q[n:, n:]))
        except np.linalg.LinAlgError as exc:
            raise InputError(f"ep mode needs nonsingular diagonal blocks: {exc}") from exc
        record = integrate_ep(mp, lagrangian, z0, args.dt, args.t_end, invariants)
    wall = time.perf_counter() - start

    csv_path = args.out + ".csv"
    summary_path = args.out + ".summary.json"
    formats.trajectory_to_csv(record, csv_path)
    summary = formats.summary_dict(
        record, wall,
        pair=args.pair, hamiltonian=args.hamiltonian, mode=args.mode,
        convention=args.convention if args.mode == "lp" else "left",
        dt=args.dt, t_end=args.t_end,
        seed=args.seed,
    )
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def cmd_audit(args) -> int:
    if args.target != "sl2c":
        raise InputError(f"unknown audit target {args.target!r}; available: sl2c")
    pairs = sl2c.builtin_pairs()
    report = audit_formulas(pairs["sl2c_derived"], pairs["sl2c_printed"],
                            samples=args.samples, seed=args.seed,
                            closed_forms=sl2c.sl2c_closed_forms())
    print(report.to_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_derive(args) -> int:
    if args.builtin:
        if args.builtin != "sl2c":
            raise InputError(f"unknown built-in basis {args.builtin!r}; available: sl2c")
        basis = sl2c.standard_basis()
    else:
        try:
            with open(args.basis, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read basis file {args.basis}: {exc}") from exc
        if not isinstance(doc, dict) or "g" not in doc or "h" not in doc:
            raise InputError("basis file must be an object with 'g' and 'h' matrix lists")
        basis = sl2c.EmbeddedBasis(
            tuple(formats.matrix_from_json(M) for M in doc["g"]),
            tuple(formats.matrix_from_json(M) for M in doc["h"]),
            tuple(doc["g_names"]) if "g_names" in doc else None,
            tuple(doc["h_names"]) if "h_names" in doc else None,
        )
    mp = sl2c.derive_actions_from_embedding(basis)
    formats.dump_pair_document(mp, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_factor(args) -> int:
    try:
        if args.matrix == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.matrix, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read matrix: {exc}") from exc
    M = formats.matrix_from_json(doc)
    unitary, triangular = sl2c.iwasawa_factor(M)
    out = {
        "su2": formats.matrix_to_json(unitary.matrix),
        "k": [triangular.a, triangular.b, triangular.c],
    }
    print(json.dumps(out, indent=2))
    return 0


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpmech",
        description="Matched-pair Lie algebra mechanics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
