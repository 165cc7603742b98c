"""Spans around the calls into each mpmech layer, and the per-layer metrics
derived from them.

The tracer wraps public functions at every binding the CLI call path uses
(module globals, class attributes, the built-in invariant table) and
restores the originals afterwards; nothing in the program is edited.  Spans
stay in compact in-memory arrays and are written to one ``.npz`` trace file
at the end of the run; every per-layer metric is computed from that file.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from mpmech import cli, dynamics, formats, lie_core, matched_pair, sl2c

ROOT_SPAN = "cli.main"


def bindings() -> list[tuple[object, str, str]]:
    """(owner, attribute or key, span name) for every wrapped call site."""
    out = [
        (cli, "load_pair", "cli.load_pair"),
        (sl2c, "builtin_pairs", "sl2c.builtin_pairs"),
        (sl2c, "derive_actions_from_embedding", "sl2c.derive_actions_from_embedding"),
        (sl2c, "iwasawa_factor", "sl2c.iwasawa_factor"),
        (matched_pair.MatchedPair, "validate", "matched_pair.MatchedPair.validate"),
        (cli, "compat_defect", "matched_pair.compat_defect"),
        (matched_pair, "compat_defect", "matched_pair.compat_defect"),
        (cli, "jacobi_defect", "lie_core.jacobi_defect"),
        (lie_core, "jacobi_defect", "lie_core.jacobi_defect"),
        (cli, "build_double", "matched_pair.build_double"),
        (matched_pair, "build_double", "matched_pair.build_double"),
        (cli, "audit_formulas", "matched_pair.audit_formulas"),
        (cli, "integrate", "dynamics.integrate"),
        (cli, "integrate_ep", "dynamics.integrate_ep"),
        (dynamics, "gradient", "dynamics.gradient"),
        (dynamics, "euler_poincare_rhs", "matched_pair.euler_poincare_rhs"),
        (dynamics.HamiltonianSpec, "value", "dynamics.HamiltonianSpec.value"),
        (formats, "trajectory_to_csv", "formats.trajectory_to_csv"),
        (formats, "load_pair_document", "formats.load_pair_document"),
        (formats, "dump_pair_document", "formats.dump_pair_document"),
        (formats, "matrix_from_json", "formats.matrix_from_json"),
    ]
    out += [(cli.BUILTIN_INVARIANTS, key, "cli.invariant") for key in cli.BUILTIN_INVARIANTS]
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, span_name: str, fn):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        originals = []
        try:
            for owner, key, span_name in bindings():
                try:
                    fn = _get(owner, key)
                except KeyError:
                    print(f"perfbench: no binding {key!r} on {owner!r}; "
                          f"{span_name} is not traced there", file=sys.stderr)
                    continue
                originals.append((owner, key, fn))
                _set(owner, key, self.wrap(span_name, fn))
            yield
        finally:
            for owner, key, fn in reversed(originals):
                _set(owner, key, fn)

    def write(self, path: str, ops: list[dict], untraced_s: float) -> None:
        """Write spans plus per-op facts (kind, steps, rows, samples)."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            ops=np.array(json.dumps(ops)),
            untraced_s=np.float64(untraced_s),
        )


# Per-layer metrics: (name, unit, better, the end-to-end metric it should move).
PER_LAYER = [
    ("cli.main.self_us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("cli.load_pair.calls", "count", "lower", "op_p50_ms @ sl2c_tools; nothing @ lp_long"),
    ("sl2c.builtin_pairs.calls", "count", "lower", "op_p50_ms @ sl2c_tools; nothing @ lp_long"),
    ("sl2c.builtin_pairs.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools; nothing @ lp_long"),
    ("sl2c.derive_actions_from_embedding.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("sl2c.iwasawa_factor.us_per_call", "us", "lower", "factor_p50_ms @ sl2c_tools"),
    ("matched_pair.MatchedPair.validate.self_us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("matched_pair.compat_defect.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("lie_core.jacobi_defect.calls", "count", "lower", "op_p50_ms @ sl2c_tools"),
    ("lie_core.jacobi_defect.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("matched_pair.build_double.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("matched_pair.audit_formulas.us_per_sample", "us", "lower", "audit_samples_per_s @ sl2c_tools"),
    ("dynamics.integrate.self_us_per_step", "us", "lower", "steps_per_s @ lp_long"),
    ("dynamics.gradient.calls", "count", "lower", "steps_per_s @ lp_long"),
    ("dynamics.gradient.us_per_call", "us", "lower", "steps_per_s @ lp_long"),
    ("dynamics.rhs_evals_per_step", "count", "lower", "steps_per_s @ lp_long"),
    ("dynamics.integrate_ep.self_us_per_step", "us", "lower", "steps_per_s @ ep_long; nothing @ lp_long"),
    ("matched_pair.euler_poincare_rhs.calls", "count", "lower", "steps_per_s @ ep_long; nothing @ lp_long"),
    ("matched_pair.euler_poincare_rhs.us_per_call", "us", "lower", "steps_per_s @ ep_long; nothing @ lp_long"),
    ("dynamics.HamiltonianSpec.value.calls", "count", "lower", "steps_per_s @ lp_long, ep_long"),
    ("cli.invariant.calls", "count", "lower", "steps_per_s @ lp_long, ep_long"),
    ("dynamics.monitor.us_per_row", "us", "lower", "steps_per_s @ lp_long, ep_long"),
    ("formats.trajectory_to_csv.us_per_row", "us", "lower", "steps_per_s @ lp_long, ep_long"),
    ("formats.load_pair_document.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("formats.dump_pair_document.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("formats.matrix_from_json.us_per_call", "us", "lower", "op_p50_ms @ sl2c_tools"),
    ("trace.overhead_ratio", "ratio", "lower", "none: qualifies the other rows"),
]


def analyse(path: str) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a trace file, and any consistency errors."""
    with np.load(path) as f:
        names = json.loads(str(f["names"]))
        name, parent, op = f["name"], f["parent"], f["op"]
        dur = f["end"] - f["start"]
        ops = json.loads(str(f["ops"]))
        untraced_s = float(f["untraced_s"])
    child = parent >= 0
    self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    ids = {n: i for i, n in enumerate(names)}

    def sel(span_name):
        return name == ids.get(span_name, -1)

    def calls(span_name):
        return int(sel(span_name).sum())

    def total(span_name, times=dur):
        return float(times[sel(span_name)].sum())

    def per(value, count):
        return value * 1e6 / count if count else 0.0

    def under(span_name, parent_name):
        return sel(span_name) & child & (name[np.maximum(parent, 0)] == ids.get(parent_name, -1))

    lp_steps = sum(o["steps"] for o in ops if o["kind"] == "simulate" and o["mode"] == "lp")
    ep_steps = sum(o["steps"] for o in ops if o["kind"] == "simulate" and o["mode"] == "ep")
    rows = sum(o["steps"] + 1 for o in ops if o["kind"] == "simulate")
    samples = sum(o["samples"] for o in ops if o["kind"] == "audit")
    rhs_evals = (int(under("dynamics.gradient", "dynamics.integrate").sum())
                 + int(under("matched_pair.euler_poincare_rhs", "dynamics.integrate_ep").sum()))
    monitor = total("dynamics.HamiltonianSpec.value") + total("cli.invariant")

    m = {
        "cli.main.self_us_per_call": per(total("cli.main", self_t), calls("cli.main")),
        "cli.load_pair.calls": calls("cli.load_pair"),
        "sl2c.builtin_pairs.calls": calls("sl2c.builtin_pairs"),
        "matched_pair.MatchedPair.validate.self_us_per_call":
            per(total("matched_pair.MatchedPair.validate", self_t),
                calls("matched_pair.MatchedPair.validate")),
        "lie_core.jacobi_defect.calls": calls("lie_core.jacobi_defect"),
        "matched_pair.audit_formulas.us_per_sample": per(total("matched_pair.audit_formulas"), samples),
        "dynamics.integrate.self_us_per_step": per(total("dynamics.integrate", self_t), lp_steps),
        "dynamics.gradient.calls": calls("dynamics.gradient"),
        "dynamics.rhs_evals_per_step": rhs_evals / (lp_steps + ep_steps) if lp_steps + ep_steps else 0.0,
        "dynamics.integrate_ep.self_us_per_step": per(total("dynamics.integrate_ep", self_t), ep_steps),
        "matched_pair.euler_poincare_rhs.calls": calls("matched_pair.euler_poincare_rhs"),
        "dynamics.HamiltonianSpec.value.calls": calls("dynamics.HamiltonianSpec.value"),
        "cli.invariant.calls": calls("cli.invariant"),
        "dynamics.monitor.us_per_row": per(monitor, rows),
        "formats.trajectory_to_csv.us_per_row": per(total("formats.trajectory_to_csv"), rows),
        "trace.overhead_ratio": total("cli.main") / untraced_s,
    }
    for span_name in ("sl2c.builtin_pairs", "sl2c.derive_actions_from_embedding",
                      "sl2c.iwasawa_factor", "matched_pair.compat_defect",
                      "lie_core.jacobi_defect", "matched_pair.build_double",
                      "dynamics.gradient", "matched_pair.euler_poincare_rhs",
                      "formats.load_pair_document", "formats.dump_pair_document",
                      "formats.matrix_from_json"):
        m[f"{span_name}.us_per_call"] = per(total(span_name), calls(span_name))

    errors = []
    roots = ~child
    if np.any(name[roots] != ids[ROOT_SPAN]):
        errors.append("a span lies outside every cli.main span")
    if np.any(op[child] != op[parent[child]]):
        errors.append("a span's parent belongs to another op")
    root_dur = np.bincount(op[roots], weights=dur[roots], minlength=len(ops))
    self_sum = np.bincount(op, weights=self_t, minlength=len(ops))
    if not np.allclose(self_sum, root_dur, rtol=1e-9, atol=1e-12):
        errors.append("self times of an op's spans do not sum to its cli.main duration")
    return {key: m[key] for key, *_ in PER_LAYER}, errors
