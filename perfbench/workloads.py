"""Seeded workloads for the mpmech benchmark, and the checks on their outputs.

A workload is an endless stream of ops.  Each op is one ``mpmech.cli.main``
argv plus what its check needs.  Every input (initial states, SL(2,C)
matrices, tensor documents, Hamiltonian files) is drawn from the workload's
own random generator, so a seed fixes the whole stream; the program sees
only argv and files.  The program's built-in tensors are read once, before
any timing, to build rotated tensor documents and the reference integrator.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from mpmech import matched_pair, sl2c

LONG_DT, LONG_T_END, LONG_STEPS = 0.01, 100.0, 10_000
SHORT_DT, SHORT_T_END, SHORT_STEPS = 0.05, 10.0, 200
INVARIANTS = "mu_norm2,nu_norm2,mu_dot_nu"
# Seeded spread of initial states, and of the EP quadratic form, around fixed
# base values.  Drift varies 50x between random directions; a small spread
# keeps energy_drift nearly seed-independent.
PERTURBATION = 0.002
FORM_PERTURBATION = 0.001
DRIFT_BOUND = 1e-6      # any simulate op whose summary drift.H exceeds this fails
# Every CSV row vs one reference RK4 step from the row before, relative to
# 1 + |z|.  Checking step by step, not the final state of an independent
# run, keeps the check at rounding level: over 10k steps the EP flow
# amplifies rounding differences between two implementations to 6e-5.
STEP_TOL = 1e-12
FACTOR_TOL = 1e-10
DERIVE_TOL = 1e-12
TOOLS_AUDIT_SAMPLES = 1000
PROBE_AUDIT_SAMPLES = 50

# MATCH/MISMATCH pattern of `mpmech audit sl2c`, as the program reports it
# for the shipped closed forms (the printed right action is misoriented).
AUDIT_PATTERN = {
    "action |>": "MATCH",
    "action <|": "MISMATCH",
    "dual *<|": "MISMATCH",
    "dual *|>": "MATCH",
    "dual a*": "MATCH",
    "dual b*": "MISMATCH",
    "closed-form rhs (mu)": "MISMATCH",
    "closed-form rhs (nu)": "MISMATCH",
    "canonical rhs energy rate": "MATCH",
    "plus-sign rhs vs canonical": "MISMATCH",
    "plus-sign rhs energy rate": "MISMATCH",
}

WORKLOADS = ("lp_long", "ep_long", "sl2c_tools")


@dataclass
class Op:
    kind: str                 # simulate | factor | audit | derive | check
    argv: list[str]
    expect_rc: int = 0
    main: bool = True         # counted in op_p50_ms / op_p90_ms
    steps: int = 0            # simulate: RK4 steps
    samples: int = 0          # audit: samples
    data: dict = field(default_factory=dict)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _csv_floats(z) -> str:
    return ",".join(repr(float(x)) for x in z)


def _rk4_step(C: np.ndarray, Q: np.ndarray, b: np.ndarray, sign: float,
              Z: np.ndarray, dt: float) -> np.ndarray:
    """One plain RK4 step of z' = sign * M(z) (Q z + b), M[i, j] = C[k, i, j] z_k,
    from every row of Z at once."""
    d = C.shape[0]
    Cf = C.reshape(d, d * d)

    def f(Z):
        M = (Z @ Cf).reshape(-1, d, d)
        return sign * np.einsum("bij,bj->bi", M, Z @ Q + b)

    k1 = f(Z)
    k2 = f(Z + 0.5 * dt * k1)
    k3 = f(Z + 0.5 * dt * k2)
    k4 = f(Z + dt * k3)
    return Z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _rotated_pair_document(pair, rng: np.random.Generator) -> dict:
    """The pair in new orthonormal bases of g and h: an isomorphic pair,
    valid exactly when the original is."""
    A = _random_rotation(rng, pair.g.dim)
    B = _random_rotation(rng, pair.h.dim)
    return {
        "g": {"dim": pair.g.dim,
              "C": np.einsum("pk,pqr,qi,rj->kij", A, pair.g.C, A, A).tolist()},
        "h": {"dim": pair.h.dim,
              "C": np.einsum("pk,pqr,qi,rj->kij", B, pair.h.C, B, B).tolist()},
        "rho": np.einsum("pk,pbq,ba,qi->kai", A, pair.rho, B, A).tolist(),
        "sigma": np.einsum("dc,dbq,ba,qi->cai", B, pair.sigma, B, A).tolist(),
    }


def _random_sl2c(rng: np.random.Generator) -> np.ndarray:
    """A determinant-1 matrix U @ K: U special unitary, K lower triangular."""
    w, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    s = np.sqrt(abs(w) ** 2 + abs(v) ** 2)
    w, v = w / s, v / s
    U = np.array([[w, v], [-np.conj(v), np.conj(w)]])
    return U @ _k_matrix(rng.standard_normal(), rng.standard_normal(),
                         np.expm1(rng.standard_normal()))


def _k_matrix(a: float, b: float, c: float) -> np.ndarray:
    s = 1.0 / np.sqrt(1.0 + c)
    return np.array([[s * (1.0 + c), 0.0], [s * (a + 1j * b), s]])


def _matrix_json(M: np.ndarray) -> list:
    return [[[float(M[i, j].real), float(M[i, j].imag)] for j in range(2)]
            for i in range(2)]


class Workload:
    """The op stream of one workload, and the checks on each op's outputs.

    ``check`` runs right after an op, outside the timed region.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.dir = workdir
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.pairs = sl2c.builtin_pairs()
        self._files = 0
        # reference systems: (C, Q, b, sign, dt)
        sl2c_C = matched_pair.build_double(self.pairs["sl2c_derived"]).algebra.C
        e3_C = matched_pair.build_double(self.pairs["e3_heavytop"]).algebra.C
        self.ep_Q = self._ep_quadratic()
        heavy_Q = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        heavy_b = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        zero = np.zeros(6)
        self.systems = {
            "lp": (sl2c_C, np.eye(6), zero, 1.0, LONG_DT),
            "ep": (sl2c_C, self.ep_Q, zero, -1.0, LONG_DT),
            "heavy_top": (e3_C, heavy_Q, heavy_b, 1.0, SHORT_DT),
        }
        self.ep_hamiltonian = self._write("hamiltonian.json", {"Q": self.ep_Q.tolist()})

    # -- inputs ---------------------------------------------------------------

    def _path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.dir, f"{self._files:06d}-{stem}")

    def _write(self, stem: str, doc, text: str | None = None) -> str:
        path = self._path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) if text is None else text)
        return path

    def _ep_quadratic(self) -> np.ndarray:
        """Block-diagonal SPD form near diag(1, 2, 3 | 1.5, 2.5, 0.7)."""
        Q = np.diag([1.0, 2.0, 3.0, 1.5, 2.5, 0.7])
        for blk in (slice(0, 3), slice(3, 6)):
            N = FORM_PERTURBATION * self.rng.standard_normal((3, 3))
            Q[blk, blk] += N + N.T
        return Q

    def _state(self, base) -> np.ndarray:
        return _unit(base) + PERTURBATION * self.rng.standard_normal(6)

    def _simulate(self, system: str, pair: str, hamiltonian: str, z,
                  dt: float, t_end: float, steps: int, mode: str = "lp") -> Op:
        out = self._path("traj")
        argv = ["simulate", "--mode", mode, "--pair", pair,
                "--hamiltonian", hamiltonian, f"--initial={_csv_floats(z)}",
                "--dt", repr(dt), "--t-end", repr(t_end),
                "--invariants", INVARIANTS, "--out", out]
        return Op("simulate", argv, steps=steps,
                  data={"out": out, "system": system, "mode": mode, "z0": z})

    def _factor(self, main: bool) -> Op:
        M = _random_sl2c(self.rng)
        return Op("factor", ["factor", self._write("matrix.json", _matrix_json(M))],
                  main=main, data={"M": M})

    def _audit(self, samples: int, main: bool) -> Op:
        seed = int(self.rng.integers(2**31))
        return Op("audit", ["audit", "sl2c", "--samples", str(samples), "--seed", str(seed)],
                  main=main, samples=samples)

    def _derive(self, main: bool) -> Op:
        return Op("derive", ["derive", "--builtin", "sl2c", "--out", self._path("derived.json")],
                  main=main)

    def _check_doc(self, pair: str, expect_rc: int, main: bool) -> Op:
        doc = _rotated_pair_document(self.pairs[pair], self.rng)
        return Op("check", ["check", self._write(f"{pair}.json", doc)], expect_rc, main)

    def _side_probe(self):
        """A thin share of tool calls in the long workloads, so their
        factor and audit metrics exist; op latency percentiles skip it."""
        for _ in range(6):
            yield self._factor(main=False)
        yield self._audit(PROBE_AUDIT_SAMPLES, main=False)
        yield self._check_doc("sl2c_derived", 0, main=False)
        yield self._derive(main=False)

    def ops(self):
        """The endless op stream: workload cycles back to back."""
        while True:
            yield from self.cycle()

    def cycle(self):
        """One cycle of the workload's ops, on fresh inputs."""
        if self.name == "sl2c_tools":
            yield from self._tools_cycle()
            return
        v = self._state([0.6, -0.3, 0.5, 0.2, 0.4, -0.3])
        if self.name == "lp_long":
            yield self._simulate("lp", "sl2c_derived", "quadratic_identity", v,
                                 LONG_DT, LONG_T_END, LONG_STEPS)
        else:
            yield self._simulate("ep", "sl2c_derived", self.ep_hamiltonian, v,
                                 LONG_DT, LONG_T_END, LONG_STEPS, mode="ep")
        yield from self._side_probe()

    def _tools_cycle(self):
        def heavy_top():
            z = self._state([0.3, -0.5, 0.8, 0.1, 0.2, 0.9])
            return self._simulate("heavy_top", "e3_heavytop", "heavy_top", z,
                                  SHORT_DT, SHORT_T_END, SHORT_STEPS)

        def rejected_factor():
            M = 1.5 * _random_sl2c(self.rng)
            return Op("factor", ["factor", self._write("matrix.json", _matrix_json(M))], 2)

        def truncated_doc():
            text = json.dumps(_rotated_pair_document(self.pairs["sl2c_derived"], self.rng))
            return Op("check", ["check", self._write("truncated.json", None, text[: len(text) // 2])], 2)

        yield Op("check", ["check", "sl2c_derived"])
        yield self._factor(main=True)
        yield self._check_doc("sl2c_derived", 0, main=True)
        yield heavy_top()
        yield self._factor(main=True)
        yield Op("check", ["check", "e3_heavytop"])
        yield self._derive(main=True)
        yield self._factor(main=True)
        yield self._check_doc("e3_heavytop", 0, main=True)
        yield heavy_top()
        yield self._factor(main=True)
        yield Op("check", ["check", "sl2c_printed"], 1)
        yield self._audit(TOOLS_AUDIT_SAMPLES, main=True)
        yield self._factor(main=True)
        yield truncated_doc()
        yield heavy_top()
        yield self._factor(main=True)
        yield rejected_factor()
        yield self._check_doc("sl2c_printed", 1, main=True)
        yield self._factor(main=True)
        yield Op("check", ["check", "e3_heavytop"])
        yield self._derive(main=True)
        yield self._check_doc("e3_heavytop", 0, main=True)
        yield self._factor(main=True)

    # -- output checks ----------------------------------------------------------

    def check(self, op: Op, rc: int, stdout: str) -> str | None:
        """Return why the op's output is wrong, or None."""
        if rc != op.expect_rc:
            return f"exit code {rc}, expected {op.expect_rc}"
        if rc != 0:
            return None
        return getattr(self, f"_check_{op.kind}")(op, stdout)

    def _check_simulate(self, op: Op, stdout: str) -> str | None:
        out = op.data["out"]
        with open(out + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary.get("steps") != op.steps:
            return f"summary steps {summary.get('steps')}, expected {op.steps}"
        drift = summary.get("drift", {}).get("H")
        if not isinstance(drift, float) or not drift <= DRIFT_BOUND:
            return f"drift.H {drift!r} exceeds {DRIFT_BOUND:g}"
        op.data["drift"] = drift
        with open(out + ".csv", encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        expected = ",".join(["t", "mu_1", "mu_2", "mu_3", "nu_1", "nu_2", "nu_3", "H",
                             *INVARIANTS.split(",")])
        if header != expected:
            return f"CSV header {header!r}"
        if rows.shape != (op.steps + 1, 11) or not np.all(np.isfinite(rows)):
            return f"CSV has shape {rows.shape} or non-finite cells"
        os.remove(out + ".csv")
        os.remove(out + ".summary.json")
        C, Q, b, sign, dt = self.systems[op.data["system"]]
        if np.abs(rows[:, 0] - dt * np.arange(op.steps + 1)).max() > 1e-9:
            return "CSV times are off the grid"
        Z = rows[:, 1:7]
        z0 = op.data["z0"]
        if sign < 0:   # EP: initial velocities -> momenta
            z0 = np.linalg.solve(Q, z0)
        err = np.abs(np.vstack([z0, _rk4_step(C, Q, b, sign, Z[:-1], dt)]) - Z).max()
        if not err <= STEP_TOL * (1.0 + np.abs(Z).max()):
            return f"a CSV row is {err:.2e} from a reference RK4 step"
        return None

    def _check_factor(self, op: Op, stdout: str) -> str | None:
        doc = json.loads(stdout)
        U = np.array([[complex(*cell) for cell in row] for row in doc["su2"]])
        K = _k_matrix(*doc["k"])
        M = op.data["M"]
        if np.abs(U.conj().T @ U - np.eye(2)).max() > FACTOR_TOL:
            return "unitary factor is not unitary"
        if np.abs(U @ K - M).max() > FACTOR_TOL * (1.0 + np.abs(M).max()):
            return "factors do not reconstruct the matrix"
        return None

    def _check_audit(self, op: Op, stdout: str) -> str | None:
        statuses = {}
        for line in stdout.splitlines()[1:]:
            for status in ("MISMATCH", "MATCH"):
                name, sep, _ = line.partition(f"  {status}  ")
                if sep:
                    statuses[name.strip()] = status
                    break
        if statuses != AUDIT_PATTERN:
            return f"audit statuses {statuses}"
        return None

    def _check_derive(self, op: Op, stdout: str) -> str | None:
        with open(op.argv[-1], encoding="utf-8") as fh:
            doc = json.load(fh)
        ref = self.pairs["sl2c_derived"]
        for got, want in ((doc["g"]["C"], ref.g.C), (doc["h"]["C"], ref.h.C),
                          (doc["rho"], ref.rho), (doc["sigma"], ref.sigma)):
            if np.abs(np.array(got) - want).max() > DERIVE_TOL:
                return "derived document differs from the built-in tensors"
        return None

    def _check_check(self, op: Op, stdout: str) -> str | None:
        if not stdout.rstrip().endswith("pair is a valid matched pair"):
            return "check did not report a valid pair"
        return None
