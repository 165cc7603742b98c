"""Hamiltonian specifications, the Legendre transform and fixed-step integration.

Classical RK4 with a fixed step, on fused stages for a quadratic Hamiltonian and plain
ones for a black box: the flows conserve energy and Casimirs exactly, so the discrete
drift is pure truncation error.  Rows are scanned for non-finite values every
``FINITE_BLOCK`` steps; invariants are checked before the run, evaluated on all rows after.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DegenerateMetricError,
    DimensionMismatch,
    InputError,
    IntegrationError,
)
from .lie_core import _as_vector, _read_only, _require_finite, _symmetric_part, convention_sign
from .matched_pair import MatchedPair

FD_STEP = 1e-6  # central-difference step, scaled per component by 1 + |z_i|
FINITE_BLOCK = 256  # RK4 steps between scans for a non-finite state
MAX_STEPS = 2 ** 23  # longest grid: 64 MiB of float64 states per column, 448 MiB at D = 7


class HamiltonianSpec:
    """A Hamiltonian on dual coordinates: quadratic form or black box, checked here.

    Quadratic, if ``f`` is None and ``Q`` or ``b`` is given or ``dim`` is None: H(z) =
    0.5 z^T Q z + b^T z, with ``Q`` square, finite and symmetric (its read-only symmetric
    part is kept), ``b`` finite or None (zeros) and ``dim`` None or Q's size.  Otherwise a
    black box: ``f``, any scalar callable of the coordinate vector, with ``Q`` and ``b`` None
    and ``dim`` an integer of at least 1 (not a bool); its gradient is taken by central
    differences, and a result of ``f`` that ``float`` rejects is an InputError where it
    is read.  Any other input is an InputError.  :meth:`quadratic` and :meth:`blackbox`
    spell the two forms.
    """

    def __init__(self, dim: int | None, Q, b, f: Callable[[np.ndarray], float] | None):
        if f is None and (Q is not None or b is not None or dim is None):
            Q = _symmetric_part(Q, "quadratic form")
            if dim is not None and Q.shape != (dim, dim):
                raise DimensionMismatch(f"quadratic form has shape {Q.shape}, expected ({dim}, {dim})")
            dim = len(Q)
            b = np.array(_as_vector(np.zeros(dim) if b is None else b, dim, "linear term"))
            _read_only(_require_finite(b, "linear term"))
        elif Q is not None or b is not None:
            raise InputError("a Hamiltonian is a quadratic form or a black box, not both")
        elif not callable(f):
            raise InputError(f"a black box must be callable, got {type(f).__name__}")
        elif isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise InputError(f"a black-box dimension must be an integer of at least 1, got {dim!r}")
        self.dim, self.Q, self.b, self.f = int(dim), Q, b, f

    @classmethod
    def quadratic(cls, Q, b=None) -> "HamiltonianSpec":
        return cls(None, Q, b, None)

    @classmethod
    def blackbox(cls, f: Callable[[np.ndarray], float], dim: int) -> "HamiltonianSpec":
        return cls(dim, None, None, f)

    @property
    def is_quadratic(self) -> bool:
        return self.Q is not None

    def value(self, z) -> float:
        z = _as_vector(z, self.dim, "state")
        if self.is_quadratic:
            return float(0.5 * z @ self.Q @ z + self.b @ z)
        return self._call(z)

    def _call(self, z: np.ndarray) -> float:  # f(z) as a float, or an InputError
        y = self.f(z)
        try:
            return float(y)
        except (TypeError, ValueError) as exc:
            raise InputError(f"a black box returned {type(y).__name__}, not a number") from exc


def gradient(spec: HamiltonianSpec, z) -> np.ndarray:
    """Gradient of the Hamiltonian: exact for quadratic specs, central
    differences (step 1e-6 * (1 + |z_i|)) for black boxes, at a finite ``z`` only
    (InputError)."""
    z = _require_finite(_as_vector(z, spec.dim, "state"), "state")
    if spec.is_quadratic:
        return spec.Q @ z + spec.b
    grad = np.empty(spec.dim)
    for i in range(spec.dim):
        h = FD_STEP * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        fp, fm = spec._call(zp), spec._call(zm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise InputError(f"Hamiltonian is non-finite near component {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def legendre(metric_g, metric_h) -> HamiltonianSpec:
    """Quadratic Hamiltonian of the Lagrangian with metric blocks M_g and M_h,
    each symmetric and positive definite (DegenerateMetricError, g before h).

    H(mu, nu) = 0.5 (mu^T M_g^-1 mu + nu^T M_h^-1 nu); the gradient at
    (M_g xi, M_h eta) recovers (xi, eta).
    """
    blocks = []
    for M, what in ((metric_g, "g metric"), (metric_h, "h metric")):
        M = _symmetric_part(M, what, DegenerateMetricError)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"{what} is not positive definite") from exc
        blocks.append(M)
    inv_g, inv_h = map(np.linalg.inv, blocks)
    n, m = inv_g.shape[0], inv_h.shape[0]
    Q = np.zeros((n + m, n + m))
    Q[:n, :n] = 0.5 * inv_g + 0.5 * inv_g.T  # inv(M) can fail quadratic()'s symmetry test
    Q[n:, n:] = 0.5 * inv_h + 0.5 * inv_h.T
    return HamiltonianSpec.quadratic(Q)


@dataclass(frozen=True)
class TrajectoryRecord:
    """A fixed-step trajectory with per-step invariant values.

    ``states`` holds dual coordinates (mu, nu) row by row; Euler-Poincare
    runs additionally record the recovered velocities.  ``drift`` maps each
    invariant name to max_t |I(t) - I(0)| / (1 + |I(0)|).
    """

    times: np.ndarray
    states: np.ndarray
    split: tuple[int, int]
    invariants: dict[str, np.ndarray]
    drift: dict[str, float]
    velocities: np.ndarray | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise InputError("times and states lengths differ")
        if not (self.times[1:] > self.times[:-1]).all():
            raise InputError("times must be strictly increasing")

    @property
    def mu(self) -> np.ndarray:
        return self.states[:, : self.split[0]]

    @property
    def nu(self) -> np.ndarray:
        return self.states[:, self.split[0]:]


InvariantMap = Mapping[str, HamiltonianSpec | Callable[[np.ndarray, np.ndarray], float]]
"""Extra invariants by name: a :class:`HamiltonianSpec` on (mu, nu), or a
callable of (mu, nu) returning a float, which is run as a black-box spec."""


def _grid(dt: float, t_end: float) -> tuple[int, np.ndarray]:
    if not (0 < dt <= t_end < np.inf):
        raise InputError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")
    ratio = t_end / dt
    if not ratio < MAX_STEPS + 0.5:  # inf included
        raise InputError(f"t_end={t_end} is too many steps of dt={dt} (at most {MAX_STEPS})")
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * steps:
        raise InputError(f"t_end={t_end} is not a whole number of steps of dt={dt}")
    return steps, dt * np.arange(steps + 1)


def _run_rk4(T: np.ndarray, y0: np.ndarray, dt: float, steps: int,
             spec: HamiltonianSpec | None = None) -> np.ndarray:
    """Classical RK4 rows from ``y0`` of ``y_dot = A(y) v``, ``A(u) = (u @ T).reshape(D, D)``,
    ``T`` (D, D*D); each stage is two buffered ``ndarray.dot`` calls, a window into a stage
    tensor, writing a matrix through a flat view, then that matrix into a window.  Quadratic
    (``spec`` None, ``v = y``, ``y[-1]`` 1 and ``T``'s last output row 0, so every stage
    input ends in exactly 1), on windows of ``Z = [u3, k2, k1, y, k0]``, with ``Ah``, ``Af`` =
    ``(dt/2) A``, ``dt A`` and ``u`` the stage input: ``[y, k0] = [[I], [Ah(y)]] y``, ``k1 =
    [Ah(u) | Ah(u)] [y, k0]``, ``[u3, k2] = [[Af(u) | Af(u) + I], [Af(u) | Af(u)]] [k1, y]``
    and the row ``[Ah(u3)/3 | I/3 | 2I/3 | I | I/3] Z``.  The adds are identity blocks in the
    tensors' slices of the homogeneous entry: 8 calls per step, no ``np.add``, but 19 D^3
    multiply-adds to the plain stages' 4 D^3, so only a small D gains (time against the plain
    stages, 2-vCPU Xeon: 0.82x at D = 7 and 8, 1.0x at 9, 1.15x at 10, 2.2x at 17).  A black
    box (``v = gradient(spec, u)``) runs plain stages, ``u.dot(h T, P)`` and ``M.dot(v(u), k)``
    with ``u = y + k`` and rows ``y + w.dot(K)``; buffers are per run: a box may integrate."""
    D = y0.size
    states = np.empty((steps + 1, D))
    states[0] = y = y0
    if spec is None:  # the stage tensors T1-T4, flat (window, rows * columns)
        eye, half, full = np.eye(D), 0.5 * dt * T.reshape(D, D, D), dt * T.reshape(D, D, D)
        T1, T3, T4 = np.zeros((D, 2 * D, D)), np.tile(full, (2, 2, 2)), np.zeros((D, D, 5 * D))
        T1[:, D:], T1[-1, :D], T3[-1, :D, D:] = half, eye, eye  # full[-1] is 0
        T4[:, :, :D], T4[-1, :, D:] = half / 3.0, np.kron([1.0, 2.0, 3.0, 1.0], eye) / 3.0
        T1, T2, T3, T4 = (t.reshape(len(t), -1) for t in (T1, np.tile(half, (2, 1, 2)), T3, T4))
        P1, P2, P3, P4 = (np.empty(t.shape[1]) for t in (T1, T2, T3, T4))
        Z = np.empty(5 * D)
        u3k2, k1, k1y, yk0 = Z[:2 * D], Z[2 * D:3 * D], Z[2 * D:4 * D], Z[3 * D:]
        dot1, dot2, dot3, dot4 = (P.reshape(-1, len(v)).dot for P, v in
                                  zip((P1, P2, P3, P4), (y, yk0, k1y, Z)))
        yk0dot, k1ydot, u3dot = yk0.dot, k1y.dot, Z[:D].dot
    else:
        k0, k1, k2, k3 = K = np.zeros((4, D))
        U, dy, M = np.empty(D), np.empty(D), np.empty((D, D))
        P, Mdot, Udot, add = M.reshape(-1), M.dot, U.dot, np.add
        half, full, w = 0.5 * dt * T, dt * T, np.array([1.0, 2.0, 1.0, 1.0]) / 3.0

    def scan(a, b):  # raise at the first non-finite row of states[a:b]
        finite = np.isfinite(states[a:b])
        if not finite.all():
            bad = a + int(finite.all(axis=1).argmin())
            raise IntegrationError(f"state became non-finite at t={bad * dt:g}",
                                   last_good_time=float((bad - 1) * dt))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is found by scan()
        for a in range(1, steps + 1, FINITE_BLOCK):
            if spec is None:
                for row in states[a:a + FINITE_BLOCK]:
                    y.dot(T1, P1)
                    dot1(y, yk0)
                    yk0dot(T2, P2)
                    dot2(yk0, k1)
                    k1ydot(T3, P3)
                    dot3(k1y, u3k2)
                    u3dot(T4, P4)
                    dot4(Z, row)
                    y = row
            else:
                try:
                    for s, row in enumerate(states[a:a + FINITE_BLOCK], a):
                        y.dot(half, P)
                        Mdot(gradient(spec, y), k0)
                        add(y, k0, U)
                        Udot(half, P)
                        Mdot(gradient(spec, U), k1)
                        add(y, k1, U)
                        Udot(full, P)
                        Mdot(gradient(spec, U), k2)
                        add(y, k2, U)
                        Udot(half, P)
                        Mdot(gradient(spec, U), k3)
                        add(y, w.dot(K, dy), row)
                        y = row
                except InputError as exc:  # a black box may reject a state, blown up or not:
                    add(y, w.dot(K, dy), row)  # non-finite if a stage of step s did
                    scan(a, s + 1)
                    if s == 1:
                        gradient(spec, y0)  # the InputError of a Hamiltonian that fails at p0
                    raise IntegrationError(f"{exc} at t={s * dt:g}",
                                           last_good_time=float((s - 1) * dt)) from exc
            scan(a, a + FINITE_BLOCK)
    return states


def _invariant_specs(split: tuple[int, int], spec: HamiltonianSpec,
                     invariants: InvariantMap | None) -> dict[str, HamiltonianSpec]:
    """"H" and the invariants, all as specs on (mu, nu), checked before a run."""
    n, m = split
    if "H" in (invariants or {}):
        raise InputError("invariant name 'H' is reserved for the Hamiltonian")
    specs = {}
    for name, s in {"H": spec, **(invariants or {})}.items():
        if callable(s):
            s = HamiltonianSpec.blackbox(lambda z, fn=s: fn(z[:n], z[n:]), n + m)
        elif not isinstance(s, HamiltonianSpec):
            raise InputError(f"invariant {name!r} is neither a HamiltonianSpec nor callable: "
                             f"{type(s).__name__}")
        elif s.dim != n + m:
            raise DimensionMismatch(f"invariant {name!r} has dimension {s.dim}, not {n + m}")
        specs[name] = s
    return specs


def _monitor(states: np.ndarray, specs: dict[str, HamiltonianSpec]):
    """Series and drifts (see :class:`TrajectoryRecord`) of the specs, rows of one
    (specs, rows) table: the quadratic specs over all rows in one stacked matmul
    and einsum, which give each spec's bits of ``0.5 einsum("ij,ij->i", states @ Q,
    states) + states @ b``, any other row by row; then all drifts at once."""
    V = np.empty((len(specs), len(states)))
    quadratic = [i for i, s in enumerate(specs.values()) if s.is_quadratic]
    if quadratic:
        Q = np.array([s.Q for s in specs.values() if s.is_quadratic])
        b = np.array([s.b for s in specs.values() if s.is_quadratic])[..., None]
        V[quadratic] = 0.5 * np.einsum("kij,ij->ki", states @ Q, states) + (states @ b)[..., 0]
    for i, s in enumerate(specs.values()):
        if not s.is_quadratic:
            V[i] = [s._call(z) for z in states]
    drift = np.abs(V - V[:, :1]).max(axis=1) / (1.0 + np.abs(V[:, 0]))
    return dict(zip(specs, V)), dict(zip(specs, drift.tolist()))


def integrate(mp: MatchedPair, spec: HamiltonianSpec | Callable[[np.ndarray, np.ndarray], float],
              p0, dt: float, t_end: float, convention: str = "right",
              invariants: InvariantMap | None = None) -> TrajectoryRecord:
    """Integrate the Lie-Poisson flow of ``spec`` on the dual of ``mp.algebra``, the double.

    Fixed-step RK4 (:func:`_run_rk4`) on ``p_dot = M(p) grad H(p)`` (negated in
    the left convention), ``M(z)[i, j] = sum_k C[k, i, j] z_k``.  A quadratic spec
    is folded once per run into ``G`` (D, D, D) on ``y = (z, 1)``, ``D = d + 1``:
    ``G[k, i, :d] = sign (C Q)[k, i]``, ``G[k, i, d] = sign (C b)[k, i]``, 0
    elsewhere, and the field is ``(y @ G).reshape(D, D) @ y``, last component 0: ``y[-1]``
    stays 1, whence the fused stages' identity blocks.  A black box runs the plain
    stages of ``(z @ sign C).reshape(d, d) @ gradient(spec, z)``.  ``spec`` is
    "H", the first invariant, and passes the invariants' gate (see :data:`InvariantMap`),
    so a callable of (mu, nu) runs as a black box.  It validates ``mp`` (ValidationError
    naming the failed checks) and reads ``p0`` as one flat (n + m,) vector of finite
    entries (InputError before any step).  A black box's InputError at ``p0`` is raised as
    is; at any later stage it ends the run as an IntegrationError at that step.
    """
    mp.validate()
    sign = convention_sign(convention)
    d = mp.algebra.dim
    z0 = _require_finite(_as_vector(p0, d, "dual point"), "dual point")
    specs = _invariant_specs(mp.split, spec, invariants)
    spec = specs["H"]
    steps, times = _grid(dt, t_end)
    C = sign * mp.algebra.C
    if spec.is_quadratic:
        G = np.zeros((d + 1,) * 3)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the first scan
            G[:d, :d, :d], G[:d, :d, d] = C @ spec.Q, C @ spec.b
        states = _run_rk4(G.reshape(d + 1, -1), np.append(z0, 1.0), dt, steps)[:, :d]
    else:
        states = _run_rk4(C.reshape(d, d * d), z0, dt, steps, spec)
    series, drift = _monitor(states, specs)
    return TrajectoryRecord(times, states, mp.split, series, drift)


def integrate_ep(mp: MatchedPair, energy: HamiltonianSpec, velocities0, dt: float,
                 t_end: float, invariants: InvariantMap | None = None) -> TrajectoryRecord:
    """Integrate the Euler-Poincare flow whose Legendre Hamiltonian is ``energy``
    (for metric blocks, ``legendre(metric_g, metric_h)``).

    The Euler-Poincare equations are the left Lie-Poisson equations of the
    Legendre Hamiltonian, so this runs :func:`integrate` in the left convention
    on the double of ``mp``, from the momenta ``solve(Q, velocities0)``, with
    ``velocities0`` one flat (n + m,) vector of finite entries (InputError).  The
    velocities ``states @ Q`` are stored alongside the momenta; "H" holds the kinetic
    energy.  It validates ``mp`` and checks ``energy``: dimension n + m
    (DimensionMismatch), no linear term and no coupling block ``Q[:n, n:]``
    (InputError), ``Q`` positive definite (DegenerateMetricError), and finite momenta
    (InputError).
    """
    v0 = _require_finite(_as_vector(velocities0, mp.algebra.dim, "initial velocities"),
                         "initial velocities")
    mp.validate()
    n, d = mp.g.dim, v0.size
    if not isinstance(energy, HamiltonianSpec):
        raise InputError(f"the energy must be a HamiltonianSpec, got {type(energy).__name__}")
    if energy.dim != d:
        raise DimensionMismatch(f"Hamiltonian dimension {energy.dim} does not match the pair ({d})")
    if not energy.is_quadratic or np.any(energy.b) or np.any(energy.Q[:n, n:]):
        raise InputError("Euler-Poincare needs a quadratic form with no linear term or g-h block")
    try:
        np.linalg.cholesky(energy.Q)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError("the quadratic form is not positive definite") from exc
    z0 = _require_finite(np.linalg.solve(energy.Q, v0), "initial momenta")
    record = integrate(mp, energy, z0, dt, t_end, "left", invariants)
    return replace(record, velocities=record.states @ energy.Q)
