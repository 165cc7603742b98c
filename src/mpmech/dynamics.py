"""Hamiltonian and Lagrangian specifications and fixed-step integration.

The integrator is classical RK4 with a fixed step: the flows conserve energy
and Casimirs exactly, so the discrete drift is pure truncation error.  Rows
are scanned for non-finite values every ``FINITE_BLOCK`` steps, and
invariants are checked before the run and evaluated over all rows after it.
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
from .lie_core import _as_vector, _require_finite, _symmetric_part, convention_sign
from .matched_pair import (
    DoubleAlgebra,
    MatchedPair,
    _as_pair,
    _require_validated,
    as_dual_point,
    build_double,
)

FD_STEP = 1e-6  # central-difference step, scaled per component by 1 + |z_i|
FINITE_BLOCK = 256  # RK4 steps between scans for a non-finite state
MAX_STEPS = 2 ** 23  # longest grid: 64 MiB of float64 states per column, 448 MiB at D = 7


class HamiltonianSpec:
    """A Hamiltonian on dual coordinates: quadratic form or black box.

    Quadratic: H(z) = 0.5 z^T Q z + b^T z with Q symmetric.  Black box: any
    scalar callable of the coordinate vector; its gradient is taken by
    central differences.
    """

    def __init__(self, dim: int, Q: np.ndarray | None, b: np.ndarray | None,
                 f: Callable[[np.ndarray], float] | None):
        self.dim = dim
        self.Q = Q
        self.b = b
        self.f = f

    @classmethod
    def quadratic(cls, Q, b=None) -> "HamiltonianSpec":
        Q = _symmetric_part(Q, "quadratic form")
        dim = Q.shape[0]
        b = np.array(_as_vector(np.zeros(dim) if b is None else b, dim, "linear term"))
        _require_finite(b, "linear term").flags.writeable = False
        return cls(dim, Q, b, None)

    @classmethod
    def blackbox(cls, f: Callable[[np.ndarray], float], dim: int) -> "HamiltonianSpec":
        return cls(int(dim), None, None, f)

    @property
    def is_quadratic(self) -> bool:
        return self.Q is not None

    def value(self, z) -> float:
        z = _as_vector(z, self.dim, "state")
        if self.is_quadratic:
            return float(0.5 * z @ self.Q @ z + self.b @ z)
        return float(self.f(z))


def gradient(spec: HamiltonianSpec, z) -> np.ndarray:
    """Gradient of the Hamiltonian: exact for quadratic specs, central
    differences (step 1e-6 * (1 + |z_i|)) for black boxes."""
    z = _as_vector(z, spec.dim, "state")
    if spec.is_quadratic:
        return spec.Q @ z + spec.b
    grad = np.empty(spec.dim)
    for i in range(spec.dim):
        h = FD_STEP * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        fp, fm = float(spec.f(zp)), float(spec.f(zm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise InputError(f"Hamiltonian is non-finite near component {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


class LagrangianSpec:
    """Quadratic Lagrangian given by symmetric positive-definite metric blocks."""

    def __init__(self, metric_g, metric_h):
        self.metric_g = self._check_block(metric_g, "g metric")
        self.metric_h = self._check_block(metric_h, "h metric")

    @staticmethod
    def _check_block(M, what: str) -> np.ndarray:
        M = _symmetric_part(M, what, DegenerateMetricError)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"{what} is not positive definite") from exc
        return M


def legendre(lagrangian: LagrangianSpec) -> HamiltonianSpec:
    """Quadratic Hamiltonian of the nondegenerate Lagrangian.

    H(mu, nu) = 0.5 (mu^T M_g^-1 mu + nu^T M_h^-1 nu); the gradient at
    (M_g xi, M_h eta) recovers (xi, eta).
    """
    inv_g = np.linalg.inv(lagrangian.metric_g)
    inv_h = np.linalg.inv(lagrangian.metric_h)
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
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
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


def _run_rk4(stage, y0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Classical RK4 rows from ``y0``.  ``stage(h)`` returns ``g(y, out)``
    writing ``h f(y)`` into ``out``; the stages are then ``y + k`` for the
    previous stage ``k`` and the step is ``y + (k0 + 2 k1 + k2 + k3) / 3``."""
    states = np.empty((steps + 1, y0.size))
    states[0] = y = y0
    k0, k1, k2, k3 = K = np.zeros((4, y0.size))
    half, full = stage(0.5 * dt), stage(dt)
    w = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0

    def scan(a, b):  # raise at the first non-finite row of states[a:b]
        bad = a + np.flatnonzero(~np.isfinite(states[a:b]).all(axis=1))
        if bad.size:
            raise IntegrationError(f"state became non-finite at t={bad[0] * dt:g}",
                                   last_good_time=float((bad[0] - 1) * dt))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is found by scan()
        for a in range(1, steps + 1, FINITE_BLOCK):
            try:
                for s in range(a, min(a + FINITE_BLOCK, steps + 1)):
                    half(y, k0)
                    half(y + k0, k1)
                    full(y + k1, k2)
                    half(y + k2, k3)
                    y = states[s] = y + w.dot(K)
            except InputError:  # a black box may reject a state that has blown up:
                states[s] = y + w.dot(K)  # non-finite if a stage of step s did
                scan(a, s + 1)
                raise
            scan(a, s + 1)
    return states


def _invariant_specs(split: tuple[int, int], spec: HamiltonianSpec,
                     invariants: InvariantMap | None) -> dict[str, HamiltonianSpec]:
    """"H" and the invariants, all as specs on (mu, nu), checked before a run."""
    n, m = split
    if "H" in (invariants or {}):
        raise InputError("invariant name 'H' is reserved for the Hamiltonian")
    specs = {}
    for name, s in {"H": spec, **(invariants or {})}.items():
        if not isinstance(s, HamiltonianSpec):
            s = HamiltonianSpec.blackbox(lambda z, fn=s: fn(z[:n], z[n:]), n + m)
        elif s.dim != n + m:
            raise DimensionMismatch(f"invariant {name!r} has dimension {s.dim}, not {n + m}")
        specs[name] = s
    return specs


def _monitor(states: np.ndarray, specs: dict[str, HamiltonianSpec]):
    """Series and drifts (see :class:`TrajectoryRecord`) of the specs: a quadratic
    one over all rows in one einsum, any other row by row."""
    series = {name: (0.5 * np.einsum("ij,ij->i", states @ s.Q, states) + states @ s.b
                     if s.is_quadratic else np.array([s.value(z) for z in states]))
              for name, s in specs.items()}
    return series, {name: float(np.abs(v - v[0]).max() / (1.0 + abs(v[0])))
                    for name, v in series.items()}


def integrate(double: DoubleAlgebra, spec: HamiltonianSpec, p0, dt: float,
              t_end: float, convention: str = "right",
              invariants: InvariantMap | None = None) -> TrajectoryRecord:
    """Integrate the Lie-Poisson flow of ``spec`` on the dual of ``double``.

    Fixed-step RK4 on ``p_dot = M(p) grad H(p)`` (negated in the left
    convention), ``M(z)[i, j] = sum_k C[k, i, j] z_k``.  A quadratic spec is
    folded once per run into ``G`` (D, D, D) on ``y = (z, 1)``, ``D = d + 1``:
    ``G[k, i, :d] = sign (C Q)[k, i]``, ``G[k, i, d] = sign (C b)[k, i]``, 0
    elsewhere; the stage of step ``h`` is ``(y @ Gf).reshape(D, D) @ y``, with
    ``Gf = (h G).reshape(D, D*D)`` and last component 0.  A black box takes
    ``(z @ Cf).reshape(d, d) @ gradient(spec, z)``, ``Cf = (h sign C).reshape(d, d*d)``.
    Each stage is two ``ndarray.dot`` calls, into this run's matrix buffer and
    the stage row: ``np.dot`` or ``@`` would add a Python dispatch frame, a
    reshape and a temporary.  "H" is the Hamiltonian; see :data:`InvariantMap`.
    """
    _require_validated(double)
    sign = convention_sign(convention)
    z0 = as_dual_point(p0, double.split).concat()
    if spec.dim != z0.size:
        raise DimensionMismatch(
            f"Hamiltonian dimension {spec.dim} does not match the double ({z0.size})"
        )
    steps, times = _grid(dt, t_end)
    specs = _invariant_specs(double.split, spec, invariants)
    d = double.dim
    D = d + 1 if spec.is_quadratic else d
    C = sign * double.algebra.C
    M = np.empty((D, D))  # per run, as a black box may itself call integrate
    P = M.reshape(-1)  # flat view: the first dot of a stage writes M through it
    if spec.is_quadratic:
        G = np.zeros((D, D, D))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the first scan
            G[:d, :d, :d], G[:d, :d, d] = C @ spec.Q, C @ spec.b

        def stage(h):
            Gf = (h * G).reshape(D, D * D)
            return lambda y, out: (y.dot(Gf, P), M.dot(y, out))
        states = _run_rk4(stage, np.append(z0, 1.0), dt, steps)[:, :d]
    else:
        def stage(h):
            Cf = (h * C).reshape(d, d * d)
            return lambda z, out: (z.dot(Cf, P), M.dot(gradient(spec, z), out))
        states = _run_rk4(stage, z0, dt, steps)
    series, drift = _monitor(states, specs)
    return TrajectoryRecord(times, states, double.split, series, drift)


def integrate_ep(mp: MatchedPair, lagrangian: LagrangianSpec, state0, dt: float,
                 t_end: float, invariants: InvariantMap | None = None) -> TrajectoryRecord:
    """Integrate the Euler-Poincare flow of a quadratic Lagrangian.

    The Euler-Poincare equations are the left Lie-Poisson equations of the
    Legendre Hamiltonian, so this runs :func:`integrate` in the left
    convention on the double of ``mp``, from the momenta
    ``(M_g xi0, M_h eta0)``.  Velocities, the gradient of that Hamiltonian,
    are stored alongside the momenta; "H" holds the kinetic energy.
    """
    xi0, eta0 = _as_pair(state0, (mp.g.dim, mp.h.dim), "initial velocities")
    mp.validate()
    if lagrangian.metric_g.shape[0] != mp.g.dim or lagrangian.metric_h.shape[0] != mp.h.dim:
        raise DimensionMismatch("Lagrangian metric blocks do not match the pair")
    z0 = np.concatenate([lagrangian.metric_g @ xi0, lagrangian.metric_h @ eta0])
    energy = legendre(lagrangian)
    record = integrate(build_double(mp), energy, z0, dt, t_end, "left", invariants)
    return replace(record, velocities=record.states @ energy.Q)
