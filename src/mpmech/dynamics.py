"""Hamiltonian and Lagrangian specifications and fixed-step integration.

The integrator is classical RK4 with a fixed step: the flows of interest
conserve energy and Casimir functions exactly at the continuous level, and a
fixed-step one-parameter scheme keeps the discrete drift interpretable as
pure truncation error.  Invariants are monitored at every accepted step.
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
from .lie_core import convention_sign
from .matched_pair import (
    DoubleAlgebra,
    MatchedPair,
    _as_pair,
    _require_validated,
    as_dual_point,
    build_double,
)

FD_STEP = 1e-6  # central-difference step, scaled per component by 1 + |z_i|


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
        Q = np.array(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InputError(f"quadratic form must be square, got shape {Q.shape}")
        scale = 1.0 + float(np.abs(Q).max())
        if float(np.abs(Q - Q.T).max()) > 1e-12 * scale:
            raise InputError("quadratic form is not symmetric")
        Q = 0.5 * Q + 0.5 * Q.T
        dim = Q.shape[0]
        if b is None:
            b = np.zeros(dim)
        b = np.asarray(b, dtype=float)
        if b.shape != (dim,):
            raise DimensionMismatch(f"linear term has shape {b.shape}, expected ({dim},)")
        if not (np.isfinite(Q).all() and np.isfinite(b).all()):
            raise InputError("quadratic Hamiltonian has non-finite entries")
        Q.setflags(write=False)
        b.flags.writeable = False
        return cls(dim, Q, b, None)

    @classmethod
    def blackbox(cls, f: Callable[[np.ndarray], float], dim: int) -> "HamiltonianSpec":
        return cls(int(dim), None, None, f)

    @property
    def is_quadratic(self) -> bool:
        return self.Q is not None

    def value(self, z) -> float:
        z = self._check(z)
        if self.is_quadratic:
            return float(0.5 * z @ self.Q @ z + self.b @ z)
        return float(self.f(z))

    def _check(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(f"state has shape {z.shape}, expected ({self.dim},)")
        return z


def gradient(spec: HamiltonianSpec, z) -> np.ndarray:
    """Gradient of the Hamiltonian: exact for quadratic specs, central
    differences (step 1e-6 * (1 + |z_i|)) for black boxes."""
    z = spec._check(z)
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
        M = np.array(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InputError(f"{what} must be square, got shape {M.shape}")
        scale = 1.0 + float(np.abs(M).max())
        if float(np.abs(M - M.T).max()) > 1e-12 * scale:
            raise DegenerateMetricError(f"{what} is not symmetric")
        M = 0.5 * M + 0.5 * M.T
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"{what} is not positive definite") from exc
        M.setflags(write=False)
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
    Q[:n, :n] = 0.5 * inv_g + 0.5 * inv_g.T
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


def _drift(series: np.ndarray) -> float:
    return float(np.abs(series - series[0]).max() / (1.0 + abs(series[0])))


def _grid(dt: float, t_end: float) -> tuple[int, np.ndarray]:
    if not (0 < dt <= t_end < np.inf):
        raise InputError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")
    ratio = t_end / dt
    if not ratio <= 2.0 ** 53:  # inf, or so large that every float is whole
        raise InputError(f"t_end={t_end} is too many steps of dt={dt}")
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * steps:
        raise InputError(f"t_end={t_end} is not a whole number of steps of dt={dt}")
    return steps, dt * np.arange(steps + 1)


def _run_rk4(f, z0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    states = np.empty((steps + 1, z0.size))
    states[0] = z0
    z = z0
    half = 0.5 * dt
    K = np.empty((4, z0.size))
    w = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    # overflow is detected by the finiteness guard, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            K[0] = f(z)
            K[1] = f(z + half * K[0])
            K[2] = f(z + half * K[1])
            K[3] = f(z + dt * K[2])
            z = z + np.dot(w, K)
            if not np.isfinite(z).all():
                raise IntegrationError(
                    f"state became non-finite at t={(step + 1) * dt:g}",
                    last_good_time=step * dt,
                )
            states[step + 1] = z
    return states


def _monitor(states: np.ndarray, split: tuple[int, int], spec: HamiltonianSpec,
             invariants: InvariantMap | None):
    """Series and drifts of "H" and the invariants, all as specs: a quadratic
    one over all rows in one einsum, any other row by row."""
    n, m = split
    if "H" in (invariants or {}):
        raise InputError("invariant name 'H' is reserved for the Hamiltonian")
    series = {}
    for name, s in {"H": spec, **(invariants or {})}.items():
        if not isinstance(s, HamiltonianSpec):
            s = HamiltonianSpec.blackbox(lambda z, fn=s: fn(z[:n], z[n:]), n + m)
        elif s.dim != n + m:
            raise DimensionMismatch(f"invariant {name!r} has dimension {s.dim}, not {n + m}")
        series[name] = (0.5 * np.einsum("ij,ij->i", states @ s.Q, states) + states @ s.b
                        if s.is_quadratic else np.array([s.value(z) for z in states]))
    drift = {name: _drift(vals) for name, vals in series.items()}
    return series, drift


def integrate(double: DoubleAlgebra, spec: HamiltonianSpec, p0, dt: float,
              t_end: float, convention: str = "right",
              invariants: InvariantMap | None = None) -> TrajectoryRecord:
    """Integrate the Lie-Poisson flow of ``spec`` on the dual of ``double``.

    Fixed-step RK4 on ``p_dot = M(p) grad H(p)`` (negated in the left
    convention), ``M(z)[i, j] = sum_k C[k, i, j] z_k``.  A quadratic spec is
    folded once per run into ``G`` (D, D, D) on ``y = (z, 1)``, ``D = d + 1``:
    ``G[k, i, :d] = sign (C Q)[k, i]``, ``G[k, i, d] = sign (C b)[k, i]``, 0
    elsewhere; a stage ``(y @ G.reshape(D, D*D)).reshape(D, D) @ y`` has last
    component 0.  A black box keeps ``(z @ Cf).reshape(d, d)`` times its
    central-difference gradient.  "H" is the Hamiltonian; see :data:`InvariantMap`.
    """
    _require_validated(double)
    sign = convention_sign(convention)
    z0 = as_dual_point(p0, double.split).concat()
    if spec.dim != z0.size:
        raise DimensionMismatch(
            f"Hamiltonian dimension {spec.dim} does not match the double ({z0.size})"
        )
    steps, times = _grid(dt, t_end)
    d = double.dim
    C = sign * double.algebra.C
    if spec.is_quadratic:
        D = d + 1
        G = np.zeros((D, D, D))
        G[:d, :d, :d], G[:d, :d, d] = C @ spec.Q, C @ spec.b
        Gf = G.reshape(D, D * D)  # np.dot below: less call overhead than @ here
        states = _run_rk4(lambda y: np.dot(np.dot(y, Gf).reshape(D, D), y),
                          np.append(z0, 1.0), dt, steps)[:, :d]
    else:
        Cf = C.reshape(d, d * d)
        states = _run_rk4(lambda z: (z @ Cf).reshape(d, d) @ gradient(spec, z), z0, dt, steps)
    series, drift = _monitor(states, double.split, spec, invariants)
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
