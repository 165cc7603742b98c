"""Finite-dimensional real Lie algebras given by structure constants.

Conventions used throughout the package:

* the bracket is stored as a dense rank-3 tensor ``C`` with index order
  (target, left, right): ``[e_i, e_j] = sum_k C[k, i, j] e_k``;
* the basis is always the coordinate basis, and duals use the coordinate
  pairing ``<mu, x> = sum_i mu_i x_i``;
* all objects are immutable after construction and every operation is a
  pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InputError, ValidationError

ABS_FLOOR = 1e-12


def tolerance_scale() -> float:
    """Global multiplier for validation tolerances (MPM_TOLERANCE_SCALE).

    It must be finite and positive: a NaN scale would make every
    ``defect > bound`` test false and so accept any input.
    """
    text = os.environ.get("MPM_TOLERANCE_SCALE", "1")
    try:
        scale = float(text)
    except ValueError as exc:
        raise InputError(f"MPM_TOLERANCE_SCALE is not a number: {exc}") from exc
    if not 0 < scale < np.inf:
        raise InputError(f"MPM_TOLERANCE_SCALE must be finite and positive, got {text!r}")
    return scale


def _as_vector(v, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise DimensionMismatch(
            f"{what} has shape {arr.shape}, expected ({dim},)"
        )
    return arr


class LieAlgebra:
    """A real Lie algebra in a fixed basis.

    The constructor antisymmetrizes the structure tensor over its last two
    indices when the asymmetry is below ``1e-12`` relative, and rejects the
    input otherwise.  The Jacobi identity is checked when ``validate=True``
    (the default); pass ``validate=False`` to build deliberately broken
    algebras for negative tests and re-run the check later with
    :meth:`validate`.
    """

    def __init__(self, constants, names: Sequence[str] | None = None, *,
                 validate: bool = True):
        C = np.array(constants, dtype=float)
        if C.ndim != 3 or C.shape[0] != C.shape[1] or C.shape[0] != C.shape[2]:
            raise InputError(
                f"structure constants must be a cubic rank-3 tensor, got shape {C.shape}"
            )
        if C.shape[0] == 0:
            raise InputError("algebra dimension must be positive")
        if not np.all(np.isfinite(C)):
            raise InputError("structure constants contain non-finite entries")
        scale = 1.0 + float(np.abs(C).max())
        asym = float(np.abs(C + C.transpose(0, 2, 1)).max())
        if asym > ABS_FLOOR * scale * tolerance_scale():
            raise InputError(
                f"structure constants are not antisymmetric in the last two "
                f"indices (defect {asym:.3e})"
            )
        C = 0.5 * (C - C.transpose(0, 2, 1))
        C.setflags(write=False)
        self.C = C
        self.dim = int(C.shape[0])
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != self.dim:
                raise InputError(
                    f"got {len(names)} basis names for dimension {self.dim}"
                )
        self.names = names
        self._validated = False
        if validate:
            self.validate()

    @property
    def validated(self) -> bool:
        return self._validated

    def validate(self) -> "LieAlgebra":
        """Check the Jacobi identity; caches the result on success."""
        if not self._validated:
            defect = jacobi_defect(self)
            bound = 1e-10 * (1.0 + float(np.abs(self.C).max())) ** 3
            bound *= tolerance_scale()
            if defect > bound:
                raise ValidationError(
                    f"Jacobi identity fails: defect {defect:.3e} exceeds {bound:.3e}"
                )
            self._validated = True
        return self

    def name_of(self, index: int) -> str:
        if self.names is not None:
            return self.names[index]
        return f"x{index + 1}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LieAlgebra(dim={self.dim}, names={self.names}, validated={self._validated})"


def abelian(dim: int, names: Sequence[str] | None = None) -> LieAlgebra:
    """The abelian Lie algebra of the given dimension (all brackets zero)."""
    return LieAlgebra(np.zeros((dim, dim, dim)), names)


def bracket(alg: LieAlgebra, x, y) -> np.ndarray:
    """Lie bracket [x, y] in coordinates.

    Evaluated as ``0.5 * (c(x, y) - c(y, x))`` with ``c`` the plain
    contraction with ``C``, so the result is antisymmetric in floating point:
    ``bracket(y, x) == -bracket(x, y)`` bit for bit and ``bracket(x, x)`` is
    exactly zero, whatever the structure constants.
    """
    x = _as_vector(x, alg.dim, "left bracket argument")
    y = _as_vector(y, alg.dim, "right bracket argument")
    return 0.5 * (np.einsum("kij,i,j->k", alg.C, x, y)
                  - np.einsum("kij,i,j->k", alg.C, y, x))


def ad_star(alg: LieAlgebra, xi, mu) -> np.ndarray:
    """Infinitesimal coadjoint action: <ad*_xi mu, z> = -<mu, [xi, z]>."""
    xi = _as_vector(xi, alg.dim, "algebra vector")
    mu = _as_vector(mu, alg.dim, "dual vector")
    return -np.einsum("kij,i,k->j", alg.C, xi, mu)


def jacobi_defect(alg: LieAlgebra) -> float:
    """Max-norm of the Jacobiator over all basis triples.

    Zero (up to rounding) iff the structure constants define a Lie algebra.
    """
    C = alg.C
    J = (
        np.einsum("mik,kjl->mijl", C, C)
        + np.einsum("mjk,kli->mijl", C, C)
        + np.einsum("mlk,kij->mijl", C, C)
    )
    return float(np.abs(J).max())


def lie_poisson_bracket(alg: LieAlgebra, mu, grad_h, grad_f) -> float:
    """Linear Poisson bracket on the dual: <mu, [grad_h, grad_f]>.

    Antisymmetric in floating point (through :func:`bracket`): swapping the
    gradients negates the value exactly, and equal gradients give ``0.0``.
    """
    mu = _as_vector(mu, alg.dim, "dual point")
    return float(mu @ bracket(alg, grad_h, grad_f))


def lie_poisson_rhs(alg: LieAlgebra, mu, grad_h, convention: str = "right") -> np.ndarray:
    """Lie-Poisson vector field on the dual.

    In the "right" convention ``mu_dot = ad*_{grad_h} mu`` and trajectories
    satisfy ``dF/dt = {F, H}`` with :func:`lie_poisson_bracket`; "left" is the
    pointwise negation.
    """
    rhs = ad_star(alg, grad_h, mu)
    if convention == "right":
        return rhs
    if convention == "left":
        return -rhs
    raise InputError(f"unknown convention {convention!r}, expected 'right' or 'left'")


def kks_eval(alg: LieAlgebra, mu, xi1, xi2) -> float:
    """Coadjoint-orbit two-form evaluated on the generators xi1, xi2 at mu.

    Antisymmetric in floating point (through :func:`bracket`): swapping the
    generators negates the value exactly, and equal generators give ``0.0``.
    """
    mu = _as_vector(mu, alg.dim, "dual point")
    return float(mu @ bracket(alg, xi1, xi2))


def trivialized_forms_eval(alg: LieAlgebra, m, v1, v2) -> tuple[float, float]:
    """Canonical one- and two-form on the trivialized cotangent bundle.

    Tangent vectors are given in trivialized coordinates as pairs
    ``v = (m_hat, x)`` with ``m_hat`` dual and ``x`` primal.  Returns

    * ``theta = <m, x1>``,
    * ``omega = <m_hat2, x1> - <m_hat1, x2> + <m, [x1, x2]>``.

    ``omega(v, v)`` is exactly ``0.0``: the pairing terms cancel and the
    bracket term vanishes exactly by :func:`bracket`.
    """
    m = _as_vector(m, alg.dim, "base dual point")
    m1, x1 = v1
    m2, x2 = v2
    m1 = _as_vector(m1, alg.dim, "first dual component")
    x1 = _as_vector(x1, alg.dim, "first primal component")
    m2 = _as_vector(m2, alg.dim, "second dual component")
    x2 = _as_vector(x2, alg.dim, "second primal component")
    theta = float(m @ x1)
    omega = float(m2 @ x1 - m1 @ x2 + m @ bracket(alg, x1, x2))
    return theta, omega
