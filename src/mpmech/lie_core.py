"""Finite-dimensional real Lie algebras given by structure constants.

Conventions used throughout the package:

* the bracket is stored as a dense rank-3 tensor ``C`` with index order
  (target, left, right): ``[e_i, e_j] = sum_k C[k, i, j] e_k``;
* the basis is always the coordinate basis, and duals use the coordinate
  pairing ``<mu, x> = sum_i mu_i x_i``;
* ``C`` is contracted only by :func:`poisson_tensor`, the Poisson tensor
  ``M(z)[i, j] = sum_k C[k, i, j] z_k``: through :func:`coadjoint` (every field and action map,
  the audit, and :func:`bracket` with the brackets and forms built on it) and in the Jacobiator;
* all objects are immutable after construction and every operation is a
  pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InputError, ValidationError

ABS_FLOOR = 1e-12
DEFECT_TOLERANCE = 0.5e-10


def defect_bound(*tensors) -> float:
    """Bound on a defect bilinear in ``tensors`` (the Jacobiator, both
    compatibility conditions): ``0.5e-10 * s**2`` with ``s = 1 + max |entry|``,
    and ``inf``, which no check accepts, past the float range."""
    s = 1.0 + float(np.abs(np.concatenate(tensors, axis=None)).max())
    return DEFECT_TOLERANCE * s * s


@dataclass(frozen=True)
class Check:
    """One named defect with the bound it must not exceed and the basis labels
    of its largest entry."""

    name: str
    value: float
    bound: float
    witness: str

    @property
    def ok(self) -> bool:
        """Within the bound; a NaN or infinite value or bound never passes."""
        return self.value <= self.bound < np.inf


def require(checks: Sequence[Check]) -> None:
    """Raise ValidationError naming every failed check."""
    failed = [c for c in checks if not c.ok]
    if failed:
        raise ValidationError("; ".join(
            f"{c.name} {c.value:.3e} exceeds {c.bound:.3e} at {c.witness}" for c in failed))


def float_array(value, what: str, dtype: type = float) -> np.ndarray:
    """``value`` as a float array, or of ``dtype`` (complex for matrices); ragged
    or non-numeric nesting, or an integer past the float range, is an InputError."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} is not a numeric array: {exc}") from exc


def _require_finite(arr: np.ndarray, what: str, error: type[InputError] = InputError) -> np.ndarray:
    """``arr``, or ``error`` if it holds a NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise error(f"non-finite entries in {what}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


def _symmetric_part(value, what: str, error: type[InputError] = InputError, *,
                    antisymmetric: bool = False) -> np.ndarray:
    """The read-only symmetric part ``(M + M^T) / 2`` of the square float matrix
    ``value``, or with ``antisymmetric`` the part ``(C - C^T) / 2`` of a cubic
    rank-3 tensor over its last two indices.  Halves first, so entries near
    1e308 cannot overflow.  A wrong shape is an InputError; ``error`` if an
    entry is not finite or the defect ``max |M - part|`` exceeds
    ``0.5 ABS_FLOOR (1 + max |M|)``."""
    M = float_array(value, what)
    rank = 3 if antisymmetric else 2
    if M.ndim != rank or M.shape.count(M.shape[0]) != rank:
        raise InputError(f"{what} must be {'a cubic rank-3 tensor' if antisymmetric else 'square'}"
                         f", got shape {M.shape}")
    half = 0.5 * _require_finite(M, what, error)
    half_t = half.swapaxes(-1, -2)
    part, rest = (half - half_t, half + half_t) if antisymmetric else (half + half_t, half - half_t)
    defect = float(np.abs(rest).max(initial=0.0))
    if defect > 0.5 * ABS_FLOOR * (1.0 + float(np.abs(M).max(initial=0.0))):
        raise error(f"{what} are not antisymmetric in the last two indices (defect {defect:.3e})"
                    if antisymmetric else f"{what} is not symmetric")
    return _read_only(part)


def _as_vector(v, dim: int, what: str) -> np.ndarray:
    arr = float_array(v, what)
    if arr.shape != (dim,):
        raise DimensionMismatch(f"{what} has shape {arr.shape}, expected ({dim},)")
    return arr


class LieAlgebra:
    """A real Lie algebra in a fixed basis.

    The constructor antisymmetrizes the structure tensor over its last two
    indices when the asymmetry is below ``1e-12`` relative, and rejects the
    input otherwise.  The Jacobi identity is checked when ``validate=True``
    (the default); pass ``validate=False`` to build deliberately broken
    algebras for negative tests and re-run the check later with
    :meth:`validate`.  The Jacobiator is computed at most once per algebra
    and kept (see :attr:`jacobiator`).
    """

    def __init__(self, constants, names: Sequence[str] | None = None, *,
                 validate: bool = True):
        C = _symmetric_part(constants, "structure constants", antisymmetric=True)
        if C.shape[0] == 0:
            raise InputError("algebra dimension must be positive")
        self.C = C
        self.dim = int(C.shape[0])
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != self.dim:
                raise InputError(f"got {len(names)} basis names for dimension {self.dim}")
        self.names = names
        self._validated = False
        if validate:
            self.validate()

    @property
    def validated(self) -> bool:
        return self._validated

    @cached_property
    def left_constants(self) -> np.ndarray:
        """``C.transpose(1, 0, 2)``, contiguous and read-only: :func:`bracket`'s tensor."""
        return _read_only(np.ascontiguousarray(self.C.transpose(1, 0, 2)))

    @cached_property
    def jacobiator(self) -> np.ndarray:
        """Read-only ``J[m, i, j, l]``, the E_m part of Jac(E_i, E_j, E_l)."""
        return _read_only(_jacobiator(self.C))

    def jacobi_check(self, name: str) -> Check:
        """The Jacobi identity as a :class:`Check` against :func:`defect_bound`,
        witnessed by the basis triple of the largest Jacobiator entry."""
        value, (_, i, j, l) = _largest_entry(self.jacobiator)
        return Check(name, value, defect_bound(self.C),
                     f"({self.name_of(i)}, {self.name_of(j)}, {self.name_of(l)})")

    def validate(self) -> "LieAlgebra":
        """Check the Jacobi identity; caches the result on success."""
        if not self._validated:
            require([self.jacobi_check("jacobi defect")])
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

    Evaluated as ``0.5 * (c(x, y) - c(y, x))`` with ``c`` the :func:`coadjoint`
    of :attr:`LieAlgebra.left_constants`, so the result is antisymmetric in floating point:
    ``bracket(y, x) == -bracket(x, y)`` bit for bit but for the sign of zeros,
    and ``bracket(x, x)`` is exactly zero, whatever the structure constants.
    """
    x = _as_vector(x, alg.dim, "left bracket argument")
    y = _as_vector(y, alg.dim, "right bracket argument")
    T = alg.left_constants
    return 0.5 * (coadjoint(T, x, y) - coadjoint(T, y, x))


def poisson_tensor(C: np.ndarray, z) -> np.ndarray:
    """The Lie-Poisson tensor ``M(z)[..., i, j] = sum_k C[k, i, j] z_k`` over any leading
    axes of ``z``, one matrix product ``z @ C.reshape(K, I*J)``.  Its views: :func:`coadjoint`
    (``M(z) x``: every field, action map and bracket) and the Jacobiator."""
    K, I, J = C.shape
    return np.matmul(z, C.reshape(K, I * J)).reshape(*np.shape(z)[:-1], I, J)


def coadjoint(C: np.ndarray, z, x) -> np.ndarray:
    """``ad*_x z = sum_kj C[k, i, j] z_k x_j`` over any leading axes; at
    ``x = grad H(z)`` it is the right Lie-Poisson field ``M(z) grad H``.  Its views:
    :func:`ad_star`, :func:`lie_poisson_rhs`, :func:`bracket`, and in ``matched_pair``
    ``matched_lp_rhs`` and the audit's fields on ``MatchedPair.algebra`` and the six
    action maps on ``MatchedPair.map_tensors``.  Two steps, as in ``integrate``'s
    stage: :func:`poisson_tensor` over all rows, then a 2-operand einsum of ``M``
    with ``x`` row by row.  Not ``@``: BLAS fuses multiply-adds, so ``ad*_mu mu`` on
    su(2) would not be exactly zero.  The one gate of ``z`` and ``x``: :func:`float_array`
    reads them (InputError), and shapes that do not contract, such as leading axes that do
    not broadcast or an ``x`` whose last axis is not ``C``'s, are a DimensionMismatch."""
    z, x = float_array(z, "coadjoint point z"), float_array(x, "coadjoint vector x")
    try:
        if x.shape[-1:] == C.shape[2:]:
            return np.einsum("...ij,...j->...i", poisson_tensor(C, z), x)
    except ValueError:
        pass
    raise DimensionMismatch(f"cannot contract rows of shapes {z.shape} and "
                            f"{x.shape} with constants of shape {C.shape}")


def ad_star(alg: LieAlgebra, xi, mu) -> np.ndarray:
    """Infinitesimal coadjoint action <ad*_xi mu, z> = -<mu, [xi, z]>, as
    :func:`coadjoint` on ``alg``."""
    xi, mu = _as_vector(xi, alg.dim, "algebra vector"), _as_vector(mu, alg.dim, "dual vector")
    return coadjoint(alg.C, mu, xi)


def _jacobiator(C: np.ndarray) -> np.ndarray:
    # P[m, i, j, l], the E_m part of [e_i, [e_j, e_l]], is M(z) at the rows z = C[m, i]; J adds
    # P's two cyclic transposes.  Overflow shows as an inf or NaN defect, which fails its check.
    with np.errstate(over="ignore", invalid="ignore"):
        P = poisson_tensor(C, C)
        return P + P.transpose(0, 3, 1, 2) + P.transpose(0, 2, 3, 1)


def _largest_entry(T: np.ndarray) -> tuple[float, tuple]:
    """``(max |T|, index of that entry)``; a NaN counts as largest."""
    k = int(np.abs(T).argmax())
    return float(abs(T.flat[k])), np.unravel_index(k, T.shape)


def lie_poisson_bracket(alg: LieAlgebra, mu, grad_h, grad_f) -> float:
    """Linear Poisson bracket on the dual: <mu, [grad_h, grad_f]>.

    The same contraction is the coadjoint-orbit (KKS) two-form at mu on the
    generators grad_h, grad_f.  Antisymmetric in floating point (through
    :func:`bracket`): swapping the gradients negates the value exactly, and
    equal gradients give ``0.0``.
    """
    mu = _as_vector(mu, alg.dim, "dual point")
    return float(mu @ bracket(alg, grad_h, grad_f))


def convention_sign(convention: str) -> float:
    """+1.0 for the "right" Lie-Poisson convention, -1.0 for "left"."""
    if convention == "right":
        return 1.0
    if convention == "left":
        return -1.0
    raise InputError(f"unknown convention {convention!r}, expected 'right' or 'left'")


def lie_poisson_rhs(alg: LieAlgebra, mu, grad_h, convention: str = "right") -> np.ndarray:
    """Lie-Poisson vector field on the dual.

    In the "right" convention ``mu_dot = ad*_{grad_h} mu`` and trajectories
    satisfy ``dF/dt = {F, H}`` with :func:`lie_poisson_bracket`; "left" is the
    pointwise negation.
    """
    return convention_sign(convention) * ad_star(alg, grad_h, mu)


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
