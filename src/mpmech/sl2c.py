"""The SU(2) / lower-triangular factorization of SL(2,C), end to end.

SL(2,C) factors uniquely as SU(2) * K where K is the subgroup of
lower-triangular matrices with positive diagonal (the Iwasawa decomposition,
here parametrized by three real numbers).  At the Lie algebra level this
splits sl(2,C), viewed as a real algebra, into su(2) and the tangent algebra
of K; the mixed matrix commutators then define mutual actions that make the
two algebras a matched pair.

Both the algebra identifications and the action tensors are produced
numerically: su(2) is identified with R^3 so that the bracket becomes the
cross product, K's algebra carries [Y1, Y2] = k x (Y1 x Y2) with
k = (0, 0, 1), and the mixed commutators are projected back onto the
embedded bases by solving a real linear system.  A second, closed-form
tensor set circulating for this example ("sl2c_printed") uses the opposite
orientation for the action of su(2) on K's algebra; it fails the
compatibility conditions and ships only as an audit target.

At group level the factors are plain read-only arrays: :func:`iwasawa_factor`
returns U in SU(2) as a 2x2 complex array and the point k = (a, b, c) of K,
K(k) = (1/sqrt(1+c)) [[1+c, 0], [a+ib, 1]], as a float array of length 3;
:func:`group_act` takes and returns the same arrays.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

import numpy as np

from .errors import EmbeddingError, InputError, ValidationError
from .lie_core import LieAlgebra, _read_only, _require_finite, abelian, float_array
from .matched_pair import ClosedFormActions, MatchedPair, pair_from_double

KHAT = _read_only(np.array([0.0, 0.0, 1.0]))
_NEXT, _LAST = np.array([1, 2, 0], np.intp), np.array([2, 0, 1], np.intp)  # _cross's gathers


def _cross(a, b):
    """The cross product on the last axis, bitwise as numpy's (same products and subtraction)."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


# [k, a, i]: (e_a x e_i)_k
_EPS = _read_only(_cross(np.eye(3)[:, None], np.eye(3)).transpose(2, 0, 1))


def su2_algebra() -> LieAlgebra:
    """su(2) identified with R^3: the bracket is the cross product."""
    return LieAlgebra(_EPS, ("e1", "e2", "e3"))


def k_algebra() -> LieAlgebra:
    """The triangular factor's algebra on R^3: [Y1, Y2] = k x (Y1 x Y2)."""
    C = np.zeros((3, 3, 3))
    for m in range(3):
        C[m, m, 2] += 1.0
        C[m, 2, m] -= 1.0
    return LieAlgebra(C, ("f1", "f2", "f3"))


def su2_basis() -> list[np.ndarray]:
    """Traceless skew-hermitian matrices mapped to the unit vectors of R^3."""
    return [
        np.array([[0.0, -0.5j], [-0.5j, 0.0]]),
        np.array([[0.0, -0.5], [0.5, 0.0]]),
        np.array([[-0.5j, 0.0], [0.0, 0.5j]]),
    ]


def k_basis() -> list[np.ndarray]:
    """Tangent basis of the triangular factor at the identity."""
    return [
        np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [1.0j, 0.0]]),
        np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
    ]


# -- group elements -----------------------------------------------------------

def _require_k(a: float, b: float, c: float) -> None:
    """(a, b, c) must be a point of K: finite a, b and c > -1."""
    if not (abs(a) < math.inf and abs(b) < math.inf and -1.0 < c < math.inf):
        raise InputError(f"K element needs finite a, b and c > -1, got ({a}, {b}, {c})")


def _require_su2(a: complex, b: complex, c: complex, d: complex, tol: float) -> None:
    """[[a, b], [c, d]] must be special unitary within ``tol`` on its entries, as Python
    complex scalars (cheaper than numpy calls at 2x2); moduli by ``math.hypot``, as
    ``abs`` raises past the float range."""
    # M^dagger M - I; its lower-left entry is the conjugate of the upper-right one
    gram = (a.conjugate() * a + c.conjugate() * c - 1.0, a.conjugate() * b + c.conjugate() * d,
            b.conjugate() * b + d.conjugate() * d - 1.0)
    if not all(math.hypot(z.real, z.imag) <= tol for z in gram):
        raise ValidationError("matrix is not unitary")
    det = a * d - b * c
    if not math.hypot(det.real - 1.0, det.imag) <= tol:
        raise ValidationError("matrix does not have unit determinant")


def iwasawa_factor(M) -> tuple[np.ndarray, np.ndarray]:
    """Factor a determinant-1 matrix as U @ K(k), returned as read-only arrays:
    U in SU(2), 2x2 complex, and k = (a, b, c), K(k) as the module docstring says.

    k is read off the positive-definite product P = M^dagger M: c = 1/P22 - 1
    and a + ib = P21/P22, which avoids Gram-Schmidt cancellation for
    near-identity input; U is then M K(k)^-1, a numpy product like P: their
    rounding fixes the factors' bits, while the checks run on the entries as
    Python complex scalars.  A determinant off 1 by over 1e-10, or P22, 1/P22 or
    P21/P22 past the float range, is an InputError; U off SU(2) by over 1e-12 a
    ValidationError.
    """
    M = float_array(M, "matrix", complex)
    if M.shape != (2, 2):
        raise InputError(f"expected a 2x2 matrix, got shape {M.shape}")
    (a, b), (c, d) = M.tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise InputError("non-finite entries in matrix")
    det = a * d - b * c
    if not math.hypot(det.real - 1.0, det.imag) <= 1e-10:
        raise InputError(f"matrix determinant {det} is not 1")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a test
        (_, _), (p21, p22) = (M.conj().T @ M).tolist()  # only P21 and P22 are used
    p22 = p22.real
    if not 0.0 < p22 < math.inf:
        raise InputError(f"matrix cannot be factored in double precision (P22 = {p22})")
    s = 1.0 / p22  # a + ib = P21 / P22 as numpy divides by a real, zero signs included
    ka, kb, kc = (p21.real + p21.imag * 0.0) * s, (p21.imag - p21.real * 0.0) * s, s - 1.0
    _require_k(ka, kb, kc)
    r = 1.0 / np.sqrt(1.0 + kc)
    U = M @ np.array([[r, 0.0], [-r * (ka + 1j * kb), r * (1.0 + kc)]])
    _require_su2(*U.ravel().tolist(), 1e-12)
    k = np.array([ka, kb, kc])
    return _read_only(U), _read_only(k)


def group_act(k, U) -> tuple[np.ndarray, np.ndarray]:
    """Mutual group actions by refactoring, for k = (a, b, c) in K and U in SU(2)
    as :func:`iwasawa_factor` returns them: K(k) @ U = (k |> U) @ K(k <| U).
    k and U are checked as the factors are."""
    k, U = float_array(k, "K element"), float_array(U, "SU(2) element", complex)
    if k.shape != (3,) or U.shape != (2, 2):
        raise InputError(f"expected k of shape (3,) and a 2x2 U, got {k.shape} and {U.shape}")
    a, b, c = k.tolist()
    _require_k(a, b, c)
    _require_su2(*U.ravel().tolist(), 1e-12)
    s = 1.0 / np.sqrt(1.0 + c)
    return iwasawa_factor(np.array([[s * (1.0 + c), 0.0], [s * (a + 1j * b), s]]) @ U)


# -- deriving action tensors from an embedding -------------------------------

def standard_basis() -> tuple:
    """The su(2) + triangular bases of the built-in pairs, as the arguments
    (g_matrices, h_matrices, g_names, h_names) of :func:`derive_actions_from_embedding`."""
    return su2_basis(), k_basis(), ("e1", "e2", "e3"), ("f1", "f2", "f3")


def _vec(M: np.ndarray) -> np.ndarray:
    flat = M.reshape(*M.shape[:-2], 4)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def derive_actions_from_embedding(g_matrices, h_matrices, g_names=None,
                                  h_names=None) -> MatchedPair:
    """Read off a matched pair from the 2x2 complex basis matrices of g and h.

    Each factor's matrices must be 2x2 and finite (InputError, g before h).  The
    commutators of the combined basis (g first, then h) are decomposed over its
    real span in one least-squares solve; the coefficients are the double's
    structure constants, which :func:`~mpmech.matched_pair.pair_from_double`
    splits into g, h and the actions, the mixed ones read off [f_a, e_i].  Rank
    deficiency, a commutator escaping the span or a factor that is not closed
    raises EmbeddingError.
    """
    bases = []
    for matrices in (g_matrices, h_matrices):
        bases.append([float_array(M, "basis matrix", complex) for M in matrices])
        for M in bases[-1]:
            if M.shape != (2, 2):
                raise InputError("basis matrices must be 2x2")
            _require_finite(M, "basis matrices")
    n = len(bases[0])
    mats = np.array(bases[0] + bases[1]).reshape(-1, 2, 2)
    d = len(mats)
    i, j = np.indices((d, d))
    # one orientation per pair: [e_i, e_j] and [f_a, f_b] above the diagonal, [f_a, e_i]
    I, J = np.nonzero((i < j) == ((i < n) == (j < n)))
    with np.errstate(over="ignore", invalid="ignore"):  # tested next
        comms = mats[I] @ mats[J] - mats[J] @ mats[I]
    _require_finite(comms, "basis commutators", EmbeddingError)
    B, targets = _vec(mats).T, _vec(comms).T
    coeffs, _, rank, _ = np.linalg.lstsq(B, targets, rcond=None)
    if rank < d:
        raise EmbeddingError("embedded basis matrices are not linearly independent")
    residual = np.abs(B @ coeffs - targets).max(axis=0)
    tol = 1e-10 * (1.0 + np.abs(comms).max(axis=(1, 2)))
    if np.any(residual > tol):
        raise EmbeddingError(f"commutator leaves the span of the basis "
                             f"(residual {residual[residual > tol][0]:.3e})")
    C = np.zeros((d, d, d))
    C[:, I, J], C[:, J, I] = coeffs, -coeffs
    return pair_from_double(C, n, g_names, h_names)


# -- built-in pairs and closed forms ------------------------------------------

def _printed_tensors() -> tuple[np.ndarray, np.ndarray]:
    # closed-form convention: Y |> X = Y x (X x k), Y <| X = X x Y
    eye = np.eye(3)
    rho = _cross(eye[:, None], _cross(eye, KHAT)).transpose(2, 0, 1)  # [:, a, i]
    return rho, _EPS.transpose(0, 2, 1)


BUILTIN_PAIRS = ("sl2c_derived", "sl2c_printed", "e3_heavytop")


def builtin_pairs() -> dict[str, MatchedPair]:
    """The shipped example pairs, built once, in a fresh dict keyed by ``BUILTIN_PAIRS``.

    * ``sl2c_derived`` -- actions derived from 2x2 matrix commutators; the
      package default, fully validated.
    * ``sl2c_printed`` -- the closed-form tensor convention (|> as
      Y x (X x k), <| as X x Y).  Intentionally unvalidated: its right
      action has the opposite orientation and fails compatibility; it exists
      to reproduce the formula audit.
    * ``e3_heavytop`` -- the Euclidean algebra e(3) as a matched pair with a
      trivial left action (a semidirect product), for heavy-top dynamics.
    """
    return dict(zip(BUILTIN_PAIRS, _build_pairs()))


@cache
def _build_pairs() -> tuple[MatchedPair, ...]:
    derived = derive_actions_from_embedding(*standard_basis())
    rho_p, sigma_p = _printed_tensors()
    printed = MatchedPair(su2_algebra(), k_algebra(), rho_p, sigma_p,
                          validate=False)
    # e(3): f_a <| e_i = f_a x e_i, the cross product's constants
    heavytop = MatchedPair(su2_algebra(), abelian(3, ("f1", "f2", "f3")),
                           np.zeros((3, 3, 3)), _EPS)
    return derived, printed, heavytop


def sl2c_closed_forms() -> ClosedFormActions:
    """The closed-form dual actions and vector field of the printed convention.

    These are the expressions the audit reconciles: the duals are checked
    against the pairing identities of the printed tensors, the vector field
    against the canonical coadjoint assembly on the derived pair.  Every
    expression broadcasts over leading axes, so it takes one vector or a
    stack of rows (one sample per row) alike.
    """

    def co_left(mu, eta):
        return _cross(mu, _cross(KHAT, eta))

    def co_right(xi, nu):
        return _cross(nu, xi)

    def a_star_cf(eta, nu):
        return _cross(eta, nu)

    def b_star_cf(xi, mu):
        return mu[..., 2:] * xi - (mu * xi).sum(-1, keepdims=True) * KHAT

    def lp_rhs(mu, nu, x, y):
        mu_dot = _cross(x + _cross(y, KHAT), mu) + _cross(y, nu)
        nu_dot = (y[..., 2:] * nu
                  - (nu * y + mu * x).sum(-1, keepdims=True) * KHAT
                  + _cross(nu, x)
                  + mu[..., 2:] * x)
        return mu_dot, nu_dot

    return ClosedFormActions(co_left, co_right, a_star_cf, b_star_cf, lp_rhs)
