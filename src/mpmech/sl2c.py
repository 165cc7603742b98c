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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmbeddingError, InputError, ValidationError
from .lie_core import LieAlgebra, _require_finite, abelian, float_array, tolerance_scale
from .matched_pair import ClosedFormActions, MatchedPair, pair_from_double

KHAT = np.array([0.0, 0.0, 1.0])
KHAT.setflags(write=False)


def _cross(a, b):
    """The cross product on the last axis, bitwise as numpy's (same products and subtraction)."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


_EPS = _cross(np.eye(3)[:, None], np.eye(3)).transpose(2, 0, 1)  # [k, a, i]: (e_a x e_i)_k
_EPS.setflags(write=False)


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

@dataclass(frozen=True)
class KElement:
    """A point (a, b, c) of the triangular factor; requires finite a, b, c
    and c > -1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (abs(self.a) < np.inf and abs(self.b) < np.inf and -1.0 < self.c < np.inf):
            raise InputError(f"K element needs finite a, b and c > -1, got "
                             f"({self.a}, {self.b}, {self.c})")


@dataclass(frozen=True)
class SU2Element:
    """A 2x2 special unitary matrix, checked within ``1e-12 * tolerance_scale()`` on
    its entries as Python complex scalars (cheaper than numpy calls at 2x2); moduli
    by ``math.hypot``, as ``abs`` raises past the float range."""

    matrix: np.ndarray

    def __post_init__(self):
        M = float_array(self.matrix, "SU(2) element", complex)
        if M.shape != (2, 2):
            raise InputError(f"SU(2) element must be 2x2, got {M.shape}")
        (a, b), (c, d) = M.tolist()
        tol = 1e-12 * tolerance_scale()
        # M^dagger M - I; its lower-left entry is the conjugate of the upper-right one
        gram = (a.conjugate() * a + c.conjugate() * c - 1.0, a.conjugate() * b + c.conjugate() * d,
                b.conjugate() * b + d.conjugate() * d - 1.0)
        if not all(math.hypot(z.real, z.imag) <= tol for z in gram):
            raise ValidationError("matrix is not unitary")
        det = a * d - b * c
        if not math.hypot(det.real - 1.0, det.imag) <= tol:
            raise ValidationError("matrix does not have unit determinant")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)


def k_to_matrix(k: KElement) -> np.ndarray:
    """Matrix form (1/sqrt(1+c)) [[1+c, 0], [a+ib, 1]]; determinant is 1."""
    s = 1.0 / np.sqrt(1.0 + k.c)
    return np.array([[s * (1.0 + k.c), 0.0], [s * (k.a + 1j * k.b), s]])


def k_multiply(k1: KElement, k2: KElement) -> KElement:
    """Group law (a1,b1,c1)*(a2,b2,c2) = (a1,b1,c1)(1+c2) + (a2,b2,c2).

    Matches the matrix product: k_to_matrix(k1 * k2) = k_to_matrix(k1) @
    k_to_matrix(k2).  The result keeps 1+c = (1+c1)(1+c2) > 0.
    """
    w = 1.0 + k2.c
    return KElement(k1.a * w + k2.a, k1.b * w + k2.b, k1.c * w + k2.c)


def k_inverse(k: KElement) -> KElement:
    s = 1.0 / (1.0 + k.c)
    return KElement(-k.a * s, -k.b * s, -k.c * s)


def _k_matrix_inverse(k: KElement) -> np.ndarray:
    # unit determinant: inverse by adjugate
    s = 1.0 / np.sqrt(1.0 + k.c)
    return np.array([[s, 0.0], [-s * (k.a + 1j * k.b), s * (1.0 + k.c)]])


def iwasawa_factor(M) -> tuple[SU2Element, KElement]:
    """Factor a determinant-1 matrix as (unitary) @ (triangular).

    The triangular factor is read off the positive-definite product
    P = M^dagger M: c = 1/P22 - 1 and a + ib = P21/P22, which avoids
    Gram-Schmidt cancellation for near-identity input; the unitary factor is
    then M times the inverse triangular matrix, a numpy product like P: their
    rounding fixes the factors' bits (and, past the float range, the verdict of
    :class:`SU2Element`), while the checks run on the entries as Python complex
    scalars.  P22, 1/P22 or P21/P22 past the float range is an InputError.
    """
    M = float_array(M, "matrix", complex)
    if M.shape != (2, 2):
        raise InputError(f"expected a 2x2 matrix, got shape {M.shape}")
    (a, b), (c, d) = M.tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise InputError("non-finite entries in matrix")
    det = a * d - b * c
    if not math.hypot(det.real - 1.0, det.imag) <= 1e-10 * tolerance_scale():
        raise InputError(f"matrix determinant {det} is not 1")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a test
        (_, _), (p21, p22) = (M.conj().T @ M).tolist()  # only P21 and P22 are used
    p22 = p22.real
    if not 0.0 < p22 < math.inf:
        raise InputError(f"matrix cannot be factored in double precision (P22 = {p22})")
    s = 1.0 / p22  # a + ib = P21 / P22 as numpy divides by a real, zero signs included
    b_factor = KElement((p21.real + p21.imag * 0.0) * s, (p21.imag - p21.real * 0.0) * s, s - 1.0)
    a_factor = SU2Element(M @ _k_matrix_inverse(b_factor))
    return a_factor, b_factor


def group_act(h: KElement, g: SU2Element) -> tuple[SU2Element, KElement]:
    """Mutual group actions by refactoring: k(h) @ g = (h |> g) @ k(h <| g)."""
    return iwasawa_factor(k_to_matrix(h) @ g.matrix)


def group_left_act(h: KElement, g: SU2Element) -> SU2Element:
    """h |> g: unitary part of the refactored product k(h) @ g."""
    return group_act(h, g)[0]


def group_right_act(h: KElement, g: SU2Element) -> KElement:
    """h <| g: triangular part of the refactored product k(h) @ g."""
    return group_act(h, g)[1]


# -- deriving action tensors from an embedding -------------------------------

@dataclass(frozen=True)
class EmbeddedBasis:
    """Matrix bases for the two factors of an embedded matched pair."""

    g_matrices: tuple[np.ndarray, ...]
    h_matrices: tuple[np.ndarray, ...]
    g_names: tuple[str, ...] | None = None
    h_names: tuple[str, ...] | None = None

    def __post_init__(self):
        for field in ("g_matrices", "h_matrices"):
            mats = tuple(float_array(M, "basis matrix", complex) for M in getattr(self, field))
            for M in mats:
                if M.shape != (2, 2):
                    raise InputError("basis matrices must be 2x2")
                _require_finite(M, "basis matrices")
            object.__setattr__(self, field, mats)


def standard_basis() -> EmbeddedBasis:
    """The su(2) + triangular bases used by the built-in pairs."""
    return EmbeddedBasis(tuple(su2_basis()), tuple(k_basis()),
                         ("e1", "e2", "e3"), ("f1", "f2", "f3"))


def _vec(M: np.ndarray) -> np.ndarray:
    flat = M.reshape(*M.shape[:-2], 4)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def derive_actions_from_embedding(basis: EmbeddedBasis) -> MatchedPair:
    """Read off a matched pair from matrix commutators.

    The commutators of the combined basis (g first, then h) are decomposed
    over its real span in one least-squares solve; the coefficients are the
    double's structure constants, which
    :func:`~mpmech.matched_pair.pair_from_double` splits into g, h and the
    actions, the mixed ones read off [f_a, e_i].  Rank deficiency, a
    commutator escaping the span or a factor that is not closed raises
    EmbeddingError.
    """
    n = len(basis.g_matrices)
    mats = np.array(basis.g_matrices + basis.h_matrices).reshape(-1, 2, 2)
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
    tol = 1e-10 * (1.0 + np.abs(comms).max(axis=(1, 2))) * tolerance_scale()
    if np.any(residual > tol):
        raise EmbeddingError(f"commutator leaves the span of the basis "
                             f"(residual {residual[residual > tol][0]:.3e})")
    C = np.zeros((d, d, d))
    C[:, I, J], C[:, J, I] = coeffs, -coeffs
    return pair_from_double(C, n, basis.g_names, basis.h_names)


# -- built-in pairs and closed forms ------------------------------------------

def _printed_tensors() -> tuple[np.ndarray, np.ndarray]:
    # closed-form convention: Y |> X = Y x (X x k), Y <| X = X x Y
    eye = np.eye(3)
    rho = _cross(eye[:, None], _cross(eye, KHAT)).transpose(2, 0, 1)  # [:, a, i]
    return rho, _EPS.transpose(0, 2, 1)


BUILTIN_PAIRS = ("sl2c_derived", "sl2c_printed", "e3_heavytop")


def builtin_pairs() -> dict[str, MatchedPair]:
    """The shipped example pairs in a fresh dict, keyed by ``BUILTIN_PAIRS``.

    * ``sl2c_derived`` -- actions derived from 2x2 matrix commutators; the
      package default, fully validated.
    * ``sl2c_printed`` -- the closed-form tensor convention (|> as
      Y x (X x k), <| as X x Y).  Intentionally unvalidated: its right
      action has the opposite orientation and fails compatibility; it exists
      to reproduce the formula audit.
    * ``e3_heavytop`` -- the Euclidean algebra e(3) as a matched pair with a
      trivial left action (a semidirect product), for heavy-top dynamics.

    The immutable pairs are built once per tolerance scale, read on each call
    (so a bad ``MPM_TOLERANCE_SCALE`` is still an InputError).
    """
    return dict(zip(BUILTIN_PAIRS, _build_pairs(tolerance_scale())))


@lru_cache(maxsize=1)
def _build_pairs(scale: float) -> tuple[MatchedPair, ...]:
    derived = derive_actions_from_embedding(standard_basis())
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


# -- seeded random sampling ---------------------------------------------------

def random_su2(rng: np.random.Generator) -> SU2Element:
    """Draw a special unitary matrix: normalize a complex normal pair
    (w, v) and complete it symplectically."""
    w = complex(rng.standard_normal() + 1j * rng.standard_normal())
    v = complex(rng.standard_normal() + 1j * rng.standard_normal())
    s = np.sqrt(abs(w) ** 2 + abs(v) ** 2)
    w, v = w / s, v / s
    return SU2Element(np.array([[w, v], [-np.conj(v), np.conj(w)]]))


def random_k_element(rng: np.random.Generator) -> KElement:
    """Draw a triangular-factor element; 1 + c is lognormal, hence positive."""
    a, b = rng.standard_normal(2)
    return KElement(float(a), float(b), float(np.exp(rng.standard_normal()) - 1.0))


def random_sl2c(rng: np.random.Generator) -> np.ndarray:
    """Draw a determinant-1 matrix as (random unitary) @ (random triangular)."""
    return random_su2(rng).matrix @ k_to_matrix(random_k_element(rng))
