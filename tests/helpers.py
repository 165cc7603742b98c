"""Helpers shared by the test modules, which import them from here and never
from one another: call counting, ``simulate`` argv, seeded pairs (unvalidated
tensors, or valid pairs with dim g != dim h), a corrupted su(2), a document
of a pair with dim g != dim h, and the 2x2 exponential and su(2) coordinates."""

import cmath

import numpy as np

from mpmech.lie_core import LieAlgebra
from mpmech.matched_pair import ClosedFormActions, MatchedPair, pair_from_double
from mpmech.sl2c import su2_algebra, su2_basis


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def simulate_args(out_prefix, **overrides):
    args = {
        "--pair": "sl2c_derived",
        "--hamiltonian": "quadratic_identity",
        "--initial": "1,0,0,0,1,0",
        "--dt": "0.001",
        "--t-end": "1",
        "--invariants": "nu_norm2,mu_dot_nu",
        "--seed": "0",
        "--out": out_prefix,
    }
    args.update(overrides)
    argv = ["simulate"]
    for key, value in args.items():
        if value is not None:
            argv += [key, value]
    return argv


def random_antisymmetric(rng, dim):
    A = rng.standard_normal((dim, dim, dim))
    return A - A.transpose(0, 2, 1)


def random_pair(seed, n, m):
    """Seeded tensors with no relation between them, kept unvalidated."""
    rng = np.random.default_rng(seed)
    g = LieAlgebra(random_antisymmetric(rng, n), [f"e{i + 1}" for i in range(n)], validate=False)
    h = LieAlgebra(random_antisymmetric(rng, m), [f"f{a + 1}" for a in range(m)], validate=False)
    return MatchedPair(g, h, rng.standard_normal((n, m, n)), rng.standard_normal((m, m, n)),
                       validate=False)


def random_valid_pair(seed, n):
    """A seeded valid matched pair g + h with dims n(n-1)/2 + n(n+1)/2 inside gl(n, R):
    g = A so(n) A^-1 for a random A and h the lower-triangular matrices, each in a
    random basis.  so(n) + b(n) = gl(n, R) (Iwasawa), and a generic conjugate of
    so(n) stays complementary to b(n).  The double's constants are the commutators
    solved over the basis by one ``np.linalg.lstsq``; ``pair_from_double`` splits
    and validates them."""
    rng = np.random.default_rng(seed)
    unit = np.eye(n)[:, None, :, None] * np.eye(n)[None, :, None, :]  # E_ij, [i, j]
    A = rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    so = A @ (unit - unit.transpose(1, 0, 2, 3))[i < j] @ np.linalg.inv(A)  # A (E_ij - E_ji) A^-1
    b = unit[i >= j]  # E_ij, i >= j
    g = np.einsum("kl,lpq->kpq", rng.standard_normal((len(so),) * 2), so)
    h = np.einsum("kl,lpq->kpq", rng.standard_normal((len(b),) * 2), b)
    basis = np.concatenate([g, h])
    d = len(basis)
    B = basis.reshape(d, -1).T
    if np.linalg.matrix_rank(B) < d:
        raise ValueError(f"seed {seed}: the drawn bases do not span gl({n}, R)")
    comms = basis[:, None] @ basis[None] - basis[None] @ basis[:, None]  # [i, j]: [X_i, X_j]
    coeffs = np.linalg.lstsq(B, comms.reshape(d * d, -1).T, rcond=None)[0]
    return pair_from_double(coeffs.reshape(d, d, d), len(g), [f"e{k + 1}" for k in range(len(g))],
                            [f"f{a + 1}" for a in range(len(h))])


def exact_closed_forms(pr, de):
    """Closed forms that are exact: the transposes of ``pr``'s tensors as the four
    duals, and the canonical field of ``de``'s double, split at dim g, as ``lp_rhs``.
    Each takes one vector or a stack of rows, like ``sl2c_closed_forms()``."""
    C = de.algebra.C
    return ClosedFormActions(
        co_left=lambda mu, eta: np.einsum("kai,...a,...k->...i", pr.rho, eta, mu),
        co_right=lambda xi, nu: np.einsum("bai,...i,...b->...a", pr.sigma, xi, nu),
        a_star=lambda eta, nu: np.einsum("bai,...a,...b->...i", pr.sigma, eta, nu),
        b_star=lambda xi, mu: np.einsum("kai,...i,...k->...a", pr.rho, xi, mu),
        lp_rhs=lambda mu, nu, x, y: np.split(
            np.einsum("kij,...k,...j->...i", C, np.concatenate([mu, nu], axis=-1),
                      np.concatenate([x, y], axis=-1)), [de.g.dim], axis=-1))


def corrupted_su2():
    # [e1, e2] picks up a spurious e1 component; the (e1, e2, e3) Jacobiator
    # is then [e3, e1] = e2, a unit defect
    C = su2_algebra().C.copy()
    C[0, 0, 1] = 1.0
    C[0, 1, 0] = -1.0
    return C


UNEQUAL_DOC = {"g": {"dim": 1, "C": [[[0.0]]]},
               "h": {"dim": 2, "C": np.zeros((2, 2, 2)).tolist()},
               "rho": np.zeros((1, 2, 1)).tolist(),
               "sigma": np.zeros((2, 2, 1)).tolist()}


def traceless_exp(A):
    """exp(A) of a traceless 2x2 matrix in closed form: A @ A = w^2 I with
    w^2 = -det A, so exp(A) = cosh(w) I + (sinh(w) / w) A, the ratio 1 at w = 0."""
    A = np.asarray(A, complex)
    w = cmath.sqrt(A[0, 1] * A[1, 0] - A[0, 0] * A[1, 1])
    return cmath.cosh(w) * np.eye(2) + (cmath.sinh(w) / w if w else 1.0) * A


def su2_coordinates(U):
    """The least-squares coordinates of U - I over ``su2_basis()``, real and
    imaginary parts alike: to first order at the identity, the su(2) vector of U."""
    def flat(M):
        return np.concatenate([M.real.ravel(), M.imag.ravel()])
    B = np.array([flat(X) for X in su2_basis()]).T
    return np.linalg.lstsq(B, flat(np.asarray(U) - np.eye(2)), rcond=None)[0]
