"""Matched pairs of Lie algebras and their Lie-Poisson mechanics.

A matched pair couples two Lie algebras g and h through a left action of h
on g (tensor ``rho``) and a right action of g on h (tensor ``sigma``):

* ``rho[k, a, i]``:  f_a |> e_i = sum_k rho[k, a, i] e_k,
* ``sigma[b, a, i]``: f_a <| e_i = sum_b sigma[b, a, i] f_b.

When the two compatibility conditions hold, g (+) h carries the double
bracket

    [(x1, y1), (x2, y2)] = ([x1, x2] + y1|>x2 - y2|>x1,
                            [y1, y2] + y1<|x2 - y2<|x1)

and the dual space inherits a linear Poisson structure.  Conversely, the
bracket is a Lie bracket only if they hold: the conditions are the blocks
``J[:n, n:, :n, :n]`` and ``-J[n:, n:, n:, :n]`` (n = dim g) of the
double's Jacobiator.  Only this module knows the double's block layout
(:func:`build_double`, :func:`pair_from_double`).  All dual-action maps
here are exact transposes of ``rho``/``sigma``, and all dynamics are
assembled from the double's structure constants via the coadjoint action;
closed-form variants of these maps found in the literature can be checked
against that canonical assembly with :func:`audit_formulas`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import lie_core
from .errors import DimensionMismatch, EmbeddingError, InputError, ValidationError
from .lie_core import (
    Check,
    LieAlgebra,
    _as_vector,
    convention_sign,
    defect_bound,
    lie_poisson_bracket,
    require,
)

AUDIT_TOLERANCE = 1e-10


class MatchedPair:
    """Two Lie algebras with mutual action tensors.

    ``validate=True`` (the default) runs the checks of
    :func:`validation_report`; pass ``validate=False`` to carry intentionally
    incompatible tensors (e.g. for audits).
    """

    def __init__(self, g: LieAlgebra, h: LieAlgebra, rho, sigma, *,
                 validate: bool = True):
        n, m = g.dim, h.dim
        rho = np.array(rho, dtype=float)
        sigma = np.array(sigma, dtype=float)
        if rho.shape != (n, m, n):
            raise DimensionMismatch(
                f"rho has shape {rho.shape}, expected {(n, m, n)}"
            )
        if sigma.shape != (m, m, n):
            raise DimensionMismatch(
                f"sigma has shape {sigma.shape}, expected {(m, m, n)}"
            )
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(sigma))):
            raise InputError("action tensors contain non-finite entries")
        rho.setflags(write=False)
        sigma.setflags(write=False)
        self.g = g
        self.h = h
        self.rho = rho
        self.sigma = sigma
        self._validated = False
        self._double: DoubleAlgebra | None = None
        if validate:
            self.validate()

    @property
    def validated(self) -> bool:
        return self._validated

    def validate(self) -> "MatchedPair":
        """Raise ValidationError unless every check of :func:`validation_report`
        passes; cache on success."""
        if not self._validated:
            require(validation_report(self))
            self._validated = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MatchedPair(g dim={self.g.dim}, h dim={self.h.dim}, "
                f"validated={self._validated})")


@dataclass(frozen=True)
class DoubleAlgebra:
    """The coupled algebra on g (+) h, with its block structure."""

    algebra: LieAlgebra
    split: tuple[int, int]
    source: MatchedPair

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class DualPoint:
    """A point (mu, nu) of the dual of a double algebra."""

    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=float))
        if self.mu.ndim != 1 or self.nu.ndim != 1:
            raise DimensionMismatch("dual point components must be vectors")

    def concat(self) -> np.ndarray:
        return np.concatenate([self.mu, self.nu])

    @classmethod
    def from_concat(cls, z, split: tuple[int, int]) -> "DualPoint":
        return cls(*_as_pair(np.asarray(z, dtype=float), split, "state"))


def as_dual_point(p, split: tuple[int, int]) -> DualPoint:
    """Coerce a DualPoint, a (mu, nu) pair, or a flat vector."""
    if isinstance(p, DualPoint):
        p = (p.mu, p.nu)
    return DualPoint(*_as_pair(p, split, "dual point"))


def _as_pair(x, split: tuple[int, int], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Split a (g part, h part) pair or a flat vector, checking both shapes."""
    n, m = split
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return (_as_vector(x[0], n, f"{what} (g part)"),
                _as_vector(x[1], m, f"{what} (h part)"))
    flat = np.asarray(x, dtype=float)
    if flat.shape != (n + m,):
        raise DimensionMismatch(f"{what} has shape {flat.shape}, expected ({n + m},)")
    return flat[:n], flat[n:]


# -- mutual actions and their duals -----------------------------------------

def left_act(mp: MatchedPair, eta, xi) -> np.ndarray:
    """Left action of h on g: eta |> xi."""
    eta = _as_vector(eta, mp.h.dim, "h vector")
    xi = _as_vector(xi, mp.g.dim, "g vector")
    return np.einsum("kai,a,i->k", mp.rho, eta, xi)


def right_act(mp: MatchedPair, eta, xi) -> np.ndarray:
    """Right action of g on h: eta <| xi."""
    eta = _as_vector(eta, mp.h.dim, "h vector")
    xi = _as_vector(xi, mp.g.dim, "g vector")
    return np.einsum("bai,a,i->b", mp.sigma, eta, xi)


def co_left_act(mp: MatchedPair, mu, eta) -> np.ndarray:
    """Right action of h on g*, transpose of |>: <mu *<| eta, xi> = <mu, eta |> xi>."""
    mu = _as_vector(mu, mp.g.dim, "g* vector")
    eta = _as_vector(eta, mp.h.dim, "h vector")
    return np.einsum("kai,a,k->i", mp.rho, eta, mu)


def a_star(mp: MatchedPair, eta, nu) -> np.ndarray:
    """Dual of xi -> eta <| xi, valued in g*: <a*_eta nu, xi> = <nu, eta <| xi>."""
    eta = _as_vector(eta, mp.h.dim, "h vector")
    nu = _as_vector(nu, mp.h.dim, "h* vector")
    return np.einsum("bai,a,b->i", mp.sigma, eta, nu)


def co_right_act(mp: MatchedPair, xi, nu) -> np.ndarray:
    """Left action of g on h*, transpose of <|: <xi *|> nu, eta> = <nu, eta <| xi>."""
    xi = _as_vector(xi, mp.g.dim, "g vector")
    nu = _as_vector(nu, mp.h.dim, "h* vector")
    return np.einsum("bai,i,b->a", mp.sigma, xi, nu)


def b_star(mp: MatchedPair, xi, mu) -> np.ndarray:
    """Dual of eta -> eta |> xi, valued in h*: <b*_xi mu, eta> = <mu, eta |> xi>."""
    xi = _as_vector(xi, mp.g.dim, "g vector")
    mu = _as_vector(mu, mp.g.dim, "g* vector")
    return np.einsum("kai,i,k->a", mp.rho, xi, mu)


# -- compatibility -----------------------------------------------------------

@dataclass(frozen=True)
class CompatDefect:
    """Max-norm residuals of the two matched-pair compatibility conditions."""

    d1: float
    d2: float
    witness1: tuple[str, str, str]
    witness2: tuple[str, str, str]
    vector1: np.ndarray
    vector2: np.ndarray

    @property
    def witness(self) -> tuple[str, str, str]:
        """Witness triple of the larger defect."""
        return self.witness1 if self.d1 >= self.d2 else self.witness2


def compat_defect(mp: MatchedPair) -> CompatDefect:
    """Residuals of the two compatibility conditions, with maximizing triples.

    Both are blocks of the double's Jacobiator ``J[k, I, J, L]``, the E_k part
    of Jac(E_I, E_J, E_L): with n = dim g, condition 1 is ``J[:n, n:, :n, :n]``
    indexed [value in g, a, i, j], and condition 2 is ``-J[n:, n:, n:, :n]``
    indexed [value in h, a, b, i]."""
    n = mp.g.dim
    J = build_double(mp).algebra.jacobiator
    D1, D2 = J[:n, n:, :n, :n], -J[n:, n:, n:, :n]
    d1 = float(np.abs(D1).max())
    d2 = float(np.abs(D2).max())
    _, a1, i1, j1 = np.unravel_index(int(np.abs(D1).argmax()), D1.shape)
    _, a2, b2, i2 = np.unravel_index(int(np.abs(D2).argmax()), D2.shape)
    w1 = (mp.h.name_of(a1), mp.g.name_of(i1), mp.g.name_of(j1))
    w2 = (mp.h.name_of(a2), mp.h.name_of(b2), mp.g.name_of(i2))
    return CompatDefect(d1, d2, w1, w2, D1[:, a1, i1, j1].copy(), D2[:, a2, b2, i2].copy())


def validation_report(mp: MatchedPair) -> tuple[Check, ...]:
    """The five checks that make ``mp`` a matched pair, each defect against
    :func:`~mpmech.lie_core.defect_bound`: the Jacobi identity of g and of h,
    the two compatibility conditions (the blocks ``J[:n, n:, :n, :n]`` and
    ``-J[n:, n:, n:, :n]`` of the double's Jacobiator ``J``) and max |J|."""
    defect = compat_defect(mp)
    bound = defect_bound(mp.g.C, mp.h.C, mp.rho, mp.sigma)
    return (
        mp.g.jacobi_check("jacobi defect (g)"),
        mp.h.jacobi_check("jacobi defect (h)"),
        Check("compatibility condition 1", defect.d1, bound, f"({', '.join(defect.witness1)})"),
        Check("compatibility condition 2", defect.d2, bound, f"({', '.join(defect.witness2)})"),
        build_double(mp).algebra.jacobi_check("jacobi defect (double)"),
    )


# -- the double algebra and its Poisson structure ----------------------------

def build_double(mp: MatchedPair) -> DoubleAlgebra:
    """Assemble the structure constants of the coupled algebra on g (+) h."""
    if mp._double is not None:
        return mp._double
    n, m = mp.g.dim, mp.h.dim
    C = np.zeros((n + m, n + m, n + m))
    C[:n, :n, :n] = mp.g.C
    C[n:, n:, n:] = mp.h.C
    C[:n, n:, :n] = mp.rho
    C[n:, n:, :n] = mp.sigma
    C[:n, :n, n:] = -mp.rho.transpose(0, 2, 1)
    C[n:, :n, n:] = -mp.sigma.transpose(0, 2, 1)
    names = None
    if mp.g.names is not None and mp.h.names is not None:
        names = mp.g.names + mp.h.names
    double = DoubleAlgebra(LieAlgebra(C, names, validate=False), (n, m), mp)
    mp._double = double
    return double


def pair_from_double(C, n: int, g_names: Sequence[str] | None,
                     h_names: Sequence[str] | None) -> MatchedPair:
    """The inverse of :func:`build_double`: the validated pair of a double with
    constants ``C`` and g on the first ``n`` indices.  EmbeddingError unless each
    [e_i, e_j] is in g and each [f_a, f_b] in h, to 1e-10 (1 + its max coefficient)."""
    C = np.asarray(C, dtype=float)
    tol = 1e-10 * lie_core.tolerance_scale()
    for name, block, other in (("g", C[:, :n, :n], slice(n, None)),
                               ("h", C[:, n:, n:], slice(None, n))):
        if np.any(np.abs(block[other]).max(axis=0, initial=0.0)
                  > tol * (1.0 + np.abs(block).max(axis=0, initial=0.0))):
            raise EmbeddingError(f"{name} basis is not closed under commutators")
    return MatchedPair(LieAlgebra(C[:n, :n, :n], g_names), LieAlgebra(C[n:, n:, n:], h_names),
                       C[:n, n:, :n], C[n:, n:, :n])


def cobracket_eval(double: DoubleAlgebra, p) -> np.ndarray:
    """Linear Poisson tensor at p: M[I, J] = <(mu, nu), [E_I, E_J]>.

    The matrix is antisymmetric in floating point, ``M == -M.T`` bit for bit
    (the constants of the double are antisymmetrized on construction), with
    an exactly zero diagonal; its kernel directions are the gradients of
    Casimir functions at p.
    """
    p = as_dual_point(p, double.split)
    return np.einsum("kij,k->ij", double.algebra.C, p.concat())


def matched_bracket_eval(double: DoubleAlgebra, p, grad_h, grad_f) -> float:
    """Lie-Poisson bracket {H, F} on the dual of the double at p.

    This is :func:`~mpmech.lie_core.lie_poisson_bracket` on the double's
    algebra, so {F, H} == -{H, F} bit for bit and {H, H} is exactly ``0.0``.
    """
    p = as_dual_point(p, double.split)
    zh = np.concatenate(_as_pair(grad_h, double.split, "grad H"))
    zf = np.concatenate(_as_pair(grad_f, double.split, "grad F"))
    return lie_poisson_bracket(double.algebra, p.concat(), zh, zf)


def _require_validated(double: DoubleAlgebra) -> None:
    if not double.source.validated:
        raise ValidationError(
            "double algebra built from an unvalidated pair; call validate() first"
        )


def matched_lp_rhs(double: DoubleAlgebra, p, grad_h, convention: str = "right") -> DualPoint:
    """Lie-Poisson vector field on the dual of the double.

    In the "right" convention ``p_dot = M(p) @ grad_h`` with M the Poisson
    tensor of :func:`cobracket_eval`, so ``dF/dt = {F, H}`` along the flow and
    H is conserved exactly at the continuous level.  In components, with
    X, Y the g- and h-gradients:

        mu_dot = ad*_X mu - mu *<| Y - a*_Y nu
        nu_dot = ad*_Y nu + X *|> nu + b*_X mu

    "left" is the pointwise negation.
    """
    _require_validated(double)
    p = as_dual_point(p, double.split)
    grad = np.concatenate(_as_pair(grad_h, double.split, "grad H"))
    rhs = convention_sign(convention) * np.einsum(
        "kij,k,j->i", double.algebra.C, p.concat(), grad)
    n, _ = double.split
    return DualPoint(rhs[:n], rhs[n:])


def matched_ad_star(double: DoubleAlgebra, x, p) -> DualPoint:
    """Coadjoint action of the double on its dual; alias of the right RHS."""
    return matched_lp_rhs(double, p, x, "right")


def euler_poincare_rhs(mp: MatchedPair, state, lagrangian) -> tuple[DualPoint, tuple[np.ndarray, np.ndarray]]:
    """Euler-Poincare vector field for a quadratic Lagrangian.

    ``state`` is the velocity pair (xi, eta); the momenta are mu = M_g xi,
    nu = M_h eta and evolve by

        mu_dot = -ad*_xi mu + mu *<| eta + a*_eta nu
        nu_dot = -ad*_eta nu - xi *|> nu - b*_xi mu.

    The pairing identities make <mu_dot, xi> + <nu_dot, eta> vanish
    identically, so the kinetic energy is conserved along the flow.  Returns
    the momentum derivative and the (recovered) velocity pair.
    """
    xi, eta = _as_pair(state, (mp.g.dim, mp.h.dim), "velocity state")
    metric_g = np.asarray(lagrangian.metric_g, dtype=float)
    metric_h = np.asarray(lagrangian.metric_h, dtype=float)
    if metric_g.shape != (mp.g.dim, mp.g.dim) or metric_h.shape != (mp.h.dim, mp.h.dim):
        raise DimensionMismatch("Lagrangian metric blocks do not match the pair")
    mu = metric_g @ xi
    nu = metric_h @ eta
    mu_dot = (
        -lie_core.ad_star(mp.g, xi, mu)
        + co_left_act(mp, mu, eta)
        + a_star(mp, eta, nu)
    )
    nu_dot = (
        -lie_core.ad_star(mp.h, eta, nu)
        - co_right_act(mp, xi, nu)
        - b_star(mp, xi, mu)
    )
    return DualPoint(mu_dot, nu_dot), (xi, eta)


# -- formula audit ------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormActions:
    """Closed-form expressions to reconcile against the canonical transposes.

    Every callable works on stacked rows, one sample per row: arguments and
    results are ``(S, n)`` or ``(S, m)`` arrays.  The dual maps take their
    arguments as ``co_left(mu, eta)``, ``co_right(xi, nu)``,
    ``a_star(eta, nu)`` and ``b_star(xi, mu)`` and are compared against the
    pairing-identity dual computed from the tensors of the second audit
    argument; ``lp_rhs(mu, nu, x, y)`` returns ``(mu_dot, nu_dot)`` and is
    compared against the canonical coadjoint assembly on the first
    (validated) argument.
    """

    co_left: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    co_right: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    a_star: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    b_star: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    lp_rhs: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                     tuple[np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True)
class AuditLine:
    name: str
    max_deviation: float
    status: str
    witness: str | None = None
    detail: str | None = None


@dataclass(frozen=True)
class AuditReport:
    """MATCH/MISMATCH table produced by :func:`audit_formulas`."""

    samples: int
    seed: int
    tolerance: float
    lines: tuple[AuditLine, ...]

    def line(self, name: str) -> AuditLine:
        for line in self.lines:
            if line.name == name:
                return line
        raise KeyError(name)

    @property
    def all_match(self) -> bool:
        return all(line.status == "MATCH" for line in self.lines)

    def to_text(self) -> str:
        width = max(len(line.name) for line in self.lines)
        rows = [
            f"formula audit: {self.samples} samples, seed {self.seed}, "
            f"tolerance {self.tolerance:g}"
        ]
        for line in self.lines:
            row = f"  {line.name.ljust(width)}  {line.status:8s}  max dev {line.max_deviation:.3e}"
            if line.witness:
                row += f"  witness {line.witness}"
            if line.detail:
                row += f"  [{line.detail}]"
            rows.append(row)
        return "\n".join(rows)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _tensor_witness(diff: np.ndarray, left_names, right_names) -> str:
    """Basis-pair label of the largest entry of a (value, a, i) tensor."""
    _, a, i = np.unravel_index(int(np.abs(diff).argmax()), diff.shape)
    return f"({left_names(a)}, {right_names(i)})"


def audit_formulas(mp_derived: MatchedPair, mp_printed: MatchedPair,
                   samples: int = 1000, seed: int = 0,
                   closed_forms: ClosedFormActions | None = None,
                   tol: float = AUDIT_TOLERANCE) -> AuditReport:
    """Reconcile two tensor sets, and optionally closed-form expressions.

    The action rows compare the two pairs' tensors directly.  The dual rows
    check each closed form against its defining pairing identity, i.e.
    against the exact transpose of ``mp_printed``'s tensors (without closed
    forms they compare the two pairs' canonical duals, which is a trivial
    MATCH for identical tensors).  The rhs rows compare the closed-form
    vector field and the plus-sign variants of the coadjoint assembly
    against the canonical, energy-conserving one on ``mp_derived``.

    Every row is evaluated on all samples at once, stacked one per row:
    each map is one einsum, and each vector field one contraction
    ``einsum("kij,sk,sj->si", C, Z, G)`` of a double's constants with the
    points ``Z = (mu, nu)`` and gradients ``G = (x, y)``.  The plus-sign
    field negates the block ``C[:, :n, n:]`` (the *<| and a* terms).
    """
    if (mp_derived.g.dim, mp_derived.h.dim) != (mp_printed.g.dim, mp_printed.h.dim):
        raise DimensionMismatch("audited pairs live on different algebras")
    if samples < 1:
        raise InputError(f"the audit needs at least one sample, got {samples}")
    n, m = mp_derived.g.dim, mp_derived.h.dim
    rng = np.random.default_rng(seed)
    etas, xis, mus, nus = (rng.standard_normal((samples, k)) for k in (m, n, n, m))
    pr, de = mp_printed, mp_derived
    lines: list[AuditLine] = []

    def add(name, a, b, witness=None):
        deviation = float(np.abs(a - b).max())
        status = "MATCH" if deviation <= tol else "MISMATCH"
        lines.append(AuditLine(name, deviation, status, witness))

    # primitive actions: printed tensors against derived tensors
    add("action |>", np.einsum("kai,sa,si->sk", pr.rho, etas, xis),
        np.einsum("kai,sa,si->sk", de.rho, etas, xis),
        _tensor_witness(pr.rho - de.rho, pr.h.name_of, pr.g.name_of))
    add("action <|", np.einsum("bai,sa,si->sb", pr.sigma, etas, xis),
        np.einsum("bai,sa,si->sb", de.sigma, etas, xis),
        _tensor_witness(pr.sigma - de.sigma, pr.h.name_of, pr.g.name_of))
    if lines[-1].status == "MISMATCH":
        defect = compat_defect(pr)
        lines[-1] = replace(lines[-1], detail=f"compatibility condition 1 defect "
                            f"{defect.d1:g} at ({', '.join(defect.witness1)})")

    # dual maps: closed forms against their defining pairing identities
    cf = closed_forms or ClosedFormActions()
    dual_rows = (
        ("dual *<|", cf.co_left, mus, etas,
         lambda mp: np.einsum("kai,sa,sk->si", mp.rho, etas, mus)),
        ("dual *|>", cf.co_right, xis, nus,
         lambda mp: np.einsum("bai,si,sb->sa", mp.sigma, xis, nus)),
        ("dual a*", cf.a_star, etas, nus,
         lambda mp: np.einsum("bai,sa,sb->si", mp.sigma, etas, nus)),
        ("dual b*", cf.b_star, xis, mus,
         lambda mp: np.einsum("kai,si,sk->sa", mp.rho, xis, mus)),
    )
    for name, closed, u, v, canonical in dual_rows:
        add(name, closed(u, v) if closed is not None else canonical(de), canonical(pr))

    # vector fields on the derived double
    Z = np.hstack([mus, nus])
    G = np.hstack([xis, etas])

    def field(C):
        return np.einsum("kij,sk,sj->si", C, Z, G)

    def energy_rate(F):  # <mu_dot, x> + <nu_dot, y>, one dot product per block and sample
        return F[:, None, :n] @ xis[:, :, None] + F[:, None, n:] @ etas[:, :, None]

    C = build_double(de).algebra.C
    canonical = field(C)
    if cf.lp_rhs is not None:
        mu_dot, nu_dot = cf.lp_rhs(mus, nus, xis, etas)
        add("closed-form rhs (mu)", mu_dot, canonical[:, :n])
        add("closed-form rhs (nu)", nu_dot, canonical[:, n:])
    else:
        add("canonical rhs (tensor sets)", field(build_double(pr).algebra.C), canonical)
    add("canonical rhs energy rate", energy_rate(canonical), 0.0)

    if closed_forms is not None:
        C_plus = C.copy()
        C_plus[:, :n, n:] *= -1.0
        plus = field(C_plus)
        add("plus-sign rhs vs canonical", plus, canonical)
        add("plus-sign rhs energy rate", energy_rate(plus), 0.0)

    return AuditReport(samples, seed, tol, tuple(lines))
