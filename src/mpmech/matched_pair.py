"""Matched pairs of Lie algebras and their Lie-Poisson mechanics.

A matched pair couples two Lie algebras g and h through a left action of h
on g (tensor ``rho``) and a right action of g on h (tensor ``sigma``):

* ``rho[k, a, i]``:  f_a |> e_i = sum_k rho[k, a, i] e_k,
* ``sigma[b, a, i]``: f_a <| e_i = sum_b sigma[b, a, i] f_b.

The pair is matched exactly when g (+) h carries the double bracket

    [(x1, y1), (x2, y2)] = ([x1, x2] + y1|>x2 - y2|>x1,
                            [y1, y2] + y1<|x2 - y2<|x1)

as a Lie bracket, and the dual space then inherits a linear Poisson
structure.  So validity is the double's Jacobi identity: with n = dim g, the
blocks ``J[:n, :n, :n, :n]`` and ``J[n:, n:, n:, n:]`` of its Jacobiator
``J[k, I, J, L]`` (the E_k part of Jac(E_I, E_J, E_L)) are g's and h's, and
``J[:n, n:, :n, :n]`` [value in g, a, i, j] and ``-J[n:, n:, n:, :n]`` [value
in h, a, b, i] are the two compatibility conditions.  Only this module knows
the double's block layout: :attr:`MatchedPair.algebra` builds it and
:func:`pair_from_double` reads it back.  A point, gradient or velocity on
g (+) h or its dual is one flat vector, its first n = dim g entries on g.
All dual-action maps here are exact transposes of ``rho``/``sigma``, and
all dynamics are assembled from the double's structure constants via the
coadjoint action; closed-form variants of these maps found in the
literature can be checked against that canonical assembly with
:func:`audit_formulas`.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmbeddingError, InputError
from .lie_core import (
    Check,
    LieAlgebra,
    _largest_entry,
    _read_only,
    _require_finite,
    coadjoint,
    defect_bound,
    float_array,
    lie_poisson_rhs,
    require,
)

AUDIT_TOLERANCE = 1e-10
AUDIT_MAX_SAMPLES = 2 ** 20
AUDIT_BLOCK_SAMPLES = 2 ** 16  # samples per block of audit rows; bounds the memory beyond the draws


class MatchedPair:
    """Two Lie algebras with mutual action tensors.

    ``validate=True`` (the default) runs the checks of :func:`validation_report`,
    which cover g's and h's Jacobi identities too; pass ``validate=False`` to
    carry intentionally incompatible tensors (e.g. for audits).
    """

    def __init__(self, g: LieAlgebra, h: LieAlgebra, rho, sigma, *,
                 validate: bool = True):
        n, m = g.dim, h.dim
        tensors = []
        for name, T, shape in (("rho", rho, (n, m, n)), ("sigma", sigma, (m, m, n))):
            T = np.array(float_array(T, name))
            if T.shape != shape:
                raise DimensionMismatch(f"{name} has shape {T.shape}, expected {shape}")
            tensors.append(_read_only(_require_finite(T, name)))
        self.g = g
        self.h = h
        self.rho, self.sigma = tensors
        self._validated = False
        if validate:
            self.validate()

    @property
    def validated(self) -> bool:
        return self._validated

    @property
    def split(self) -> tuple[int, int]:
        """``(n, m) = (dim g, dim h)``: g is the first ``n`` coordinates of g (+) h."""
        return self.g.dim, self.h.dim

    @functools.cached_property
    def algebra(self) -> LieAlgebra:
        """The double g |><| h: the coupled algebra on g (+) h, unvalidated (the
        pair's checks read its Jacobiator)."""
        n, m = self.split
        C = np.zeros((n + m, n + m, n + m))
        C[:n, :n, :n] = self.g.C
        C[n:, n:, n:] = self.h.C
        C[:n, n:, :n] = self.rho
        C[n:, n:, :n] = self.sigma
        C[:n, :n, n:] = -self.rho.transpose(0, 2, 1)
        C[n:, :n, n:] = -self.sigma.transpose(0, 2, 1)
        names = None
        if self.g.names is not None and self.h.names is not None:
            names = self.g.names + self.h.names
        return LieAlgebra(C, names, validate=False)

    @functools.cached_property
    def map_tensors(self) -> dict[str, np.ndarray]:
        """Each action map's T (see :func:`left_act`) by the map's name, contiguous and
        read-only; the audit reads them too."""
        rho, sigma = self.rho, self.sigma
        return {name: _read_only(np.ascontiguousarray(T)) for name, T in (
            ("left_act", rho.transpose(1, 0, 2)), ("right_act", sigma.transpose(1, 0, 2)),
            ("co_left_act", rho.transpose(0, 2, 1)), ("a_star", sigma.transpose(0, 2, 1)),
            ("co_right_act", sigma), ("b_star", rho))}

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


# -- mutual actions and their duals -----------------------------------------
# Every argument is one vector or a stack of rows.  Each map is one lie_core.coadjoint(T, z, x)
# = sum_kj T[k, i, j] z_k x_j, T = mp.map_tensors[its name], a transpose of rho or sigma, which
# reads both as float arrays (InputError) and rejects a wrong last dimension or leading axes
# that do not broadcast (DimensionMismatch).

def left_act(mp: MatchedPair, eta, xi) -> np.ndarray:
    """Left action of h on g: eta |> xi."""
    return coadjoint(mp.map_tensors["left_act"], eta, xi)


def right_act(mp: MatchedPair, eta, xi) -> np.ndarray:
    """Right action of g on h: eta <| xi."""
    return coadjoint(mp.map_tensors["right_act"], eta, xi)


def co_left_act(mp: MatchedPair, mu, eta) -> np.ndarray:
    """Right action of h on g*, transpose of |>: <mu *<| eta, xi> = <mu, eta |> xi>."""
    return coadjoint(mp.map_tensors["co_left_act"], mu, eta)


def a_star(mp: MatchedPair, eta, nu) -> np.ndarray:
    """Dual of xi -> eta <| xi, valued in g*: <a*_eta nu, xi> = <nu, eta <| xi>."""
    return coadjoint(mp.map_tensors["a_star"], nu, eta)


def co_right_act(mp: MatchedPair, xi, nu) -> np.ndarray:
    """Left action of g on h*, transpose of <|: <xi *|> nu, eta> = <nu, eta <| xi>."""
    return coadjoint(mp.map_tensors["co_right_act"], nu, xi)


def b_star(mp: MatchedPair, xi, mu) -> np.ndarray:
    """Dual of eta -> eta |> xi, valued in h*: <b*_xi mu, eta> = <mu, eta |> xi>."""
    return coadjoint(mp.map_tensors["b_star"], mu, xi)


# -- validity -----------------------------------------------------------------

def validation_report(mp: MatchedPair) -> tuple[Check, ...]:
    """The five checks that make ``mp`` a matched pair, read off the blocks of the double's
    Jacobiator ``J`` named in the module docstring, and ``J`` itself: each largest entry,
    witnessed by its basis triple, against :func:`~mpmech.lie_core.defect_bound` of g's,
    h's, the pair's and the double's constants.  The only reader of a Jacobiator's blocks."""
    n, J = mp.g.dim, mp.algebra.jacobiator
    pair = defect_bound(mp.g.C, mp.h.C, mp.rho, mp.sigma)
    g, h, d = mp.g.name_of, mp.h.name_of, mp.algebra.name_of

    def check(name, block, bound, *names):
        value, (_, *triple) = _largest_entry(block)
        return Check(name, value, bound, f"({', '.join(at(k) for at, k in zip(names, triple))})")
    return (check("jacobi defect (g)", J[:n, :n, :n, :n], defect_bound(mp.g.C), g, g, g),
            check("jacobi defect (h)", J[n:, n:, n:, n:], defect_bound(mp.h.C), h, h, h),
            check("compatibility condition 1", J[:n, n:, :n, :n], pair, h, g, g),
            check("compatibility condition 2", J[n:, n:, n:, :n], pair, h, h, g),
            check("jacobi defect (double)", J, defect_bound(mp.algebra.C), d, d, d))


# -- the double algebra and its Poisson structure ----------------------------

def build_double(mp: MatchedPair) -> MatchedPair:
    """``mp``, whose :attr:`~MatchedPair.algebra` is its double; perfbench reads it."""
    return mp


def pair_from_double(C, n: int, g_names: Sequence[str] | None,
                     h_names: Sequence[str] | None) -> MatchedPair:
    """The inverse of :attr:`MatchedPair.algebra`: the validated pair of a double with
    constants ``C`` and g on the first ``n`` indices.  EmbeddingError unless each
    [e_i, e_j] is in g and each [f_a, f_b] in h, to 1e-10 (1 + its max coefficient).  g
    and h are built unvalidated: ``jacobi defect (g)`` and ``(h)`` of the pair check them."""
    C = float_array(C, "double constants")
    if C.ndim != 3 or C.shape.count(C.shape[0]) != 3:
        raise DimensionMismatch(f"double constants must be a cubic rank-3 tensor, got {C.shape}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= len(C):
        raise InputError(f"the split n must be an integer from 0 to {len(C)}, got {n!r}")
    for name, block, other in (("g", C[:, :n, :n], slice(n, None)),
                               ("h", C[:, n:, n:], slice(None, n))):
        if np.any(np.abs(block[other]).max(axis=0, initial=0.0)
                  > 1e-10 * (1.0 + np.abs(block).max(axis=0, initial=0.0))):
            raise EmbeddingError(f"{name} basis is not closed under commutators")
    return MatchedPair(LieAlgebra(C[:n, :n, :n], g_names, validate=False),
                       LieAlgebra(C[n:, n:, n:], h_names, validate=False),
                       C[:n, n:, :n], C[n:, n:, :n])


def matched_lp_rhs(mp: MatchedPair, p, grad_h, convention: str = "right") -> np.ndarray:
    """Lie-Poisson vector field on the dual of the double, as one flat vector:
    ``rhs[:n]`` is mu_dot and ``rhs[n:]`` is nu_dot, n = dim g.  ``p`` and
    ``grad_h`` are flat (n + m,) vectors, and the result is bit for bit
    :func:`~mpmech.lie_core.lie_poisson_rhs` on :attr:`MatchedPair.algebra`.

    In the "right" convention ``p_dot = M(p) @ grad_h`` with M the
    :func:`~mpmech.lie_core.poisson_tensor` of the double's constants, so
    ``dF/dt = {F, H}`` along the flow and H is conserved exactly at the
    continuous level.  In components, with X, Y the g- and h-gradients:

        mu_dot = ad*_X mu - mu *<| Y - a*_Y nu
        nu_dot = ad*_Y nu + X *|> nu + b*_X mu

    "left" is the pointwise negation.  It validates ``mp`` first
    (ValidationError naming the failed checks); ``lie_poisson_rhs`` then checks
    the convention and, through ``ad_star``, both vectors' shapes.
    """
    return lie_poisson_rhs(mp.validate().algebra, p, grad_h, convention)


# -- formula audit ------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormActions:
    """The five closed-form expressions to reconcile against the canonical transposes.

    Every callable works on stacked rows, one sample per row: arguments and
    results are ``(S, n)`` or ``(S, m)`` arrays, and a result of any other shape
    is a DimensionMismatch.  The dual maps take their arguments as
    ``co_left(mu, eta)``, ``co_right(xi, nu)``, ``a_star(eta, nu)`` and
    ``b_star(xi, mu)`` and are compared against the pairing-identity dual
    computed from the tensors of the second audit argument;
    ``lp_rhs(mu, nu, x, y)`` returns ``(mu_dot, nu_dot)`` and is compared
    against the canonical coadjoint assembly on the first (validated) argument.
    """

    co_left: Callable[[np.ndarray, np.ndarray], np.ndarray]
    co_right: Callable[[np.ndarray, np.ndarray], np.ndarray]
    a_star: Callable[[np.ndarray, np.ndarray], np.ndarray]
    b_star: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lp_rhs: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                     tuple[np.ndarray, np.ndarray]]


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


@functools.lru_cache(maxsize=1)
def _audit_plan(de: MatchedPair, pr: MatchedPair) -> tuple[np.ndarray, np.ndarray, dict, str]:
    """What :func:`audit_formulas` reads of its two pairs besides the draws and the maps'
    tensors, kept for the last two pairs: the read-only T of the four actions (|> printed, |>
    derived, <| printed, <| derived, stacked), ``C_plus``, witnesses and condition-1 detail."""
    n = de.g.dim
    actions = _read_only(np.concatenate(
        [mp.map_tensors[f] for f in ("left_act", "right_act") for mp in (pr, de)], 1))
    C_plus = de.algebra.C.copy()  # its *<| and a* terms negated
    C_plus[:, :n, n:] *= -1.0
    witnesses = {name: f"({pr.h.name_of(a)}, {pr.g.name_of(i)})" for name, (_, (_, a, i))
                 in (("action |>", _largest_entry(pr.rho - de.rho)),
                     ("action <|", _largest_entry(pr.sigma - de.sigma)))}
    condition = validation_report(pr)[2]
    detail = f"compatibility condition 1 defect {condition.value:g} at {condition.witness}"
    return actions, _read_only(C_plus), witnesses, detail


def audit_formulas(mp_derived: MatchedPair, mp_printed: MatchedPair,
                   closed_forms: ClosedFormActions, samples: int = 1000,
                   seed: int = 0) -> AuditReport:
    """Reconcile two tensor sets and the closed-form expressions of one of them.

    The action rows compare the two pairs' tensors directly.  The dual rows
    check each closed form against its defining pairing identity, i.e.
    against the exact transpose of ``mp_printed``'s tensors.  The rhs rows
    compare the closed-form vector field and the plus-sign variant of the
    coadjoint assembly against the canonical, energy-conserving one on
    ``mp_derived``: always the same eleven rows.  ``closed_forms`` must be a
    :class:`ClosedFormActions` and ``samples`` and ``seed`` integers (numpy
    integers too, not bools, stored as plain ints), checked before any draw.

    Every row is evaluated on blocks of up to ``AUDIT_BLOCK_SAMPLES`` samples,
    stacked one per row, and keeps its own largest deviation, so the memory held
    beyond the samples themselves is bounded.  Each map and each vector field, at
    the points ``Z = (mu, nu)`` with gradients ``G = (x, y)``, is one
    :func:`~mpmech.lie_core.coadjoint` call, and the four action maps share one.
    The plus-sign field negates the block ``C[:, :n, n:]`` (the *<| and a* terms).
    The dual maps read each pair's :attr:`~MatchedPair.map_tensors`.  The rest that
    does not depend on the draws (the stacked action tensor, ``C_plus``, the action
    rows' witnesses and the condition-1 detail) comes from ``_audit_plan``, which
    keeps it for the last pair of pairs audited.
    """
    if mp_derived.split != mp_printed.split:
        raise DimensionMismatch("audited pairs live on different algebras")
    if not isinstance(closed_forms, ClosedFormActions):
        raise InputError(f"the audit closed forms must be a ClosedFormActions, "
                         f"got {type(closed_forms).__name__}")
    for what, value in (("sample count", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"the audit {what} must be an integer, got {value!r}")
    if not 1 <= samples <= AUDIT_MAX_SAMPLES:
        raise InputError(f"the audit needs 1 to {AUDIT_MAX_SAMPLES} samples, got {samples}")
    if seed < 0:
        raise InputError(f"the audit seed must be non-negative, got {seed}")
    n, m = mp_derived.split
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal((samples, k)) for k in (m, n, n, m)]  # eta, xi, mu, nu
    pr, de, cf = mp_printed, mp_derived, closed_forms
    actions, C_plus, witnesses, detail = _audit_plan(de, pr)

    def gap(name, closed, exact):  # closed - exact, unless the closed form would be broadcast
        if np.shape(closed) == exact.shape:
            return closed - exact
        raise DimensionMismatch(f"{name}: the closed form has shape {np.shape(closed)}, "
                                f"expected {exact.shape}")

    def deviations(etas, xis, mus, nus):  # each row's a - b on one block of samples
        # primitive actions: printed tensors against derived tensors
        acts = coadjoint(actions, etas, xis)
        yield "action |>", acts[:, :n] - acts[:, n:2 * n]
        yield "action <|", acts[:, 2 * n:2 * n + m] - acts[:, 2 * n + m:]
        # dual maps: closed forms against their defining pairing identities
        for name, closed, exact, u, v in (("dual *<|", cf.co_left, co_left_act, mus, etas),
                                          ("dual *|>", cf.co_right, co_right_act, xis, nus),
                                          ("dual a*", cf.a_star, a_star, etas, nus),
                                          ("dual b*", cf.b_star, b_star, xis, mus)):
            yield name, gap(name, closed(u, v), exact(pr, u, v))
        # vector fields on the derived double; an energy rate is <mu_dot, x> + <nu_dot, y>
        Z, G = np.concatenate([mus, nus], axis=1), np.concatenate([xis, etas], axis=1)
        canonical = coadjoint(de.algebra.C, Z, G)
        mu_dot, nu_dot = cf.lp_rhs(mus, nus, xis, etas)
        yield "closed-form rhs (mu)", gap("closed-form rhs (mu)", mu_dot, canonical[:, :n])
        yield "closed-form rhs (nu)", gap("closed-form rhs (nu)", nu_dot, canonical[:, n:])
        yield "canonical rhs energy rate", np.einsum("si,si->s", canonical, G)
        plus = coadjoint(C_plus, Z, G)
        yield "plus-sign rhs vs canonical", plus - canonical
        yield "plus-sign rhs energy rate", np.einsum("si,si->s", plus, G)

    largest = 0.0
    for start in range(0, samples, AUDIT_BLOCK_SAMPLES):
        rows = deviations(*(d[start:start + AUDIT_BLOCK_SAMPLES] for d in draws))
        # max |a - b| row by row, abs written over the fresh difference
        names, block = zip(*((name, np.abs(d, out=d).max()) for name, d in rows))
        largest = np.maximum(largest, block)  # keeps a NaN
    largest = np.abs(largest)  # real, also where a closed form's complex rows kept |a - b| complex
    lines = [AuditLine(name, dev, "MATCH" if dev <= AUDIT_TOLERANCE else "MISMATCH",
                       witnesses.get(name)) for name, dev in zip(names, largest.tolist())]
    if lines[1].status == "MISMATCH":
        lines[1] = replace(lines[1], detail=detail)
    return AuditReport(int(samples), int(seed), AUDIT_TOLERANCE, tuple(lines))
