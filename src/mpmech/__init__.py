"""Matched-pair Lie algebra mechanics.

Structure-constant Lie algebras; matched pairs, each with its validation and
its double algebra (``MatchedPair.algebra``); Lie-Poisson and Euler-Poincare
flows with invariant monitoring, which take the pair and flat (n + m,) vectors;
and the SU(2)/triangular factorization of SL(2,C) as a fully worked example.
"""

from .errors import (
    DegenerateMetricError,
    DimensionMismatch,
    EmbeddingError,
    Error,
    InputError,
    IntegrationError,
    ValidationError,
)
from .lie_core import (
    LieAlgebra,
    abelian,
    ad_star,
    bracket,
    lie_poisson_bracket,
    lie_poisson_rhs,
    trivialized_forms_eval,
)
from .matched_pair import (
    AuditLine,
    AuditReport,
    ClosedFormActions,
    MatchedPair,
    a_star,
    audit_formulas,
    b_star,
    co_left_act,
    co_right_act,
    left_act,
    matched_lp_rhs,
    right_act,
)
from .dynamics import (
    HamiltonianSpec,
    TrajectoryRecord,
    gradient,
    integrate,
    integrate_ep,
    legendre,
)
from .sl2c import (
    builtin_pairs,
    derive_actions_from_embedding,
    iwasawa_factor,
    k_algebra,
    k_basis,
    sl2c_closed_forms,
    standard_basis,
    su2_algebra,
    su2_basis,
)

__version__ = "0.1.0"
