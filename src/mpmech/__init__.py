"""Matched-pair Lie algebra mechanics.

Structure-constant Lie algebras, matched-pair validation and double-algebra
assembly, Lie-Poisson and Euler-Poincare flows with invariant monitoring,
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
    tolerance_scale,
    trivialized_forms_eval,
)
from .matched_pair import (
    AuditLine,
    AuditReport,
    ClosedFormActions,
    DoubleAlgebra,
    DualPoint,
    MatchedPair,
    a_star,
    audit_formulas,
    b_star,
    build_double,
    co_left_act,
    co_right_act,
    cobracket_eval,
    left_act,
    matched_bracket_eval,
    matched_lp_rhs,
    right_act,
)
from .dynamics import (
    HamiltonianSpec,
    LagrangianSpec,
    TrajectoryRecord,
    gradient,
    integrate,
    integrate_ep,
    legendre,
)
from .sl2c import (
    EmbeddedBasis,
    KElement,
    SU2Element,
    builtin_pairs,
    derive_actions_from_embedding,
    group_left_act,
    group_right_act,
    iwasawa_factor,
    k_algebra,
    k_basis,
    k_inverse,
    k_multiply,
    k_to_matrix,
    random_k_element,
    random_sl2c,
    random_su2,
    sl2c_closed_forms,
    standard_basis,
    su2_algebra,
    su2_basis,
)

__version__ = "0.1.0"
