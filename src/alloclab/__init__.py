"""Exact-arithmetic laboratory for random allocation mechanisms."""

from .core import (
    Allocation,
    BernoulliUtility,
    ColumnSumNotOne,
    DimensionMismatch,
    Lottery,
    NegativeEntry,
    RowSumNotOne,
    SumNotOne,
    TiesPresent,
    UtilityProfile,
    allocation_distance,
    degenerate_lottery,
    expected_utility,
    make_allocation,
    make_lottery,
    make_profile,
    make_utility,
    support,
    uniform_allocation,
)
from .ordinal import (
    InconsistentBase,
    MuOutOfRange,
    NormalizedUtility,
    OrdinalPreference,
    PreconditionViolated,
    SdVerdict,
    SingleObject,
    VUtility,
    WrongDimension,
    all_orders,
    canonicalize,
    middle_rate,
    ordinal_of,
    rdu_utility,
    sd_compare,
    separating_utility,
    utility_from,
    v_from_bernoulli,
    validate_v_domain,
)
from .bvn import Decomposition, PermutationMatrix, decompose, recompose
from .lp import (
    MalformedProgram,
    best_assignment,
    dominates,
    find_dominating,
    maximize,
)
from .rules import (
    AlphaOutOfRange,
    DICTATORSHIP,
    PS,
    RSD,
    Rule,
    UNIFORM,
    UTILITARIAN,
    blend_rule,
    built_in_family,
    forget,
    rule_by_name,
)
from .checkers import (
    CheckConfig,
    EndpointsInDifferentCones,
    NotOrdinal,
    Verdict,
    check_efficiency,
    check_ncc_continuity,
    check_non_bossiness,
    check_ordinality,
    check_sd_strategy_proofness,
    check_strategy_proofness,
)
from .harness import (
    LEMMA_HYPOTHESES,
    LEMMA_IDS,
    LemmaReport,
    NotOrdinalOnU,
    StressReport,
    theorem2_check,
    theorem_stress,
    verify_lemma,
)

__version__ = "0.1.0"
