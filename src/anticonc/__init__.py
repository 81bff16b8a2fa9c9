"""Exact subset-sum concentration and range computations, iterated sumsets,
and verified binomial-moment inequalities."""

__version__ = "0.1.0"

from .errors import (
    BadParams,
    BudgetExceeded,
    CapacityExceeded,
    InvariantViolated,
    TooLarge,
    Undecidable,
)
from .frontier import (
    AuditReport,
    FrontierPoint,
    SweepConfig,
    audit,
    pareto_subset,
    sweep_points,
)
from .lemmas import (
    BlockTheory,
    MomentRecord,
    SecondMomentRecord,
    SupRatioBoundReport,
    SupRatioEstimate,
    TheoremCheck,
    Verdict,
    block_construction,
    block_theory,
    check_initial_bound,
    check_sup_ratio_bound,
    max_ratio_bound,
    ratio_moment,
    second_moment_identity,
    sup_ratio_exact,
    sup_ratio_mc,
    tail_check,
    theorem_check,
)
from .numerics import (
    PI,
    Add,
    Exp,
    Mul,
    Ordering,
    Rat,
    binomial_row,
    cmp_bound,
)
from .subsetsum import (
    ConcentrationReport,
    CubeSet,
    SumProfile,
    as_weights,
    concentration,
    fiber,
    levy,
    profile,
    profile_dp,
    profile_mitm,
    profile_naive,
    unique_preimages,
)
from .sumsets import (
    InjectivityResult,
    MultiSumset,
    check_injectivity,
    density_ratio_max,
    iterated_sumset,
    partition_total,
)

__all__ = [name for name in dir() if not name.startswith("_")]
