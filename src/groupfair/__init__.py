"""Fair division of indivisible goods among groups of agents.

The package provides exact-arithmetic building blocks: valuation and
instance types with a JSON dialect, fairness checkers (EF, EF1/EFc, EFX,
EFX0, proportionality, balance), constructive allocation procedures for
fixed and variable groups, a reduction-based solver for two groups of
binary-valuation agents, an exhaustive existence oracle with a gallery of
known impossibility instances, generalized Kneser graph tools linking
chromatic numbers to balanced-fairness guarantees, and a translation from
monotone 3-SAT formulas to fair-division instances.
"""

from .errors import (
    FairAllocationNotFound,
    GroupFairError,
    GroupShapeError,
    SearchSpaceTooLargeError,
    UnsupportedNotionError,
    UnsupportedValuationError,
)
from .model import (
    ADDITIVE,
    BINARY,
    MAX_TABLE_GOODS,
    TABLE,
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    Valuation,
    VariableGroups,
    allocation_violations,
    bits_of,
    full_mask,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    iter_bits,
    mask_of,
    validate,
)
from .fairness import (
    EF,
    EF1,
    EF2,
    EFX,
    EFX0,
    PROP,
    FairnessReport,
    Notion,
    agent_verdict,
    fair_toward,
    is_balanced,
    is_exact1,
    is_fair,
    parse_notion,
    up_to,
)
from .algorithms import (
    cut_and_choose_ef1,
    ef1_two_one,
    exact1_partition,
    preference_order,
    proportional_k_groups,
    rotating_knife,
    round_robin,
)
from .binary_solver import ReductionTrace, TraceStep, preprocess, replay_trace, solve_ef1_binary
from .oracle import (
    Certificate,
    CorpusEntry,
    SearchConstraints,
    corpus,
    enumerate_fair,
    find_fair,
    run_corpus_entry,
)
from .kneser import (
    Coloring,
    KneserGraph,
    build_kneser,
    chromatic_number,
    is_proper,
    tightness_instance,
    to_dimacs,
)
from .reduction import (
    MonotoneClause,
    MonotoneFormula,
    allocation_to_assignment,
    assignment_to_allocation,
    brute_force_satisfiable,
    formula_to_dimacs,
    formula_to_instance,
    parse_dimacs_cnf,
)

__version__ = "0.1.0"
