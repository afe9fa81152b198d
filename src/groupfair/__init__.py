"""Fair division of indivisible goods among groups of agents.

The package provides exact-arithmetic building blocks: valuation and
instance types with a JSON dialect, fairness checkers (EF, EF1/EFc, EFX,
EFX0, proportionality, balance), constructive allocation procedures for
fixed and variable groups, a reduction-based solver for two groups of
binary-valuation agents, an exhaustive existence oracle with a gallery of
known impossibility instances, generalized Kneser graph tools linking
chromatic numbers to balanced-fairness guarantees, and a translation from
monotone 3-SAT formulas to fair-division instances.

The public names below are exported lazily (PEP 562): importing the
package loads no submodule, and the first use of a name imports the one
module that defines it, so ``groupfair.cli`` and a caller of one procedure
load only what they use. ``from groupfair import *`` binds every name in
``__all__``; ``from groupfair import kneser`` still gives the submodule.
"""

_EXPORTS = {
    "errors": (
        "FairAllocationNotFound",
        "GroupFairError",
        "GroupShapeError",
        "SearchSpaceTooLargeError",
        "UnsupportedNotionError",
        "UnsupportedValuationError",
    ),
    "model": (
        "ADDITIVE",
        "BINARY",
        "MAX_TABLE_GOODS",
        "TABLE",
        "AgentPartition",
        "Allocation",
        "FixedGroups",
        "Instance",
        "Valuation",
        "VariableGroups",
        "allocation_violations",
        "bits_of",
        "full_mask",
        "instance_from_dict",
        "instance_from_json",
        "instance_to_dict",
        "instance_to_json",
        "iter_bits",
        "mask_of",
        "validate",
    ),
    "fairness": (
        "EF",
        "EF1",
        "EF2",
        "EFX",
        "EFX0",
        "PROP",
        "FairnessReport",
        "Notion",
        "SearchConstraints",
        "agent_verdict",
        "fair_toward",
        "is_balanced",
        "is_exact1",
        "is_fair",
        "parse_notion",
        "up_to",
    ),
    "algorithms": (
        "cut_and_choose_ef1",
        "ef1_two_one",
        "exact1_partition",
        "preference_order",
        "proportional_k_groups",
        "rotating_knife",
        "round_robin",
    ),
    "binary_solver": ("ReductionTrace", "TraceStep", "preprocess", "replay_trace", "solve_ef1_binary"),
    "oracle": ("Certificate", "enumerate_fair", "find_fair"),
    "gallery": ("CorpusEntry", "corpus", "run_corpus_entry"),
    "kneser": (
        "Coloring",
        "KneserGraph",
        "build_kneser",
        "chromatic_number",
        "is_proper",
        "tightness_instance",
        "to_dimacs",
    ),
    "reduction": (
        "MonotoneClause",
        "MonotoneFormula",
        "allocation_to_assignment",
        "assignment_to_allocation",
        "brute_force_satisfiable",
        "formula_to_dimacs",
        "formula_to_instance",
        "parse_dimacs_cnf",
    ),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
