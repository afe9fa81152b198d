"""Fairness predicates over allocations: envy relaxations, proportionality, balance.

The checkers are the ground truth the rest of the package defers to: every
algorithm output and oracle hit is re-verified here, by one check of the
answer's whole claim, :func:`check_answer`. The CLI's ``solve`` and
``search``, the fuzz suites and the corpus runner all call it. A claim is
either a :class:`SearchConstraints` (a search's own constraints; EF1 for
the binary solver, two-one, roundrobin and cut-and-choose; EF1 with
balanced groups and bundles for the rotating knife), ``"exact1"`` (two
balanced bundles, EF1 both ways for both agents) or ``"prop up to k-1
goods"`` (the declared group sizes and every agent's share up to k-1
goods). All comparisons are on exact integers; proportionality avoids
division by cross-multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import UnsupportedNotionError
from .model import (
    TABLE,
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    Valuation,
    allocation_violations,
    full_mask,
    iter_bits,
)


@dataclass(frozen=True)
class Notion:
    """A fairness notion tag.

    ``kind`` is one of ``ef`` (no envy), ``efc`` (envy up to c goods removed
    from the envied bundle; c=1 is EF1), ``efx`` (envy-free up to any
    positively valued good), ``efx0`` (up to any good, including worthless
    ones), or ``prop`` (a 1/k share of the whole, where k is the number of
    bundles in the allocation at hand).
    """

    kind: str
    c: int = 0

    def __post_init__(self):
        if self.kind not in ("ef", "efc", "efx", "efx0", "prop"):
            raise ValueError(f"unknown fairness notion {self.kind!r}")
        if self.kind == "efc":
            if self.c < 1:
                raise ValueError("efc needs c >= 1")
        elif self.c != 0:
            raise ValueError(f"{self.kind} does not take a removal budget")

    def __str__(self) -> str:
        if self.kind == "efc":
            return f"ef{self.c}"
        return self.kind


EF = Notion("ef")
EF1 = Notion("efc", 1)
EF2 = Notion("efc", 2)
EFX = Notion("efx")
EFX0 = Notion("efx0")
PROP = Notion("prop")


@dataclass(frozen=True)
class SearchConstraints:
    """Side conditions of an existence question.

    ``balanced_allocation`` restricts to bundle sizes pairwise within one.
    ``balanced_partition`` (variable groups only) ranges over every group
    size vector whose entries pairwise differ by at most one, instead of
    the instance's declared sizes. To search one concrete partition of a
    variable-group instance, search the fixed-group instance it gives.
    """

    notion: Notion
    balanced_allocation: bool = False
    balanced_partition: bool = False


def up_to(c: int) -> Notion:
    """EFc for a given removal budget c."""
    return Notion("efc", c)


def parse_notion(text: str) -> Notion:
    """Read a notion from its CLI spelling (ef, ef1, ef2, ..., efx, efx0,
    prop); c is written in ASCII digits without a leading zero."""
    t = text.strip().lower()
    named = {"ef": EF, "efx": EFX, "efx0": EFX0, "prop": PROP}
    if t in named:
        return named[t]
    c = t[2:]
    if t.startswith("ef") and c.isascii() and c.isdigit() and c[0] != "0":
        return up_to(int(c))
    raise ValueError(f"{text!r} is not a fairness notion (ef, ef1, ef2, ..., efx, efx0, prop)")


# ---------------------------------------------------------------------------
# pairwise and per-agent checks


def table_accepts(table: Sequence[int], mine: int, other: int, c: int) -> bool:
    """Does a table agent whose own bundle is worth ``mine`` accept bundle
    ``other`` once some set of at most c of its goods is deleted?

    Tables need not be monotone, so every removal set of up to c goods is
    tried, the empty one first, and the first one that brings ``other``
    down to ``mine`` ends the search. Each set is reached once, by removing
    its goods from the lowest up: ``free`` holds the goods above the last
    one removed.
    """
    if table[other] <= mine:
        return True
    layer = [(other, other)]
    for left in range(c - 1, -1, -1):
        below = []
        for mask, free in layer:
            while free:
                low = free & -free
                free ^= low
                if table[mask ^ low] <= mine:
                    return True
                if left and free:
                    below.append((mask ^ low, free))
        layer = below
    return False


def removable_values(notion: Notion, values: Sequence[int]) -> tuple[int, ...]:
    """Values of the goods an additive agent may delete from a bundle whose
    goods have these values, before comparing it with its own.

    Their sum is the notion's removal allowance: nothing for ef (and prop),
    the c largest values for efc, the least positive value for efx and the
    least value for efx0.
    """
    kind = notion.kind
    if kind == "efc":
        return tuple(sorted(values, reverse=True)[: notion.c])
    if kind == "efx":
        values = [x for x in values if x > 0]
    elif kind != "efx0":
        return ()
    return (min(values),) if values else ()


def _removal_violation(v: Valuation, mine: int, other: int, zero_ok: bool) -> int | None:
    """Smallest good in ``other`` whose removal still leaves an agent worth
    ``mine`` envious, or None; worthless goods count only when ``zero_ok``."""
    total = v.value(other)
    vals = v.values
    for g in iter_bits(other):
        val = vals[g]
        if not zero_ok and val == 0:
            continue
        if mine < total - val:
            return g
    return None


def fair_toward(v: Valuation, own: int, other: int, notion: Notion) -> bool:
    """Does an agent with valuation ``v`` holding ``own`` accept ``other``?

    For ``ef`` this is plain non-envy. For ``efc`` some set of at most c
    goods may be deleted from ``other`` first; on additive valuations the
    c most valuable ones go, on tables every small removal set is tried.
    ``efx``/``efx0`` demand non-envy after removal of every (positively
    valued) single good and are only defined for additive-like valuations.
    """
    if notion.kind == "prop":
        raise ValueError("prop is checked against the whole allocation, not a pair")
    if notion.kind == "ef":
        return v.value(own) >= v.value(other)
    if v.kind == TABLE:
        if notion.kind == "efc":
            return table_accepts(v.table, v.value(own), other, notion.c)
        raise UnsupportedNotionError(f"{notion} is not defined for table valuations")
    vals = v.values
    other_vals = [vals[g] for g in iter_bits(other)]
    return v.value(own) >= sum(other_vals) - sum(removable_values(notion, other_vals))


def rejected_bundle(
    v: Valuation, bundles: Sequence[int], own_group: int, notion: Notion
) -> int | None:
    """Index of the first bundle the agent in ``own_group`` rejects, or None.

    For ``prop`` the rejected bundle is the agent's own one: it falls short
    of a 1/k share of the whole, k being the number of bundles.
    """
    own = bundles[own_group]
    if notion.kind == "prop":
        if len(bundles) * v.value(own) < v.value(full_mask(v.m)):
            return own_group
        return None
    for j, other in enumerate(bundles):
        if j != own_group and not fair_toward(v, own, other, notion):
            return j
    return None


def agent_verdict(
    v: Valuation, alloc: Allocation, own_group: int, notion: Notion
) -> tuple[bool, tuple[int, int | None] | None]:
    """Verdict for one agent plus a witness on failure.

    The witness is the lexicographically smallest offending ``(group, good)``
    pair; the good component is only meaningful for efx/efx0, otherwise None.
    Proportionality failures carry no witness.
    """
    j = rejected_bundle(v, alloc.bundles, own_group, notion)
    if j is None:
        return True, None
    if notion.kind == "prop":
        return False, None
    good = None
    if notion.kind in ("efx", "efx0"):
        mine = v.value(alloc.bundles[own_group])
        good = _removal_violation(v, mine, alloc.bundles[j], notion.kind == "efx0")
    return False, (j, good)


def meets_prop_up_to_goods(v: Valuation, bundle: int, k: int) -> bool:
    """Proportionality up to k-1 goods: k*u(B) >= u(G) - (k-1)*max_g u(g)."""
    umax = max((v.value(1 << g) for g in range(v.m)), default=0)
    return k * v.value(bundle) >= v.value(full_mask(v.m)) - (k - 1) * umax


# ---------------------------------------------------------------------------
# whole-allocation reports


@dataclass(frozen=True)
class FairnessReport:
    """Per-agent verdicts with witnesses for the failures."""

    overall: bool
    per_agent: tuple[bool, ...]
    witnesses: dict[int, tuple[int, int | None] | None]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "agents": list(self.per_agent),
            "witnesses": {
                str(a): (None if w is None else {"group": w[0], "good": w[1]})
                for a, w in sorted(self.witnesses.items())
            },
        }


def _group_lookup(
    inst: Instance, alloc: Allocation, partition: AgentPartition | None
) -> tuple[int, ...]:
    problems = allocation_violations(inst.m, alloc)
    if problems:
        raise ValueError("; ".join(problems))
    if isinstance(inst.groups, FixedGroups):
        if partition is not None:
            raise ValueError("fixed-group instance does not take an agent partition")
        if alloc.k != inst.k:
            raise ValueError(f"allocation has {alloc.k} bundles, instance has {inst.k} groups")
        return inst.assignment
    if partition is None:
        raise ValueError("variable-group instance needs an agent partition")
    if len(partition.assignment) != inst.n:
        raise ValueError("partition covers the wrong number of agents")
    if partition.k != alloc.k:
        raise ValueError("partition and allocation disagree on the number of groups")
    # group sizes may differ from the declared ones (balanced-agents hits)
    if partition.k != inst.k:
        raise ValueError(f"partition has {partition.k} groups, instance has {inst.k}")
    return partition.assignment


def is_fair(
    inst: Instance,
    alloc: Allocation,
    notion: Notion,
    partition: AgentPartition | None = None,
) -> FairnessReport:
    """Check every agent; variable-group instances need ``partition``."""
    lookup = _group_lookup(inst, alloc, partition)
    verdicts = []
    witnesses: dict[int, tuple[int, int | None] | None] = {}
    for a, v in enumerate(inst.agents):
        ok, w = agent_verdict(v, alloc, lookup[a], notion)
        verdicts.append(ok)
        if not ok:
            witnesses[a] = w
    return FairnessReport(all(verdicts), tuple(verdicts), witnesses)


def is_exact1(v: Valuation, partition: tuple[int, int]) -> bool:
    """Are both sides of a 2-partition EF1 from this agent's viewpoint?"""
    x, y = partition
    if x & y or (x | y) != full_mask(v.m):
        raise ValueError("partition must split the goods into two disjoint bundles")
    return fair_toward(v, x, y, EF1) and fair_toward(v, y, x, EF1)


def is_balanced(x) -> bool:
    """Pairwise size difference at most one.

    Accepts an Allocation (bundle sizes), an AgentPartition (group sizes),
    or any iterable of sizes.
    """
    if isinstance(x, Allocation):
        sizes = x.sizes()
    elif isinstance(x, AgentPartition):
        sizes = x.sizes()
    else:
        sizes = tuple(x)
    if not sizes:
        return True
    return max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# answers


def check_answer(
    inst: Instance, alloc: Allocation, part: AgentPartition | None, claim: SearchConstraints | str
) -> tuple[str | None, FairnessReport | None]:
    """The first part of its claim an answer breaks, or None, and the
    notion's report when the claim is a :class:`SearchConstraints` whose
    notion was checked: the one check of every answer the package gives.

    The parts, in the order they are checked: ``goods not partitioned``
    (the bundles must be disjoint and cover the goods), ``bundle count``
    (one per group, two for ``"exact1"``), ``group sizes`` (the declared
    ones, or sizes within one under ``balanced_partition``; fixed groups
    take ``part`` None), ``balance`` (bundles within one, under
    ``balanced_allocation`` and for ``"exact1"``), then the claim itself:
    the notion on ``inst`` under ``part``, ``exact1`` (both agents find
    the two bundles EF1) or ``prop up to k-1 goods`` (every agent's own
    bundle, k being the number of groups).
    """
    search = isinstance(claim, SearchConstraints)
    if allocation_violations(inst.m, alloc):
        return "goods not partitioned", None
    if alloc.k != (2 if claim == "exact1" else inst.k):
        return "bundle count", None
    balanced = search and claim.balanced_partition
    if part is not None and not (is_balanced(part) if balanced else part.sizes() == inst.groups.sizes):
        return "group sizes", None
    if (claim == "exact1" or search and claim.balanced_allocation) and not is_balanced(alloc):
        return "balance", None
    if search:
        report = is_fair(inst, alloc, claim.notion, partition=part)
        return (None if report.overall else str(claim.notion)), report
    if claim == "exact1":
        ok = all(is_exact1(v, alloc.bundles) for v in inst.agents)
    else:
        owned = [alloc.bundles[g] for g in part.assignment]
        ok = all(meets_prop_up_to_goods(v, b, inst.k) for v, b in zip(inst.agents, owned))
    return (None if ok else claim), None
