"""Constructive allocation procedures.

Every procedure is deterministic: ties break toward lower indices, and any
internal ordering is fixed. Outputs are meant to be re-verified through the
fairness module; the procedures themselves only promise the guarantee named
in their docstring.
"""

from __future__ import annotations

from typing import Sequence

from .errors import GroupShapeError, UnsupportedValuationError
from .fairness import EF1, fair_toward
from .model import (
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    Valuation,
    full_mask,
    mask_of,
)


def _require_additive_like(v: Valuation, who: str) -> None:
    if not v.is_additive_like():
        raise UnsupportedValuationError(f"{who} needs binary or additive valuations")


def preference_order(v: Valuation, extra_zero_good: bool = False) -> tuple[int, ...]:
    """Goods sorted by descending single-good value, ties to the lower index.

    With ``extra_zero_good`` a phantom good of index m and value 0 is
    appended; it lands at the very end of the order.
    """
    _require_additive_like(v, "preference_order")
    vals = list(v.values)
    if extra_zero_good:
        vals.append(0)
    return tuple(sorted(range(len(vals)), key=lambda g: (-vals[g], g)))


def exact1_partition(v1: Valuation, v2: Valuation) -> tuple[int, int]:
    """Split the goods so that both bundles are EF1 for both agents.

    Consecutive pairs in each agent's preference order are linked by an
    edge; the union of the two pairings is a disjoint union of even cycles,
    so a proper 2-coloring exists and puts one good of every pair on each
    side. Each component is colored starting from its lowest vertex, which
    goes to the first bundle. An odd number of goods is handled by a
    phantom zero-value good that is stripped from the result.
    """
    _require_additive_like(v1, "exact1_partition")
    _require_additive_like(v2, "exact1_partition")
    if v1.m != v2.m:
        raise ValueError("both agents must value the same goods")
    m = v1.m
    odd = m % 2 == 1
    size = m + 1 if odd else m
    if size == 0:
        return 0, 0
    adj: list[set[int]] = [set() for _ in range(size)]
    for v in (v1, v2):
        order = preference_order(v, extra_zero_good=odd)
        for e in range(size // 2):
            a, b = order[2 * e], order[2 * e + 1]
            adj[a].add(b)
            adj[b].add(a)
    color = [-1] * size
    for start in range(size):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    raise AssertionError("pairing graph was not bipartite")
    first = mask_of(g for g in range(m) if color[g] == 0)
    second = mask_of(g for g in range(m) if color[g] == 1)
    return first, second


def ef1_two_one(inst: Instance) -> Allocation:
    """EF1 allocation for fixed groups of sizes two and one.

    The pair splits the goods with :func:`exact1_partition`; the singleton
    agent then takes her weakly preferred bundle (the first one on a tie).
    """
    if not isinstance(inst.groups, FixedGroups) or sorted(len(g) for g in inst.groups.members) != [1, 2]:
        raise GroupShapeError("ef1_two_one needs fixed groups of sizes 2 and 1")
    single_idx = next(i for i, g in enumerate(inst.groups.members) if len(g) == 1)
    pair_idx = 1 - single_idx
    single_agent = inst.groups.members[single_idx][0]
    a, b = inst.groups.members[pair_idx]
    first, second = exact1_partition(inst.agents[a], inst.agents[b])
    vc = inst.agents[single_agent]
    if vc.value(first) >= vc.value(second):
        chosen, left = first, second
    else:
        chosen, left = second, first
    bundles = [0, 0]
    bundles[single_idx] = chosen
    bundles[pair_idx] = left
    return Allocation(tuple(bundles))


def cut_and_choose_ef1(
    agents: Sequence[Valuation],
    n1: int,
    n2: int,
) -> tuple[AgentPartition, Allocation]:
    """EF1 allocation for two groups of chosen sizes, any monotonic agents.

    Goods are laid on a line in index order (relabel the goods to use
    another order) and a prefix grows until at least ``n1`` agents find it
    EF1 against the complement. Group one takes the prefix: all agents
    satisfied before the last added good, topped up with the newly
    satisfied ones in id order. Satisfaction is monotone along the prefix,
    so everyone left for group two strictly prefers the complement, which
    makes it EF1 for them as well.
    """
    n = len(agents)
    if n1 < 0 or n2 < 0 or n1 + n2 != n:
        raise GroupShapeError(f"sizes ({n1},{n2}) do not match {n} agents")
    if n == 0:
        return AgentPartition((), 2), Allocation((0, 0))
    m = agents[0].m
    if any(v.m != m for v in agents):
        raise ValueError("all agents must value the same goods")
    full = full_mask(m)

    def satisfied(prefix: int) -> list[int]:
        rest = full & ~prefix
        return [a for a, v in enumerate(agents) if fair_toward(v, prefix, rest, EF1)]

    prefix = 0
    sat_prev: list[int] = []
    sat = satisfied(prefix)
    length = 0
    while len(sat) < n1:
        prefix |= 1 << length
        length += 1
        sat_prev = sat
        sat = satisfied(prefix)
    if n1 and len(sat_prev) >= n1:
        raise AssertionError("prefix was not minimal")
    group1 = list(sat_prev)
    newly = [a for a in sat if a not in sat_prev]
    group1.extend(newly[: n1 - len(group1)])
    in_first = set(group1)
    assignment = tuple(0 if a in in_first else 1 for a in range(n))
    return AgentPartition(assignment, 2), Allocation((prefix, full & ~prefix))


def rotating_knife(agents: Sequence[Valuation]) -> tuple[AgentPartition, Allocation]:
    """Balanced EF1 allocation into two variable groups, monotonic agents.

    Goods sit on a circle in index order (relabel the goods to use another
    order) and a diameter sweeps over at most t+1 cut positions (2t goods
    on the circle). At every cut each agent accepts at least one arc, since
    her weakly preferred arc is envy-free for her; the first cut where the
    agents forced to either side fit into half the (padded) population is
    kept. Odd numbers of agents and goods are padded with an all-zeros
    agent and a phantom worthless good, both stripped from the result,
    leaving group sizes and bundle sizes that differ by at most one.
    """
    n = len(agents)
    if n == 0:
        raise ValueError("rotating_knife needs at least one agent")
    m = agents[0].m
    if any(v.m != m for v in agents):
        raise ValueError("all agents must value the same goods")
    vals = list(agents)
    pad_good = m % 2 == 1
    if pad_good:
        vals = [v.with_zero_good() for v in vals]
    mm = m + 1 if pad_good else m
    pad_agent = len(vals) % 2 == 1
    if pad_agent:
        vals.append(Valuation.zeros(mm))
    nn = len(vals)
    half_agents = nn // 2
    t = mm // 2
    full = full_mask(mm)

    chosen = None
    for cut in range(t + 1):
        first = full_mask(t) << cut  # goods cut..cut+t-1; cut <= t, so no wrap
        second = full & ~first
        forced1: list[int] = []
        forced2: list[int] = []
        flexible: list[int] = []
        for a, v in enumerate(vals):
            ok1 = fair_toward(v, first, second, EF1)
            ok2 = fair_toward(v, second, first, EF1)
            if ok1 and ok2:
                flexible.append(a)
            elif ok1:
                forced1.append(a)
            elif ok2:
                forced2.append(a)
            else:
                raise AssertionError("an agent rejected both arcs")
        if len(forced1) <= half_agents and len(forced2) <= half_agents:
            group1 = set(forced1)
            group1.update(flexible[: half_agents - len(forced1)])
            chosen = (first, second, group1)
            break
    if chosen is None:
        raise AssertionError("no cut admits a balanced EF1 assignment")
    first, second, group1 = chosen
    if pad_good:
        keep = full_mask(m)
        first &= keep
        second &= keep
    assignment = tuple(0 if a in group1 else 1 for a in range(n))
    return AgentPartition(assignment, 2), Allocation((first, second))


def proportional_k_groups(
    agents: Sequence[Valuation],
    sizes: Sequence[int],
) -> tuple[AgentPartition, Allocation]:
    """Give every agent a near-proportional share in k groups of set sizes.

    Guarantee, checked exactly by cross-multiplication: for each agent j in
    her group's bundle B, k*u_j(B) >= u_j(G) - (k-1)*max_g u_j(g). Additive
    valuations only. Groups are filled one by one from a line of goods in
    index order (relabel the goods to use another order): the prefix grows
    until enough agents clear their threshold, and the earliest-satisfied
    agents (ties to lower ids) take the prefix.
    """
    n = len(agents)
    k = len(sizes)
    if k == 0 or any(s < 0 for s in sizes) or sum(sizes) != n:
        raise GroupShapeError(f"sizes {list(sizes)} do not fit {n} agents")
    for v in agents:
        _require_additive_like(v, "proportional_k_groups")
    m = agents[0].m if n else 0
    if any(v.m != m for v in agents):
        raise ValueError("all agents must value the same goods")

    # threshold check: k*u(B) >= total - (k-1)*umax, all integers
    totals = [v.value(full_mask(m)) for v in agents]
    umaxes = [max(v.values) if m else 0 for v in agents]

    def clears(agent: int, bundle_value: int) -> bool:
        return k * bundle_value >= totals[agent] - (k - 1) * umaxes[agent]

    remaining = list(range(n))
    pos = 0  # next good on the line
    assignment = [-1] * n
    bundles = [0] * k
    for gi in range(k - 1):
        need = sizes[gi]
        bundle = 0
        bundle_vals = {a: 0 for a in remaining}
        first_sat: dict[int, int] = {}
        step = 0
        for a in remaining:
            if clears(a, 0):
                first_sat[a] = 0
        while len(first_sat) < need:
            if pos >= m:
                raise AssertionError("ran out of goods before filling a group")
            bundle |= 1 << pos
            step += 1
            for a in remaining:
                if a in first_sat:
                    continue
                bundle_vals[a] += agents[a].values[pos]
                if clears(a, bundle_vals[a]):
                    first_sat[a] = step
            pos += 1
        members = sorted(first_sat, key=lambda a: (first_sat[a], a))[:need]
        for a in members:
            assignment[a] = gi
        bundles[gi] = bundle
        taken = set(members)
        remaining = [a for a in remaining if a not in taken]
    bundles[k - 1] = full_mask(m) & ~full_mask(pos)
    for a in remaining:
        assignment[a] = k - 1
    return AgentPartition(tuple(assignment), k), Allocation(tuple(bundles))


def round_robin(agents: Sequence[Valuation]) -> Allocation:
    """Individual EF1 for additive agents: agents pick favorites in turns.

    Agents draft in id order, round after round; each takes her highest
    valued remaining good, ties to the lower good index. Bundle i belongs
    to agent i.
    """
    n = len(agents)
    if n == 0:
        raise ValueError("round_robin needs at least one agent")
    for v in agents:
        _require_additive_like(v, "round_robin")
    m = agents[0].m
    if any(v.m != m for v in agents):
        raise ValueError("all agents must value the same goods")
    remaining = set(range(m))
    bundles = [0] * n
    turn = 0
    while remaining:
        v = agents[turn % n]
        best = max(remaining, key=lambda g: (v.values[g], -g))
        bundles[turn % n] |= 1 << best
        remaining.discard(best)
        turn += 1
    return Allocation(tuple(bundles))
