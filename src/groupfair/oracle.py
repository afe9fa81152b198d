"""Exhaustive existence oracle and the built-in impossibility corpus.

The oracle decides, for any supported fairness notion, whether a small
instance admits a fair allocation, optionally restricted to balanced
bundles, and for variable groups optionally ranging over agent partitions.
A negative answer is a certificate: every admissible candidate was either
checked or lies in a subtree that was soundly cut.

Candidates are ordered deterministically. Allocations are base-k counters
over the goods with good 0 as the least significant digit, so candidate
index i puts good g into bundle (i // k**g) % k. Partitions are ordered by
their sorted member lists, group 0 first. The first satisfying candidate
in this order is returned.

The scan walks the allocation tree depth first: level g places good g,
good m-1 first and good 0 last, trying bundle 0 first, so leaves come in
index order and a node spans the leaves [base, base + k**(g+1)). In
balanced mode a good only goes where every bundle can still end with
floor(m/k) or ceil(m/k) goods, so only balanced candidates are generated.

Additive and binary agents with the same values and group are one
checker. Each keeps running numbers as goods are placed and taken back:
``avail``, its own bundle plus every unplaced good, and for each other
bundle its value less the notion's removal allowance
(:func:`fairness.removable_values`). A checker rejects a node when ``avail``
falls below one of those: even with every unplaced good in its own bundle
it would reject the other bundle, and acceptance never drops as the own
bundle grows nor rises as the other grows, so the whole subtree is cut.
PROP cuts when k * avail is below the agent's total. Placing a good moves
only the numbers of checkers outside its bundle that value it (all of
them for EFX0), so only those are checked again. Table agents are not
assumed monotone and are checked at the leaves only, through the one table
rule :func:`fairness.table_accepts` (PROP through
:func:`fairness.rejected_bundle`), which stops at the first removal set
that ends the envy.

The scan also keeps a failure memo, the transposition table of game-tree
search. Every verdict below a node is a function of the checkers' running
numbers for the bundles other than their own (``avail`` follows from them,
or is the number itself for PROP), of the bundle sizes in balanced mode
and of the goods still unplaced. Once the subtree under a node has been
walked from its first leaf with no hit, those numbers are recorded, packed
into one int that is updated as goods come and go; a later node that
reaches the same numbers is cut like a bound cut. A checker whose valued
goods are all placed leaves the key: it passed at that node and nothing
below moves it. A table agent's verdict depends on the whole bundle masks,
so scans with table agents record nothing. The memo lives for one scan.
It works only on nodes with at least two goods unplaced (smaller subtrees
are walked faster than looked up), and each level of the tree records at
most k**ceil(m/2) nodes, one int each: at most about m * sqrt(k**m) ints
for k**m leaves (some 41,000 for 2**22). A full level still looks up,
unless it filled without a single recall: the lowest such levels, which
hold most of the nodes, stop building keys, so a scan the memo cannot
shorten runs close to the speed of one without it.
``SearchStats.memo_pruned`` counts its cuts, which are part of ``pruned``;
their candidates count in ``candidates_pruned``, so ``examined`` and the
first hit do not change.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import combinations, compress, permutations
from typing import Callable, Iterator, Sequence

from .errors import SearchSpaceTooLargeError, UnsupportedNotionError
from .fairness import (
    EF1,
    EF2,
    EFX,
    EFX0,
    Notion,
    is_fair,
    rejected_bundle,
    removable_values,
    table_accepts,
)
from .model import (
    MAX_TABLE_GOODS,
    TABLE,
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    Valuation,
    VariableGroups,
)

# Upper bound on partitions x allocation counters walked in one call.
SCAN_GUARD = 10**8


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


@dataclass
class SearchStats:
    """What a search did.

    ``nodes`` counts the tree nodes visited (a good placed in a bundle),
    ``pruned`` the subtrees cut and ``candidates_pruned`` the admissible
    candidates inside them, ``leaves_rejected`` the candidates checked in
    full and rejected. ``memo_pruned`` counts the cut subtrees that the
    failure memo recognised as refuted before; they are part of
    ``pruned``. On an exhausted search ``leaves_rejected +
    candidates_pruned == examined`` still holds. ``partitions`` counts the
    agent partitions walked.
    """

    nodes: int = 0
    pruned: int = 0
    memo_pruned: int = 0
    candidates_pruned: int = 0
    leaves_rejected: int = 0
    partitions: int = 0

    def count(
        self, nodes: int, pruned: int, memo_pruned: int, candidates_pruned: int, leaves_rejected: int
    ) -> None:
        self.nodes += nodes
        self.pruned += pruned
        self.memo_pruned += memo_pruned
        self.candidates_pruned += candidates_pruned
        self.leaves_rejected += leaves_rejected

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exhaustive search.

    ``found`` carries the first satisfying allocation (and partition for
    variable groups). Otherwise ``examined`` is the number of admissible
    candidates that were all checked and rejected. ``stats`` reports how
    the search went; it takes no part in equality.
    """

    found: bool
    allocation: Allocation | None = None
    partition: AgentPartition | None = None
    examined: int | None = None
    stats: SearchStats | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out: dict = {"outcome": "found" if self.found else "exhausted-none"}
        if self.allocation is not None:
            out["allocation"] = [list(g) for g in self.allocation.goods_lists()]
        if self.partition is not None:
            out["partition"] = [list(g) for g in self.partition.groups_lists()]
        if self.examined is not None:
            out["examined"] = self.examined
        if self.stats is not None:
            out["stats"] = self.stats.to_dict()
        return out


# ---------------------------------------------------------------------------
# candidate spaces


def balanced_size_vectors(total: int, k: int) -> list[tuple[int, ...]]:
    """All ordered k-vectors of pairwise-within-one sizes summing to total."""
    q, r = divmod(total, k)
    base = (q + 1,) * r + (q,) * (k - r)
    return sorted(set(permutations(base)))


def balanced_allocation_count(m: int, k: int) -> int:
    """Number of allocations of m goods to k groups with balanced bundles."""
    return _balanced_completions((0,) * k, m)


def _balanced_completions(sizes: Sequence[int], free: int) -> int:
    """Ways to hand ``free`` more goods to bundles of these sizes so that
    the bundles end balanced."""
    k = len(sizes)
    q, r = divmod(sum(sizes) + free, k)
    total = 0
    for tall in combinations(range(k), r):
        owed = [q + (j in tall) - s for j, s in enumerate(sizes)]
        if min(owed) >= 0:
            total += _multinomial(free, owed)
    return total


def _multinomial(n: int, sizes: Sequence[int]) -> int:
    out = 1
    left = n
    for s in sizes:
        out *= math.comb(left, s)
        left -= s
    return out


def _assignments(ids: tuple[int, ...], sizes: Sequence[int], n: int) -> Iterator[tuple[int, ...]]:
    """Assignment tuples (agent -> group) for all partitions with the given
    sizes, ordered by the groups' sorted member lists."""
    gof = [0] * n

    def rec(pool: tuple[int, ...], gi: int) -> Iterator[tuple[int, ...]]:
        if gi == len(sizes):
            yield tuple(gof)
            return
        for chosen in combinations(pool, sizes[gi]):
            for a in chosen:
                gof[a] = gi
            rest = tuple(a for a in pool if a not in chosen)
            yield from rec(rest, gi + 1)

    yield from rec(ids, 0)


def _partition_plan(inst: Instance, cons: SearchConstraints) -> tuple[int, Iterator, bool]:
    """Number of partitions, an iterator of assignment tuples (the declared
    one for fixed groups), and whether partitions are part of the answer."""
    if isinstance(inst.groups, FixedGroups):
        if cons.balanced_partition:
            raise ValueError("balanced_partition applies to variable groups only")
        return 1, iter([inst.assignment]), False
    groups: VariableGroups = inst.groups
    n = inst.n
    if cons.balanced_partition:
        vectors = balanced_size_vectors(n, inst.k)
    else:
        vectors = [groups.sizes]
    total = sum(_multinomial(n, vec) for vec in vectors)
    ids = tuple(range(n))

    def gen() -> Iterator[tuple[int, ...]]:
        for vec in vectors:
            yield from _assignments(ids, vec, n)

    return total, gen(), True


def _checkers(inst: Instance, gof: Sequence[int]) -> tuple[list[int], list[tuple[int, ...]], list]:
    """Additive and binary agents collapsed by (per-good values, group), as
    parallel lists of groups and values; table agents as (valuation, group)."""
    seen: dict[tuple[tuple[int, ...], int], None] = {}
    tables = []
    for a, v in enumerate(inst.agents):
        if v.kind == TABLE:
            tables.append((v, gof[a]))
        else:
            seen.setdefault((v.values, gof[a]), None)
    return [own for _w, own in seen], [w for w, _own in seen], tables


def _leaves_in(sizes: list[int], free: int, balanced: bool, counts: dict) -> int:
    """Admissible leaves under the node whose bundles have ``sizes`` and
    whose goods 0..free-1 are unplaced; balanced counts are cached in
    ``counts`` by sizes."""
    if not balanced:
        return len(sizes) ** free
    key = tuple(sizes)
    if key not in counts:
        counts[key] = _balanced_completions(key, free)
    return counts[key]


def _tables_reject(tables: list, leaf: tuple[int, ...], notion: Notion) -> bool:
    """Whether some table agent rejects the leaf's bundles: PROP through
    :func:`fairness.rejected_bundle`, the envy notions through
    :func:`fairness.table_accepts` on the bare tuple (with k > 1 only EF and
    EFc reach here, and c is 0 for EF)."""
    if notion.kind == "prop":
        return any(rejected_bundle(v, leaf, own, notion) is not None for v, own in tables)
    c = notion.c
    for v, own in tables:
        table = v.table
        mine = table[leaf[own]]
        for j, other in enumerate(leaf):
            if j != own and not table_accepts(table, mine, other, c):
                return True
    return False


class _Removals:
    """The removal states of a bundle under a removal notion, numbered.

    A state is what :func:`fairness.removable_values` keeps of a bundle;
    state 0 is the empty bundle's. ``after[s]`` maps the value of a good
    joining a bundle in state s to the new state, filled in on first use,
    and ``allowance[s]`` is the sum the notion removes in state s.
    """

    def __init__(self, notion: Notion):
        self.notion = notion
        self.kept: list[tuple[int, ...]] = [()]
        self.number = {(): 0}
        self.after: list[dict[int, int]] = [{}]
        self.allowance = [0]

    def step(self, s: int, x: int) -> int:
        kept = removable_values(self.notion, (*self.kept[s], x))
        t = self.number.setdefault(kept, len(self.kept))
        if t == len(self.kept):
            self.kept.append(kept)
            self.after.append({})
            self.allowance.append(sum(kept))
        self.after[s][x] = t
        return t


def _hits(
    inst: Instance,
    gof: Sequence[int],
    notion: Notion,
    balanced: bool,
    stats: SearchStats,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Satisfying ``(index, bundles)`` of the partition ``gof``, in order.

    Walks the allocation tree depth first (see the module docstring); the
    node, pruning and leaf counts are added to ``stats``.
    """
    m, k = inst.m, inst.k
    kind = notion.kind
    ef = kind == "ef"
    removal = kind in ("efc", "efx", "efx0")
    owns, worths, tables = _checkers(inst, gof)
    if tables and k > 1 and kind in ("efx", "efx0"):
        raise UnsupportedNotionError(f"{notion} is not defined for table valuations")
    if m == 0:
        leaf = (0,) * k
        if _tables_reject(tables, leaf, notion):
            stats.leaves_rejected += 1
        else:
            yield 0, leaf
        return
    # Running numbers of checker c: avail[c] is its own bundle plus every
    # unplaced good, needs[c][j] what bundle j is worth to it after the
    # notion's removals (for prop, the 1/k share; -1 marks its own bundle).
    # It rejects the node when avail[c] < max(needs[c]). For removal
    # notions held[c][j] is bundle j's value and kept[c][j] its removal
    # state, so needs[c][j] = held[c][j] - allowance[kept[c][j]].
    totals = [sum(w) for w in worths]
    avail = totals[:]
    if kind == "prop":
        needs = [[-(-t // k)] * k for t in totals]
    else:
        needs = [[-1 if j == own else 0 for j in range(k)] for own in owns]
    held = [[0] * k for _ in owns]
    kept = [[0] * k for _ in owns]
    removals = _Removals(notion)
    after, allowance = removals.after, removals.allowance
    # The failure memo's key packs those numbers into one int of bit
    # fields: per checker its deficit total - avail (prop) or, per other
    # bundle, its need (ef) or held value and removal state (removal
    # notions); above them the bundle sizes (balanced mode only) and on top
    # the level g. A checker is finished once every good it values is
    # placed: it passed at that node and nothing below moves it, so it takes
    # no part in any verdict below. Checkers are laid out in the order they
    # finish, so at level g the memo reads key >> finished[g]. spots[c][j]
    # is the place of checker c's number for bundle j.
    efx0 = kind == "efx0"
    valued = [range(m) if efx0 else list(compress(range(m), w)) for w in worths]
    lowest = [goods[0] if goods else m for goods in valued]
    widths = [t.bit_length() for t in totals]
    state_bits = 0
    if removal:
        budget = max(notion.c, 1)
        state_bits = (math.comb(len({x for w in worths for x in w}) + budget, budget) - 1).bit_length()
    spots = [[0] * k for _ in owns]
    finished = [0] * (m + 1)
    bit = 0
    for c in sorted(range(len(owns)), key=lowest.__getitem__, reverse=True):
        if kind == "prop":  # one deficit, whichever bundle the good joins
            spots[c] = [1 << bit] * k
            bit += widths[c]
        else:
            for j in range(k):
                if j != owns[c]:
                    spots[c][j] = 1 << bit
                    bit += widths[c] + state_bits
        finished[lowest[c]] = bit
    for g in range(m - 1, -1, -1):
        finished[g] = max(finished[g], finished[g + 1])
    size_spots = [0] * k
    if balanced:
        for j in range(k):
            size_spots[j] = 1 << bit
            bit += m.bit_length()
    level = 1 << bit
    # Placing good g in bundle b moves only the numbers of checkers outside
    # b that value g (or all of them for efx0, where worthless goods count);
    # shift[g][b] is what it adds to the key besides removal states.
    touch: list[list[list]] = [[[] for _ in range(k)] for _ in range(m)]
    shift = [[size_spots[j] - level for j in range(k)] for _ in range(m)]
    for c, w in enumerate(worths):
        row = spots[c]
        for g in valued[c]:
            x = w[g]
            for j in range(k):
                if j != owns[c]:
                    tail = (held[c], kept[c], row[j] << widths[c])  # removal notions only
                    touch[g][j].append((c, x, needs[c], tail))
                    shift[g][j] += x * row[j]
    width = [k**g for g in range(m + 1)]
    q, r = divmod(m, k)
    tallest = q + (r > 0)
    owed = q * k  # goods still needed to bring every bundle up to q
    bundles = [0] * k
    sizes = [0] * k
    path = [0] * m
    replaced: list = [None] * m
    counts: dict = {}
    # above[g] is the key of the node whose children place good g, and
    # marks[g] what the memo knows that node by. The memo works at levels
    # g >= low, never below 2: a subtree of k leaves is walked faster than
    # looked up. A node whose subtree was walked from its first leaf on and
    # held no hit goes into refuted while room[g] lasts: each level records
    # at most k**ceil(m/2) keys, as many as the middle level of the tree has
    # nodes, and only looks up once full. When level low has filled up
    # without a single recall (recalled_at), it is not looked up either and
    # low moves up. The low levels hold most of the nodes, so a scan the
    # memo cannot shorten soon builds keys only on the few upper nodes.
    # Below a table agent's verdict the key says nothing, so a scan with
    # table agents records none.
    above = [0] * m
    above[m - 1] = level * m
    marks = [0] * m
    refuted: set[int] = set()
    room = [0] * m if tables else [0, 0] + [k ** ((m + 1) // 2)] * (m - 2)
    recalled_at = [False] * m
    low = m if tables else 2
    floor = -1  # the last hit: no recorded subtree may hold a leaf at or before it
    turn = 0  # what removal states add to the key; 0 for the other notions
    nodes = pruned = recalled = cut = rejected = 0
    g, b, base = m - 1, 0, 0
    while True:
        if b < k:
            s = sizes[b]
            if balanced and (s >= tallest or (s >= q and owed > g)):
                b += 1
                continue
            lo = base + b * width[g]
            nodes += 1
            bundles[b] |= 1 << g
            sizes[b] = s + 1
            if s < q:
                owed -= 1
            moved = touch[g][b]
            if removal:
                replaced[g] = [t[3][1][b] for t in moved]
                turn = 0
            ok = True
            for c, x, need, tail in moved:
                a = avail[c] = avail[c] - x
                if ef:
                    need[b] += x
                elif removal:
                    held_c, kept_c, spot = tail
                    was = kept_c[b]
                    now = after[was].get(x)
                    if now is None:
                        now = removals.step(was, x)
                    kept_c[b] = now
                    h = held_c[b] = held_c[b] + x
                    need[b] = h - allowance[now]
                    turn += (now - was) * spot
                if a < max(need):
                    ok = False
            if ok and g:
                if g >= low:
                    key = above[g] + shift[g][b] + turn
                    mark = key >> finished[g]
                    if mark in refuted:
                        pruned += 1
                        recalled += 1
                        recalled_at[g] = True
                        cut += _leaves_in(sizes, g, balanced, counts)
                        ok = False
                    else:
                        marks[g] = mark
                        above[g - 1] = key
                if ok:
                    path[g] = b
                    base = lo
                    g -= 1
                    b = 0
                    continue
            elif ok:
                leaf = tuple(bundles)
                if tables and _tables_reject(tables, leaf, notion):
                    rejected += 1
                else:
                    stats.count(nodes, pruned, recalled, cut, rejected)
                    nodes = pruned = recalled = cut = rejected = 0
                    floor = lo
                    yield lo, leaf
            elif g:
                pruned += 1
                cut += _leaves_in(sizes, g, balanced, counts)
            else:
                rejected += 1
        else:
            g += 1
            if g == m:
                break
            # the node that placed good g is done and base is its first leaf
            if room[g] and floor < base:
                refuted.add(marks[g])
                room[g] -= 1
                while low < m and not room[low] and not recalled_at[low]:
                    low += 1
            b = path[g]
            base -= b * width[g]
        # take good g back out of bundle b
        bundles[b] ^= 1 << g
        s = sizes[b] = sizes[b] - 1
        if s < q:
            owed += 1
        moved = touch[g][b]
        for c, x, need, _tail in moved:
            avail[c] += x
            if ef:
                need[b] -= x
        if removal:
            for (c, x, need, (held_c, kept_c, _spot)), was in zip(moved, replaced[g]):
                held_c[b] -= x
                kept_c[b] = was
                need[b] = held_c[b] - allowance[was]
        b += 1
    stats.count(nodes, pruned, recalled, cut, rejected)


def _guard(inst: Instance, partitions: int) -> int:
    if inst.m > MAX_TABLE_GOODS:
        raise SearchSpaceTooLargeError(
            f"{inst.m} goods exceed the enumeration cap of {MAX_TABLE_GOODS}", bound=inst.m
        )
    span = partitions * inst.k ** inst.m
    if span > SCAN_GUARD:
        raise SearchSpaceTooLargeError(
            f"search space of {span} candidates exceeds the guard of {SCAN_GUARD}", bound=span
        )
    return inst.k ** inst.m


def find_fair(inst: Instance, cons: SearchConstraints, jobs: int = 1) -> Certificate:
    """Decide existence by walking every admissible candidate.

    Returns the first satisfying (partition, allocation) in canonical order,
    or a certified exhaustion whose ``examined`` equals the number of
    admissible candidates. Raises :class:`SearchSpaceTooLargeError` when the
    scan would exceed the guard. ``jobs`` is accepted and ignored: every
    scan runs in this process.
    """
    num_parts, assignments, with_partition = _partition_plan(inst, cons)
    span = _guard(inst, num_parts)
    per_partition = (
        balanced_allocation_count(inst.m, inst.k) if cons.balanced_allocation else span
    )
    stats = SearchStats()
    for gof in assignments:
        stats.partitions += 1
        hit = next(_hits(inst, gof, cons.notion, cons.balanced_allocation, stats), None)
        if hit is not None:
            part = AgentPartition(tuple(gof), inst.k) if with_partition else None
            return Certificate(True, allocation=Allocation(hit[1]), partition=part, stats=stats)
    return Certificate(False, examined=num_parts * per_partition, stats=stats)


def enumerate_fair(
    inst: Instance, cons: SearchConstraints
) -> Iterator[tuple[AgentPartition | None, Allocation]]:
    """Yield every admissible satisfying (partition, allocation) in order."""
    num_parts, assignments, with_partition = _partition_plan(inst, cons)
    _guard(inst, num_parts)
    for gof in assignments:
        part = AgentPartition(tuple(gof), inst.k) if with_partition else None
        hits = _hits(inst, gof, cons.notion, cons.balanced_allocation, SearchStats())
        for _idx, bundles in hits:
            yield part, Allocation(bundles)


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusEntry:
    """A known existence/non-existence fact with its search constraints."""

    name: str
    summary: str
    instance: Instance
    constraints: SearchConstraints
    expect_found: bool
    expected_examined: int | None = None
    extra_check: Callable[[Instance], str | None] | None = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class CorpusResult:
    name: str
    passed: bool
    detail: str
    certificate: Certificate | None
    elapsed: float

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 6),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _subset_desirers(m: int, size: int) -> list[Valuation]:
    return [
        Valuation.binary_from_desired(m, c) for c in combinations(range(m), size)
    ]


def _no_ef1_six_one() -> Instance:
    # one agent per pair of the four goods, versus a singleton desiring all
    agents = _subset_desirers(4, 2) + [Valuation.binary([1, 1, 1, 1])]
    return Instance.fixed(4, agents, [[0, 1, 2, 3, 4, 5], [6]])


def _no_ef1_four_two() -> Instance:
    g1 = [
        Valuation.binary([1, 0, 1, 0]),
        Valuation.binary([1, 0, 0, 1]),
        Valuation.binary([0, 1, 1, 0]),
        Valuation.binary([0, 1, 0, 1]),
    ]
    g2 = [Valuation.binary([1, 1, 0, 0]), Valuation.binary([0, 0, 1, 1])]
    return Instance.fixed(4, g1 + g2, [[0, 1, 2, 3], [4, 5]])


def _no_efc_equal(c: int) -> Instance:
    # 2c+1 goods; one agent in each group per (c+1)-subset
    m = 2 * c + 1
    side = _subset_desirers(m, c + 1)
    agents = side + side
    half = len(side)
    return Instance.fixed(m, agents, [list(range(half)), list(range(half, 2 * half))])


def _no_efx0_two_one() -> Instance:
    agents = [
        Valuation.binary([1, 1, 1, 0, 0, 0]),
        Valuation.binary([0, 0, 0, 1, 1, 1]),
        Valuation.binary([1, 1, 1, 1, 1, 1]),
    ]
    return Instance.fixed(6, agents, [[0, 1], [2]])


def _no_balanced_ef1_five_one() -> Instance:
    g1 = [
        Valuation.binary([1, 1, 0, 0]),
        Valuation.binary([1, 0, 1, 0]),
        Valuation.binary([1, 0, 0, 1]),
        Valuation.binary([0, 1, 1, 0]),
        Valuation.binary([0, 1, 0, 1]),
    ]
    g2 = [Valuation.binary([1, 1, 0, 0])]
    return Instance.fixed(4, g1 + g2, [[0, 1, 2, 3, 4], [5]])


def _no_efx_additive_two_one() -> Instance:
    agents = [
        Valuation.additive([3, 1, 1, 1]),
        Valuation.additive([1, 3, 1, 1]),
        Valuation.additive([3, 3, 1, 1]),
    ]
    return Instance.fixed(4, agents, [[0, 1], [2]])


def _no_efx_balanced_agents() -> Instance:
    agents = [
        Valuation.additive([3, 1, 1]),
        Valuation.additive([3, 1, 1]),
        Valuation.additive([1, 3, 1]),
        Valuation.additive([1, 3, 1]),
        Valuation.additive([1, 1, 3]),
        Valuation.additive([1, 1, 3]),
    ]
    return Instance.variable(3, agents, [3, 3])


def _efx_individual_balanced(m: int) -> Instance:
    vals = [m] + [1] * (m - 1)
    v = Valuation.additive(vals)
    return Instance.fixed(m, [v, v], [[0], [1]])


def _singleton_bundle_check(inst: Instance) -> str | None:
    # every EFX allocation must hand some group exactly one good
    found_any = False
    for _part, alloc in enumerate_fair(inst, SearchConstraints(EFX)):
        found_any = True
        if 1 not in alloc.sizes():
            return f"EFX allocation {alloc.goods_lists()} has no singleton bundle"
    if not found_any:
        return "no EFX allocation exists at all"
    return None


def corpus() -> list[CorpusEntry]:
    """The built-in list of certified existence facts."""
    entries = [
        CorpusEntry(
            "binary-6-1",
            "six pair-desiring agents vs one who wants all four goods: no EF1",
            _no_ef1_six_one(),
            SearchConstraints(EF1),
            expect_found=False,
            expected_examined=16,
        ),
        CorpusEntry(
            "binary-4-2",
            "four vs two binary agents on four goods: no EF1",
            _no_ef1_four_two(),
            SearchConstraints(EF1),
            expect_found=False,
            expected_examined=16,
        ),
        CorpusEntry(
            "efc-equal-c1",
            "both groups hold one agent per pair of three goods: no EF1",
            _no_efc_equal(1),
            SearchConstraints(EF1),
            expect_found=False,
            expected_examined=8,
        ),
        CorpusEntry(
            "efc-equal-c2",
            "both groups hold one agent per triple of five goods: no EF2",
            _no_efc_equal(2),
            SearchConstraints(EF2),
            expect_found=False,
            expected_examined=32,
        ),
        CorpusEntry(
            "efx0-2-1",
            "two complementary agents vs one who wants all six goods: no EFX0",
            _no_efx0_two_one(),
            SearchConstraints(EFX0),
            expect_found=False,
            expected_examined=64,
        ),
        CorpusEntry(
            "binary-balanced-5-1",
            "five pair-desiring agents vs one: no balanced EF1",
            _no_balanced_ef1_five_one(),
            SearchConstraints(EF1, balanced_allocation=True),
            expect_found=False,
            expected_examined=6,
        ),
        CorpusEntry(
            "binary-balanced-5-1-free",
            "same instance without the balance requirement: EF1 exists",
            _no_balanced_ef1_five_one(),
            SearchConstraints(EF1),
            expect_found=True,
        ),
        CorpusEntry(
            "additive-efx-2-1",
            "two additive agents vs one on four goods: no EFX",
            _no_efx_additive_two_one(),
            SearchConstraints(EFX),
            expect_found=False,
            expected_examined=16,
        ),
        CorpusEntry(
            "efx-balanced-agents",
            "six additive agents, three goods: no balanced partition with EFX",
            _no_efx_balanced_agents(),
            SearchConstraints(EFX, balanced_partition=True),
            expect_found=False,
            expected_examined=160,
        ),
    ]
    for m in range(3, 9):
        entries.append(
            CorpusEntry(
                f"efx-balanced-individual-m{m}",
                f"two identical agents, {m} goods: every EFX allocation has a"
                " singleton bundle",
                _efx_individual_balanced(m),
                SearchConstraints(EFX),
                expect_found=True,
                extra_check=_singleton_bundle_check,
            )
        )
    return entries


def run_corpus_entry(entry: CorpusEntry) -> CorpusResult:
    """Run one corpus entry in-process and compare against its expected outcome."""
    t0 = time.perf_counter()
    cert = find_fair(entry.instance, entry.constraints)
    problems = []
    if cert.found != entry.expect_found:
        problems.append(
            f"expected {'found' if entry.expect_found else 'exhausted-none'},"
            f" got {'found' if cert.found else 'exhausted-none'}"
        )
    if cert.found:
        report = is_fair(
            entry.instance, cert.allocation, entry.constraints.notion, partition=cert.partition
        )
        if not report.overall:
            problems.append("found allocation fails re-verification")
    if entry.expected_examined is not None and cert.examined != entry.expected_examined:
        problems.append(f"examined {cert.examined}, expected {entry.expected_examined}")
    if entry.extra_check is not None:
        msg = entry.extra_check(entry.instance)
        if msg is not None:
            problems.append(msg)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(problems) if problems else "as expected"
    return CorpusResult(entry.name, not problems, detail, cert, elapsed)
