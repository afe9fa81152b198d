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

The walk stops at level L and decides the last L goods of every node
there in one step, a leaf block (meet in the middle: Horowitz and Sahni,
JACM 1974; Schroeppel and Shamir, SIAM J. Comput. 1981). The k**L
placements of goods 0..L-1 are the same under every such node, and
placement x is leaf ``base + x``. Once per ``find_fair`` or
``enumerate_fair`` call, shared by its partitions, a table per checker key
sorts the placements by the key (for EF the checker's block value of its
own bundle less that of a rival) and keeps, per distinct value, the mask of
the placements at or above it. At a block node each rule turns the
checker's running numbers into one threshold: one bisection, one mask. The
masks of all checkers, ANDed with the placements that keep balanced
bundles in balanced mode, hold exactly the block's hits, so the lowest set
bit is the first hit in canonical order and the popcount of the rest gives
the rejected leaves; a block where one checker's threshold admits no
admissible placement counts as a cut. The rules, each proved in
:func:`_block_rules`, cover EF, PROP and EF1 for k bundles; EFc with c >= 2,
EFX, EFX0 and scans with table agents take L = 0, which is the walk to the
leaves. :func:`_block_goods` picks L. ``SearchStats.blocks`` counts the
blocks decided.

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
It works only on the levels at or above L, and never on nodes with fewer
than two goods unplaced (smaller subtrees are walked faster than looked
up); each level of the tree records at most k**ceil(m/2) nodes, one int
each: at most about m * sqrt(k**m) ints for k**m leaves (some 41,000 for
2**22). A full level still looks up, unless it filled without a single
recall: the lowest such levels, which hold most of the nodes, stop
building keys, so a scan the memo cannot shorten runs close to the speed
of one without it. ``SearchStats.memo_pruned`` counts its cuts, which are
part of ``pruned``; their candidates count in ``candidates_pruned``, so
``examined`` and the first hit do not change.

With variable groups the search also ranges over agent partitions, and
many of them repeat a question already answered. Lemma: the hits of a
partition depend only on the set of (valuation, group) pairs it makes,
besides the notion, k and the balance flags, because every agent of a
group judges the same bundles and equal pairs judge them alike (which is
why :func:`_checkers` merges them). Relabelling the groups by a
permutation p and moving bundle j to p(j) with them maps one partition's
candidates one to one onto those of the relabelled partition, hits onto
hits; bundle sizes are only permuted, so balanced candidates stay
balanced. So a partition's orbit key, per group the set of its members'
valuations, sorted so that relabelling does not change it, decides
whether it has a hit; with declared sizes each set is paired with its
group's size, so that only groups of equal size trade places, as in the
declared plan. A partition whose key an earlier scan refuted is not
walked: it counts as one cut of all its candidates (``pruned``,
``candidates_pruned``), so ``examined`` stays partitions times the
candidates of one. The first hit does not move, since every key before it
was refuted, and ``enumerate_fair`` walks every partition whose key had a
hit in full, so it yields the same pairs. ``SearchStats.scans`` counts the
partitions walked (orbit pruning: McKay, J. Algorithms 1998).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, permutations
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
    ``pruned``. ``blocks`` counts the leaf blocks decided in one step; their
    leaves count as rejected, or as cut when one checker admits none, and
    the nodes below them are not visited, so a scan with ``blocks`` > 0
    took the block path. On an exhausted search ``leaves_rejected +
    candidates_pruned == examined`` still holds. ``partitions`` counts the
    agent partitions covered and ``scans`` those walked; the others shared
    the orbit key of a partition refuted before and count as one cut each.
    """

    nodes: int = 0
    pruned: int = 0
    memo_pruned: int = 0
    candidates_pruned: int = 0
    leaves_rejected: int = 0
    blocks: int = 0
    partitions: int = 0
    scans: int = 0

    def count(
        self,
        nodes: int,
        pruned: int,
        memo_pruned: int,
        candidates_pruned: int,
        leaves_rejected: int,
        blocks: int,
    ) -> None:
        self.nodes += nodes
        self.pruned += pruned
        self.memo_pruned += memo_pruned
        self.candidates_pruned += candidates_pruned
        self.leaves_rejected += leaves_rejected
        self.blocks += blocks

    def to_dict(self) -> dict:
        return dict(vars(self))


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
    sizes, ordered by the groups' sorted member lists. The last group takes
    whoever is left, so agents wait there until an earlier group takes them."""
    last = len(sizes) - 1
    gof = [last] * n

    def rec(pool: tuple[int, ...], gi: int) -> Iterator[tuple[int, ...]]:
        for chosen in combinations(pool, sizes[gi]):
            for a in chosen:
                gof[a] = gi
            if gi == last - 1:
                yield tuple(gof)
            else:
                yield from rec(tuple([a for a in pool if a not in chosen]), gi + 1)
            for a in chosen:
                gof[a] = last

    if last:
        yield from rec(ids, 0)
    else:
        yield tuple(gof)


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
    return total, chain.from_iterable(_assignments(ids, vec, n) for vec in vectors), True


def _orbit_keys(inst: Instance, cons: SearchConstraints) -> list[tuple]:
    """The orbit key of each partition of a variable-group plan, in plan
    order (see the module docstring): per group the set of its members'
    valuations as a mask of valuation ids, sorted, and paired with the
    group's size under declared sizes. Equal keys are one object."""
    ids: dict = {}
    bits = []
    for v in inst.agents:
        key = (True, v.table) if v.kind == TABLE else (False, v.values)
        bits.append(1 << ids.setdefault(key, len(ids)))
    k = inst.k
    sizes = None if cons.balanced_partition else inst.groups.sizes
    keys: dict = {}
    out = []
    for gof in _partition_plan(inst, cons)[1]:
        sets = [0] * k
        for bit, g in zip(bits, gof):
            sets[g] |= bit
        key = tuple(sorted(sets if sizes is None else zip(sizes, sets)))
        out.append(keys.setdefault(key, key))
    return out


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


# What the leaf-block tables of one call may hold, in mask bits (1 MB), and
# the grouping steps building them may take: 0.1 to 0.8 ms, less than the
# scans they shorten take. Below that the exhaust plans slow down.
_BLOCK_BITS = 1 << 23
_BLOCK_STEPS = 1 << 11


def _block_goods(m: int, k: int, keys: list[tuple[tuple[int, ...], int, bool]], scans: int) -> int:
    """How many of the lowest goods a scan decides per leaf block (0: none),
    when ``scans`` scans of k**m candidates share the tables of ``keys``.

    At most 2**10 candidates in all are walked faster than tables are built,
    so they take no block. Otherwise the block leaves the fewest goods above
    it that still make 16 or more block nodes in all, so that every table
    serves many blocks, and shrinks until building the tables takes at most
    ``_BLOCK_STEPS`` steps and they hold at most ``_BLOCK_BITS`` bits. A key
    ``(values, scale, topped)`` takes at most scale * T + 1 distinct values
    over goods whose values sum to T, times g + 1 when it also records the
    largest of the g goods (``topped``), and never more than its k**g
    placements; building its table over L goods steps k times through the
    values of each shorter prefix, and each value keeps a mask of k**L bits.
    """
    if scans * k**m <= 1 << 10:
        return 0
    goods = m - 1
    while scans * k ** (m - goods) < 16:
        goods -= 1
    steps = [0] * (goods + 1)
    bits = [0] * (goods + 1)
    for values, scale, topped in keys:
        states, spent, total = 1, 0, 0
        for g in range(1, goods + 1):
            spent += k * states
            total += values[g - 1]
            states = min(k * states, (scale * total + 1) * (g + 1 if topped else 1))
            steps[g] += spent
            bits[g] += states * k**g
    while goods and (steps[goods] > _BLOCK_STEPS or bits[goods] > _BLOCK_BITS):
        goods -= 1
    return goods


class _Blocks:
    """The leaf-block tables of one ``find_fair`` or ``enumerate_fair`` call,
    shared by the scans of its partitions.

    A table orders the k**L placements of goods 0..L-1 by a key: ``vals``
    holds the distinct key values in ascending order and ``above[i]`` the
    mask of the placements whose key is at least ``vals[i]`` (``above`` ends
    with 0). Bit x stands for placement x, which puts good g in bundle
    ``x // k**g % k``. Once the tables hold more than ``_BLOCK_BITS`` bits
    the cache starts over; a scan keeps the tables it took. ``scans`` is
    the number of partitions whose scans share the tables.
    """

    def __init__(self, k: int, scans: int):
        self.k = k
        self.scans = scans
        self.tables: dict = {}
        self.bits = 0

    def _table(self, key: tuple, groups: dict) -> tuple[list[int], list[int]]:
        vals = sorted(groups)
        above = [0] * (len(vals) + 1)
        for i in range(len(vals) - 1, -1, -1):
            above[i] = above[i + 1] | groups[vals[i]]
        bits = sum(a.bit_length() for a in above)
        if self.bits + bits > _BLOCK_BITS:
            self.tables.clear()
            self.bits = 0
        self.tables[key] = vals, above
        self.bits += bits
        return vals, above

    def _sums(self, values: tuple[int, ...], coef: tuple[int, ...]) -> dict:
        """Placement masks by the key sum over g of values[g] * coef[bundle
        of g]: good by good, the placements with good g in bundle d are
        those of the goods before it, shifted by d * k**g."""
        groups = {0: 1}
        for g, x in enumerate(values):
            shift = self.k**g
            grown: dict = {}
            for d, c in enumerate(coef):
                step = x * c
                by = d * shift
                for s, mask in groups.items():
                    s += step
                    grown[s] = grown.get(s, 0) | mask << by
            groups = grown
        return groups

    def linear(self, values: tuple[int, ...], coef: tuple[int, ...]):
        """The table of the key sum over g of values[g] * coef[bundle of g]."""
        key = (values, coef)
        if key not in self.tables:
            return self._table(key, self._sums(values, coef))
        return self.tables[key]

    def envy_up_to_one(self, values: tuple[int, ...], own: int, rival: int):
        """The table of S_own - S_rival plus the largest value in the
        rival's share of the block (0 if none). Goods are added in ascending
        value, so a good joining the rival's share is its largest so far."""
        key = ("E", values, own, rival)
        if key not in self.tables:
            groups = {(0, 0): 1}
            for g in sorted(range(len(values)), key=values.__getitem__):
                x = values[g]
                shift = self.k**g
                grown: dict = {}
                for (diff, top), mask in groups.items():
                    for d in range(self.k):
                        if d == own:
                            state = diff + x, top
                        else:
                            state = (diff - x, x) if d == rival else (diff, top)
                        grown[state] = grown.get(state, 0) | mask << d * shift
                groups = grown
            keys: dict = {}
            for (diff, top), mask in groups.items():
                keys[diff + top] = keys.get(diff + top, 0) | mask
            return self._table(key, keys)
        return self.tables[key]

    def fits(self, goods: int, sizes: list[int], q: int, tallest: int) -> int:
        """Mask of the placements after which every bundle holds q to
        ``tallest`` goods, for a node with these bundle sizes."""
        key = ("fits", goods, tuple(sizes))
        mask = self.tables.get(key)
        if mask is None:
            k = self.k
            counts = self.tables.get(("counts", goods))
            if counts is None:
                unit = (0, *((goods + 1) ** d for d in range(k - 1)))
                counts = self.tables["counts", goods] = self._sums((1,) * goods, unit)
            mask = 0
            for code, group in counts.items():
                placed = [(code // (goods + 1) ** d) % (goods + 1) for d in range(k - 1)]
                ends = [sizes[0] + goods - sum(placed)] + [s + p for s, p in zip(sizes[1:], placed)]
                if q <= min(ends) and max(ends) <= tallest:
                    mask |= group
            self.tables[key] = mask
        return mask


def _block_rules(
    blocks: _Blocks,
    block: int,
    notion: Notion,
    owns: list[int],
    worths: list[tuple[int, ...]],
    binary: list[bool],
    needs: list[list[int]],
    held: list[list[int]],
    kept: list[list[int]],
) -> list[tuple]:
    """The rules that decide a leaf block of goods 0..L-1 (L = ``block``).

    One rule per checker that values a block good and per rival bundle j
    (its own bundle for PROP): ``(c, row, j, off, vals, above, mirror,
    up_to_one)``. At a block node, placement x passes it when key(x) >= t,
    t = row[j] - avail[c] + off, read in the sorted table (vals, above) as
    ``above[bisect_left(vals, t)]``; a mirrored rule reads the table of the
    rival against the checker, whose key must stay at most -t. Its checker
    accepts every placement it passes, and only those, by these rules, where
    a is the checker's own bundle without the block (a = avail - T), a_j its
    value of bundle j, S_d(x) the value of the block goods x puts in bundle
    d, T their total and D(x) = S_own(x) - S_j(x):

    - EF: a + S_own(x) >= a_j + S_j(x) iff D(x) >= a_j - a, and
      a_j - a = needs[c][j] - avail[c] + T.
    - EF1, every value 0 or 1: the allowance of a bundle is 1 when it holds
      a valued good. The rule D(x) >= a_j - a - 1 holds exactly when EF1
      does: if bundle j ends with a valued good, EF1 reads a + S_own >=
      a_j + S_j - 1; otherwise a_j = S_j = 0, EF1 holds and so does the
      rule, D(x) = S_own(x) >= 0 > -a - 1. Here a_j = held[c][j].
    - EF1, additive: the allowance is max(Ma, Mb(x)), Ma the largest value
      of the goods of bundle j above the block (allowance[kept[c][j]]) and
      Mb(x) the largest of the block goods x puts there (0 if none). So EF1
      holds iff D(x) >= a_j - a - Ma or D(x) + Mb(x) >= a_j - a: the rule
      reads the second key (``up_to_one``: kept[c] and its table) at t and
      ORs in the D table at t - Ma.
    - PROP: k * (a + S_own(x)) >= total iff S_own(x) >= ceil(total / k) - a,
      and needs[c][j] holds ceil(total / k) for every j.

    For k >= 3 the keys run over the k**L placements the same way. The D
    table of a pair lo < hi holds S_lo - S_hi and serves the checkers of
    both: one in hi needs -D(x) >= t, that is D(x) >= 1 - t fails. A
    checker that values no block good is left out: with nothing unplaced
    that it values, the bound check at the node decided it exactly.
    """
    k = blocks.k
    kind = notion.kind
    rules = []
    for c, w in enumerate(worths):
        values = w[:block]
        if not any(values):
            continue
        own = owns[c]
        off = sum(values)
        if kind == "prop":
            vals, above = blocks.linear(values, tuple(int(d == own) for d in range(k)))
            rules.append((c, needs[c], own, off, vals, above, False, None))
            continue
        for j in range(k):
            if j == own:
                continue
            lo, hi = min(own, j), max(own, j)
            vals, above = blocks.linear(values, tuple(1 if d == lo else -1 if d == hi else 0 for d in range(k)))
            if kind == "ef":
                rules.append((c, needs[c], j, off, vals, above, own > j, None))
            elif binary[c]:
                rules.append((c, held[c], j, off - 1, vals, above, own > j, None))
            else:
                up_to_one = (kept[c], *blocks.envy_up_to_one(values, own, j))
                rules.append((c, held[c], j, off, vals, above, own > j, up_to_one))
    return rules


def _hits(
    inst: Instance,
    gof: Sequence[int],
    notion: Notion,
    balanced: bool,
    stats: SearchStats,
    blocks: _Blocks | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Satisfying ``(index, bundles)`` of the partition ``gof``, in order.

    Walks the allocation tree depth first (see the module docstring); the
    node, pruning and leaf counts are added to ``stats``. ``blocks`` holds
    the leaf-block tables shared by the partitions of one call.
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
    # Leaf blocks: the node that placed good `block` decides goods
    # block-1..0 in one step (see _block_rules), building its rules on the
    # first block it reaches.
    block = 0
    rules = None
    if not tables and (kind in ("ef", "prop") or notion == EF1):
        binary = [max(w, default=0) <= 1 for w in worths]
        keys = {}  # the tables _block_rules will take, as _block_goods sizes them
        for w, own, zero_one in zip(worths, owns, binary):
            if kind == "prop":
                keys[w, own] = w, 1, False
                continue
            for j in range(k):
                if j != own:
                    keys[w, min(own, j), max(own, j)] = w, 2, False
                    if not (ef or zero_one):
                        keys[w, own, j, "top"] = w, 2, True
        if blocks is None:
            blocks = _Blocks(k, 1)
        block = _block_goods(m, k, list(keys.values()), blocks.scans)
        everything = (1 << k**block) - 1
    # above[g] is the key of the node whose children place good g, and
    # marks[g] what the memo knows that node by. The memo works at levels
    # g >= low, never below 2 (a subtree of k leaves is walked faster than
    # looked up) nor below the block level. A node whose subtree was walked
    # from its first leaf on and held no hit goes into refuted while
    # room[g] lasts: each level records
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
    low = m if tables else max(2, block)
    room = [0] * low + [k ** ((m + 1) // 2)] * (m - low)
    recalled_at = [False] * m
    floor = -1  # the last hit: no recorded subtree may hold a leaf at or before it
    turn = 0  # what removal states add to the key; 0 for the other notions
    nodes = pruned = recalled = cut = rejected = decided = 0
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
                    if g >= block:
                        continue
                    # decide the leaf block [lo, lo + k**block) and return
                    decided += 1
                    b = k
                    if rules is None:
                        rules = _block_rules(blocks, block, notion, owns, worths, binary, needs, held, kept)
                    admissible = blocks.fits(block, sizes, q, tallest) if balanced else everything
                    mask = admissible
                    for c, row, j, off, vals, ups, mirror, up_to_one in rules:
                        t = row[j] - avail[c] + off
                        if up_to_one is not None:
                            kept_c, e_vals, e_ups = up_to_one
                            accepts = e_ups[bisect_left(e_vals, t)]
                            t -= allowance[kept_c[j]]
                        else:
                            accepts = 0
                        if mirror:
                            accepts |= everything ^ ups[bisect_left(vals, 1 - t)]
                        else:
                            accepts |= ups[bisect_left(vals, t)]
                        mask &= accepts
                        if not mask:
                            break
                    if not mask:
                        if accepts & admissible:
                            rejected += admissible.bit_count()
                        else:  # one checker admits no admissible placement
                            pruned += 1
                            cut += admissible.bit_count()
                        continue
                    rest = admissible ^ mask
                    while mask:
                        x = (mask & -mask).bit_length() - 1
                        mask ^= 1 << x
                        before = rest & ((1 << x) - 1)
                        rest ^= before
                        rejected += before.bit_count()
                        stats.count(nodes, pruned, recalled, cut, rejected, decided)
                        nodes = pruned = recalled = cut = rejected = decided = 0
                        floor = lo + x
                        leaf = bundles[:]
                        for h in range(block):
                            leaf[x // width[h] % k] |= 1 << h
                        yield lo + x, tuple(leaf)
                    rejected += rest.bit_count()
                    continue
            elif ok:
                leaf = tuple(bundles)
                if tables and _tables_reject(tables, leaf, notion):
                    rejected += 1
                else:
                    stats.count(nodes, pruned, recalled, cut, rejected, decided)
                    nodes = pruned = recalled = cut = rejected = decided = 0
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
    stats.count(nodes, pruned, recalled, cut, rejected, decided)


def _guard(inst: Instance, partitions: int) -> None:
    if inst.m > MAX_TABLE_GOODS:
        raise SearchSpaceTooLargeError(
            f"{inst.m} goods exceed the enumeration cap of {MAX_TABLE_GOODS}", bound=inst.m
        )
    span = partitions * inst.k ** inst.m
    if span > SCAN_GUARD:
        raise SearchSpaceTooLargeError(
            f"search space of {span} candidates exceeds the guard of {SCAN_GUARD}", bound=span
        )


def _per_partition(inst: Instance, cons: SearchConstraints) -> int:
    """Admissible candidates of one partition."""
    if cons.balanced_allocation:
        return balanced_allocation_count(inst.m, inst.k)
    return inst.k**inst.m


def _plan_hits(
    inst: Instance, cons: SearchConstraints, stats: SearchStats
) -> Iterator[tuple[tuple[int, ...] | None, tuple[int, ...]]]:
    """Satisfying ``(assignment, bundles)`` over the partitions of the plan,
    in canonical order; the assignment is None for fixed groups. Raises
    :class:`SearchSpaceTooLargeError` before scanning past the guard.

    A partition whose orbit key an earlier scan refuted is not walked (see
    the module docstring). The keys are computed up front, so the leaf-block
    tables are sized for the scans that can run, not for every partition.
    """
    num_parts, assignments, with_partition = _partition_plan(inst, cons)
    _guard(inst, num_parts)
    notion, balanced = cons.notion, cons.balanced_allocation
    if not with_partition:
        stats.partitions = stats.scans = 1
        for _idx, bundles in _hits(inst, inst.assignment, notion, balanced, stats):
            yield None, bundles
        return
    keys = _orbit_keys(inst, cons)
    blocks = _Blocks(inst.k, len(set(keys)))
    per_partition = _per_partition(inst, cons)
    refuted: set[tuple] = set()
    for gof, key in zip(assignments, keys):
        stats.partitions += 1
        if key in refuted:
            stats.pruned += 1
            stats.candidates_pruned += per_partition
            continue
        stats.scans += 1
        hit = False
        for _idx, bundles in _hits(inst, gof, notion, balanced, stats, blocks):
            hit = True
            yield gof, bundles
        if not hit:
            refuted.add(key)


def find_fair(inst: Instance, cons: SearchConstraints, jobs: int = 1) -> Certificate:
    """Decide existence by walking every admissible candidate.

    Returns the first satisfying (partition, allocation) in canonical order,
    or a certified exhaustion whose ``examined`` equals the number of
    admissible candidates. Raises :class:`SearchSpaceTooLargeError` when the
    scan would exceed the guard. ``jobs`` is accepted and ignored: every
    scan runs in this process.
    """
    stats = SearchStats()
    hit = next(_plan_hits(inst, cons, stats), None)
    if hit is None:
        return Certificate(False, examined=stats.partitions * _per_partition(inst, cons), stats=stats)
    gof, bundles = hit
    part = None if gof is None else AgentPartition(gof, inst.k)
    return Certificate(True, allocation=Allocation(bundles), partition=part, stats=stats)


def enumerate_fair(
    inst: Instance, cons: SearchConstraints
) -> Iterator[tuple[AgentPartition | None, Allocation]]:
    """Yield every admissible satisfying (partition, allocation) in order."""
    for gof, bundles in _plan_hits(inst, cons, SearchStats()):
        yield None if gof is None else AgentPartition(gof, inst.k), Allocation(bundles)


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
