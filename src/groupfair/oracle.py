"""Exhaustive existence oracle, which certifies the built-in impossibility corpus.

The corpus itself, its entries and the runner that checks them, lives in
:mod:`gallery`, so that a search loads none of it.

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
index order. In balanced mode a good only goes where every bundle can
still end with floor(m/k) or ceil(m/k) goods, so only balanced candidates
are generated.

What depends only on the call is decided once, before the first scan, by
the call's plan (:class:`_Plan`): the notion as every scan reads it, which
agents share a valuation (:func:`_sameness`), as ids that the checkers and
the orbit keys below both read, what the notion asks of each additive or
binary valuation (:func:`_valuation_setup`: its total, its slack and
whether the bound is loose for it), the partitions with their orbit keys,
and the leaf-block tables. Agents with the same valuation and group are
one checker. What the notion means for a checker in its group is decided
in one function, :func:`_checker_setup`, once per scan: its running
numbers, its leaf-block rules and the tables they read. The walk reads
them and tests no notion.
Such a checker keeps running numbers as goods are placed and taken back:
``avail``, its own bundle plus every unplaced good, and for each other
bundle its value less the checker's slack, the most the notion can ever
remove from one bundle: 0 for EF, the sum of its c largest values for EFc,
its largest value for EFX and EFX0. A checker rejects a node when
``avail`` falls below one of those, and every leaf below is rejected too:
there its own bundle is worth at most ``avail``, the other bundle at least
as much as at the node, and no removal takes more than the slack. PROP
cuts when ``avail`` is below ceil(total / k). Placing a good moves only
the numbers of checkers outside its bundle that value it, so only those
are checked again; a worthless good moves nothing, under EFX0 too. With
values 0 or 1 the slack of EFc and EFX is exact: the bound rejects a leaf
exactly when the notion does, as it does for EF and PROP; where the slack
is loose, the leaf-block rules below decide the leaves the bound passes.
Table agents are not assumed monotone, so they take no part in the bound:
they judge each leaf the rules pass by :func:`fairness.rejected_bundle`,
the rule of re-verification. The plan settles two more questions: EFX and
EFX0 are refused when a table agent meets more than one bundle, and EFc
with c > m >= 1 reads as EFm, since a bundle holds at most m goods.

Every scan ends in leaf blocks, one decision for every agent kind (meet in
the middle: Horowitz and Sahni, JACM 1974; Schroeppel and Shamir, SIAM J.
Comput. 1981). The node that places good L decides goods L-1..0 in place.
The k**L placements of those goods are the same under every such node, and
placement x, which puts good g in bundle x // k**g % k, is the node's x-th
leaf in index order. Once per ``find_fair`` or ``enumerate_fair`` call,
shared by its partitions, a table per checker key sorts the placements by
the key (for EF the checker's block value of its own bundle less that of a
rival) and keeps, per distinct value, the mask of the placements at or
above it. At a block node each test turns the checker's running numbers
into one threshold: one bisection, one mask. The masks of all checkers,
ANDed with the placements that keep balanced bundles in balanced mode,
hold exactly the placements the additive and binary agents accept. The
table agents judge those lowest first, so the first they all accept is the
first hit in canonical order, and every other admissible placement counts
as a rejected leaf; a block where one rule admits no admissible placement
counts as a cut. The rules, each proved in :func:`_checker_setup`, cover
every notion for additive and binary agents: EF, EFc for every c, EFX,
EFX0 and PROP, for k bundles. :func:`_block_goods` picks L, once per
call for each set of tables the scans read. With L = 0, for scans of at
most 2**10 candidates, the block is the one leaf the node that places good
0 reaches, and a leaf a rule rejects counts as a rejected leaf, not as a
cut, as on a walk to the leaves. ``SearchStats.blocks`` counts the blocks
with L >= 1.

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
valuations, sorted so that relabelling does not change it, decides whether
it has a hit. Group sizes take no part in it: two partitions with equal
keys have equal hits up to the relabelling, whatever the sizes of the
groups that trade places. A fixed-group instance is a plan of one
partition, which computes no key: there is nothing to skip. A partition
whose key an earlier scan refuted is not walked: it counts as one cut of
all its candidates (``pruned``, ``candidates_pruned``), so ``examined``
stays partitions times the candidates of one. The first hit does not
move, since every key before it was refuted, and ``enumerate_fair`` walks
every partition whose key had a hit in full, so it yields the same pairs. ``SearchStats.scans`` counts the
partitions walked (orbit pruning: McKay, J. Algorithms 1998).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, permutations
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import SearchSpaceTooLargeError, UnsupportedNotionError
from .fairness import Notion, SearchConstraints, rejected_bundle, removable_values, up_to
from .model import (
    MAX_TABLE_GOODS,
    TABLE,
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    Valuation,
    VariableGroups,
    iter_bits,
)

# Upper bound on partitions x allocation counters walked in one call.
SCAN_GUARD = 10**8


@dataclass
class SearchStats:
    """What a search did.

    ``nodes`` counts the tree nodes visited (a good placed in a bundle),
    ``pruned`` the subtrees cut by the bound check and ``candidates_pruned``
    the admissible candidates inside them, ``leaves_rejected`` the
    candidates checked in full and rejected. ``blocks`` counts the leaf
    blocks of L >= 1 goods decided at once; their leaves count as rejected,
    or as one cut when one rule admits none, and the nodes below them are
    not visited. A scan with L = 0 decides each leaf as a block of one,
    counts no block and counts a leaf it rejects as rejected, as a walk to
    the leaves would. On an exhausted search ``leaves_rejected +
    candidates_pruned == examined`` still holds. ``partitions`` counts the
    agent partitions covered and ``scans`` those walked; the others shared
    the orbit key of a partition refuted before and count as one cut each.
    """

    nodes: int = 0
    pruned: int = 0
    candidates_pruned: int = 0
    leaves_rejected: int = 0
    blocks: int = 0
    partitions: int = 0
    scans: int = 0

    def count(self, nodes: int, pruned: int, candidates_pruned: int, leaves_rejected: int, blocks: int) -> None:
        self.nodes += nodes
        self.pruned += pruned
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


class _Partitions:
    """The assignment tuples of the partitions of n agents into groups of
    each size vector in turn (:func:`_assignments`). Each iteration walks
    them anew, so a plan is read twice without holding a tuple per
    partition."""

    def __init__(self, n: int, vectors: list):
        self.n, self.vectors = n, vectors

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        ids = tuple(range(self.n))
        return chain.from_iterable(_assignments(ids, vec, self.n) for vec in self.vectors)


def _partition_plan(inst: Instance, cons: SearchConstraints) -> tuple[int, Iterable[tuple[int, ...]], bool]:
    """Number of partitions, their assignment tuples (the declared one for
    fixed groups) as an iterable that can be walked more than once, and
    whether partitions are part of the answer."""
    if isinstance(inst.groups, FixedGroups):
        if cons.balanced_partition:
            raise ValueError("balanced_partition applies to variable groups only")
        return 1, (inst.assignment,), False
    groups: VariableGroups = inst.groups
    n = inst.n
    if cons.balanced_partition:
        vectors = balanced_size_vectors(n, inst.k)
    else:
        vectors = [groups.sizes]
    total = sum(_multinomial(n, vec) for vec in vectors)
    return total, _Partitions(n, vectors), True


def _sameness(v: Valuation) -> tuple:
    """What two agents must share to judge every bundle alike: the table of
    a table agent, the per-good values of any other (binary or additive)."""
    return (True, v.table) if v.kind == TABLE else (False, v.values)


def _valuation_ids(inst: Instance) -> list[int]:
    """Per agent the id of its valuation, equal for agents whose
    :func:`_sameness` is equal, numbered from 0 in order of first agent."""
    ids: dict = {}
    return [ids.setdefault(_sameness(v), len(ids)) for v in inst.agents]


def _orbit_keys(k: int, ids: Sequence[int], assignments: Iterable[tuple[int, ...]]) -> list[tuple]:
    """The orbit key of each partition in ``assignments``, in order (see the
    module docstring): per group the set of its members' valuation ids
    (:func:`_valuation_ids`) as a mask, sorted. Group sizes take no part.
    Equal keys are one object."""
    bits = [1 << i for i in ids]
    keys: dict = {}
    out = []
    for gof in assignments:
        sets = [0] * k
        for bit, g in zip(bits, gof):
            sets[g] |= bit
        key = tuple(sorted(sets))
        out.append(keys.setdefault(key, key))
    return out


def _checkers(plan: "_Plan", gof: Sequence[int]) -> tuple[list[int], list[tuple], list]:
    """Agents collapsed by valuation id (``plan.ids``) and group: additive
    and binary ones as parallel lists of groups and per-good values, table
    ones as (valuation, group)."""
    owns, worths, tables = [], [], []
    for i, own in dict.fromkeys(zip(plan.ids, gof)):
        v = plan.valuations[i]
        if v.kind == TABLE:
            tables.append((v, own))
        else:
            owns.append(own)
            worths.append(v.values)
    return owns, worths, tables


def _lifts(notion: Notion, values: tuple[int, ...], bundle: int) -> tuple:
    """What the lifted block rules read of the goods ``bundle`` holds, by
    :func:`fairness.removable_values`: for EFc the sums of their i largest
    values, i = 0..c; for EFX and EFX0 0 and their least (positive for EFX)
    value, infinite if there is none."""
    kept = removable_values(notion, [values[g] for g in iter_bits(bundle)])
    if notion.kind != "efc":
        return 0, kept[0] if kept else math.inf
    sums = [0, *accumulate(kept)]
    return (*sums, *[sums[-1]] * (notion.c + 1 - len(sums)))


# What the leaf-block tables of one call may hold, in mask bits (1 MB), and
# the grouping steps building them may take: 0.1 to 0.8 ms, less than the
# scans they shorten take. Below that the exhaust plans slow down.
_BLOCK_BITS = 1 << 23
_BLOCK_STEPS = 1 << 11


def _block_goods(m: int, k: int, keys: list[tuple[tuple[int, ...], int, int, bool]], scans: int, judged: bool) -> int:
    """How many of the lowest goods a scan decides per leaf block (0: each
    leaf is a block of its own), when ``scans`` scans of k**m candidates
    share the tables of ``keys`` and, with ``judged``, table agents judge
    the placements the rules pass.

    At most 2**10 candidates in all are walked faster than tables are built,
    so they take L = 0. Otherwise the block leaves the fewest
    goods above it that still make 16 or more block nodes in all, so that
    every table serves many blocks, and shrinks until building the tables
    takes at most ``_BLOCK_STEPS`` steps and they hold at most
    ``_BLOCK_BITS`` bits. A key
    ``(values, scale, top, zeros)`` moves with the valued goods, and with
    every good when ``zeros``. Over goods whose values sum to T it takes at
    most scale * T + 1 sums; an envy table (``top`` > 0) pairs each with at
    most ``top`` of the goods that move it, so with at most as many values
    as there are such picks and at most (top + 1) * (T + 1); and no key takes
    more values than its k**g placements. Building a table over L goods
    steps k times through the values of each shorter prefix for every good
    that moves the key (the others go anywhere at once), and each value
    keeps a mask of k**L bits. Table agents add no key, but they judge the
    placements the rules pass one by one, and each of those costs a few
    operations on masks of k**L bits, where a walk to the leaves spends a
    node: so when they judge, each of the k**L placements counts as a step,
    which keeps those masks at most ``_BLOCK_STEPS`` bits.
    """
    if scans * k**m <= 1 << 10:
        return 0
    goods = m - 1
    while scans * k ** (m - goods) < 16:
        goods -= 1
    steps = [0] * (goods + 1)
    bits = [0] * (goods + 1)
    for values, scale, top, zeros in keys:
        states, spent, total, moving = 1, 0, 0, 0
        for g in range(1, goods + 1):
            x = values[g - 1]
            if x or zeros:
                spent += k * states
                total += x
                moving += 1
                picks = 1
                if top:
                    picks = min(sum(math.comb(moving, i) for i in range(top + 1)), (top + 1) * (total + 1))
                states = min(k * states, (scale * total + 1) * picks)
            steps[g] += spent
            bits[g] += states * k**g
    while goods and (steps[goods] + judged * k**goods > _BLOCK_STEPS or bits[goods] > _BLOCK_BITS):
        goods -= 1
    return goods


def _valuation_setup(notion: Notion, values: tuple[int, ...], k: int) -> tuple[int, int, int, int]:
    """What ``notion`` asks of an additive or binary valuation among k
    bundles, in whatever group it sits (see :func:`_checker_setup`):
    ``(total, mine, other, adjust)``, its total, the entries of its row of
    running numbers at its own bundle and at every other, and its slack
    where the bound is loose for it, else 0."""
    total = sum(values)
    if notion.kind == "prop":
        return total, -(-total // k), -1 - total, 0
    most = max(values, default=0)
    s = most if notion.kind in ("efx", "efx0") else sum(removable_values(notion, values))
    return total, -1, -s, s if notion.kind == "efx0" or most > 1 else 0


class _Plan:
    """What one ``find_fair`` or ``enumerate_fair`` call decides before its
    first scan, and what its scans share: a scan (:func:`_hits`) builds only
    what turns on its group assignment.

    The question: ``m``, ``k``, ``notion`` as every scan reads it (EFc with
    c > m >= 1 is EFm, since a bundle holds at most m goods) and
    ``balanced``. The agents: ``ids``, their valuation ids
    (:func:`_valuation_ids`), ``valuations``, a valuation per id, and
    ``setup``, per additive or binary valuation (by its values) what the
    notion asks of it, by :func:`_valuation_setup`; ``judged`` says whether
    table agents judge placements. The partitions: how many there are
    (``partitions``), their assignment tuples, whether they are part of the
    answer, their orbit keys (``keys``), the scans that can run, one per
    distinct key (``scans``), and the admissible candidates of one
    (``per_partition``). A plan of one partition computes no orbit key:
    there is nothing to skip.

    The leaf-block tables, shared by the scans, and the memos of L
    (:meth:`block_goods`), of the balanced leaves (:meth:`leaves`) and of
    the masks of :meth:`fits` and :meth:`parts`. A table orders the k**L
    placements of goods 0..L-1 by a key: ``vals`` holds the distinct key
    values in ascending order and ``above[i]`` the mask of the placements
    whose key is at least ``vals[i]`` (``above`` ends with 0). Bit x stands
    for placement x, which puts good g in bundle ``x // k**g % k``. Once the
    tables hold more than ``_BLOCK_BITS`` bits the cache starts over,
    memos included; a scan keeps the tables it took.
    """

    def __init__(self, inst: Instance, cons: SearchConstraints):
        self.partitions, self.assignments, self.with_partition = _partition_plan(inst, cons)
        _guard(inst, self.partitions)
        m, k, notion = inst.m, inst.k, cons.notion
        if k > 1 and notion.kind in ("efx", "efx0") and any(v.kind == TABLE for v in inst.agents):
            raise UnsupportedNotionError(f"{notion} is not defined for table valuations")
        if notion.c > m > 0:
            notion = up_to(m)
        self.m, self.k, self.notion, self.balanced = m, k, notion, cons.balanced_allocation
        self.ids = _valuation_ids(inst)
        self.valuations = dict(zip(self.ids, inst.agents))  # agents of one id are alike
        vectors = {v.values for v in self.valuations.values() if v.kind != TABLE}
        self.setup = {w: _valuation_setup(notion, w, k) for w in vectors}
        self.judged = len(self.setup) < len(self.valuations)
        one = self.partitions == 1  # nothing to skip, so no key to compute
        self.keys = (None,) if one else _orbit_keys(k, self.ids, self.assignments)
        self.scans = 1 if one else len(set(self.keys))
        self.per_partition = balanced_allocation_count(m, k) if self.balanced else k**m
        self.tables: dict = {}
        self.bits = 0

    def block_goods(self, keys: list) -> int:
        """:func:`_block_goods` for a scan whose tables have the sizing keys
        ``keys`` (:func:`_checker_setup`), computed once per list of keys.
        L is a pure function of m, k, the keys, the scans and ``judged``, and
        all of them but the keys are the call's (every partition places
        every agent, so whether table agents judge is too): every scan with
        these keys gets the same L, and so the same stats."""
        key = ("goods", *keys)
        if key not in self.tables:
            self.tables[key] = _block_goods(self.m, self.k, keys, self.scans, self.judged)
        return self.tables[key]

    def leaves(self, sizes: list[int], free: int) -> int:
        """Admissible leaves under the node whose bundles have ``sizes`` and
        whose goods 0..free-1 are unplaced."""
        if not self.balanced:
            return self.k**free
        key = ("leaves", *sizes)
        if key not in self.tables:
            self.tables[key] = _balanced_completions(sizes, free)
        return self.tables[key]

    def _table(self, key: tuple, groups: dict) -> tuple[list, list[int]]:
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

    def _anywhere(self, idle: list[int]) -> int:
        """Mask of the placements that put the goods ``idle`` in any bundle
        and every other block good in bundle 0."""
        mask = 1
        for g in idle:
            copy, shift = mask, self.k**g
            for by in range(shift, self.k * shift, shift):
                mask |= copy << by
        return mask

    def _sums(self, values: tuple[int, ...], coef: tuple[int, ...]) -> dict:
        """Placement masks by the key sum over g of values[g] * coef[bundle
        of g]: worthless goods go anywhere at once, and then good by good the
        placements with good g in bundle d are those of the goods before it,
        shifted by d * k**g."""
        groups = {0: self._anywhere([g for g, x in enumerate(values) if not x])}
        for g, x in enumerate(values):
            if not x:
                continue
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

    def envy(self, values: tuple[int, ...], own: int, rival: int, top: int, zeros: bool):
        """The table of S_own - S_rival plus a statistic of the rival's share
        of the block: with ``top`` >= 1 the sum of its ``top`` largest
        values, with ``top`` 0 its least value, of the positive ones unless
        ``zeros``, infinite if it has none. Goods are added in descending
        value, so the rival's first ``top`` goods are its largest and a good
        joining it is its least so far. The goods that move no key (the
        worthless ones, unless ``zeros``) go anywhere at once, first."""
        key = ("envy", values, own, rival, top, zeros)
        if key in self.tables:
            return self.tables[key]
        moving = sorted((g for g, x in enumerate(values) if x or zeros), key=values.__getitem__, reverse=True)
        idle = [g for g, x in enumerate(values) if not (x or zeros)]
        groups = {(0, 0, 0 if top else math.inf): self._anywhere(idle)}
        for g in moving:
            x = values[g]
            shift = self.k**g
            grown: dict = {}
            for (diff, n, s), mask in groups.items():
                for d in range(self.k):
                    if d == own:
                        state = diff + x, n, s
                    elif d != rival:
                        state = diff, n, s
                    elif not top:
                        state = diff - x, n, x
                    else:
                        state = (diff - x, n + 1, s + x) if n < top else (diff - x, n, s)
                    grown[state] = grown.get(state, 0) | mask << d * shift
            groups = grown
        keys: dict = {}
        for (diff, _n, s), mask in groups.items():
            keys[diff + s] = keys.get(diff + s, 0) | mask
        return self._table(key, keys)

    def rules(self, block: int, setup: list, worths: list, needs: list) -> list[tuple]:
        """The rules of ``setup`` (:func:`_checker_setup`) over goods
        0..block-1, as ``(c, need, j, lifted, tests)``: ``need`` checker c's
        row of ``needs``, ``lifted`` its values when a test reads a lift
        (else None), and each test ``(vals, above, mirror, off, lift)``: its
        table, and off = T + adjust for the checker's block total T. A
        checker that values no block good is left out unless its bound is
        loose, which its tests' ``adjust``, the slack, says."""
        k = self.k
        out = []
        for c, j, tests in setup:
            values = worths[c][:block]
            if not (tests[0][5] or any(values)):
                continue
            total = sum(values)
            built = []
            for lo, hi, top, zeros, mirror, adjust, lift in tests:
                if top is None:
                    coef = tuple(1 if d == lo else -1 if d == hi else 0 for d in range(k))
                    vals, above = self.linear(values, coef)
                else:
                    vals, above = self.envy(values, lo, hi, top, zeros)
                built.append((vals, above, mirror, total + adjust, lift))
            lifted = worths[c] if any(test[6] for test in tests) else None
            out.append((c, needs[c], j, lifted, tuple(built)))
        return out

    def fits(self, goods: int, sizes: list[int], q: int, tallest: int) -> int:
        """Mask of the placements after which every bundle holds q to
        ``tallest`` goods, for a node with these bundle sizes: the AND over
        bundles d of the placements that put q - sizes[d] to tallest -
        sizes[d] goods in d, read off the table of that count."""
        key = ("fits", goods, tuple(sizes))
        mask = self.tables.get(key)
        if mask is None:
            mask = (1 << self.k**goods) - 1
            for d, s in enumerate(sizes):
                vals, above = self.linear((1,) * goods, tuple(int(e == d) for e in range(self.k)))
                mask &= above[bisect_left(vals, q - s)] ^ above[bisect_left(vals, tallest - s + 1)]
            self.tables[key] = mask
        return mask

    def parts(self, goods: int) -> tuple[int, list, list]:
        """The goods 0..goods-1 that placement x puts in each bundle, in two
        halves, so that a leaf is built without a loop over the goods from
        tables of about k**(goods / 2) entries: with h = goods // 2, bundle
        d gets ``low[x % k**h][d] | high[x // k**h][d]``. The scan builds
        its leaves from these for every k but 2, k = 1 included. For k = 2
        it reads bundle 1's block goods off the bits of x instead: built
        from these tables, the balanced EF1 scans of the tightness instances
        of K(2t, t, 2), t = 4..7, took 7-24% longer in-process."""
        key = ("parts", goods)
        if key not in self.tables:
            k, h = self.k, goods // 2
            halves = []
            for first, last in ((0, h), (h, goods)):
                cols = [[0]] * k
                for g in range(first, last):
                    cols = [[x | (e == d) << g for e in range(k) for x in c] for d, c in enumerate(cols)]
                halves.append(list(zip(*cols)))
            self.tables[key] = (k**h, *halves)
        return self.tables[key]


def _checker_setup(plan: _Plan, owns: list[int], worths: list[tuple]) -> tuple[list[list[int]], list, list]:
    """What the plan's notion means for the additive and binary checkers of
    one scan of m >= 1 goods, with groups ``owns`` and values ``worths``,
    among k bundles: ``(needs, rules, tables)``. What depends on the
    valuation alone, its row entries and its slack, is read from
    ``plan.setup`` (:func:`_valuation_setup`, once per call); what is built
    here turns on the checker's group.

    ``needs[c]`` is checker c's row of running numbers (see the module
    docstring). For PROP it holds ceil(total / k) at its own bundle and -1 -
    total elsewhere, which placing goods never lifts to 0. For every other
    notion it holds -1 at its own bundle and -s elsewhere, s being the
    checker's slack: the most the notion removes from one bundle, 0 for EF,
    the sum of its c largest values for EFc, its largest value for EFX and
    EFX0. Placing goods adds bundle j's value to needs[c][j]; the checker
    rejects a node when avail[c] < max(needs[c]). The bound decides the
    leaves of EF, PROP and of EFc and EFX when every value is 0 or 1; the
    checker is loose where it does not: under EFc or EFX with a value above
    1, and under EFX0 with a positive value.

    ``rules`` decide a leaf block of goods 0..L-1, for any L >= 0. Per
    checker c and rival bundle j (its own bundle for PROP) one rule
    ``(c, j, tests)``, two for a loose EFX or EFX0 checker; a rule passes a
    placement x when one of its tests does, and a block's hits pass every
    rule. A test ``(lo, hi, top, zeros, mirror, adjust, lift)`` names the
    table it reads over the block goods' values (:meth:`_Plan.rules`):
    with ``top`` None the key S_lo(x) - S_hi(x) (S_lo(x) for PROP, where hi
    is None), otherwise the envy table of :meth:`_Plan.envy` with ``top``
    and ``zeros``, which counts worthless goods for EFX0 only. At a block
    node x passes it when key(x) >= u for

        u = needs[c][j] - avail[c] + T + adjust - lifts[lift],

    ``adjust`` being the checker's slack s where it is loose and 0
    elsewhere, and ``lifts`` the tuple :func:`_lifts` reads of the goods
    bundle j holds above the block ((0,) for a rule whose tests all take
    lift 0), in the sorted table (vals, above) as ``above[bisect_left(vals,
    u)]``. A mirrored test is that of the checker in hi, for which the key
    is -key(x): it passes when key(x) >= 1 - u fails. A rule accepts what
    its checker accepts of bundle j, and only that, by these rules, where a
    is the checker's own bundle without the block (a = avail - T), a_j =
    needs[c][j] + s its value of bundle j, A_j the goods there, S_d(x) the
    value of the block goods x puts in bundle d and B_j(x) those it puts in
    j, T their total, D(x) = S_own(x) - S_j(x) and t = a_j - a =
    needs[c][j] - avail[c] + T + s:

    - EF: a + S_own(x) >= a_j + S_j(x) iff D(x) >= t, and s is 0.
    - PROP: k * (a + S_own(x)) >= total iff S_own(x) >= ceil(total / k) - a,
      and needs[c][own] holds ceil(total / k).
    - EFc and EFX, every value 0 or 1: the allowance of bundle j is the
      least of c and its number of valued goods, with c = 1 for EFX (its
      least positive value is 1 once it holds one). As a + S_own(x) >= 0,
      the notion reads a + S_own(x) >= max(0, a_j + S_j(x) - c). If the
      checker values c goods or more, s is c and this is D(x) >= t - s,
      the EF test on needs. Otherwise s is its number of valued goods,
      which bundle j can never exceed: the notion always holds, and so does
      D(x) >= t - s, that is a + S_own(x) >= a_j + S_j(x) - s. One test,
      adjust 0.
    - EFc: the allowance is top_c(A_j + B_j(x)), the sum of the c largest
      values there, which is the largest of top_i(A_j) + top_(c-i)(B_j(x))
      over i = 0..c: each of these sums at most c of the bundle's goods, and
      the c largest are the i largest of A_j and the c - i largest of B_j(x)
      for some i. So EFc holds iff D(x) + top_(c-i)(B_j(x)) >= t - top_i(A_j)
      for some i: c + 1 tests, lift i (lifts[i] is top_i(A_j)); test c
      reads the D table, test i < c the envy table with top = c - i.
    - EFX, EFX0: the allowance is the least value of bundle j, of its
      positive ones for EFX: min(mA, mB(x)), mA that of A_j and mB(x) that
      of B_j(x), each infinite if there is none. When both are, bundle j is
      worth nothing to the checker (no positive value for EFX, no good for
      EFX0) and the notion holds. Otherwise it reads D(x) >= t - min(mA,
      mB(x)), that is D(x) >= t - mA and D(x) + mB(x) >= t: two rules, the
      first on the D table with lift 1 (mA, infinite when A_j has no such
      good, which passes every placement), the second on the envy table
      with top = 0. When both are infinite both pass, as the notion does.

    For k >= 3 the keys run over the k**L placements the same way. The D
    table of a pair lo < hi serves the checkers of both. A checker that
    values no block good has D(x) = 0; when it is not loose, the bound
    check at the node decided it, so :meth:`_Plan.rules` leaves it out.
    A loose checker stays: what the notion removes from bundle j still
    turns on the goods there. With L = 0 the block is one leaf and every
    table holds its one placement, with key 0 (infinite for the least of an
    empty share): the checkers that are not loose drop out, and the rules
    of the others decide the leaf as the notion does.

    ``tables`` holds each table the tests read once, as :func:`_block_goods`
    sizes it: ``(values, scale, top, zeros)``, scale 1 for PROP's S_own
    table and 2 for the others, and ``top`` at least 1 for an envy table.
    """
    notion, k = plan.notion, plan.k
    kind = notion.kind
    needs, rules = [], []
    for c, (own, w) in enumerate(zip(owns, worths)):
        _total, mine, other, s = plan.setup[w]
        row = [other] * k
        row[own] = mine
        needs.append(row)
        if kind == "prop":
            rules.append((c, own, ((own, None, None, False, False, 0, 0),)))
            continue
        for j in range(k):
            if j == own:
                continue
            d = min(own, j), max(own, j), None, False, own > j
            if not s:
                rules.append((c, j, ((*d, 0, 0),)))
            elif kind == "efc":
                tops = [(own, j, notion.c - i, False, False, s, i) for i in range(notion.c)]
                rules.append((c, j, (*tops, (*d, s, notion.c))))
            else:
                rules.append((c, j, ((*d, s, 1),)))
                rules.append((c, j, ((own, j, 0, kind == "efx0", False, s, 0),)))
    tables = {}
    for c, _j, tests in rules:
        for lo, hi, top, zeros, _mirror, _adjust, _lift in tests:
            tables[worths[c], lo, hi, top] = worths[c], 1 if hi is None else 2, 0 if top is None else max(top, 1), zeros
    return needs, rules, list(tables.values())


def _hits(plan: _Plan, gof: Sequence[int], stats: SearchStats) -> Iterator[tuple[int, ...]]:
    """The satisfying bundles of the partition ``gof``, in canonical order.

    Walks the allocation tree depth first (see the module docstring); the
    node, pruning and leaf counts are added to ``stats``. What depends only
    on the call comes from ``plan``; per scan this builds only what turns
    on the group assignment: the checkers (:func:`_checkers`), their rows of
    running numbers and their rules (:func:`_checker_setup`), and which
    checkers placing each good moves.
    """
    m, k, notion, balanced = plan.m, plan.k, plan.notion, plan.balanced
    owns, worths, tables = _checkers(plan, gof)
    if m == 0:
        leaf = (0,) * k
        if any(rejected_bundle(v, leaf, own, notion) is not None for v, own in tables):
            stats.leaves_rejected += 1
        else:
            yield leaf
        return
    # Running numbers of checker c: avail[c] is its own bundle plus every
    # unplaced good, needs[c] its row of _checker_setup.
    needs, setup, keys = _checker_setup(plan, owns, worths)
    avail = [plan.setup[w][0] for w in worths]
    # Placing good g in bundle b moves only the numbers of checkers outside
    # b that value g.
    touch: list[list[list]] = [[[] for _ in range(k)] for _ in range(m)]
    for c, (own, w, need) in enumerate(zip(owns, worths, needs)):
        for g, x in enumerate(w):
            if x:
                for j, moved in enumerate(touch[g]):
                    if j != own:
                        moved.append((c, x, need))
    q, r = divmod(m, k)
    tallest = q + (r > 0)
    owed = q * k  # goods still needed to bring every bundle up to q
    bundles = [0] * k
    sizes = [0] * k
    path = [0] * m
    # Leaf blocks: the node that places good `block` decides goods
    # block-1..0 in place (see _checker_setup), building the tables of its
    # rules on the first block it reaches; with block 0 that node is a leaf.
    block = plan.block_goods(keys)
    everything = (1 << k**block) - 1
    rules = None
    nodes = pruned = cut = rejected = decided = 0
    g, b = m - 1, 0
    while True:
        if b < k:
            s = sizes[b]
            if balanced and (s >= tallest or (s >= q and owed > g)):
                b += 1
                continue
            nodes += 1
            bundles[b] |= 1 << g
            sizes[b] = s + 1
            if s < q:
                owed -= 1
            ok = True
            for c, x, need in touch[g][b]:
                a = avail[c] = avail[c] - x
                need[b] += x
                if a < max(need):
                    ok = False
            if not ok:
                if g:
                    pruned += 1
                    cut += plan.leaves(sizes, g)
                else:
                    rejected += 1
            elif g > block:
                path[g] = b
                g -= 1
                b = 0
                continue
            else:
                # decide the leaf block of goods g-1..0
                if rules is None:
                    rules = plan.rules(g, setup, worths, needs)
                decided += g > 0
                # every leaf of the balanced walk is balanced
                admissible = plan.fits(g, sizes, q, tallest) if balanced and g else everything
                mask = admissible
                for c, need, j, lifted, tests in rules:
                    t = need[j] - avail[c]
                    lifts = (0,) if lifted is None else _lifts(notion, lifted, bundles[j])
                    accepts = 0
                    for vals, ups, mirror, off, i in tests:
                        u = t + off - lifts[i]
                        if mirror:
                            accepts |= everything ^ ups[bisect_left(vals, 1 - u)]
                        else:
                            accepts |= ups[bisect_left(vals, u)]
                    mask &= accepts
                    if not mask:
                        break
                if not mask:
                    # a one-leaf block is a leaf; a larger one is cut when
                    # one rule admits no admissible placement
                    if accepts & admissible or not g:
                        rejected += admissible.bit_count()
                    else:
                        pruned += 1
                        cut += admissible.bit_count()
                else:
                    # the table agents judge the placements the rules pass;
                    # every admissible placement that is not a hit is a
                    # rejected leaf
                    rest = admissible
                    if k != 2:  # the half tables of the leaves, with the goods above the block
                        size, low, high = plan.parts(g)
                        low = [tuple(map(or_, bundles, y)) for y in low]
                    while mask:
                        x = (mask & -mask).bit_length() - 1
                        mask ^= 1 << x
                        if k == 2:  # bundle 1 gets the block goods that are bits of x
                            leaf = (bundles[0] | (x ^ (1 << g) - 1), bundles[1] | x)
                        else:
                            leaf = tuple(map(or_, low[x % size], high[x // size]))
                        if any(rejected_bundle(v, leaf, own, notion) is not None for v, own in tables):
                            continue
                        rejected += (rest & (1 << x) - 1).bit_count()
                        rest &= -2 << x
                        stats.count(nodes, pruned, cut, rejected, decided)
                        nodes = pruned = cut = rejected = decided = 0
                        yield leaf
                    rejected += rest.bit_count()
        else:
            g += 1
            if g == m:
                break
            b = path[g]
        # take good g back out of bundle b
        bundles[b] ^= 1 << g
        s = sizes[b] = sizes[b] - 1
        if s < q:
            owed += 1
        for c, x, need in touch[g][b]:
            avail[c] += x
            need[b] -= x
        b += 1
    stats.count(nodes, pruned, cut, rejected, decided)


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


def _plan_hits(plan: _Plan, stats: SearchStats) -> Iterator[tuple[tuple[int, ...] | None, tuple[int, ...]]]:
    """Satisfying ``(assignment, bundles)`` over the partitions of the plan,
    in canonical order; the assignment is None for fixed groups, a plan of
    one partition.

    A partition whose orbit key an earlier scan refuted is not walked (see
    the module docstring). The plan computes the keys up front, so the
    leaf-block tables are sized for the scans that can run, not for every
    partition.
    """
    refuted: set = set()
    for gof, key in zip(plan.assignments, plan.keys):
        stats.partitions += 1
        if key in refuted:
            stats.pruned += 1
            stats.candidates_pruned += plan.per_partition
            continue
        stats.scans += 1
        refuted.add(key)  # until a hit says otherwise
        for bundles in _hits(plan, gof, stats):
            refuted.discard(key)
            yield gof if plan.with_partition else None, bundles


def find_fair(inst: Instance, cons: SearchConstraints, jobs: int = 1) -> Certificate:
    """Decide existence by walking every admissible candidate.

    Returns the first satisfying (partition, allocation) in canonical order,
    or a certified exhaustion whose ``examined`` equals the number of
    admissible candidates. Raises :class:`SearchSpaceTooLargeError` when the
    scan would exceed the guard, and after it
    :class:`UnsupportedNotionError` for EFX and EFX0 when a table agent
    meets more than one bundle. ``jobs`` is accepted and ignored: every
    scan runs in this process.
    """
    stats = SearchStats()
    plan = _Plan(inst, cons)
    hit = next(_plan_hits(plan, stats), None)
    if hit is None:
        return Certificate(False, examined=stats.partitions * plan.per_partition, stats=stats)
    gof, bundles = hit
    part = None if gof is None else AgentPartition(gof, inst.k)
    return Certificate(True, allocation=Allocation(bundles), partition=part, stats=stats)


def enumerate_fair(
    inst: Instance, cons: SearchConstraints
) -> Iterator[tuple[AgentPartition | None, Allocation]]:
    """Yield every admissible satisfying (partition, allocation) in order."""
    for gof, bundles in _plan_hits(_Plan(inst, cons), SearchStats()):
        yield None if gof is None else AgentPartition(gof, inst.k), Allocation(bundles)

