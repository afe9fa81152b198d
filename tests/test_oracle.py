"""Exhaustive existence oracle and the built-in impossibility corpus."""

import dataclasses
import json
import math
import os
import random
import time
import tracemalloc
from itertools import combinations, product

import pytest

from groupfair import gallery, oracle
from groupfair import (
    EF,
    EF1,
    EF2,
    EFX,
    EFX0,
    PROP,
    Allocation,
    Certificate,
    Instance,
    SearchConstraints,
    SearchSpaceTooLargeError,
    UnsupportedNotionError,
    Valuation,
    corpus,
    find_fair,
    is_fair,
    run_corpus_entry,
    solve_ef1_binary,
)
from groupfair.fairness import rejected_bundle, up_to
from groupfair.model import AgentPartition, full_mask, instance_from_json, validate
from groupfair.oracle import (
    SearchStats,
    _assignments,
    _hits,
    _partition_plan,
    balanced_allocation_count,
    balanced_size_vectors,
    enumerate_fair,
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reference_hits(inst, gof, notion, balanced):
    """The per-index scanner the depth-first kernel replaced: rebuild each
    candidate's bundles from its index, then ask every agent. Yields the
    satisfying bundles in index order and returns nothing else."""
    m, k = inst.m, inst.k
    for idx in range(k**m):
        bundles = [0] * k
        rest = idx
        for g in range(m):
            bundles[rest % k] |= 1 << g
            rest //= k
        sizes = [b.bit_count() for b in bundles]
        if balanced and max(sizes) - min(sizes) > 1:
            continue
        agents = enumerate(inst.agents)
        if not any(_reference_rejects(v, bundles, gof[a], notion) for a, v in agents):
            yield tuple(bundles)


def _reference_rejects(v, bundles, own, notion):
    """Whether the agent rejects some bundle; for tables under EF and EFc the
    rule is spelled out here, over every removal set of at most c goods."""
    if v.kind != "table" or notion.kind == "prop":
        return rejected_bundle(v, bundles, own, notion) is not None
    mine = v.table[bundles[own]]
    for j, other in enumerate(bundles):
        if j == own:
            continue
        goods = [g for g in range(v.m) if other >> g & 1]
        removals = [
            drop for size in range(min(notion.c, len(goods)) + 1) for drop in combinations(goods, size)
        ]
        if all(v.table[other & ~sum(1 << g for g in drop)] > mine for drop in removals):
            return True
    return False


def _scan(inst, gof, notion, balanced, stats):
    """The kernel's hits of one partition, as a list, on a plan of its own."""
    plan = oracle._Plan(inst, SearchConstraints(notion, balanced_allocation=balanced))
    return list(_hits(plan, gof, stats))


def _admissible(m, k, balanced):
    """Candidates, balanced ones only when asked."""
    if not balanced:
        return k**m
    count = 0
    for idx in range(k**m):
        sizes = [0] * k
        for _ in range(m):
            sizes[idx % k] += 1
            idx //= k
        count += max(sizes) - min(sizes) <= 1
    return count


def test_balanced_size_vectors():
    assert balanced_size_vectors(5, 2) == [(2, 3), (3, 2)]
    assert balanced_size_vectors(6, 3) == [(2, 2, 2)]
    assert balanced_size_vectors(4, 3) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert balanced_size_vectors(0, 2) == [(0, 0)]


@pytest.mark.parametrize("m,k", [(0, 1), (3, 2), (4, 2), (5, 3), (6, 4), (7, 3)])
def test_balanced_allocation_count_matches_enumeration(m, k):
    brute = 0
    for word in product(range(k), repeat=m):
        sizes = [word.count(g) for g in range(k)]
        if max(sizes) - min(sizes) <= 1:
            brute += 1
    assert balanced_allocation_count(m, k) == brute


def test_assignments_order_and_count():
    got = list(_assignments((0, 1, 2), (1, 2), 3))
    assert got == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # one group, empty groups and no agents at all
    assert list(_assignments((0, 1), (2,), 2)) == [(0, 0)]
    assert list(_assignments((0, 1), (0, 2, 0), 2)) == [(1, 1)]
    assert list(_assignments((), (0, 0), 0)) == [()]
    got = list(_assignments(tuple(range(5)), (2, 2, 1), 5))
    assert len(got) == math.comb(5, 2) * math.comb(3, 2)
    assert len(set(got)) == len(got)
    for assignment in got:
        assert sorted(assignment.count(g) for g in range(3)) == [1, 2, 2]


def test_find_fair_trivial_cases():
    # no goods: the empty allocation satisfies everything
    inst = Instance.fixed(0, [Valuation.additive([])], [[0]])
    cert = find_fair(inst, SearchConstraints(EF))
    assert cert.found and cert.allocation.bundles == (0,)
    # indifferent agents accept the first allocation in scan order
    inst = Instance.fixed(2, [Valuation.zeros(2), Valuation.zeros(2)], [[0], [1]])
    cert = find_fair(inst, SearchConstraints(EF))
    assert cert.found and cert.allocation.bundles == (0b11, 0)


def test_find_fair_first_hit_is_canonical():
    # scan order: good 0 varies fastest, so the first EF split of two goods
    # between two claimants puts good 0 in bundle 1 only after trying both
    inst = Instance.fixed(
        2,
        [Valuation.additive([1, 1]), Valuation.additive([1, 1])],
        [[0], [1]],
    )
    cert = find_fair(inst, SearchConstraints(EF))
    hits = [a.bundles for _p, a in enumerate_fair(inst, SearchConstraints(EF))]
    assert cert.allocation.bundles == hits[0]
    assert set(hits) == {(0b01, 0b10), (0b10, 0b01)}


def test_certificate_examined_counts():
    inst = Instance.fixed(3, [Valuation.binary([1, 1, 1])] * 2, [[0], [1]])
    # EF needs a strict majority both ways: impossible with 3 desired goods
    cert = find_fair(inst, SearchConstraints(EF))
    assert not cert.found and cert.examined == 8
    cert = find_fair(inst, SearchConstraints(EF, balanced_allocation=True))
    assert not cert.found and cert.examined == balanced_allocation_count(3, 2)


def test_variable_groups_search_partitions():
    agents = [Valuation.additive([9, 0]), Valuation.additive([0, 9])]
    inst = Instance.variable(2, agents, [1, 1])
    cert = find_fair(inst, SearchConstraints(EF))
    assert cert.found and cert.partition is not None
    gof = cert.partition.assignment
    # each agent must sit with her favorite good
    for a in (0, 1):
        v = agents[a]
        own = cert.allocation.bundles[gof[a]]
        assert v.value(own) == 9
    # exhaustion counts partitions times allocations: one contested good,
    # 2 partitions x 2 allocations, never EF for the empty-handed agent
    blocked = Instance.variable(1, [Valuation.binary([1])] * 2, [1, 1])
    cert = find_fair(blocked, SearchConstraints(EF))
    assert not cert.found and cert.examined == 2 * 2


def test_balanced_partition_sweeps_size_vectors():
    agents = [Valuation.binary([1])] * 3
    inst = Instance.variable(1, agents, [3, 0])
    cert = find_fair(inst, SearchConstraints(EF1, balanced_partition=True))
    # vectors (1,2) and (2,1): 3 + 3 partitions, 2 allocations each
    assert cert.found or cert.examined == 12
    assert cert.found  # one good, EF1 always holds


def test_fixed_partition_pin():
    # one partition of a variable-group instance is searched as the
    # fixed-group instance it gives
    agents = [Valuation.additive([5, 0]), Valuation.additive([0, 5])]
    pin = AgentPartition((1, 0), 2)
    inst = Instance.fixed(2, agents, pin.groups_lists())
    cert = find_fair(inst, SearchConstraints(EF))
    assert cert.found and cert.partition is None
    assert cert.allocation.bundles == (0b10, 0b01)
    assert inst.assignment == pin.assignment


def test_constraint_validation():
    fixed = Instance.fixed(1, [Valuation.binary([1])], [[0]])
    with pytest.raises(ValueError):
        find_fair(fixed, SearchConstraints(EF1, balanced_partition=True))
    with pytest.raises(TypeError):
        SearchConstraints(EF1, fixed_partition=AgentPartition((0,), 1))
    # a partition of the wrong number of agents cannot pin an instance
    var = Instance.variable(1, [Valuation.binary([1])], [1, 0])
    with pytest.raises(ValueError, match="group 1: unknown agent id 1"):
        Instance.fixed(var.m, var.agents, AgentPartition((0, 1), 2).groups_lists())


def test_guards():
    wide = Instance.fixed(25, [Valuation.additive([1] * 25)], [[0]])
    with pytest.raises(SearchSpaceTooLargeError) as err:
        find_fair(wide, SearchConstraints(EF1))
    assert err.value.bound == 25
    big = Instance.fixed(17, [Valuation.additive([1] * 17)] * 3, [[0], [1], [2]])
    with pytest.raises(SearchSpaceTooLargeError) as err:
        find_fair(big, SearchConstraints(EF1))
    assert err.value.bound == 3**17


def test_prop_constraint_path():
    inst = Instance.fixed(
        2, [Valuation.additive([3, 1]), Valuation.additive([1, 3])], [[0], [1]]
    )
    cert = find_fair(inst, SearchConstraints(PROP))
    assert cert.found
    for a, v in enumerate(inst.agents):
        assert 2 * v.value(cert.allocation.bundles[a]) >= v.value(full_mask(2))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["additive", "binary"])
@pytest.mark.parametrize("notion", [EF, EF1, EF2, EFX, EFX0, PROP], ids=str)
def test_enumerate_matches_brute_force(notion, kind, k):
    rng = random.Random(23)
    top = 4 if kind == "additive" else 1
    for _ in range(60):
        m = rng.randrange(0, 5)
        n = rng.randrange(1, 4)
        agents = [
            Valuation(kind, m, values=tuple(rng.randrange(0, top + 1) for _ in range(m)))
            for _ in range(n)
        ]
        members = [[] for _ in range(k)]
        for a in range(n):
            members[rng.randrange(k)].append(a)
        inst = Instance.fixed(m, agents, members)
        got = [a.bundles for _p, a in enumerate_fair(inst, SearchConstraints(notion))]
        brute = []
        for word in product(range(k), repeat=m):
            bundles = [0] * k
            for g, side in enumerate(reversed(word)):
                bundles[side] |= 1 << g
            if is_fair(inst, Allocation(tuple(bundles)), notion).overall:
                brute.append(tuple(bundles))
        assert got == brute  # same hits in the same canonical order


@pytest.mark.parametrize(
    "n,members",
    [(2, [[0, 1], [1]]), (3, [[0], [1]])],
    ids=["agent-in-two-groups", "agent-in-no-group"],
)
def test_invalid_fixed_groups_are_rejected(n, members):
    # such an instance cannot be built, so no search or check can see it
    with pytest.raises(ValueError, match="more than one group|belong to no group"):
        Instance.fixed(2, [Valuation.binary([1, 1])] * n, members)


_KERNEL_CASES = [
    (notion, kind)
    for notion in (EF, EF1, EF2, EFX, EFX0, PROP)
    for kind in ("binary", "additive", "table", "mixed")
    if not (kind in ("table", "mixed") and notion in (EFX, EFX0))
]


def _random_agent(rng, kind, m):
    if kind == "mixed":
        # table agents next to additive and binary ones in one instance
        kind = rng.choice(("table", "monotone", "binary", "additive"))
    if kind == "monotone":
        table = [0] * (1 << m)
        for mask in range(1, 1 << m):
            table[mask] = max(table[mask & ~(1 << g)] for g in range(m) if mask >> g & 1) + rng.randrange(3)
        return Valuation("table", m, table=tuple(table))
    if kind == "table" and rng.random() < 0.6:
        # arbitrary entries, so most tables are not monotone
        return Valuation.table_of(m, {mask: rng.randrange(0, 7) for mask in range(1 << m)})
    if kind == "binary":
        return Valuation.binary([rng.randrange(0, 2) for _ in range(m)])
    return Valuation.additive([rng.randrange(0, 5) for _ in range(m)])


@pytest.mark.parametrize("balanced", [False, True], ids=["free", "balanced"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("notion,kind", _KERNEL_CASES, ids=lambda x: str(x))
def test_kernel_matches_reference_scanner(notion, kind, k, balanced):
    rng = random.Random(f"{notion}-{kind}-{k}-{balanced}")
    non_monotone = mixed = 0
    for _ in range(25):
        m = rng.randrange(0, 6 if k == 2 else 5)
        n = rng.randrange(1, 5)
        agents = [_random_agent(rng, kind, m) for _ in range(n)]
        if rng.random() < 0.5:
            members = [[] for _ in range(k)]
            for a in range(n):
                members[rng.randrange(k)].append(a)
            inst = Instance.fixed(m, agents, members)
        else:
            cuts = sorted(rng.randrange(0, n + 1) for _ in range(k - 1))
            inst = Instance.variable(m, agents, [b - a for a, b in zip([0, *cuts], [*cuts, n])])
        non_monotone += any("monotonicity" in p for p in validate(inst))
        mixed += len({v.kind == "table" for v in agents}) == 2
        cons = SearchConstraints(notion, balanced_allocation=balanced)
        expected = []
        for gof in _partition_plan(inst, cons)[1]:
            full = list(_reference_hits(inst, gof, notion, balanced))
            expected += full
            stats = SearchStats()
            got = _scan(inst, gof, notion, balanced, stats)
            assert got == full
            # every admissible candidate is a hit, pruned or rejected
            checked = stats.leaves_rejected + stats.candidates_pruned + len(got)
            assert checked == _admissible(m, k, balanced)
        got = [a.bundles for _p, a in enumerate_fair(inst, cons)]
        assert got == expected  # same hits in the same canonical order
        cert = find_fair(inst, cons)
        assert cert.found == bool(expected)
        if expected:
            assert cert.allocation.bundles == expected[0]
    if kind in ("table", "mixed"):
        assert non_monotone > 0
    if kind == "mixed":
        assert mixed > 0


def _repeating_instance(rng, k, notion, core=False):
    """An instance whose valuations and running numbers repeat across the
    tree: few distinct valuations shared by several agents, small repeated
    values and goods that are worthless to everyone; always a padded corpus
    core with ``core``."""
    top = 7 if k == 3 else 10  # one more than the largest m
    if core or rng.random() < 0.25:
        # a corpus impossibility (for this notion if there is one) with its
        # goods spread among worthless ones; for k=3 the third group is a
        # copy of the first, for k=1 one group holds the whole core
        cores = [e for e in corpus() if e.instance.m < top and not e.constraints.balanced_partition]
        core = rng.choice([e for e in cores if e.constraints.notion == notion] or cores).instance
        m = rng.randrange(core.m, top)
        where = sorted(rng.sample(range(m), core.m))
        agents = []
        for v in core.agents:
            values = [0] * m
            for g0, g in enumerate(where):
                values[g] = v.values[g0]
            agents.append(Valuation(v.kind, m, values=tuple(values)))
        members = [list(g) for g in core.groups.members]
        if k == 1:
            members = [sum(members, [])]
        if k == 3:
            members.append(list(range(len(agents), len(agents) + len(members[0]))))
            agents += [agents[a] for a in members[0]]
        return Instance.fixed(m, agents, members)
    # otherwise one to three valuations on few goods; for k=3 at least three
    # agents, so that checkers in different groups clash
    m = rng.randrange(1, top)
    pad = set(rng.sample(range(m), rng.randrange(0, m)))
    kinds = []
    for _ in range(rng.randrange(1, 4 if k == 3 else 3)):
        if rng.random() < 0.5:
            kinds.append(Valuation.binary([int(g not in pad and rng.random() < 0.7) for g in range(m)]))
        else:
            kinds.append(Valuation.additive([0 if g in pad else rng.choice((1, 1, 2, 3)) for g in range(m)]))
    n = rng.randrange(3, 6) if k == 3 else rng.randrange(1, 6)
    agents = [rng.choice(kinds) for _ in range(n)]
    if rng.random() < 0.5:
        members = [[] for _ in range(k)]
        for a in range(n):
            members[rng.randrange(k)].append(a)
        return Instance.fixed(m, agents, members)
    cuts = sorted(rng.randrange(0, n + 1) for _ in range(k - 1))
    return Instance.variable(m, agents, [b - a for a, b in zip([0, *cuts], [*cuts, n])])


@pytest.mark.parametrize("balanced", [False, True], ids=["free", "balanced"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("notion", [EF, EF1, EF2, EFX, EFX0, PROP], ids=str)
def test_memo_matches_reference_scanner(notion, k, balanced):
    # on shared valuations and padded cores the walk gives the reference's
    # hits in order, candidates that add up and the same first hit
    rng = random.Random(f"memo-{notion}-{k}-{balanced}")
    for _ in range(20):
        inst = _repeating_instance(rng, k, notion)
        m = inst.m
        cons = SearchConstraints(notion, balanced_allocation=balanced)
        expected = []
        for gof in _partition_plan(inst, cons)[1]:
            full = list(_reference_hits(inst, gof, notion, balanced))
            expected += full
            stats = SearchStats()
            got = _scan(inst, gof, notion, balanced, stats)
            assert got == full
            checked = stats.leaves_rejected + stats.candidates_pruned + len(got)
            assert checked == _admissible(m, k, balanced)
        # enumerate_fair resumes the scan after every yield
        assert [a.bundles for _p, a in enumerate_fair(inst, cons)] == expected
        cert = find_fair(inst, cons)
        assert cert.found == bool(expected)
        if expected:
            assert cert.allocation.bundles == expected[0]
        else:
            assert cert.stats.leaves_rejected + cert.stats.candidates_pruned == cert.examined


def test_table_agents_have_no_efx():
    table = Valuation.table_of(2, {0: 0, 1: 1, 2: 1, 3: 2})
    inst = Instance.fixed(2, [Valuation.additive([0, 0]), table], [[0], [1]])
    agents = [Valuation.additive([0, 0]), table, table]
    empty = Valuation.table_of(0, {0: 0})
    refused = [
        inst,
        Instance.variable(2, agents, [2, 1]),
        Instance.variable(2, agents, [2, 1]),  # over balanced size vectors, below
        Instance.fixed(0, [Valuation.additive([]), empty], [[0], [1]]),
        Instance.variable(0, [empty, empty], [1, 1]),
    ]
    for i, case in enumerate(refused):
        for notion in (EFX, EFX0):
            with pytest.raises(UnsupportedNotionError, match="is not defined for table valuations"):
                find_fair(case, SearchConstraints(notion, balanced_partition=i == 2))
            with pytest.raises(UnsupportedNotionError):
                next(enumerate_fair(case, SearchConstraints(notion, balanced_partition=i == 2)))
    # one bundle: no other bundle to judge, so nothing is refused
    cert = find_fair(Instance.fixed(2, [table], [[0]]), SearchConstraints(EFX))
    assert cert.found and cert.allocation.bundles == (0b11,)
    # past the guard the search space is refused first: 2520 partitions of
    # 4**10 candidates each
    count = Valuation("table", 10, table=tuple(s.bit_count() for s in range(1 << 10)))
    with pytest.raises(SearchSpaceTooLargeError):
        find_fair(Instance.variable(10, [count] * 8, [2, 2, 2, 2]), SearchConstraints(EFX))


_SETUP_NOTIONS = [EF, EF1, EF2, EFX, EFX0, PROP]


def _one_valuation_plan(v, notion, k):
    """The plan of a search over one agent of valuation ``v`` among k
    groups."""
    return oracle._Plan(Instance.fixed(v.m, [v], [[0]] + [[]] * (k - 1)), SearchConstraints(notion))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("notion", _SETUP_NOTIONS, ids=[str(n) for n in _SETUP_NOTIONS])
def test_checker_setup_per_notion(notion, k):
    # what each notion means for one additive and one binary checker: the
    # running numbers, which checkers the bound leaves loose, the tests of
    # each rule and the tables sized for the block
    for kind, w in (("additive", (3, 1, 2, 0, 1)), ("binary", (1, 0, 1, 1, 0))):
        own, total = k - 1, sum(w)
        plan = _one_valuation_plan(Valuation(kind, len(w), values=w), notion, k)
        needs, rules, tables = oracle._checker_setup(plan, [own], [w])
        ranked = sorted(w, reverse=True)
        if notion == PROP:
            assert needs == [[-(-total // k) if j == own else -1 - total for j in range(k)]]
            assert rules == [(0, own, ((own, None, None, False, False, 0, 0),))]
            assert tables == [(w, 1, 0, False)]
            continue
        slack = {EF: 0, EF1: sum(ranked[:1]), EF2: sum(ranked[:2]), EFX: max(w), EFX0: max(w)}[notion]
        assert needs == [[-1 if j == own else -slack for j in range(k)]]
        loose = notion == EFX0 or (kind == "additive" and notion != EF)
        assert {test[5] for _c, _j, tests in rules for test in tests} == {slack if loose else 0}
        rivals = [j for j in range(k) if j != own]
        d = (w, 2, 0, False)  # the table of S_own - S_j
        if not loose:
            assert rules == [(0, j, ((j, own, None, False, True, 0, 0),)) for j in rivals]
            assert tables == [d] * (k - 1)
        elif notion.kind == "efc":
            assert [(c, j, len(tests)) for c, j, tests in rules] == [(0, j, notion.c + 1) for j in rivals]
            tops = [(w, 2, notion.c - i, False) for i in range(notion.c)]
            assert tables == (tops + [d]) * (k - 1)
        else:
            assert [(c, j, len(tests)) for c, j, tests in rules] == [(0, j, 1) for j in rivals for _ in "DE"]
            assert tables == [d, (w, 2, 1, notion == EFX0)] * (k - 1)
    # checkers of equal values in two groups share the table of their pair
    w = (1, 0, 1, 1, 0)
    plan = _one_valuation_plan(Valuation.binary(w), EF1, 2)
    assert oracle._checker_setup(plan, [0, 1], [w, w])[2] == [(w, 2, 0, False)]


def test_plan_is_read_once(monkeypatch):
    # one _partition_plan call per search, for fixed and variable groups
    # alike; the orbit keys and the scans walk the same plan. A plan of one
    # partition has nothing to skip, so it computes no orbit key
    calls, keyed = [], []
    plan = oracle._partition_plan
    monkeypatch.setattr(oracle, "_partition_plan", lambda *args: calls.append(args) or plan(*args))
    orbit_keys = oracle._orbit_keys
    monkeypatch.setattr(oracle, "_orbit_keys", lambda *args: keyed.append(args) or orbit_keys(*args))
    v = Valuation.additive([2, 1, 2])  # an odd total: no EF between two of them
    fixed = Instance.fixed(3, [v, v], [[0], [1]])
    variable = Instance.variable(3, [v, v, v, Valuation.additive([1, 1, 1])], [2, 2])
    for inst, partitions, keys in ((fixed, 1, 0), (variable, 6, 1)):
        calls.clear()
        keyed.clear()
        cert = find_fair(inst, SearchConstraints(EF))
        assert not cert.found and cert.stats.partitions == partitions
        assert len(calls) == 1 and len(keyed) == keys
        assert cert.stats.scans == 1  # the variable partitions share one key


def test_valuation_setup_runs_once_per_valuation(monkeypatch):
    # what the notion asks of a valuation is decided once per call, not once
    # per checker and scan. Six binary pair desirers on four goods and nine
    # all-desirers of distinct values 1..9, one of them alone: a partition
    # whose lone agent desires all goods has no EF1 allocation (a lone
    # bundle of two goods or more holds a pair whose desirer, in the other
    # group, has none of it; so the lone agent holds one good at most,
    # against three), and the nine such partitions come first, each with a
    # key of its own
    calls = []
    setup = oracle._valuation_setup
    monkeypatch.setattr(oracle, "_valuation_setup", lambda *args: calls.append(args[1]) or setup(*args))
    m = 4
    pairs = [Valuation.binary_from_desired(m, p) for p in combinations(range(m), 2)]
    alls = [Valuation.additive([f] * m) for f in range(1, 10)]
    inst = Instance.variable(m, pairs + alls, [14, 1])
    cert = find_fair(inst, SearchConstraints(EF1))
    assert cert.found and cert.partition.members(1) == (5,)
    assert cert.stats.scans == cert.stats.partitions == 10
    assert sorted(calls) == sorted(v.values for v in pairs + alls)
    calls.clear()
    assert len(list(enumerate_fair(inst, SearchConstraints(EF1)))) > 0
    assert len(calls) == 15


def test_leaf_goods_are_computed_once_per_key_list(monkeypatch):
    # L is a pure function of a scan's sizing keys once the call is fixed,
    # so the plan computes it once per list of keys, and every scan gets the
    # L of its own keys: two agents of one valuation in one group make one
    # checker and in two groups two, with more tables, so a smaller L
    computed, returned = [], []
    pick = oracle._block_goods
    monkeypatch.setattr(oracle, "_block_goods", lambda *args: computed.append(args) or pick(*args))
    memo = oracle._Plan.block_goods

    def block_goods(plan, keys):
        returned.append((plan, tuple(keys), memo(plan, keys)))
        return returned[-1][2]

    monkeypatch.setattr(oracle._Plan, "block_goods", block_goods)
    v = Valuation.additive([6, 5, 3, 3, 1, 6, 9, 8, 2, 6, 9])
    w = Valuation.additive([1, 7, 3, 8, 7, 3, 3, 4, 1, 2, 3])
    inst = Instance.variable(11, [v, v, w], [2, 1])
    assert len(list(enumerate_fair(inst, SearchConstraints(EF1)))) > 0
    plan = returned[0][0]
    direct = {keys: pick(plan.m, plan.k, keys, plan.scans, plan.judged) for _plan, keys, _goods in returned}
    assert [goods for _plan, _keys, goods in returned] == [direct[keys] for _plan, keys, _goods in returned]
    assert len(returned) == 3 and sorted(direct.values()) == [7, 8] and len(computed) == 2


@pytest.mark.parametrize("balanced", [False, True], ids=["free", "balanced"])
def test_exhausted_stats_add_up(balanced):
    # four identical agents in 2+2 with an odd total: never EF. On the m=16
    # values 2^20 + 2^g, whose subsets all have sums of their own, the bound
    # cuts all fall below the leaf-block level, and the blocks reject every
    # candidate instead
    rng = random.Random(31)
    cases = []
    for m in (7, 10, 12):
        values = [rng.randrange(1, 9) for _ in range(m)]
        values[0] += 1 - sum(values) % 2
        cases.append(values)
    cases.append([2**20 + 2**g for g in range(16)])
    for values in cases:
        m = len(values)
        inst = Instance.fixed(m, [Valuation.additive(values)] * 4, [[0, 1], [2, 3]])
        cert = find_fair(inst, SearchConstraints(EF, balanced_allocation=balanced))
        s = cert.stats
        assert not cert.found
        assert s.leaves_rejected + s.candidates_pruned == cert.examined
        assert (s.pruned > 0 or s.blocks > 0) and s.nodes < 2 * 2**m
        assert s.partitions == 1
        assert cert.to_dict()["stats"] == s.to_dict()
        assert list(s.to_dict()) == [
            "nodes",
            "pruned",
            "candidates_pruned",
            "leaves_rejected",
            "blocks",
            "partitions",
            "scans",
        ]
    # over partitions: two agents value the goods as v and two as 2v (odd
    # total, so never EF). In 2+2 the orbit keys {a}{b}, {a,b}{a,b} and
    # {b}{a} (the relabelling of the first) leave two scans for six
    # partitions, and the skipped four count as cut
    values = [2**8 + 2**g for g in range(6)]
    agents = [Valuation.additive(values)] * 2 + [Valuation.additive([2 * x for x in values])] * 2
    cert = find_fair(Instance.variable(6, agents, [2, 2]), SearchConstraints(EF, balanced_allocation=balanced))
    s = cert.stats
    assert not cert.found and cert.examined == 6 * _admissible(6, 2, balanced)
    assert s.leaves_rejected + s.candidates_pruned == cert.examined
    assert s.partitions == 6 and s.scans == 2 and s.pruned >= 4


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)  # the instances come from perfbench
    from perfbench import workloads

    return workloads


def test_slack_bound_cuts(monkeypatch):
    # the bound cuts with each notion's slack, not with the checker's whole
    # total, which would cut nothing: the additive EFX core and the EF2 core
    # with values 3 (additive, so the slack is loose) exhaust with cuts; on
    # the binary EF1 scan of a 3-CNF with an unsatisfiable core the slack is
    # exact, so the cuts are those of the exact allowance
    from groupfair.gallery import _no_efc_equal, _no_efx_additive_two_one

    core = _no_efc_equal(2)
    tripled = [Valuation.additive([3 * x for x in v.values]) for v in core.agents]
    members = [list(g) for g in core.groups.members]
    for inst, notion in ((Instance.fixed(core.m, tripled, members), EF2), (_no_efx_additive_two_one(), EFX)):
        cert = find_fair(inst, SearchConstraints(notion))
        assert not cert.found and cert.stats.pruned > 0
    workloads = _workloads(monkeypatch)
    doc = workloads.clause_instance(10, workloads.unsat_clauses(random.Random(1), 10, 4))
    cert = find_fair(instance_from_json(json.dumps(doc)), SearchConstraints(EF1))
    assert not cert.found and cert.examined == 1024
    assert (cert.stats.nodes, cert.stats.pruned, cert.stats.blocks) == (1126, 252, 0)


def test_efc_past_m_goods_is_efm(monkeypatch):
    # a bundle never holds more than m goods, so EFc for c >= m is EFm; the
    # scan reads c as min(c, m); read as given, c = 10000 spends 25 s
    # building tables
    workloads = _workloads(monkeypatch)
    doc, _notion = workloads.pad_core(workloads.CORES["additive-efx-2-1"], 14, random.Random(3))
    inst = instance_from_json(json.dumps(doc))
    expected = find_fair(inst, SearchConstraints(up_to(14)))
    start = time.perf_counter()
    cert = find_fair(inst, SearchConstraints(up_to(10000)))
    assert time.perf_counter() - start < 0.1
    assert cert == expected and cert.stats == expected.stats


def test_leaf_decisions_keep_their_accounting(monkeypatch):
    # every scan ends in a leaf block. Under the 2^10 floor the block is one
    # leaf (L = 0): a leaf the rules reject counts as a rejected leaf, not as
    # a cut, and no block is counted, so these corpus scans, whose additive
    # EFX and EFX0 checkers leave leaves to the rules, keep the counts of
    # the walk to the leaves
    entries = {e.name: e for e in corpus()}
    for name, counts in (("efx0-2-1", (98, 6, 20, 44)), ("additive-efx-2-1", (28, 1, 2, 14))):
        s = run_corpus_entry(entries[name]).certificate.stats
        assert (s.nodes, s.pruned, s.candidates_pruned, s.leaves_rejected, s.blocks) == (*counts, 0)
    # the t=6 tightness instance, one table agent per colour of K(12,6,2),
    # lies above the floor: its scan takes blocks, and the table agents
    # reject every balanced placement the blocks hand them, each one counted
    workloads = _workloads(monkeypatch)
    doc = workloads.tightness_doc(6, workloads.first_fit_colouring(6), 2)
    cert = find_fair(instance_from_json(json.dumps(doc)), SearchConstraints(EF1, balanced_allocation=True))
    s = cert.stats
    assert not cert.found and s.blocks > 0 and s.candidates_pruned == 0
    assert cert.examined == s.leaves_rejected == 924


def test_table_agents_keep_their_blocks_small():
    # table agents judge the placements the rules pass one at a time, each
    # with operations on masks of k**L bits, so a scan they judge keeps
    # k**L within _BLOCK_STEPS, where a scan with no key would take the
    # fewest goods above the block that make 16 block nodes
    assert oracle._block_goods(20, 2, [], 1, False) == 16
    assert oracle._block_goods(20, 2, [], 1, True) == 11
    assert oracle._block_goods(13, 3, [], 1, True) == 6
    # both agents want good 0 only, so the scan of 2^16 candidates exhausts
    # in 2^5 blocks of 2^11 leaves, not 2^4 of 2^12
    v = Valuation("table", 16, table=tuple(s & 1 for s in range(1 << 16)))
    cert = find_fair(Instance.fixed(16, [v, v], [[0], [1]]), SearchConstraints(EF))
    s = cert.stats
    assert not cert.found and s.blocks == 2**5 and s.leaves_rejected == cert.examined == 2**16


def _distinct_sums(m):
    """Four identical additive agents in 2+2 whose values 2^20 + 2^g give
    every subset a sum of its own and an odd total: never EF, and the
    running numbers never repeat."""
    return Instance.fixed(m, [Valuation.additive([2**20 + 2**g for g in range(m)])] * 4, [[0, 1], [2, 3]])


def test_block_table_memory_stays_bounded(monkeypatch):
    # the leaf-block tables of one call keep at most _BLOCK_BITS bits (1 MB),
    # and building one holds its placement groups next to them: on the m=20
    # distinct-sums scans, whose block sums are all distinct, the peak stays
    # under twice that, also when only the bits bound L. EF exhausts; the
    # EFX and EF2 scans find a hit at once, after building their envy tables
    monkeypatch.setattr(oracle, "_BLOCK_STEPS", 1 << 30)
    for notion, found in ((EF, False), (EFX, True), (EF2, True)):
        tracemalloc.start()
        try:
            cert = find_fair(_distinct_sums(20), SearchConstraints(notion))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.found == found and cert.stats.blocks > 0
        assert peak < 2 * oracle._BLOCK_BITS // 8
    # once the tables pass the budget the cache starts over, so a call over
    # many partitions cannot pile them up
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 1 << 12)
    rng = random.Random(13)
    blocks = oracle._Plan(Instance.fixed(6, [], [[], []]), SearchConstraints(EF))
    for g in range(8):
        blocks.linear(tuple(rng.randrange(1, 10**6) for _ in range(6)), (1, -1))
        assert blocks.bits <= 1 << 12 or len(blocks.tables) == 1


def test_leaf_blocks_cut_the_distinct_sums_scan(monkeypatch):
    # the block decides 2^L leaves in one step, so the scan visits at most
    # the 2^(21-L) nodes above it (0.44-0.75 s before the blocks, a few ms now)
    m = 20
    chosen = []
    pick = oracle._block_goods
    monkeypatch.setattr(oracle, "_block_goods", lambda *args: chosen.append(pick(*args)) or chosen[-1])
    for balanced in (False, True):
        cert = find_fair(_distinct_sums(m), SearchConstraints(EF, balanced_allocation=balanced))
        s = cert.stats
        assert not cert.found and cert.examined == (math.comb(m, m // 2) if balanced else 2**m)
        assert chosen[-1] > 0 and s.blocks > 0 and s.nodes <= 2 ** (21 - chosen[-1])
        assert s.leaves_rejected + s.candidates_pruned == cert.examined


def _block_instance(rng, k, kind):
    """A random instance of binary, additive, both (binary next to additive)
    or mixed (at least one table) agents, in fixed or variable groups."""
    m = rng.randrange(0, 8 if k == 2 else 6)
    n = rng.randrange(1, 5)
    if kind == "both":
        agents = [_random_agent(rng, rng.choice(("binary", "additive")), m) for _ in range(n)]
    else:
        agents = [_random_agent(rng, kind, m) for _ in range(n)]
    if kind == "mixed" and all(v.kind != "table" for v in agents):
        agents[0] = _random_agent(rng, "monotone", m)
    if rng.random() < 0.5:
        members = [[] for _ in range(k)]
        for a in range(n):
            members[rng.randrange(k)].append(a)
        return Instance.fixed(m, agents, members)
    cuts = sorted(rng.randrange(0, n + 1) for _ in range(k - 1))
    return Instance.variable(m, agents, [b - a for a, b in zip([0, *cuts], [*cuts, n])])


@pytest.mark.parametrize("balanced", [False, True], ids=["free", "balanced"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("notion", [EF, EF1, EF2, EFX, EFX0, PROP], ids=str)
def test_leaf_blocks_match_reference_scanner(monkeypatch, notion, k, balanced):
    # every block size L from 0 to m-1 must give the reference's hits in
    # order, the same first hit and examined count, and candidates that add
    # up, for every notion; scans with table agents take the forced L too,
    # and their tables judge the placements the blocks pass
    rng = random.Random(f"blocks-{notion}-{k}-{balanced}")
    forced = [0]
    monkeypatch.setattr(oracle, "_block_goods", lambda *args: forced[0])
    kinds = ("binary", "additive", "both") if notion in (EFX, EFX0) else ("binary", "additive", "both", "mixed")
    # the negative side: corpus cores, and per bundle one group of the
    # (c+1)-subset desirers of max(4, k*c+1) goods (c = 1 but for EF2): some
    # bundle gets c+1 goods, and the agent of another group desiring c+1 of
    # them values its own bundle at 0, so there is no EFc, and with c = 1 no
    # EF, EFX, EFX0 or PROP allocation
    c = max(notion.c, 1)
    goods = max(4, k * c + 1)
    desirers = [Valuation.binary_from_desired(goods, s) for s in combinations(range(goods), c + 1)]
    n = len(desirers)
    crowded = Instance.fixed(goods, desirers * k, [list(range(n * g, n * g + n)) for g in range(k)])
    decided = hit_in_block = none = 0
    tables_decided = tables_hit = 0  # the same, for scans with table agents
    for i in range(25):
        if i == 24:
            inst = crowded
        elif i % 3 == 2:
            inst = _repeating_instance(rng, k, notion, core=True)
        else:
            inst = _block_instance(rng, k, kinds[i % len(kinds)])
        m = inst.m
        cons = SearchConstraints(notion, balanced_allocation=balanced)
        count, assignments, with_partition = _partition_plan(inst, cons)
        parts = list(assignments)
        full = [list(_reference_hits(inst, gof, notion, balanced)) for gof in parts]
        expected = [(gof if with_partition else None, b) for gof, hits in zip(parts, full) for b in hits]
        none += not expected
        tables = any(v.kind == "table" for v in inst.agents)
        for block in range(max(m, 1)):
            forced[0] = block
            for gof, hits in zip(parts, full):
                stats = SearchStats()
                assert _scan(inst, gof, notion, balanced, stats) == hits
                assert stats.leaves_rejected + stats.candidates_pruned + len(hits) == _admissible(m, k, balanced)
                decided += stats.blocks
                hit_in_block += bool(stats.blocks and hits)
                if tables:
                    tables_decided += stats.blocks
                    tables_hit += bool(stats.blocks and hits)
            got = [(p and p.assignment, a.bundles) for p, a in enumerate_fair(inst, cons)]
            assert got == expected
            cert = find_fair(inst, cons)
            assert cert.found == bool(expected)
            if expected:
                assert (cert.partition and cert.partition.assignment, cert.allocation.bundles) == expected[0]
            else:
                assert cert.examined == count * _admissible(m, k, balanced)
                assert cert.stats.leaves_rejected + cert.stats.candidates_pruned == cert.examined
    # with one group every notion holds: there is no other bundle to envy,
    # and the PROP share is the whole
    assert decided > 0 and hit_in_block > 0 and (none > 0 or k == 1)
    if "mixed" in kinds:
        assert tables_decided > 0 and tables_hit > 0


def _reference_orbit(inst, gof):
    """A partition's orbit key spelled out: per group the set of its
    members' valuations (values, or the table for table agents), sorted."""
    groups = []
    for g in range(inst.k):
        members = [v for v, own in zip(inst.agents, gof) if own == g]
        groups.append(tuple(sorted({("table", v.table) if v.kind == "table" else ("values", v.values) for v in members})))
    return tuple(sorted(groups))


def _orbit_instance(rng, k):
    """A variable-group instance whose agents repeat one to three
    valuations, among them twins: equal values as another kind (binary
    against additive) or an equal table in another object."""
    m = rng.randrange(1, 5 if k == 2 else 4)
    pool = [_random_agent(rng, "mixed", m) for _ in range(rng.randrange(1, 4))]
    for v in pool[:]:
        if rng.random() < 0.3:
            if v.kind == "table":
                pool.append(Valuation("table", m, table=tuple(list(v.table))))
            else:
                pool.append(Valuation.additive(v.values))
    n = rng.randrange(2, 7 if k == 2 else 6)
    agents = [rng.choice(pool) for _ in range(n)]
    cuts = sorted(rng.randrange(0, n + 1) for _ in range(k - 1))
    return Instance.variable(m, agents, [b - a for a, b in zip([0, *cuts], [*cuts, n])])


def test_equal_tables_in_a_group_are_one_checker():
    # a checker stands for every agent of its group with the same valuation,
    # tables too: two copies of one table in a group (equal, not the same
    # object) give one table checker, and a copy in the other group another
    rng = random.Random(41)
    m = 4
    found = none = 0
    for _ in range(12):
        entries = {mask: rng.randrange(0, 7) for mask in range(1 << m)}
        table, twin = Valuation.table_of(m, entries), Valuation.table_of(m, entries)
        agents = [table, twin, Valuation.additive([rng.randrange(0, 5) for _ in range(m)]), table]
        inst = Instance.fixed(m, agents, [[0, 1, 2], [3]])
        plan = oracle._Plan(inst, SearchConstraints(EF))
        owns, _agents, tables = oracle._checkers(plan, inst.assignment)
        assert owns == [0] and tables == [(table, 0), (table, 1)]
        for notion in (EF, EF1, PROP):
            for balanced in (False, True):
                stats = SearchStats()
                hits = _scan(inst, inst.assignment, notion, balanced, stats)
                assert hits == list(_reference_hits(inst, inst.assignment, notion, balanced))
                found += bool(hits)
                none += not hits
    assert found > 0 and none > 0


@pytest.mark.parametrize("balanced_allocation", [False, True], ids=["free-goods", "balanced-goods"])
@pytest.mark.parametrize("balanced_partition", [False, True], ids=["declared", "balanced-agents"])
@pytest.mark.parametrize("k", [2, 3])
def test_partition_orbits_match_plain_loop(k, balanced_partition, balanced_allocation):
    # against a plain loop that scans every partition with the reference
    # scanner: the same enumerate_fair pairs, first (partition, allocation)
    # and examined count, candidates that add up, and exactly one scan per
    # orbit key met up to the first hit
    rng = random.Random(f"orbits-{k}-{balanced_partition}-{balanced_allocation}")
    skipped = found = none = 0
    for _ in range(30):
        inst = _orbit_instance(rng, k)
        notion = rng.choice((EF, EF1, PROP))
        cons = SearchConstraints(notion, balanced_allocation, balanced_partition)
        count, assignments, _ = _partition_plan(inst, cons)
        parts = list(assignments)
        full = [list(_reference_hits(inst, gof, notion, balanced_allocation)) for gof in parts]
        expected = [(gof, b) for gof, hits in zip(parts, full) for b in hits]
        assert [(p.assignment, a.bundles) for p, a in enumerate_fair(inst, cons)] == expected
        cert = find_fair(inst, cons)
        s = cert.stats
        first = next((i for i, hits in enumerate(full) if hits), None)
        covered = count if first is None else first + 1
        keys = {_reference_orbit(inst, gof) for gof in parts[:covered]}
        assert s.partitions == covered and s.scans == len(keys)
        if first is None:
            assert not cert.found and cert.examined == count * _admissible(inst.m, k, balanced_allocation)
            assert s.leaves_rejected + s.candidates_pruned == cert.examined
            none += 1
        else:
            assert (cert.partition.assignment, cert.allocation.bundles) == (parts[first], full[first][0])
            found += 1
        skipped += s.partitions - s.scans
    assert skipped > 0 and found > 0 and none > 0


def test_orbit_keys_ignore_group_sizes():
    # four agents value three goods alike with an odd total, one other agent
    # differs, in declared sizes (3, 2): never EF, since an A agent sits in
    # both groups. The odd agent B in the group of three or in the group of
    # two gives the unsized key {A,B},{A} either way; paired with the sizes
    # these were two keys and two scans, now one scan covers all ten
    a, b = Valuation.additive([1, 1, 1]), Valuation.additive([2, 0, 1])
    inst = Instance.variable(3, [a, a, a, a, b], [3, 2])
    cons = SearchConstraints(EF)
    count, assignments, _ = _partition_plan(inst, cons)
    parts = list(assignments)
    assert count == 10 and not any(list(_reference_hits(inst, gof, EF, False)) for gof in parts)
    sized = set()
    for gof in parts:
        sets = [tuple(sorted({v.values for v, own in zip(inst.agents, gof) if own == g})) for g in (0, 1)]
        sized.add(tuple(sorted((gof.count(g), sets[g]) for g in (0, 1))))
    assert len(sized) == 2 and len({_reference_orbit(inst, gof) for gof in parts}) == 1
    cert = find_fair(inst, cons)
    s = cert.stats
    assert not cert.found and cert.examined == 10 * 2**3
    assert s.partitions == 10 and s.scans == len(sized) - 1
    assert s.leaves_rejected + s.candidates_pruned == cert.examined
    assert list(enumerate_fair(inst, cons)) == []


def test_valuations_are_compared_once_per_call(monkeypatch):
    # which agents share a valuation is decided once per call and read by
    # the orbit keys and the checkers of every partition: a table is hashed
    # once per agent, not once per partition scanned. Every agent values a
    # bundle at a multiple of its v-sum, whose total is odd, so two nonempty
    # groups never split it without envy and every key is scanned
    calls = []
    same = oracle._sameness
    monkeypatch.setattr(oracle, "_sameness", lambda v: calls.append(v) or same(v))
    m, v = 4, [1, 2, 1, 1]
    table = Valuation.table_of(m, {s: 3 * sum(x for g, x in enumerate(v) if s >> g & 1) for s in range(1 << m)})
    pool = [Valuation.additive(v), Valuation.additive([2 * x for x in v]), table]
    inst = Instance.variable(m, [pool[a % 3] for a in range(7)], [4, 3])
    for cons in (SearchConstraints(EF), SearchConstraints(EF, balanced_partition=True)):
        calls.clear()
        cert = find_fair(inst, cons)
        assert len(calls) == inst.n
        assert not cert.found and cert.stats.partitions > 30 and cert.stats.scans > 1
        calls.clear()
        assert list(enumerate_fair(inst, cons)) == []
        assert len(calls) == inst.n


@pytest.mark.parametrize("m,goods", [(3, 4), (4, 3)], ids=["4-goods-in-3", "3-goods-in-4"])
def test_valuation_goods_must_match_instance(m, goods):
    # at one time find_fair found an allocation for the first and leaked an
    # error about a bundle mask for the second; now neither can be built
    agents = [Valuation.additive([1] * goods), Valuation.additive([1] * m)]
    with pytest.raises(ValueError, match=f"agent 0: valuation covers {goods} goods, instance has {m}"):
        Instance.fixed(m, agents, [[0], [1]])


def test_notion_monotonicity_on_corpus():
    # impossibility at a weaker notion implies it at every stronger one
    from groupfair.gallery import _no_efc_equal

    inst = _no_efc_equal(1)
    assert not find_fair(inst, SearchConstraints(EF1)).found
    assert not find_fair(inst, SearchConstraints(EF)).found
    assert find_fair(inst, SearchConstraints(EF2)).found


def test_oracle_agrees_with_binary_solver():
    rng = random.Random(29)
    for _ in range(150):
        m = rng.randrange(0, 7)
        first = rng.randrange(1, 5)
        desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(first + 1)]
        agents = [Valuation.binary_from_desired(m, d) for d in desired]
        inst = Instance.fixed(m, agents, [list(range(first)), [first]])
        cert = find_fair(inst, SearchConstraints(EF1))
        assert cert.found  # shapes up to (4,1) always admit EF1
        alloc = solve_ef1_binary(inst)
        assert is_fair(inst, alloc, EF1).overall


def test_corpus_shape():
    entries = corpus()
    assert len(entries) == 15
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    negatives = [e for e in entries if not e.expect_found]
    assert all(e.expected_examined is not None for e in negatives)


def test_corpus_all_pass():
    for entry in corpus():
        result = run_corpus_entry(entry)
        assert result.passed, f"{result.name}: {result.detail}"
        assert result.elapsed < 1.0
        d = result.to_dict()
        assert d["name"] == entry.name and d["passed"]


def test_certificate_to_dict():
    assert Certificate(False, examined=6).to_dict() == {
        "outcome": "exhausted-none",
        "examined": 6,
    }
    d = Certificate(True, allocation=Allocation.of([[0], [1]])).to_dict()
    assert d["outcome"] == "found" and d["allocation"] == [[0], [1]]
    stats = SearchStats(nodes=9, pruned=4, candidates_pruned=5, leaves_rejected=1)
    assert Certificate(False, examined=6, stats=stats).to_dict() == {
        "outcome": "exhausted-none",
        "examined": 6,
        "stats": {
            "nodes": 9,
            "pruned": 4,
            "candidates_pruned": 5,
            "leaves_rejected": 1,
            "blocks": 0,
            "partitions": 0,
            "scans": 0,
        },
    }


def _entry(name, **changes):
    entry = next(e for e in corpus() if e.name == name)
    return dataclasses.replace(entry, **changes)


_TWO_EQUAL = Instance.fixed(4, [Valuation.additive([1, 1, 1, 1])] * 2, [[0], [1]])
# every good to the group of five: the lone agent envies
_ALL_TO_FIVE = Certificate(True, allocation=Allocation.of([[0, 1, 2, 3], []]))
# EF1 without the balance requirement: bundles of three goods and one
_FREE_HIT = find_fair(_entry("binary-balanced-5-1-free").instance, SearchConstraints(EF1))
# EFX in groups of four agents and two
_FOUR_TWO_HIT = find_fair(Instance.variable(3, _entry("efx-balanced-agents").instance.agents, [4, 2]),
                          SearchConstraints(EFX))


@pytest.mark.parametrize(
    "entry, unfair, detail",
    [
        (_entry("binary-6-1", expect_found=True), False, "expected found, got exhausted-none"),
        (_entry("binary-balanced-5-1-free", expect_found=False), False,
         "expected exhausted-none, got found"),
        (_entry("binary-6-1", expected_examined=17), False, "examined 16, expected 17"),
        (_entry("binary-6-1", expect_found=True, expected_examined=15), False,
         "expected found, got exhausted-none; examined 16, expected 15"),
        (_entry("binary-6-1", extra_check=lambda inst: f"{inst.n} agents flagged"), False,
         "7 agents flagged"),
        # the singleton check's two failures: an EFX allocation of two
        # pairs, and an instance with no EFX allocation at all
        (_entry("efx-balanced-individual-m3", instance=_TWO_EQUAL), False,
         "EFX allocation ((2, 3), (0, 1)) has no singleton bundle"),
        (_entry("additive-efx-2-1", extra_check=gallery._singleton_bundle_check), False,
         "no EFX allocation exists at all"),
        (_entry("binary-balanced-5-1-free"), True, "found allocation fails re-verification"),
        # an EF1 hit whose bundles break the balance the entry asks for
        (_entry("binary-balanced-5-1", expect_found=True, expected_examined=None), _FREE_HIT,
         "found allocation fails re-verification"),
        # an EFX hit whose groups break the balance the entry asks for
        (_entry("efx-balanced-agents", expect_found=True, expected_examined=None), _FOUR_TWO_HIT,
         "found allocation fails re-verification"),
        # every good in both bundles
        (_entry("binary-balanced-5-1-free"), Certificate(True, Allocation((0b1111, 0b1111))),
         "found allocation fails re-verification"),
    ],
)
def test_corpus_entry_failures(monkeypatch, entry, unfair, detail):
    if unfair:  # True, or the certificate to find
        found = unfair if isinstance(unfair, Certificate) else _ALL_TO_FIVE
        monkeypatch.setattr(oracle, "find_fair", lambda inst, cons: found)
    result = run_corpus_entry(entry)
    assert result.passed is False
    assert result.detail == detail
    assert result.to_dict()["passed"] is False
