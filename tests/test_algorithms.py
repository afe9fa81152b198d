"""Constructive procedures: pairing split, cut-and-choose, knife, proportional, draft."""

import random

import pytest

from groupfair import (
    EF1,
    GroupShapeError,
    Instance,
    UnsupportedValuationError,
    Valuation,
    cut_and_choose_ef1,
    ef1_two_one,
    exact1_partition,
    is_balanced,
    is_exact1,
    is_fair,
    proportional_k_groups,
    rotating_knife,
    round_robin,
)
from groupfair.algorithms import preference_order
from groupfair.fairness import fair_toward
from groupfair.model import full_mask


def random_additive(rng, m, top=9):
    return Valuation.additive([rng.randrange(0, top + 1) for _ in range(m)])


def random_table(rng, m, top=9):
    u = {0: 0}
    for mask in range(1, 1 << m):
        floor = max(u[mask & ~(1 << g)] for g in range(m) if mask >> g & 1)
        u[mask] = max(rng.randrange(0, top + 1), floor)
    return Valuation.table_of(m, u)


def test_preference_order():
    v = Valuation.additive([3, 7, 3, 0])
    assert preference_order(v) == (1, 0, 2, 3)
    assert preference_order(v, extra_zero_good=True) == (1, 0, 2, 3, 4)
    with pytest.raises(UnsupportedValuationError):
        preference_order(Valuation.table_of(1, {0: 0, 1: 1}))


def test_exact1_partition_small():
    assert exact1_partition(Valuation.additive([]), Valuation.additive([])) == (0, 0)
    a, b = exact1_partition(Valuation.additive([5]), Valuation.additive([3]))
    assert (a | b) == 1 and (a & b) == 0
    v1 = Valuation.additive([9, 7, 4, 1])
    v2 = Valuation.additive([1, 2, 3, 4])
    x, y = exact1_partition(v1, v2)
    assert is_exact1(v1, (x, y)) and is_exact1(v2, (x, y))


def test_exact1_partition_is_deterministic():
    v1 = Valuation.additive([2, 2, 2, 2])
    v2 = Valuation.additive([1, 1, 1, 1])
    assert exact1_partition(v1, v2) == exact1_partition(v1, v2)


def test_exact1_partition_fuzz():
    rng = random.Random(21)
    for _ in range(500):
        m = rng.randrange(0, 13)
        v1, v2 = random_additive(rng, m), random_additive(rng, m)
        x, y = exact1_partition(v1, v2)
        assert x & y == 0 and (x | y) == full_mask(m)
        assert abs(x.bit_count() - y.bit_count()) <= 1
        assert is_exact1(v1, (x, y))
        assert is_exact1(v2, (x, y))


def test_exact1_rejects_mismatched_m():
    with pytest.raises(ValueError):
        exact1_partition(Valuation.additive([1]), Valuation.additive([1, 2]))


def test_ef1_two_one():
    inst = Instance.fixed(
        4,
        [
            Valuation.additive([4, 3, 2, 1]),
            Valuation.additive([1, 2, 3, 4]),
            Valuation.additive([9, 1, 1, 1]),
        ],
        [[0, 1], [2]],
    )
    alloc = ef1_two_one(inst)
    assert is_fair(inst, alloc, EF1).overall
    # the singleton takes the bundle with good 0
    assert inst.agents[2].value(alloc.bundles[1]) >= inst.agents[2].value(alloc.bundles[0])


def test_ef1_two_one_singleton_first_group():
    inst = Instance.fixed(
        2,
        [Valuation.additive([1, 1]), Valuation.additive([3, 1]), Valuation.additive([1, 3])],
        [[0], [1, 2]],
    )
    alloc = ef1_two_one(inst)
    assert is_fair(inst, alloc, EF1).overall


def test_ef1_two_one_shape_errors():
    agents = [Valuation.additive([1]), Valuation.additive([1])]
    with pytest.raises(GroupShapeError):
        ef1_two_one(Instance.fixed(1, agents, [[0], [1]]))
    with pytest.raises(GroupShapeError):
        ef1_two_one(Instance.variable(1, agents, [1, 1]))


def test_cut_and_choose_basic():
    agents = [Valuation.additive([5, 1, 1, 1]), Valuation.additive([1, 1, 1, 5])]
    part, alloc = cut_and_choose_ef1(agents, 1, 1)
    assert part.sizes() == (1, 1)
    inst = Instance.fixed(4, agents, part.groups_lists())
    assert is_fair(inst, alloc, EF1).overall


def test_cut_and_choose_empty_first_group():
    agents = [Valuation.additive([2, 3])]
    part, alloc = cut_and_choose_ef1(agents, 0, 1)
    assert part.sizes() == (0, 1)
    assert alloc.bundles[0] == 0 and alloc.bundles[1] == 0b11


def test_cut_and_choose_no_agents():
    part, alloc = cut_and_choose_ef1([], 0, 0)
    assert part.assignment == () and alloc.bundles == (0, 0)


def test_cut_and_choose_size_errors():
    agents = [Valuation.additive([1])]
    with pytest.raises(GroupShapeError):
        cut_and_choose_ef1(agents, 2, 1)
    with pytest.raises(GroupShapeError):
        cut_and_choose_ef1(agents, -1, 2)


def test_cut_and_choose_fuzz_tables():
    # monotone tables exercise the non-additive EF1 path
    rng = random.Random(33)
    for _ in range(150):
        n = rng.randrange(1, 5)
        m = rng.randrange(0, 6)
        agents = [random_table(rng, m) for _ in range(n)]
        n1 = rng.randrange(0, n + 1)
        part, alloc = cut_and_choose_ef1(agents, n1, n - n1)
        assert part.sizes() == (n1, n - n1)
        inst = Instance.fixed(m, agents, part.groups_lists())
        assert is_fair(inst, alloc, EF1).overall


def test_rotating_knife_balanced_and_fair():
    rng = random.Random(44)
    for _ in range(150):
        n = rng.randrange(1, 7)
        m = rng.randrange(0, 8)
        agents = [random_table(rng, m) if rng.random() < 0.5 else random_additive(rng, m) for _ in range(n)]
        part, alloc = rotating_knife(agents)
        assert is_balanced(part)
        assert is_balanced(alloc)
        inst = Instance.fixed(m, agents, part.groups_lists())
        assert is_fair(inst, alloc, EF1).overall


def test_rotating_knife_circle_order():
    # goods sit on the circle in index order, so the first cut splits 0,1 | 2,3
    agents = [Valuation.additive([1, 2, 3, 4])]
    part, alloc = rotating_knife(agents)
    assert is_balanced(alloc)
    assert sorted(alloc.bundles) == [0b0011, 0b1100]
    with pytest.raises(ValueError):
        rotating_knife([])


def test_proportional_threshold_exact():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 5)
        m = rng.randrange(0, 9)
        agents = [random_additive(rng, m) for _ in range(n)]
        cuts = sorted(rng.randrange(0, n + 1) for _ in range(k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        part, alloc = proportional_k_groups(agents, sizes)
        assert part.sizes() == tuple(sizes)
        for a, v in enumerate(agents):
            got = v.value(alloc.bundles[part.assignment[a]])
            umax = max(v.values) if m else 0
            assert k * got >= v.value(full_mask(m)) - (k - 1) * umax


def test_proportional_shape_errors():
    with pytest.raises(GroupShapeError):
        proportional_k_groups([Valuation.additive([1])], [])
    with pytest.raises(GroupShapeError):
        proportional_k_groups([Valuation.additive([1])], [2])
    with pytest.raises(UnsupportedValuationError):
        proportional_k_groups([Valuation.table_of(1, {0: 0, 1: 1})], [1])


def test_round_robin_draft_order():
    agents = [Valuation.additive([9, 5, 1, 0]), Valuation.additive([9, 5, 1, 0])]
    alloc = round_robin(agents)
    # agent 0 picks goods 0 then 2, agent 1 gets 1 then 3
    assert alloc.bundles == (0b0101, 0b1010)


def test_round_robin_individual_ef1():
    rng = random.Random(66)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = rng.randrange(0, 9)
        agents = [random_additive(rng, m) for _ in range(n)]
        alloc = round_robin(agents)
        for a, v in enumerate(agents):
            for b in range(n):
                if b != a:
                    assert fair_toward(v, alloc.bundles[a], alloc.bundles[b], EF1)
    with pytest.raises(ValueError):
        round_robin([])
