"""Fairness predicates: envy relaxations, witnesses, proportionality, balance."""

import random
from itertools import combinations

import pytest

from groupfair import (
    EF,
    EF1,
    EF2,
    EFX,
    EFX0,
    PROP,
    Allocation,
    Instance,
    Notion,
    UnsupportedNotionError,
    Valuation,
    fair_toward,
    is_balanced,
    is_exact1,
    is_fair,
    parse_notion,
    up_to,
)
from groupfair.fairness import SearchConstraints, agent_verdict, check_answer, table_accepts
from groupfair.model import AgentPartition, full_mask


def test_notion_construction_and_str():
    assert str(EF) == "ef"
    assert str(EF1) == "ef1"
    assert str(up_to(3)) == "ef3"
    assert str(EFX0) == "efx0"
    with pytest.raises(ValueError):
        Notion("efc", 0)
    with pytest.raises(ValueError):
        Notion("ef", 1)
    with pytest.raises(ValueError):
        Notion("envy")


@pytest.mark.parametrize("text,notion", [
    ("ef", EF), ("EF1", EF1), ("ef2", EF2), ("ef7", up_to(7)),
    ("efx", EFX), ("efx0", EFX0), ("prop", PROP),
])
def test_parse_notion(text, notion):
    assert parse_notion(text) == notion


def test_parse_notion_rejects_garbage():
    # c is ASCII decimal without a leading zero: ef01 and the Arabic-Indic
    # ef1 are not ef1, and ef0 is no notion either
    for bad in ("", "ef-1", "ef+1", "efy", "proportional", "ef0", "ef01", "ef\u0661", "ef\u00b9"):
        with pytest.raises(ValueError, match="is not a fairness notion"):
            parse_notion(bad)


def test_fair_toward_additive():
    v = Valuation.additive([5, 3, 1])
    # own {2}=1 vs other {0,1}=8: EF no, EF1 drops the 5 -> 1 >= 3 no, EF2 yes
    assert not fair_toward(v, 0b100, 0b011, EF)
    assert not fair_toward(v, 0b100, 0b011, EF1)
    assert fair_toward(v, 0b100, 0b011, EF2)
    # own {0}=5 vs other {1,2}=4: already EF
    assert fair_toward(v, 0b001, 0b110, EF)


def test_efx_checks_every_positive_good():
    v = Valuation.additive([4, 4, 1])
    # own {2}=1, other {0,1}=8: dropping either 4 leaves 4 > 1
    assert not fair_toward(v, 0b100, 0b011, EFX)
    # EFX binds on the smallest positive good: own {2}=3, other {0,1}=6;
    # dropping the 5 cures envy (EF1) but dropping the 1 leaves 5 > 3
    w = Valuation.additive([5, 1, 3])
    assert fair_toward(w, 0b100, 0b011, EF1)
    assert not fair_toward(w, 0b100, 0b011, EFX)


def test_efx0_vs_efx_on_worthless_goods():
    v = Valuation.additive([2, 0])
    # own empty vs other {0,1}: EFX skips the worthless good 1, EFX0 must
    # survive its removal too and the envy stays
    assert fair_toward(v, 0, 0b11, EFX)
    assert not fair_toward(v, 0, 0b11, EFX0)


def test_binary_fast_path_matches_generic():
    rng = random.Random(5)
    notions = (EF, EF1, EF2, EFX, EFX0)
    for _ in range(300):
        m = rng.randrange(0, 7)
        vals = [rng.randrange(0, 2) for _ in range(m)]
        bin_v = Valuation.binary(vals)
        add_v = Valuation.additive(vals)  # same function, no fast path
        split = rng.randrange(0, 1 << m) if m else 0
        own = split
        other = full_mask(m) ^ split
        for notion in notions:
            assert fair_toward(bin_v, own, other, notion) == fair_toward(add_v, own, other, notion)


def test_efx_on_tables_is_rejected():
    t = Valuation.table_of(1, {0: 0, 1: 1})
    with pytest.raises(UnsupportedNotionError):
        fair_toward(t, 0, 1, EFX)
    with pytest.raises(UnsupportedNotionError):
        fair_toward(t, 0, 1, EFX0)
    # EFc on tables tries every removal set
    assert fair_toward(t, 0, 1, EF1)


def test_table_efc_tries_removal_sets():
    # value jumps only when both goods are present; dropping either one works
    t = Valuation.table_of(2, {0: 0, 1: 0, 2: 0, 3: 9})
    assert fair_toward(t, 0, 0b11, EF1)
    assert not fair_toward(t, 0, 0b11, EF)
    # against every removal set of at most c goods, on a table that grows
    # with the bundle but not monotonically, so a larger removal set can
    # leave more value than a smaller one
    rng = random.Random(41)
    m = 5
    t = Valuation.table_of(m, {mask: 2 * mask.bit_count() + rng.randrange(0, 4) for mask in range(1 << m)})
    for other in range(1 << m):
        goods = [g for g in range(m) if other >> g & 1]
        for c in range(1, 5):
            least = min(
                t.value(other & ~sum(1 << g for g in drop))
                for size in range(min(c, len(goods)) + 1)
                for drop in combinations(goods, size)
            )
            for own in range(1 << m):
                if not own & other:
                    assert fair_toward(t, own, other, up_to(c)) == (t.value(own) >= least)


def _least_after_removals(table, other, c):
    """Least value of ``other`` over every removal set of at most c goods."""
    goods = [g for g in range(len(table).bit_length() - 1) if other >> g & 1]
    return min(
        table[other & ~sum(1 << g for g in drop)]
        for size in range(min(c, len(goods)) + 1)
        for drop in combinations(goods, size)
    )


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
def test_table_accepts_matches_every_removal_set(monotone):
    rng = random.Random(f"table-accepts-{monotone}")
    for _ in range(30):
        m = rng.randrange(0, 6)
        table = [0] * (1 << m)
        for mask in range(1, 1 << m):
            if monotone:
                table[mask] = max(table[mask & ~(1 << g)] for g in range(m) if mask >> g & 1) + rng.randrange(3)
            else:
                table[mask] = rng.randrange(8)
        table = tuple(table)
        top = max(table)
        # other = 0 included, and c up to 3 exceeds |other| for small bundles
        for other in range(1 << m):
            for c in range(4):
                least = _least_after_removals(table, other, c)
                for mine in range(-1, top + 2):
                    assert table_accepts(table, mine, other, c) == (mine >= least), (table, mine, other, c)


def test_prop_needs_whole_allocation():
    with pytest.raises(ValueError):
        fair_toward(Valuation.additive([1]), 0, 1, PROP)


def test_agent_verdict_witnesses():
    v = Valuation.additive([5, 3, 1])
    alloc = Allocation.of([[2], [0, 1]])
    ok, witness = agent_verdict(v, alloc, 0, EF1)
    assert not ok and witness == (1, None)
    ok, witness = agent_verdict(v, alloc, 0, EFX)
    assert not ok and witness == (1, 0)  # smallest offending good
    ok, witness = agent_verdict(v, alloc, 1, EF)
    assert ok and witness is None


def test_binary_efx_witnesses_match_additive_rule():
    # binary agents decide EFX/EFX0 by counting; the witness good must still
    # be the one the additive removal rule names on the same 0/1 values
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randrange(0, 7)
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(0, 2) for _ in range(m)] for _ in range(n)]
        members = [[a for a in range(n) if a % 2 == 0], [a for a in range(n) if a % 2 == 1]]
        binary = Instance.fixed(m, [Valuation.binary(r) for r in rows], members)
        additive = Instance.fixed(m, [Valuation.additive(r) for r in rows], members)
        bundles = [0, 0]
        for g in range(m):
            bundles[rng.randrange(2)] |= 1 << g
        alloc = Allocation(tuple(bundles))
        for notion in (EFX, EFX0):
            assert is_fair(binary, alloc, notion) == is_fair(additive, alloc, notion)


def test_agent_verdict_prop():
    v = Valuation.additive([3, 1])
    alloc = Allocation.of([[0], [1]])
    assert agent_verdict(v, alloc, 0, PROP) == (True, None)
    assert agent_verdict(v, alloc, 1, PROP) == (False, None)


def test_is_fair_fixed_groups():
    inst = Instance.fixed(
        2,
        [Valuation.additive([1, 0]), Valuation.additive([0, 1])],
        [[0], [1]],
    )
    report = is_fair(inst, Allocation.of([[0], [1]]), EF)
    assert report.overall and report.witnesses == {}
    report = is_fair(inst, Allocation.of([[1], [0]]), EF)
    assert not report.overall
    assert report.per_agent == (False, False)
    assert report.to_dict()["witnesses"]["0"] == {"group": 1, "good": None}


def test_is_fair_variable_needs_partition():
    inst = Instance.variable(2, [Valuation.binary([1, 1])], [1, 0])
    alloc = Allocation.of([[0], [1]])
    with pytest.raises(ValueError):
        is_fair(inst, alloc, EF1)
    part = AgentPartition((0,), 2)
    assert is_fair(inst, alloc, EF1, part).overall


def test_is_fair_rejects_mismatches():
    inst = Instance.fixed(2, [Valuation.binary([1, 1])], [[0]])
    with pytest.raises(ValueError):
        is_fair(inst, Allocation.of([[0], [1]]), EF1)  # k mismatch
    with pytest.raises(ValueError):
        is_fair(inst, Allocation.of([[0]]), EF1)  # goods not covered
    with pytest.raises(ValueError):
        is_fair(inst, Allocation.of([[0, 1]]), EF1, AgentPartition((0,), 1))
    # a partition into three groups of a two-group instance was judged as if
    # the instance had three; sizes other than the declared ones still pass
    a = Valuation.additive([1, 1])
    two = Instance.variable(2, [a, a], [2, 0])
    with pytest.raises(ValueError, match="^partition has 3 groups, instance has 2$"):
        is_fair(two, Allocation((1, 2, 0)), EF1, partition=AgentPartition((0, 2), 3))
    assert is_fair(two, Allocation((1, 2)), EF1, partition=AgentPartition((0, 1), 2)).overall


@pytest.mark.parametrize(
    "assignment, k",
    [((0, 1, 0, 1), 2), ((0, 1, 2), 3)],
    ids=["four-agents", "three-groups"],
)
def test_check_answer_names_partitions_of_another_shape(assignment, k):
    # under balanced_partition a partition of the wrong agent count or group
    # count breaks the group sizes; it once reached is_fair, which raised
    v = Valuation.additive([1, 2, 3])
    inst = Instance.variable(3, [v] * 3, [2, 1])
    claim = SearchConstraints(EF1, balanced_partition=True)
    alloc = Allocation.of([[0, 1], [2]])
    assert check_answer(inst, alloc, AgentPartition(assignment, k), claim) == ("group sizes", None)
    failure, report = check_answer(inst, alloc, AgentPartition((0, 1, 0), 2), claim)
    assert failure is None and report.overall


def test_is_exact1():
    v = Valuation.additive([4, 3, 2, 1])
    assert is_exact1(v, (0b1001, 0b0110))  # 5 vs 5
    assert is_exact1(v, (0b0001, 0b1110))  # 4 vs 6, drop one good each way
    assert not is_exact1(v, (0, 0b1111))
    with pytest.raises(ValueError):
        is_exact1(v, (0b0011, 0b0110))


def test_is_balanced():
    assert is_balanced(Allocation.of([[0, 1], [2]]))
    assert not is_balanced(Allocation.of([[0, 1, 2], []]))
    assert is_balanced(AgentPartition((0, 1, 0), 2))
    assert is_balanced([2, 3, 2])
    assert not is_balanced([1, 3])
    assert is_balanced([])


def test_hierarchy_spot_check():
    # one randomized pass; the heavy version lives in the fuzz suites
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(0, 6)
        v = Valuation.additive([rng.randrange(0, 5) for _ in range(m)])
        own = rng.randrange(0, 1 << m) if m else 0
        rest = full_mask(m) ^ own
        if fair_toward(v, own, rest, EFX0):
            assert fair_toward(v, own, rest, EFX)
        if fair_toward(v, own, rest, EFX):
            assert fair_toward(v, own, rest, EF1)
        if fair_toward(v, own, rest, EF1):
            assert fair_toward(v, own, rest, EF2)
