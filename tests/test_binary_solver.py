"""Reduction rules and the two-group binary EF1 solver."""

import logging
import random
from itertools import combinations

import pytest

from groupfair import (
    EF1,
    FairAllocationNotFound,
    GroupShapeError,
    Instance,
    UnsupportedValuationError,
    Valuation,
    is_fair,
    preprocess,
    replay_trace,
    solve_ef1_binary,
)
from groupfair import Certificate, SearchConstraints, binary_solver, find_fair, oracle
from groupfair.binary_solver import ReductionTrace, TraceStep, _State, reducible_shape
from groupfair.fairness import fair_toward
from groupfair.model import Allocation, allocation_violations


def bin_inst(m, desired_sets, groups):
    agents = [Valuation.binary_from_desired(m, d) for d in desired_sets]
    return Instance.fixed(m, agents, groups)


def test_shape_gate():
    assert reducible_shape(5, 1) and reducible_shape(1, 5)
    assert reducible_shape(3, 2) and reducible_shape(2, 3)
    assert reducible_shape(0, 0) and reducible_shape(4, 0)
    assert not reducible_shape(6, 1)
    assert not reducible_shape(4, 2)
    assert not reducible_shape(3, 3)


def test_solver_rejects_wrong_inputs():
    with pytest.raises(GroupShapeError):
        solve_ef1_binary(bin_inst(1, [[0]], [[0]]))
    with pytest.raises(GroupShapeError):
        solve_ef1_binary(Instance.variable(1, [Valuation.binary([1])], [1, 0]))
    add = Instance.fixed(1, [Valuation.additive([2]), Valuation.binary([1])], [[0], [1]])
    with pytest.raises(UnsupportedValuationError):
        solve_ef1_binary(add)


def test_p1_sends_undesired_goods_across():
    # good 0 desired only by group 0, good 1 only by group 1
    inst = bin_inst(2, [[0], [1]], [[0], [1]])
    partial, reduced, trace = preprocess(inst)
    assert reduced.m == 0
    assert partial == (0b01, 0b10)
    assert all(s.rule == "P1" for s in trace.steps)


def test_p3_pair_on_shared_goods():
    # both agents desire both goods: one each, tagged as a singleton pair
    inst = bin_inst(2, [[0, 1], [0, 1]], [[0], [1]])
    partial, reduced, trace = preprocess(inst)
    assert reduced.m == 0
    assert partial[0].bit_count() == 1 and partial[1].bit_count() == 1
    assert "P3-pair" in {s.rule for s in trace.steps}


def test_p2_needs_singleton_chain_and_odd_goods():
    # (2,1) with three goods everyone desires: P4 perturbs, P2 breaks parity
    inst = bin_inst(3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]], [[0, 1], [2]])
    partial, reduced, trace = preprocess(inst)
    assert reduced.m == 0
    assert allocation_violations(3, Allocation(partial)) == []
    assert is_fair(inst, solve_ef1_binary(inst), EF1).overall


def test_p4_restricted_to_large_group_in_singleton_chain():
    inst = bin_inst(5, [[0, 1, 2], [1, 2, 3, 4], [0, 2, 4]], [[0, 1], [2]])
    _, _, trace = preprocess(inst)
    for step in trace.steps:
        for aid, _g in step.undesired:
            assert aid in (0, 1)  # the singleton is never perturbed


def test_p4_covers_both_groups_with_two_small():
    rng = random.Random(9)
    seen_b = False
    for _ in range(300):
        m = rng.randrange(1, 9)
        desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(5)]
        inst = bin_inst(m, desired, [[0, 1, 2], [3, 4]])
        _, _, trace = preprocess(inst)
        rules = {s.rule for s in trace.steps}
        assert "P2" not in rules  # never sound outside the singleton chain
        for step in trace.steps:
            for aid, _g in step.undesired:
                if aid in (3, 4):
                    seen_b = True
    assert seen_b


def test_preprocess_partial_is_ef1_when_empty():
    rng = random.Random(10)
    for _ in range(400):
        m = rng.randrange(0, 9)
        desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(4)]
        inst = bin_inst(m, desired, [[0, 1, 2], [3]])
        partial, reduced, trace = preprocess(inst)
        if reduced.m == 0:
            assert is_fair(inst, Allocation(partial), EF1).overall


def test_emptied_reduction_builds_no_reduced_instance(monkeypatch):
    # (5,1) shapes always empty: the solver must not rebuild one valuation
    # per agent for the goods-free rest, and preprocess still returns it
    inst = bin_inst(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]], [[0, 1, 2, 3, 4], [5]])
    partial, reduced, trace = preprocess(inst)
    assert reduced == Instance.fixed(0, [Valuation.binary([])] * 6, [[0, 1, 2, 3, 4], [5]])

    def rebuild(state):
        raise AssertionError("the reduced instance was rebuilt")

    monkeypatch.setattr(binary_solver, "_reduced_instance", rebuild)
    assert solve_ef1_binary(inst) == Allocation(partial)
    assert preprocess(inst) == (partial, reduced, trace)


def test_replay_trace_round_trip():
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randrange(0, 9)
        desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(5)]
        inst = bin_inst(m, desired, [[0, 1, 2], [3, 4]])
        partial, reduced, trace = preprocess(inst)
        assert replay_trace(inst, trace) == partial
        assert set(trace.remaining_goods) == {
            g for g in range(m) if not (partial[0] | partial[1]) >> g & 1
        }


def test_replay_trace_rejects_tampering():
    inst = bin_inst(2, [[0], [1]], [[0], [1]])
    _, _, trace = preprocess(inst)
    doubled = ReductionTrace(trace.steps + (trace.steps[0],), trace.remaining_goods)
    with pytest.raises(ValueError):
        replay_trace(inst, doubled)
    short = ReductionTrace(trace.steps[:1], trace.remaining_goods)
    with pytest.raises(ValueError):
        replay_trace(inst, short)
    bogus = ReductionTrace((TraceStep("P4", undesired=((0, 1),)),), tuple(range(2)))
    with pytest.raises(ValueError):
        replay_trace(inst, bogus)
    # ids outside the instance, negative ones included, are named
    two = bin_inst(2, [[0, 1], [0, 1]], [[0], [1]])
    for step, remaining, bad in [
        (TraceStep("P4", undesired=((1, -1),)), (0, 1), "good -1"),
        (TraceStep("P4", undesired=((-1, 1),)), (0, 1), "agent -1"),
        (TraceStep("P4", undesired=((1, 2),)), (0, 1), "good 2"),
        (TraceStep("P4", undesired=((2, 1),)), (0, 1), "agent 2"),
        (TraceStep("P1", to_first=(-1,)), (0, 1), "good -1"),
        (TraceStep("P1", to_first=(2,)), (0, 1), "good 2"),
        (TraceStep("P1", to_second=(-2,)), (0, 1), "good -2"),
        (TraceStep("P1", to_second=(5,)), (0, 1), "good 5"),
        (TraceStep("P1", to_first=(0,)), (1, -1), "good -1"),
        (TraceStep("P1", to_first=(0,)), (1, 2), "good 2"),
    ]:
        with pytest.raises(ValueError, match=f"{bad} is not"):
            replay_trace(two, ReductionTrace((step,), remaining))


def test_trace_serialization():
    inst = bin_inst(2, [[0, 1], [0, 1]], [[0], [1]])
    _, _, trace = preprocess(inst)
    d = trace.to_dict()
    assert d["remaining_goods"] == []
    assert d["steps"][0]["rule"] in ("P1", "P3-pair")
    assert set(d["steps"][0]) == {"rule", "to_first", "to_second", "undesired"}


def test_p4_is_one_directional():
    """Perturbation soundness only runs one way.

    EF1 after the perturbation implies EF1 before it, never the converse.
    That is why the solver finishes on the perturbed instance and replays
    the moves, rather than mapping original solutions forward.
    """
    v = Valuation.binary([1, 1, 1])
    p = Valuation.binary_from_desired(3, [1, 2])
    # own {0} vs other {1,2}: EF1 originally (1 >= 2-1), not after losing 0
    assert fair_toward(v, 0b001, 0b110, EF1)
    assert not fair_toward(p, 0b001, 0b110, EF1)
    # sound direction, over random odd-degree perturbations and splits
    rng = random.Random(14)
    for _ in range(500):
        m = rng.randrange(1, 8)
        desired = rng.sample(range(m), rng.randrange(1, m + 1))
        if len(desired) % 2 == 0:
            desired.pop()
        vv = Valuation.binary_from_desired(m, desired)
        pp = Valuation.binary_from_desired(m, [g for g in desired if g != min(desired)])
        own = rng.randrange(0, 1 << m)
        other = ((1 << m) - 1) ^ own
        if fair_toward(pp, own, other, EF1):
            assert fair_toward(vv, own, other, EF1)


def test_solve_reducible_shapes_fuzz():
    rng = random.Random(15)
    for groups in ([[0, 1, 2, 3, 4], [5]], [[0, 1, 2], [3, 4]]):
        n = sum(len(g) for g in groups)
        for _ in range(400):
            m = rng.randrange(0, 11)
            desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(n)]
            inst = bin_inst(m, desired, groups)
            alloc = solve_ef1_binary(inst)
            assert allocation_violations(m, alloc) == []
            assert is_fair(inst, alloc, EF1).overall


def test_solve_orients_either_group_order():
    rng = random.Random(16)
    for _ in range(200):
        m = rng.randrange(0, 9)
        desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(4)]
        inst = bin_inst(m, desired, [[0], [1, 2, 3]])  # small group first
        alloc = solve_ef1_binary(inst)
        assert is_fair(inst, alloc, EF1).overall


def test_solve_falls_back_to_search_on_big_shapes():
    # (4,2) sits outside the reduction gate; a satisfiable one goes
    # through exhaustive search and comes back verified
    inst = bin_inst(4, [[0], [0], [1], [1], [2], [3]], [[0, 1, 2, 3], [4, 5]])
    alloc = solve_ef1_binary(inst)
    assert is_fair(inst, alloc, EF1).overall


def test_solve_certifies_nonexistence():
    # every 2-subset of the goods has a desirer in the large group, so its
    # bundle must hit all pairs; that leaves at most one good for the
    # singleton, who wants two of her four
    desired = [list(p) for p in combinations(range(4), 2)] + [[0, 1, 2, 3]]
    inst = bin_inst(4, desired, [[0, 1, 2, 3, 4, 5], [6]])
    with pytest.raises(FairAllocationNotFound) as err:
        solve_ef1_binary(inst)
    cert = err.value.certificate
    assert cert is not None and not cert.found
    assert cert.examined == 16


def test_four_two_nonexistence():
    # cyclic pairs in the big group force its bundle to hit every pair
    # {i,i+1}; the small group's agents then find both their goods across
    inst = bin_inst(
        4,
        [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3]],
        [[0, 1, 2, 3], [4, 5]],
    )
    with pytest.raises(FairAllocationNotFound):
        solve_ef1_binary(inst)


def test_solver_is_deterministic():
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randrange(0, 10)
        desired = [rng.sample(range(m), rng.randrange(0, m + 1)) for _ in range(6)]
        inst = bin_inst(m, desired, [[0, 1, 2, 3, 4], [5]])
        assert solve_ef1_binary(inst) == solve_ef1_binary(inst)


def _eager_dominance(self):
    """The dominance rule with every 1-, 2- and 3-set packed up front."""
    g = len(self.goods)
    if g < 2:
        return False
    packs = {1: [], 2: [], 3: []}
    for i, (_, s, t) in enumerate(self.goods):
        packs[1].append(((i,), 1 << i, s, t))
    for size in (2, 3):
        for combo in combinations(range(g), size):
            mask = pa = pb = 0
            for i in combo:
                mask |= 1 << i
                pa += self.goods[i][1]
                pb += self.goods[i][2]
            packs[size].append((combo, mask, pa, pb))
    if self.singleton_chain:
        size_pairs = ((1, 1), (2, 2), (3, 3))
    else:
        size_pairs = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3))
    ga, gb = self.guard_a, self.guard_b
    for sa, sb in size_pairs:
        for combo1, mask1, a1, b1 in packs[sa]:
            for combo2, mask2, a2, b2 in packs[sb]:
                if mask1 & mask2:
                    continue
                if ((a1 | ga) - a2) & ga != ga:
                    continue
                if ((b2 | gb) - b1) & gb != gb:
                    continue
                if sa == 1 and sb == 1:
                    rule = "P3-pair"
                elif sa == sb:
                    rule = "P3-sets"
                else:
                    rule = "dominance-AB"
                self._take(list(combo1), list(combo2), rule)
                return True
    return False


def test_dominance_matches_eager_reference(monkeypatch):
    # uniform desires rarely reach the set rules, so most agents desire
    # 2-4 of 4-8 goods; the rest are uniform up to 14 goods
    rng = random.Random(18)
    shapes = [(a, b) for a in range(6) for b in range(6) if a + b and reducible_shape(a, b)]
    cases = []
    for n1, n2 in shapes:
        n = n1 + n2
        for _ in range(80):
            if rng.random() < 0.8:
                m = rng.randrange(4, 9)
                desired = [rng.sample(range(m), rng.randrange(2, 5)) for _ in range(n)]
            else:
                m = rng.randrange(0, 15)
                desired = [[g for g in range(m) if rng.random() < 0.5] for _ in range(n)]
            cases.append(bin_inst(m, desired, [list(range(n1)), list(range(n1, n))]))
    # the large group's 2-set against the small group's 3-set is too rare
    # to count on in a random sample: one such instance, in both group orders
    desired = [[1, 2, 3, 4], [0, 4], [0, 2], [0, 2, 3, 4], [0, 1, 2, 4]]
    cases.append(bin_inst(5, desired, [[0, 1, 2], [3, 4]]))
    cases.append(bin_inst(5, desired, [[3, 4], [0, 1, 2]]))
    lazy = [preprocess(inst) for inst in cases]
    monkeypatch.setattr(_State, "rule_dominance", _eager_dominance)
    seen = set()
    for inst, (partial, _, trace) in zip(cases, lazy):
        ref_partial, _, ref_trace = preprocess(inst)
        assert partial == ref_partial
        assert trace.to_dict() == ref_trace.to_dict()
        seen.update((s.rule, len(s.to_first), len(s.to_second)) for s in trace.steps)
    # set sizes as the trace gives them, in instance group order
    for tag in [
        ("P3-pair", 1, 1),
        ("P3-sets", 2, 2),
        ("dominance-AB", 1, 2),
        ("dominance-AB", 2, 1),
        ("dominance-AB", 2, 3),
        ("dominance-AB", 3, 2),
    ]:
        assert tag in seen


def test_singleton_pair_builds_no_larger_sets(monkeypatch):
    # a P3-pair applies on the first scan, so no 2- or 3-set is packed
    asked = []

    def recording(pool, size):
        asked.append(size)
        return combinations(pool, size)

    monkeypatch.setattr(binary_solver, "combinations", recording)
    inst = bin_inst(30, [list(range(30))] * 5, [[0, 1, 2], [3, 4]])
    state = _State(inst, inst.groups.members)
    assert state.rule_dominance()
    assert state.steps[-1].rule == "P3-pair"
    assert 2 not in asked and 3 not in asked


# a (3,2) instance on five goods, for the solver's fault paths
_THREE_TWO = bin_inst(5, [[0, 1, 2], [2, 3, 4], [0, 4], [1, 2], [3]], [[0, 1, 2], [3, 4]])


def test_stalled_reduction_falls_back_to_search(monkeypatch, caplog):
    monkeypatch.setattr(_State, "run", lambda self: None)
    with caplog.at_level(logging.WARNING, logger="groupfair.binary_solver"):
        alloc = solve_ef1_binary(_THREE_TWO)
    assert caplog.messages == [
        "reduction stalled on shape (3,2) with 5 goods left; falling back to search"
    ]
    assert alloc == find_fair(_THREE_TWO, SearchConstraints(EF1)).allocation
    assert is_fair(_THREE_TWO, alloc, EF1).overall


def test_reducible_shape_without_a_hit_is_a_fault(monkeypatch):
    monkeypatch.setattr(_State, "run", lambda self: None)
    monkeypatch.setattr(oracle, "find_fair", lambda inst, cons: Certificate(False, examined=0))
    with pytest.raises(AssertionError, match=r"^shape \(3,2\) must admit EF1 but search found none$"):
        solve_ef1_binary(_THREE_TWO)


def test_non_ef1_reduction_is_a_fault(monkeypatch):
    # every good to the first group, none left: agent 3 finds two of hers across
    emptied = Instance.fixed(0, [Valuation.binary([])] * 5, [[0, 1, 2], [3, 4]])
    partial = ((1 << 5) - 1, 0)
    monkeypatch.setattr(
        binary_solver, "preprocess", lambda inst: (partial, emptied, ReductionTrace((), ()))
    )
    with pytest.raises(AssertionError, match="^reduction produced a non-EF1 allocation$"):
        solve_ef1_binary(_THREE_TWO)
