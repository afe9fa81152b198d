"""Reduction rules and the two-group binary EF1 solver."""

import random

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
from groupfair.binary_solver import ReductionTrace, TraceStep, reducible_shape
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
    from itertools import combinations

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
