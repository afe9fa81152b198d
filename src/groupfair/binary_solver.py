"""EF1 solver for two groups of binary-valuation agents.

The solver shrinks an instance with allocation-preserving reduction rules:
whenever the reduced remainder admits an EF1 completion, gluing back the
goods already handed out yields an EF1 allocation of the original instance.
On group shapes up to (5,1) and up to (3,2) the rule fixpoint is expected to
consume every good, which proves existence constructively; if it ever
stalls there, the solver logs the stall and falls back to exhaustive
search, which those shapes guarantee to succeed. Larger shapes go straight
to exhaustive search and may certify non-existence.

Rules, applied to a fixpoint in this priority order (re-scanned from the
top after every application):

* ``P1``: a good desired by nobody in one group goes to the other group.
* ``P3-pair`` / ``P3-sets`` / ``dominance-AB``: two disjoint sets of goods
  G1, G2 such that every first-group agent desires at least as many goods
  in G1 as in G2 and every second-group agent at least as many in G2 as in
  G1; G1 goes to the first group and G2 to the second. Size pairs are
  scanned in the order (1,1), (1,2), (2,1), (1,3), (2,2), (3,1), (2,3),
  (3,2), (3,3); when the second group is a single agent only the equal
  sizes (1,1), (2,2), (3,3) are used. The first pair found is taken, and the
  sets of a size are built only when every smaller pair has failed.
  Singleton pairs are tagged ``P3-pair``, equal sizes ``P3-sets``, unequal
  ``dominance-AB``.
* ``P4``: an agent desiring an odd number of goods stops desiring her
  lowest-indexed desired good. Any allocation that is EF1 for her after
  the perturbation is EF1 for her before it. With a singleton second
  group only the large group's agents are perturbed.
* ``P2``: with a singleton second group and an odd number of goods left,
  the lowest-indexed good goes to the large group. Sound because at the
  P1 fixpoint the singleton desires every remaining good, and an even
  remainder gives her one good of slack.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

from .errors import FairAllocationNotFound, GroupShapeError, UnsupportedValuationError
from .fairness import EF1, is_fair
from .model import BINARY, Allocation, FixedGroups, Instance, Valuation, iter_bits

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TraceStep:
    """One rule application. Good and agent ids are the original ones;
    ``to_first``/``to_second`` refer to the instance's own group order."""

    rule: str
    to_first: tuple[int, ...] = ()
    to_second: tuple[int, ...] = ()
    undesired: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "to_first": list(self.to_first),
            "to_second": list(self.to_second),
            "undesired": [list(p) for p in self.undesired],
        }


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]
    remaining_goods: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "remaining_goods": list(self.remaining_goods),
        }


def _check_two_group_binary(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not isinstance(inst.groups, FixedGroups) or inst.k != 2:
        raise GroupShapeError("the binary solver needs exactly two fixed groups")
    for v in inst.agents:
        if v.kind != BINARY:
            raise UnsupportedValuationError("the binary solver needs binary valuations")
    return inst.groups.members


# Desirer sets hold one 4-bit lane per local agent (agent i is bit 4*i).
# Summed over at most three goods a lane never exceeds 3, so lane-wise >=
# can be done with one borrow trick on packed integers.
def _lane(i: int) -> int:
    return 1 << (4 * i)


def _lane_guard(n: int) -> int:
    guard = 0
    for i in range(n):
        guard |= 8 << (4 * i)
    return guard


class _State:
    """Mutable reduction state in a canonical orientation.

    Side A is the group with at least as many agents (instance group order
    breaks ties); side B is the other. Goods keep their original ids and
    stay sorted by id. S/T are desirer sets over local agent indices, one
    4-bit lane per agent.
    """

    def __init__(self, inst: Instance, members: tuple[tuple[int, ...], tuple[int, ...]]):
        self.inst = inst
        self.a_side = 0 if len(members[0]) >= len(members[1]) else 1
        self.a_ids = members[self.a_side]
        self.b_ids = members[1 - self.a_side]
        self.singleton_chain = len(self.b_ids) <= 1

        # each good is [gid, S, T]; rules index S and T as columns 1 and 2
        self.goods = [[g, 0, 0] for g in range(inst.m)]
        for col, ids in ((1, self.a_ids), (2, self.b_ids)):
            for i, aid in enumerate(ids):
                lane = _lane(i)
                for g in iter_bits(inst.agents[aid].desired_mask):
                    self.goods[g][col] |= lane
        self.guard_a = _lane_guard(len(self.a_ids))
        self.guard_b = _lane_guard(len(self.b_ids))
        self.to_side = [0, 0]  # masks over original goods, instance group order
        self.steps: list[TraceStep] = []

    # -- helpers ------------------------------------------------------

    def _take(self, indices_to_a: list[int], indices_to_b: list[int], rule: str) -> None:
        gids_a = [self.goods[i][0] for i in indices_to_a]
        gids_b = [self.goods[i][0] for i in indices_to_b]
        for g in gids_a:
            self.to_side[self.a_side] |= 1 << g
        for g in gids_b:
            self.to_side[1 - self.a_side] |= 1 << g
        dead = set(indices_to_a) | set(indices_to_b)
        self.goods = [g for i, g in enumerate(self.goods) if i not in dead]
        if self.a_side == 0:
            step = TraceStep(rule, tuple(gids_a), tuple(gids_b))
        else:
            step = TraceStep(rule, tuple(gids_b), tuple(gids_a))
        self.steps.append(step)

    # -- rules --------------------------------------------------------

    def rule_p1(self) -> bool:
        for i, (_, s, t) in enumerate(self.goods):
            if t == 0:
                self._take([i], [], "P1")
                return True
            if s == 0:
                self._take([], [i], "P1")
                return True
        return False

    def rule_dominance(self) -> bool:
        goods = self.goods
        g = len(goods)
        if g < 2:
            return False
        # Sets of a size are packed the first time a size pair needs them:
        # most calls succeed on singletons, so the 2- and 3-sets (C(g,3) of
        # them) are built only once every smaller pair has failed.
        packs: dict[int, list[tuple[tuple[int, ...], int, int, int]]] = {}

        def sets(size: int) -> list[tuple[tuple[int, ...], int, int, int]]:
            built = packs.get(size)
            if built is None:
                built = packs[size] = []
                for combo in combinations(range(g), size):
                    mask = pa = pb = 0
                    for i in combo:
                        mask |= 1 << i
                        pa += goods[i][1]
                        pb += goods[i][2]
                    built.append((combo, mask, pa, pb))
            return built

        if self.singleton_chain:
            size_pairs = ((1, 1), (2, 2), (3, 3))
        else:
            size_pairs = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3))
        ga, gb = self.guard_a, self.guard_b
        for sa, sb in size_pairs:
            firsts, seconds = sets(sa), sets(sb)
            for combo1, mask1, a1, b1 in firsts:
                for combo2, mask2, a2, b2 in seconds:
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

    def rule_p4(self) -> bool:
        sides = ((1, self.a_ids),) if self.singleton_chain else ((1, self.a_ids), (2, self.b_ids))
        for col, ids in sides:
            for local, aid in enumerate(ids):
                bit = _lane(local)
                desired = [i for i, good in enumerate(self.goods) if good[col] & bit]
                if len(desired) % 2 == 1:
                    i = desired[0]
                    self.goods[i][col] &= ~bit
                    self.steps.append(TraceStep("P4", undesired=((aid, self.goods[i][0]),)))
                    return True
        return False

    def rule_p2(self) -> bool:
        if not self.singleton_chain or len(self.goods) % 2 == 0 or not self.goods:
            return False
        self._take([0], [], "P2")
        return True

    def run(self) -> None:
        while True:
            if self.rule_p1():
                continue
            if self.rule_dominance():
                continue
            if self.rule_p4():
                continue
            if self.rule_p2():
                continue
            return


_NO_GOODS = Valuation(BINARY, 0, values=())


def _reduced_instance(state: _State) -> Instance:
    inst = state.inst
    lanes = {aid: (1, _lane(i)) for i, aid in enumerate(state.a_ids)}
    lanes.update({aid: (2, _lane(i)) for i, aid in enumerate(state.b_ids)})
    agents = []
    for aid in range(inst.n):
        col, bit = lanes[aid]
        vals = tuple([1 if good[col] & bit else 0 for good in state.goods])
        agents.append(Valuation(BINARY, len(state.goods), values=vals))
    return Instance(len(state.goods), tuple(agents), inst.groups)


def preprocess(inst: Instance) -> tuple[tuple[int, int], Instance, ReductionTrace]:
    """Run the reduction rules to a fixpoint.

    Returns ``(partial, reduced, trace)``: the pair of good masks already
    allocated to the two groups (instance group order), the remaining
    instance over the surviving goods (original relative order, original
    group structure, perturbations applied), and the step-by-step trace.
    """
    state = _State(inst, _check_two_group_binary(inst))
    state.run()
    partial = (state.to_side[0], state.to_side[1])
    trace = ReductionTrace(tuple(state.steps), tuple([g[0] for g in state.goods]))
    if state.goods:
        return partial, _reduced_instance(state), trace
    # the fixpoint placed every good, as it does on reducible shapes
    return partial, Instance(0, (_NO_GOODS,) * inst.n, inst.groups), trace


def replay_trace(inst: Instance, trace: ReductionTrace) -> tuple[int, int]:
    """Re-apply a trace's moves on the original instance.

    Verifies that every id names an agent or good of the instance, that
    every good is moved or left exactly once and that each perturbation
    targets a good the agent actually desired at that point; returns the
    partial masks in instance group order.
    """

    def good(g: int) -> int:
        if not 0 <= g < inst.m:
            raise ValueError(f"good {g} is not a good of the instance (0..{inst.m - 1})")
        return g

    first = second = 0
    desires = [list(v.values) for v in inst.agents]
    for step in trace.steps:
        for g in map(good, step.to_first):
            if (first | second) & (1 << g):
                raise ValueError(f"good {g} moved twice")
            first |= 1 << g
        for g in map(good, step.to_second):
            if (first | second) & (1 << g):
                raise ValueError(f"good {g} moved twice")
            second |= 1 << g
        for aid, g in step.undesired:
            if not 0 <= aid < inst.n:
                raise ValueError(f"agent {aid} is not an agent of the instance (0..{inst.n - 1})")
            if not desires[aid][good(g)]:
                raise ValueError(f"agent {aid} never desired good {g}")
            desires[aid][g] = 0
    moved = first | second
    for g in map(good, trace.remaining_goods):
        if moved & (1 << g):
            raise ValueError(f"good {g} both moved and remaining")
        moved |= 1 << g
    if moved != (1 << inst.m) - 1:
        raise ValueError("trace does not account for every good")
    return first, second


def reducible_shape(n1: int, n2: int) -> bool:
    """Shapes whose reduction fixpoint is expected to empty the instance."""
    big, small = max(n1, n2), min(n1, n2)
    return (small <= 1 and big <= 5) or (small <= 2 and big <= 3)


def solve_ef1_binary(inst: Instance) -> Allocation:
    """EF1 allocation for a two-group binary instance.

    Reducible shapes (up to (5,1) or (3,2), either group order) are solved
    by the reduction rules; a stalled fixpoint falls back to exhaustive
    search, which cannot fail there. Other shapes are searched exhaustively
    and raise :class:`FairAllocationNotFound` with the certificate when no
    EF1 allocation exists.
    """
    from .oracle import SearchConstraints, find_fair

    sizes = tuple(map(len, inst.groups.members)) if inst.is_fixed else ()
    reducible = len(sizes) == 2 and reducible_shape(*sizes)
    if reducible:
        partial, reduced, trace = preprocess(inst)  # checks the instance
        if reduced.m == 0:
            alloc = Allocation(partial)
            report = is_fair(inst, alloc, EF1)
            if not report.overall:
                raise AssertionError("reduction produced a non-EF1 allocation")
            return alloc
        log.warning(
            "reduction stalled on shape (%d,%d) with %d goods left; falling back to search",
            *sizes, reduced.m,
        )
    else:
        _check_two_group_binary(inst)
    cert = find_fair(inst, SearchConstraints(EF1))
    if cert.found:
        return cert.allocation
    if reducible:
        raise AssertionError(f"shape ({sizes[0]},{sizes[1]}) must admit EF1 but search found none")
    raise FairAllocationNotFound(
        f"no EF1 allocation exists (searched {cert.examined} candidates)", certificate=cert
    )
