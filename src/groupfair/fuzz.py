"""Seeded random instance generators and the property suites built on them.

Every suite is a pure function of (seed, runs) so a failure can be replayed
from the command line with the same numbers. Suites check every answer
against its whole claim with :func:`fairness.check_answer`, the check the
CLI prints by, and report the first few counterexamples verbatim.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .algorithms import (
    cut_and_choose_ef1,
    exact1_partition,
    proportional_k_groups,
    rotating_knife,
)
from .binary_solver import solve_ef1_binary
from .fairness import EF1, EF2, EFX, EFX0, SearchConstraints, check_answer, is_fair
from .model import (
    TABLE,
    AgentPartition,
    Allocation,
    Instance,
    Valuation,
    instance_to_json,
    iter_bits,
)
from .oracle import find_fair
from .reduction import (
    MonotoneClause,
    MonotoneFormula,
    allocation_to_assignment,
    assignment_to_allocation,
    brute_force_satisfiable,
    formula_to_instance,
)

MAX_EXAMPLES = 3
TOP_VALUE = 9  # random additive values and table entries are drawn from 0..TOP_VALUE
FORMULA_MAX_VARS = 10
FORMULA_MAX_CLAUSES = 12
BINARY_MAX_GOODS = 10  # goods per instance in the binary-shape suites


@dataclass
class SuiteResult:
    name: str
    runs: int
    failures: int = 0
    examples: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, message: str) -> None:
        self.failures += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(message)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "runs": self.runs,
            "failures": self.failures,
            "passed": self.passed,
            "examples": list(self.examples),
            "elapsed": round(self.elapsed, 3),
        }


# ---------------------------------------------------------------------------
# generators


def random_additive(rng: random.Random, m: int) -> Valuation:
    return Valuation.additive([rng.randint(0, TOP_VALUE) for _ in range(m)])


def random_binary(rng: random.Random, m: int) -> Valuation:
    return Valuation.binary([rng.randint(0, 1) for _ in range(m)])


def random_monotone_table(rng: random.Random, m: int) -> Valuation:
    """Random monotone normalized table: draw base values, then push each
    subset up to the maximum of its one-smaller subsets."""
    table = [0]
    for mask in range(1, 1 << m):
        floor = max(table[mask & ~(1 << g)] for g in iter_bits(mask))
        table.append(max(rng.randint(0, TOP_VALUE), floor))
    return Valuation(TABLE, m, table=tuple(table))


def random_monotone(rng: random.Random, m: int) -> Valuation:
    # tables alongside additive keeps both checker paths exercised
    if rng.random() < 0.5:
        return random_monotone_table(rng, m)
    return random_additive(rng, m)


def _random_sizes(rng: random.Random, n: int, k: int) -> list[int]:
    cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
    sizes = []
    prev = 0
    for c in cuts + [n]:
        sizes.append(c - prev)
        prev = c
    return sizes


# ---------------------------------------------------------------------------
# suites

SUITES: dict[str, Callable[[int, int], SuiteResult]] = {}


def _suite(name: str):
    def deco(fn: Callable[[int, int], SuiteResult]):
        SUITES[name] = fn
        return fn

    return deco


def _check(
    result: SuiteResult, i: int, inst: Instance, alloc: Allocation, part: AgentPartition | None, claim
) -> None:
    """Record run ``i`` as a failure unless the answer meets its whole claim."""
    failure, _ = check_answer(inst, alloc, part, claim)
    if failure:
        groups = "" if part is None else f"groups of sizes {part.sizes()}, "
        result.record(
            f"run {i}: answer fails {failure}: {groups}bundles {alloc.goods_lists()}"
            f" of sizes {alloc.sizes()} on {instance_to_json(inst, None)}"
        )


def _binary_shape_suite(n1: int, n2: int) -> None:
    name = f"binary-{n1}-{n2}"

    @_suite(name)
    def run(seed: int, runs: int) -> SuiteResult:
        rng = random.Random(seed)
        result = SuiteResult(name, runs)
        for i in range(runs):
            m = rng.randint(0, BINARY_MAX_GOODS)
            agents = [random_binary(rng, m) for _ in range(n1 + n2)]
            inst = Instance.fixed(
                m, agents, [list(range(n1)), list(range(n1, n1 + n2))]
            )
            try:
                alloc = solve_ef1_binary(inst)
            except Exception as exc:  # no exception is acceptable here
                result.record(f"run {i}: solver raised {exc!r} on {instance_to_json(inst, None)}")
                continue
            _check(result, i, inst, alloc, None, SearchConstraints(EF1))
        return result

    run.__doc__ = f"solve_ef1_binary on random ({n1},{n2}) instances, checker-verified EF1."


_binary_shape_suite(5, 1)
_binary_shape_suite(3, 2)


@_suite("exact1")
def _exact1_suite(seed: int, runs: int) -> SuiteResult:
    """exact1_partition output is balanced and EF1 both ways for both agents."""
    rng = random.Random(seed)
    result = SuiteResult("exact1", runs)
    for i in range(runs):
        m = rng.randint(0, 12)
        v1, v2 = random_additive(rng, m), random_additive(rng, m)
        alloc = Allocation(exact1_partition(v1, v2))
        _check(result, i, Instance.fixed(m, [v1, v2], [[0], [1]]), alloc, None, "exact1")
    return result


@_suite("knife")
def _knife_suite(seed: int, runs: int) -> SuiteResult:
    """rotating_knife yields balanced groups, balanced bundles, and EF1."""
    rng = random.Random(seed)
    result = SuiteResult("knife", runs)
    for i in range(runs):
        n = rng.randint(1, 8)
        m = rng.randint(0, 10)
        agents = [random_monotone(rng, m) for _ in range(n)]
        try:
            part, alloc = rotating_knife(agents)
        except AssertionError as exc:
            result.record(f"run {i}: internal assertion fired: {exc}")
            continue
        inst = Instance.variable(m, agents, [n - n // 2, n // 2])  # only their balance is claimed
        _check(result, i, inst, alloc, part, SearchConstraints(EF1, True, True))
    return result


@_suite("cutchoose")
def _cutchoose_suite(seed: int, runs: int) -> SuiteResult:
    """cut_and_choose_ef1 hits the requested group sizes and is EF1."""
    rng = random.Random(seed)
    result = SuiteResult("cutchoose", runs)
    for i in range(runs):
        n = rng.randint(1, 6)
        m = rng.randint(0, 8)
        n1 = rng.randint(0, n)
        agents = [random_monotone(rng, m) for _ in range(n)]
        part, alloc = cut_and_choose_ef1(agents, n1, n - n1)
        _check(result, i, Instance.variable(m, agents, [n1, n - n1]), alloc, part, SearchConstraints(EF1))
    return result


@_suite("prop")
def _prop_suite(seed: int, runs: int) -> SuiteResult:
    """proportional_k_groups meets k*u(B) >= u(G) - (k-1)*umax exactly."""
    rng = random.Random(seed)
    result = SuiteResult("prop", runs)
    for i in range(runs):
        n = rng.randint(1, 8)
        k = rng.randint(1, 5)
        m = rng.randint(0, 10)
        sizes = _random_sizes(rng, n, k)
        agents = [random_additive(rng, m) for _ in range(n)]
        part, alloc = proportional_k_groups(agents, sizes)
        _check(result, i, Instance.variable(m, agents, sizes), alloc, part, "prop up to k-1 goods")
    return result


@_suite("balanced-tables")
def _balanced_tables_suite(seed: int, runs: int) -> SuiteResult:
    """Five monotone agents, four goods: a balanced partition with a
    balanced EF1 allocation always exists (found by exhaustion)."""
    rng = random.Random(seed)
    result = SuiteResult("balanced-tables", runs)
    cons = SearchConstraints(EF1, balanced_allocation=True, balanced_partition=True)
    for i in range(runs):
        agents = [random_monotone_table(rng, 4) for _ in range(5)]
        inst = Instance.variable(4, agents, [3, 2])
        cert = find_fair(inst, cons)
        if not cert.found:
            result.record(f"run {i}: no balanced EF1 over {instance_to_json(inst, None)}")
        else:
            _check(result, i, inst, cert.allocation, cert.partition, cons)
    return result


def random_monotone_formula(rng: random.Random) -> MonotoneFormula:
    v = rng.randint(3, FORMULA_MAX_VARS)
    ncl = rng.randint(0, FORMULA_MAX_CLAUSES)
    clauses = []
    for _ in range(ncl):
        variables = tuple(sorted(rng.sample(range(v), 3)))
        clauses.append(MonotoneClause(rng.random() < 0.5, variables))
    return MonotoneFormula(v, tuple(clauses))


@_suite("reduction")
def _reduction_suite(seed: int, runs: int) -> SuiteResult:
    """Satisfiability and EF1 existence agree on reduced instances, and the
    assignment/allocation bridges land on verified objects."""
    rng = random.Random(seed)
    result = SuiteResult("reduction", runs)
    for i in range(runs):
        f = random_monotone_formula(rng)
        inst = formula_to_instance(f)
        sat, witness = brute_force_satisfiable(f)
        cert = find_fair(inst, SearchConstraints(EF1))
        if sat != cert.found:
            result.record(
                f"run {i}: satisfiable={sat} but oracle found={cert.found}"
                f" for {f.num_vars} vars, {len(f.clauses)} clauses"
            )
            continue
        if sat:
            _check(result, i, inst, assignment_to_allocation(f, witness), None, SearchConstraints(EF1))
            back = allocation_to_assignment(f, cert.allocation)
            if not f.satisfied_by(back):
                result.record(f"run {i}: oracle allocation maps to a falsifying assignment")
    return result


@_suite("hierarchy")
def _hierarchy_suite(seed: int, runs: int) -> SuiteResult:
    """EFX0 => EFX => EF1 => EF2 on additive pairs; EFX <=> EF1 on binary."""
    rng = random.Random(seed)
    result = SuiteResult("hierarchy", runs)
    for i in range(runs):
        binary = rng.random() < 0.5
        m = rng.randint(0, 8)
        k = rng.randint(2, 4)
        n = rng.randint(1, 6)
        gen = random_binary if binary else random_additive
        agents = [gen(rng, m) for _ in range(n)]
        assignment = tuple(rng.randrange(k) for _ in range(n))
        part = AgentPartition(assignment, k)
        inst = Instance.fixed(m, agents, part.groups_lists())
        bundles = [0] * k
        for g in range(m):
            bundles[rng.randrange(k)] |= 1 << g
        alloc = Allocation(tuple(bundles))
        efx0 = is_fair(inst, alloc, EFX0).overall
        efx = is_fair(inst, alloc, EFX).overall
        ef1 = is_fair(inst, alloc, EF1).overall
        ef2 = is_fair(inst, alloc, EF2).overall
        if efx0 and not efx:
            result.record(f"run {i}: EFX0 without EFX on {instance_to_json(inst, None)}")
        elif efx and not ef1:
            result.record(f"run {i}: EFX without EF1 on {instance_to_json(inst, None)}")
        elif ef1 and not ef2:
            result.record(f"run {i}: EF1 without EF2 on {instance_to_json(inst, None)}")
        elif binary and efx != ef1:
            result.record(f"run {i}: binary EFX/EF1 split on {instance_to_json(inst, None)}")
    return result


def run_suite(name: str, seed: int, runs: int) -> SuiteResult:
    """Run ``runs`` cases (at least one) of the named suite from ``seed``."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}") from None
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    t0 = time.perf_counter()
    result = fn(seed, runs)
    result.elapsed = time.perf_counter() - t0
    return result
