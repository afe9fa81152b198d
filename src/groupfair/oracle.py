"""Exhaustive existence oracle and the built-in impossibility corpus.

The oracle decides, for any supported fairness notion, whether a small
instance admits a fair allocation, optionally restricted to balanced
bundles, and for variable groups optionally ranging over agent partitions.
A negative answer is a certificate: the full candidate space was walked.

Candidates are ordered deterministically. Allocations are base-k counters
over the goods with good 0 as the least significant digit, so candidate
index i puts good g into bundle (i // k**g) % k. Partitions are ordered by
their sorted member lists, group 0 first. The first satisfying candidate
in this order is returned, regardless of how many workers scanned.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterator, Sequence

from .errors import SearchSpaceTooLargeError
from .fairness import EF1, EF2, EFX, EFX0, Notion, is_fair, rejected_bundle
from .model import (
    MAX_TABLE_GOODS,
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    Valuation,
    VariableGroups,
    fixed_partition,
)

# Upper bound on partitions x allocation counters walked in one call.
SCAN_GUARD = 10**8
# Below this many candidates a parallel scan costs more than it saves.
_SERIAL_CUTOFF = 1 << 15


@dataclass(frozen=True)
class SearchConstraints:
    """Side conditions of an existence question.

    ``balanced_allocation`` restricts to bundle sizes pairwise within one.
    ``balanced_partition`` (variable groups only) ranges over every group
    size vector whose entries pairwise differ by at most one, instead of
    the instance's declared sizes. ``fixed_partition`` pins the partition
    of a variable-group instance to one concrete assignment.
    """

    notion: Notion
    balanced_allocation: bool = False
    balanced_partition: bool = False
    fixed_partition: AgentPartition | None = None


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exhaustive search.

    ``found`` carries the first satisfying allocation (and partition for
    variable groups). Otherwise ``examined`` is the number of admissible
    candidates that were all checked and rejected.
    """

    found: bool
    allocation: Allocation | None = None
    partition: AgentPartition | None = None
    examined: int | None = None

    def to_dict(self) -> dict:
        out: dict = {"outcome": "found" if self.found else "exhausted-none"}
        if self.allocation is not None:
            out["allocation"] = [list(g) for g in self.allocation.goods_lists()]
        if self.partition is not None:
            out["partition"] = [list(g) for g in self.partition.groups_lists()]
        if self.examined is not None:
            out["examined"] = self.examined
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
    q, r = divmod(m, k)
    per_vector = math.factorial(m) // (math.factorial(q + 1) ** r * math.factorial(q) ** (k - r))
    return math.comb(k, r) * per_vector


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
        if cons.fixed_partition is not None:
            raise ValueError("fixed_partition applies to variable groups only")
        return 1, iter([fixed_partition(inst).assignment]), False
    groups: VariableGroups = inst.groups
    n = inst.n
    if cons.fixed_partition is not None:
        part = cons.fixed_partition
        if len(part.assignment) != n or part.k != inst.k:
            raise ValueError("fixed_partition does not match the instance shape")
        return 1, iter([part.assignment]), True
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


def _alloc_from_index(idx: int, m: int, k: int) -> tuple[int, ...]:
    bundles = [0] * k
    for g in range(m):
        bundles[idx % k] |= 1 << g
        idx //= k
    return tuple(bundles)


def _balanced_bundles(bundles: Sequence[int]) -> bool:
    sizes = [b.bit_count() for b in bundles]
    return max(sizes) - min(sizes) <= 1


def _hits(
    inst: Instance,
    gof: Sequence[int],
    notion: Notion,
    balanced: bool,
    start: int,
    end: int,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Satisfying ``(index, bundles)`` with index in [start, end), in order."""
    agents = inst.agents
    m, k = inst.m, inst.k
    for idx in range(start, end):
        bundles = _alloc_from_index(idx, m, k)
        if balanced and not _balanced_bundles(bundles):
            continue
        # the hot loop: a bool per agent, no witness and no Allocation
        for a, v in enumerate(agents):
            if rejected_bundle(v, bundles, gof[a], notion) is not None:
                break
        else:
            yield idx, bundles


def _scan_range(
    inst: Instance,
    gof: Sequence[int],
    notion: Notion,
    balanced: bool,
    start: int,
    end: int,
) -> int | None:
    """First satisfying allocation index in [start, end), or None."""
    for idx, _bundles in _hits(inst, gof, notion, balanced, start, end):
        return idx
    return None


def _scan_parallel(
    inst: Instance, gof: Sequence[int], notion: Notion, balanced: bool, span: int, jobs: int
) -> int | None:
    chunk = max(_SERIAL_CUTOFF, -(-span // (jobs * 8)))
    ranges = [(s, min(s + chunk, span)) for s in range(0, span, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(
            _scan_range,
            [inst] * len(ranges),
            [tuple(gof)] * len(ranges),
            [notion] * len(ranges),
            [balanced] * len(ranges),
            [r[0] for r in ranges],
            [r[1] for r in ranges],
        )
        # chunks are disjoint and ordered, so the first hit is the minimum
        for hit in results:
            if hit is not None:
                return hit
    return None


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
    scan would exceed the guard.
    """
    num_parts, assignments, with_partition = _partition_plan(inst, cons)
    span = _guard(inst, num_parts)
    per_partition = (
        balanced_allocation_count(inst.m, inst.k) if cons.balanced_allocation else span
    )
    notion = cons.notion
    for gof in assignments:
        if jobs > 1 and span > _SERIAL_CUTOFF:
            hit = _scan_parallel(inst, gof, notion, cons.balanced_allocation, span, jobs)
        else:
            hit = _scan_range(inst, gof, notion, cons.balanced_allocation, 0, span)
        if hit is not None:
            alloc = Allocation(_alloc_from_index(hit, inst.m, inst.k))
            part = AgentPartition(tuple(gof), inst.k) if with_partition else None
            return Certificate(True, allocation=alloc, partition=part)
    return Certificate(False, examined=num_parts * per_partition)


def enumerate_fair(
    inst: Instance, cons: SearchConstraints
) -> Iterator[tuple[AgentPartition | None, Allocation]]:
    """Yield every admissible satisfying (partition, allocation) in order."""
    num_parts, assignments, with_partition = _partition_plan(inst, cons)
    span = _guard(inst, num_parts)
    for gof in assignments:
        part = AgentPartition(tuple(gof), inst.k) if with_partition else None
        for _idx, bundles in _hits(inst, gof, cons.notion, cons.balanced_allocation, 0, span):
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


def run_corpus_entry(entry: CorpusEntry, jobs: int = 1) -> CorpusResult:
    """Run one corpus entry and compare against its expected outcome."""
    t0 = time.perf_counter()
    cert = find_fair(entry.instance, entry.constraints, jobs=jobs)
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
