"""The built-in impossibility corpus: existence facts the oracle certifies.

Each :class:`CorpusEntry` pins an instance, its search constraints, whether
a fair allocation exists and, for an impossibility, how many candidates
the oracle must examine to certify it. :func:`run_corpus_entry` searches
one entry with :func:`oracle.find_fair`, checks a hit again with
:func:`fairness.check_answer` and compares the outcome with the pinned
one. The module is its own so that a search loads none of it; it is not
named ``corpus`` because the package exports the function :func:`corpus`
under that name.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

from . import oracle
from .fairness import EF1, EF2, EFX, EFX0, SearchConstraints, check_answer
from .model import Instance, Valuation


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
    certificate: oracle.Certificate | None
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
    for _part, alloc in oracle.enumerate_fair(inst, SearchConstraints(EFX)):
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
    cert = oracle.find_fair(entry.instance, entry.constraints)
    problems = []
    if cert.found != entry.expect_found:
        problems.append(
            f"expected {'found' if entry.expect_found else 'exhausted-none'},"
            f" got {'found' if cert.found else 'exhausted-none'}"
        )
    if cert.found and check_answer(entry.instance, cert.allocation, cert.partition, entry.constraints)[0]:
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
