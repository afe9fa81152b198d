"""The randomized suites themselves: registry, generators, reproducibility."""

import functools
import operator
import random

import pytest

from groupfair import fuzz
from groupfair.fuzz import (
    MAX_EXAMPLES,
    SUITES,
    SuiteResult,
    random_monotone_formula,
    random_monotone_table,
    run_suite,
)
from groupfair.model import AgentPartition, Allocation, Instance, Valuation, iter_bits, validate
from groupfair.oracle import Certificate


EXPECTED_SUITES = {
    "binary-5-1",
    "binary-3-2",
    "exact1",
    "knife",
    "cutchoose",
    "prop",
    "balanced-tables",
    "reduction",
    "hierarchy",
}


def test_registry_names():
    assert set(SUITES) == EXPECTED_SUITES


def test_suite_result_bookkeeping():
    r = SuiteResult("demo", runs=10)
    assert r.passed
    for i in range(MAX_EXAMPLES + 4):
        r.record(f"failure {i}")
    assert not r.passed
    assert r.failures == MAX_EXAMPLES + 4
    assert len(r.examples) == MAX_EXAMPLES
    d = r.to_dict()
    assert d["suite"] == "demo" and d["failures"] == MAX_EXAMPLES + 4
    assert d["passed"] is False


def test_random_monotone_table_is_valid():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(0, 5)
        v = random_monotone_table(rng, m)
        inst = Instance.fixed(m, [v], [[0]])
        assert validate(inst) == []
        for mask in range(1 << m):
            for g in iter_bits(mask):
                assert v.value(mask & ~(1 << g)) <= v.value(mask)


def test_random_monotone_formula_shape():
    rng = random.Random(5)
    for _ in range(50):
        f = random_monotone_formula(rng)
        assert 3 <= f.num_vars <= 10
        assert len(f.clauses) <= 12
        for cl in f.clauses:
            assert len(set(cl.variables)) == 3
            assert max(cl.variables) < f.num_vars


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nope", 0, 1)


@pytest.mark.parametrize("runs", [0, -5])
def test_no_runs_raises(runs):
    # a suite that runs no case must not report a pass
    with pytest.raises(ValueError, match=f"runs must be at least 1, got {runs}"):
        run_suite("exact1", 0, runs)


def test_same_seed_reproduces():
    a = run_suite("hierarchy", 13, 40)
    b = run_suite("hierarchy", 13, 40)
    assert (a.runs, a.failures, a.examples) == (b.runs, b.failures, b.examples)


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_every_suite_smokes_clean(name):
    result = run_suite(name, seed=1, runs=30)
    assert result.runs == 30
    assert result.passed, result.examples
    assert result.elapsed >= 0.0


def test_balanced_tables_checks_balance(monkeypatch):
    # agents who value nothing accept every allocation, so only the balance
    # of the hit's groups or bundles can fail
    monkeypatch.setattr(fuzz, "random_monotone_table", lambda rng, m: Valuation.zeros(m))
    three_two, four_one = AgentPartition((0, 0, 0, 1, 1), 2), AgentPartition((0, 0, 0, 0, 1), 2)
    two_two, three_one = Allocation((0b0011, 0b1100)), Allocation((0b0111, 0b1000))
    cases = [(two_two, three_two, 0, None), (two_two, four_one, 3, "group sizes"), (three_one, three_two, 3, "balance")]
    for alloc, part, failures, broken in cases:
        monkeypatch.setattr(fuzz, "find_fair", lambda inst, cons: Certificate(True, alloc, part))
        result = run_suite("balanced-tables", seed=1, runs=3)
        assert result.failures == failures, (alloc, part)
        if failures:
            sizes = f"groups of sizes {part.sizes()}, bundles {alloc.goods_lists()} of sizes {alloc.sizes()} on "
            assert result.examples[0].startswith(f"run 0: answer fails {broken}: {sizes}")


def _every_good(bundles):
    return functools.reduce(operator.or_, bundles, 0)


def _halves(bundles):  # two balanced bundles, the lower goods in the first
    every = _every_good(bundles)
    low = (1 << (every.bit_length() + 1) // 2) - 1
    return low, every ^ low


def _low_half_desirer(rng, m):  # an agent who envies the second of _halves' bundles from m = 3 on
    return Valuation.additive([int(g < (m + 1) // 2) for g in range(m)])


# ways to break an answer: (changes to its bundles, to its groups)
_BREAKS = {
    "overlap": (lambda b: (_every_good(b),) * len(b), None),  # every good in every bundle
    "left-out": (lambda b: tuple(x & ~1 for x in b), None),  # good 0 in no bundle
    "one-group": (None, lambda p: AgentPartition((0,) * len(p.assignment), p.k)),
    "one-bundle": (lambda b: (_every_good(b),) + (0,) * (len(b) - 1), None),
    "halves": (_halves, None),
}
_PARTITION = {"overlap": "goods not partitioned", "left-out": "goods not partitioned"}
# suite: the name fuzz calls, the shape of its answer, and the part of the
# claim each break must be reported as
_ANSWERS = {
    "binary-5-1": ("solve_ef1_binary", "allocation", {**_PARTITION, "one-bundle": "ef1"}),
    "binary-3-2": ("solve_ef1_binary", "allocation", {**_PARTITION, "one-bundle": "ef1"}),
    "exact1": ("exact1_partition", "bundles", {**_PARTITION, "one-bundle": "balance", "halves": "exact1"}),
    "knife": ("rotating_knife", "pair", {**_PARTITION, "one-group": "group sizes", "one-bundle": "balance",
                                         "halves": "ef1"}),
    "cutchoose": ("cut_and_choose_ef1", "pair", {**_PARTITION, "one-group": "group sizes", "one-bundle": "ef1"}),
    "prop": ("proportional_k_groups", "pair", {**_PARTITION, "one-group": "group sizes",
                                               "one-bundle": "prop up to k-1 goods"}),
    "balanced-tables": ("find_fair", "certificate", {**_PARTITION, "one-group": "group sizes",
                                                     "one-bundle": "balance", "halves": "ef1"}),
    "reduction": ("assignment_to_allocation", "allocation", {**_PARTITION, "one-bundle": "ef1"}),
}


def _broken(answer, shape, bundles, groups):
    bundles = bundles or (lambda b: b)
    if shape == "bundles":
        return bundles(answer)
    if shape == "allocation":
        return Allocation(bundles(answer.bundles))
    part, alloc = (answer.partition, answer.allocation) if shape == "certificate" else answer
    part, alloc = (groups or (lambda p: p))(part), Allocation(bundles(alloc.bundles))
    return Certificate(True, alloc, part) if shape == "certificate" else (part, alloc)


@pytest.mark.parametrize(
    "suite, broken", [(suite, broken) for suite, (_, _, parts) in _ANSWERS.items() for broken in parts]
)
def test_suites_record_broken_answers(monkeypatch, suite, broken):
    # every answer-checking suite checks its answers against their whole
    # claim: an answer that breaks one part of it is a recorded failure that
    # names that part, never a pass and never an exception
    target, shape, parts = _ANSWERS[suite]
    real = getattr(fuzz, target)
    if broken == "halves":  # balanced bundles, so only the notion can fail
        for generator in ("random_additive", "random_monotone", "random_monotone_table"):
            monkeypatch.setattr(fuzz, generator, _low_half_desirer)
    monkeypatch.setattr(fuzz, target, lambda *args: _broken(real(*args), shape, *_BREAKS[broken]))
    result = run_suite(suite, seed=1, runs=20)
    assert result.failures > 0
    assert all(example.split(": ")[1] == f"answer fails {parts[broken]}" for example in result.examples)
