"""The randomized suites themselves: registry, generators, reproducibility."""

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
    for alloc, part, failures in [(two_two, three_two, 0), (two_two, four_one, 3), (three_one, three_two, 3)]:
        monkeypatch.setattr(fuzz, "find_fair", lambda inst, cons: Certificate(True, alloc, part))
        result = run_suite("balanced-tables", seed=1, runs=3)
        assert result.failures == failures, (alloc, part)
        if failures:
            assert result.examples[0].startswith("run 0: oracle witness is unbalanced: groups ")
