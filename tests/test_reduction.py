"""Monotone 3-SAT bridge: formulas, instances, and the satisfiability link."""

import random

import pytest

from groupfair import (
    EF1,
    Instance,
    MonotoneClause,
    MonotoneFormula,
    SearchConstraints,
    SearchSpaceTooLargeError,
    allocation_to_assignment,
    assignment_to_allocation,
    brute_force_satisfiable,
    find_fair,
    formula_to_dimacs,
    formula_to_instance,
    is_fair,
    parse_dimacs_cnf,
)
from groupfair.model import Allocation


def random_formula(rng, max_vars=8, max_clauses=10):
    v = rng.randrange(3, max_vars + 1)
    ncl = rng.randrange(0, max_clauses + 1)
    clauses = []
    for _ in range(ncl):
        vs = tuple(sorted(rng.sample(range(v), 3)))
        clauses.append(MonotoneClause(rng.random() < 0.5, vs))
    return MonotoneFormula(v, tuple(clauses))


def test_clause_validation():
    MonotoneClause(True, (0, 1, 2))
    with pytest.raises(ValueError):
        MonotoneClause(True, (0, 1, 1))
    with pytest.raises(ValueError):
        MonotoneClause(False, (0, 1))
    with pytest.raises(ValueError):
        MonotoneClause(False, (-1, 1, 2))


def test_formula_validation_and_eval():
    f = MonotoneFormula(4, (MonotoneClause(True, (0, 1, 2)), MonotoneClause(False, (1, 2, 3))))
    assert f.satisfied_by((True, False, False, True))
    assert not f.satisfied_by((False, False, False, True))  # positive clause empty
    assert not f.satisfied_by((False, True, True, True))  # negative clause full
    with pytest.raises(ValueError):
        f.satisfied_by((True,))
    with pytest.raises(ValueError):
        MonotoneFormula(2, (MonotoneClause(True, (0, 1, 2)),))


def test_instance_mirrors_clause_structure():
    f = MonotoneFormula(
        5,
        (
            MonotoneClause(True, (0, 1, 2)),
            MonotoneClause(False, (2, 3, 4)),
            MonotoneClause(True, (1, 3, 4)),
        ),
    )
    inst = formula_to_instance(f)
    assert inst.m == 5 and inst.n == 3
    assert inst.groups.members == ((0, 2), (1,))
    assert inst.agents[0].desired_mask == 0b00111
    assert inst.agents[1].desired_mask == 0b11100
    assert inst.agents[2].desired_mask == 0b11010


def test_assignment_allocation_bridges():
    f = MonotoneFormula(3, (MonotoneClause(True, (0, 1, 2)),))
    alloc = assignment_to_allocation(f, (True, False, True))
    assert alloc.bundles == (0b101, 0b010)
    assert allocation_to_assignment(f, alloc) == (True, False, True)
    with pytest.raises(ValueError):
        assignment_to_allocation(f, (True,))
    with pytest.raises(ValueError):
        allocation_to_assignment(f, Allocation((0b101, 0b010, 0)))
    with pytest.raises(ValueError):
        allocation_to_assignment(f, Allocation((0b101, 0b011)))


def test_brute_force_finds_first_assignment():
    # variable 0 flips fastest, so all-false comes first when satisfiable
    f = MonotoneFormula(3, (MonotoneClause(False, (0, 1, 2)),))
    sat, assignment = brute_force_satisfiable(f)
    assert sat and assignment == (False, False, False)
    f = MonotoneFormula(3, (MonotoneClause(True, (0, 1, 2)),))
    sat, assignment = brute_force_satisfiable(f)
    assert sat and assignment == (True, False, False)


def test_brute_force_unsat_and_cap():
    f = MonotoneFormula(
        3, (MonotoneClause(True, (0, 1, 2)), MonotoneClause(False, (0, 1, 2)))
    )
    # needs some true and not all true: satisfiable
    assert brute_force_satisfiable(f)[0]
    with pytest.raises(SearchSpaceTooLargeError):
        brute_force_satisfiable(MonotoneFormula(25, ()))


def test_equivalence_fuzz():
    rng = random.Random(41)
    for _ in range(200):
        f = random_formula(rng)
        sat, assignment = brute_force_satisfiable(f)
        inst = formula_to_instance(f)
        cert = find_fair(inst, SearchConstraints(EF1))
        assert cert.found == sat
        if sat:
            alloc = assignment_to_allocation(f, assignment)
            assert is_fair(inst, alloc, EF1).overall
            back = allocation_to_assignment(f, cert.allocation)
            assert f.satisfied_by(back)


def test_ef1_allocations_are_exactly_satisfying_assignments():
    rng = random.Random(43)
    for _ in range(50):
        f = random_formula(rng, max_vars=5, max_clauses=6)
        inst = formula_to_instance(f)
        for bits in range(1 << f.num_vars):
            assignment = tuple(bool(bits >> v & 1) for v in range(f.num_vars))
            alloc = assignment_to_allocation(f, assignment)
            assert is_fair(inst, alloc, EF1).overall == f.satisfied_by(assignment)


def test_dimacs_round_trip():
    rng = random.Random(47)
    for _ in range(50):
        f = random_formula(rng)
        assert parse_dimacs_cnf(formula_to_dimacs(f)) == f


def test_dimacs_parsing_details():
    text = """c a comment
p cnf 4 2
1 2 3 0
-2 -3
-4 0
"""
    f = parse_dimacs_cnf(text)
    assert f.num_vars == 4 and len(f.clauses) == 2
    assert f.clauses[0] == MonotoneClause(True, (0, 1, 2))
    assert f.clauses[1] == MonotoneClause(False, (1, 2, 3))


@pytest.mark.parametrize(
    "text,hint",
    [
        ("1 2 3 0\n", "problem line"),
        ("p cnf 3 1\n1 2 3\n", "terminated"),
        ("p cnf 3 2\n1 2 3 0\n", "promises"),
        ("p cnf 3 1\n1 2 0\n", "three literals"),
        ("p cnf 3 1\n1 -2 3 0\n", "mixes"),
        ("p cnf 3 1\n1 1 2 0\n", "distinct"),
        ("p edge 3 1\n", "problem line"),
        # a token that is no integer, named with its line
        ("p cnf 3 1\n1 x 3 0\n", "line 2: 'x' is not an integer"),
        ("p cnf 3 1\nc note\n1 2 --3 0\n", "line 3: '--3' is not an integer"),
        ("p cnf 3 y\n", "line 1: 'y' is not an integer"),
        ("p cnf -2 0\n", "line 1: negative count"),
        ("p cnf 3 -1\n", "line 1: negative count"),
        ("p cnf 3 1\np cnf 4 1\n1 2 3 0\n", "line 2: a second problem line"),
    ],
)
def test_dimacs_rejects_malformed(text, hint):
    with pytest.raises(ValueError) as err:
        parse_dimacs_cnf(text)
    assert hint in str(err.value)


def test_empty_formula_is_satisfiable():
    f = MonotoneFormula(3, ())
    assert brute_force_satisfiable(f) == (True, (False, False, False))
    inst = formula_to_instance(f)
    assert inst.n == 0
    assert find_fair(inst, SearchConstraints(EF1)).found
