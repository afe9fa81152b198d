"""Monotone 3-SAT as two-group binary fair division.

Each variable becomes a good. Each all-positive clause becomes a first
group agent desiring exactly its three variables' goods; each all-negative
clause becomes a second group agent likewise. An allocation is EF1 for
such an agent exactly when her group's bundle contains a desired good, so
EF1 allocations correspond one-to-one with satisfying assignments (goods
in the first bundle are the true variables). Deciding EF1 existence is
therefore NP-complete; here the correspondence runs at toy sizes against a
brute-force satisfiability check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SearchSpaceTooLargeError
from .model import Allocation, Instance, Valuation, allocation_violations

# 2**v assignments are enumerated; same ceiling as the other searches.
MAX_BRUTE_VARS = 24


@dataclass(frozen=True)
class MonotoneClause:
    """Three distinct variables, all positive or all negative."""

    positive: bool
    variables: tuple[int, int, int]

    def __post_init__(self):
        if len(self.variables) != 3 or len(set(self.variables)) != 3:
            raise ValueError(f"clause needs three distinct variables, got {self.variables}")
        if any(v < 0 for v in self.variables):
            raise ValueError(f"negative variable index in {self.variables}")


@dataclass(frozen=True)
class MonotoneFormula:
    num_vars: int
    clauses: tuple[MonotoneClause, ...]

    def __post_init__(self):
        for cl in self.clauses:
            if max(cl.variables) >= self.num_vars:
                raise ValueError(
                    f"clause {cl.variables} uses a variable >= num_vars={self.num_vars}"
                )

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length differs from num_vars")
        for cl in self.clauses:
            if cl.positive:
                if not any(assignment[v] for v in cl.variables):
                    return False
            elif all(assignment[v] for v in cl.variables):
                return False
        return True


def formula_to_instance(f: MonotoneFormula) -> Instance:
    """One good per variable; clause agents desire their variables' goods."""
    agents = []
    first = []
    second = []
    for cl in f.clauses:
        if cl.positive:
            first.append(len(agents))
        else:
            second.append(len(agents))
        agents.append(Valuation.binary_from_desired(f.num_vars, cl.variables))
    return Instance.fixed(f.num_vars, agents, [first, second])


def assignment_to_allocation(f: MonotoneFormula, assignment: Sequence[bool]) -> Allocation:
    """True variables' goods to the first bundle, the rest to the second."""
    if len(assignment) != f.num_vars:
        raise ValueError("assignment length differs from num_vars")
    true_mask = 0
    for v, val in enumerate(assignment):
        if val:
            true_mask |= 1 << v
    return Allocation((true_mask, ((1 << f.num_vars) - 1) ^ true_mask))


def allocation_to_assignment(f: MonotoneFormula, alloc: Allocation) -> tuple[bool, ...]:
    """Inverse of :func:`assignment_to_allocation`."""
    if alloc.k != 2:
        raise ValueError("expected a two-bundle allocation")
    problems = allocation_violations(f.num_vars, alloc)
    if problems:
        raise ValueError("; ".join(problems))
    first = alloc.bundles[0]
    return tuple(bool(first >> v & 1) for v in range(f.num_vars))


def brute_force_satisfiable(f: MonotoneFormula) -> tuple[bool, tuple[bool, ...] | None]:
    """Walk all 2**num_vars assignments; variable 0 flips fastest."""
    if f.num_vars > MAX_BRUTE_VARS:
        raise SearchSpaceTooLargeError(
            f"{f.num_vars} variables exceed the cap of {MAX_BRUTE_VARS}", bound=f.num_vars
        )
    for bits in range(1 << f.num_vars):
        assignment = tuple(bool(bits >> v & 1) for v in range(f.num_vars))
        if f.satisfied_by(assignment):
            return True, assignment
    return False, None


def parse_dimacs_cnf(text: str) -> MonotoneFormula:
    """Read DIMACS CNF restricted to monotone three-literal clauses."""
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    clauses: list[MonotoneClause] = []

    def close_clause(lits: list[int]) -> MonotoneClause:
        if len(lits) != 3:
            raise ValueError(f"clause {lits} does not have exactly three literals")
        signs = {lit > 0 for lit in lits}
        if len(signs) != 1:
            raise ValueError(f"clause {lits} mixes positive and negative literals")
        variables = tuple(abs(lit) - 1 for lit in lits)
        return MonotoneClause(positive=lits[0] > 0, variables=variables)

    def integer(tok: str, number: int) -> int:
        digits = tok.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"line {number}: {tok!r} is not an integer")
        return int(tok)

    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {raw!r}")
            if num_vars is not None:
                raise ValueError(f"line {number}: a second problem line {raw!r}")
            num_vars, num_clauses = integer(parts[2], number), integer(parts[3], number)
            if min(num_vars, num_clauses) < 0:
                raise ValueError(f"line {number}: negative count on the problem line {raw!r}")
            continue
        for tok in line.split():
            lit = integer(tok, number)
            if lit == 0:
                clauses.append(close_clause(literals))
                literals = []
            else:
                literals.append(lit)
    if num_vars is None:
        raise ValueError("missing 'p cnf' problem line")
    if literals:
        raise ValueError("last clause is not terminated by 0")
    if num_clauses is not None and num_clauses != len(clauses):
        raise ValueError(f"problem line promises {num_clauses} clauses, found {len(clauses)}")
    return MonotoneFormula(num_vars, tuple(clauses))


def formula_to_dimacs(f: MonotoneFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        sign = 1 if cl.positive else -1
        lines.append(" ".join(str(sign * (v + 1)) for v in cl.variables) + " 0")
    return "\n".join(lines) + "\n"
