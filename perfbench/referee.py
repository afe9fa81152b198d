"""Independent answer referee for the benchmark.

Nothing here imports ``groupfair``: instances are the plain JSON documents
the generators wrote, and every rule (values, envy notions, proportionality,
closed-form candidate counts, Kneser adjacency, satisfiability) is written
out again from its definition. A question passes only when the CLI's exit
code, its ``examined`` count and every allocation or colouring it prints
agree with this module.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product


# ---------------------------------------------------------------------------
# valuations over the JSON dialect


class Agent:
    """One agent's valuation, read from a JSON agent entry."""

    __slots__ = ("values", "table")

    def __init__(self, doc: dict):
        self.values = doc.get("values")
        self.table = None
        if doc["kind"] == "table":
            self.table = {int(k): v for k, v in doc["table"].items()}

    def value(self, mask: int) -> int:
        if self.table is not None:
            return self.table[mask]
        total = 0
        g = 0
        while mask:
            if mask & 1:
                total += self.values[g]
            mask >>= 1
            g += 1
        return total


def goods_mask(goods) -> int:
    mask = 0
    for g in goods:
        mask |= 1 << g
    return mask


def goods_of(mask: int) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def accepts(agent: Agent, own: int, other: int, notion: str) -> bool:
    """Envy rule of ``notion`` (ef, efN, efx, efx0) for one ordered pair."""
    mine = agent.value(own)
    theirs = agent.value(other)
    if mine >= theirs:
        return True
    goods = goods_of(other)
    if notion == "ef":
        return False
    if notion in ("efx", "efx0"):
        for g in goods:
            if notion == "efx" and agent.values[g] == 0:
                continue
            if mine < agent.value(other & ~(1 << g)):
                return False
        return True
    c = int(notion[2:])
    for size in range(1, min(c, len(goods)) + 1):
        for drop in combinations(goods, size):
            if mine >= agent.value(other & ~goods_mask(drop)):
                return True
    return False


def allocation_problem(m: int, bundles: list[int], k: int) -> str | None:
    """Bundles must be k disjoint masks covering goods 0..m-1."""
    if len(bundles) != k:
        return f"{len(bundles)} bundles for {k} groups"
    union = 0
    for b in bundles:
        if union & b:
            return "bundles overlap"
        union |= b
    if union != (1 << m) - 1:
        return "bundles do not cover the goods"
    return None


class Ref:
    """An instance document with its agents read once, for repeated checks."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.m = doc["m"]
        self.agents = [Agent(a) for a in sorted(doc["agents"], key=lambda a: a["id"])]
        self.groups = [list(g) for g in doc["groups"]["fixed"]] if "fixed" in doc["groups"] else None

    def fairness_problem(self, bundles: list[int], groups: list[list[int]], notion: str) -> str | None:
        """First agent that rejects its group's bundle under ``notion``, or None."""
        m = self.m
        bad = allocation_problem(m, bundles, len(groups))
        if bad:
            return bad
        if sorted(a for grp in groups for a in grp) != list(range(len(self.agents))):
            return "groups do not partition the agents"
        full = (1 << m) - 1
        k = len(groups)
        for gi, members in enumerate(groups):
            for a in members:
                v = self.agents[a]
                if notion == "prop":
                    if k * v.value(bundles[gi]) < v.value(full):
                        return f"agent {a} below a 1/{k} share"
                    continue
                for gj, other in enumerate(bundles):
                    if gj != gi and not accepts(v, bundles[gi], other, notion):
                        return f"agent {a} in group {gi} rejects bundle {gj} under {notion}"
        return None

    def brute_force_fair(self, notion: str) -> list[int] | None:
        """Some fair allocation of a fixed-group instance, or None (small m only)."""
        k = len(self.groups)
        for labels in product(range(k), repeat=self.m):
            bundles = [0] * k
            for g, gi in enumerate(labels):
                bundles[gi] |= 1 << g
            if self.fairness_problem(bundles, self.groups, notion) is None:
                return bundles
        return None


def is_balanced_sizes(sizes) -> bool:
    sizes = list(sizes)
    return not sizes or max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# closed-form candidate counts


def multinomial(n: int, sizes) -> int:
    out = math.factorial(n)
    for s in sizes:
        out //= math.factorial(s)
    return out


def balanced_count(total: int, k: int) -> int:
    """Ordered ways to split ``total`` labelled items into k parts of sizes within one."""
    q, r = divmod(total, k)
    vectors = set(permutations((q + 1,) * r + (q,) * (k - r)))
    return sum(multinomial(total, vec) for vec in vectors)


def expected_examined(m: int, k: int, balanced_goods: bool = False, partitions: int = 1) -> int:
    """Admissible candidates of a certified exhaustion: partitions x allocations."""
    per = balanced_count(m, k) if balanced_goods else k**m
    return partitions * per


# ---------------------------------------------------------------------------
# monotone 3-SAT


def satisfiable(num_vars: int, clauses: list[tuple[bool, tuple[int, int, int]]]) -> bool:
    """Monotone 3-SAT by brute force over all assignments."""
    for bits in range(1 << num_vars):
        if assignment_satisfies(bits, clauses):
            return True
    return False


def assignment_satisfies(true_mask: int, clauses) -> bool:
    for positive, variables in clauses:
        hits = sum(true_mask >> v & 1 for v in variables)
        if positive and hits == 0:
            return False
        if not positive and hits == 3:
            return False
    return True


# ---------------------------------------------------------------------------
# Kneser graphs

# Chromatic numbers of the timed K(b, r, s) graphs. The s=1 rows are
# Lovasz's b - 2r + 2. K(9,7,6) is K(9,2,1) through complements, since two
# 7-subsets of 9 points share exactly 5 points when their complements are
# disjoint; likewise K(7,4,3) is K(7,3,2) and K(8,5,4) is K(8,3,2). K(8,4,3)
# meets its clique bound (the 14 blocks of the Steiner system S(3,4,8)).
# K(7,3,2), K(8,3,2) and K(8,4,2) are pinned from exact colourings.
CHI = {
    (7, 3, 2): 9,
    (7, 4, 3): 9,
    (8, 3, 2): 12,
    (8, 5, 4): 12,
    (8, 4, 3): 14,
    (9, 2, 1): 9 - 2 * 2 + 2,
    (9, 7, 6): 9 - 2 * 2 + 2,
    (6, 3, 2): 6,
    (8, 4, 2): 6,
}


def kneser_vertices(b: int, r: int) -> list[int]:
    """r-subsets of b points as masks, in lexicographic order of the subsets."""
    return [goods_mask(c) for c in combinations(range(b), r)]


def colouring_problem(b: int, r: int, s: int, colours: list[int]) -> str | None:
    """A colouring of K(b,r,s) must cover every vertex and split every edge."""
    verts = kneser_vertices(b, r)
    if len(colours) != len(verts):
        return f"{len(colours)} colours for {len(verts)} vertices"
    for i, j in combinations(range(len(verts)), 2):
        if (verts[i] & verts[j]).bit_count() < s and colours[i] == colours[j]:
            return f"edge {i}-{j} is monochromatic"
    return None
