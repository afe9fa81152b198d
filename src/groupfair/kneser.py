"""Generalized Kneser graphs, exact chromatic numbers, and the coloring
based construction of monotone instances without balanced fair allocations.

K(b, r, s) has all r-element subsets of a b-element ground set as vertices;
two subsets are adjacent when they share at most s-1 elements. These graphs
parameterize balanced two-group allocations: with b = 2t goods, a vertex is
the first group's bundle of a balanced allocation, and adjacency captures
"the bundles overlap in at most one good". A proper coloring with y colors
turns into an instance with y monotone agents none of whose balanced
allocations is fair for everyone: the agent owning the color of the first
bundle values it (or, seen from the second group, its complement) at zero
while every one-good-removed rival bundle is worth one to her.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SearchSpaceTooLargeError
from .model import TABLE, Instance, Valuation, full_mask

# Largest vertex count we will materialize, and the branch-and-bound cap.
BUILD_GUARD = 10**4
EXACT_VERTEX_CAP = 70
# bytes.translate table from the ASCII digits "0" and "1" to the values 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class KneserGraph:
    """K(b, r, s) with vertices in lexicographic subset order.

    ``vertices[i]`` is the i-th r-subset as a bitmask over 0..b-1;
    ``adj[i]`` is the bitmask of vertex indices adjacent to i.
    """

    b: int
    r: int
    s: int
    vertices: tuple[int, ...]
    adj: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges (i, j) with i < j, in lexicographic order."""
        out = []
        for i, a in enumerate(self.adj):
            rest = a >> (i + 1)
            while rest:
                low = rest & -rest
                out.append((i, i + low.bit_length()))
                rest ^= low
        return out


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring; colors are 0..num_colors-1, all used."""

    colors: tuple[int, ...]
    num_colors: int


def build_kneser(b: int, r: int, s: int) -> KneserGraph:
    """Construct K(b, r, s); subsets adjacent iff they share < s elements.

    ``holders[e]`` is the mask of vertex indices whose subset contains e.
    For each vertex, ``at_least[j]`` collects the vertices sharing at least
    j of its elements seen so far; the vertex is adjacent to everything
    outside ``at_least[s]`` (itself included there, since r >= s). That is
    O(r * s) big-int operations per vertex instead of one popcount per pair.
    """
    if not (b >= r >= s >= 1):
        raise ValueError(f"need b >= r >= s >= 1, got ({b}, {r}, {s})")
    # C(b, r) = C(b, t) for t = min(r, b - r), built as C(b - t + i, i) for
    # i = 1..t; each step raises it, so the count stops once it passes the cap
    t = min(r, b - r)
    count = 1
    for i in range(1, t + 1):
        count = count * (b - t + i) // i
        if count > BUILD_GUARD:
            raise SearchSpaceTooLargeError(
                f"K({b},{r},{s}) has more than {BUILD_GUARD} vertices, the cap", bound=count
            )
    combos = list(combinations(range(b), r))
    vertices = [0] * count
    holders = [0] * b
    for i, combo in enumerate(combos):
        mask = 0
        for e in combo:
            mask |= 1 << e
            holders[e] |= 1 << i
        vertices[i] = mask
    everyone = (1 << count) - 1
    adj = [0] * count
    for i, combo in enumerate(combos):
        at_least = [everyone] + [0] * s
        for pos, e in enumerate(combo):
            # skip counts that cannot reach s with the elements still to come
            for j in range(min(s, pos + 1), max(0, s - (r - pos)), -1):
                at_least[j] |= at_least[j - 1] & holders[e]
        adj[i] = everyone ^ at_least[s]
    return KneserGraph(b, r, s, tuple(vertices), tuple(adj))


def is_proper(g: KneserGraph, col: Coloring) -> bool:
    if len(col.colors) != g.n or col.num_colors <= 0:
        return False
    used = set()
    for c in col.colors:
        if not (0 <= c < col.num_colors):
            return False
        used.add(c)
    if len(used) != col.num_colors:
        return False
    classes = [0] * col.num_colors
    for v, c in enumerate(col.colors):
        classes[c] |= 1 << v
    return all(not a & classes[c] for a, c in zip(g.adj, col.colors))


def to_dimacs(g: KneserGraph) -> str:
    """DIMACS graph format, vertices 1-based."""
    edges = g.edges()
    lines = [f"c K({g.b},{g.r},{g.s})", f"p edge {g.n} {len(edges)}"]
    lines.extend(f"e {i + 1} {j + 1}" for i, j in edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# chromatic number


def _greedy_clique(g: KneserGraph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique: list[int] = []
    cmask = 0
    for v in order:
        if g.adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _greedy_coloring(g: KneserGraph) -> Coloring:
    # largest degree first, smallest color whose class misses every neighbor
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n
    classes: list[int] = []  # vertex mask of each color
    for v in order:
        nbrs = g.adj[v]
        c = next((c for c, cls in enumerate(classes) if not nbrs & cls), len(classes))
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        colors[v] = c
    return Coloring(tuple(colors), len(classes))


def _count_in(planes: list[int], carry: int) -> list[int]:
    """Bit-sliced counters with one added at every bit of ``carry``."""
    out = planes[:]
    for k, p in enumerate(planes):
        out[k] = p ^ carry
        carry &= p
        if not carry:
            break
    return out


def _dsatur_exact(g: KneserGraph, clique: list[int], ub: Coloring) -> Coloring:
    """Branch and bound DSATUR (Brélaz 1979): colour next the uncoloured
    vertex with the most distinct neighbour colours, then the highest
    degree, then the lowest index. It tries the colours in use and one new
    one, all below the incumbent's count.

    The state is bitsets. ``forb[c]`` is the union of the neighbourhoods of
    the vertices coloured c, so c is closed to v exactly when v is in it.
    Saturation counts are bit-sliced: bit v of ``planes[k]`` is bit k of
    v's count. Painting v with c adds one for every uncoloured neighbour of
    v outside ``forb[c]``, a ripple carry over the planes; each child gets
    its own planes, so backtracking restores ``forb[c]`` alone. The counts
    of coloured vertices go stale and are masked out when picking.
    """
    adj = g.adj
    best_num = ub.num_colors
    best = list(ub.colors)
    colors = [-1] * g.n  # stale off the current path; every leaf rewrites all
    forb = [0] * best_num
    # sorted by degree, highest first, for the tie-break after saturation
    by_degree: dict[int, int] = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    degree_classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    # counts never exceed the colours in use, which stay below best_num
    planes = [0] * best_num.bit_length()

    # symmetry breaking: a maximal clique needs pairwise distinct colors
    uncoloured = (1 << g.n) - 1
    for c, v in enumerate(clique):
        colors[v] = c
        forb[c] = adj[v]
        uncoloured ^= 1 << v
    for v in clique:  # distinct colours: each clique neighbour counts once
        planes = _count_in(planes, adj[v] & uncoloured)
    start_used = len(clique)
    top_down = range(len(planes) - 1, -1, -1)

    def rec(uncoloured: int, planes: list[int], used: int) -> None:
        nonlocal best_num, best
        if used >= best_num:
            return
        if not uncoloured:
            best_num = used
            best = colors[:]
            return
        # most saturated: keep the vertices with a 1 in each plane, top down
        pick = uncoloured
        for k in top_down:
            if pick & planes[k]:
                pick &= planes[k]
        for cls in degree_classes:
            if pick & cls:
                pick &= cls
                break
        low = pick & -pick
        v = low.bit_length() - 1
        nbrs = adj[v]
        rest = uncoloured ^ low
        limit = used + 1 if used + 1 < best_num else best_num - 1
        for c in range(limit):
            old = forb[c]
            if old & low:
                continue
            colors[v] = c
            forb[c] = old | nbrs
            carry = nbrs & ~old & rest
            rec(rest, _count_in(planes, carry) if carry else planes, c + 1 if c >= used else used)
            forb[c] = old
            if best_num <= used or best_num <= len(clique):
                return  # cannot beat the clique bound anyway

    if start_used < best_num:
        rec(uncoloured, planes, start_used)
    return Coloring(tuple(best), best_num)


def chromatic_number(g: KneserGraph, mode: str = "exact") -> tuple[int, int, Coloring]:
    """Chromatic bounds: (lower, upper, witness coloring for the upper).

    ``bounds`` mode returns a greedy clique lower bound and a
    largest-degree-first greedy upper bound. ``exact`` mode closes the gap
    by branch and bound; lower == upper == chi there.
    """
    if mode not in ("exact", "bounds"):
        raise ValueError(f"unknown mode {mode!r}")
    if g.n == 0:
        return 0, 0, Coloring((), 0)
    clique = _greedy_clique(g)
    greedy = _greedy_coloring(g)
    if mode == "bounds":
        return len(clique), greedy.num_colors, greedy
    if g.n > EXACT_VERTEX_CAP:
        raise SearchSpaceTooLargeError(
            f"exact coloring capped at {EXACT_VERTEX_CAP} vertices, graph has {g.n}", bound=g.n
        )
    if len(clique) == greedy.num_colors:
        return greedy.num_colors, greedy.num_colors, greedy
    exact = _dsatur_exact(g, clique, greedy)
    return exact.num_colors, exact.num_colors, exact


# ---------------------------------------------------------------------------
# tightness construction


def tightness_instance(g: KneserGraph, col: Coloring, split: tuple[int, int]) -> Instance:
    """Instance with one monotone agent per color and b goods such that no
    balanced two-group allocation is fair for all agents.

    Needs K(2t, t, 2). A vertex is read as the bundle the first group gets;
    an agent placed in the second group therefore interprets the vertices
    of her color through their complements. Each agent values a bundle at 0
    exactly when it is a subset of one of her color's bundles, and at 1
    otherwise. In any balanced allocation the first bundle is a vertex, its
    color names one agent, and that agent values her group's bundle at 0
    while the other group's bundle stays at 1 after any single removal.
    """
    if g.s != 2 or g.b != 2 * g.r:
        raise ValueError("tightness construction needs K(2t, t, 2)")
    if not is_proper(g, col):
        raise ValueError("coloring is not proper for this graph")
    n1, n2 = split
    if n1 < 0 or n2 < 0 or n1 + n2 != col.num_colors:
        raise ValueError(f"split {split} must sum to {col.num_colors} colors")
    m = g.b
    full = full_mask(m)
    size = full + 1
    # Bit x of a colour's set is 1 when bundle x lies inside one of its
    # bundles: the set starts at those bundles and is closed downwards one
    # good at a time, taking x from x + 2^j whenever x lacks good j.
    # lacks[j] marks those x: 2^j ones, 2^j zeros, repeated. The table is
    # the complement, read off the binary text lowest bit first.
    every = (1 << size) - 1
    lacks = [every // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1) for j in range(m)]
    inside = [0] * col.num_colors
    for vm, c in zip(g.vertices, col.colors):
        inside[c] |= 1 << (vm if c < n1 else full ^ vm)
    agents = []
    for down in inside:
        for j in range(m):
            down |= (down >> (1 << j)) & lacks[j]
        bits = format(down ^ every, f"0{size}b")[::-1]
        table = tuple(bits.encode().translate(_DIGIT_VALUES))
        agents.append(Valuation(TABLE, m, table=table))
    members = [list(range(n1)), list(range(n1, n1 + n2))]
    return Instance.fixed(m, agents, members)
