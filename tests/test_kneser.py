"""Generalized Kneser graphs, exact coloring, and the tightness construction."""

import math
import random
import time
from itertools import combinations

import pytest

from groupfair import (
    EF1,
    Instance,
    SearchConstraints,
    SearchSpaceTooLargeError,
    build_kneser,
    chromatic_number,
    find_fair,
    tightness_instance,
    validate,
)
from groupfair.kneser import (
    BUILD_GUARD,
    EXACT_VERTEX_CAP,
    Coloring,
    KneserGraph,
    _dsatur_exact,
    _greedy_clique,
    _greedy_coloring,
    is_proper,
    to_dimacs,
)

# chi(K(6,3,2)) measured once by the exact solver and pinned here; the
# acceptance run recomputes it and must land on the same value
CHI_K632 = 6


def test_build_vertices_lexicographic():
    g = build_kneser(4, 2, 1)
    assert g.n == math.comb(4, 2)
    assert g.vertices == (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)


def test_edge_rule_brute_force():
    for b, r, s in [(5, 2, 1), (5, 2, 2), (6, 3, 2), (6, 2, 1), (4, 4, 1)]:
        g = build_kneser(b, r, s)
        for i, j in combinations(range(g.n), 2):
            expect = (g.vertices[i] & g.vertices[j]).bit_count() <= s - 1
            assert g.is_edge(i, j) == expect
            assert g.is_edge(j, i) == expect
        assert all(not g.is_edge(i, i) for i in range(g.n))
        assert sum(g.degree(i) for i in range(g.n)) == 2 * len(g.edges())


def _pairwise_adj(g):
    # the definition, one popcount per pair
    adj = [0] * g.n
    for i, j in combinations(range(g.n), 2):
        if (g.vertices[i] & g.vertices[j]).bit_count() < g.s:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def _reference_greedy(g):
    # largest degree first, smallest color no colored neighbor holds
    colors = [-1] * g.n
    for v in sorted(range(g.n), key=lambda v: (-g.degree(v), v)):
        taken = {colors[u] for u in range(g.n) if g.is_edge(v, u)}
        colors[v] = next(c for c in range(g.n) if c not in taken)
    return tuple(colors)


def test_bitset_build_matches_pairwise_definition():
    for b in range(1, 10):
        for r in range(1, b + 1):
            for s in range(1, r + 1):
                g = build_kneser(b, r, s)
                assert g.adj == _pairwise_adj(g), (b, r, s)
                edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.is_edge(i, j)]
                assert g.edges() == edges
                assert g.edge_count == len(edges)
                if g.n <= 40:
                    assert _greedy_coloring(g).colors == _reference_greedy(g), (b, r, s)


def _pairwise_proper(g, col):
    if len(col.colors) != g.n or set(col.colors) != set(range(col.num_colors)):
        return False
    return all(col.colors[i] != col.colors[j] for i, j in g.edges())


def test_is_proper_matches_pairwise_check():
    rng = random.Random(5)
    outcomes = set()
    for b, r, s in [(5, 2, 1), (6, 3, 2), (7, 3, 2), (8, 4, 3), (9, 2, 1)]:
        g = build_kneser(b, r, s)
        _, hi, base = chromatic_number(g, mode="bounds")
        for _ in range(40):
            relabel = list(range(hi))
            rng.shuffle(relabel)
            colors = [relabel[c] for c in base.colors]
            for _ in range(rng.choice([0, 0, 1, 2])):  # recolor a few vertices
                colors[rng.randrange(g.n)] = rng.randrange(hi)
            num = rng.choice([hi, hi, hi, hi + 1, hi - 1])
            col = Coloring(tuple(colors), num)
            expect = _pairwise_proper(g, col)
            assert is_proper(g, col) == expect
            outcomes.add(expect)
    assert outcomes == {True, False}


def _reference_dsatur(g, clique, ub):
    # the per-vertex DSATUR the bitset kernel replaced, kept as its reference:
    # neighbour colour sets walked bit by bit, the next vertex by a full scan
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    best_num = ub.num_colors
    best = list(ub.colors)
    colors = [-1] * n
    nbr_colors = [0] * n  # bitmask of colors seen on each vertex's neighbors

    def paint(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        rest = g.adj[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            if not nbr_colors[u] >> c & 1:
                nbr_colors[u] |= 1 << c
                touched.append(u)
        return touched

    def unpaint(v: int, c: int, touched: list[int]) -> None:
        colors[v] = -1
        for u in touched:
            nbr_colors[u] &= ~(1 << c)

    # symmetry breaking: a maximal clique needs pairwise distinct colors
    for i, v in enumerate(clique):
        paint(v, i)
    start_used = len(clique)

    def rec(done: int, used: int) -> None:
        nonlocal best_num, best
        if used >= best_num:
            return
        if done == n:
            best_num = used
            best = colors[:]
            return
        v = -1
        key = None
        for u in range(n):
            if colors[u] < 0:
                cand = (-nbr_colors[u].bit_count(), -deg[u], u)
                if key is None or cand < key:
                    key = cand
                    v = u
        limit = min(used + 1, best_num - 1)
        taken = nbr_colors[v]
        for c in range(limit):
            if taken >> c & 1:
                continue
            touched = paint(v, c)
            rec(done + 1, max(used, c + 1))
            unpaint(v, c, touched)
            if best_num <= max(used, len(clique)):
                return  # cannot beat the clique bound anyway

    if start_used < best_num:
        rec(start_used, start_used)
    return Coloring(tuple(best), best_num)


def _random_graph(rng, n, density):
    # not regular in general, so the degree tie-break matters
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return KneserGraph(0, 0, 0, tuple(range(n)), tuple(adj))


def test_dsatur_kernel_matches_reference():
    rng = random.Random(7)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(2, 26), rng.choice([0.2, 0.4, 0.6, 0.8]))
        clique = _greedy_clique(g)
        # the greedy upper bound, and n colours so that the search runs to the end
        for ub in (_greedy_coloring(g), Coloring(tuple(range(g.n)), g.n)):
            got = _dsatur_exact(g, clique, ub)
            assert got == _reference_dsatur(g, clique, ub)
            assert is_proper(g, got)
    searched = []
    for b in range(1, 9):
        for r in range(1, b + 1):
            for s in range(1, r + 1):
                g = build_kneser(b, r, s)
                clique, ub = _greedy_clique(g), _greedy_coloring(g)
                if g.n > EXACT_VERTEX_CAP or len(clique) == ub.num_colors or (b, r, s) == (8, 4, 2):
                    continue
                assert _dsatur_exact(g, clique, ub) == _reference_dsatur(g, clique, ub), (b, r, s)
                searched.append((b, r, s))
    assert len(searched) == 18


def test_petersen():
    g = build_kneser(5, 2, 1)
    assert g.n == 10
    assert all(g.degree(i) == 3 for i in range(g.n))
    lo, hi, col = chromatic_number(g)
    assert lo == hi == 3
    assert is_proper(g, col)


def test_s_equals_r_gives_complete_graph():
    # any two distinct r-subsets share at most r-1 elements
    g = build_kneser(5, 2, 2)
    assert len(g.edges()) == g.n * (g.n - 1) // 2
    lo, hi, _ = chromatic_number(g)
    assert lo == hi == g.n


def test_single_vertex_graph():
    g = build_kneser(3, 3, 1)
    assert g.n == 1 and g.edges() == []
    lo, hi, col = chromatic_number(g)
    assert lo == hi == 1
    assert col.colors == (0,)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_kneser(2, 3, 1)
    with pytest.raises(ValueError):
        build_kneser(3, 2, 0)
    with pytest.raises(ValueError):
        build_kneser(3, 2, 3)
    with pytest.raises(SearchSpaceTooLargeError):
        build_kneser(30, 15, 1)


def test_build_guard_stops_at_the_cap():
    # C(400000, 200000) has about 120,000 digits: computed in full it took
    # 1.6 s and then failed to print; the count now stops past the cap
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLargeError, match=f"more than {BUILD_GUARD} vertices, the cap"):
        build_kneser(400000, 200000, 1)
    assert time.perf_counter() - start < 0.1
    # below the cap the count is exact, on either side of r = b / 2, and
    # C(16, 8) = 12870 is just above it
    assert build_kneser(14, 4, 1).n == build_kneser(14, 10, 1).n == math.comb(14, 4)
    with pytest.raises(SearchSpaceTooLargeError):
        build_kneser(16, 8, 1)


def test_chi_k422_is_six():
    g = build_kneser(4, 2, 2)
    lo, hi, col = chromatic_number(g)
    assert lo == hi == 6
    assert is_proper(g, col) and col.num_colors == 6


def test_chi_k632_regression():
    g = build_kneser(6, 3, 2)
    assert g.n == 20
    lo, hi, col = chromatic_number(g)
    assert lo == hi == CHI_K632
    assert is_proper(g, col)


def test_bounds_mode_brackets_exact():
    for b, r, s in [(5, 2, 1), (4, 2, 2), (6, 3, 2), (6, 2, 2)]:
        g = build_kneser(b, r, s)
        lo, hi, col = chromatic_number(g, mode="bounds")
        assert lo <= hi
        assert is_proper(g, col) and col.num_colors == hi
        exact_lo, exact_hi, _ = chromatic_number(g)
        assert lo <= exact_lo == exact_hi <= hi
    with pytest.raises(ValueError):
        chromatic_number(g, mode="quick")


def test_exact_mode_vertex_cap():
    g = build_kneser(12, 2, 1)  # 66 vertices, fine
    assert g.n <= 70
    big = build_kneser(13, 2, 1)  # 78 vertices, over the cap
    with pytest.raises(SearchSpaceTooLargeError):
        chromatic_number(big)
    lo, hi, _ = chromatic_number(big, mode="bounds")
    assert lo <= hi


def test_is_proper_rejects_defects():
    g = build_kneser(5, 2, 1)
    _, _, col = chromatic_number(g)
    assert is_proper(g, col)
    assert not is_proper(g, Coloring(col.colors, col.num_colors + 1))  # unused color
    assert not is_proper(g, Coloring(col.colors[:-1], col.num_colors))  # short
    assert not is_proper(g, Coloring((0,) * g.n, 1))  # monochromatic edge
    bad = list(col.colors)
    bad[0] = -1
    assert not is_proper(g, Coloring(tuple(bad), col.num_colors))


def test_dimacs_output():
    g = build_kneser(4, 2, 1)
    text = to_dimacs(g)
    lines = text.strip().split("\n")
    assert lines[0].startswith("c ")
    n_decl, e_decl = lines[1].split()[2:4]
    assert int(n_decl) == g.n
    edges = [tuple(int(x) for x in ln.split()[1:]) for ln in lines[2:]]
    assert len(edges) == int(e_decl) == len(g.edges())
    assert all(1 <= i <= g.n and 1 <= j <= g.n for i, j in edges)
    assert {(i - 1, j - 1) for i, j in edges} == set(g.edges())


def test_tightness_instance_shape():
    g = build_kneser(4, 2, 2)
    _, _, col = chromatic_number(g)
    inst = tightness_instance(g, col, (3, 3))
    assert inst.m == 4 and inst.n == 6 and inst.k == 2
    assert validate(inst) == []
    # normalized and subset-monotone by construction; each agent rates her
    # own color's bundles (or their complements) at zero
    for v in inst.agents:
        assert v.value(0) == 0
        assert v.value(0b1111) == 1


def test_tightness_blocks_balanced_ef1():
    g = build_kneser(4, 2, 2)
    _, _, col = chromatic_number(g)
    for split in [(3, 3), (6, 0), (2, 4)]:
        inst = tightness_instance(g, col, split)
        cert = find_fair(inst, SearchConstraints(EF1, balanced_allocation=True))
        assert not cert.found
        assert cert.examined == 6  # the balanced 2+2 splits of four goods


def test_tightness_validates_inputs():
    g = build_kneser(4, 2, 2)
    _, _, col = chromatic_number(g)
    with pytest.raises(ValueError):
        tightness_instance(g, col, (2, 2))  # split does not sum to 6
    with pytest.raises(ValueError):
        tightness_instance(g, Coloring((0,) * g.n, 1), (1, 0))  # improper
    petersen = build_kneser(5, 2, 1)
    _, _, pcol = chromatic_number(petersen)
    with pytest.raises(ValueError):
        tightness_instance(petersen, pcol, (2, 1))  # not K(2t,t,2)


def _submask_walk_table(m, bundles):
    """A colour's table by walking the submasks of each of its bundles."""
    table = [1] * (1 << m)
    for bm in bundles:
        sub = bm
        while True:
            table[sub] = 0
            if not sub:
                break
            sub = (sub - 1) & bm
    return tuple(table)


def test_tightness_tables_match_definition():
    for t in (3, 4, 5, 6):
        g = build_kneser(2 * t, t, 2)
        _, y, col = chromatic_number(g, mode="exact" if t == 3 else "bounds")
        full = (1 << 2 * t) - 1
        for n1 in sorted({y, 0, 1, y - 1, y // 2}):
            inst = tightness_instance(g, col, (n1, y - n1))
            for c, v in enumerate(inst.agents):
                bundles = [
                    vm if c < n1 else full ^ vm
                    for vm, vc in zip(g.vertices, col.colors)
                    if vc == c
                ]
                assert v.table == _submask_walk_table(2 * t, bundles), (t, n1, c)
                if t <= 4:  # the definition itself, entry by entry
                    expect = tuple(
                        0 if any(sub & ~bm == 0 for bm in bundles) else 1 for sub in range(full + 1)
                    )
                    assert v.table == expect, (t, n1, c)


def test_fewer_agents_than_colors_frees_balanced_ef1():
    """With chi-1 or fewer agents a balanced EF1 allocation reappears.

    Dropping any one color class from the tightness instance leaves some
    vertex bundle no remaining agent rejects.
    """
    g = build_kneser(4, 2, 2)
    _, _, col = chromatic_number(g)
    base = tightness_instance(g, col, (6, 0))
    for drop in range(6):
        keep = [a for a in range(6) if a != drop]
        sub = Instance.fixed(4, [base.agents[a] for a in keep], [list(range(5)), []])
        cert = find_fair(sub, SearchConstraints(EF1, balanced_allocation=True))
        assert cert.found
