"""Seeded question lists for the three workloads.

A workload is a cycle of CLI questions that the benchmark asks again and
again. Everything random comes from ``random.Random(seed)``; sizes and the
order of the cycle are fixed per workload, so another seed changes the
contents of the instances but not how much work a cycle holds. Inputs are
written as JSON or DIMACS files under a work directory; the program only
reads those files. Expected answers are known by construction or computed
here by the referee's brute force, never by the program under test.

Workload notes (mix, seed use, dominant layers) live in WORKLOADS.md.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from . import expect, referee

Check = Callable[[int, object], "str | None"]


@dataclass
class Question:
    family: str
    argv: list[str]
    check: Check


@dataclass
class Plan:
    questions: list[Question]  # one cycle, interleaved across families
    warmup: list[Question]  # the first unit of every family


class _Cycle:
    """Question families; each entry is a unit of questions asked back to
    back, such as a ``reduce`` and the ``search`` that reads its output."""

    def __init__(self):
        self.families: dict[str, list[list[Question]]] = {}

    def add(self, family: str, *steps: tuple[list[str], Check]) -> None:
        unit = [Question(family, argv, check) for argv, check in steps]
        self.families.setdefault(family, []).append(unit)

    def plan(self) -> Plan:
        """Spread every family evenly over the cycle, so any stretch of it
        keeps the mix."""
        families = list(self.families.values())
        longest = max(len(f) for f in families)
        questions = []
        for i in range(longest):
            for fam in families:
                lo, hi = i * len(fam) // longest, (i + 1) * len(fam) // longest
                if lo != hi:
                    questions.extend(fam[lo])
        return Plan(questions, [q for fam in families for q in fam[0]])


class _Writer:
    def __init__(self, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str, ext: str = "json") -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}-{stem}.{ext}")

    def instance(self, stem: str, doc: dict) -> tuple[str, referee.Ref]:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return path, referee.Ref(doc)


def _doc(m: int, agents: list[dict], groups: dict) -> dict:
    return {
        "m": m,
        "agents": [dict(agent, id=i) for i, agent in enumerate(agents)],
        "groups": groups,
    }


def _additive(values) -> dict:
    return {"kind": "additive", "values": list(values)}


def _binary(m: int, desired) -> dict:
    desired = set(desired)
    return {"kind": "binary", "values": [1 if g in desired else 0 for g in range(m)]}


def _fixed(sizes) -> dict:
    groups, start = [], 0
    for size in sizes:
        groups.append(list(range(start, start + size)))
        start += size
    return {"fixed": groups}


# ---------------------------------------------------------------------------
# exhaust: certified non-existence over whole candidate spaces


def _planted_values(rng: random.Random, m: int) -> list[int]:
    """Additive values with an exact two-way split, so identical agents have EF."""
    vals = [rng.randint(1, 9) for _ in range(m)]
    goods = rng.sample(range(m), m)
    cut = rng.randint(1, m - 1)
    left, right = goods[:cut], goods[cut:]
    diff = sum(vals[g] for g in left) - sum(vals[g] for g in right)
    vals[rng.choice(right if diff > 0 else left)] += abs(diff)
    return vals


# Corpus cores: small certified impossibilities, padded with goods worth
# nothing to anyone. A worthless good never helps a removal rule, so the
# padded instance keeps the core's answer.
def _core_efx_2_1():
    return 4, [_additive([3, 1, 1, 1]), _additive([1, 3, 1, 1]), _additive([3, 3, 1, 1])], [2, 1], "efx"


def _core_efx0_2_1():
    agents = [_binary(6, [0, 1, 2]), _binary(6, [3, 4, 5]), _binary(6, range(6))]
    return 6, agents, [2, 1], "efx0"


def _core_efc_c2():
    side = [_binary(5, c) for c in combinations(range(5), 3)]
    return 5, side + side, [10, 10], "ef2"


def _core_binary_6_1():
    agents = [_binary(4, c) for c in combinations(range(4), 2)] + [_binary(4, range(4))]
    return 4, agents, [6, 1], "ef1"


CORES = {
    "additive-efx-2-1": _core_efx_2_1,
    "efx0-2-1": _core_efx0_2_1,
    "efc-equal-c2": _core_efc_c2,
    "binary-6-1": _core_binary_6_1,
}


def pad_core(core, m: int, rng: random.Random) -> tuple[dict, str]:
    """Place the core's goods at seeded positions among m goods; the rest are worthless."""
    m0, agents, sizes, notion = core()
    where = sorted(rng.sample(range(m), m0))
    padded = []
    for agent in agents:
        vals = [0] * m
        for g0, g in enumerate(where):
            vals[g] = agent["values"][g0]
        padded.append(dict(agent, values=vals))
    return _doc(m, padded, _fixed(sizes)), notion


def unsat_clauses(rng: random.Random, m: int, padding: int) -> list[tuple[bool, tuple[int, int, int]]]:
    """A monotone 3-CNF over m variables with an unsatisfiable 5-variable core.

    Every triple of the core's variables appears once positive (at least
    three of the five are true) and once negative (at most two are true).
    """
    core = rng.sample(range(m), 5)
    clauses = [(sign, tuple(sorted(c))) for c in combinations(core, 3) for sign in (True, False)]
    for _ in range(padding):
        clauses.append((rng.random() < 0.5, tuple(sorted(rng.sample(range(m), 3)))))
    rng.shuffle(clauses)
    return clauses


def clause_instance(m: int, clauses) -> dict:
    """Monotone 3-CNF as an instance: positive clauses first group, in clause order."""
    agents = [_binary(m, vs) for _, vs in clauses]
    first = [i for i, (pos, _) in enumerate(clauses) if pos]
    second = [i for i, (pos, _) in enumerate(clauses) if not pos]
    return _doc(m, agents, {"fixed": [first, second]})


def _search(path: str, notion: str, *flags: str) -> list[str]:
    return ["search", path, "--notion", notion, *flags]


def parity_doc(rng: random.Random, m: int, sizes, variable: bool = False) -> dict:
    """Identical additive agents whose common total is not divisible by the
    number of groups: no allocation is envy-free."""
    k = len(sizes)
    vals = [rng.randint(1, 9) for _ in range(m)]
    if sum(vals) % k == 0:
        vals[rng.randrange(m)] += 1
    groups = {"variable": list(sizes)} if variable else _fixed(sizes)
    return _doc(m, [_additive(vals)] * sum(sizes), groups)


def prop_blocked_doc(rng: random.Random, m: int, k: int) -> dict:
    """Two agents in different groups value one and the same good only, so
    one of them always holds nothing she values: no proportional allocation."""
    star = rng.randrange(m)
    agents = [_additive([5 if g == star else 0 for g in range(m)])] * 2
    agents += [_additive(rng.randint(0, 9) for _ in range(m)) for _ in range(k)]
    groups = [[0], [1]] + [[] for _ in range(k - 2)]
    for i in range(2, len(agents)):
        groups[(i - 2) % k].append(i)
    return _doc(m, agents, {"fixed": groups})


def exhaust(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    w = _Writer(workdir)
    cycle = _Cycle()

    def none(family: str, doc: dict, notion: str, *flags: str, partitions: int = 1) -> None:
        path, _ = w.instance(family, doc)
        k = len(doc["groups"].get("fixed") or doc["groups"]["variable"])
        count = referee.expected_examined(doc["m"], k, "--balanced-goods" in flags, partitions)
        cycle.add(family, (_search(path, notion, *flags), expect.exhausted(count)))

    for m in (13, 13, 14, 15, 16, 18):
        none("ef-parity-k2", parity_doc(rng, m, (2, 2)), "ef")
    for m in (9, 9, 10):
        none("ef-parity-k3", parity_doc(rng, m, (2, 1, 1)), "ef")
    for m in (13, 14):
        for name, core in CORES.items():
            doc, notion = pad_core(core, m, rng)
            none("core-pad", doc, notion)
    for m in (13, 13, 14):
        none("sat-unsat", clause_instance(m, unsat_clauses(rng, m, 12)), "ef1")
    for m, k in ((13, 2), (14, 2), (15, 2), (9, 3)):
        none("prop-blocked", prop_blocked_doc(rng, m, k), "prop")
    none("balanced-goods", parity_doc(rng, 13, (2, 2)), "ef", "--balanced-goods")
    none("balanced-goods", parity_doc(rng, 14, (2, 2)), "ef", "--balanced-goods")
    none("balanced-goods", clause_instance(13, unsat_clauses(rng, 13, 12)), "ef1", "--balanced-goods")
    none("balanced-goods", prop_blocked_doc(rng, 13, 2), "prop", "--balanced-goods")
    for n, m in ((4, 11), (4, 12), (5, 10)):
        sizes = (n - n // 2, n // 2)
        parts = referee.balanced_count(n, 2)
        none("balanced-agents", parity_doc(rng, m, sizes, variable=True), "ef", "--balanced-agents", partitions=parts)
    for m, variable in ((12, False), (13, False), (12, True)):
        vals = _planted_values(rng, m)
        groups = {"variable": [2, 2]} if variable else _fixed([2, 2])
        path, ref = w.instance("found", _doc(m, [_additive(vals)] * 4, groups))
        flags = ("--balanced-agents",) if variable else ()
        cycle.add("found", (_search(path, "ef", *flags), expect.found(ref, "ef", balanced_agents=variable)))
    return cycle.plan()


# ---------------------------------------------------------------------------
# solve-stream: many small questions across every subcommand


def monotone_table(rng: random.Random, m: int) -> list[int]:
    """A random monotone table indexed by bundle mask, with u(empty) = 0:
    each bundle adds 0..2 to the best of its one-smaller subsets."""
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        best = 0
        rest = mask
        while rest:
            low = rest & -rest
            best = max(best, table[mask ^ low])
            rest ^= low
        table[mask] = best + rng.randint(0, 2)
    return table


def _table(rng: random.Random, m: int) -> dict:
    return {"kind": "table", "table": {str(mask): v for mask, v in enumerate(monotone_table(rng, m))}}


def _desire(rng: random.Random, m: int, p: float) -> dict:
    return _binary(m, [g for g in range(m) if rng.random() < p])


def _alloc_arg(bundles: list[list[int]]) -> str:
    return ";".join(",".join(str(g) for g in b) for b in bundles)


def solve_stream(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    w = _Writer(workdir)
    cycle = _Cycle()

    def add(family: str, argv: list[str], check: Check) -> None:
        cycle.add(family, (argv, check))

    def additive_agents(n: int, m: int) -> list[dict]:
        return [_additive(rng.randint(0, 9) for _ in range(m)) for _ in range(n)]

    # two rounds of the same shapes with fresh contents: a longer cycle keeps
    # the tail quantiles from hanging on one question
    for _round in range(2):
        # binary solver on shapes the reduction rules empty
        for shape, m, p in (
            ((5, 1), 4, 0.5), ((3, 2), 6, 0.4), ((4, 1), 8, 0.6), ((2, 2), 10, 0.3),
            ((5, 1), 12, 0.7), ((3, 2), 14, 0.5), ((4, 1), 16, 0.3), ((2, 2), 18, 0.8),
            ((5, 1), 20, 0.4), ((3, 2), 24, 0.6), ((4, 1), 27, 0.5), ((2, 2), 30, 0.2),
        ):
            doc = _doc(m, [_desire(rng, m, p) for _ in range(sum(shape))], _fixed(shape))
            path, ref = w.instance(f"binary-{shape[0]}-{shape[1]}", doc)
            add("binary", ["solve", path, "--method", "binary"], expect.found(ref, "ef1"))
        # larger shapes fall back to the oracle; the referee decides them here
        for shape, m, p in (((4, 2), 8, 0.5), ((3, 3), 9, 0.4), ((6, 1), 7, 0.5)):
            doc = _doc(m, [_desire(rng, m, p) for _ in range(sum(shape))], _fixed(shape))
            path, ref = w.instance(f"binary-{shape[0]}-{shape[1]}", doc)
            hit = ref.brute_force_fair("ef1")
            check = expect.found(ref, "ef1") if hit else expect.exhausted(2**m)
            add("binary-fallback", ["solve", path, "--method", "binary"], check)

        for n, m, table in ((4, 12, False), (3, 7, True)):
            agents = [_table(rng, m) for _ in range(n)] if table else additive_agents(n, m)
            path, ref = w.instance("knife", _doc(m, agents, {"variable": [n - n // 2, n // 2]}))
            # the knife picks a balanced partition and balanced bundles itself
            add("knife", ["solve", path, "--method", "knife"], expect.found(ref, "ef1", True, True))
        for sizes, m, table in (((2, 3), 11, False), ((1, 2), 8, True)):
            agents = [_table(rng, m) for _ in range(sum(sizes))] if table else additive_agents(sum(sizes), m)
            path, ref = w.instance("cutchoose", _doc(m, agents, {"variable": list(sizes)}))
            add("cutchoose", ["solve", path, "--method", "cutchoose"], expect.found(ref, "ef1"))
        for sizes, m in (((2, 2), 12), ((2, 1, 2), 14)):
            path, ref = w.instance("prop", _doc(m, additive_agents(sum(sizes), m), {"variable": list(sizes)}))
            add("prop", ["solve", path, "--method", "prop"], expect.prop_up_to(ref))
        for m in (9, 13):
            agents = additive_agents(2, m) + [_desire(rng, m, 0.5)]
            path, ref = w.instance("two-one", _doc(m, agents, _fixed([2, 1])))
            add("two-one", ["solve", path, "--method", "two-one"], expect.found(ref, "ef1"))
        for m in (8, 15):
            path, ref = w.instance("exact1", _doc(m, additive_agents(2, m), _fixed([1, 1])))
            add("exact1", ["solve", path, "--method", "exact1"], expect.exact1(ref))
        for notion, m in (("ef1", 10), ("ef2", 12), ("efx", 9), ("efx0", 11), ("prop", 10)):
            agents = additive_agents(3, m) + [_desire(rng, m, 0.5) for _ in range(2)]
            doc = _doc(m, agents, _fixed([3, 2]))
            path, ref = w.instance(f"check-{notion}", doc)
            labels = [rng.randrange(2) for _ in range(m)]
            bundles = [[g for g in range(m) if labels[g] == i] for i in range(2)]
            fair = ref.fairness_problem([referee.goods_mask(b) for b in bundles], ref.groups, notion) is None
            argv = ["check", path, "--allocation", _alloc_arg(bundles), "--notion", notion]
            add("check", argv, expect.verdict(fair))
        # SAT bridge pairs: reduce a formula, then search the instance it wrote;
        # one random formula decided by brute force, one with an unsatisfiable core
        for n, clauses in (
            (10, [(rng.random() < 0.5, tuple(sorted(rng.sample(range(10), 3)))) for _ in range(20)]),
            (10, unsat_clauses(rng, 10, 4)),
        ):
            cnf = w.path("formula", "cnf")
            with open(cnf, "w", encoding="utf-8") as fh:
                fh.write(f"p cnf {n} {len(clauses)}\n")
                for positive, variables in clauses:
                    fh.write(" ".join(str((v + 1) if positive else -(v + 1)) for v in variables) + " 0\n")
            out = w.path("reduced")
            sat = referee.satisfiable(n, clauses)
            cycle.add(
                "sat-pair",
                (["reduce", "--formula", cnf, "--out", out], expect.reduced(out, n, clauses)),
                (["search", out], expect.satisfying(n, clauses) if sat else expect.exhausted(2**n)),
            )
    return cycle.plan()


# ---------------------------------------------------------------------------
# kneser-chain: colouring to impossibility


# exact chromatic numbers asked in the timed loop; K(8,4,2) alone takes
# about 18 s and is measured once, in the traced run
EXACT_GRAPHS = ((7, 3, 2), (7, 4, 3), (8, 3, 2), (8, 5, 4), (8, 4, 3), (9, 2, 1), (9, 7, 6))
CHAIN_TS = (3, 4, 5, 6)
DROP_TS = (3, 4, 5)


def first_fit_colouring(t: int) -> list[int]:
    """A proper colouring of K(2t, t, 2) by first fit in vertex order."""
    verts = referee.kneser_vertices(2 * t, t)
    colours: list[int] = []
    for i, v in enumerate(verts):
        taken = {colours[j] for j in range(i) if (v & verts[j]).bit_count() < 2}
        c = 0
        while c in taken:
            c += 1
        colours.append(c)
    return colours


def tightness_doc(t: int, colours: list[int], n1: int, drop: int | None = None) -> dict:
    """One table agent per colour: a bundle is worth 0 when it lies inside one of
    the colour's vertices (complements for second-group colours), else 1.
    ``drop`` leaves one colour's agent out."""
    m = 2 * t
    full = (1 << m) - 1
    verts = referee.kneser_vertices(m, t)
    y = max(colours) + 1
    agents, first, second = [], [], []
    for c in range(y):
        if c == drop:
            continue
        bundles = [v if c < n1 else full ^ v for v, col in zip(verts, colours) if col == c]
        table = {str(sub): 0 if any(sub & ~b == 0 for b in bundles) else 1 for sub in range(full + 1)}
        (first if c < n1 else second).append(len(agents))
        agents.append({"kind": "table", "table": table})
    return _doc(m, agents, {"fixed": [first, second]})


def kneser_chain(seed: int, workdir: str, greedy_colours: dict[int, int]) -> Plan:
    """``greedy_colours[t]`` is the colour count of the CLI's bounds colouring
    of K(2t, t, 2), which the tightness split must sum to."""
    rng = random.Random(seed)
    w = _Writer(workdir)
    cycle = _Cycle()
    for b, r, s in EXACT_GRAPHS:
        argv = ["kneser", "--b", str(b), "--r", str(r), "--s", str(s), "--chi", "exact"]
        cycle.add("chi-exact", (argv, expect.kneser_exact(b, r, s)))
    for t in CHAIN_TS:
        y = greedy_colours[t]
        n1 = rng.randint(1, y - 1)
        out = w.path(f"tight-{t}")
        argv = ["kneser", "--b", str(2 * t), "--r", str(t), "--s", "2", "--chi", "bounds",
                "--tightness", "--split", f"{n1},{y - n1}", "--out", out]
        balanced = referee.expected_examined(2 * t, 2, balanced_goods=True)
        cycle.add(
            "chain",
            (argv, expect.kneser_tightness(t, out, y)),
            (["search", out, "--notion", "ef1", "--balanced-goods"], expect.exhausted(balanced)),
        )
    for t in DROP_TS:
        colours = first_fit_colouring(t)
        y = max(colours) + 1
        doc = tightness_doc(t, colours, rng.randint(1, y - 1), drop=rng.randrange(y))
        path, ref = w.instance(f"drop-{t}", doc)
        argv = ["search", path, "--notion", "ef1", "--balanced-goods"]
        cycle.add("drop", (argv, expect.found(ref, "ef1", balanced_goods=True)))
    return cycle.plan()
