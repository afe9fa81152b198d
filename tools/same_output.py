"""Check that two checkouts of this repository answer the same CLI questions alike.

    python3 tools/same_output.py PARENT_DIR CHANGE_DIR --seeds 1 2 \\
        [--plans exhaust solve-stream kneser-chain] [--drop-stats nodes pruned ...]

For each seed, every question of the chosen perfbench plans is asked, in
plan order, then fixed sets of seeded variable-group ``search`` questions
(see :func:`variable_questions`), of variable-group ``search`` questions
that walk several scans under every notion but EF (see
:func:`slack_questions`), of EF2, EFX, EFX0 and EFc ``search``
questions (see :func:`removal_questions`) and of fixed-group ``search``
questions with tables next to additive or binary agents (see
:func:`mixed_questions`), of one-group ``search`` questions (see
:func:`one_group_questions`) and of ``solve`` questions with every method
on additive, binary and table agents (see :func:`solve_questions`), and ``fuzz``
with every suite in JSON, 200 runs from the seed (see
:func:`fuzz_questions`), then ``solve`` with every method on an instance
with no agents and on one with no goods (see :func:`edge_questions`), two
``kneser`` questions that fail on a ``--tightness`` input after asking for
DIMACS text on stdout (see :func:`kneser_questions`), ``corpus`` in json
and table format and ``search`` on every ``corpus/*.json`` of CHANGE_DIR.
Each checkout answers in a process of its own that imports ``groupfair``
from that checkout's ``src``; the plans come from the ``perfbench`` next
to this script, which is only imported. Inputs are written under one
temporary directory, the same path for both sides.

An exception that escapes the CLI is recorded as the question's exit code,
``crash:`` with its type and message.
Exit code, stdout and stderr are compared question by question, with every
``elapsed`` value masked and the ``stats`` keys named by ``--drop-stats``
removed (in JSON and in the table format's ``stats:`` line); a key only
one side reports, such as a new ``scans``, can be dropped too. One line is
printed per difference, then a summary; the exit code is 0 when nothing
differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLANS = ("exhaust", "solve-stream", "kneser-chain")


def _valuation(rng: random.Random, m: int, kind: str) -> dict:
    if kind == "table":  # monotone: each mask adds 0..2 to its best subset
        table = [0] * (1 << m)
        for mask in range(1, 1 << m):
            table[mask] = max(table[mask & ~(1 << g)] for g in range(m) if mask >> g & 1) + rng.randrange(3)
        return {"kind": "table", "table": {str(mask): x for mask, x in enumerate(table)}}
    top = 1 if kind == "binary" else 9
    return {"kind": kind, "values": [rng.randint(0, top) for _ in range(m)]}


def variable_questions(seed: int, workdir: str) -> list[list[str]]:
    """Seeded ``search`` questions on variable groups whose agents repeat a
    few valuations, so that many partitions share an orbit key: k = 2 and 3,
    declared sizes and ``--balanced-agents``, with and without
    ``--balanced-goods``. Every other instance holds multiples c * v of one
    vector v whose total k does not divide, so EF fails in every partition
    with no empty group and the search exhausts them all; the others mix
    additive, binary and table agents and mostly find one. The instances are
    written under ``workdir``."""
    rng = random.Random(f"variable-{seed}")
    os.makedirs(workdir, exist_ok=True)
    out = []
    for i in range(16):
        k = 2 + i % 2
        n = rng.randint(k + 1, 6)
        if i % 4 < 2:
            m = rng.randint(6, 10 if k == 2 else 7)
            v = [rng.randint(1, 9) for _ in range(m)]
            v[0] += 1 if sum(v) % k == 0 else 0
            pool = [{"kind": "additive", "values": [c * x for x in v]} for c in range(1, rng.randint(1, 3) + 1)]
            notion = "ef"
        else:
            m = rng.randint(3, 5)
            kinds = [rng.choice(("additive", "binary", "table")) for _ in range(rng.randint(1, 3))]
            pool = [_valuation(rng, m, kind) for kind in kinds]
            notion = rng.choice(("ef", "ef1", "prop"))
        agents = [{"id": a, **rng.choice(pool)} for a in range(n)]
        cuts = sorted(rng.randint(1, n - 1) for _ in range(k - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        path = os.path.join(workdir, f"variable-{seed}-{i}.json")
        with open(path, "w") as fh:
            json.dump({"m": m, "agents": agents, "groups": {"variable": sizes}}, fh)
        flags = ["--balanced-agents"] if i % 8 >= 4 else []
        flags += ["--balanced-goods"] if rng.random() < 0.3 else []
        flags += ["--format", "table"] if i % 5 == 0 else []
        out.append(["search", path, "--notion", notion, *flags])
    return out


def slack_questions(seed: int, workdir: str) -> list[list[str]]:
    """Seeded variable-group ``search`` questions under EF1, EF2, EFX, EFX0
    and PROP, two per notion, one on binary and one on additive agents, of
    distinct values, each of which walks at least three scans, so that a
    checker's slack is read again on every scan. k = 2, one group holding a
    single agent. With c = 2 for EF2 and 1 otherwise, two to four lone
    agents each desire a core of 3c + 1 goods of their own, at values from
    f to under 1.5 f (f = 1 for binary agents), and the other agents desire
    each (c + 1)-subset of a core. A partition that leaves a lone agent
    alone has no fair allocation: its bundle holds at most c goods of its
    core, or the desirer of c + 1 of them finds them all in the other
    bundle, so the lone agent holds under 3 f, and the other bundle keeps
    3 f or more after any removal of c of its goods (PROP: the lone bundle
    holds one core good or none, under half of the agent's total). Those
    partitions come first, each with a key of its own. A few agents of
    random values take no part in the argument. The instances are written
    under ``workdir``."""
    rng = random.Random(f"slack-{seed}")
    os.makedirs(workdir, exist_ok=True)
    out = []
    for i, notion in enumerate(n for n in ("ef1", "ef2", "efx", "efx0", "prop") for _ in "ab"):
        c = 2 if notion == "ef2" else 1
        m = 8 if c == 2 else rng.randint(5, 6)
        kind = ("binary", "additive")[i % 2]

        def agent(values: dict) -> dict:
            return {"kind": kind, "values": [values.get(g, 0) for g in range(m)]}

        cores = rng.sample(list(itertools.combinations(range(m), 3 * c + 1)), rng.randint(2, 4))
        fs = rng.sample(range(2, 9), len(cores)) if kind == "additive" else [1] * len(cores)
        lone = [agent({g: rng.randint(f, f + (f - 1) // 2) for g in core}) for f, core in zip(fs, cores)]
        subsets = sorted({s for core in cores for s in itertools.combinations(core, c + 1)})
        top = 5 if kind == "additive" else 1
        desirers = [agent({g: rng.randint(1, top) for g in subset}) for subset in subsets]
        others = [agent({g: rng.randint(0, top) for g in range(m)}) for _ in range(rng.randint(0, 2))]
        first = i % 4 < 2  # lone agents first in sizes (1, n - 1), else last in (n - 1, 1)
        pool = lone + desirers + others if first else desirers + others + lone
        n = len(pool)
        path = os.path.join(workdir, f"slack-{seed}-{i}.json")
        with open(path, "w") as fh:
            json.dump({"m": m, "agents": [{"id": a, **v} for a, v in enumerate(pool)],
                       "groups": {"variable": [1, n - 1] if first else [n - 1, 1]}}, fh)
        flags = ["--balanced-goods"] if rng.random() < 0.3 else []
        out.append(["search", path, "--notion", notion, *flags])
    return out


def removal_questions(seed: int, workdir: str) -> list[list[str]]:
    """Seeded ``search`` questions under EF2, EFX and EFX0 on 13 to 16
    goods, free and with ``--balanced-goods``: perfbench's padded corpus
    cores, asked under their own notion (exhausted) or another one, and
    identical agents on parity or planted values (mostly found); then one
    padded core under EFc with c = m + 2. The instances are written under
    ``workdir``."""
    from perfbench import workloads

    rng = random.Random(f"removal-{seed}")
    os.makedirs(workdir, exist_ok=True)
    cores = {"ef2": "efc-equal-c2", "efx": "additive-efx-2-1", "efx0": "efx0-2-1"}
    out = []
    for i in range(12):
        notion = ("ef2", "efx", "efx0")[i % 3]
        m = rng.randint(13, 16)
        if i % 4 < 2:
            core = cores[notion] if i % 4 == 0 else rng.choice(sorted(workloads.CORES))
            doc, _ = workloads.pad_core(workloads.CORES[core], m, rng)
        elif i % 4 == 2:
            doc = workloads.parity_doc(rng, m, (2, 2))
        else:
            values = workloads._planted_values(rng, m)
            doc = {"m": m, "agents": [{"id": a, "kind": "additive", "values": values} for a in range(3)],
                   "groups": {"fixed": [[0, 1], [2]]}}
        path = os.path.join(workdir, f"removal-{seed}-{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        flags = ["--balanced-goods"] if rng.random() < 0.4 else []
        out.append(["search", path, "--notion", notion, *flags])
    # EFc with c past the number of goods, which the scan reads as EFm
    m = rng.randint(13, 16)
    doc, _ = workloads.pad_core(workloads.CORES[rng.choice(sorted(workloads.CORES))], m, rng)
    path = os.path.join(workdir, f"removal-{seed}-efc.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out.append(["search", path, "--notion", f"ef{m + 2}"])
    return out


def mixed_questions(seed: int, workdir: str) -> list[list[str]]:
    """Seeded fixed-group ``search`` questions with additive or binary agents
    next to monotone tables, on k = 2 with 11 to 13 goods and k = 3 with 7
    or 8, so above the 2^10 candidates under which a scan takes no leaf
    block: EF, EF1 and PROP, some with ``--balanced-goods``. Every instance
    holds a table and an additive or binary agent. Half of them also hold a
    blocker and exhaust: for EF, in every group, one table whose values are
    odd exactly when the bundle holds good 0, so the group that gets good 0
    and any other can never value their bundles alike; for EF1, in every
    group, the agents desiring each pair of four goods, of which some bundle
    gets two; for PROP two agents in groups 0 and 1 who value one and the
    same good only. The others mostly find one. The instances are written
    under ``workdir``."""
    rng = random.Random(f"mixed-{seed}")
    os.makedirs(workdir, exist_ok=True)
    out = []
    for i in range(12):
        k = 2 + i % 2
        m = rng.randint(11, 13) if k == 2 else rng.randint(7, 8)
        notion = ("ef", "ef1", "prop")[i // 2 % 3]
        placed: list[tuple[dict, int]] = []
        if i % 4 < 2:
            if notion == "ef":
                table = _valuation(rng, m, "table")["table"]
                odd = {"kind": "table", "table": {mask: 2 * x + int(mask) % 2 for mask, x in table.items()}}
                placed += [(odd, j) for j in range(k)]
            elif notion == "ef1":
                four = rng.sample(range(m), 4)
                for pair in itertools.combinations(four, 2):
                    desire = {"kind": "binary", "values": [int(g in pair) for g in range(m)]}
                    placed += [(desire, j) for j in range(k)]
            else:
                star = rng.randrange(m)
                lone = {"kind": "additive", "values": [5 * (g == star) for g in range(m)]}
                placed += [(lone, 0), (lone, 1)]
        kinds = ["table", rng.choice(("additive", "binary"))]
        kinds += [rng.choice(("additive", "binary", "table")) for _ in range(rng.randint(0, 2))]
        placed += [(_valuation(rng, m, kind), rng.randrange(k)) for kind in kinds]
        groups: list[list[int]] = [[] for _ in range(k)]
        for a, (_v, j) in enumerate(placed):
            groups[j].append(a)
        agents = [{"id": a, **v} for a, (v, _j) in enumerate(placed)]
        path = os.path.join(workdir, f"mixed-{seed}-{i}.json")
        with open(path, "w") as fh:
            json.dump({"m": m, "agents": agents, "groups": {"fixed": groups}}, fh)
        flags = ["--balanced-goods"] if rng.random() < 0.4 else []
        out.append(["search", path, "--notion", notion, *flags])
    return out


def one_group_questions(seed: int, workdir: str) -> list[list[str]]:
    """Seeded ``search`` questions with a single group, k = 1, on 1 to 8
    goods, two per notion: EF, EF1, EF2, EFX, EFX0 and PROP. Agents are
    additive and binary, and under every notion but EFX and EFX0 monotone
    tables too; the group is fixed in half of them and variable in the
    others, some with ``--balanced-goods`` or ``--balanced-agents``. Each
    has exactly one allocation, every good in the one bundle, and it is
    fair. The instances are written under ``workdir``."""
    rng = random.Random(f"one-group-{seed}")
    os.makedirs(workdir, exist_ok=True)
    out = []
    for i in range(12):
        notion = ("ef", "ef1", "ef2", "efx", "efx0", "prop")[i % 6]
        m = rng.randint(1, 8)
        kinds = ["additive", "binary"] + ([] if notion.startswith("efx") else ["table"])
        agents = [{"id": a, **_valuation(rng, m, rng.choice(kinds))} for a in range(rng.randint(1, 3))]
        groups = {"fixed": [list(range(len(agents)))]} if i < 6 else {"variable": [len(agents)]}
        path = os.path.join(workdir, f"one-group-{seed}-{i}.json")
        with open(path, "w") as fh:
            json.dump({"m": m, "agents": agents, "groups": groups}, fh)
        flags = ["--balanced-goods"] if rng.random() < 0.3 else []
        flags += ["--balanced-agents"] if i >= 6 and rng.random() < 0.5 else []
        flags += ["--format", "table"] if i % 5 == 0 else []
        out.append(["search", path, "--notion", notion, *flags])
    return out


def edge_questions(workdir: str) -> list[list[str]]:
    """``solve`` with every method on an instance with no agents (three goods,
    two empty groups) and on one with no goods (two binary agents, one per
    group), each with fixed groups, or variable ones for the methods that
    choose the partition. The instances are written under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    methods = {"fixed": ["binary", "two-one", "exact1", "roundrobin"], "variable": ["cutchoose", "knife", "prop"]}
    pair = [{"id": a, "kind": "binary", "values": []} for a in range(2)]
    shapes = {
        "no-agents": (3, [], {"fixed": [[], []]}, {"variable": [0, 0]}),
        "no-goods": (0, pair, {"fixed": [[0], [1]]}, {"variable": [1, 1]}),
    }
    out = []
    for name, (m, agents, fixed, variable) in shapes.items():
        for groups in (fixed, variable):
            shape = next(iter(groups))
            path = os.path.join(workdir, f"{name}-{shape}.json")
            with open(path, "w") as fh:
                json.dump({"m": m, "agents": agents, "groups": groups}, fh)
            out += [["solve", path, "--method", method] for method in methods[shape]]
    return out


def solve_questions(seed: int, workdir: str) -> list[list[str]]:
    """Seeded ``solve`` questions: every method on additive, binary and
    table agents, one kind per instance (a method that refuses a kind
    answers with its error line). binary, two-one, exact1 and roundrobin get
    fixed groups: two of them for binary, of sizes two and one for two-one,
    one agent each for exact1 and one to three for roundrobin. cutchoose,
    knife and prop get variable groups with balanced and with unbalanced
    declared sizes, at k = 2 and k = 3. The instances are written under
    ``workdir``."""
    rng = random.Random(f"solve-{seed}")
    os.makedirs(workdir, exist_ok=True)
    fixed = {  # method -> choices of fixed groups
        "binary": [[[0, 1], [2]], [[0], [1, 2]], [[0, 1], [2, 3]], [[0, 2, 4], [1, 3]]],
        "two-one": [[[0, 1], [2]], [[2], [0, 1]]],
        "exact1": [[[0], [1]]],
        "roundrobin": [[[0, 1, 2]], [[0], [1, 2]], [[0, 3], [1], [2]]],
    }
    declared = {  # k -> (balanced, unbalanced) choices of declared sizes
        2: ([[2, 2], [3, 2], [2, 3]], [[3, 1], [1, 4], [4, 1]]),
        3: ([[1, 1, 1], [2, 2, 1], [2, 1, 2]], [[3, 1, 1], [1, 1, 3], [1, 4, 2]]),
    }
    out = []
    for kind in ("additive", "binary", "table"):
        shapes = [(method, {"fixed": rng.choice(choices)}) for method, choices in fixed.items()]
        for k in (2, 3):
            for choices in declared[k]:
                sizes = rng.choice(choices)
                shapes += [(method, {"variable": sizes}) for method in ("cutchoose", "knife", "prop")]
        for method, groups in shapes:
            n = sum(groups["variable"]) if "variable" in groups else sum(map(len, groups["fixed"]))
            m = rng.randint(2, 5 if kind == "table" else 8)
            agents = [{"id": a, **_valuation(rng, m, kind)} for a in range(n)]
            path = os.path.join(workdir, f"solve-{seed}-{len(out)}.json")
            with open(path, "w") as fh:
                json.dump({"m": m, "agents": agents, "groups": groups}, fh)
            flags = ["--format", "table"] if len(out) % 5 == 0 else []
            out.append(["solve", path, "--method", method, *flags])
    return out


def fuzz_questions(seed: int) -> list[list[str]]:
    """``fuzz`` with every suite, 200 runs from ``seed``, in JSON."""
    suites = ["balanced-tables", "binary-3-2", "binary-5-1", "cutchoose", "exact1", "hierarchy", "knife", "prop",
              "reduction"]
    return [["fuzz", "--suite", suite, "--seed", str(seed), "--runs", "200"] for suite in suites]


def kneser_questions() -> list[list[str]]:
    """``kneser --dimacs - --tightness`` on a graph the construction does not
    take, K(5, 2, 1), and without ``--split``: both are errors."""
    return [
        ["kneser", "--b", "5", "--r", "2", "--s", "1", "--dimacs", "-", "--tightness", "--split", "2,1"],
        ["kneser", "--b", "4", "--r", "2", "--s", "2", "--dimacs", "-", "--tightness"],
    ]


def _questions(plans: list[str], seeds: list[int], workdir: str, corpus: list[str], ask) -> list:
    """(id, argv) of every question, in the order they are asked."""
    from perfbench import run as bench

    out = []
    for seed in seeds:
        for plan_name in plans:
            plan = bench.build(plan_name, seed, os.path.join(workdir, f"{plan_name}-{seed}"), ask)
            out += [(f"{plan_name}/{seed}/{i}", q.argv) for i, q in enumerate(plan.questions)]
        questions = variable_questions(seed, os.path.join(workdir, f"variable-{seed}"))
        out += [(f"variable/{seed}/{i}", argv) for i, argv in enumerate(questions)]
        questions = slack_questions(seed, os.path.join(workdir, f"slack-{seed}"))
        out += [(f"slack/{seed}/{i}", argv) for i, argv in enumerate(questions)]
        questions = removal_questions(seed, os.path.join(workdir, f"removal-{seed}"))
        out += [(f"removal/{seed}/{i}", argv) for i, argv in enumerate(questions)]
        questions = mixed_questions(seed, os.path.join(workdir, f"mixed-{seed}"))
        out += [(f"mixed/{seed}/{i}", argv) for i, argv in enumerate(questions)]
        questions = one_group_questions(seed, os.path.join(workdir, f"one-group-{seed}"))
        out += [(f"one-group/{seed}/{i}", argv) for i, argv in enumerate(questions)]
        questions = solve_questions(seed, os.path.join(workdir, f"solve-{seed}"))
        out += [(f"solve/{seed}/{i}", argv) for i, argv in enumerate(questions)]
        out += [(f"fuzz/{seed}/{i}", argv) for i, argv in enumerate(fuzz_questions(seed))]
    questions = edge_questions(os.path.join(workdir, "edge"))
    out += [(f"edge/{i}", argv) for i, argv in enumerate(questions)]
    out += [(f"kneser/{i}", argv) for i, argv in enumerate(kneser_questions())]
    out += [("corpus/json", ["corpus"]), ("corpus/table", ["corpus", "--format", "table"])]
    out += [(f"search/{os.path.basename(path)}", ["search", path]) for path in corpus]
    return out


def _answer(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an answer too, unlike any exit code
            code = f"crash: {type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _side(checkout: str, plans: list[str], seeds: list[int], workdir: str, corpus: list[str]) -> None:
    """Answer every question with the checkout's package; one JSON list on stdout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path[:0] = [src, ROOT]
    import groupfair.cli
    from perfbench import run as bench

    if not os.path.abspath(groupfair.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"same_output: groupfair imported from {groupfair.cli.__file__}, not {src}")
    main = groupfair.cli.main
    records = []
    for qid, argv in _questions(plans, seeds, workdir, corpus, bench.Asker(main)):
        records.append({"id": qid, "argv": argv, **_answer(main, argv)})
    json.dump(records, sys.stdout)


def _strip(obj, drop: set[str]):
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key == "elapsed":
                value = "*"
            elif key == "stats" and isinstance(value, dict):
                value = {k: v for k, v in value.items() if k not in drop}
            out[key] = _strip(value, drop)
        return out
    if isinstance(obj, list):
        return [_strip(x, drop) for x in obj]
    return obj


_SECONDS = re.compile(r"\d+\.\d+s\b")


def normalise(text: str, drop: set[str]) -> str:
    """Output with its timings masked and the dropped stats keys removed."""
    try:
        return json.dumps(_strip(json.loads(text), drop), indent=1)
    except ValueError:
        pass
    lines = []
    for line in text.splitlines():
        if line.startswith("stats: {"):
            stats = ast.literal_eval(line[len("stats: "):])
            line = f"stats: { {k: v for k, v in stats.items() if k not in drop} }"
        lines.append(_SECONDS.sub("*s", line))
    return "\n".join(lines)


def compare(old: list[dict], new: list[dict], drop: set[str]) -> list[str]:
    """One line per question whose code, stdout or stderr differ."""
    problems = []
    if [r["id"] for r in old] != [r["id"] for r in new]:
        return ["the two sides asked different questions"]
    for a, b in zip(old, new):
        for part in ("code", "stdout", "stderr"):
            x, y = a[part], b[part]
            if part != "code":
                x, y = normalise(x, drop), normalise(y, drop)
            if x != y:
                problems.append(f"{a['id']} {' '.join(a['argv'])}: {part} differs")
    return problems


def _run_side(checkout: str, args, workdir: str, corpus: list[str]) -> list[dict]:
    cmd = [sys.executable, os.path.abspath(__file__), "--side", os.path.abspath(checkout),
           "--workdir", workdir, "--seeds", *map(str, args.seeds), "--plans", *args.plans,
           "--corpus", *corpus]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode:
        raise SystemExit(f"same_output: {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--plans", nargs="+", choices=PLANS, default=list(PLANS))
    parser.add_argument("--drop-stats", nargs="*", default=[], metavar="KEY")
    parser.add_argument("--side", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--corpus", nargs="*", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        _side(args.side, args.plans, args.seeds, args.workdir, args.corpus)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    parent, change = args.checkouts
    corpus = sorted(glob.glob(os.path.join(os.path.abspath(change), "corpus", "*.json")))
    scratch = tempfile.mkdtemp(prefix="same-output-")
    try:
        workdir = os.path.join(scratch, "questions")
        old = _run_side(parent, args, workdir, corpus)
        new = _run_side(change, args, workdir, corpus)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems = compare(old, new, set(args.drop_stats))
    for line in problems:
        print(line)
    print(f"same_output: {len(old)} questions, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
