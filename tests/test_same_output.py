"""tools/same_output.py: the output comparison between two checkouts."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from groupfair.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "same_output.py")

_spec = importlib.util.spec_from_file_location("same_output", TOOL)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def test_variable_questions_are_fixed_per_seed(tmp_path):
    one = same_output.variable_questions(1, str(tmp_path / "a"))
    again = same_output.variable_questions(1, str(tmp_path / "b"))
    assert [q[2:] for q in one] == [q[2:] for q in again]
    docs = [pathlib.Path(q[1]).read_text() for q in one]
    assert docs == [pathlib.Path(q[1]).read_text() for q in again]
    assert all("variable" in json.loads(doc)["groups"] for doc in docs)
    assert any("--balanced-agents" in q for q in one) and not all("--balanced-agents" in q for q in one)


def test_slack_questions_walk_several_scans(tmp_path, capsys):
    # two questions per notion, on binary then additive agents, in variable
    # groups with one lone agent; each walks three scans or more, and the
    # counts are pinned, the exhausted ones being every partition
    one = same_output.slack_questions(1, str(tmp_path / "a"))
    again = same_output.slack_questions(1, str(tmp_path / "b"))
    assert [q[2:] for q in one] == [q[2:] for q in again]
    docs = [json.loads(pathlib.Path(q[1]).read_text()) for q in one]
    assert docs == [json.loads(pathlib.Path(q[1]).read_text()) for q in again]
    assert [q[3] for q in one] == ["ef1", "ef1", "ef2", "ef2", "efx", "efx", "efx0", "efx0", "prop", "prop"]
    for i, doc in enumerate(docs):
        assert {agent["kind"] for agent in doc["agents"]} == {("binary", "additive")[i % 2]}
        assert 1 in doc["groups"]["variable"] and len(doc["groups"]["variable"]) == 2
        valuations = [tuple(agent["values"]) for agent in doc["agents"]]
        assert len(set(valuations)) == len(valuations)
    scans = []
    for argv in one:
        code = main(argv)
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == (0 if result["outcome"] == "found" else 2)
        scans.append(result["stats"]["scans"])
    assert scans == [21, 3, 59, 5, 5, 4, 3, 6, 3, 6]


def test_removal_questions_are_fixed_per_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(ROOT)  # the questions reuse perfbench's instances
    one = same_output.removal_questions(1, str(tmp_path / "a"))
    again = same_output.removal_questions(1, str(tmp_path / "b"))
    assert [q[2:] for q in one] == [q[2:] for q in again]
    docs = [pathlib.Path(q[1]).read_text() for q in one]
    assert docs == [pathlib.Path(q[1]).read_text() for q in again]
    assert [q[3] for q in one[:-1]] == ["ef2", "efx", "efx0"] * 4
    assert all(13 <= json.loads(doc)["m"] <= 16 for doc in docs)
    # the last asks EFc past the number of goods, which reads c as m
    assert one[-1][3] == f"ef{json.loads(docs[-1])['m'] + 2}"
    assert any("--balanced-goods" in q for q in one) and not all("--balanced-goods" in q for q in one)
    # both outcomes, so that first hits and exhaustions are compared
    outcomes = set()
    for argv in one:
        assert main(argv) in (0, 2)
        outcomes.add(json.loads(capsys.readouterr().out)["result"]["outcome"])
    assert outcomes == {"found", "exhausted-none"}


def test_mixed_questions_are_fixed_per_seed(tmp_path, capsys):
    one = same_output.mixed_questions(1, str(tmp_path / "a"))
    again = same_output.mixed_questions(1, str(tmp_path / "b"))
    assert [q[2:] for q in one] == [q[2:] for q in again]
    docs = [json.loads(pathlib.Path(q[1]).read_text()) for q in one]
    assert docs == [json.loads(pathlib.Path(q[1]).read_text()) for q in again]
    # tables next to additive or binary agents, in fixed groups, on k = 2
    # and 3 and above the 2^10 candidates under which no scan takes a block
    for doc in docs:
        kinds = {agent["kind"] for agent in doc["agents"]}
        assert "table" in kinds and kinds & {"additive", "binary"}
        k = len(doc["groups"]["fixed"])
        assert k in (2, 3) and k ** doc["m"] > 2**10
    assert {len(doc["groups"]["fixed"]) for doc in docs} == {2, 3}
    assert {q[3] for q in one} == {"ef", "ef1", "prop"}
    assert any("--balanced-goods" in q for q in one) and not all("--balanced-goods" in q for q in one)
    # both outcomes, and scans that decide blocks
    outcomes, blocks = set(), 0
    for argv in one:
        assert main(argv) in (0, 2)
        result = json.loads(capsys.readouterr().out)["result"]
        outcomes.add(result["outcome"])
        blocks += result["stats"]["blocks"]
    assert outcomes == {"found", "exhausted-none"} and blocks > 0


def test_one_group_questions_are_fixed_per_seed(tmp_path, capsys):
    one = same_output.one_group_questions(1, str(tmp_path / "a"))
    again = same_output.one_group_questions(1, str(tmp_path / "b"))
    assert [q[2:] for q in one] == [q[2:] for q in again]
    docs = [json.loads(pathlib.Path(q[1]).read_text()) for q in one]
    assert docs == [json.loads(pathlib.Path(q[1]).read_text()) for q in again]
    # one group, fixed or variable, under every notion; tables only where
    # the notion is defined for them
    assert [q[3] for q in one] == ["ef", "ef1", "ef2", "efx", "efx0", "prop"] * 2
    kinds = set()
    for argv, doc in zip(one, docs):
        groups = doc["groups"]
        assert groups in ({"fixed": [list(range(len(doc["agents"])))]}, {"variable": [len(doc["agents"])]})
        assert doc["m"] >= 1
        kinds |= {(agent["kind"], argv[3].startswith("efx")) for agent in doc["agents"]}
    assert {kind for kind, _efx in kinds} == {"additive", "binary", "table"}
    assert ("table", True) not in kinds
    assert {"fixed", "variable"} == {next(iter(doc["groups"])) for doc in docs}
    # the one allocation, every good in the one bundle, is fair
    for argv, doc in zip(one, docs):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if "--format" not in argv:
            assert json.loads(out)["result"]["allocation"] == [list(range(doc["m"]))]


def test_edge_questions_ask_every_method(tmp_path, capsys):
    # every solve method on an instance with no agents and on one with no
    # goods, in the groups each method takes
    questions = same_output.edge_questions(str(tmp_path))
    fixed = ["binary", "two-one", "exact1", "roundrobin"]
    choosers = ["cutchoose", "knife", "prop"]
    shapes = [("no-agents", "fixed", fixed), ("no-agents", "variable", choosers),
              ("no-goods", "fixed", fixed), ("no-goods", "variable", choosers)]
    expected = [(f"{name}-{groups}.json", method) for name, groups, methods in shapes for method in methods]
    assert [(os.path.basename(q[1]), q[3]) for q in questions] == expected
    assert all(q[0] == "solve" and q[2] == "--method" and len(q) == 4 for q in questions)
    docs = {os.path.basename(q[1]): json.loads(pathlib.Path(q[1]).read_text()) for q in questions}
    assert docs["no-agents-variable.json"] == {"m": 3, "agents": [], "groups": {"variable": [0, 0]}}
    assert docs["no-agents-fixed.json"]["groups"] == {"fixed": [[], []]}
    pair = [{"id": a, "kind": "binary", "values": []} for a in range(2)]
    assert docs["no-goods-fixed.json"] == {"m": 0, "agents": pair, "groups": {"fixed": [[0], [1]]}}
    assert docs["no-goods-variable.json"]["groups"] == {"variable": [1, 1]}
    # no agents: only the binary solver answers, vacuously; no goods: every
    # method but two-one gives two empty bundles
    codes = []
    for argv in questions:
        codes.append(main(argv))
        out = capsys.readouterr().out
        if codes[-1] == 0 and "no-goods" in argv[1]:
            assert json.loads(out)["result"]["allocation"] == [[], []]
    assert codes == [0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0]


def test_solve_questions_ask_every_method(tmp_path, capsys):
    # every method on additive, binary and table agents: fixed groups for
    # the methods that take them, and balanced and unbalanced declared sizes
    # at k = 2 and 3 for the methods that choose the partition
    one = same_output.solve_questions(1, str(tmp_path / "a"))
    again = same_output.solve_questions(1, str(tmp_path / "b"))
    assert [q[2:] for q in one] == [q[2:] for q in again]
    docs = [json.loads(pathlib.Path(q[1]).read_text()) for q in one]
    assert docs == [json.loads(pathlib.Path(q[1]).read_text()) for q in again]
    fixed = ["binary", "two-one", "exact1", "roundrobin"]
    choosers = ["cutchoose", "knife", "prop"]
    kinds = [kind for kind in ("additive", "binary", "table") for _ in range(16)]
    assert [q[3] for q in one] == (fixed + choosers * 4) * 3
    assert [{agent["kind"] for agent in doc["agents"]} for doc in docs] == [{kind} for kind in kinds]
    assert all(q[:3] == ["solve", q[1], "--method"] and q[4:] in ([], ["--format", "table"]) for q in one)
    for i, (argv, doc) in enumerate(zip(one, docs)):
        n = len(doc["agents"])
        if argv[3] in fixed:
            groups = doc["groups"]["fixed"]
            assert sorted(a for g in groups for a in g) == list(range(n))
            shape = sorted(map(len, groups))
            expected = {"binary": len(shape) == 2, "two-one": shape == [1, 2], "exact1": shape == [1, 1],
                        "roundrobin": 1 <= len(shape) <= 3}
            assert expected[argv[3]]
        else:  # k = 2 balanced, k = 2 unbalanced, k = 3 balanced, k = 3 unbalanced
            block = (i % 16 - 4) // 3
            sizes = doc["groups"]["variable"]
            assert len(sizes) == 2 + block // 2 and sum(sizes) == n
            assert (max(sizes) - min(sizes) <= 1) == (block % 2 == 0)
    # tables are refused by every method but cutchoose and knife, additive
    # agents by the binary solver, three groups by cutchoose and knife, and
    # declared sizes that are not within one by knife, each with its error
    # line; every other question is answered, in the declared group sizes,
    # or in balanced ones for knife
    moved = 0
    for argv, doc, kind in zip(one, docs, kinds):
        method = argv[3]
        code = main(argv)
        out, err = capsys.readouterr()
        sizes = doc["groups"].get("variable", [])
        if method == "binary" and kind != "binary":
            assert (code, out, err) == (1, "", "error: the binary solver needs binary valuations\n")
        elif kind == "table" and method not in ("cutchoose", "knife"):
            assert (code, out) == (1, "") and err.endswith(" needs binary or additive valuations\n")
        elif method in ("cutchoose", "knife") and len(sizes) == 3:
            assert (code, out, err) == (1, "", f"error: {method} needs exactly two groups\n")
        elif method == "knife" and max(sizes) - min(sizes) > 1:
            assert (code, out, err) == (1, "", f"error: knife needs group sizes within one, not {tuple(sizes)}\n")
        else:
            assert (code, err) == (0, "")
            if method in choosers and "--format" not in argv:
                sizes = [len(g) for g in json.loads(out)["result"]["partition"]]
                if method != "knife":
                    assert sizes == doc["groups"]["variable"]
                else:
                    assert max(sizes) - min(sizes) <= 1
                    moved += sizes != doc["groups"]["variable"]
    assert moved  # knife answers some declared sizes within one in the other order


def test_fuzz_questions_ask_every_suite(capsys):
    from groupfair.fuzz import SUITES

    questions = same_output.fuzz_questions(3)
    assert questions == [["fuzz", "--suite", name, "--seed", "3", "--runs", "200"] for name in sorted(SUITES)]
    for argv in questions:
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["suite"], doc["seed"], doc["runs"], doc["passed"]) == (argv[2], 3, 200, True)


def test_kneser_questions_fail_on_a_tightness_input(capsys):
    # the wrong graph family, and no --split, each after --dimacs -
    questions = same_output.kneser_questions()
    assert questions == [
        ["kneser", "--b", "5", "--r", "2", "--s", "1", "--dimacs", "-", "--tightness", "--split", "2,1"],
        ["kneser", "--b", "4", "--r", "2", "--s", "2", "--dimacs", "-", "--tightness"],
    ]
    for argv in questions:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_checkout_matches_itself_on_the_exhaust_plan():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--seeds", "1", "--plans", "exhaust"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(" 0 differences")


def test_answer_records_a_crash():
    # an exception escaping the CLI is an answer of its own, not the end of
    # the comparison
    def crash(argv):
        print("partial")
        raise UnboundLocalError("cannot access local variable 'low'")

    answer = same_output._answer(crash, ["search", "x.json"])
    assert answer == {
        "code": "crash: UnboundLocalError: cannot access local variable 'low'",
        "stdout": "partial\n",
        "stderr": "",
    }


def _record(code=2, elapsed=0.5, nodes=7, examined=16, table=False, stderr="", **more):
    stats = {"nodes": nodes, "partitions": 1, **more}
    if table:
        stdout = f"examined: {examined}\nstats: {stats}\nelapsed: {elapsed:.3f}s"
    else:
        doc = {"result": {"examined": examined, "stats": stats}, "elapsed": elapsed}
        stdout = json.dumps(doc, indent=2)
    return {"id": "q", "argv": ["search", "x.json"], "code": code, "stdout": stdout, "stderr": stderr}


def test_compare_masks_timings_and_dropped_stats():
    for table in (False, True):
        same = same_output.compare([_record(table=table)], [_record(elapsed=9.25, table=table)], set())
        assert same == []
        nodes = [_record(table=table)], [_record(nodes=8, table=table)]
        assert same_output.compare(*nodes, set()) == ["q search x.json: stdout differs"]
        assert same_output.compare(*nodes, {"nodes"}) == []
        examined = [_record(table=table)], [_record(examined=17, table=table)]
        assert same_output.compare(*examined, {"nodes"}) == ["q search x.json: stdout differs"]
        # a key only the change reports is dropped from its side alone
        scans = [_record(table=table)], [_record(table=table, scans=1)]
        assert same_output.compare(*scans, set()) == ["q search x.json: stdout differs"]
        assert same_output.compare(*scans, {"scans"}) == []
    assert same_output.compare([_record()], [_record(code=0)], set()) == ["q search x.json: code differs"]
    assert same_output.compare([_record()], [_record(stderr="warning")], set()) == [
        "q search x.json: stderr differs"
    ]
