"""Command-line interface: subcommands, formats, exit codes (0 ok, 2 certified no, 1 usage)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from groupfair import build_kneser, chromatic_number, instance_from_json, kneser, tightness_instance
from groupfair.cli import _build_parser, main
from groupfair.kneser import Coloring
from groupfair.model import AgentPartition, Allocation, instance_to_dict
from groupfair.oracle import Certificate

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def two_one(tmp_path):
    doc = {
        "m": 4,
        "agents": [
            {"id": 0, "kind": "additive", "values": [4, 3, 2, 1]},
            {"id": 1, "kind": "additive", "values": [1, 2, 3, 4]},
            {"id": 2, "kind": "binary", "values": [1, 1, 0, 0]},
        ],
        "groups": {"fixed": [[0, 1], [2]]},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def variable_inst(tmp_path):
    doc = {
        "m": 5,
        "agents": [
            {"id": 0, "kind": "additive", "values": [5, 1, 0, 3, 2]},
            {"id": 1, "kind": "additive", "values": [1, 1, 4, 1, 1]},
            {"id": 2, "kind": "binary", "values": [1, 0, 1, 0, 1]},
            {"id": 3, "kind": "additive", "values": [2, 2, 1, 1, 3]},
        ],
        "groups": {"variable": [2, 2]},
    }
    path = tmp_path / "var.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage: groupfair ")
    assert err.endswith("groupfair: error: the following arguments are required: command\n")
    code, out, err = run_cli(["frobnicate"], capsys)
    assert code == 1 and out == ""
    assert "groupfair: error: argument command: invalid choice: 'frobnicate'" in err


def test_check_pass_and_fail(two_one, capsys):
    code, out, _ = run_cli(["check", two_one, "--allocation", "0,2;1,3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["fairness"]["overall"] is True

    code, out, _ = run_cli(["check", two_one, "--allocation", "0,1,2,3;"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["fairness"]["overall"] is False
    assert doc["fairness"]["witnesses"]["2"] == {"group": 0, "good": None}


def test_check_notion_flag(two_one, capsys):
    code, out, _ = run_cli(
        ["check", two_one, "--allocation", "0,1,2,3;", "--notion", "ef4"], capsys
    )
    assert code == 0  # removing four goods empties the envied bundle
    code, _, _ = run_cli(
        ["check", two_one, "--allocation", "0,2;1,3", "--notion", "nope"], capsys
    )
    assert code == 1


def test_check_usage_errors(two_one, capsys):
    code, out, err = run_cli(["check", two_one], capsys)  # --allocation required
    assert code == 1 and out == ""
    assert err.startswith("usage: groupfair check ")
    assert err.endswith(
        "groupfair check: error: the following arguments are required: --allocation\n"
    )
    code, _, err = run_cli(["check", two_one, "--allocation", ";", "--format", "xml"], capsys)
    assert code == 1
    assert "groupfair check: error: argument --format: invalid choice: 'xml'" in err
    code, _, _ = run_cli(["check", "/no/such/file.json", "--allocation", ";"], capsys)
    assert code == 1
    code, _, _ = run_cli(["check", two_one, "--allocation", "0,1;2"], capsys)
    assert code == 1  # good 3 unallocated


@pytest.mark.parametrize(
    "allocation, message",
    [
        ("0,-1;2,3", "good -1 is not a good id"),
        ("0,1,1;2,3", "good 1 is listed twice"),
        ("0,1;1,2,3", "good 1 is listed twice"),
        # rejected before a mask of that many bits is built (an OverflowError
        # for this one, 125 MB for 10^9)
        ("0,1;2,99999999999999999999999", "--allocation: good 99999999999999999999999 outside 0..3"),
        ("0,1;2,3,4", "--allocation: good 4 outside 0..3"),
    ],
)
def test_check_rejects_bad_good_ids(two_one, capsys, allocation, message):
    # a negative id used to fail with "negative shift count", and a good
    # repeated within a bundle was merged away and the allocation judged
    code, out, err = run_cli(["check", two_one, "--allocation", allocation], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_check_variable_instance_partition(variable_inst, capsys):
    code, _, _ = run_cli(
        ["check", variable_inst, "--allocation", "0,1,2;3,4", "--partition", "0,1;2,3"],
        capsys,
    )
    assert code in (0, 2)  # partition accepted; verdict depends on values
    code, _, _ = run_cli(["check", variable_inst, "--allocation", "0,1,2;3,4"], capsys)
    assert code == 1  # partition required for variable groups


def test_solve_binary_round_trip(tmp_path, capsys):
    doc = {
        "m": 3,
        "agents": [
            {"id": 0, "kind": "binary", "values": [1, 1, 0]},
            {"id": 1, "kind": "binary", "values": [0, 1, 1]},
        ],
        "groups": {"fixed": [[0], [1]]},
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["solve", str(path), "--method", "binary"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["outcome"] == "solved"
    assert doc["fairness"]["overall"] is True


def test_solve_binary_certified_no(tmp_path, capsys):
    from itertools import combinations

    agents = [
        {"id": i, "kind": "binary", "values": [1 if g in pair else 0 for g in range(4)]}
        for i, pair in enumerate(combinations(range(4), 2))
    ]
    agents.append({"id": 6, "kind": "binary", "values": [1, 1, 1, 1]})
    doc = {"m": 4, "agents": agents, "groups": {"fixed": [[0, 1, 2, 3, 4, 5], [6]]}}
    path = tmp_path / "no.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["solve", str(path), "--method", "binary"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["result"]["outcome"] == "exhausted-none"
    assert "no EF1 allocation" in doc["result"]["reason"]
    assert doc["result"]["examined"] == 16


def test_solve_methods_on_variable_groups(variable_inst, capsys):
    for method in ("cutchoose", "knife", "prop"):
        code, out, _ = run_cli(["solve", variable_inst, "--method", method], capsys)
        assert code == 0, method
        doc = json.loads(out)
        assert doc["result"]["outcome"] == "solved"
        assert "partition" in doc["result"]
    # partition-choosing methods reject fixed groups
    code, _, _ = run_cli(["solve", variable_inst, "--method", "binary"], capsys)
    assert code == 1  # binary needs fixed groups


@pytest.mark.parametrize("sizes", [[4, 1], [1, 4], [3, 1], [2, 2]], ids=lambda s: "-".join(map(str, s)))
def test_knife_takes_only_balanced_declared_sizes(tmp_path, capsys, sizes):
    # knife splits the agents into groups within one of each other, so it
    # refuses declared sizes that are not; it once answered (3, 2) for a
    # report that read variable(4,1)
    n = sum(sizes)
    agents = [{"id": a, "kind": "additive", "values": [(a + g) % 3 + 1 for g in range(4)]} for a in range(n)]
    path = tmp_path / "knife.json"
    path.write_text(json.dumps({"m": 4, "agents": agents, "groups": {"variable": sizes}}))
    code, out, err = run_cli(["solve", str(path), "--method", "knife"], capsys)
    if max(sizes) - min(sizes) > 1:
        assert (code, out, err) == (1, "", f"error: knife needs group sizes within one, not {tuple(sizes)}\n")
    else:
        assert code == 0 and err == ""
        assert [len(g) for g in json.loads(out)["result"]["partition"]] == sizes


def test_solve_two_one_and_exact1(two_one, tmp_path, capsys):
    code, out, _ = run_cli(["solve", two_one, "--method", "two-one"], capsys)
    assert code == 0
    assert json.loads(out)["fairness"]["overall"] is True

    pair = {
        "m": 4,
        "agents": [
            {"id": 0, "kind": "additive", "values": [4, 3, 2, 1]},
            {"id": 1, "kind": "additive", "values": [1, 2, 3, 4]},
        ],
        "groups": {"fixed": [[0], [1]]},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run_cli(["solve", str(path), "--method", "exact1"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["exact1"] is True
    code, _, _ = run_cli(["solve", two_one, "--method", "exact1"], capsys)
    assert code == 1  # three agents


def test_solve_roundrobin(two_one, capsys):
    code, out, _ = run_cli(["solve", two_one, "--method", "roundrobin"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["groups"] == "one per agent"
    bundles = doc["result"]["allocation"]
    assert len(bundles) == 3  # one bundle per agent, groups ignored
    assert sorted(g for b in bundles for g in b) == [0, 1, 2, 3]
    assert "fairness" not in doc and "notion" not in doc["result"]


def test_solve_requires_known_method(two_one, capsys):
    code, _, err = run_cli(["solve", two_one, "--method", "magic"], capsys)
    assert code == 1
    assert "groupfair solve: error: argument --method: invalid choice: 'magic'" in err
    code, _, err = run_cli(["solve", two_one], capsys)
    assert code == 1
    assert err.endswith("groupfair solve: error: the following arguments are required: --method\n")


@pytest.mark.parametrize("value", ["0", "-3", "2"])
@pytest.mark.parametrize("command", ["solve", "search", "corpus"])
def test_jobs_must_be_positive(two_one, capsys, command, value):
    # a count below one used to run serially without a word; now --jobs takes
    # no count at all, since the worker count comes from the CPUs the process
    # may run on
    argv = {
        "solve": ["solve", two_one, "--method", "binary"],
        "search": ["search", two_one],
        "corpus": ["corpus"],
    }[command]
    code, out, err = run_cli([*argv, "--jobs", value], capsys)
    assert (code, out) == (1, "")
    assert err.endswith(f"groupfair: error: unrecognized arguments: --jobs {value}\n")


_ALL_TO_FIRST = Allocation((0b111, 0))
_ALL_TO_GROUP_ONE = (AgentPartition((0, 0, 1, 1), 2), Allocation((0b11111, 0)))
# goods 0, 2 to agents 0 and 1, goods 3, 4 to agents 2 and 3: each agent gets
# its proportional share up to one good, but good 1 goes to nobody
_GOOD_LEFT_OUT = (AgentPartition((0, 0, 1, 1), 2), Allocation((0b00101, 0b11000)))
# EF1 on the [2, 2] instance, but in groups of three and one
_THREE_ONE = (AgentPartition((0, 0, 0, 1), 2), Allocation((0b00011, 0b11100)))
# EF1 in the declared groups, but with bundles of one and four goods
_ONE_FOUR = (AgentPartition((0, 1, 0, 1), 2), Allocation((0b00001, 0b11110)))
_OVERLAP = Allocation((0b011, 0b110))


def _hit(answer):
    part, alloc = answer
    return Certificate(True, alloc, part)


# method, or method/variant: the function the CLI calls, named in its
# defining module, an answer that breaks the guarantee, the guarantee, and
# the search flags the answer must meet
_BROKEN = {
    "binary": ("binary_solver.solve_ef1_binary", _ALL_TO_FIRST, "ef1"),
    "two-one": ("algorithms.ef1_two_one", _ALL_TO_FIRST, "ef1"),
    "exact1": ("algorithms.exact1_partition", _ALL_TO_FIRST.bundles, "exact1"),
    "roundrobin": ("algorithms.round_robin", _ALL_TO_FIRST, "ef1"),
    "cutchoose": ("algorithms.cut_and_choose_ef1", _ALL_TO_GROUP_ONE, "ef1"),
    "knife": ("algorithms.rotating_knife", _ALL_TO_GROUP_ONE, "ef1"),
    "prop": ("algorithms.proportional_k_groups", _ALL_TO_GROUP_ONE, "prop up to k-1 goods"),
    "prop/good-left-out": ("algorithms.proportional_k_groups", _GOOD_LEFT_OUT, "prop up to k-1 goods"),
    "search": ("oracle.find_fair", Certificate(True, _ALL_TO_FIRST), "ef1"),
    # answers that pass EF1 but break the rest of what they claim
    "knife/unbalanced-groups": ("algorithms.rotating_knife", _THREE_ONE, "ef1"),
    "knife/unbalanced-bundles": ("algorithms.rotating_knife", _ONE_FOUR, "ef1"),
    "cutchoose/wrong-sizes": ("algorithms.cut_and_choose_ef1", _THREE_ONE, "ef1"),
    "prop/wrong-sizes": ("algorithms.proportional_k_groups", _THREE_ONE, "prop up to k-1 goods"),
    "search/balanced-goods": ("oracle.find_fair", _hit(_ONE_FOUR), "ef1", "--balanced-goods"),
    "search/balanced-agents": ("oracle.find_fair", _hit(_THREE_ONE), "ef1", "--balanced-agents"),
    "search/declared-sizes": ("oracle.find_fair", _hit(_THREE_ONE), "ef1"),
    # bundles that share a good once read as bad input (exit 1)
    "exact1/overlap": ("algorithms.exact1_partition", _OVERLAP.bundles, "exact1"),
    "two-one/overlap": ("algorithms.ef1_two_one", _OVERLAP, "ef1"),
}


@pytest.mark.parametrize("method", list(_BROKEN))
def test_broken_result_is_never_printed(variable_inst, tmp_path, capsys, monkeypatch, method):
    # every allocation the CLI prints is re-verified first, against all it
    # claims; one that breaks the method's guarantee, the declared group
    # sizes or a balance it promises must raise before anything reaches stdout
    target, answer, guarantee, *flags = _BROKEN[method]
    method = method.split("/")[0]
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "m": 3,
                "agents": [{"id": a, "kind": "binary", "values": [1, 1, 1]} for a in range(2)],
                "groups": {"fixed": [[0], [1]]},
            }
        )
    )
    monkeypatch.setattr(f"groupfair.{target}", lambda *args, **kwargs: answer)
    if method == "search":
        argv = ["search", variable_inst if answer.partition else str(pair), *flags]
    else:
        inst = variable_inst if method in ("cutchoose", "knife", "prop") else str(pair)
        argv = ["solve", inst, "--method", method]
    expected = f"^result failed {re.escape(guarantee)} re-verification$"
    with pytest.raises(AssertionError, match=expected):
        main(argv)
    assert capsys.readouterr().out == ""


def test_search_found_and_exhausted(two_one, tmp_path, capsys):
    code, out, _ = run_cli(["search", two_one], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["outcome"] == "found"
    assert doc["fairness"]["overall"] is True

    blocked = {
        "m": 1,
        "agents": [
            {"id": 0, "kind": "binary", "values": [1]},
            {"id": 1, "kind": "binary", "values": [1]},
        ],
        "groups": {"fixed": [[0], [1]]},
    }
    path = tmp_path / "blocked.json"
    path.write_text(json.dumps(blocked))
    code, out, _ = run_cli(["search", str(path), "--notion", "ef"], capsys)
    assert code == 2
    result = json.loads(out)["result"]
    assert result["examined"] == 2
    stats = result["stats"]
    assert stats["leaves_rejected"] + stats["candidates_pruned"] == 2
    assert stats["partitions"] == 1


def test_search_one_group(tmp_path, capsys):
    # with one group the only allocation hands it every good; the search
    # used to crash on its first leaf
    doc = {
        "m": 3,
        "agents": [
            {"id": 0, "kind": "additive", "values": [1, 2, 3]},
            {"id": 1, "kind": "binary", "values": [1, 0, 1]},
        ],
        "groups": {"fixed": [[0, 1]]},
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["search", str(path)], capsys)
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["outcome"] == "found" and result["allocation"] == [[0, 1, 2]]


def test_search_balance_flags(variable_inst, capsys):
    code, out, _ = run_cli(
        ["search", variable_inst, "--balanced-goods", "--balanced-agents"], capsys
    )
    assert code in (0, 2)
    doc = json.loads(out)
    if code == 0:
        alloc = doc["result"]["allocation"]
        sizes = sorted(len(b) for b in alloc)
        assert sizes[-1] - sizes[0] <= 1


def test_corpus_list_run_and_table(capsys):
    code, out, _ = run_cli(["corpus", "--list"], capsys)
    assert code == 0
    assert "binary-6-1" in out
    code, out, _ = run_cli(["corpus", "--run", "binary-6-1", "--format", "table"], capsys)
    assert code == 0
    assert out.startswith("PASS")
    code, _, _ = run_cli(["corpus", "--run", "no-such-entry"], capsys)
    assert code == 1


def test_corpus_full_run_and_export(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    code, out, _ = run_cli(["corpus", "--export", str(out_dir)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["results"]) == 15
    files = sorted(p.name for p in out_dir.glob("*.json"))
    assert len(files) == 15 and "binary-6-1.json" in files
    # byte for byte the shipped corpus files
    for name in files:
        assert (out_dir / name).read_text() == (CORPUS_DIR / name).read_text(), name
    # exported documents load back as valid instances
    code, _, _ = run_cli(
        ["check", str(out_dir / "binary-6-1.json"), "--allocation", "0,1,2;3"], capsys
    )
    assert code in (0, 2)


def test_kneser_chi_and_dimacs(capsys):
    code, out, _ = run_cli(
        ["kneser", "--b", "4", "--r", "2", "--s", "2", "--chi", "exact"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["chi"] == {"lower": 6, "upper": 6}
    assert len(doc["result"]["coloring"]) == 6

    code, out, _ = run_cli(["kneser", "--b", "5", "--r", "2", "--s", "1", "--dimacs", "-"], capsys)
    assert code == 0
    assert "p edge 10 15" in out


def test_kneser_tightness(tmp_path, capsys):
    out_file = tmp_path / "tight.json"
    code, out, _ = run_cli(
        [
            "kneser", "--b", "4", "--r", "2", "--s", "2",
            "--tightness", "--split", "3,3", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    g = build_kneser(4, 2, 2)
    inst = tightness_instance(g, chromatic_number(g)[2], (3, 3))
    assert out_file.read_text() == json.dumps(instance_to_dict(inst), indent=2) + "\n"
    code, out, _ = run_cli(
        ["search", str(out_file), "--notion", "ef1", "--balanced-goods"], capsys
    )
    assert code == 2  # the whole point of the construction

    code, _, _ = run_cli(
        ["kneser", "--b", "4", "--r", "2", "--s", "2", "--tightness"], capsys
    )
    assert code == 1  # --split missing
    code, _, _ = run_cli(
        ["kneser", "--b", "5", "--r", "2", "--s", "1", "--tightness", "--split", "2,1"],
        capsys,
    )
    assert code == 1  # wrong graph family


def test_json_reports_match_json_dumps(two_one, capsys):
    # reports are written by the indented writer, not json.dumps(indent=2);
    # the text must be the same, byte for byte
    questions = [
        ["kneser", "--b", "6", "--r", "3", "--s", "2", "--chi", "bounds"],
        ["check", two_one, "--allocation", "0,1,2,3;"],
        ["search", two_one, "--notion", "ef"],
        ["corpus"],
        ["fuzz", "--suite", "exact1", "--runs", "5"],
    ]
    code, out, _ = run_cli(questions[0], capsys)
    split = json.loads(out)["result"]["chi"]["upper"]
    questions.append(
        ["kneser", "--b", "6", "--r", "3", "--s", "2", "--chi", "bounds",
         "--tightness", "--split", f"{split - 1},1"]
    )
    for argv in questions:
        code, out, _ = run_cli(argv, capsys)
        assert code in (0, 2)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    doc = json.loads(out)
    assert len(doc["result"]["instance"]["agents"][0]["table"]) == 2**6
    code, out, _ = run_cli(questions[1], capsys)
    assert json.loads(out)["fairness"]["witnesses"]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_inline_instance_reports(tmp_path, capsys, fmt):
    # without --out, kneser --tightness and reduce put the instance in the
    # report: the document instance_to_dict gives, as JSON or as its text
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 2\n1 2 3 0\n-2 -3 -4 0\n")
    out_file = tmp_path / "inst.json"
    questions = [
        ["kneser", "--b", "6", "--r", "3", "--s", "2", "--chi", "bounds",
         "--tightness", "--split", "2,4"],
        ["reduce", "--formula", str(cnf)],
    ]
    for argv in questions:
        assert run_cli([*argv, "--out", str(out_file)], capsys)[0] == 0
        expected = instance_to_dict(instance_from_json(out_file.read_text()))
        code, out, _ = run_cli([*argv, "--format", fmt], capsys)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["result"]["instance"] == expected
        else:
            assert f"\ninstance: {expected}\n" in out


@pytest.mark.parametrize("tightness", [[], ["--tightness", "--split", "3,3"]])
def test_improper_coloring_is_never_printed(capsys, monkeypatch, tightness):
    # a coloring that is not proper is a fault of ours, not of the question,
    # with --tightness too, where tightness_instance finds it
    improper = Coloring((0,) * 6, 1)
    monkeypatch.setattr("groupfair.kneser.chromatic_number", lambda *args, **kwargs: (1, 1, improper))
    with pytest.raises(AssertionError, match="^result failed proper coloring re-verification$"):
        main(["kneser", "--b", "4", "--r", "2", "--s", "2", "--chi", "exact", *tightness])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("chi", ["exact", "bounds"])
@pytest.mark.parametrize("tightness", [[], ["--tightness", "--split", "2,4"]])
def test_printed_coloring_is_checked_once(capsys, monkeypatch, chi, tightness):
    # the printed coloring is checked, and only once: with --tightness the
    # check is tightness_instance's, and a second one would cost each
    # tightness question a pass over the graph
    calls = []
    is_proper = kneser.is_proper
    monkeypatch.setattr(kneser, "is_proper", lambda *args: calls.append(args) or is_proper(*args))
    code, out, _ = run_cli(["kneser", "--b", "6", "--r", "3", "--s", "2", "--chi", chi, *tightness], capsys)
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["result"]["coloring"] == list(calls[0][1].colors)


@pytest.mark.parametrize("dimacs", ["-", "graph.dimacs"])
@pytest.mark.parametrize(
    "question",
    [
        ["--b", "5", "--r", "2", "--s", "1", "--tightness", "--split", "2,1"],
        ["--b", "4", "--r", "2", "--s", "2", "--tightness"],
    ],
)
def test_bad_tightness_question_writes_no_dimacs(tmp_path, capsys, monkeypatch, dimacs, question):
    # the wrong graph family, or no --split: every --tightness input is
    # checked before the DIMACS text is written, so no half answer is left
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["kneser", *question, "--dimacs", dimacs], capsys)
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert not (tmp_path / "graph.dimacs").exists()


def test_kneser_guard_exits_one(capsys):
    code, _, err = run_cli(["kneser", "--b", "30", "--r", "15", "--s", "1"], capsys)
    assert code == 1
    assert "error" in err


def test_reduce_round_trip(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 2\n1 2 3 0\n-2 -3 -4 0\n")
    out_file = tmp_path / "reduced.json"
    code, out, _ = run_cli(["reduce", "--formula", str(cnf), "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["variables"] == 4 and doc["result"]["clauses"] == 2
    assert doc["elapsed"] > 0  # timed from the parse to the written file
    text = out_file.read_text()
    assert text == json.dumps(instance_to_dict(instance_from_json(text)), indent=2) + "\n"
    code, out, _ = run_cli(["solve", str(out_file), "--method", "binary"], capsys)
    assert code == 0

    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 1\n1 -2 3 0\n")
    code, _, _ = run_cli(["reduce", "--formula", str(bad)], capsys)
    assert code == 1


def test_fuzz_command(capsys):
    code, out, _ = run_cli(["fuzz", "--list"], capsys)
    assert code == 0
    assert "exact1" in out and "hierarchy" in out
    code, out, _ = run_cli(
        ["fuzz", "--suite", "exact1", "--runs", "25", "--seed", "7", "--format", "table"],
        capsys,
    )
    assert code == 0
    assert out.startswith("PASS")
    code, _, _ = run_cli(["fuzz", "--suite", "unknown"], capsys)
    assert code == 1
    code, _, _ = run_cli(["fuzz"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "table,hint",
    [
        ('{"0": 0, "1": 5, "1": 1}', "repeated JSON object key '1'"),
        ('{"0": 0}', "agent 0: table over 1 goods misses subset mask 1"),
    ],
)
def test_malformed_table_exits_one(tmp_path, capsys, table, hint):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"m": 1, "agents": [{"id": 0, "kind": "table", "table": %s}], "groups": {"fixed": [[0]]}}'
        % table
    )
    for argv in (["check", str(path), "--allocation", "0"], ["search", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert hint in err


@pytest.mark.parametrize(
    "m,agent_id,groups",
    [("2.9", "0", '{"fixed": [[0]]}'), ("1", "true", '{"fixed": [[0]]}'),
     ("1", "0", '{"fixed": [[0.0]]}'), ("1", "0", '{"variable": [1.0]}')],
)
def test_non_integer_structure_exits_one(tmp_path, capsys, m, agent_id, groups):
    path = tmp_path / "bad.json"
    agent = '{"id": %s, "kind": "binary", "values": [1]}' % agent_id
    path.write_text('{"m": %s, "agents": [%s], "groups": %s}' % (m, agent, groups))
    code, out, err = run_cli(["search", str(path)], capsys)
    assert code == 1 and out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize(
    "groups,hint",
    [
        ('{"fixed": [[0, 1], [1]]}', "group 1: agent 1 appears in more than one group"),
        ('{"fixed": [[0], []]}', "agents [1] belong to no group"),
        ('{"variable": [2, 1]}', "group sizes [2, 1] sum to 3, instance has 2 agents"),
        ('{"variable": [-1, 3]}', "negative group size"),
    ],
)
def test_malformed_groups_exit_one(tmp_path, capsys, groups, hint):
    path = tmp_path / "bad.json"
    agents = ", ".join('{"id": %d, "kind": "binary", "values": [1, 0]}' % a for a in range(2))
    path.write_text('{"m": 2, "agents": [%s], "groups": %s}' % (agents, groups))
    for argv in (
        ["check", str(path), "--allocation", "0;1"],
        ["search", str(path)],
        ["solve", str(path), "--method", "binary"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {hint}\n"


@pytest.mark.parametrize("groups", ['{"fixed": []}', '{"variable": []}'])
def test_no_groups_exit_one(tmp_path, capsys, groups):
    # search once divided by the group count and ended in ZeroDivisionError
    path = tmp_path / "empty.json"
    path.write_text('{"m": 1, "agents": [], "groups": %s}' % groups)
    for argv in (
        ["search", str(path)],
        ["search", str(path), "--balanced-agents"],
        ["check", str(path), "--allocation", "0"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: instance has no groups\n"


@pytest.fixture
def flawed_files(tmp_path, two_one, variable_inst):
    """Paths by name: two good instances, one with three variable groups,
    and documents that fail the loader or validate, one flaw each."""
    docs = {
        "@three": '{"m": 3, "agents": [%s], "groups": {"variable": [1, 1, 1]}}'
        % ", ".join('{"id": %d, "kind": "additive", "values": [1, 2, 3]}' % a for a in range(3)),
        "@nonmonotone": '{"m": 2, "agents": [{"id": 0, "kind": "table", "table":'
        ' {"0": 0, "1": 2, "2": 1, "3": 1}}], "groups": {"fixed": [[0]]}}',
        "@values": '{"m": 2, "agents": [{"id": 0, "kind": "binary", "values": [1, 2]},'
        ' {"id": 1, "kind": "additive", "values": [-1, 0]}], "groups": {"fixed": [[0], [1]]}}',
        "@notable": '{"m": 1, "agents": [{"id": 0, "kind": "table", "table": [0, 1]}],'
        ' "groups": {"fixed": [[0]]}}',
        "@novalues": '{"m": 1, "agents": [{"id": 0, "kind": "binary", "values": "1"}],'
        ' "groups": {"fixed": [[0]]}}',
        "@noagents": '{"m": 1, "agents": {}, "groups": {"fixed": []}}',
        "@agentfree": '{"m": 3, "agents": [], "groups": {"variable": [0, 0]}}',
        "@twiceid": '{"m": 1, "agents": [{"id": 0, "kind": "binary", "values": [1]},'
        ' {"id": 0, "kind": "binary", "values": [0]}], "groups": {"fixed": [[0]]}}',
    }
    files = {"@fixed": two_one, "@variable": variable_inst, "@missing": str(tmp_path / "missing")}
    for name, text in docs.items():
        path = tmp_path / (name[1:] + ".json")
        path.write_text(text)
        files[name] = str(path)
    cnf = tmp_path / "letter.cnf"
    cnf.write_text("p cnf 3 1\n1 x 3 0\n")
    files["@letter"] = str(cnf)
    return files


_NOTIONS = "is not a fairness notion (ef, ef1, ef2, ..., efx, efx0, prop)"
_KNESER = ["kneser", "--b", "6", "--r", "3", "--s", "2"]
_SPLIT = _KNESER + ["--tightness", "--split"]
_CHECK_VARIABLE = ["check", "@variable", "--allocation", "0,1,2;3,4", "--partition"]


@pytest.mark.parametrize(
    "argv, line",
    [
        # after construction, only table content can fail validate
        (["check", "@nonmonotone", "--allocation", "0,1;"],
         "invalid instance @nonmonotone: agent 0: monotonicity violated at subset {0, 1}"
         " after dropping good 1 (2 > 1)"),
        # bad vector values: the first flaw, named where the valuation is built
        (["search", "@values"], "agent 0: binary value 2 for good 1 outside {0,1}"),
        (["check", "@fixed", "--allocation", "0,1;2;3"], "allocation has 3 bundles, instance has 2 groups"),
        (["check", "@fixed", "--allocation", "0,x;1"], "--allocation: 'x' is not an integer"),
        (_CHECK_VARIABLE + ["0, y;1,2"], "--partition: 'y' is not an integer"),
        (_CHECK_VARIABLE + ["0,1;0,2"], "group 1: agent 0 appears in more than one group"),
        (_CHECK_VARIABLE + ["0;3"], "group 1: unknown agent id 3"),
        (_CHECK_VARIABLE + ["0,1;2"], "partition covers the wrong number of agents"),
        (_CHECK_VARIABLE + ["0,1;2,3;"], "partition and allocation disagree on the number of groups"),
        (_SPLIT + ["a,b"], "--split: 'a' is not an integer"),
        (_SPLIT + ["3, b"], "--split: 'b' is not an integer"),
        (["solve", "@fixed", "--method", "cutchoose"],
         "method cutchoose chooses the partition; use variable groups"),
        (["solve", "@three", "--method", "cutchoose"], "cutchoose needs exactly two groups"),
        (["solve", "@three", "--method", "knife"], "knife needs exactly two groups"),
        (["search", "@missing"],
         "cannot read @missing: [Errno 2] No such file or directory: '@missing'"),
        (["reduce", "--formula", "@missing"],
         "cannot read @missing: [Errno 2] No such file or directory: '@missing'"),
        (["search", "@notable"], "agent 0: table kind needs a 'table' object"),
        (["search", "@novalues"], "agent 0: binary kind needs a 'values' array"),
        (["search", "@noagents"], "instance needs an 'agents' array"),
        (["search", "@twiceid"], "duplicate agent id 0"),
        # no case would run, and the suite would still report a pass
        (["fuzz", "--suite", "exact1", "--runs", "-5"], "--runs: -5 is not a positive number of runs"),
        (["fuzz", "--suite", "exact1", "--runs", "0"], "--runs: 0 is not a positive number of runs"),
        # c is ASCII decimal, at least 1 and without a leading zero
        (["search", "@fixed", "--notion", "ef0"], f"--notion: 'ef0' {_NOTIONS}"),
        (["search", "@fixed", "--notion", "nope"], f"--notion: 'nope' {_NOTIONS}"),
        (["search", "@fixed", "--notion", "ef01"], f"--notion: 'ef01' {_NOTIONS}"),
        (["check", "@fixed", "--allocation", "0;1", "--notion", "ef\u0661"], f"--notion: 'ef\u0661' {_NOTIONS}"),
        # the tightness options do nothing on their own
        (_KNESER + ["--split", "3,2"], "--split needs --tightness"),
        (_KNESER + ["--out", "@missing"], "--out needs --tightness"),
        # a DIMACS token that is no integer, named with its line
        (["reduce", "--formula", "@letter"], "line 2: 'x' is not an integer"),
        # the vertex count is grown factor by factor and stops at the cap
        (["kneser", "--b", "400000", "--r", "200000", "--s", "1"],
         "K(400000,200000,1) has more than 10000 vertices, the cap"),
        # the algorithms read m off the first agent: prop once printed empty
        # bundles as solved, and cutchoose failed on its own bundles
        (["solve", "@agentfree", "--method", "prop"], "method prop needs at least one agent"),
        (["solve", "@agentfree", "--method", "cutchoose"], "method cutchoose needs at least one agent"),
    ],
)
def test_error_lines(flawed_files, capsys, argv, line):
    code, out, err = run_cli([flawed_files.get(a, a) for a in argv], capsys)
    for name, path in flawed_files.items():
        line = line.replace(name, path)
    assert (code, out, err) == (1, "", f"error: {line}\n")


def _mask_elapsed(text):
    text = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', text)
    return re.sub(r"elapsed: [0-9.]+s", "elapsed: 0s", text)


def test_cached_parser_keeps_no_state(two_one, variable_inst, capsys):
    sequence = [
        # an option's value must not outlive the call that gave it
        ["search", two_one, "--balanced-goods", "--notion", "efx"],
        ["search", two_one],
        ["check", variable_inst, "--allocation", "0,1,2;3,4", "--partition", "0,1;2,3"],
        ["check", variable_inst, "--allocation", "0,1,2;3,4"],
        # a usage error must not leave anything behind either
        ["solve", two_one],
        ["solve", two_one, "--method", "two-one"],
        ["search", two_one, "--format", "xml"],
        ["search", two_one, "--balanced-agents"],
        ["solve", two_one, "--method", "two-one", "--format", "table"],
        ["solve", two_one, "--method", "two-one"],
    ]
    first = {}
    for argv in sequence:  # each argv as the first call on a fresh parser
        _build_parser.cache_clear()
        code, out, err = run_cli(argv, capsys)
        first[tuple(argv)] = (code, _mask_elapsed(out), err)
    _build_parser.cache_clear()
    parser = _build_parser()
    for argv in sequence:
        code, out, err = run_cli(argv, capsys)
        assert (code, _mask_elapsed(out), err) == first[tuple(argv)], argv
        assert _build_parser() is parser
    doc = json.loads(first[("search", two_one)][1])
    assert doc["result"]["notion"] == "ef1"
    assert doc["result"]["outcome"] == "found"
    assert first[("solve", two_one)][0] == 1

    subcommands = ("check", "solve", "search", "corpus", "kneser", "reduce", "fuzz")
    for argv in [["--help"]] + [[cmd, "--help"] for cmd in subcommands]:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        with pytest.raises(SystemExit):
            _build_parser.__wrapped__().parse_args(argv)
        assert out == capsys.readouterr().out, argv
        assert _build_parser() is parser


def test_import_leaves_pool_and_fuzz_unloaded(tmp_path):
    # neither the import nor a search needs multiprocessing or the suites,
    # even with two CPUs to hand; that includes a long exhaustion, whose
    # running numbers never repeat since every subset of the values
    # 2^20 + 2^g has a sum of its own (the odd total leaves no EF split for
    # 2+2 equal agents)
    values = [2**20 + 2**g for g in range(16)]
    doc = {
        "m": 16,
        "agents": [{"id": a, "kind": "additive", "values": values} for a in range(4)],
        "groups": {"fixed": [[0, 1], [2, 3]]},
    }
    path = tmp_path / "distinct16.json"
    path.write_text(json.dumps(doc))
    code = (
        "import contextlib, io, json, os, sys, groupfair.cli\n"
        "if hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
        "lazy = ('concurrent.futures.process', 'multiprocessing', 'groupfair.fuzz')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "groupfair.cli.main(['search', 'corpus/efx0-2-1.json'])\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    exit_code = groupfair.cli.main(['search', {str(path)!r}, '--notion', 'ef'])\n"
        "print(exit_code, json.loads(out.getvalue())['result']['examined'])\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
    )
    root = CORPUS_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"
    assert lines[-2] == "2 65536"


def test_table_format(two_one, capsys):
    code, out, _ = run_cli(
        ["check", two_one, "--allocation", "0,2;1,3", "--format", "table"], capsys
    )
    assert code == 0
    assert out.startswith("command: check")
    assert "fair: True" in out
