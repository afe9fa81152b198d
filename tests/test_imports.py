"""What each command loads, and the package's lazy exports.

Every subcommand runs in a fresh interpreter that imports ``groupfair.cli``
from this checkout's ``src``; the ``groupfair`` modules whose code ran
afterwards, and whether ``fractions`` and ``logging`` were loaded, are
pinned per command. A module ``cli`` binds lazily sits in ``sys.modules``
as a subclass of the module type until its first attribute read, so a
module counts as loaded once its type is the plain module type.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import groupfair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Runs the CLI on its arguments, then prints on its last line what is loaded.
_PROBE = """
import json, sys, types
from groupfair.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(
        m[len("groupfair."):] for m, mod in sys.modules.items()
        if m.startswith("groupfair.") and type(mod) is types.ModuleType
    ),
    "fractions": "fractions" in sys.modules,
    "logging": "logging" in sys.modules,
}))
"""


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _loaded(argv: list[str]) -> dict:
    proc = _fresh(_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


BASE = ["cli", "errors", "fairness", "model", "oracle"]


# command: its arguments, its exit code and the modules it loads beyond BASE
COMMANDS = {
    "check": (["check", "corpus/efc-equal-c1.json", "--allocation", "0,1;2"], 2, []),
    "search": (["search", "corpus/binary-6-1.json"], 2, []),
    "solve-binary": (["solve", "corpus/binary-balanced-5-1.json", "--method", "binary"], 0, ["binary_solver"]),
    "solve-knife": (["solve", "corpus/efx-balanced-agents.json", "--method", "knife"], 0, ["algorithms"]),
    "kneser": (["kneser", "--b", "5", "--r", "2", "--s", "1", "--chi", "exact"], 0, ["kneser"]),
    "reduce": (["reduce", "--formula", "{cnf}"], 0, ["reduction"]),
    "corpus-list": (["corpus", "--list"], 0, ["gallery"]),
    "fuzz-list": (["fuzz", "--list"], 0, ["algorithms", "binary_solver", "fuzz", "reduction"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    argv, code, extra = COMMANDS[command]
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 2\n1 2 3 0\n-2 -3 -4 0\n")
    got = _loaded([a.format(cnf=cnf) for a in argv])
    assert got["code"] == code
    assert got["modules"] == sorted(BASE + extra)
    # integer utilities never reach Fraction, and no stall is reported
    assert got["fractions"] is False
    assert got["logging"] is False


def test_importing_the_package_loads_no_submodule():
    proc = _fresh(
        "import sys, groupfair\n"
        "print(sorted(m for m in sys.modules if m.startswith('groupfair.')))\n"
        "from groupfair import kneser\n"
        "from groupfair import cli, kneser as again\n"
        "print(kneser.__name__, cli.__name__, again is kneser)\n"
        "from groupfair import corpus, run_corpus_entry\n"
        "print(corpus.__module__, run_corpus_entry.__module__)\n"
        "star = {}\n"
        "exec('from groupfair import *', star)\n"
        "print(sorted(set(groupfair.__all__) - set(star)))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "groupfair.kneser groupfair.cli True",
        "groupfair.gallery groupfair.gallery",
        "[]",
    ]


DEFERRED = ["algorithms", "binary_solver", "gallery", "kneser", "reduction"]


def test_cli_binds_the_modules_it_defers_lazily():
    proc = _fresh(
        "import sys, types, groupfair, groupfair.cli as cli\n"
        f"names = {DEFERRED!r}\n"
        "mods = [sys.modules['groupfair.' + n] for n in names]\n"
        "print(all(getattr(cli, n) is m and getattr(groupfair, n) is m for n, m in zip(names, mods)))\n"
        "print([type(m) is types.ModuleType for m in mods])\n"
        "import groupfair.kneser\n"
        "print(groupfair.kneser.build_kneser.__module__, groupfair.kneser is mods[3])\n"
        "print([type(m) is types.ModuleType for m in mods])\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True",
        str([False] * 5),
        "groupfair.kneser True",
        str([False] * 3 + [True, False]),
    ]


def test_cli_keeps_a_module_loaded_before_it():
    proc = _fresh(
        "import types, groupfair.kneser as k, groupfair.cli as cli\n"
        "print(cli.kneser is k, type(k) is types.ModuleType)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True"]


# Every name the package exported when it imported all its modules eagerly,
# by the module that defines it.
SEED_EXPORTS = {
    "errors": [
        "FairAllocationNotFound", "GroupFairError", "GroupShapeError", "SearchSpaceTooLargeError",
        "UnsupportedNotionError", "UnsupportedValuationError",
    ],
    "model": [
        "ADDITIVE", "BINARY", "MAX_TABLE_GOODS", "TABLE", "AgentPartition", "Allocation", "FixedGroups",
        "Instance", "Valuation", "VariableGroups", "allocation_violations", "bits_of", "full_mask",
        "instance_from_dict", "instance_from_json", "instance_to_dict", "instance_to_json", "iter_bits",
        "mask_of", "validate",
    ],
    "fairness": [
        "EF", "EF1", "EF2", "EFX", "EFX0", "PROP", "FairnessReport", "Notion", "SearchConstraints",
        "agent_verdict", "fair_toward", "is_balanced", "is_exact1", "is_fair", "parse_notion", "up_to",
    ],
    "algorithms": [
        "cut_and_choose_ef1", "ef1_two_one", "exact1_partition", "preference_order",
        "proportional_k_groups", "rotating_knife", "round_robin",
    ],
    "binary_solver": ["ReductionTrace", "TraceStep", "preprocess", "replay_trace", "solve_ef1_binary"],
    "oracle": ["Certificate", "enumerate_fair", "find_fair"],
    "gallery": ["CorpusEntry", "corpus", "run_corpus_entry"],
    "kneser": [
        "Coloring", "KneserGraph", "build_kneser", "chromatic_number", "is_proper", "tightness_instance",
        "to_dimacs",
    ],
    "reduction": [
        "MonotoneClause", "MonotoneFormula", "allocation_to_assignment", "assignment_to_allocation",
        "brute_force_satisfiable", "formula_to_dimacs", "formula_to_instance", "parse_dimacs_cnf",
    ],
}


def test_every_seed_export_resolves_to_its_defining_module():
    names = [name for names in SEED_EXPORTS.values() for name in names]
    assert sorted(groupfair.__all__) == sorted(names)
    assert set(names) <= set(dir(groupfair))
    assert "__version__" in dir(groupfair)
    star: dict = {}
    exec("from groupfair import *", star)
    for module, names in SEED_EXPORTS.items():
        home = importlib.import_module(f"groupfair.{module}")
        for name in names:
            assert getattr(groupfair, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        groupfair.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from groupfair import no_such_name", {})
