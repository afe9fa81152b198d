"""Command-line entry point.

Subcommands: ``check`` an allocation against a notion, ``solve`` with one of
the constructive algorithms, ``search`` exhaustively, run the built-in
``corpus``, build ``kneser`` graphs and tightness instances, ``reduce`` a
monotone CNF, and run ``fuzz`` suites.

Exit codes: 0 on success or Found; 2 when a negative outcome is certified
(exhausted search, no allocation exists, a failed check or suite); 1 on
usage or data errors. Reports go to stdout as JSON (default) or as a plain
table via ``--format table``.

Importing this module runs only ``errors``, ``model``, ``fairness`` and
``oracle``, what ``check`` and ``search`` use. The other modules it calls
through (``algorithms``, ``binary_solver``, ``kneser``, ``reduction`` and
``gallery``) are bound lazily: each is placed in ``sys.modules`` and on the
package at once, as an import would, but its code runs on the first
attribute read, so ``solve`` runs the one of ``binary_solver`` and
``algorithms`` its method calls, ``kneser`` the module ``kneser``,
``reduce`` ``reduction`` and ``corpus`` ``gallery``. ``fuzz`` imports its
suites inside its handler.

Before an answer is printed it is checked again, against all it claims,
by :func:`fairness.check_answer`, the package's one answer check: the
bundles partition the goods, one per group (two for exact1); a ``search``
hit meets its notion, the declared group sizes (sizes within one with
``--balanced-agents``) and, with ``--balanced-goods``, bundles within one;
a ``solve`` answer meets its method's claim (binary, two-one and
cutchoose EF1, cutchoose in the declared sizes; knife EF1 with balanced
groups and bundles, on declared sizes within one; roundrobin EF1 with one
agent per group; exact1 two balanced bundles, EF1 for both agents; prop
the declared sizes and every share up to k-1 goods). ``kneser`` checks that a colouring it prints is
proper, and checks every ``--tightness`` input before it writes anything.
A failed check raises ``AssertionError`` ("result failed G
re-verification"): a fault of the program, which no exit code stands for.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import oracle
from .errors import FairAllocationNotFound, GroupFairError
from .fairness import EF1, Notion, SearchConstraints, check_answer, is_balanced, is_fair, parse_notion
from .model import (
    AgentPartition,
    Allocation,
    FixedGroups,
    Instance,
    dumps_indented,
    instance_from_json,
    instance_to_json,
    instance_to_rows,
    validate,
)

OK, CERTIFIED_NO, USAGE = 0, 2, 1


def _lazy(name: str):
    """The package's submodule ``name``, its code run on first use."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = find_spec(full)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


algorithms = _lazy("algorithms")
binary_solver = _lazy("binary_solver")
gallery = _lazy("gallery")
kneser = _lazy("kneser")
reduction = _lazy("reduction")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # certified negative outcomes, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class RunReport:
    command: str
    instance: dict | None = None
    result: dict = field(default_factory=dict)
    fairness: dict | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        out: dict = {"command": self.command}
        if self.instance is not None:
            out["instance"] = self.instance
        out["result"] = self.result
        if self.fairness is not None:
            out["fairness"] = self.fairness
        out["elapsed"] = round(self.elapsed, 6)
        return out

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return dumps_indented(self.to_dict())
        lines = [f"command: {self.command}"]
        if self.instance is not None:
            digest = " ".join(f"{k}={v}" for k, v in self.instance.items())
            lines.append(f"instance: {digest}")
        for key, value in self.result.items():
            lines.append(f"{key}: {value}")
        if self.fairness is not None:
            lines.append(f"fair: {self.fairness['overall']}")
            for agent, witness in self.fairness.get("witnesses", {}).items():
                lines.append(f"  agent {agent}: envy witness {witness}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _digest(inst: Instance) -> dict:
    if isinstance(inst.groups, FixedGroups):
        shape = "fixed(" + ",".join(str(len(g)) for g in inst.groups.members) + ")"
    else:
        shape = "variable(" + ",".join(str(s) for s in inst.groups.sizes) + ")"
    return {"m": inst.m, "n": inst.n, "groups": shape}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    inst = instance_from_json(_read_text(path))
    problems = validate(inst)
    if problems:
        raise ValueError(f"invalid instance {path}: " + "; ".join(problems))
    return inst


def _int_token(token: str, option: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{option}: {token.strip()!r} is not an integer") from None


def _parse_notion(text: str) -> Notion:
    try:
        return parse_notion(text)
    except ValueError as exc:
        raise ValueError(f"--notion: {exc}") from None


def _parse_id_groups(text: str, option: str) -> list[list[int]]:
    groups = []
    for chunk in text.split(";"):
        groups.append([_int_token(x, option) for x in chunk.split(",") if x.strip()])
    return groups


def _parse_split(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated sizes, got {text!r}")
    return _int_token(parts[0], "--split"), _int_token(parts[1], "--split")


def _emit(report: RunReport, fmt: str) -> None:
    print(report.render(fmt))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    notion = _parse_notion(args.notion)
    goods = _parse_id_groups(args.allocation, "--allocation")
    for g in (g for bundle in goods for g in bundle):
        if g >= inst.m:  # before a mask of g bits is built
            raise ValueError(f"--allocation: good {g} outside 0..{inst.m - 1}")
    alloc = Allocation.of(goods)
    if alloc.k != inst.k:
        raise ValueError(f"allocation has {alloc.k} bundles, instance has {inst.k} groups")
    partition = None
    if args.partition:  # is_fair checks it against the instance and allocation
        partition = AgentPartition.from_groups(_parse_id_groups(args.partition, "--partition"))
    t0 = time.perf_counter()
    report = is_fair(inst, alloc, notion, partition=partition)
    run = RunReport(
        "check",
        _digest(inst),
        {"notion": str(notion), "allocation": [list(b) for b in alloc.goods_lists()]},
        report.to_dict(),
        time.perf_counter() - t0,
    )
    _emit(run, args.format)
    return OK if report.overall else CERTIFIED_NO


def _verify(inst: Instance, alloc: Allocation, part: AgentPartition | None, claim) -> dict | None:
    """Raise unless an answer meets its whole claim; the notion's report, if any."""
    failure, report = check_answer(inst, alloc, part, claim)
    if failure:
        raise AssertionError(f"result failed {getattr(claim, 'notion', claim)} re-verification")
    return None if report is None else report.to_dict()


def _solve_dispatch(args, inst: Instance):
    """Returns (result dict, allocation, partition | None, claim, instance
    the claim is about), as :func:`_verify` takes them. The EF1 methods
    leave the dict empty; the others name their guarantee in it."""
    method = args.method
    ef1 = SearchConstraints(EF1)
    if method == "binary":
        return {}, binary_solver.solve_ef1_binary(inst), None, ef1, inst
    if method == "two-one":
        return {}, algorithms.ef1_two_one(inst), None, ef1, inst
    if method == "exact1":
        if inst.n != 2:
            raise ValueError("exact1 needs exactly two agents")
        alloc = Allocation(algorithms.exact1_partition(inst.agents[0], inst.agents[1]))
        return {"exact1": True}, alloc, None, "exact1", inst
    if method == "roundrobin":
        alloc = algorithms.round_robin(inst.agents)
        singles = Instance.fixed(inst.m, inst.agents, [[a] for a in range(inst.n)])
        return {"groups": "one per agent"}, alloc, None, ef1, singles
    if isinstance(inst.groups, FixedGroups):
        raise ValueError(f"method {method} chooses the partition; use variable groups")
    if not inst.n:  # the algorithms read m off the first agent
        raise ValueError(f"method {method} needs at least one agent")
    if method in ("cutchoose", "knife") and inst.k != 2:
        raise ValueError(f"{method} needs exactly two groups")
    if method == "cutchoose":
        part, alloc = algorithms.cut_and_choose_ef1(inst.agents, *inst.groups.sizes)
        return {}, alloc, part, ef1, inst
    if method == "knife":
        if not is_balanced(inst.groups.sizes):  # it splits the agents itself
            raise ValueError(f"knife needs group sizes within one, not {inst.groups.sizes}")
        part, alloc = algorithms.rotating_knife(inst.agents)  # balanced groups and bundles
        return {}, alloc, part, SearchConstraints(EF1, True, True), inst
    if method == "prop":
        part, alloc = algorithms.proportional_k_groups(inst.agents, inst.groups.sizes)
        # The guarantee is proportionality up to k-1 goods, not exact Prop.
        guarantee = "prop up to k-1 goods"
        return {"guarantee": guarantee}, alloc, part, guarantee, inst
    raise ValueError(f"unknown method {method!r}")


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    t0 = time.perf_counter()
    try:
        extra, alloc, part, claim, about = _solve_dispatch(args, inst)
    except FairAllocationNotFound as exc:
        result = {"reason": str(exc)}
        if exc.certificate is not None:
            result.update(exc.certificate.to_dict())
        result.setdefault("outcome", "exhausted-none")
        run = RunReport("solve", _digest(inst), result, None, time.perf_counter() - t0)
        _emit(run, args.format)
        return CERTIFIED_NO
    fairness = _verify(about, alloc, part, claim)
    result = {"outcome": "solved", "method": args.method, **extra}
    result["allocation"] = [list(b) for b in alloc.goods_lists()]
    if part is not None:
        result["partition"] = [list(g) for g in part.groups_lists()]
    if not extra:  # the other methods name their guarantee there and show no report
        result["notion"] = str(claim.notion)
    run = RunReport("solve", _digest(inst), result, None if extra else fairness, time.perf_counter() - t0)
    _emit(run, args.format)
    return OK


def _cmd_search(args) -> int:
    inst = _load_instance(args.instance)
    notion = _parse_notion(args.notion)
    cons = SearchConstraints(
        notion,
        balanced_allocation=args.balanced_goods,
        balanced_partition=args.balanced_agents,
    )
    t0 = time.perf_counter()
    cert = oracle.find_fair(inst, cons)
    elapsed = time.perf_counter() - t0
    fairness = _verify(inst, cert.allocation, cert.partition, cons) if cert.found else None
    result = {"notion": str(notion), **cert.to_dict()}
    run = RunReport("search", _digest(inst), result, fairness, elapsed)
    _emit(run, args.format)
    return OK if cert.found else CERTIFIED_NO


def _cmd_corpus(args) -> int:
    entries = gallery.corpus()
    by_name = {e.name: e for e in entries}
    if args.export:
        os.makedirs(args.export, exist_ok=True)
        for e in entries:
            path = os.path.join(args.export, f"{e.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(instance_to_json(e.instance) + "\n")
        print(f"wrote {len(entries)} instances to {args.export}", file=sys.stderr)
    if args.list:
        for e in entries:
            print(f"{e.name}: {e.summary}")
        return OK
    names = [args.run] if args.run else [e.name for e in entries]
    if args.run and args.run not in by_name:
        raise ValueError(f"unknown corpus entry {args.run!r}")
    t0 = time.perf_counter()
    results = [gallery.run_corpus_entry(by_name[n]) for n in names]
    elapsed = time.perf_counter() - t0
    if args.format == "table":
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"{flag}  {r.name:<28} {r.detail}  ({r.elapsed:.3f}s)")
    else:
        payload = {
            "command": "corpus",
            "results": [r.to_dict() for r in results],
            "passed": all(r.passed for r in results),
            "elapsed": round(elapsed, 6),
        }
        print(dumps_indented(payload))
    return OK if all(r.passed for r in results) else CERTIFIED_NO


def _cmd_kneser(args) -> int:
    t0 = time.perf_counter()
    for option, value in (("--split", args.split), ("--out", args.out)):
        if value is not None and not args.tightness:
            raise ValueError(f"{option} needs --tightness")
    g = kneser.build_kneser(args.b, args.r, args.s)
    result: dict = {"b": args.b, "r": args.r, "s": args.s, "vertices": g.n, "edges": g.edge_count}
    if args.chi:
        lower, upper, coloring = kneser.chromatic_number(g, mode=args.chi)
        # with --tightness, tightness_instance checks the coloring, which is not checked twice
        if not args.tightness and not kneser.is_proper(g, coloring):
            raise AssertionError("result failed proper coloring re-verification")
        result["chi"] = {"lower": lower, "upper": upper}
        result["coloring"] = list(coloring.colors)
    if args.tightness:  # built before any DIMACS text is written, so a bad question writes nothing
        if args.split is None:
            raise ValueError("--tightness needs --split n1,n2")
        split = _parse_split(args.split)
        if not args.chi:
            _, _, coloring = kneser.chromatic_number(g, mode="exact")
        try:
            inst = kneser.tightness_instance(g, coloring, split)
        except ValueError:  # a coloring of ours at fault is no input error
            if not kneser.is_proper(g, coloring):
                raise AssertionError("result failed proper coloring re-verification") from None
            raise
    if args.dimacs:
        text = kneser.to_dimacs(g)
        if args.dimacs == "-":
            sys.stdout.write(text)
        else:
            with open(args.dimacs, "w", encoding="utf-8") as fh:
                fh.write(text)
            result["dimacs"] = args.dimacs
    if args.tightness:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(instance_to_json(inst) + "\n")
            result["instance"] = args.out
        else:
            result["instance"] = instance_to_rows(inst)
    run = RunReport("kneser", None, result, None, time.perf_counter() - t0)
    _emit(run, args.format)
    return OK


def _cmd_reduce(args) -> int:
    t0 = time.perf_counter()
    f = reduction.parse_dimacs_cnf(_read_text(args.formula))
    inst = reduction.formula_to_instance(f)
    result: dict = {
        "variables": f.num_vars,
        "clauses": len(f.clauses),
        "agents": inst.n,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(instance_to_json(inst) + "\n")
        result["instance"] = args.out
    else:
        result["instance"] = instance_to_rows(inst)
    run = RunReport("reduce", _digest(inst), result, None, time.perf_counter() - t0)
    _emit(run, args.format)
    return OK


def _cmd_fuzz(args) -> int:
    from . import fuzz  # the suites load only when asked for

    if args.list:
        for name in sorted(fuzz.SUITES):
            print(name)
        return OK
    if not args.suite:
        raise ValueError("pick a suite with --suite or list them with --list")
    if args.runs < 1:
        raise ValueError(f"--runs: {args.runs} is not a positive number of runs")
    result = fuzz.run_suite(args.suite, args.seed, args.runs)
    if args.format == "table":
        flag = "PASS" if result.passed else "FAIL"
        print(
            f"{flag}  {result.name}: {result.runs} runs,"
            f" {result.failures} failures ({result.elapsed:.2f}s, seed {args.seed})"
        )
        for ex in result.examples:
            print(f"  {ex}")
    else:
        payload = result.to_dict()
        payload["seed"] = args.seed
        print(dumps_indented(payload))
    return OK if result.passed else CERTIFIED_NO


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: argparse keeps no state between parse_args
    # calls, every default is immutable and help text is laid out when it is
    # printed, so repeated main calls behave as if each built its own.
    parser = _Parser(prog="groupfair", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", parents=[common], help="verify an allocation against a fairness notion")
    p.add_argument("instance")
    p.add_argument("--allocation", required=True, help="bundles as '0,1;2,3' (goods by group)")
    p.add_argument("--notion", default="ef1")
    p.add_argument("--partition", help="agents by group, same syntax, for variable groups")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", parents=[common], help="run a constructive algorithm")
    p.add_argument("instance")
    p.add_argument(
        "--method",
        required=True,
        choices=("binary", "two-one", "exact1", "roundrobin", "cutchoose", "knife", "prop"),
    )
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("search", parents=[common], help="exhaustive existence search")
    p.add_argument("instance")
    p.add_argument("--notion", default="ef1")
    p.add_argument("--balanced-goods", action="store_true", help="bundle sizes within one")
    p.add_argument("--balanced-agents", action="store_true", help="group sizes within one")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("corpus", parents=[common], help="run the built-in impossibility corpus")
    p.add_argument("--run", metavar="NAME", help="run a single entry")
    p.add_argument("--list", action="store_true", help="list entries")
    p.add_argument("--export", metavar="DIR", help="write the instances as JSON files")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("kneser", parents=[common], help="generalized Kneser graph toolkit")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--chi", choices=("exact", "bounds"))
    p.add_argument("--dimacs", metavar="FILE", help="write DIMACS graph ('-' for stdout)")
    p.add_argument("--tightness", action="store_true", help="emit the no-balanced-EF1 instance")
    p.add_argument("--split", metavar="N1,N2", help="group sizes for --tightness")
    p.add_argument("--out", metavar="FILE", help="file for the tightness instance")
    p.set_defaults(fn=_cmd_kneser)

    p = sub.add_parser("reduce", parents=[common], help="monotone 3-SAT formula to instance")
    p.add_argument("--formula", required=True, help="DIMACS CNF file, monotone 3-clauses")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("fuzz", parents=[common], help="run a randomized property suite")
    p.add_argument("--suite")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GroupFairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
