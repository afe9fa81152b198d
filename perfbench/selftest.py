"""Self-test of the benchmark: its inputs, its referee and its failure count.

    python3 perfbench/selftest.py

1. Every workload builds and answers its warm-up questions (one small
   question per family) with no failure.
2. Two planted wrong answers, a tampered allocation and an off-by-one
   ``examined``, are each counted as a failed question, so the correctness
   gate is not vacuous.
3. The generators agree with the package's own constructions: padded corpus
   cores equal cores extended by ``Valuation.with_zero_good``, and the
   tightness instances equal ``kneser.tightness_instance`` for the same
   colouring.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402

run.import_program()

from groupfair import cli, kneser  # noqa: E402
from groupfair.model import Valuation, instance_from_dict  # noqa: E402

from perfbench import workloads  # noqa: E402

WORKDIR = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")


def warmups_pass() -> list[str]:
    problems = []
    asker = run.Asker(cli.main)
    for name in run.WORKLOADS:
        tally = run.Tally()
        plan = run.build(name, 7, os.path.join(WORKDIR, name), asker)
        for question in plan.warmup:
            tally.ask(asker, question)
        if tally.failed or not tally.latencies:
            problems.append(f"{name}: {tally.failed} of {len(tally.latencies)} failed: {tally.reasons}")
    return problems


def tampering_main(tamper):
    """A CLI entry point that edits the real answer's JSON with ``tamper``."""

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        report = json.loads(buf.getvalue())
        tamper(report["result"])
        print(json.dumps(report))
        return code

    return main


def move_one_good(result):
    # identical agents with an exact split: moving a valued good breaks EF
    first, second = result["allocation"]
    second.append(first.pop())


def off_by_one(result):
    result["examined"] += 1


def planted_failures_counted() -> list[str]:
    plan = workloads.exhaust(7, os.path.join(WORKDIR, "planted"))
    hit = next(q for q in plan.questions if q.family == "found" and "--balanced-agents" not in q.argv)
    none = next(q for q in plan.questions if q.family == "ef-parity-k2")
    tally = run.Tally()
    honest = run.Asker(cli.main)
    tally.ask(honest, hit)
    tally.ask(honest, none)
    tally.ask(run.Asker(tampering_main(move_one_good)), hit)
    tally.ask(run.Asker(tampering_main(off_by_one)), none)
    frac = run.end_to_end(tally, 0.0)["correct_frac"][0]
    if tally.failed != 2 or frac != 0.5:
        return [f"2 of 4 answers planted wrong, counted {tally.failed} failed, correct_frac {frac}"]
    return []


def generators_match_package() -> list[str]:
    problems = []
    rng = random.Random(7)
    for name, core in workloads.CORES.items():
        m0, agents, _sizes, _notion = core()
        doc, _ = workloads.pad_core(core, 14, rng)
        valued = [g for g in range(14) if any(a["values"][g] for a in doc["agents"])]
        order = valued + [g for g in range(14) if g not in valued]
        for agent, padded in zip(agents, instance_from_dict(doc).agents):
            v = Valuation(agent["kind"], m0, values=tuple(agent["values"]))
            for _ in range(14 - m0):
                v = v.with_zero_good()
            if len(valued) != m0 or tuple(padded.values[g] for g in order) != v.values:
                problems.append(f"{name}: padding differs from Valuation.with_zero_good")
                break
    for t in (3, 4):
        colours = workloads.first_fit_colouring(t)
        y = max(colours) + 1
        mine = instance_from_dict(workloads.tightness_doc(t, colours, 2))
        theirs = kneser.tightness_instance(
            kneser.build_kneser(2 * t, t, 2), kneser.Coloring(tuple(colours), y), (2, y - 2)
        )
        if mine != theirs:
            problems.append(f"t={t}: tightness instance differs from kneser.tightness_instance")
    return problems


def main() -> int:
    checks = (warmups_pass, planted_failures_counted, generators_match_package)
    failed = False
    try:
        for check in checks:
            problems = check()
            failed = failed or bool(problems)
            print(f"{'FAIL' if problems else 'PASS'}  {check.__name__}")
            for problem in problems:
                print(f"      {problem}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
