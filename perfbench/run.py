"""End-to-end benchmark of the groupfair CLI.

    python3 perfbench/run.py --workload exhaust --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in this one process: a
question is one in-process call of ``groupfair.cli.main(argv)`` with its
output captured, and the next question is asked when the previous one has
been answered and checked. Questions use the CLI's default options, so
``search`` and ``solve`` keep their default ``--jobs``. Inputs are generated
from ``--seed`` during set-up and written as files under ``.perfbench/`` at
the root of the checkout; the referee in this directory checks every answer.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass over the whole question cycle until ``--seconds``
have been spent, then takes the per-layer micro-timings, and prints the
per-layer metrics; spans go to ``.perfbench/spans-<workload>-<seed>.json``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("exhaust", "solve-stream", "kneser-chain")
SETUP_REPS = 5
# a run holds at least this many questions, so that ten lie beyond p90
MIN_QUESTIONS = 100


def import_program() -> float:
    """Import the CLI from this checkout's ``src``; returns the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "groupfair", "cli.py")):
        raise SystemExit(f"perfbench: no groupfair sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    start = time.perf_counter()
    import groupfair.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if not os.path.abspath(groupfair.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: groupfair imported from {groupfair.cli.__file__}, not {src}")
    return elapsed


@dataclass
class Answer:
    seconds: float
    cpu: float
    code: int | None
    report: object
    error: str | None


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Asker:
    """Asks one CLI question in-process and captures its output.

    ``main`` is the CLI entry point; the self-test substitutes one that
    tampers with answers. With ``tracer`` set, each question is a root span.
    """

    def __init__(self, main):
        self.main = main
        self.tracer = None
        self.asked = 0

    def _call(self, argv):
        try:
            return self.main(argv), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), None
        except Exception as exc:  # a crash is a failed question, not a failed run
            return None, f"raised {type(exc).__name__}: {exc}"

    def __call__(self, argv: list[str]) -> Answer:
        out, err = io.StringIO(), io.StringIO()
        cpu0 = _cpu()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                code, error = self._call(argv)
            else:
                code, error = self.tracer.question(self.asked, self._call, argv)
        seconds = time.perf_counter() - start
        cpu = _cpu() - cpu0
        self.asked += 1
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        return Answer(seconds, cpu, code, report, error)


class Tally:
    """Latencies, CPU and failures of the questions asked so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spent = 0.0
        self.cpu = 0.0
        self.failed = 0
        self.reasons: list[str] = []

    def ask(self, asker: Asker, question) -> None:
        answer = asker(question.argv)
        self.latencies.append(answer.seconds)
        self.spent += answer.seconds
        self.cpu += answer.cpu
        problem = answer.error or question.check(answer.code, answer.report)
        if problem:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{question.family} {' '.join(question.argv)}: {problem}")


def build(workload: str, seed: int, workdir: str, asker: Asker):
    from perfbench import workloads

    if workload == "exhaust":
        return workloads.exhaust(seed, workdir)
    if workload == "solve-stream":
        return workloads.solve_stream(seed, workdir)
    # the tightness split must sum to the colour count of the CLI's own
    # bounds colouring, so ask for it first
    greedy = {}
    for t in workloads.CHAIN_TS:
        answer = asker(["kneser", "--b", str(2 * t), "--r", str(t), "--s", "2", "--chi", "bounds"])
        try:
            greedy[t] = answer.report["result"]["chi"]["upper"]
        except (TypeError, KeyError):
            raise SystemExit(f"perfbench: kneser bounds for t={t} gave no colour count") from None
    return workloads.kneser_chain(seed, workdir, greedy)


def setup(workload: str, seed: int, rundir: str, asker: Asker, warm: Tally):
    """Generate inputs, expected answers and warm up, SETUP_REPS times;
    returns the last plan and the median set-up time."""
    times = []
    plan = None
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        plan = build(workload, seed, os.path.join(rundir, f"rep{rep}"), asker)
        for question in plan.warmup:
            warm.ask(asker, question)
        times.append(time.perf_counter() - start)
    return plan, statistics.median(times)


def timed_loop(plan, asker: Asker, seconds: float) -> Tally:
    """Whole cycles until ``seconds`` are spent inside questions and at least
    MIN_QUESTIONS were asked; whole cycles keep the mix the same in every run."""
    tally = Tally()
    while tally.spent < seconds or len(tally.latencies) < MIN_QUESTIONS:
        for question in plan.questions:
            tally.ask(asker, question)
    return tally


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = tally.latencies
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "setup_s": (setup_s, "s"),
        "questions_per_s": (n / tally.spent, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "cpu_ms_per_question": (tally.cpu / n * 1e3, "ms"),
        "correct_frac": (1 - tally.failed / n, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(plan, asker: Asker, seconds: float):
    """Alternate untraced and traced passes over the whole cycle."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tally = Tally()
    plain = traced = 0.0
    passes = 0
    while passes == 0 or plain + traced < seconds:
        before = tally.spent
        for question in plan.questions:
            tally.ask(asker, question)
        plain += tally.spent - before
        before = tally.spent
        tracer.install()
        asker.tracer = tracer
        try:
            for question in plan.questions:
                tally.ask(asker, question)
        finally:
            asker.tracer = None
            tracer.uninstall()
        traced += tally.spent - before
        passes += 1
    return tracer, tally, passes, traced / plain


ALGORITHMS = ("rotating_knife", "cut_and_choose_ef1", "proportional_k_groups", "ef1_two_one", "exact1_partition")


def per_layer(tracer, passes: int, overhead: float, micro: dict) -> dict:
    from perfbench.tracing import MODULES, QUESTION_SPAN

    summary = tracer.summary()
    names, modules, total = summary["names"], summary["modules"], summary["question_s"]
    questions = names[QUESTION_SPAN][0]

    def per_call(name: str, scale: float) -> float:
        calls, inclusive, _own = names.get(name, (0, 0.0, 0.0))
        return inclusive / calls * scale if calls else 0.0

    def calls(name: str) -> float:
        return names.get(name, (0,))[0] / passes

    counts = tracer.counts
    out = {f"{mod}.self_share": (modules.get(mod, 0.0) / total, "share") for mod in MODULES}
    out.update({
        "cli.self_us_per_q": (modules.get("cli", 0.0) / questions * 1e6, "us"),
        "model.instance_from_json.us_per_call": (per_call("model.instance_from_json", 1e6), "us"),
        "model.validate.us_per_call": (per_call("model.validate", 1e6), "us"),
        "fairness.is_fair.calls": (calls("fairness.is_fair"), "count"),
        "fairness.is_fair.us_per_call": (per_call("fairness.is_fair", 1e6), "us"),
        "oracle.find_fair.calls": (calls("oracle.find_fair"), "count"),
        "oracle.find_fair.us_per_call": (per_call("oracle.find_fair", 1e6), "us"),
        "oracle.examined": (counts["oracle.examined"] / passes, "count"),
        "binary_solver.solve_ef1_binary.us_per_call": (per_call("binary_solver.solve_ef1_binary", 1e6), "us"),
        "binary_solver.preprocess.us_per_call": (per_call("binary_solver.preprocess", 1e6), "us"),
        "binary_solver.emptied_ratio": (
            counts["binary_solver.emptied"] / counts["binary_solver.preprocess_calls"]
            if counts["binary_solver.preprocess_calls"] else 0.0,
            "ratio",
        ),
        "binary_solver.trace_steps": (counts["binary_solver.trace_steps"] / passes, "count"),
        "kneser.build_kneser.us_per_call": (per_call("kneser.build_kneser", 1e6), "us"),
        "kneser.chromatic_number.ms_per_call": (per_call("kneser.chromatic_number", 1e3), "ms"),
        "kneser.tightness_instance.ms_per_call": (per_call("kneser.tightness_instance", 1e3), "ms"),
        "reduction.parse_dimacs_cnf.us_per_call": (per_call("reduction.parse_dimacs_cnf", 1e6), "us"),
        "reduction.formula_to_instance.us_per_call": (per_call("reduction.formula_to_instance", 1e6), "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    for name in ALGORITHMS:
        out[f"algorithms.{name}.us_per_call"] = (per_call(f"algorithms.{name}", 1e6), "us")
    out.update(micro)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    import groupfair.cli

    asker = Asker(groupfair.cli.main)
    rundir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    warm = Tally()
    try:
        plan, build_s = setup(args.workload, args.seed, rundir, asker, warm)
        if args.trace:
            from perfbench import micro

            tracer, tally, passes, overhead = traced_passes(plan, asker, args.seconds)
            metrics = per_layer(tracer, passes, overhead, micro.run(args.seed, warm.reasons))
            write_trace(args, tracer, passes, metrics)
        else:
            tally = timed_loop(plan, asker, args.seconds)
            metrics = end_to_end(tally, import_s + build_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for reason in warm.reasons + tally.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(tally.latencies)} questions,"
        f" {tally.failed} failed, {tally.spent:.2f} s in questions",
        file=sys.stderr,
    )
    result = {
        "correct": tally.failed == 0 and not warm.reasons,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(args, tracer, passes: int, metrics: dict) -> None:
    from perfbench.micro import BASELINES

    comparison = {}
    for name, baseline in BASELINES.items():
        measured = metrics[name][0]
        comparison[name] = {"measured": measured, "baseline": baseline}
        print(f"{name}: {measured:.3f} s (roadmap baseline {baseline} s)")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "baselines": comparison,
        "spans": tracer.dump(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    raise SystemExit(main())
