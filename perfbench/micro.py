"""Per-layer micro-timings, taken through the package's Python API.

Each timing runs on inputs built here from a seeded ``random.Random`` and
checks the answer it times. The scans named by the roadmap baseline are
timed next to the figures recorded at that baseline, so a reader can compare
this machine's numbers with them.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from groupfair import binary_solver, kneser, oracle
from groupfair.fairness import EF, EF1, EFX, EFX0, fair_toward
from groupfair.model import Instance, Valuation, instance_from_dict, validate

from . import referee, workloads

# Roadmap baseline on a 2-core machine, seconds, by metric name.
BASELINES = {
    "oracle.ef18_serial_s": 2.40,
    "oracle.ef18_parallel_s": 2.08,
    "oracle.ef18_balanced_s": 1.44,
    "kneser.chi_exact_s.8-4-2": 18.2,
    "model.validate_table14_s": 0.14,
}

NOTIONS = {"ef": EF, "ef1": EF1, "efx": EFX, "efx0": EFX0}


def _ns_per_call(fn, args: list, reps: int = 5) -> float:
    """Median over ``reps`` passes of the mean cost of ``fn(*a)`` over ``args``."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter_ns() - start) / len(args))
    return statistics.median(samples)


def _table(rng: random.Random, m: int) -> Valuation:
    return Valuation.table_of(m, dict(enumerate(workloads.monotone_table(rng, m))))


def _parity(rng: random.Random, m: int, sizes, variable: bool = False) -> Instance:
    return instance_from_dict(workloads.parity_doc(rng, m, sizes, variable))


def _exhaust(inst: Instance, cons, jobs: int, expected: int, problems: list[str]) -> float:
    start = time.perf_counter()
    cert = oracle.find_fair(inst, cons, jobs=jobs)
    elapsed = time.perf_counter() - start
    if cert.found or cert.examined != expected:
        problems.append(f"scan answered found={cert.found} examined={cert.examined}, expected none/{expected}")
    return elapsed


def _timed(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def run(seed: int, problems: list[str]) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit); wrong answers are appended to ``problems``."""
    rng = random.Random(seed)
    out: dict[str, tuple[float, str]] = {}

    # Valuation.value per kind, on random bundles
    m = 14
    kinds = {
        "binary": Valuation.binary([rng.randint(0, 1) for _ in range(m)]),
        "additive": Valuation.additive([rng.randint(0, 9) for _ in range(m)]),
        "table": _table(rng, 10),
    }
    for kind, v in kinds.items():
        masks = [(rng.getrandbits(v.m),) for _ in range(4000)]
        out[f"model.value_ns.{kind}"] = (_ns_per_call(v.value, masks), "ns")

    # fair_toward per notion and kind, on disjoint random bundle pairs
    for kind, v in kinds.items():
        for name, notion in NOTIONS.items():
            if kind == "table" and name in ("efx", "efx0"):
                continue
            pairs = []
            for _ in range(2000):
                labels = [rng.randrange(2) for _ in range(v.m)]
                own = referee.goods_mask(g for g in range(v.m) if labels[g] == 0)
                pairs.append((v, own, ((1 << v.m) - 1) ^ own, notion))
            out[f"fairness.fair_toward_ns.{name}.{kind}"] = (_ns_per_call(fair_toward, pairs), "ns")

    # oracle scan rates, single process
    k2 = _parity(rng, 14, (2, 2))
    t_free = _exhaust(k2, oracle.SearchConstraints(EF), 1, 2**14, problems)
    out["oracle.candidates_per_s.k2"] = (2**14 / t_free, "1/s")
    k3 = _parity(rng, 9, (2, 1, 1))
    out["oracle.candidates_per_s.k3"] = (3**9 / _exhaust(k3, oracle.SearchConstraints(EF), 1, 3**9, problems), "1/s")
    admissible = referee.balanced_count(14, 2)
    t_bal = _exhaust(k2, oracle.SearchConstraints(EF, balanced_allocation=True), 1, admissible, problems)
    out["oracle.candidates_per_s.balanced"] = (admissible / t_bal, "1/s")
    out["oracle.balanced_cost_ratio"] = ((t_bal / admissible) / (t_free / 2**14), "ratio")
    var = _parity(rng, 11, (2, 2), variable=True)
    total = referee.balanced_count(4, 2) * 2**11
    t_var = _exhaust(var, oracle.SearchConstraints(EF, balanced_partition=True), 1, total, problems)
    out["oracle.candidates_per_s.variable"] = (total / t_var, "1/s")

    # the roadmap's m=18 scans: serial, default workers, balanced
    ef18 = _parity(rng, 18, (2, 2))
    jobs = os.cpu_count() or 1
    serial = _exhaust(ef18, oracle.SearchConstraints(EF), 1, 2**18, problems)
    parallel = _exhaust(ef18, oracle.SearchConstraints(EF), jobs, 2**18, problems)
    out["oracle.ef18_serial_s"] = (serial, "s")
    out["oracle.ef18_parallel_s"] = (parallel, "s")
    out["oracle.parallel_speedup"] = (serial / parallel, "ratio")
    balanced = oracle.SearchConstraints(EF, balanced_allocation=True)
    out["oracle.ef18_balanced_s"] = (_exhaust(ef18, balanced, 1, referee.balanced_count(18, 2), problems), "s")

    # binary solver rule fixpoint per shape at fixed m
    for shape in ((5, 1), (3, 2)):
        n = sum(shape)
        samples = []
        for _ in range(15):
            agents = [Valuation.binary([int(rng.random() < 0.5) for _ in range(20)]) for _ in range(n)]
            inst = Instance.fixed(20, agents, [list(range(shape[0])), list(range(shape[0], n))])
            elapsed, (_partial, reduced, _trace) = _timed(binary_solver.preprocess, inst)
            if reduced.m != 0:
                problems.append(f"shape {shape} stalled with {reduced.m} goods left")
            samples.append(elapsed * 1e6)
        out[f"binary_solver.preprocess_us.{shape[0]}-{shape[1]}"] = (statistics.median(samples), "us")

    # exact chromatic numbers
    for b, r, s in ((8, 3, 2), (8, 5, 4), (8, 4, 2)):
        elapsed, (lower, upper, _col) = _timed(kneser.chromatic_number, kneser.build_kneser(b, r, s))
        if lower != upper or upper != referee.CHI[(b, r, s)]:
            problems.append(f"chi(K({b},{r},{s})) came out {lower}..{upper}")
        out[f"kneser.chi_exact_s.{b}-{r}-{s}"] = (elapsed, "s")

    # validating one 14-good table
    table14 = Instance.fixed(14, [_table(rng, 14)], [[0]])
    elapsed, report = _timed(validate, table14)
    if report:
        problems.append(f"a valid 14-good table was reported as {report[:1]}")
    out["model.validate_table14_s"] = (elapsed, "s")
    return out
