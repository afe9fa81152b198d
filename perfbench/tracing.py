"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` rebinds the public functions of each layer to timing
wrappers in every ``groupfair`` module that holds them, so a caller that
imported a function by name (``cli.validate``) and one that looks it up on
its module (``oracle.find_fair``) both reach the wrapper. Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, question)``; spans stay in memory
and are written out when the run ends. The per-candidate functions
(``Valuation.value``, ``fair_toward``) get no spans: they are timed on
their own by ``micro``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions whose calls become spans
LAYERS = {
    "model": ("instance_from_json", "validate", "instance_to_dict", "allocation_violations"),
    "fairness": ("is_fair", "is_exact1", "parse_notion"),
    "oracle": ("find_fair",),
    "binary_solver": ("solve_ef1_binary", "preprocess"),
    "algorithms": (
        "rotating_knife",
        "cut_and_choose_ef1",
        "proportional_k_groups",
        "ef1_two_one",
        "exact1_partition",
        "round_robin",
    ),
    "kneser": ("build_kneser", "chromatic_number", "tightness_instance", "to_dimacs"),
    "reduction": ("parse_dimacs_cnf", "formula_to_instance"),
}
MODULES = ("cli",) + tuple(LAYERS)
QUESTION_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._question = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def question(self, number: int, fn, *args):
        """Ask question ``number`` by calling ``fn`` inside a root span."""
        self._question = number
        return self.span(QUESTION_SPAN, fn, *args)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1], self._question))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self._stack[-1], self._question)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, result) -> None:
        """Exact counts taken where the work happens."""
        if name == "oracle.find_fair" and not result.found:
            self.counts["oracle.examined"] += result.examined
        elif name == "binary_solver.preprocess":
            _partial, reduced, trace = result
            self.counts["binary_solver.preprocess_calls"] += 1
            self.counts["binary_solver.emptied"] += reduced.m == 0
            self.counts["binary_solver.trace_steps"] += len(trace.steps)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key.startswith("groupfair") and mod]
        for layer, names in LAYERS.items():
            home = sys.modules[f"groupfair.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; per module: self
        seconds; and the total time inside questions."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _q in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        by_module: dict[str, float] = defaultdict(float)
        total = 0.0
        for i, (name, start, end, _parent, _q) in enumerate(self.spans):
            dur = end - start
            own = dur - child_time[i]
            entry = by_name[name]
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
            by_module[name.split(".", 1)[0]] += own
            if name == QUESTION_SPAN:
                total += dur
        return {"names": dict(by_name), "modules": dict(by_module), "question_s": total}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "question": q}
            for n, s, e, p, q in self.spans
        ]
