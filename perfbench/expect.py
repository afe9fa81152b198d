"""Answer checks for CLI questions, built on the referee.

Each factory returns a check ``(exit_code, report) -> problem | None`` where
``report`` is the CLI's parsed JSON output (None if stdout did not parse).
A check names the first thing that is wrong, so a failed question can be
reported with a reason.
"""

from __future__ import annotations

import json
import os

from . import referee


def _result(report):
    if not isinstance(report, dict) or not isinstance(report.get("result"), dict):
        return None
    return report["result"]


def _masks(lists) -> list[int]:
    return [referee.goods_mask(b) for b in lists]


def exhausted(examined: int):
    """Certified non-existence over exactly ``examined`` candidates."""

    def check(code, report):
        res = _result(report)
        if code != 2 or res is None:
            return f"expected exit 2 with a report, got exit {code}"
        if res.get("outcome") != "exhausted-none":
            return f"outcome {res.get('outcome')!r}, expected exhausted-none"
        if res.get("examined") != examined:
            return f"examined {res.get('examined')}, closed form gives {examined}"
        return None

    return check


def found(ref: referee.Ref, notion: str, balanced_goods: bool = False, balanced_agents: bool = False):
    """A search or solve hit whose allocation (and partition) the referee accepts."""

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None:
            return f"expected exit 0 with a report, got exit {code}"
        if res.get("outcome") not in ("found", "solved"):
            return f"outcome {res.get('outcome')!r}, expected an allocation"
        bundles = _masks(res.get("allocation", []))
        groups = _groups_for(ref, res, balanced_agents)
        if isinstance(groups, str):
            return groups
        if balanced_goods and not referee.is_balanced_sizes(b.bit_count() for b in bundles):
            return "bundle sizes are not balanced"
        return ref.fairness_problem(bundles, groups, notion)

    return check


def _groups_for(ref: referee.Ref, res: dict, balanced_agents: bool):
    if ref.groups is not None:
        return ref.groups
    groups = res.get("partition")
    if not isinstance(groups, list):
        return "variable-group answer without a partition"
    sizes = [len(g) for g in groups]
    if balanced_agents:
        if not referee.is_balanced_sizes(sizes):
            return f"partition sizes {sizes} are not balanced"
    elif sizes != ref.doc["groups"]["variable"]:
        return f"partition sizes {sizes}, declared {ref.doc['groups']['variable']}"
    return groups


def prop_up_to(ref: referee.Ref):
    """k * u(B) >= u(G) - (k-1) * max good value, for every agent."""

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None or res.get("outcome") != "solved":
            return f"expected a solved report, got exit {code}"
        bundles = _masks(res.get("allocation", []))
        groups = _groups_for(ref, res, balanced_agents=False)
        if isinstance(groups, str):
            return groups
        m = ref.m
        bad = referee.allocation_problem(m, bundles, len(groups))
        if bad:
            return bad
        agents = ref.agents
        k = len(groups)
        for gi, members in enumerate(groups):
            for a in members:
                v = agents[a]
                umax = max(v.values, default=0)
                if k * v.value(bundles[gi]) < v.value((1 << m) - 1) - (k - 1) * umax:
                    return f"agent {a} misses the proportional threshold"
        return None

    return check


def exact1(ref: referee.Ref):
    """Both agents find both bundles EF1 against each other."""

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None or res.get("outcome") != "solved":
            return f"expected a solved report, got exit {code}"
        x, y = _masks(res.get("allocation", [[], []]))
        bad = referee.allocation_problem(ref.m, [x, y], 2)
        if bad:
            return bad
        for a, v in enumerate(ref.agents):
            if not (referee.accepts(v, x, y, "ef1") and referee.accepts(v, y, x, "ef1")):
                return f"agent {a} sees the split as unequal beyond one good"
        return None

    return check


def verdict(fair: bool):
    """``check`` answers: exit 0 and overall true exactly when fair."""

    def check(code, report):
        if code != (0 if fair else 2) or not isinstance(report, dict):
            return f"exit {code}, expected {'fair' if fair else 'unfair'}"
        if (report.get("fairness") or {}).get("overall") is not fair:
            return "overall verdict disagrees with the referee"
        return None

    return check


def reduced(out_path: str, num_vars: int, clauses: list):
    """``reduce`` wrote one binary agent per clause, positive clauses first group."""

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None:
            return f"expected exit 0, got {code}"
        if (res.get("variables"), res.get("clauses"), res.get("agents")) != (
            num_vars,
            len(clauses),
            len(clauses),
        ):
            return "reported sizes differ from the formula"
        try:
            with open(out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return "reduced instance file missing or unreadable"
        agents = sorted(doc["agents"], key=lambda a: a["id"])
        first, second = doc["groups"]["fixed"]
        for aid, (positive, variables) in enumerate(clauses):
            if agents[aid]["values"] != [1 if g in variables else 0 for g in range(num_vars)]:
                return f"agent {aid} does not desire exactly its clause's variables"
            if (aid in first) != positive or (aid in second) == positive:
                return f"agent {aid} sits in the wrong group"
        return None

    return check


def satisfying(num_vars: int, clauses: list):
    """A hit on a reduced formula: the first bundle is a satisfying assignment."""

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None or res.get("outcome") != "found":
            return f"expected a hit, got exit {code}"
        bundles = _masks(res.get("allocation", []))
        bad = referee.allocation_problem(num_vars, bundles, 2)
        if bad:
            return bad
        if not referee.assignment_satisfies(bundles[0], clauses):
            return "first bundle is not a satisfying assignment"
        return None

    return check


def _properness(b: int, r: int, s: int):
    """Properness check of K(b,r,s) colourings that remembers the colourings
    it has already accepted: a repeated answer is checked once."""
    accepted: set[tuple[int, ...]] = set()

    def problem(colours: list[int]) -> str | None:
        key = tuple(colours)
        if key in accepted:
            return None
        bad = referee.colouring_problem(b, r, s, colours)
        if bad is None:
            accepted.add(key)
        return bad

    return problem


def kneser_exact(b: int, r: int, s: int):
    """Exact chi equals the table and the printed colouring is proper with chi colours."""
    chi = referee.CHI[(b, r, s)]
    proper = _properness(b, r, s)

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None:
            return f"expected exit 0, got {code}"
        if res.get("chi") != {"lower": chi, "upper": chi}:
            return f"chi {res.get('chi')}, table gives {chi}"
        colours = res.get("coloring") or []
        if sorted(set(colours)) != list(range(chi)):
            return "colouring does not use exactly colours 0..chi-1"
        return proper(colours)

    return check


def kneser_tightness(t: int, out_path: str, agents: int):
    """Bounds bracket chi, the colouring is proper and uses as many colours as
    the split asks agents for, and the instance file was written."""
    proper = _properness(2 * t, t, 2)

    def check(code, report):
        res = _result(report)
        if code != 0 or res is None:
            return f"expected exit 0, got {code}"
        chi = res.get("chi") or {}
        known = referee.CHI.get((2 * t, t, 2))
        lower, upper = chi.get("lower"), chi.get("upper")
        if not (isinstance(lower, int) and isinstance(upper, int) and 0 < lower <= upper):
            return f"bad bounds {chi}"
        if known is not None and not lower <= known <= upper:
            return f"bounds {chi} do not bracket chi={known}"
        colours = res.get("coloring") or []
        if upper != agents or max(colours, default=-1) + 1 != upper:
            return "colour count differs from the agents requested"
        bad = proper(colours)
        if bad:
            return bad
        if not os.path.exists(out_path):
            return "tightness instance was not written"
        return None

    return check
