"""Time the cold start of two checkouts of this repository, side by side.

    python3 tools/cold_start.py PARENT_DIR CHANGE_DIR [--rounds 12]

Each round starts, for every command below, one fresh interpreter per
checkout, the side that goes first alternating from round to round. A
process runs in its checkout with ``PYTHONPATH`` set to the checkout's
``src`` and ``PYTHONDONTWRITEBYTECODE=1``, so nothing it compiles is kept
for the next one; a checkout with a ``__pycache__`` under
``src/groupfair`` is read warm, and the report says so. The commands are
bare Python (``pass``), ``import groupfair.cli`` and one in-process
``groupfair.cli.main`` call each for ``search``, ``solve --method binary``
and ``kneser --chi exact`` on small inputs.

Printed per command and side: the median wall time of the process with
its quartiles, the median peak RSS, and the package's share, the median
less that of bare Python; then the ``groupfair`` modules whose code each
command ran, and whether ``fractions`` and ``logging`` were loaded.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

# Prints, on stderr, what the process loaded: the groupfair modules whose
# code ran (a lazily bound one is a module subclass until first use).
_LOADED = (
    "import types\n"
    "print(*sorted(m[len('groupfair.'):] for m, mod in sys.modules.items()"
    " if m.startswith('groupfair.') and type(mod) is types.ModuleType),"
    " *(m for m in ('fractions', 'logging') if m in sys.modules), file=sys.stderr)"
)


def _cli(argv: list[str]) -> str:
    return f"import sys\nfrom groupfair.cli import main\ncode = main({argv!r})\n{_LOADED}\nsys.exit(code)"


COMMANDS = {
    "pass": "pass",
    "import": f"import sys\nimport groupfair.cli\n{_LOADED}",
    "search": _cli(["search", "corpus/binary-6-1.json"]),
    "solve-binary": _cli(["solve", "corpus/binary-balanced-5-1.json", "--method", "binary"]),
    "kneser": _cli(["kneser", "--b", "5", "--r", "2", "--s", "1", "--chi", "exact"]),
}


def run_once(checkout: str, code: str) -> tuple[float, float, str]:
    """Seconds, peak RSS in MB and stderr of one fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=checkout, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    err = proc.stderr.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2):  # 2: a certified "no" answer
        raise SystemExit(f"cold_start: {checkout}: exit {proc.returncode}\n{err}")
    return seconds, usage.ru_maxrss / 1024, err.strip()


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def measure(checkouts: list[str], rounds: int) -> dict:
    """side -> command -> {"s": [...], "mb": [...], "loaded": str}."""
    out = {side: {name: {"s": [], "mb": [], "loaded": ""} for name in COMMANDS} for side in range(2)}
    for r in range(rounds):
        for name, code in COMMANDS.items():
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                seconds, mb, loaded = run_once(checkouts[side], code)
                cell = out[side][name]
                cell["s"].append(seconds)
                cell["mb"].append(mb)
                cell["loaded"] = loaded
    return out


def report(checkouts: list[str], rounds: int, runs: dict) -> str:
    lines = [f"cold start, {rounds} rounds: parent {checkouts[0]}, change {checkouts[1]}"]
    for side, label in enumerate(("parent", "change")):
        if os.path.isdir(os.path.join(checkouts[side], "src", "groupfair", "__pycache__")):
            lines.append(f"note: {label} has src/groupfair/__pycache__; its runs read cached bytecode")
    lines.append(f"{'command':<14}{'side':<8}{'median ms':>10}{'q1':>8}{'q3':>8}{'share ms':>10}{'rss MB':>8}")
    bare = [statistics.median(runs[side]["pass"]["s"]) for side in range(2)]
    shares = {}
    for name in COMMANDS:
        for side, label in enumerate(("parent", "change")):
            cell = runs[side][name]
            median, q1, q3 = _spread(cell["s"])
            share = (median - bare[side]) * 1e3
            shares[name, side] = share
            lines.append(
                f"{name:<14}{label:<8}{median * 1e3:>10.1f}{q1 * 1e3:>8.1f}{q3 * 1e3:>8.1f}"
                f"{share:>10.1f}{statistics.median(cell['mb']):>8.2f}"
            )
    lines.append("package share, change against parent:")
    for name in COMMANDS:
        if name != "pass" and shares[name, 0] > 0:
            change = shares[name, 1] / shares[name, 0] - 1
            lines.append(f"  {name:<14}{shares[name, 0]:.1f} -> {shares[name, 1]:.1f} ms ({change:+.0%})")
    lines.append("loaded (groupfair modules whose code ran, then fractions and logging if loaded):")
    for name in COMMANDS:
        if name != "pass":
            for side, label in enumerate(("parent", "change")):
                lines.append(f"  {name:<14}{label:<8}{runs[side][name]['loaded']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds: {args.rounds} is not a positive number of rounds")
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    print(report(checkouts, args.rounds, measure(checkouts, args.rounds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
