"""tools/cold_start.py: one round on this checkout against itself."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "cold_start.py")


def test_one_round_against_itself():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--rounds", "1"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("pass", "import", "search", "solve-binary", "kneser"):
        for side in ("parent", "change"):
            assert any(line.split()[:2] == [name, side] for line in lines), (name, side)
    assert any(line.startswith("loaded") for line in lines)
