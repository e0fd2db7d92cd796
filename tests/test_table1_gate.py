"""Table I, end to end, against the pinned full run.

Runs ``examples/table1_reproduction.py`` with the paper's protocol
(20 trials per circuit, 300 samples, seed 0) in a fresh process and
checks its output against ``table1_full_run.txt``: the success table
byte for byte, the per-circuit pattern and suspect means and trial
counts, and every qualitative shape check.  Wall-clock columns are not
compared.  A change that alters a diagnosis on purpose re-pins the file.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "table1_full_run.txt"

#: ``  s1196: patterns 8.0, suspects 51, trials 20, 5.4s`` minus the time.
CONTEXT = re.compile(
    r"^\s+(\S+): patterns ([\d.]+), suspects (\d+), trials (\d+), [\d.]+s$"
)
SHAPE = re.compile(r"^\s+(\w+): (PASS|FAIL)$")


def _parts(text):
    """(success table lines, per-circuit context, shape checks)."""
    lines = text.splitlines()
    end = lines.index("")
    table = lines[:end]
    context = [m.groups() for m in map(CONTEXT.match, lines) if m]
    shapes = [m.groups() for m in map(SHAPE.match, lines) if m]
    return table, context, shapes


@pytest.mark.slow
def test_table1_matches_pinned_run():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "table1_reproduction.py"),
         "--trials", "20", "--samples", "300", "--seed", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800,
        check=True,
    )
    table, context, shapes = _parts(run.stdout)
    pinned_table, pinned_context, pinned_shapes = _parts(PINNED.read_text())
    assert table == pinned_table
    assert context == pinned_context
    assert [name for name, *_ in context] == list(dict.fromkeys(
        row.split()[0] for row in table[2:]
    ))
    assert shapes == pinned_shapes
    assert shapes and all(verdict == "PASS" for _name, verdict in shapes)
