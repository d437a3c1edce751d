"""``perf/ab.py`` runs end to end: one class, one round, the same tree on both sides."""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_on_the_same_tree_reports_byte_equal_results():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "ab.py"), str(ROOT), str(ROOT),
         "--classes", "rabi_entry_n10", "--rounds", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 10
    [row] = [line for line in proc.stdout.splitlines() if line.startswith("rabi_entry_n10")]
    assert row.split()[-1] == "byte-equal"
