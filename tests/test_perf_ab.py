"""``perf/ab.py`` runs end to end: one class, one round, on the same tree and on two that differ."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_ab(parent, change, cls):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "ab.py"), str(parent), str(change),
         "--classes", cls, "--rounds", "1"],
        capture_output=True, text=True, timeout=60)
    [row] = [line for line in proc.stdout.splitlines() if line.startswith(cls)]
    return proc, row


def test_ab_on_the_same_tree_reports_byte_equal_results():
    t0 = time.monotonic()
    proc, row = run_ab(ROOT, ROOT, "rabi_entry_n10")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 10
    assert row.split()[-1] == "byte-equal"


def test_ab_names_the_first_field_that_differs(tmp_path):
    # a study class on a copy of the tree whose Q1 witness reads differently
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    verify = tmp_path / "src" / "bitraj" / "verify.py"
    source = verify.read_text()
    assert source.count('"total sum"') == 1
    verify.write_text(source.replace('"total sum"', '"sum of the table"'))
    proc, row = run_ab(ROOT, tmp_path, "random_d8_n3")
    assert proc.returncode == 1, proc.stderr
    assert row.endswith("DIFFER at [0].report.checks[0].witness")
