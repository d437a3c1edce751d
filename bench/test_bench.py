"""Self-test of the benchmark.

Every metric named in BENCHMARK.json is emitted with its unit, and the
correctness gate counts a corrupted result (one entry perturbed by 1e-9) as
a failed op.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
PERTURBATION = 1e-9


def _one_round(classes) -> int:
    return sum(c.weight for c in classes)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    classes, inputs, order, _ = workloads.build(workload, 3, tmp_path)
    plain = run.measure(classes, inputs, order, 0.0, min_ops=_one_round(classes))
    traced = run.measure(classes, inputs, order, 0.0, spans.Tracer(), min_ops=_one_round(classes))
    assert plain["failed"] == 0 and traced["failed"] == 0, plain["failures"] + traced["failures"]
    # setup_s is measured by the parent process, around the worker.
    expected = {name: UNITS[name] for name in END_TO_END if name != "setup_s"}
    assert {k: u for k, (v, u) in plain["metrics"].items()} == expected
    assert {k: u for k, (v, u) in traced["metrics"].items()} == {n: UNITS[n] for n in PER_LAYER}


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def digest(seed, subdir):
        return workloads.build("entries", seed, tmp_path / subdir)[3]

    assert digest(1, "a") == digest(1, "b") != digest(2, "c")


def _command(tmp_cwd: Path, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", "entries", "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=tmp_cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    out = _command(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: UNITS[n] for n in names}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    out = _command(tmp_path, 0)
    assert out.returncode != 0
    assert out.stdout == ""


def _perturbed(table, index):
    table = table.copy()
    table[tuple(index)] += PERTURBATION
    return table


def _corrupt_study(x, r):
    index = workloads.checked_entries(x, r["dist"])[0]
    return dict(r, dist=dataclasses.replace(r["dist"], table=_perturbed(r["dist"].table, index)))


def _corrupt_export(x, r):
    first = [0] * r["dist"].table.ndim
    return dict(r, dist=dataclasses.replace(r["dist"], table=_perturbed(r["dist"].table, first)))


def _corrupt_entries(x, r):
    return dict(r, default=r["default"] + PERTURBATION)


def _corrupt_opensys(x, superop):
    return dataclasses.replace(superop, matrix=_perturbed(superop.matrix, (0, 0)))


CORRUPT = {
    "study": ("rabi_n9", _corrupt_study),
    "export": ("rabi_n6", _corrupt_export),
    "entries": ("rabi_entry_n10", _corrupt_entries),
    "opensys": ("rabi_128", _corrupt_opensys),
}


@pytest.mark.parametrize("workload", list(CORRUPT))
def test_gate_counts_a_corrupted_result_as_failed(workload, tmp_path):
    name, corrupt = CORRUPT[workload]
    classes, inputs, _, _ = workloads.build(workload, 3, tmp_path)
    i = [c.name for c in classes].index(name)
    c = classes[i]

    def corrupted_run(x, call):
        return corrupt(x, c.run(x, call))

    bad = dataclasses.replace(c, run=corrupted_run)
    good = run.measure([c], [inputs[i]], [0], 0.0, min_ops=2)
    assert good["failed"] == 0, good["failures"]
    report = run.measure([bad], [inputs[i]], [0], 0.0, min_ops=2)
    assert report["attempted"] == 2 and report["failed"] == 2
