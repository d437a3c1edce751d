"""Spans around the benchmark's calls into the library, for traced runs.

A span records name, start, end, parent span and op id.  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover; calls made from one op are
children of that op's span, so an op span's self time is the part of the op
that no library call covers.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# (name, work) hooks: how much work a call did, read from its arguments and
# result.  Entries for tables, steps for bi-trajectory maps, bytes written.
WORK = {
    "biprob.full_distribution": lambda args, result: result.table.size,
    "opensys.bitrajectory_map": lambda args, result: args[2],
    "export.write": lambda args, result: result,
}

# Every call the workloads time, as <module>.<function>.
CALLS = (
    "model.build",
    "propagate.propagator",
    "propagate.heisenberg_projector",
    "biprob.full_distribution",
    "biprob.eval_biprob",
    "biprob.diagonal_probability",
    "biprob.to_json_dict",
    "biprob.to_csv_rows",
    "verify.check_properties",
    "verify.inconsistency_decomposition",
    "bounds.l1_norm",
    "bounds.uniform_bound",
    "multiobs.multiobs_distribution",
    "multiobs.eval_multiobs",
    "multiobs.decompose_multiobs",
    "comb.comb_biprob",
    "cli.run",
    "opensys.bitrajectory_map",
    "opensys.convergence_study",
    "export.write",
)

FIELDS = ("name", "start", "end", "parent", "op", "work")
OP_PREFIX = "op."  # span names of whole ops; every other span is a call


def untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Collects spans in memory; ``call`` has the signature of ``untraced_call``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, work]
        self._stack = []
        self.op = -1

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        hook = WORK.get(name)
        if hook is not None:
            span[5] = hook(args, result)
        return result

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def write(self, path, header: dict) -> None:
        doc = dict(header, fields=list(FIELDS) + ["self"],
                   spans=[s + [t] for s, t in zip(self.spans, self.self_times())])
        path.write_text(json.dumps(doc), encoding="utf-8")


def span_overhead_s(samples: int = 20000) -> float:
    """Seconds a traced call adds over an untraced one, measured here."""
    def noop():
        return None

    def per_call(call):
        t0 = time.perf_counter()
        for _ in range(samples):
            call("calibration", noop)
        return (time.perf_counter() - t0) / samples

    tracer = Tracer()
    traced = statistics.median(per_call(tracer.call) for _ in range(5))
    plain = statistics.median(per_call(untraced_call) for _ in range(5))
    return traced - plain


def layer_metrics(tracer: Tracer) -> dict:
    """Per-call ms_p50 and share of op wall time, plus derived layer rates.

    A call the workload never makes reports 0 for both.
    """
    selfs = tracer.self_times()
    op_wall = 0.0
    uncovered = 0.0
    by_name = defaultdict(list)
    work = defaultdict(list)
    write_ops = {}
    spans = tracer.spans
    for s, t in zip(spans, selfs):
        name, start, end, parent, op, units = s
        if name.startswith(OP_PREFIX):
            op_wall += end - start
            uncovered += t
            continue
        by_name[name].append(t)
        if units is not None:
            work[name].append(units)
        if name == "export.write":
            write_ops[parent] = spans[parent][2] - spans[parent][1]

    out = {}
    for name in CALLS:
        times = by_name.get(name, [])
        out[f"{name}.ms_p50"] = (statistics.median(times) * 1e3, "ms") if times else (0.0, "ms")
        out[f"{name}.share"] = (sum(times) / op_wall if op_wall else 0.0, "fraction")

    def rate(name):
        busy = sum(by_name.get(name, []))
        return sum(work.get(name, [])) / busy if busy else 0.0

    entries = work.get("biprob.full_distribution", [])
    written = work.get("export.write", [])
    out["biprob.entries_per_s"] = (rate("biprob.full_distribution"), "1/s")
    out["biprob.table_mb"] = (16 * statistics.mean(entries) / 1e6 if entries else 0.0, "MB")
    out["export.bytes_per_op"] = (statistics.mean(written) if written else 0.0, "B")
    write_wall = sum(write_ops.values())
    out["export.mb_s"] = (sum(written) / 1e6 / write_wall if write_wall else 0.0, "MB/s")
    out["opensys.steps_per_s"] = (rate("opensys.bitrajectory_map"), "1/s")
    out["trace.uncovered_frac"] = (uncovered / op_wall if op_wall else 0.0, "fraction")
    overhead = len(spans) * span_overhead_s()
    out["trace.overhead_frac"] = (overhead / op_wall if op_wall else 0.0, "fraction")
    return out
