"""A/B timing of the benchmark's op classes on two source trees, with a byte check of their results.

Run from anywhere, naming two checkouts that each hold ``src/bitraj`` and
``bench/workloads.py``:

    python3 perf/ab.py PARENT_TREE CHANGE_TREE --classes entries,rabi_512 --rounds 5

``--classes`` takes op class names and workload names (a workload stands for
all of its classes); it defaults to every class of ``entries`` and
``opensys``.  Each round starts one fresh worker process per tree, the parent
tree first in even rounds and the change tree first in odd ones.  A worker
imports the library and the workloads of its own tree, draws each class's
``POOL`` inputs from a fixed seed, runs and checks one op per input, and then
times ``PASSES`` more passes over them, one op at a time.  It hashes every
result by value: arrays by dtype, shape and bytes, containers and dataclass
fields in order.

The report gives each class's min and median op time per tree over all
rounds, and the tree whose median won each round.  The exit code is 1 if a
class's results differ in bytes between the trees (or between rounds), if a
check fails or if a worker fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

SEED = 20260  # the inputs of class c come from default_rng([SEED, crc32(c)])
PASSES = 5  # timed passes over a class's inputs per worker
DEFAULT_CLASSES = "entries,opensys"
WORKER_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}  # as the benchmark's own workers run
WORKER_TIMEOUT_S = 600.0  # a worker still running after this long has hung


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent source tree")
    p.add_argument("change", type=Path, help="the changed source tree")
    p.add_argument("--classes", default=DEFAULT_CLASSES, help="comma-separated op classes or workloads")
    p.add_argument("--rounds", type=int, default=5, help="worker pairs to run (default 5)")
    return p.parse_args(argv)


# -- worker -------------------------------------------------------------------


def _feed(h, x) -> None:
    """Hash ``x`` by value into ``h``; a value of any other kind raises TypeError."""
    if isinstance(x, np.ndarray):
        h.update(f"array {x.dtype.str} {x.shape}|".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (float, complex, np.generic)):
        _feed(h, np.asarray(x))
    elif x is None or isinstance(x, (bool, int, str)):
        h.update(f"{type(x).__name__} {x!r}|".encode())
    elif isinstance(x, dict):
        h.update(f"dict {len(x)}|".encode())
        for k in sorted(x):
            _feed(h, k)
            _feed(h, x[k])
    elif isinstance(x, (list, tuple)):
        h.update(f"{type(x).__name__} {len(x)}|".encode())
        for v in x:
            _feed(h, v)
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__}|".encode())
        for f in dataclasses.fields(x):
            _feed(h, getattr(x, f.name))
    else:
        raise TypeError(f"cannot hash a {type(x).__name__} by value")


def _op_classes(workloads, names: str) -> list:
    by_name = {c.name: c for classes in workloads.WORKLOADS.values() for c in classes}
    out = []
    for name in names.split(","):
        if name in workloads.WORKLOADS:
            picked = workloads.WORKLOADS[name]
        elif name in by_name:
            picked = (by_name[name],)
        else:
            raise SystemExit(f"ab: no op class or workload named {name!r}")
        out += [c for c in picked if c not in out]
    return out


def worker(tree: Path, names: str) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import bitraj
    import workloads

    if not Path(bitraj.__file__).resolve().is_relative_to(tree / "src"):
        print(f"ab: imported bitraj from {bitraj.__file__}, not {tree / 'src'}", file=sys.stderr)
        return 2

    def call(_name, fn, *args):
        return fn(*args)

    report = {}
    with tempfile.TemporaryDirectory(prefix="bitraj-ab-") as tmp:
        for c in _op_classes(workloads, names):
            rng = np.random.default_rng([SEED, zlib.crc32(c.name.encode())])
            params = [c.draw(rng) for _ in range(workloads.POOL)]
            inputs = []
            for j, p in enumerate(params):
                workdir = Path(tmp, c.name, str(j))
                workdir.mkdir(parents=True)
                inputs.append(c.prepare(p, workdir))
            h, problems, ms = hashlib.sha256(), [], []
            for x in inputs:
                result = c.run(x, call)
                problems += c.check(x, result)
                _feed(h, result)
            for _ in range(PASSES):
                for x in inputs:
                    t0 = time.perf_counter_ns()
                    result = c.run(x, call)
                    ms.append((time.perf_counter_ns() - t0) / 1e6)
                    _feed(h, result)
            report[c.name] = {"ms": ms, "digest": h.hexdigest(), "problems": problems}
    print(json.dumps(report))
    return 0


# -- parent -------------------------------------------------------------------


def _run_worker(tree: Path, names: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), names]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ, **WORKER_ENV), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args) -> int:
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "bitraj" / "__init__.py").is_file() or not (tree / "bench" / "workloads.py").is_file():
            print(f"ab: {tree} holds no src/bitraj or bench/workloads.py", file=sys.stderr)
            return 2
    runs = {label: [] for label in trees}  # one report per round
    try:
        for r in range(args.rounds):
            for label in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                runs[label].append(_run_worker(trees[label], args.classes))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    faults = 0
    print(f"{'class':<22} {'tree':<7} {'min ms':>9} {'median ms':>10}  round winners  results")
    for name in runs["parent"][0]:
        digests = {rep[name]["digest"] for label in trees for rep in runs[label]}
        problems = [p for label in trees for rep in runs[label] for p in rep[name]["problems"]]
        verdict = "byte-equal" if len(digests) == 1 else "DIFFER"
        if problems:
            verdict += f"; check failed: {problems[0]}"
        faults += len(digests) > 1 or bool(problems)
        medians = [(statistics.median(p[name]["ms"]), statistics.median(c[name]["ms"]))
                   for p, c in zip(runs["parent"], runs["change"])]
        winners = "".join("P" if p < c else "C" if c < p else "=" for p, c in medians)
        for label in trees:
            ms = [t for rep in runs[label] for t in rep[name]["ms"]]
            tail = f"  {winners:<13}  {verdict}" if label == "parent" else ""
            print(f"{name if label == 'parent' else '':<22} {label:<7} {min(ms):>9.4f} {statistics.median(ms):>10.4f}{tail}")
    print("round winners: P = parent, C = change, = a tie, by the round's median op time")
    return 1 if faults else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker(Path(argv[1]), argv[2])
    args = parse_args(argv)
    if args.rounds < 1:
        print("ab: --rounds must be at least 1", file=sys.stderr)
        return 2
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
