"""Benchmark of the bitraj library: four closed-loop workloads, one client.

Run from the repository root:

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

The workloads (``study``, ``export``, ``entries``, ``opensys``) are defined in
``workloads.py``.  This script is the parent: it starts each measured process
fresh, times its set-up from the moment it is started until it is ready for
its first timed op, and prints the result.  With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run, whose spans are also written to
``bench/out/``.  The line before the last is a JSON record of the run: input
digest, per-class breakdown, failures and machine metadata.

The library is imported from ``src/`` of the checkout; without it the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 5  # set-ups measured per untraced run; setup_s is their median
MIN_OPS = 100  # so that at least 10 ops lie beyond p90
HARD_LIMIT_S = 120.0  # a worker stops taking ops after this long, whatever --seconds says
RUN_TIMEOUT_S = 170.0  # the parent kills its workers and fails after this long
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BITRAJ_THREADS")
# numpy advises transparent huge pages for large arrays by default.  Whether
# the kernel can supply them depends on memory fragmentation across the
# machine, which made the study workload run 25% faster or slower from one run
# to the next; workers therefore run with the advice off.
WORKER_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["study", "export", "entries", "opensys"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--worker", choices=["setup", "run"], help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- parent -------------------------------------------------------------------


def _read_line(proc, deadline: float) -> bytes:
    """One line of the worker's unbuffered stdout, or b"" at the deadline."""
    line = b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            return b""
        byte = proc.stdout.read(1)
        if not byte:
            return line
        line += byte
    return line


def spawn(args, mode: str, deadline: float) -> tuple:
    """Start one worker; return (set-up seconds, its report or None).

    The worker is killed if it has not finished by ``deadline`` (monotonic).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0,
                            env=dict(os.environ, **WORKER_ENV))
    try:
        line = _read_line(proc, deadline)
        setup_s = time.perf_counter() - t0
        if line != b"ready\n":
            raise RuntimeError(f"worker was not ready (got {line!r})")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.decode().strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if mode == "run" else None)


def parent(args) -> int:
    if not (SRC / "bitraj" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(spawn(args, "setup", deadline)[0])
        setup_s, report = spawn(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = report.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        report["setup_s_samples"] = setups
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# -- worker -------------------------------------------------------------------


def _git_commit():
    """HEAD of the checkout, read from .git without running git (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "env": {v: os.environ.get(v) for v in THREAD_VARS + tuple(WORKER_ENV)},
    }


def _quantile(sorted_values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bitraj

    if not Path(bitraj.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported bitraj from {bitraj.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        classes, inputs, order, digest = workloads.build(args.workload, args.seed, workdir)
        for c, row in zip(classes, inputs):  # warm-up: one checked op per class
            problems = c.check(row[0], c.run(row[0], spans.untraced_call))
            if problems:
                print(f"bench: warm-up of {c.name} failed: {problems}", file=sys.stderr)
                return 1
        print("ready", flush=True)
        if args.worker == "setup":
            return 0
        report = measure(classes, inputs, order, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, inputs_digest=digest, meta=_metadata(np))
    print(json.dumps(report), flush=True)
    return 0


def measure(classes, inputs, order, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> dict:
    """The closed loop: one op at a time, each checked outside its timed interval.

    Runs for ``seconds`` and at least ``min_ops`` ops.  With a tracer, the
    metrics are the per-layer ones.
    """
    call = tracer.call if tracer else spans.untraced_call
    counts = [0] * len(classes)
    latencies = [[] for _ in classes]
    failures = []
    cpu = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        now = time.perf_counter()
        if now - start >= HARD_LIMIT_S or (k >= min_ops and now >= deadline):
            break
        i = order[k % len(order)]
        c = classes[i]
        x = inputs[i][counts[i] % len(inputs[i])]
        counts[i] += 1
        k += 1
        result, problems = None, []
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.op = k
                result = tracer.call(spans.OP_PREFIX + c.name, c.run, x, call)
            else:
                result = c.run(x, call)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        latencies[i].append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        if not problems:
            try:
                problems = c.check(x, result)
            except Exception as exc:  # a check that cannot run is a failed op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"op": k, "class": c.name, "problems": problems[:3]})

    flat = sorted(t for lat in latencies for t in lat)
    total = sum(flat)
    per_class = {c.name: {"ops": len(lat),
                          "p50_ms": _quantile(sorted(lat), 0.5) * 1e3 if lat else None,
                          "p90_ms": _quantile(sorted(lat), 0.9) * 1e3 if lat else None}
                 for c, lat in zip(classes, latencies)}
    if tracer:
        metrics = spans.layer_metrics(tracer)
        metrics["process.cpu_per_wall"] = (cpu / total, "ratio")
    else:
        metrics = {
            "throughput_ops_s": (len(flat) / total, "ops/s"),
            "latency_p50_ms": (_quantile(flat, 0.5) * 1e3, "ms"),
            "latency_p90_ms": (_quantile(flat, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "attempted": len(flat),
        "failed": len(failures),
        "failed_frac": len(failures) / len(flat),
        "ops_beyond_p90": sum(1 for t in flat if t > _quantile(flat, 0.9)),
        "classes": per_class,
        "failures": failures[:10],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    return worker(args) if args.worker else parent(args)


if __name__ == "__main__":
    sys.exit(main())
