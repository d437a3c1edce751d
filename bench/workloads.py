"""The four closed-loop workloads of the bitraj benchmark.

Each workload is a weighted mix of op classes.  An op class draws its
parameters from the workload seed, prepares its inputs during set-up, runs
one timed op through the library's public calls, and checks the op's result
outside the timed interval.  Every library call goes through ``call(name, fn,
*args)`` so that a traced run can time it from outside.

Why these workloads (each stresses layers the others leave idle):

- ``study``: the ``bitraj verify`` / ``bitraj bound`` flow.  Scenario
  construction, table enumeration, the property battery (SVD, eigvalsh,
  n+1 reduced-grid re-enumerations) and time-dependent propagation do most
  of the work; export and opensys do none.
- ``export``: the ``bitraj dist`` flow on small tables.  JSON/CSV
  serialisation is over 90% of an op here and absent from ``study``; export
  cost is linear in the entry count, so small tables take the same path as
  large ones.
- ``entries``: point queries with no table.  Per-call costs dominate: a fresh
  propagator cache per call, unitarity checks, per-slot eigendecompositions
  on the amplitude path.
- ``opensys``: the ``bitraj opensys`` flow.  The per-step k^2 kron loop and
  the from-zero propagation at every step do all their work here.

Class weights are chosen so that the p50 and p90 of each mixed workload fall
inside one class rather than on the boundary between two classes of
different cost.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bitraj
from bitraj import cli
from bitraj.model import PAULI_X, PAULI_Z

POOL = 8  # parameter sets drawn per class; a run cycles through them
ROUNDS = 4096  # op-order rounds generated per seed; a run cycles through them
TOL = 1e-12  # agreement required between independent evaluations
TOL_TRACE_PRESERVATION = 1e-10

_EYE2 = np.eye(2)
SIGMA_Z = bitraj.ObservablePVM.pauli_z()
SIGMA_X = bitraj.ObservablePVM((1.0, -1.0), (0.5 * (_EYE2 + PAULI_X), 0.5 * (_EYE2 - PAULI_X)))


@dataclass(frozen=True)
class OpClass:
    """One kind of op in a workload.

    ``draw(rng)`` returns JSON-able parameters; ``prepare(params, workdir)``
    builds the op's inputs during set-up, given a directory of their own for
    any files; ``run(inputs, call)`` is the timed op; ``check(inputs,
    result)`` returns a list of problems, empty when the result is correct.
    """

    name: str
    weight: int
    draw: Callable
    prepare: Callable
    run: Callable
    check: Callable


def _times(rng, n: int, hi: float, lo: float = 0.0) -> list:
    """n grid times drawn uniformly in (lo, hi), then sorted."""
    return [float(t) for t in np.sort(rng.uniform(lo, hi, n))]


def _diagonal_free_index(rng, sizes_latest_first: tuple) -> list:
    """A random table index whose latest-slot plus and minus outcomes agree.

    Entries with f+_n != f-_n vanish by causality, so checking them says
    little; this picks one that is generically nonzero.
    """
    idx = [int(rng.integers(k)) for k in sizes_latest_first * 2]
    idx[len(sizes_latest_first)] = idx[0]
    return idx


def _outcome_at(outcome_sets: tuple, idx) -> bitraj.BiOutcome:
    """BiOutcome of a table index (latest-first plus block, then minus)."""
    n = len(outcome_sets)
    rev = outcome_sets[::-1]
    plus = tuple(rev[a][idx[a]] for a in range(n))
    minus = tuple(rev[a][idx[n + a]] for a in range(n))
    return bitraj.BiOutcome(plus, minus)


def _close(a, b, tol: float = TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


def _schedule_fn(omega: float, amp: float, nu: float):
    """Smooth qubit drive H(t) = omega/2 X + amp/2 cos(nu t) Z."""
    def h(t):
        return 0.5 * omega * PAULI_X + 0.5 * amp * math.cos(nu * t) * PAULI_Z
    return h


def _driven_qubit(p: dict, horizon: float, segments: int) -> bitraj.QuantumScenario:
    schedule = bitraj.HamiltonianSchedule.from_function(
        _schedule_fn(p["omega"], p["amp"], p["nu"]), horizon, segments=segments
    )
    return bitraj.QuantumScenario(2, schedule, bitraj.DensityOperator.pure([1.0, 0.0]), SIGMA_Z)


def _drive_params(rng) -> dict:
    return {
        "omega": float(rng.uniform(0.5, 2.0)),
        "amp": float(rng.uniform(0.2, 1.0)),
        "nu": float(rng.uniform(0.5, 2.0)),
    }


def _keep(params, workdir):
    return params


# -- study ------------------------------------------------------------------


def checked_entries(p: dict, dist) -> list:
    """The seeded handful of table indices a study op's check re-evaluates."""
    rng = np.random.default_rng(p["check_seed"])
    return [_diagonal_free_index(rng, dist.sizes[::-1]) for _ in range(2)]


def _study_class(name: str, weight: int, n: int, hi: float, draw_model, build) -> OpClass:
    def draw(rng):
        p = draw_model(rng)
        p["times"] = _times(rng, n, hi)
        p["check_seed"] = int(rng.integers(2**31))
        return p

    def run(p, call):
        scenario = call("model.build", build, p)
        grid = bitraj.TimeGrid(tuple(p["times"]))
        dist = call("biprob.full_distribution", bitraj.full_distribution, scenario, grid)
        report = call("verify.check_properties", bitraj.check_properties, dist)
        l1 = call("bounds.l1_norm", bitraj.l1_norm, dist)
        bound = call("bounds.uniform_bound", bitraj.uniform_bound, scenario, grid.times[-1])
        return {"scenario": scenario, "grid": grid, "dist": dist, "report": report,
                "l1": l1, "bound": bound}

    def check(p, r):
        problems = []
        if not r["report"].all_pass:
            failed = [c.name for c in r["report"].checks if not c.passed]
            problems.append(f"property battery failed: {failed}")
        if not 1.0 - TOL <= r["l1"] <= r["bound"] * (1.0 + TOL):
            problems.append(f"l1 norm {r['l1']} outside [1, {r['bound']}]")
        dist = r["dist"]
        for idx in checked_entries(p, dist):
            outcome = _outcome_at(dist.outcome_sets, idx)
            got = dist.table[tuple(idx)]
            comb = bitraj.comb_biprob(r["scenario"], r["grid"], outcome)
            trace = bitraj.eval_biprob(r["scenario"], r["grid"], outcome, method="trace")
            if not (_close(got, comb) and _close(got, trace)):
                problems.append(f"entry {idx}: table {got}, comb {comb}, trace {trace}")
        return problems

    return OpClass(name, weight, draw, _keep, run, check)


def _rabi_params(rng):
    return {"omega": float(rng.uniform(0.5, 2.0))}


def _random_params(rng):
    return {"scenario_seed": int(rng.integers(2**31))}


# Costs on a 2-core box: rabi_n9 130 ms, driven 150-220 ms (it depends on the
# drawn times), random_d8_n3 205 ms, random_d3_n6 227 ms.  p50 falls inside
# rabi_n9 and p90 inside random_d3_n6.
STUDY = (
    _study_class("rabi_n9", 6, 9, 10.0, _rabi_params,
                 lambda p: bitraj.rabi_scenario(p["omega"])),
    _study_class("random_d8_n3", 1, 3, 5.0, _random_params,
                 lambda p: bitraj.random_scenario(8, p["scenario_seed"])),
    _study_class("random_d3_n6", 2, 6, 5.0, _random_params,
                 lambda p: bitraj.random_scenario(3, p["scenario_seed"])),
    _study_class("driven_640seg_n8", 1, 8, 10.0, _drive_params,
                 lambda p: _driven_qubit(p, 10.0, 640)),
)


# -- export -----------------------------------------------------------------


def _expected_outcomes(dist) -> tuple:
    """(plus, minus) outcome arrays of shape (entries, n), in table order."""
    n = dist.n
    rev = dist.outcome_sets[::-1]
    idx = np.unravel_index(np.arange(dist.table.size), dist.table.shape)
    plus = np.stack([np.asarray(rev[a])[idx[a]] for a in range(n)], axis=1)
    minus = np.stack([np.asarray(rev[a])[idx[n + a]] for a in range(n)], axis=1)
    return plus, minus


def _consume(path: Path) -> str:
    """Read a file the op wrote, then delete it.

    The next op then writes a new file instead of truncating this one, which
    on ext4 forces a flush and stalls the write by a few hundred ms.
    """
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def check_json_export(path: Path, dist) -> list:
    """Problems found when the written JSON is parsed back against ``dist``."""
    doc = json.loads(_consume(path))
    entries = doc["entries"]
    table = dist.table.reshape(-1)
    plus, minus = _expected_outcomes(dist)
    problems = []
    if doc["times"] != list(dist.grid.times):
        problems.append("JSON times differ")
    if len(entries) != table.size:
        return problems + [f"JSON holds {len(entries)} entries, table {table.size}"]
    re = np.array([e["re"] for e in entries])
    im = np.array([e["im"] for e in entries])
    if not (np.array_equal(re, table.real) and np.array_equal(im, table.imag)):
        problems.append("JSON values differ from the table")
    if not (np.array_equal(np.array([e["plus"] for e in entries]), plus)
            and np.array_equal(np.array([e["minus"] for e in entries]), minus)):
        problems.append("JSON outcomes differ from the table")
    return problems


def check_csv_export(path: Path, dist) -> list:
    """Problems found when the written CSV is parsed back against ``dist``."""
    rows = list(csv.reader(_consume(path).splitlines()))
    table = dist.table.reshape(-1)
    if rows[0] != ["plus", "minus", "re", "im"] or len(rows) - 1 != table.size:
        return ["CSV header or row count differs"]
    body = rows[1:]
    plus, minus = _expected_outcomes(dist)
    problems = []
    re = np.array([float(r[2]) for r in body])
    im = np.array([float(r[3]) for r in body])
    if not (np.array_equal(re, table.real) and np.array_equal(im, table.imag)):
        problems.append("CSV values differ from the table")
    got_plus = np.array([[float(x) for x in r[0].split()] for r in body])
    got_minus = np.array([[float(x) for x in r[1].split()] for r in body])
    if not (np.array_equal(got_plus, plus) and np.array_equal(got_minus, minus)):
        problems.append("CSV outcomes differ from the table")
    return problems


def _write_export(doc: dict, rows: list, json_path: Path, csv_path: Path) -> int:
    text = json.dumps(doc, indent=2)
    json_path.write_text(text, encoding="utf-8")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return json_path.stat().st_size + csv_path.stat().st_size


def _export_class(name: str, weight: int, n: int, draw_model, build, table_fn) -> OpClass:
    def draw(rng):
        p = draw_model(rng)
        p["times"] = _times(rng, n, 5.0)
        return p

    def prepare(p, workdir):
        return {"scenario": build(p), "grid": bitraj.TimeGrid(tuple(p["times"])),
                "json": workdir / "table.json", "csv": workdir / "table.csv"}

    def run(x, call):
        dist = call(table_fn[0], table_fn[1], x["scenario"], x["grid"])
        doc = call("biprob.to_json_dict", dist.to_json_dict)
        rows = call("biprob.to_csv_rows", lambda: list(dist.to_csv_rows()))
        nbytes = call("export.write", _write_export, doc, rows, x["json"], x["csv"])
        return {"dist": dist, "bytes": nbytes}

    def check(x, r):
        return check_json_export(x["json"], r["dist"]) + check_csv_export(x["csv"], r["dist"])

    return OpClass(name, weight, draw, prepare, run, check)


def _alternating(n: int) -> bitraj.ObservableSequence:
    return bitraj.ObservableSequence(tuple(SIGMA_Z if j % 2 == 0 else SIGMA_X for j in range(n)))


_FULL = ("biprob.full_distribution", bitraj.full_distribution)
_SEQ6 = _alternating(6)
_MULTI6 = ("multiobs.multiobs_distribution",
           lambda s, g: bitraj.multiobs_distribution(s, g, _SEQ6))


def _rabi_config(omega: float) -> dict:
    return {
        "dimension": 2,
        "hamiltonian": {"type": "preset", "name": "rabi", "omega": omega},
        "initial_state": {"type": "pure", "vector": [[1, 0], [0, 0]]},
        "observable": {"type": "pauli_z"},
    }


def _cli_draw(rng):
    return {"omega": float(rng.uniform(0.5, 2.0)), "times": _times(rng, 6, 5.0)}


def _cli_prepare(p, workdir):
    config = workdir / "config.json"
    config.write_text(json.dumps(_rabi_config(p["omega"])), encoding="utf-8")
    out = workdir / "table.json"
    argv = ["dist", "--config", str(config), "--times", ",".join(repr(t) for t in p["times"]),
            "--output", str(out)]
    return {"argv": argv, "out": out, "config": config, "times": p["times"]}


def _cli_run(x, call):
    return call("cli.run", cli.run, x["argv"])


def _cli_check(x, code):
    if code != 0:
        return [f"bitraj dist exited {code}"]
    manifest = json.loads(_consume(Path(str(x["out"]) + ".manifest.json")))
    problems = [] if manifest["command"] == "dist" else ["manifest records the wrong command"]
    scenario = cli.load_config(str(x["config"]))
    dist = bitraj.full_distribution(scenario, bitraj.TimeGrid(tuple(x["times"])))
    return problems + check_json_export(x["out"], dist)


EXPORT = (
    _export_class("random_d4_n3", 2, 3, _random_params,
                  lambda p: bitraj.random_scenario(4, p["scenario_seed"]), _FULL),
    _export_class("multiobs_n6", 2, 6, _rabi_params,
                  lambda p: bitraj.rabi_scenario(p["omega"]), _MULTI6),
    _export_class("rabi_n6", 2, 6, _rabi_params,
                  lambda p: bitraj.rabi_scenario(p["omega"]), _FULL),
    _export_class("random_d3_n4", 2, 4, _random_params,
                  lambda p: bitraj.random_scenario(3, p["scenario_seed"]), _FULL),
    OpClass("cli_dist_n6", 2, _cli_draw, _cli_prepare, _cli_run, _cli_check),
)


# -- entries ----------------------------------------------------------------


def _rabi_entry_draw(rng):
    idx = _diagonal_free_index(rng, (2,) * 10)
    return {"omega": float(rng.uniform(0.5, 2.0)), "times": _times(rng, 10, 10.0), "index": idx}


def _rabi_entry_prepare(p, workdir):
    scenario = bitraj.rabi_scenario(p["omega"])
    outcome = _outcome_at((scenario.pvm.outcomes,) * 10, p["index"])
    return {"scenario": scenario, "grid": bitraj.TimeGrid(tuple(p["times"])), "outcome": outcome}


def _rabi_entry_run(x, call):
    s, g, o = x["scenario"], x["grid"], x["outcome"]
    return {"default": call("biprob.eval_biprob", bitraj.eval_biprob, s, g, o),
            "comb": call("comb.comb_biprob", bitraj.comb_biprob, s, g, o)}


def _rabi_entry_check(x, r):
    trace = bitraj.eval_biprob(x["scenario"], x["grid"], x["outcome"], method="trace")
    if _close(r["default"], trace) and _close(r["comb"], trace):
        return []
    return [f"default {r['default']}, comb {r['comb']}, trace {trace} disagree"]


def _incons_draw(rng):
    return {"scenario_seed": int(rng.integers(2**31)), "times": _times(rng, 4, 5.0),
            "outcomes": [float(f) for f in rng.integers(3, size=4)],
            "position": int(rng.integers(1, 5))}


def _incons_prepare(p, workdir):
    return {"scenario": bitraj.random_scenario(3, p["scenario_seed"]),
            "grid": bitraj.TimeGrid(tuple(p["times"])), "outcomes": tuple(p["outcomes"]),
            "position": p["position"]}


def _incons_run(x, call):
    s, g, f = x["scenario"], x["grid"], x["outcomes"]
    return {"p": call("biprob.diagonal_probability", bitraj.diagonal_probability, s, g, f),
            "record": call("verify.inconsistency_decomposition",
                           bitraj.inconsistency_decomposition, s, g, f, x["position"])}


def _incons_check(x, r):
    problems = []
    rec = r["record"]
    if not _close(rec.lhs, rec.offdiag_sum.real):
        problems.append(f"inconsistency lhs {rec.lhs} != Re offdiag {rec.offdiag_sum}")
    diag = bitraj.BiOutcome(x["outcomes"], x["outcomes"])
    trace = bitraj.eval_biprob(x["scenario"], x["grid"], diag, method="trace")
    if not _close(r["p"], trace.real):
        problems.append(f"diagonal probability {r['p']} != trace {trace}")
    return problems


def _curve_draw(rng):
    return {"omega": float(rng.uniform(0.5, 2.0)), "tmax": float(rng.uniform(math.pi / 2, 2 * math.pi))}


def _curve_prepare(p, workdir):
    return {"scenario": bitraj.rabi_scenario(p["omega"]), "omega": p["omega"],
            "times": [p["tmax"] * k / 16 for k in range(1, 17)]}


_UP = bitraj.BiOutcome((1.0,), (1.0,))
_DOWN = bitraj.BiOutcome((-1.0,), (-1.0,))


def _curve_run(x, call):
    s = x["scenario"]
    out = []
    for t in x["times"]:
        grid = bitraj.TimeGrid((t,))
        out.append((call("biprob.eval_biprob", bitraj.eval_biprob, s, grid, _UP),
                    call("biprob.eval_biprob", bitraj.eval_biprob, s, grid, _DOWN)))
    return out


def _curve_check(x, r):
    # Rabi precession from |0>: P(+1, t) = cos^2(omega t / 2).
    up = np.array([math.cos(0.5 * x["omega"] * t) ** 2 for t in x["times"]])
    got = np.array(r)
    if _close(got[:, 0], up) and _close(got[:, 1], 1.0 - up):
        return []
    return ["Rabi curve differs from cos^2(omega t / 2)"]


def _prop_draw(rng):
    # Times in (0.5, 1) keep the segments propagated per op within about 7%
    # of each other, so this class's latency does not depend on the draw.
    p = _drive_params(rng)
    p["times"] = _times(rng, 8, 1.0, lo=0.5)
    p["outcome"] = float(rng.choice([1.0, -1.0]))
    return p


def _prop_prepare(p, workdir):
    return {"scenario": _driven_qubit(p, 1.0, 48), "times": p["times"], "outcome": p["outcome"]}


def _prop_run(x, call):
    s = x["scenario"]
    return [(call("propagate.propagator", bitraj.propagator, s.schedule, 0.0, t),
             call("propagate.heisenberg_projector", bitraj.heisenberg_projector, s, x["outcome"], t))
            for t in x["times"]]


def _prop_check(x, r):
    p0 = x["scenario"].pvm.projector(x["outcome"])
    for u, p in r:
        m = u.matrix
        if not (_close(m.conj().T @ m, _EYE2) and _close(p, m.conj().T @ p0 @ m)
                and _close(p @ p, p)):
            return [f"propagator or Heisenberg projector inconsistent at t={u.t_to}"]
    return []


def _multiobs_draw(rng):
    return {"omega": float(rng.uniform(0.5, 2.0)), "times": _times(rng, 8, 5.0),
            "index": _diagonal_free_index(rng, (2,) * 8)}


def _multiobs_prepare(p, workdir):
    seq = _alternating(8)
    outcome = _outcome_at(tuple(pvm.outcomes for pvm in seq.pvms), p["index"])
    return {"scenario": bitraj.rabi_scenario(p["omega"]), "grid": bitraj.TimeGrid(tuple(p["times"])),
            "seq": seq, "outcome": outcome}


def _multiobs_run(x, call):
    args = (x["scenario"], x["grid"], x["seq"], x["outcome"])
    return {"value": call("multiobs.eval_multiobs", bitraj.eval_multiobs, *args),
            "record": call("multiobs.decompose_multiobs", bitraj.decompose_multiobs, *args)}


def _multiobs_check(x, r):
    rec = r["record"]
    if _close(rec.direct, rec.reconstructed) and _close(r["value"], rec.direct):
        return []
    return [f"multiobs {r['value']}, direct {rec.direct}, reconstructed {rec.reconstructed}"]


# Costs: rabi_entry 0.9 ms, multiobs_entry 1.0 ms, curve 1.8 ms, inconsistency
# 2.6 ms, propagate 5 ms.  p50 falls mid-curve and p90 inside propagate.
ENTRIES = (
    OpClass("rabi_entry_n10", 2, _rabi_entry_draw, _rabi_entry_prepare, _rabi_entry_run, _rabi_entry_check),
    OpClass("multiobs_entry_n8", 3, _multiobs_draw, _multiobs_prepare, _multiobs_run, _multiobs_check),
    OpClass("rabi_curve16", 5, _curve_draw, _curve_prepare, _curve_run, _curve_check),
    OpClass("inconsistency_d3_n4", 2, _incons_draw, _incons_prepare, _incons_run, _incons_check),
    OpClass("propagate_48seg_8t", 4, _prop_draw, _prop_prepare, _prop_run, _prop_check),
)


# -- opensys ----------------------------------------------------------------


def _system_params(rng) -> dict:
    return {"gap": float(rng.uniform(0.5, 1.5)), "coupling": float(rng.uniform(0.2, 0.8)),
            "t": float(rng.uniform(1.0, 3.0))}


def _open_model(p: dict, environment) -> bitraj.OpenModel:
    return bitraj.OpenModel(
        h_sys=np.diag([0.5 * p["gap"], -0.5 * p["gap"]]).astype(complex),
        v_sys=PAULI_X.astype(complex),
        coupling=p["coupling"],
        environment=environment,
    )


def _check_steps(model) -> int:
    """Largest step count whose trajectory-pair table stays at 4096 entries."""
    k2 = model.environment.pvm.size ** 2
    steps = 1
    while k2 ** (steps + 1) <= 4096 and steps < 6:
        steps += 1
    return steps


def _check_contract(model, t: float) -> list:
    steps = _check_steps(model)
    contract = bitraj.bitrajectory_map(model, t, steps, method="contract")
    enumerate_ = bitraj.bitrajectory_map(model, t, steps, method="enumerate")
    if _close(contract.matrix, enumerate_.matrix):
        return []
    return [f"contract and enumerate maps differ at {steps} steps"]


def _map_class(name: str, weight: int, steps: int, environment) -> OpClass:
    def draw(rng):
        p = _system_params(rng)
        p.update(environment[0](rng))
        return p

    def prepare(p, workdir):
        return {"model": _open_model(p, environment[1](p)), "t": p["t"]}

    def run(x, call):
        return call("opensys.bitrajectory_map", bitraj.bitrajectory_map, x["model"], x["t"], steps)

    def check(x, superop):
        problems = _check_contract(x["model"], x["t"])
        defect = superop.trace_preservation_defect()
        if not defect <= TOL_TRACE_PRESERVATION:
            problems.append(f"trace-preservation defect {defect:.3e}")
        return problems

    return OpClass(name, weight, draw, prepare, run, check)


_RABI_ENV = (_rabi_params, lambda p: bitraj.rabi_scenario(p["omega"]))
# The driven environment spans [0, 1.25 t] in 160 segments, so every op
# propagates through the same 128 segments whatever t is drawn.
_DRIVEN_ENV = (_drive_params, lambda p: _driven_qubit(p, 1.25 * p["t"], 160))
_RANDOM4_ENV = (_random_params, lambda p: bitraj.random_scenario(4, p["scenario_seed"]))

CONVERGENCE_STEPS = (8, 16, 32, 64)


def _conv_prepare(p, workdir):
    return {"model": _open_model(p, bitraj.rabi_scenario(p["omega"])), "t": p["t"]}


def _conv_run(x, call):
    return call("opensys.convergence_study", bitraj.convergence_study, x["model"], x["t"],
                list(CONVERGENCE_STEPS))


def _conv_check(x, points):
    problems = _check_contract(x["model"], x["t"])
    if [pt.n_steps for pt in points] != list(CONVERGENCE_STEPS):
        problems.append("convergence study reports the wrong step counts")
    if not all(math.isfinite(pt.error) for pt in points):
        problems.append("convergence study reports a non-finite error")
    return problems


OPENSYS = (
    OpClass("convergence_rabi", 2, lambda rng: {**_system_params(rng), **_rabi_params(rng)},
            _conv_prepare, _conv_run, _conv_check),
    _map_class("rabi_128", 2, 128, _RABI_ENV),
    _map_class("random_d4_128", 2, 128, _RANDOM4_ENV),
    _map_class("rabi_512", 2, 512, _RABI_ENV),
    _map_class("driven_128seg_512", 2, 512, _DRIVEN_ENV),
)

WORKLOADS = {"study": STUDY, "export": EXPORT, "entries": ENTRIES, "opensys": OPENSYS}


def build(workload: str, seed: int, workdir: Path) -> tuple:
    """(classes, inputs, op order, input digest) of one workload and seed.

    Parameters and op order are a pure function of the seed; the digest
    covers both, so two runs with the same digest ran the same ops.  Each
    round of the op order holds every class as often as its weight, shuffled.
    """
    classes = WORKLOADS[workload]
    rng = np.random.default_rng([seed, 0])
    params = [[c.draw(rng) for _ in range(POOL)] for c in classes]
    order_rng = np.random.default_rng([seed, 1])
    base = [i for i, c in enumerate(classes) for _ in range(c.weight)]
    order = [int(i) for _ in range(ROUNDS) for i in order_rng.permutation(base)]
    digest = hashlib.sha256(json.dumps(
        {"classes": [c.name for c in classes], "params": params, "order": order},
        sort_keys=True).encode()).hexdigest()
    inputs = []
    for c, plist in zip(classes, params):
        row = []
        for j, p in enumerate(plist):
            d = workdir / c.name / str(j)
            d.mkdir(parents=True)
            row.append(c.prepare(p, d))
        inputs.append(row)
    return classes, inputs, order, digest
