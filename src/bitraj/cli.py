"""Command-line interface.

Subcommands: eval, dist, verify, bound, refine, multiobs, opensys, comb, demo.
Results go to stdout or, with --output, to a file accompanied by a
``<output>.manifest.json`` run manifest.  Exit codes: 0 success, 1 a check
failed (verification or cross-check), 2 input or usage error: any
:class:`~bitraj.errors.BitrajError`, an unreadable file, or a numpy
``LinAlgError`` or ``MemoryError`` raised while computing.

Outcome tuples on the command line are comma-separated values ordered
latest-time-first, matching the table convention.  ``--times`` lists must be
strictly increasing; duplicates are rejected.  ``eval --method trace``
evaluates an entry by the ordered operator product instead of the default
Gram engine, as a cross-check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .biprob import BiOutcome, BiDistribution, check_budget, eval_biprob, full_distribution
from .bounds import (
    build_refinement,
    l1_norm,
    minimum_refinement_size,
    nonuniform_bound,
    refinement_monotonicity,
    uniform_bound,
)
from .comb import comb_biprob
from .errors import BitrajError, DomainMismatch, LengthMismatch, OutOfHorizon, ParseError
from .model import (
    QuantumScenario,
    TimeGrid,
    _pvm_from_config,
    rabi_scenario,
    random_scenario,
    validate_scenario,
)
from .multiobs import ObservableSequence, eval_multiobs, multiobs_distribution
from .opensys import OpenModel, bitrajectory_map, convergence_study
from .serialize import format_float
from .verify import DEFAULT_PROPERTY_TOL, check_properties

CROSS_CHECK_TOL = 1e-10
_CURVE_LINE_BYTES = 160


@dataclass
class RunManifest:
    """Reproducibility record written next to every result artifact."""

    command: str
    config: str | None
    seed: int | None
    version: str = __version__
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    outputs: list = field(default_factory=list)


def _read_json(path: str):
    """The JSON document in ``path``; an unreadable or invalid file is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_config(path: str):
    """Parse and validate a scenario or open-system model file."""
    cfg = _read_json(path)
    if isinstance(cfg, dict) and "system" in cfg:
        return OpenModel.from_dict(cfg)
    return validate_scenario(cfg)


def _numbers(flag: str, raw: str, kind=float) -> list:
    """A flag's comma-separated numbers, empty items skipped; an unreadable one is a ParseError."""
    try:
        return [kind(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"{flag}: {exc}") from exc


def _parse_times(raw: str) -> TimeGrid:
    values = tuple(_numbers("--times", raw))
    if not values:
        raise ParseError("--times: need at least one time")
    if len(set(values)) != len(values):
        raise ParseError(f"--times: duplicate entries in {values}")
    return TimeGrid(values)


def _read_outcome(args, sets: Sequence[tuple]) -> BiOutcome:
    """``--plus`` and ``--minus``, each value matched to its slot's outcomes (``sets``, latest first)."""
    legs = []
    for flag, raw in (("--plus", args.plus), ("--minus", args.minus)):
        values = _numbers(flag, raw)
        if len(values) != len(sets):
            raise LengthMismatch(f"{flag}: {len(values)} values for a grid of length {len(sets)}")
        leg = []
        for v, admissible in zip(values, sets):
            hits = [f for f in admissible if abs(f - v) <= 1e-9]
            if not hits:
                raise ParseError(f"{flag}: value {v} is not an outcome of the observable {admissible}")
            leg.append(hits[0])
        legs.append(tuple(leg))
    return BiOutcome(*legs)


def _scenario_from_args(args) -> tuple:
    """(scenario, config_path, seed) from --config or --random-dim/--seed."""
    if args.config:
        dropped = [flag for flag, value in (("--random-dim", args.random_dim), ("--seed", args.seed))
                   if value is not None]
        if dropped:
            raise ParseError(f"--config cannot be combined with {' or '.join(dropped)}")
        scenario = load_config(args.config)
        if not isinstance(scenario, QuantumScenario):
            raise ParseError(f"{args.config}: expected a scenario file, found an open-system model")
        return scenario, args.config, None
    if args.random_dim is not None:
        seed = args.seed if args.seed is not None else 0
        return random_scenario(args.random_dim, seed), None, seed
    raise ParseError("provide --config FILE or --random-dim D")


def _write_chunks(fh, chunks: Iterable[str]) -> None:
    """Write the chunks, then a newline unless the text already ends in one."""
    last = ""
    for chunk in chunks:
        fh.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        fh.write("\n")


def _emit(args, chunks: Iterable[str], manifest: RunManifest) -> None:
    if not args.output:
        _write_chunks(sys.stdout, chunks)
        return
    out = str(Path(args.output))
    with open(out, "w", encoding="utf-8") as fh:
        _write_chunks(fh, chunks)
    manifest.outputs.append(out)
    Path(out + ".manifest.json").write_text(json.dumps(asdict(manifest), indent=2) + "\n", encoding="utf-8")


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _json(payload: dict, code: int = 0) -> tuple:
    """A handler's result: the payload as one indented JSON chunk, and the exit code."""
    return [json.dumps(payload, indent=2)], code


def _entry_payload(grid: TimeGrid, outcome: BiOutcome, **values) -> dict:
    """The ``times``/``plus``/``minus`` head of an entry's payload, then ``values``."""
    return {"times": list(grid.times), "plus": list(outcome.plus), "minus": list(outcome.minus), **values}


# -- subcommand handlers ------------------------------------------------------
#
# Each handler computes eagerly and returns (text chunks, exit code), so every
# error is raised before stdout or the output file is touched.  Only
# ``_dist_text`` is lazy: it formats an already computed table block by block.


def _cmd_eval(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    outcome = _read_outcome(args, (scenario.pvm.outcomes,) * len(grid))
    value = eval_biprob(scenario, grid, outcome, method=args.method)
    return _json(_entry_payload(grid, outcome, method=args.method, value=_complex_dict(value)))


def _dist_text(dist: BiDistribution, fmt: str) -> Iterator[str]:
    """The table as JSON or CSV text, one chunk per plus-row block.

    The text equals ``json.dumps(dist.to_json_dict(), indent=2)``, or what
    ``csv.writer`` writes for ``dist.to_csv_rows()``, byte for byte; only one
    block of K entries is ever held as text.
    """
    k = math.prod(dist.sizes)
    if fmt == "csv":
        rows = dist.to_csv_rows()
        yield _csv_line(next(rows))
        for _ in range(k):
            yield "".join(map(_csv_line, itertools.islice(rows, k)))
        return
    head = json.dumps({**dist._json_header(), "entries": []}, indent=2)
    yield head[: -len("]\n}")] + "\n"  # cut the empty list open: '"entries": [\n'
    # A label list as the indent encoder spells it two levels into an entry
    label_text = [json.dumps(list(t), indent=2).replace("\n", "\n      ") for t in dist._labels()]
    for i, (plus, row) in enumerate(zip(label_text, dist.table.reshape(k, k))):
        lead = f'    {{\n      "plus": {plus},\n      "minus": '
        block = ",\n".join(
            f'{lead}{minus},\n      "re": {re},\n      "im": {im}\n    }}'
            for minus, re, im in zip(label_text, _json_floats(row.real), _json_floats(row.imag))
        )
        yield (",\n" if i else "") + block
    yield "\n  ]\n}"


def _csv_line(fields) -> str:
    """One row as ``csv.writer`` writes it, for fields that need no quoting."""
    return ",".join(fields) + "\r\n"


def _json_floats(values: np.ndarray) -> list:
    """JSON spellings of the floats, NaN and Infinity included, from the C encoder."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _cmd_dist(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    return _dist_text(full_distribution(scenario, grid), args.format), 0


def _cmd_verify(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    report = check_properties(full_distribution(scenario, grid), tolerance=args.tolerance)
    return _json(report.to_json_dict(), 0 if report.all_pass else 1)


def _cmd_bound(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    horizon = args.horizon if args.horizon is not None else grid.times[-1]
    uni = uniform_bound(scenario, horizon)  # checks the horizon itself first
    if grid.times[-1] > horizon:
        raise OutOfHorizon(f"grid reaches {grid.times[-1]}, beyond the stated horizon {horizon}")
    dist = full_distribution(scenario, grid)
    norm = l1_norm(dist)
    non_uni = nonuniform_bound(dist)
    return _json({
        "l1_norm": norm,
        "nonuniform_bound": non_uni,
        "uniform_bound": uni,
        "margin": min(non_uni, uni) - norm,
    })


def _cmd_refine(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    mesh = build_refinement(grid, args.size, horizon=scenario.horizon)
    record = refinement_monotonicity(scenario, mesh)
    return _json({
        "base_times": list(mesh.base.times),
        "refined_times": list(mesh.refined.times),
        "injection": list(mesh.injection),
        "minimum_size": minimum_refinement_size(grid),
        "max_gap": mesh.max_gap(),
        "norm_coarse": record.norm_coarse,
        "norm_fine": record.norm_fine,
    })


def _load_observables(args, scenario: QuantumScenario) -> ObservableSequence:
    if args.observables:
        specs = _read_json(args.observables)
    else:
        if not args.config:
            raise ParseError("multiobs: provide --observables FILE or an 'observables' array in the config")
        specs = _read_json(args.config).get("observables")
        if specs is None:
            raise ParseError("multiobs: provide --observables FILE or an 'observables' array in the config")
    if not isinstance(specs, list) or not specs:
        raise ParseError("observables: expected a non-empty array of PVM specs")
    pvms = [_pvm_from_config(spec, scenario.dimension) for spec in specs]
    return ObservableSequence(tuple(pvms))


def _cmd_multiobs(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    seq = _load_observables(args, scenario)
    if not (args.plus or args.minus):
        return _dist_text(multiobs_distribution(scenario, grid, seq), args.format), 0
    if not (args.plus and args.minus):
        raise ParseError("multiobs: --plus and --minus must be given together")
    if len(seq) != len(grid):
        raise LengthMismatch(f"{len(seq)} observables for a grid of length {len(grid)}")
    outcome = _read_outcome(args, [pvm.outcomes for pvm in reversed(seq.pvms)])
    value = eval_multiobs(scenario, grid, seq, outcome)
    return _json(_entry_payload(grid, outcome, value=_complex_dict(value)))


def _cmd_comb(args, scenario: QuantumScenario, grid: TimeGrid) -> tuple:
    outcome = _read_outcome(args, (scenario.pvm.outcomes,) * len(grid))
    value = comb_biprob(scenario, grid, outcome)
    payload = _entry_payload(grid, outcome, value_comb=_complex_dict(value))
    if not args.cross_check:
        return _json(payload)
    direct = eval_biprob(scenario, grid, outcome)
    diff = abs(value - direct)
    payload["value_trace"] = _complex_dict(direct)
    payload["difference"] = diff
    return _json(payload, 0 if diff <= CROSS_CHECK_TOL else 1)


def _cmd_opensys(args) -> tuple:
    model = load_config(args.model)
    if not isinstance(model, OpenModel):
        raise ParseError(f"{args.model}: expected an open-system model with a 'system' block")
    if args.study:
        steps = _numbers("--study", args.study, int)
        points = convergence_study(model, args.time, steps)
        lines = [_csv_line((str(pt.n_steps), format_float(pt.error))) for pt in points]
        return [_csv_line(("n_steps", "error"))] + lines, 0
    # the study counts the map held beside the exact one; the map is rebuilt alone
    [point] = convergence_study(model, args.time, [args.steps])
    approx = bitrajectory_map(model, args.time, args.steps)
    return _json({
        "time": args.time,
        "n_steps": args.steps,
        "error": point.error,
        "trace_preservation_defect": approx.trace_preservation_defect(),
    })


def _cmd_demo(args) -> tuple:
    if args.name != "rabi":
        raise ParseError(f"demo: unknown demo {args.name!r} (available: rabi)")
    if args.points < 1:
        raise DomainMismatch(f"demo: --points must be >= 1, got {args.points}")
    # a line of three 17-digit floats with its list slot, before the first point is evaluated
    check_budget(_CURVE_LINE_BYTES * (args.points + 1), "demo curve")
    scenario = rabi_scenario(args.omega)
    lines = [_csv_line(("t", "q_plus", "q_minus"))]
    for k in range(1, args.points + 1):
        t = args.tmax * k / args.points
        grid = TimeGrid((t,))
        q_plus = eval_biprob(scenario, grid, BiOutcome((1.0,), (1.0,))).real
        q_minus = eval_biprob(scenario, grid, BiOutcome((-1.0,), (-1.0,))).real
        lines.append(_csv_line(map(format_float, (t, q_plus, q_minus))))
    return lines, 0


def _run(args) -> int:
    """Read the inputs, run the handler, then write its result and manifest."""
    if args.scenario:
        scenario, config, seed = _scenario_from_args(args)
        chunks, code = args.func(args, scenario, _parse_times(args.times))
    else:
        chunks, code = args.func(args)
        config, seed = getattr(args, "model", None), None
    command = f"demo {args.name}" if args.command == "demo" else args.command
    _emit(args, chunks, RunManifest(command, config, seed))
    return code


# -- parser -------------------------------------------------------------------


def _subcommand(sub, name: str, summary: str, func, flags: dict, *, scenario: bool = True,
                times_help: str | None = None) -> None:
    """Declare one subcommand: the scenario source and --times, its own ``flags``, then --output."""
    p = sub.add_parser(name, help=summary)
    if scenario:
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--random-dim", type=int, help="generate a random scenario of this dimension")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized inputs")
        p.add_argument("--times", required=True, help=times_help)
    for flag, options in flags.items():
        p.add_argument(flag, **options)
    p.add_argument("--output", help="write the result here (plus a .manifest.json)")
    p.set_defaults(func=func, scenario=scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitraj",
        description="Multitime quantum bi-probability toolbox",
    )
    parser.add_argument("--version", action="version", version=f"bitraj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    latest_first = "outcomes, latest time first"
    table_format = dict(default="json", choices=["json", "csv"])

    _subcommand(sub, "eval", "evaluate one bi-probability entry", _cmd_eval, {
        "--plus": dict(required=True, help=latest_first),
        "--minus": dict(required=True, help=latest_first),
        "--method": dict(default="auto", choices=["auto", "trace"]),
    }, times_help="comma-separated, strictly increasing")
    _subcommand(sub, "dist", "enumerate the full table", _cmd_dist, {"--format": table_format})
    _subcommand(sub, "verify", "run the property battery; exit 1 on failure", _cmd_verify, {
        "--tolerance": dict(type=float, default=DEFAULT_PROPERTY_TOL),
    })
    _subcommand(sub, "bound", "l1 norm against its bounds", _cmd_bound, {
        "--horizon": dict(type=float, default=None, help="defaults to the last grid time"),
    })
    _subcommand(sub, "refine", "snapped uniform refinement and norm monotonicity", _cmd_refine, {
        "--size": dict(type=int, required=True, help="refined grid size N"),
    })
    _subcommand(sub, "multiobs", "multi-observable table or entry", _cmd_multiobs, {
        "--observables": dict(help="JSON file with one PVM spec per slot"),
        "--plus": dict(help=latest_first),
        "--minus": dict(help=latest_first),
        "--format": table_format,
    })
    _subcommand(sub, "opensys", "bi-trajectory map vs exact joint evolution", _cmd_opensys, {
        "--model": dict(required=True, help="model JSON file (scenario plus 'system' block)"),
        "--time": dict(type=float, required=True),
        "--steps": dict(type=int, default=16),
        "--study": dict(help="comma-separated step counts, emits CSV n_steps,error"),
    }, scenario=False)
    _subcommand(sub, "comb", "bi-instrument evaluation with optional cross-check", _cmd_comb, {
        "--plus": dict(required=True),
        "--minus": dict(required=True),
        "--cross-check": dict(action="store_true"),
    })
    _subcommand(sub, "demo", "built-in demonstrations", _cmd_demo, {
        "name": dict(help="demo name (rabi)"),
        "--omega": dict(type=float, default=1.0),
        "--tmax": dict(type=float, default=float(np.pi)),
        "--points": dict(type=int, default=8),
    }, scenario=False)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (BitrajError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"bitraj: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
