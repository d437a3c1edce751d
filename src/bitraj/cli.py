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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .biprob import BiOutcome, BiDistribution, eval_biprob, full_distribution
from .bounds import (
    build_refinement,
    l1_norm,
    minimum_refinement_size,
    nonuniform_bound,
    refinement_monotonicity,
    uniform_bound,
)
from .comb import comb_biprob
from .errors import BitrajError, LengthMismatch, OutOfHorizon, ParseError
from .model import (
    QuantumScenario,
    TimeGrid,
    _pvm_from_config,
    random_scenario,
    validate_scenario,
)
from .multiobs import ObservableSequence, eval_multiobs, multiobs_distribution
from .opensys import OpenModel, bitrajectory_map, convergence_study
from .serialize import format_float
from .verify import DEFAULT_PROPERTY_TOL, check_properties

CROSS_CHECK_TOL = 1e-10


@dataclass
class RunManifest:
    """Reproducibility record written next to every result artifact."""

    command: str
    config: str | None
    seed: int | None
    version: str
    timestamp: str
    outputs: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "timestamp": self.timestamp,
            "outputs": list(self.outputs),
        }


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


def _parse_times(raw: str) -> TimeGrid:
    try:
        values = tuple(float(x) for x in raw.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ParseError(f"--times: {exc}") from exc
    if not values:
        raise ParseError("--times: need at least one time")
    if len(set(values)) != len(values):
        raise ParseError(f"--times: duplicate entries in {values}")
    return TimeGrid(values)


def _read_outcome(args, sets: Sequence[tuple]) -> BiOutcome:
    """``--plus`` and ``--minus``, each value matched to its slot's outcomes (``sets``, latest first)."""
    legs = []
    for flag, raw in (("--plus", args.plus), ("--minus", args.minus)):
        try:
            values = [float(x) for x in raw.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise ParseError(f"{flag}: {exc}") from exc
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
    if getattr(args, "config", None):
        scenario = load_config(args.config)
        if not isinstance(scenario, QuantumScenario):
            raise ParseError(f"{args.config}: expected a scenario file, found an open-system model")
        return scenario, args.config, None
    if getattr(args, "random_dim", None):
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
    if getattr(args, "output", None):
        out = Path(args.output)
        with out.open("w", encoding="utf-8") as fh:
            _write_chunks(fh, chunks)
        manifest.outputs.append(str(out))
        manifest_path = Path(str(out) + ".manifest.json")
        manifest_path.write_text(
            json.dumps(manifest.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
    else:
        _write_chunks(sys.stdout, chunks)


def _manifest(command: str, config: str | None, seed: int | None) -> RunManifest:
    return RunManifest(
        command=command,
        config=config,
        seed=seed,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# -- subcommand handlers ------------------------------------------------------


def _cmd_eval(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    outcome = _read_outcome(args, (scenario.pvm.outcomes,) * len(grid))
    value = eval_biprob(scenario, grid, outcome, method=args.method)
    payload = {
        "times": list(grid.times),
        "plus": list(outcome.plus),
        "minus": list(outcome.minus),
        "method": args.method,
        "value": _complex_dict(value),
    }
    _emit(args, [json.dumps(payload, indent=2)], _manifest("eval", cfg, seed))
    return 0


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


def _cmd_dist(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    dist = full_distribution(scenario, grid)
    _emit(args, _dist_text(dist, args.format), _manifest("dist", cfg, seed))
    return 0


def _cmd_verify(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    dist = full_distribution(scenario, grid)
    report = check_properties(dist, tolerance=args.tolerance)
    _emit(args, [json.dumps(report.to_json_dict(), indent=2)], _manifest("verify", cfg, seed))
    return 0 if report.all_pass else 1


def _cmd_bound(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    horizon = args.horizon if args.horizon is not None else grid.times[-1]
    uni = uniform_bound(scenario, horizon)  # checks the horizon itself first
    if grid.times[-1] > horizon:
        raise OutOfHorizon(f"grid reaches {grid.times[-1]}, beyond the stated horizon {horizon}")
    dist = full_distribution(scenario, grid)
    norm = l1_norm(dist)
    non_uni = nonuniform_bound(dist)
    payload = {
        "l1_norm": norm,
        "nonuniform_bound": non_uni,
        "uniform_bound": uni,
        "margin": min(non_uni, uni) - norm,
    }
    _emit(args, [json.dumps(payload, indent=2)], _manifest("bound", cfg, seed))
    return 0


def _cmd_refine(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    mesh = build_refinement(grid, args.size, horizon=scenario.horizon)
    record = refinement_monotonicity(scenario, mesh)
    payload = {
        "base_times": list(mesh.base.times),
        "refined_times": list(mesh.refined.times),
        "injection": list(mesh.injection),
        "minimum_size": minimum_refinement_size(grid),
        "max_gap": mesh.max_gap(),
        "norm_coarse": record.norm_coarse,
        "norm_fine": record.norm_fine,
    }
    _emit(args, [json.dumps(payload, indent=2)], _manifest("refine", cfg, seed))
    return 0


def _load_observables(args, scenario: QuantumScenario) -> ObservableSequence:
    if args.observables:
        specs = _read_json(args.observables)
    else:
        if not getattr(args, "config", None):
            raise ParseError("multiobs: provide --observables FILE or an 'observables' array in the config")
        specs = _read_json(args.config).get("observables")
        if specs is None:
            raise ParseError("multiobs: provide --observables FILE or an 'observables' array in the config")
    if not isinstance(specs, list) or not specs:
        raise ParseError("observables: expected a non-empty array of PVM specs")
    pvms = [_pvm_from_config(spec, scenario.dimension) for spec in specs]
    return ObservableSequence(tuple(pvms))


def _cmd_multiobs(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    seq = _load_observables(args, scenario)
    if args.plus or args.minus:
        if not (args.plus and args.minus):
            raise ParseError("multiobs: --plus and --minus must be given together")
        if len(seq) != len(grid):
            raise LengthMismatch(f"{len(seq)} observables for a grid of length {len(grid)}")
        outcome = _read_outcome(args, [pvm.outcomes for pvm in reversed(seq.pvms)])
        value = eval_multiobs(scenario, grid, seq, outcome)
        payload = {
            "times": list(grid.times),
            "plus": list(outcome.plus),
            "minus": list(outcome.minus),
            "value": _complex_dict(value),
        }
        _emit(args, [json.dumps(payload, indent=2)], _manifest("multiobs", cfg, seed))
        return 0
    dist = multiobs_distribution(scenario, grid, seq)
    _emit(args, _dist_text(dist, args.format), _manifest("multiobs", cfg, seed))
    return 0


def _cmd_opensys(args) -> int:
    model = load_config(args.model)
    if not isinstance(model, OpenModel):
        raise ParseError(f"{args.model}: expected an open-system model with a 'system' block")
    if args.study:
        try:
            steps = [int(x) for x in args.study.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise ParseError(f"--study: {exc}") from exc
        points = convergence_study(model, args.time, steps)
        lines = [_csv_line((str(pt.n_steps), format_float(pt.error))) for pt in points]
        _emit(args, [_csv_line(("n_steps", "error"))] + lines, _manifest("opensys", args.model, None))
        return 0
    # the study counts the map held beside the exact one; the map is rebuilt alone
    [point] = convergence_study(model, args.time, [args.steps])
    approx = bitrajectory_map(model, args.time, args.steps)
    payload = {
        "time": args.time,
        "n_steps": args.steps,
        "error": point.error,
        "trace_preservation_defect": approx.trace_preservation_defect(),
    }
    _emit(args, [json.dumps(payload, indent=2)], _manifest("opensys", args.model, None))
    return 0


def _cmd_comb(args) -> int:
    scenario, cfg, seed = _scenario_from_args(args)
    grid = _parse_times(args.times)
    outcome = _read_outcome(args, (scenario.pvm.outcomes,) * len(grid))
    value = comb_biprob(scenario, grid, outcome)
    payload = {
        "times": list(grid.times),
        "plus": list(outcome.plus),
        "minus": list(outcome.minus),
        "value_comb": _complex_dict(value),
    }
    code = 0
    if args.cross_check:
        direct = eval_biprob(scenario, grid, outcome)
        diff = abs(value - direct)
        payload["value_trace"] = _complex_dict(direct)
        payload["difference"] = diff
        if not diff <= CROSS_CHECK_TOL:
            code = 1
    _emit(args, [json.dumps(payload, indent=2)], _manifest("comb", cfg, seed))
    return code


def _cmd_demo(args) -> int:
    if args.name != "rabi":
        raise ParseError(f"demo: unknown demo {args.name!r} (available: rabi)")
    from .model import rabi_scenario

    scenario = rabi_scenario(args.omega)
    lines = [_csv_line(("t", "q_plus", "q_minus"))]
    for k in range(1, args.points + 1):
        t = args.tmax * k / args.points
        grid = TimeGrid((t,))
        q_plus = eval_biprob(scenario, grid, BiOutcome((1.0,), (1.0,))).real
        q_minus = eval_biprob(scenario, grid, BiOutcome((-1.0,), (-1.0,))).real
        lines.append(_csv_line(map(format_float, (t, q_plus, q_minus))))
    _emit(args, lines, _manifest("demo rabi", None, None))
    return 0


# -- parser -------------------------------------------------------------------


def _add_scenario_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario JSON file")
    p.add_argument("--random-dim", type=int, help="generate a random scenario of this dimension")
    p.add_argument("--seed", type=int, default=None, help="seed for randomized inputs")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the result here (plus a .manifest.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitraj",
        description="Multitime quantum bi-probability toolbox",
    )
    parser.add_argument("--version", action="version", version=f"bitraj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one bi-probability entry")
    _add_scenario_source(p)
    p.add_argument("--times", required=True, help="comma-separated, strictly increasing")
    p.add_argument("--plus", required=True, help="outcomes, latest time first")
    p.add_argument("--minus", required=True, help="outcomes, latest time first")
    p.add_argument("--method", default="auto", choices=["auto", "trace"])
    _add_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dist", help="enumerate the full table")
    _add_scenario_source(p)
    p.add_argument("--times", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_output(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("verify", help="run the property battery; exit 1 on failure")
    _add_scenario_source(p)
    p.add_argument("--times", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_PROPERTY_TOL)
    _add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="l1 norm against its bounds")
    _add_scenario_source(p)
    p.add_argument("--times", required=True)
    p.add_argument("--horizon", type=float, default=None, help="defaults to the last grid time")
    _add_output(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("refine", help="snapped uniform refinement and norm monotonicity")
    _add_scenario_source(p)
    p.add_argument("--times", required=True)
    p.add_argument("--size", type=int, required=True, help="refined grid size N")
    _add_output(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("multiobs", help="multi-observable table or entry")
    _add_scenario_source(p)
    p.add_argument("--times", required=True)
    p.add_argument("--observables", help="JSON file with one PVM spec per slot")
    p.add_argument("--plus", help="outcomes, latest time first")
    p.add_argument("--minus", help="outcomes, latest time first")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_output(p)
    p.set_defaults(func=_cmd_multiobs)

    p = sub.add_parser("opensys", help="bi-trajectory map vs exact joint evolution")
    p.add_argument("--model", required=True, help="model JSON file (scenario plus 'system' block)")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--study", help="comma-separated step counts, emits CSV n_steps,error")
    _add_output(p)
    p.set_defaults(func=_cmd_opensys)

    p = sub.add_parser("comb", help="bi-instrument evaluation with optional cross-check")
    _add_scenario_source(p)
    p.add_argument("--times", required=True)
    p.add_argument("--plus", required=True)
    p.add_argument("--minus", required=True)
    p.add_argument("--cross-check", action="store_true")
    _add_output(p)
    p.set_defaults(func=_cmd_comb)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("name", help="demo name (rabi)")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=float(np.pi))
    p.add_argument("--points", type=int, default=8)
    _add_output(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BitrajError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"bitraj: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
