import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj.cli import load_config, run
from bitraj import biprob, errors

from conftest import BIG, MUTANTS

ROOT = Path(__file__).resolve().parents[1]

RABI_CONFIG = {
    "dimension": 2,
    "hamiltonian": {"type": "preset", "name": "rabi", "omega": 1.0},
    "initial_state": {"type": "pure", "vector": [[1, 0], [0, 0]]},
    "observable": {"type": "pauli_z"},
}

OPEN_MODEL_CONFIG = dict(
    RABI_CONFIG,
    system={
        "h_o": [[[0.5, 0], 0], [0, [-0.5, 0]]],
        "v_o": [[0, [1, 0]], [[1, 0], 0]],
        "lambda": 0.5,
    },
)


@pytest.fixture
def rabi_config(tmp_path):
    path = tmp_path / "rabi.json"
    path.write_text(json.dumps(RABI_CONFIG))
    return str(path)


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OPEN_MODEL_CONFIG))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_rabi_sweep_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "rabi", "--omega", "1", "--tmax", "3.14", "--points", "8"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        for row in rows:
            t = float(row["t"])
            assert float(row["q_plus"]) == pytest.approx((1 + np.cos(t)) / 2, abs=1e-10)
            assert float(row["q_minus"]) == pytest.approx((1 - np.cos(t)) / 2, abs=1e-10)

    def test_unknown_demo(self, capsys):
        code, _, err = run_cli(capsys, "demo", "nope")
        assert code == 2
        assert "unknown demo" in err

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_fewer_than_one_point_exits_2(self, capsys, points):
        code, out, err = run_cli(capsys, "demo", "rabi", "--points", points)
        assert code == 2 and out == ""
        assert f"--points must be >= 1, got {points}" in err

    def test_a_curve_past_the_budget_is_refused_before_any_point(self, capsys, monkeypatch):
        monkeypatch.setattr("bitraj.cli.eval_biprob", None)  # no point is evaluated
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "demo", "rabi", "--points", "1000000000")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and "demo curve would take" in err
        assert elapsed < 5.0 and peak < 2**20


class TestEval:
    def test_witness_entry(self, capsys, rabi_config):
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--config", rabi_config,
            "--times", f"{np.pi / 2},{np.pi}",
            "--plus", "1,1",
            "--minus=1,-1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["re"] == pytest.approx(-0.25, abs=1e-10)

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--config", "/nope.json", "--times", "1", "--plus", "1", "--minus", "1"
        )
        assert code == 2
        assert "/nope.json" in err

    def test_duplicate_times_rejected(self, capsys, rabi_config):
        code, _, err = run_cli(
            capsys, "eval", "--config", rabi_config, "--times", "1,1", "--plus", "1,1", "--minus", "1,1"
        )
        assert code == 2
        assert "duplicate" in err

    def test_decreasing_times_rejected(self, capsys, rabi_config):
        code, _, err = run_cli(
            capsys, "eval", "--config", rabi_config, "--times", "2,1", "--plus", "1,1", "--minus", "1,1"
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "comb"])
    @pytest.mark.parametrize("plus, minus", [("1", "1,1"), ("1,1", "1,1,-1")])
    def test_outcome_count_must_match_the_grid(self, capsys, rabi_config, command, plus, minus):
        code, _, err = run_cli(
            capsys, command, "--config", rabi_config, "--times", "0.5,1", "--plus", plus, "--minus", minus
        )
        assert code == 2
        assert "values for a grid of length 2" in err

    def test_unmatched_outcome_value(self, capsys, rabi_config):
        code, _, err = run_cli(
            capsys, "eval", "--config", rabi_config, "--times", "1", "--plus", "0.5", "--minus", "1"
        )
        assert code == 2
        assert "not an outcome" in err

    def test_usage_error_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--times", "oops")
        assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_time_rejected(capsys, rabi_config, value):
    t = float(value)
    with pytest.raises(errors.ValidationError) as exc:
        bt.TimeGrid((t,))
    assert exc.value.has(errors.NonFiniteTime)
    with pytest.raises(errors.NonFiniteTime):
        bt.propagator(bt.rabi_scenario().schedule, 0.0, t)
    code, out, err = run_cli(capsys, "verify", "--config", rabi_config, f"--times={value}")
    assert code == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_horizon_rejected(capsys, rabi_config, value):
    with pytest.raises(errors.NonFiniteTime):
        bt.uniform_bound(bt.rabi_scenario(), float(value))
    code, out, err = run_cli(
        capsys, "bound", "--config", rabi_config, "--times", "1,2", f"--horizon={value}"
    )
    assert code == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("value", ["nan", "-1.0"])
def test_invalid_tolerance_rejected(capsys, rabi_config, value):
    dist = bt.full_distribution(bt.rabi_scenario(), bt.TimeGrid((1.0, 2.0)))
    with pytest.raises(errors.ValidationError):
        bt.check_properties(dist, tolerance=float(value))
    code, out, err = run_cli(
        capsys, "verify", "--config", rabi_config, "--times", "1,2", f"--tolerance={value}"
    )
    assert code == 2
    assert out == "" and "tolerance" in err


class TestVerify:
    def test_valid_scenario_all_pass(self, capsys, rabi_config):
        code, out, _ = run_cli(
            capsys, "verify", "--config", rabi_config, "--times", "0.5,1.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert len(doc["checks"]) == 7

    def test_random_scenario_with_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--random-dim", "3", "--seed", "5", "--times", "0.4,0.9"
        )
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        bad = dict(RABI_CONFIG, initial_state={"matrix": [[0.6, 0], [0, 0.6]]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "verify", "--config", str(path), "--times", "1")
        assert code == 2
        assert "trace" in err

    def test_failing_report_exits_1(self, capsys, rabi_config, monkeypatch):
        import bitraj.cli as cli_mod
        from bitraj.verify import PropertyCheck, PropertyReport

        fake = PropertyReport(
            (PropertyCheck("Q1_normalization", 1.0, 1e-9, False, "injected"),)
        )
        monkeypatch.setattr(cli_mod, "check_properties", lambda dist, tolerance: fake)
        code, out, _ = run_cli(capsys, "verify", "--config", rabi_config, "--times", "1")
        assert code == 1

    def test_default_tolerance_is_the_library_default(self, monkeypatch):
        import bitraj.cli as cli_mod

        assert cli_mod.DEFAULT_PROPERTY_TOL is bt.verify.DEFAULT_PROPERTY_TOL
        monkeypatch.setattr(cli_mod, "DEFAULT_PROPERTY_TOL", 1e-7)
        args = cli_mod.build_parser().parse_args(["verify", "--config", "c.json", "--times", "1"])
        assert args.tolerance == 1e-7


class TestBoundRefine:
    def test_bound_payload(self, capsys, rabi_config):
        code, out, _ = run_cli(
            capsys, "bound", "--config", rabi_config, "--times", "0.5,1.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["l1_norm"] >= 1.0
        assert doc["nonuniform_bound"] == 4.0
        assert doc["uniform_bound"] == pytest.approx(4 * np.e, rel=1e-12)
        assert doc["margin"] >= 0.0

    def test_bound_horizon_short_of_the_grid_exits_2(self, capsys, rabi_config):
        times = ",".join(str(0.375 * k) for k in range(1, 9))
        code, out, err = run_cli(
            capsys, "bound", "--config", rabi_config, "--times", times, "--horizon", "0.01"
        )
        assert code == 2
        assert out == "" and "horizon" in err

    def test_refine_payload(self, capsys, rabi_config):
        code, out, _ = run_cli(
            capsys, "refine", "--config", rabi_config, "--times", "0.5,1.0", "--size", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.5 in doc["refined_times"] and 1.0 in doc["refined_times"]
        assert doc["norm_coarse"] <= doc["norm_fine"] + 1e-9

    def test_refine_too_coarse(self, capsys, rabi_config):
        code, _, err = run_cli(
            capsys, "refine", "--config", rabi_config, "--times", "0.5,1.0", "--size", "2"
        )
        assert code == 2
        assert "minimum" in err


class TestDist:
    def test_output_file_and_manifest(self, capsys, rabi_config, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys,
            "dist", "--config", rabi_config, "--times", "1.0",
            "--format", "csv", "--output", str(out_path),
        )
        assert code == 0
        with out_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "dist"
        assert manifest["config"] == rabi_config
        assert manifest["version"] == bt.__version__
        assert str(out_path) in manifest["outputs"]

    def test_rerun_reproduces_numbers(self, capsys, rabi_config, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run_cli(
                capsys,
                "dist", "--config", rabi_config, "--times", "0.5,1.0", "--output", str(p),
            )
            assert code == 0
        a = json.loads(paths[0].read_text())
        b = json.loads(paths[1].read_text())
        assert a["entries"] == b["entries"]


class TestComb:
    def test_cross_check(self, capsys, rabi_config):
        code, out, _ = run_cli(
            capsys,
            "comb", "--config", rabi_config,
            "--times", f"{np.pi / 2},{np.pi}",
            "--plus", "1,1", "--minus=1,-1", "--cross-check",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value_comb"]["re"] == pytest.approx(-0.25, abs=1e-10)
        assert doc["difference"] <= 1e-10


class TestOpensys:
    def test_study_csv(self, capsys, model_config):
        code, out, _ = run_cli(
            capsys, "opensys", "--model", model_config, "--time", "1.0", "--study", "4,8,16"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["n_steps"]) for r in rows] == [4, 8, 16]
        errors_col = [float(r["error"]) for r in rows]
        assert errors_col[0] > errors_col[-1]

    def test_single_run_payload(self, capsys, model_config):
        code, out, _ = run_cli(
            capsys, "opensys", "--model", model_config, "--time", "1.0", "--steps", "8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_steps"] == 8
        assert doc["trace_preservation_defect"] <= 1e-8

    def test_single_run_fits_its_count(self, capsys, tmp_path, monkeypatch):
        # a 16-level system on the Rabi qubit, where the reduced maps dominate:
        # the error needs one contract map beside the exact one
        d_o = 16
        v_o = np.eye(d_o, k=1) + np.eye(d_o, k=-1)
        path = tmp_path / "model16.json"
        path.write_text(json.dumps(dict(OPEN_MODEL_CONFIG, system={
            "h_o": np.diag(np.linspace(-1.0, 1.0, d_o)).tolist(), "v_o": v_o.tolist(), "lambda": 0.5})))
        argv = ("opensys", "--model", str(path), "--time", "1.0", "--steps", "8")
        monkeypatch.setattr(biprob, "MEMORY_BUDGET", 0)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        nbytes = int(re.search(r"take (\d+) bytes", err).group(1))
        monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes)
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["n_steps"] == 8
        assert peak <= nbytes + 64 * 2**10
        monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes - 1)
        assert run_cli(capsys, *argv)[0] == 2

    def test_scenario_file_rejected(self, capsys, rabi_config):
        code, _, err = run_cli(
            capsys, "opensys", "--model", rabi_config, "--time", "1.0"
        )
        assert code == 2
        assert "system" in err


class TestMultiobs:
    def test_entry_with_observables_file(self, capsys, rabi_config, tmp_path):
        obs = [
            {"type": "pauli_z"},
            {
                "values": [1, -1],
                "projectors": [
                    [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
                    [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]],
                ],
            },
        ]
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        code, out, _ = run_cli(
            capsys,
            "multiobs", "--config", rabi_config, "--times", "0.5,1.0",
            "--observables", str(path), "--plus", "1,1", "--minus", "1,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"]["im"]) <= 1e-12

    def test_full_table(self, capsys, rabi_config, tmp_path):
        obs = [{"type": "pauli_z"}, {"type": "pauli_z"}]
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        code, out, _ = run_cli(
            capsys,
            "multiobs", "--config", rabi_config, "--times", "0.5,1.0",
            "--observables", str(path),
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 16

    @pytest.mark.parametrize(
        "times, plus, minus",
        [
            ("0.5,1.0,1.5", "1,1,1", "1,1,1"),  # two observables for three times
            ("0.5,1.0", "1,1,1,1,1", "1,1"),  # more than 2n plus values
        ],
    )
    def test_length_errors_exit_2(self, capsys, rabi_config, tmp_path, times, plus, minus):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([{"type": "pauli_z"}, {"type": "pauli_z"}]))
        code, _, err = run_cli(
            capsys,
            "multiobs", "--config", rabi_config, "--times", times,
            "--observables", str(path), "--plus", plus, "--minus", minus,
        )
        assert code == 2
        assert "grid of length" in err

    def test_invalid_observables_file_names_position(self, capsys, rabi_config, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text('[\n  {"type": "pauli_z"},\n  oops\n]')
        code, _, err = run_cli(
            capsys,
            "multiobs", "--config", rabi_config, "--times", "0.5",
            "--observables", str(path),
        )
        assert code == 2
        assert "line 3, column 3" in err


class TestLoadConfig:
    def test_scenario(self, rabi_config):
        sc = load_config(rabi_config)
        assert isinstance(sc, bt.QuantumScenario)

    def test_open_model(self, model_config):
        model = load_config(model_config)
        assert isinstance(model, bt.OpenModel)

    def test_ragged_matrix_names_row(self, tmp_path):
        bad = dict(RABI_CONFIG, hamiltonian={"type": "static", "matrix": [[0, 0], [0]]})
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(errors.ParseError, match="row 1"):
            load_config(str(path))

    def test_invalid_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(errors.ParseError, match="line 2"):
            load_config(str(path))

    def test_non_hermitian_open_system_block(self, tmp_path):
        bad = dict(OPEN_MODEL_CONFIG)
        bad["system"] = dict(bad["system"], h_o=[[0, [1, 0]], [0, 0]])
        path = tmp_path / "badsys.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(errors.ValidationError):
            load_config(str(path))


@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("SVD did not converge"), MemoryError("Unable to allocate 64 GiB")]
)
def test_numerical_failures_exit_2(capsys, rabi_config, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("bitraj.cli.full_distribution", fail)
    code, out, err = run_cli(capsys, "dist", "--config", rabi_config, "--times", "0.5,1")
    assert code == 2
    assert out == "" and str(exc) in err


@pytest.mark.parametrize("argv, message", [
    (["--random-dim", "2", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["--random-dim", "0"], "d must be >= 2, got 0"),
    (["--random-dim", "-3", "--seed", "1"], "d must be >= 2, got -3"),
])
def test_bad_random_scenario_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "bound", *argv, "--times", "0.5")
    assert code == 2
    assert out == "" and err.startswith("bitraj: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, dropped", [
    (["--random-dim", "3"], "--random-dim"),
    (["--seed", "5"], "--seed"),
    (["--random-dim", "3", "--seed", "5"], "--random-dim or --seed"),
])
def test_config_with_random_scenario_flags_exits_2(capsys, tmp_path, rabi_config, flags, dropped):
    out = tmp_path / "r.json"
    code, stdout, err = run_cli(
        capsys, "bound", "--config", rabi_config, *flags, "--times", "0.5", "--output", str(out))
    assert code == 2
    assert stdout == "" and err.startswith("bitraj: ") and dropped in err
    assert not out.exists()


def test_non_integer_study_steps_exit_2(capsys, model_config):
    code, out, err = run_cli(
        capsys, "opensys", "--model", model_config, "--time", "1.0", "--study", "4,x"
    )
    assert code == 2
    assert out == "" and "--study" in err


# -- input fuzzing ---------------------------------------------------------------

OVERFLOWING = [[0, BIG], [-BIG, 0]]  # finite entries, but A - A^dagger overflows

STATIC_CONFIG = {
    "dimension": 2,
    "hamiltonian": {"type": "static", "matrix": [[0, [0.5, 0]], [[0.5, 0], 0]], "horizon": 3.0},
    "initial_state": {"matrix": [[1, 0], [0, 0]]},
    "observable": {"values": [1, -1], "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
}

FUZZ_BASES = {
    "rabi": RABI_CONFIG,
    "static": STATIC_CONFIG,
    "piecewise": dict(
        RABI_CONFIG,
        hamiltonian={"type": "piecewise", "segments": [
            {"t_start": 0, "t_end": 0.7, "matrix": [[0, 1], [1, 0]]},
            {"t_start": 0.7, "t_end": 2.0, "matrix": [[1, 0], [0, -1]]},
        ]},
    ),
    "open": dict(STATIC_CONFIG, system=OPEN_MODEL_CONFIG["system"]),
}

FUZZ_COMMANDS = (
    ("dist", "--config", "{path}", "--times", "0.5,1"),
    ("bound", "--config", "{path}", "--times", "0.5,1"),
    ("opensys", "--model", "{path}", "--time", "0.5", "--steps", "3"),
)

# Each of these used to escape ``run`` as a traceback, or to exit 0 with an
# invalid operator, before the input checks rejected it
PINNED = [
    ("static", [(("hamiltonian", "horizon"), "abc")]),
    ("rabi", [(("hamiltonian", "omega"), None)]),
    ("piecewise", [(("hamiltonian", "segments", 0, "t_end"), "x")]),
    ("open", [(("system", "lambda"), "big")]),
    ("static", [(("hamiltonian", "matrix"), OVERFLOWING)]),
    ("open", [(("initial_state", "matrix"), [[1, BIG], [-BIG, 0]])]),
    ("static", [(("observable", "projectors", 0), [[1, BIG], [-BIG, 0]]),
                (("observable", "projectors", 1), [[0, -BIG], [BIG, 1]])]),
    ("rabi", [(("hamiltonian", "omega"), 1000)]),
]


def _paths(node, prefix=()):
    """Every key/index path below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _mutated(base: str, mutations) -> dict:
    cfg = copy.deepcopy(FUZZ_BASES[base])
    for path, value in mutations:
        node = cfg
        for key in path[:-1]:  # the path may be gone after an earlier mutation
            node = node[key] if _has(node, key) else None
        if _has(node, path[-1]):
            node[path[-1]] = copy.deepcopy(value)
    return cfg


def _operators(cfg: dict):
    """Every matrix a config declares as a Hamiltonian, state, projector or system operator."""
    ham = cfg.get("hamiltonian", {})
    yield ham.get("matrix")
    for seg in ham.get("segments", ()):
        yield seg.get("matrix")
    yield cfg.get("initial_state", {}).get("matrix")
    yield from cfg.get("observable", {}).get("projectors", ())
    yield from (cfg.get("system", {}).get(key) for key in ("h_o", "v_o"))


def _is_hermitian(rows) -> bool:
    """The oracle, independent of the library's parser and checks.

    Entries are numbers or [re, im] pairs; ``run`` has already parsed them.
    """
    m = np.array(
        [[complex(*c) if isinstance(c, list) else complex(c) for c in row] for row in rows]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(np.abs(m - m.conj().T) <= 1e-8))


def _check_case(case) -> None:
    """``run`` exits 0 or 2 and never raises; 0 only for Hermitian operators."""
    base, mutations = case
    cfg = _mutated(base, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)  # NaN and inf are written as the tokens json.load reads back
        for command in FUZZ_COMMANDS:
            argv = [a.format(path=path) for a in command]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            assert code in (0, 2), (argv[0], cfg)
            if code == 0:
                for rows in _operators(cfg):
                    assert rows is None or _is_hermitian(rows), (argv[0], rows)


@st.composite
def _fuzz_cases(draw):
    base = draw(st.sampled_from(sorted(FUZZ_BASES)))
    paths = list(_paths(FUZZ_BASES[base]))
    mutation = st.tuples(st.sampled_from(paths), st.sampled_from(MUTANTS))
    return base, draw(st.lists(mutation, min_size=1, max_size=3))


@pytest.mark.parametrize("omega", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_omega_exits_2_without_warning(capsys, tmp_path, omega):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_mutated("rabi", [(("hamiltonian", "omega"), omega)])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dist", "--config", str(path), "--times", "0.5,1")
    assert code == 2
    assert out == "" and "hamiltonian.omega: must be finite" in err


def _pinned(test):
    for case in PINNED:
        test = example(case=case)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True)
@_pinned
@given(case=_fuzz_cases())
def test_fuzzed_configs_exit_0_or_2(case):
    _check_case(case)


# -- argv fuzz: the numeric flags of every subcommand ---------------------------

_SCENARIO_ARGS = ["--random-dim", "2", "--seed", "3", "--times", "0.5,1"]
_OPEN_MODEL = str(ROOT / "demos" / "configs" / "open_model.json")
ARGV_BASES = {
    "demo": ["demo", "rabi", "--omega", "1", "--tmax", "3", "--points", "3"],
    "eval": ["eval", *_SCENARIO_ARGS, "--plus", "0,0", "--minus", "0,1"],
    "verify": ["verify", *_SCENARIO_ARGS, "--tolerance", "1e-9"],
    "bound": ["bound", *_SCENARIO_ARGS, "--horizon", "2"],
    "refine": ["refine", *_SCENARIO_ARGS, "--size", "4"],
    "opensys": ["opensys", "--model", _OPEN_MODEL, "--time", "1", "--steps", "4"],
    "study": ["opensys", "--model", _OPEN_MODEL, "--time", "1", "--study", "2,4"],
}
NUMERIC_FLAGS = {
    "--points", "--omega", "--tmax", "--size", "--steps", "--study", "--time", "--tolerance",
    "--horizon", "--random-dim", "--seed", "--times",
}
ARGV_MUTANTS = tuple(dict.fromkeys([str(m) for m in MUTANTS] + ["0", "-2", "1.5", "1000000000"]))
# no working-memory count covers random_scenario, whose d projectors take
# 16 d^3 bytes, so --random-dim takes no value of 1000 or more
UNCOUNTED_FLAGS = {"--random-dim"}


def _is_large_text(value: str) -> bool:
    try:
        x = float(value)
    except ValueError:
        return False
    return math.isfinite(x) and abs(x) >= 1000


@st.composite
def _argv_cases(draw):
    base = draw(st.sampled_from(sorted(ARGV_BASES)))
    flags = [a for a in ARGV_BASES[base] if a in NUMERIC_FLAGS]
    mutation = {}
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1, max_size=2, unique=True)):
        pool = [m for m in ARGV_MUTANTS if flag not in UNCOUNTED_FLAGS or not _is_large_text(m)]
        mutation[flag] = draw(st.sampled_from(pool))
    return base, mutation


def _argv_examples(test):
    for points in ("0", "-2", "1000000000"):
        test = example(case=("demo", {"--points": points}))(test)
    return test


@settings(max_examples=80, deadline=None, derandomize=True)
@_argv_examples
@given(case=_argv_cases())
def test_mutated_numeric_flags_exit_0_1_or_2(case):
    base, mutation = case
    argv = list(ARGV_BASES[base])
    for i in range(1, len(argv)):
        argv[i] = mutation.get(argv[i - 1], argv[i])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)  # any exception here would reach the user as a traceback
    assert code in (0, 1, 2), argv


def _readme_commands() -> list:
    """The ``bitraj ...`` lines of README's "Command line" block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```bash\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("bitraj ")]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a[:2]) for a in README_COMMANDS])
def test_readme_commands_exit_0(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv[1:])
    assert code == 0, err
    assert out


def test_readme_lists_every_command_line_example():
    assert len(README_COMMANDS) == 8


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "bitraj.cli", "bound", "--random-dim", "2", "--seed", "1",
         "--times", "0.5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["margin"] >= 0.0


# -- the run path: every subcommand's --output file and manifest ------------------

OUTPUT_CASES = {
    # name: (argv, manifest command, manifest config, manifest seed)
    "eval": (["eval", "--config", "{config}", "--times", "0.5,1", "--plus", "1,1", "--minus=1,-1"],
             "eval", "{config}", None),
    "dist": (["dist", "--config", "{config}", "--times", "0.5,1", "--format", "csv"],
             "dist", "{config}", None),
    "verify": (["verify", "--random-dim", "3", "--times", "0.4,0.9"], "verify", None, 0),
    "bound": (["bound", "--random-dim", "2", "--seed", "7", "--times", "0.5"], "bound", None, 7),
    "refine": (["refine", "--config", "{config}", "--times", "0.5,1.0", "--size", "4"],
               "refine", "{config}", None),
    "multiobs": (["multiobs", "--config", "{config}", "--times", "0.5,1.0", "--observables", "{obs}"],
                 "multiobs", "{config}", None),
    "opensys": (["opensys", "--model", "{model}", "--time", "1.0", "--study", "4,8"],
                "opensys", "{model}", None),
    "comb": (["comb", "--config", "{config}", "--times", "0.5,1", "--plus", "1,1", "--minus=1,-1",
              "--cross-check"], "comb", "{config}", None),
    "demo": (["demo", "rabi", "--points", "3"], "demo rabi", None, None),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_output_file_holds_the_printed_result_and_its_manifest(
    capsys, rabi_config, model_config, tmp_path, name
):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps([{"type": "pauli_z"}, {"type": "pauli_z"}]))
    paths = {"config": rabi_config, "model": model_config, "obs": str(obs)}
    argv, command, config, seed = OUTPUT_CASES[name]
    argv = [a.format(**paths) for a in argv]
    code, printed, err = run_cli(capsys, *argv)
    assert code == 0 and printed, err
    out_path = tmp_path / "result.out"
    assert run_cli(capsys, *argv, "--output", str(out_path)) == (0, "", "")
    assert out_path.read_bytes().decode("utf-8") == printed
    manifest = json.loads((tmp_path / "result.out.manifest.json").read_text())
    assert list(manifest) == ["command", "config", "seed", "version", "timestamp", "outputs"]
    assert manifest["command"] == command
    assert manifest["config"] == (config and config.format(**paths))
    assert manifest["seed"] == seed
    assert manifest["version"] == bt.__version__
    assert manifest["outputs"] == [str(out_path)]


@pytest.mark.parametrize("argv", [
    ["bitraj", "bound", "--random-dim", "2", "--seed", "1", "--times", "0.5"],
    ["bitraj", "demo", "nope"],
])
def test_console_script_is_main_and_exits_with_runs_code(capsys, monkeypatch, argv):
    tomllib = pytest.importorskip("tomllib")
    import bitraj.cli as cli_mod

    with (ROOT / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"bitraj": "bitraj.cli:main"}
    expected = run(argv[1:])
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == expected
