"""Byte-exact golden files for the table exports.

``tests/golden/*.json|csv`` hold the text ``bitraj dist``/``multiobs`` write
and the text of ``to_json_dict`` / ``to_csv_rows`` for a hand-built table of
special floats.  They were written by the per-entry serialiser the columnar
one replaced, so any change of layout, float spelling, line ending or entry
order shows up as a byte difference.  The computed cases (Rabi, qutrit) pin
IEEE doubles from numpy's LAPACK; the hand-built cases are exact anywhere.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import bitraj as bt
from bitraj.cli import _dist_text, load_config, run
from bitraj.model import _pvm_from_config

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    "rabi_n2": ["dist", "--config", str(GOLDEN / "rabi.json"), "--times", "0.5,1.25"],
    "rabi_n1": ["dist", "--config", str(GOLDEN / "rabi.json"), "--times", "0.75"],
    "multiobs_qutrit_n2": [
        "multiobs", "--config", str(GOLDEN / "qutrit.json"),
        "--observables", str(GOLDEN / "qutrit_observables.json"), "--times", "0.5,1.5",
    ],
}


def special_distribution() -> bt.BiDistribution:
    """Mixed outcome sets holding -0.0, and a table holding -0.0, NaN and +-inf."""
    sets = ((-0.0, 2.5), (1.0, 0.1, -3.0))
    shape = (3, 2, 3, 2)
    re = np.linspace(-1.7, 2.3, 36)
    im = np.linspace(0.4, -0.9, 36)
    re[[0, 5, 7, 11, 13, 17, 19]] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1]
    im[[0, 3, 7, 12, 30]] = [-0.0, np.nan, -np.inf, 1.0 / 3.0, 1e-300]
    table = np.empty(shape, dtype=complex)
    table.real = re.reshape(shape)
    table.imag = im.reshape(shape)
    return bt.BiDistribution(
        grid=bt.TimeGrid((0.5, 1.0)),
        outcome_sets=sets,
        table=table,
        fingerprint='hand-built "special" floats',
    )


def empty_grid_distribution() -> bt.BiDistribution:
    """The trivial distribution {() -> 1} on the empty grid."""
    return bt.BiDistribution(grid=bt.TimeGrid(()), outcome_sets=(), table=np.array(1.0 + 0.0j))


HAND_BUILT = {"special": special_distribution, "empty_grid": empty_grid_distribution}


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_file_is_byte_identical(case, fmt, tmp_path):
    out = tmp_path / f"table.{fmt}"
    assert run(CLI_CASES[case] + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == golden(f"{case}.{fmt}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_stdout_is_byte_identical(fmt, capsysbinary):
    assert run(CLI_CASES["rabi_n2"] + ["--format", fmt]) == 0
    assert capsysbinary.readouterr().out == golden(f"rabi_n2.{fmt}")


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_to_json_dict_text(case):
    text = json.dumps(HAND_BUILT[case]().to_json_dict(), indent=2) + "\n"
    assert text.encode() == golden(f"{case}.json")


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_to_csv_rows_text(case):
    assert csv_text(HAND_BUILT[case]().to_csv_rows()).encode() == golden(f"{case}.csv")


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_dist_text(case):
    dist = HAND_BUILT[case]()
    assert ("".join(_dist_text(dist, "json")) + "\n").encode() == golden(f"{case}.json")
    assert "".join(_dist_text(dist, "csv")).encode() == golden(f"{case}.csv")


def test_special_golden_holds_the_special_floats():
    text = golden("special.json").decode()
    for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1.7976931348623157e+308"):
        assert token in text
    rows = list(csv.reader(io.StringIO(golden("special.csv").decode(), newline="")))
    assert rows[1] == ["1 -0", "1 -0", "-0", "-0"]
    assert {"nan", "inf", "-inf"} <= {r[2] for r in rows[1:]}


def qutrit_mixed_distribution() -> bt.BiDistribution:
    scenario = load_config(str(GOLDEN / "qutrit.json"))
    specs = json.loads((GOLDEN / "qutrit_observables.json").read_text())
    seq = bt.ObservableSequence(tuple(_pvm_from_config(s, 3) for s in specs * 2))
    return bt.multiobs_distribution(scenario, bt.TimeGrid((0.25, 0.5, 1.5, 1.75)), seq)


COMPUTED = {
    "rabi_n4": lambda: bt.full_distribution(bt.rabi_scenario(1.3), bt.TimeGrid((0.3, 0.9, 1.4, 2.2))),
    "random_d3_n3": lambda: bt.full_distribution(bt.random_scenario(3, 7), bt.TimeGrid((0.4, 0.8, 1.9))),
    "qutrit_mixed_n4": qutrit_mixed_distribution,
}


def per_entry_walk(dist):
    """(plus, minus, value) per entry by np.ndindex over the latest-first axes."""
    n = dist.n
    rev = dist.outcome_sets[::-1]
    for idx in np.ndindex(dist.table.shape):
        plus = [rev[a][idx[a]] for a in range(n)]
        minus = [rev[a][idx[n + a]] for a in range(n)]
        yield plus, minus, complex(dist.table[idx])


@pytest.mark.parametrize("case", sorted(COMPUTED))
def test_exports_match_the_per_entry_walk(case):
    dist = COMPUTED[case]()
    walk = list(per_entry_walk(dist))
    assert dist.to_json_dict()["entries"] == [
        {"plus": p, "minus": m, "re": q.real, "im": q.imag} for p, m, q in walk
    ]

    def g17(values):
        return " ".join("%.17g" % f for f in values)

    assert list(dist.to_csv_rows())[1:] == [
        [g17(p), g17(m), "%.17g" % q.real, "%.17g" % q.imag] for p, m, q in walk
    ]
    assert [(o.plus, o.minus, q) for o, q in dist.entries()] == [
        (tuple(p), tuple(m), q) for p, m, q in walk
    ]
