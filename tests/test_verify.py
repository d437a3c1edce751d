import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import biprob, errors, verify
from bitraj.biprob import BiDistribution

from conftest import (
    all_tuples,
    grid,
    hermitian_part,
    oracle_biprob,
    oracle_bounding_check,
    oracle_psd_check,
    oracle_slot_defects,
    outcome,
    static_scenario,
)

TOL = verify.DEFAULT_PROPERTY_TOL


def count_stack_walks(monkeypatch) -> list:
    """Record every Heisenberg stack walk that the engine or the battery starts."""
    calls = []
    real = biprob.heisenberg_pvm_stacks

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (biprob, verify):
        monkeypatch.setattr(module, "heisenberg_pvm_stacks", counted)
    return calls


def random_grid(n, rng, horizon=1.5):
    # jittered uniform placement keeps times separated
    base = np.linspace(0.2, horizon, n)
    jitter = rng.uniform(-0.05, 0.05, size=n)
    return bt.TimeGrid(tuple(np.sort(base + jitter)))


class TestCheckProperties:
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_all_pass_on_random_scenarios(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        sc = bt.random_scenario(d, seed=seed)
        dist = bt.full_distribution(sc, random_grid(n, rng))
        report = bt.check_properties(dist)
        assert report.all_pass, report.to_json_dict()

    def test_pass_iff_within_tolerance(self, rabi):
        report = bt.check_properties(bt.full_distribution(rabi, grid(0.5, 1.0)))
        for c in report.checks:
            assert c.passed == (c.max_deviation <= c.tolerance)

    def test_expected_check_names(self, rabi):
        report = bt.check_properties(bt.full_distribution(rabi, grid(0.5)))
        names = [c.name for c in report.checks]
        assert names == [
            "Q1_normalization",
            "Q2_causality",
            "Q3_positive_semidefinite",
            "Q4_biconsistency",
            "P1_joint_probability",
            "P2_bounding",
            "P3_measurement_causality",
        ]

    def test_corrupted_entry_detected_with_witness(self, rabi):
        g = grid(np.pi / 2, np.pi)
        dist = bt.full_distribution(rabi, g)
        table = np.array(dist.table)
        table[0, 1, 0, 0] += 1e-3  # plus=(1,-1), minus=(1,1)
        corrupted = with_table(dist, table)
        report = bt.check_properties(corrupted)
        assert not report.all_pass
        q4 = report["Q4_biconsistency"]
        p2 = report["P2_bounding"]
        assert (not q4.passed) or (not p2.passed)
        assert not q4.passed
        assert q4.max_deviation == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("on_diagonal", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize(
        "d, n, slot", [(d, n, j) for d in (2, 3) for n in range(1, 5) for j in range(1, n + 1)]
    )
    def test_corrupted_entry_detected_at_every_slot(self, d, n, slot, on_diagonal):
        sc = bt.rabi_scenario(1.0) if d == 2 else bt.random_scenario(3, seed=5)
        dist = bt.full_distribution(sc, bt.TimeGrid(tuple(np.linspace(0.4, 2.2, n))))
        plus = [0] * n  # latest-first digits
        plus[n - slot] = 1
        minus = list(plus)
        if not on_diagonal:
            minus[n - slot] = 0  # the legs differ at the corrupted slot only
        table = np.array(dist.table)
        table[tuple(plus + minus)] += 1e-3
        corrupted = with_table(dist, table)
        report = bt.check_properties(corrupted)
        sets = dist.outcome_sets

        def near_worst(values, label):
            """The worst value and the labels within rounding of it."""
            worst = max(v.max() for v in values)
            return worst, {
                label(j, i) for j, v in enumerate(values, start=1)
                for i in np.flatnonzero(v >= worst - 1e-12)
            }

        defects = [oracle_slot_defects(corrupted, j) for j in range(1, n + 1)]
        q4 = report["Q4_biconsistency"]
        worst, witnesses = near_worst(
            [q for q, _ in defects],
            lambda j, i: f"slot {j}, {verify._label(sets[:j - 1] + sets[j:], i)}",
        )
        assert not q4.passed
        assert q4.max_deviation == pytest.approx(1e-3, rel=1e-9)
        assert abs(q4.max_deviation - worst) <= 1e-12 and q4.witness in witnesses

        p3 = report["P3_measurement_causality"]
        worst, witnesses = near_worst([defects[-1][1]], lambda j, i: verify._label(sets[:-1], i, 1))
        assert abs(p3.max_deviation - worst) <= 1e-12 and p3.witness in witnesses
        assert p3.passed != on_diagonal
        if n >= 2:
            rec = bt.classicality_report(corrupted)
            worst = max(p.max() for _, p in defects)
            assert abs(rec.consistency_deviation - worst) <= 1e-12

    def test_peak_is_the_hermitian_part_and_four_blocks(self, rabi):
        dist = bt.full_distribution(rabi, bt.TimeGrid(tuple(np.linspace(0.3, 2.7, 10))))
        k = 2**10
        tracemalloc.start()
        try:
            report = bt.check_properties(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_pass
        assert peak <= 16 * k * k + 4 * biprob._TABLE_BLOCK_BYTES

    def test_commuting_case_also_classical(self):
        sc = static_scenario(
            np.diag([0.4, -0.1]), np.diag([0.3, 0.7]), bt.ObservablePVM.pauli_z()
        )
        dist = bt.full_distribution(sc, grid(0.5, 1.0))
        assert bt.check_properties(dist).all_pass
        rec = bt.classicality_report(dist)
        assert rec.consistency_deviation <= 1e-12
        assert rec.offdiagonal_mass <= 1e-12

    def test_engine_slot_stacks_are_reused(self, monkeypatch):
        sc = bt.random_scenario(3, seed=11)
        dist = bt.full_distribution(sc, grid(0.3, 0.8, 1.4))
        calls = count_stack_walks(monkeypatch)
        report = bt.check_properties(dist)
        assert calls == []
        hand_built = BiDistribution(
            grid=dist.grid,
            outcome_sets=dist.outcome_sets,
            table=dist.table,
            fingerprint=dist.fingerprint,
            scenario=dist.scenario,
            pvms=dist.pvms,
        )
        assert bt.check_properties(hand_built) == report
        assert len(calls) == 1

    def test_sourceless_distribution_rejected(self, rabi, monkeypatch):
        dist = bt.full_distribution(rabi, grid(0.5))
        bare = BiDistribution(
            grid=dist.grid,
            outcome_sets=dist.outcome_sets,
            table=dist.table,
            fingerprint=dist.fingerprint,
        )

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("Q3 ran before the distribution was rejected")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        with pytest.raises(errors.DomainMismatch):
            bt.check_properties(bare)


def with_table(dist, table):
    """A hand-built copy of the engine distribution ``dist`` holding ``table``."""
    return BiDistribution(
        grid=dist.grid,
        outcome_sets=dist.outcome_sets,
        table=table,
        fingerprint=dist.fingerprint,
        scenario=dist.scenario,
        pvms=dist.pvms,
    )


# checks that read one entry of a Rabi n=2 table, off and on the diagonal
READS_OFF_DIAGONAL = {"Q1_normalization", "Q3_positive_semidefinite", "Q4_biconsistency", "P2_bounding"}
READS_DIAGONAL = READS_OFF_DIAGONAL | {"P1_joint_probability", "P3_measurement_causality"}


class TestNonFiniteEntries:
    @pytest.mark.parametrize(
        "index, value, failed",
        [
            ((0, 1, 0, 0), np.nan, READS_OFF_DIAGONAL),
            ((0, 0, 0, 0), np.nan, READS_DIAGONAL),
            ((0, 1, 0, 0), np.inf, READS_OFF_DIAGONAL),
            ((0, 0, 0, 0), -np.inf, READS_DIAGONAL),
        ],
        ids=["nan_off_diagonal", "nan_on_diagonal", "plus_inf", "minus_inf"],
    )
    def test_fails_every_check_that_reads_it(self, rabi, monkeypatch, index, value, failed):
        dist = bt.full_distribution(rabi, grid(np.pi / 2, np.pi))
        table = np.array(dist.table)
        table[index] = value

        def no_lapack(*args, **kwargs):
            raise AssertionError("Q3 called LAPACK on a non-finite table")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        monkeypatch.setattr(np.linalg, "qr", no_lapack)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = bt.check_properties(with_table(dist, table))
        assert not report.all_pass
        assert {c.name for c in report.checks if not c.passed} == failed
        assert math.isnan(report["Q3_positive_semidefinite"].max_deviation)


# H = 0, rho = |0><0| and a Z measurement: the n=2 table is exactly 1 at
# Q(+,+;+,+) and 0 elsewhere, so equal planted values tie exactly
OFF_DIAGONAL = ((0, 1, 1, 0), (1, 0, 0, 1))  # flat 6 and 9, both with f+_2 != f-_2
ON_DIAGONAL = ((0, 1, 0, 1), (1, 0, 1, 0))


class TestWorstCaseRule:
    """Every scan keeps a NaN over any number and the first of equal values."""

    @pytest.mark.parametrize("value", [0.25, math.nan], ids=["tie", "nan"])
    @pytest.mark.parametrize(
        "check, entries, witness",
        [
            ("Q2_causality", OFF_DIAGONAL, "plus=(1.0, -1.0), minus=(-1.0, 1.0)"),
            ("P2_bounding", OFF_DIAGONAL, "plus=(1.0, -1.0), minus=(-1.0, 1.0)"),
            # slot 1 and slot 2 deviate equally; slot 1 names the flat-6 entry
            ("Q4_biconsistency", OFF_DIAGONAL, "slot 1, plus=(1.0,), minus=(-1.0,)"),
            ("classicality", ON_DIAGONAL, None),
        ],
        ids=["Q2", "P2", "Q4", "classicality"],
    )
    def test_one_rule(self, check, entries, witness, value):
        sc = static_scenario(np.zeros((2, 2)), np.diag([1.0, 0.0]), bt.ObservablePVM.pauli_z())
        dist = bt.full_distribution(sc, grid(0.5, 1.0))
        table = np.array(dist.table)
        for index in entries:
            table[index] = value
        planted = with_table(dist, table)
        if check == "classicality":
            dev = bt.classicality_report(planted).consistency_deviation
        else:
            record = bt.check_properties(planted)[check]
            dev = record.max_deviation
            assert record.witness == witness
        assert dev == value or math.isnan(dev) and math.isnan(value)


class TestBoundingScan:
    @pytest.mark.parametrize(
        "d, n, corrupt",
        [(2, 2, None), (2, 9, None), (3, 6, None), (3, 6, (600, 100)), (3, 6, (300, 700))],
    )
    def test_matches_dense_oracle(self, d, n, corrupt):
        sc = bt.rabi_scenario(1.0) if d == 2 else bt.random_scenario(d, seed=5)
        dist = bt.full_distribution(sc, bt.TimeGrid(tuple(np.linspace(0.3, 2.4, n))))
        if corrupt is not None:  # an entry beyond its envelope, in a later row block
            k = d ** n
            table = np.array(dist.table)
            table.reshape(k, k)[corrupt] += 0.5
            dist = with_table(dist, table)
        p2 = bt.check_properties(dist)["P2_bounding"]
        assert p2 == oracle_bounding_check(dist, TOL)
        assert p2.passed == (corrupt is None)


# (d, n) of random engine tables with K = d^n >= 128, where Q3 tries a sketch
ENGINE_SHAPES = [(2, 7), (2, 8), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 3)]


class TestQ3Certificate:
    @pytest.mark.parametrize(
        "build, n, width",
        [
            (lambda: bt.rabi_scenario(1.0), 10, 16),
            (lambda: bt.random_scenario(8, seed=3), 3, 64),
            (lambda: bt.random_scenario(3, seed=5), 6, 16),
        ],
        ids=["rabi_n10", "random_d8_n3", "random_d3_n6"],
    )
    def test_certified_verdict_matches_eigvalsh(self, build, n, width):
        dist = bt.full_distribution(build(), bt.TimeGrid(tuple(np.linspace(0.3, 2.7, n))))
        report = bt.check_properties(dist)
        q3 = report["Q3_positive_semidefinite"]
        exact = oracle_psd_check(hermitian_part(dist.table), TOL)
        assert q3.passed and exact.passed
        assert f"p={width} " in q3.witness and "||E||_F" in q3.witness
        assert q3.tolerance <= exact.tolerance * (1 + 1e-12)
        assert bt.check_properties(dist) == report  # the sketch is seeded

    @pytest.mark.parametrize("n, tolerance", [(3, TOL), (8, 0.0)], ids=["k_below_p", "zero_tolerance"])
    def test_direct_eigvalsh(self, rabi, monkeypatch, n, tolerance):
        dist = bt.full_distribution(rabi, bt.TimeGrid(tuple(np.linspace(0.3, 2.4, n))))

        def no_sketch(*args, **kwargs):
            raise AssertionError("Q3 sketched")

        monkeypatch.setattr(np.linalg, "qr", no_sketch)
        q3 = bt.check_properties(dist, tolerance)["Q3_positive_semidefinite"]
        assert q3 == oracle_psd_check(hermitian_part(dist.table), tolerance)

    def test_sketch_overflow_falls_back(self):
        # finite entries whose sketch overflows to a non-finite B
        g = np.random.default_rng(1).standard_normal((256, 8)).view(complex)
        m_h = hermitian_part(g @ g.conj().T * 2.5e305)
        with np.errstate(invalid="ignore", over="ignore"):
            assert verify._psd_check(m_h, TOL, 4) == oracle_psd_check(m_h, TOL)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        source=st.one_of(
            st.sampled_from(ENGINE_SHAPES),
            st.integers(128, 320),  # K of a full-rank hand-built matrix
        ),
        seed=st.integers(0, 2**16),
        depth=st.sampled_from([1e-8, 2e-9]),
    )
    def test_planted_negative_eigenvalue_is_never_certified(self, source, seed, depth):
        rng = np.random.default_rng(seed)
        if isinstance(source, tuple):
            d, n = source
            dist = bt.full_distribution(bt.random_scenario(d, seed=seed), random_grid(n, rng))
            m_h = hermitian_part(dist.table)
            bound = min(d * d, d**n // 8)  # p <= K/8: the sketch runs
        else:
            g = rng.standard_normal((source, source)) + 1j * rng.standard_normal((source, source))
            m_h = g @ g.conj().T / source
            bound = 4
        w, v = np.linalg.eigh(m_h)
        shift = w[0] + depth * max(-w[0], w[-1])  # lambda_min becomes -depth ||m||
        planted = hermitian_part(m_h - shift * np.outer(v[:, 0], v[:, 0].conj()))
        exact = oracle_psd_check(planted, TOL)
        assert not exact.passed
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            assert verify._psd_check(planted, TOL, bound) == exact
        assert qr.call_count == 1  # one sketch, no power step


class TestInconsistencyDecomposition:
    def test_commuting_case_vanishes(self):
        sc = static_scenario(
            np.zeros((2, 2)), np.diag([0.2, 0.8]), bt.ObservablePVM.pauli_z()
        )
        rec = bt.inconsistency_decomposition(sc, grid(0.5, 1.0), (1.0, 1.0), 1)
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert abs(rec.offdiag_sum) <= 1e-12

    def test_rabi_slot_one(self, rabi):
        # the -1/4 entry plus its Hermitian partner
        rec = bt.inconsistency_decomposition(rabi, grid(np.pi / 2, np.pi), (1.0, 1.0), 1)
        assert rec.lhs == pytest.approx(-0.5, abs=1e-10)
        assert rec.offdiag_sum.real == pytest.approx(-0.5, abs=1e-10)
        assert abs(rec.offdiag_sum.imag) <= 1e-10

    def test_identity_against_enumeration_oracle(self):
        sc = bt.random_scenario(3, seed=9)
        g = grid(0.4, 0.8, 1.2)
        tup = (2.0, 0.0, 1.0)
        rec = bt.inconsistency_decomposition(sc, g, tup, 2)
        assert rec.lhs == pytest.approx(rec.offdiag_sum.real, abs=1e-10)
        assert abs(rec.offdiag_sum.imag) <= 1e-10
        # oracle: same sum assembled from brute-force entries
        oracle = 0.0 + 0.0j
        for fp in sc.pvm.outcomes:
            for fm in sc.pvm.outcomes:
                if fp == fm:
                    continue
                plus = (tup[0], fp, tup[2])
                minus = (tup[0], fm, tup[2])
                oracle += oracle_biprob(sc, g.times, plus, minus)
        assert rec.offdiag_sum == pytest.approx(oracle, abs=1e-10)
        # the probed component is ignored, even when it is not an outcome
        assert bt.inconsistency_decomposition(sc, g, (2.0, 7.5, 1.0), 2) == rec

    def test_propagates_once(self, monkeypatch):
        calls = count_stack_walks(monkeypatch)
        sc = bt.random_scenario(3, seed=4)
        bt.inconsistency_decomposition(sc, grid(0.3, 0.7, 1.1, 1.6), (0.0, 1.0, 2.0, 1.0), 3)
        assert len(calls) == 1

    def test_bad_position(self, rabi):
        with pytest.raises(errors.IndexOutOfRange):
            bt.inconsistency_decomposition(rabi, grid(0.5), (1.0,), 2)


class TestClassicality:
    def test_rabi_deviation_is_half(self, rabi):
        dist = bt.full_distribution(rabi, grid(np.pi / 2, np.pi))
        rec = bt.classicality_report(dist)
        assert rec.consistency_deviation == pytest.approx(0.5, abs=1e-10)
        assert rec.offdiagonal_mass > 0.4

    def test_deviation_bounded_by_mass(self):
        for seed in (3, 5, 8):
            sc = bt.random_scenario(3, seed=seed)
            dist = bt.full_distribution(sc, grid(0.5, 1.0, 1.5))
            rec = bt.classicality_report(dist)
            assert rec.consistency_deviation <= rec.offdiagonal_mass + 1e-10

    def test_needs_two_times(self, rabi):
        dist = bt.full_distribution(rabi, grid(1.0))
        with pytest.raises(errors.LengthMismatch):
            bt.classicality_report(dist)


class TestGrade2:
    def test_singleton_events_bilinear_expansion(self, rabi):
        dist = bt.full_distribution(rabi, grid(np.pi / 2, np.pi))
        a1, a2, a3 = [(1.0, 1.0)], [(1.0, -1.0)], [(-1.0, 1.0)]
        assert bt.grade2_check(dist, a1, a2, a3) <= 1e-12

    def test_random_disjoint_triples(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.9, 1.8))
        tuples = all_tuples((1.0, -1.0), 2)
        rng = np.random.default_rng(0)
        for _ in range(25):
            perm = rng.permutation(len(tuples))
            cut1, cut2 = sorted(rng.integers(1, len(tuples), size=2))
            a1 = [tuples[i] for i in perm[:cut1]]
            a2 = [tuples[i] for i in perm[cut1:cut2]]
            a3 = [tuples[i] for i in perm[cut2:]]
            assert bt.grade2_check(dist, a1, a2, a3) <= 1e-10

    def test_empty_event(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.9, 1.8))
        a1 = [(1.0, 1.0)]
        a2 = [(1.0, -1.0), (-1.0, -1.0)]
        assert bt.grade2_check(dist, a1, a2, []) <= 1e-12

    def test_overlap_rejected(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.9, 1.8))
        a = [(1.0, 1.0)]
        with pytest.raises(errors.OverlappingEvents):
            bt.grade2_check(dist, a, a, [])

    def test_mu_is_diagonal_probability_sum_for_full_event(self, rabi):
        # mu over the whole sample space is the table total = 1
        dist = bt.full_distribution(rabi, grid(0.9, 1.8))
        everything = all_tuples((1.0, -1.0), 2)
        dev = bt.grade2_check(dist, everything, [], [])
        assert dev <= 1e-12


class TestCauchyStabilization:
    def test_constant_function(self, rabi):
        grids = [grid(np.pi), grid(np.pi / 2, np.pi), grid(np.pi / 4, np.pi / 2, np.pi)]
        d1 = bt.full_distribution(rabi, grids[0])
        x = bt.TupleFunction.constant(grids[0], d1.outcome_sets)
        avgs = bt.cauchy_stabilization(rabi, grids, x)
        for a in avgs:
            assert a == pytest.approx(1.0, abs=1e-12)

    def test_indicator_chain(self, rabi):
        grids = [grid(1.0), grid(0.5, 1.0), grid(0.25, 0.5, 1.0)]
        d1 = bt.full_distribution(rabi, grids[0])
        x = bt.TupleFunction.indicator(grids[0], d1.outcome_sets, outcome((1.0,), (1.0,)))
        avgs = bt.cauchy_stabilization(rabi, grids, x)
        expected = bt.diagonal_probability(rabi, grids[0], (1.0,))
        for a in avgs:
            assert a == pytest.approx(expected, abs=1e-10)

    def test_random_nested_chain(self):
        sc = bt.random_scenario(3, seed=11)
        rng = np.random.default_rng(11)
        base = (0.7, 1.3)
        extra = [0.3, 0.95, 1.1]
        grids = [bt.TimeGrid(base)]
        times = list(base)
        for t in extra[:2]:
            times = sorted(times + [t])
            grids.append(bt.TimeGrid(tuple(times)))
        d1 = bt.full_distribution(sc, grids[0])
        values = rng.standard_normal(d1.table.shape) + 1j * rng.standard_normal(d1.table.shape)
        x = bt.TupleFunction(grids[0], d1.outcome_sets, values)
        avgs = bt.cauchy_stabilization(sc, grids, x)
        for a in avgs[1:]:
            assert a == pytest.approx(avgs[0], abs=1e-10)

    def test_not_nested_rejected(self, rabi):
        grids = [grid(1.0), grid(0.5, 0.9)]
        d1 = bt.full_distribution(rabi, grids[0])
        x = bt.TupleFunction.constant(grids[0], d1.outcome_sets)
        with pytest.raises(errors.NotNested):
            bt.cauchy_stabilization(rabi, grids, x)
