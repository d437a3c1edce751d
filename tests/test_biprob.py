import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import biprob, errors, propagate
from bitraj.biprob import (
    MEMORY_BUDGET,
    BiDistribution,
    _entry_gram,
    _entry_trace,
    latest_slot_causality,
)
from bitraj.comb import comb_table
from bitraj.propagate import heisenberg_pvm_stacks

from conftest import (
    PAULI_X_PVM,
    SIGMA_X,
    SIGMA_Z,
    all_tuples,
    grid,
    haar_unitary,
    oracle_biprob,
    outcome,
    static_scenario,
)


class TestEvalBiprob:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5, np.pi])
    def test_rabi_single_time(self, rabi, t):
        q_plus = bt.eval_biprob(rabi, grid(t), outcome((1.0,), (1.0,)))
        q_minus = bt.eval_biprob(rabi, grid(t), outcome((-1.0,), (-1.0,)))
        assert q_plus == pytest.approx((1 + np.cos(t)) / 2, abs=1e-12)
        assert q_minus == pytest.approx((1 - np.cos(t)) / 2, abs=1e-12)

    def test_frozen_hamiltonian_chain(self):
        sc = static_scenario(
            np.zeros((2, 2)), np.diag([0.3, 0.7]), bt.ObservablePVM.pauli_z()
        )
        g = grid(0.5, 1.0, 1.5)
        same = outcome((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        assert bt.eval_biprob(sc, g, same) == pytest.approx(0.3, abs=1e-14)
        mixed = outcome((1.0, -1.0, 1.0), (1.0, 1.0, 1.0))
        assert bt.eval_biprob(sc, g, mixed) == pytest.approx(0.0, abs=1e-14)

    def test_negative_entry_closed_form(self, rabi):
        # amplitudes <b|exp(-i sx t/2)|a>: diagonal cos(t/2), off-diagonal -i sin(t/2)
        g = grid(np.pi / 2, np.pi)
        q = bt.eval_biprob(rabi, g, outcome((1.0, 1.0), (1.0, -1.0)))
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        expected = c * c * (1j * s) * (1j * s)  # = -1/4
        assert q == pytest.approx(expected, abs=1e-12)
        assert q.real == pytest.approx(-0.25, abs=1e-12)

    def test_matches_brute_force_oracle(self, rabi):
        g = grid(np.pi / 2, np.pi)
        for plus in all_tuples((1.0, -1.0), 2):
            for minus in all_tuples((1.0, -1.0), 2):
                got = bt.eval_biprob(rabi, g, outcome(plus, minus))
                want = oracle_biprob(rabi, g.times, plus, minus)
                assert got == pytest.approx(want, abs=1e-12)

    def test_amplitude_path_equals_trace_path(self):
        # the default path contracts the amplitude vectors w(f+), w(f-)
        for seed in range(8):
            sc = bt.random_scenario(3, seed=seed)
            g = grid(0.4, 0.9, 1.7)
            for _ in range(4):
                rng = np.random.default_rng(100 + seed)
                pick = lambda: tuple(rng.choice(sc.pvm.outcomes, size=3))
                o = outcome(pick(), pick())
                fast = bt.eval_biprob(sc, g, o)
                slow = bt.eval_biprob(sc, g, o, method="trace")
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_length_mismatch(self, rabi):
        with pytest.raises(errors.LengthMismatch):
            bt.eval_biprob(rabi, grid(0.5, 1.0), outcome((1.0,), (1.0,)))

    def test_unknown_outcome(self, rabi):
        with pytest.raises(errors.UnknownOutcome):
            bt.eval_biprob(rabi, grid(0.5), outcome((2.0,), (1.0,)))

    def test_out_of_horizon(self):
        sched = bt.HamiltonianSchedule(((0.0, 1.0, SIGMA_Z),))
        sc = bt.QuantumScenario(
            2, sched, bt.DensityOperator(np.eye(2) / 2), bt.ObservablePVM.pauli_z()
        )
        with pytest.raises(errors.OutOfHorizon):
            bt.eval_biprob(sc, grid(2.0), outcome((1.0,), (1.0,)))


class TestFullDistribution:
    def test_qubit_single_time(self, rabi):
        dist = bt.full_distribution(rabi, grid(1.0))
        assert dist.table.size == 4
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_qubit_three_times_diagonal(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.7, 1.4, 2.1))
        assert dist.table.size == 64
        diag = dist.diagonal()
        assert diag.min() >= -1e-12
        # diagonal of the complex table is real
        labels = list(range(3))
        cdiag = np.einsum(dist.table, labels + labels, labels)
        assert np.abs(cdiag.imag).max() <= 1e-12

    def test_d3_causality_zeros(self):
        sc = bt.random_scenario(3, seed=2)
        dist = bt.full_distribution(sc, grid(0.5, 1.0))
        assert dist.table.size == 81
        for o, q in dist.entries():
            if o.plus[0] != o.minus[0]:
                assert abs(q) <= 1e-12

    def test_entries_lexicographic(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.5, 1.0))
        seen = [o for o, _ in dist.entries()]
        # first entry has everything at the first declared outcome
        assert seen[0].plus == (1.0, 1.0) and seen[0].minus == (1.0, 1.0)
        # last index varies fastest: the minus leg's earliest slot
        assert seen[1].minus == (1.0, -1.0)
        flat = dist.table.reshape(-1)
        for k, (o, q) in enumerate(dist.entries()):
            assert q == complex(flat[k])

    def test_enumeration_cap(self, rabi, no_gram_rows_past_cap):
        # 4^11 entries: a 64 MiB table plus W, just past the budget
        with pytest.raises(errors.EnumerationTooLarge, match="bytes"):
            bt.full_distribution(rabi, grid(*(0.1 * k for k in range(1, 12))))

    def test_budget_counts_the_path_vectors(self, no_gram_rows_past_cap):
        # 4^10 entries are a 16 MiB table, but a mixed d = 256 state makes W
        # (1024, 256, 256): 1 GiB, refused before any of it is built
        sc = bt.random_scenario(256, seed=0, outcome_groups=(128, 128))
        with pytest.raises(errors.EnumerationTooLarge, match="bytes"):
            bt.full_distribution(sc, grid(*(0.1 * k for k in range(1, 11))))

    def test_matches_oracle_entrywise(self):
        sc = bt.random_scenario(2, seed=9)
        g = grid(0.3, 0.8)
        dist = bt.full_distribution(sc, g)
        for o, q in dist.entries():
            assert q == pytest.approx(
                oracle_biprob(sc, g.times, o.plus, o.minus), abs=1e-12
            )

    def test_hermitian_symmetry(self):
        sc = bt.random_scenario(3, seed=4)
        dist = bt.full_distribution(sc, grid(0.6, 1.2))
        k = dist.table.reshape(9, 9)
        assert np.abs(k - k.conj().T).max() <= 1e-12

    def test_value_lookup(self, rabi):
        dist = bt.full_distribution(rabi, grid(np.pi / 2, np.pi))
        q = dist.value(outcome((1.0, 1.0), (1.0, -1.0)))
        assert q.real == pytest.approx(-0.25, abs=1e-12)


class TestTableOwnership:
    def test_caller_array_is_copied(self, rabi):
        mine = bt.full_distribution(rabi, grid(0.5)).table.copy()
        dist = bt.BiDistribution(grid(0.5), ((1.0, -1.0),), mine)
        before = dist.table.copy()
        mine[...] = 7.0
        assert np.array_equal(dist.table, before)

    def test_test_function_values_are_copied(self, rabi):
        mine = np.zeros((2, 2), dtype=complex)
        x = bt.TupleFunction(grid(0.5), ((1.0, -1.0),), mine)
        assert mine.flags.writeable and not x.values.flags.writeable
        mine[...] = 7.0
        assert not x.values.any()

    def test_engine_table_is_not_copied(self, rabi, monkeypatch):
        import bitraj.biprob as biprob

        built = []
        real = biprob._table_from_stacks

        def recording(state, stacks):
            built.append(real(state, stacks))
            return built[-1]

        monkeypatch.setattr(biprob, "_table_from_stacks", recording)
        dist = bt.full_distribution(rabi, grid(0.5, 1.0))
        assert dist.table is built[0]
        assert not dist.table.flags.writeable


class TestDiagonalProbability:
    def test_rabi_at_pi(self, rabi):
        assert bt.diagonal_probability(rabi, grid(np.pi), (1.0,)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_frozen_hamiltonian(self):
        sc = static_scenario(np.zeros((2, 2)), np.diag([0.25, 0.75]), bt.ObservablePVM.pauli_z())
        assert bt.diagonal_probability(sc, grid(0.4, 1.1), (-1.0, -1.0)) == pytest.approx(
            0.75, abs=1e-14
        )

    def test_normalization_by_enumeration(self):
        sc = bt.random_scenario(3, seed=5)
        g = grid(0.5, 1.0)
        total = sum(
            bt.diagonal_probability(sc, g, tup)
            for tup in all_tuples(sc.pvm.outcomes, 2)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMarginalize:
    def test_single_time_to_trivial(self, rabi):
        dist = bt.full_distribution(rabi, grid(1.0))
        trivial = bt.marginalize(dist, 1)
        assert trivial.n == 0
        assert trivial.total() == pytest.approx(1.0, abs=1e-12)
        assert trivial.value(outcome((), ())) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_reduced_evaluation(self):
        sc = bt.random_scenario(3, seed=6)
        g = grid(0.4, 0.9, 1.5)
        dist = bt.full_distribution(sc, g)
        marg = bt.marginalize(dist, 2)
        direct = bt.full_distribution(sc, grid(0.4, 1.5))
        assert np.abs(marg.table - direct.table).max() <= 1e-10

    def test_all_positions(self):
        sc = bt.random_scenario(2, seed=7)
        g = grid(0.3, 0.6, 0.9)
        dist = bt.full_distribution(sc, g)
        for j in (1, 2, 3):
            reduced_grid = g.without(j)
            marg = bt.marginalize(dist, j)
            direct = bt.full_distribution(sc, reduced_grid)
            assert marg.grid.times == reduced_grid.times
            assert np.abs(marg.table - direct.table).max() <= 1e-10

    def test_diagonal_only_marginal_misses_by_p4_remainder(self, rabi):
        # summing only diagonal entries over a middle slot is NOT the reduced
        # diagonal; the gap is exactly the off-diagonal mass of that slot
        g = grid(np.pi / 2, np.pi)
        dist = bt.full_distribution(rabi, g)
        j = 1
        diag = dist.diagonal()  # axes (f_2, f_1)
        summed = diag.sum(axis=1)  # marginalize slot 1 of the diagonal only
        reduced = bt.full_distribution(rabi, g.without(j)).diagonal()
        gap = reduced - summed
        rec = bt.inconsistency_decomposition(rabi, g, (1.0, 1.0), j)
        assert gap[0] == pytest.approx(rec.lhs, abs=1e-12)
        assert abs(gap[0]) > 1e-3  # genuinely nonzero for the rabi scenario

    def test_bad_position(self, rabi):
        dist = bt.full_distribution(rabi, grid(1.0))
        with pytest.raises(errors.IndexOutOfRange):
            bt.marginalize(dist, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(sizes=[3], seed=0)
    def test_slice_sum_matches_numpy_reduction(self, sizes, seed):
        rng = np.random.default_rng(seed)
        n = len(sizes)
        shape = tuple(sizes[::-1]) * 2
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sets = tuple(tuple(float(f) for f in range(k)) for k in sizes)
        dist = BiDistribution(
            grid=bt.TimeGrid(tuple(0.1 * (j + 1) for j in range(n))),
            outcome_sets=sets,
            table=table,
        )
        for j in range(1, n + 1):
            marg = bt.marginalize(dist, j)
            want = np.sum(table, axis=(n - j, 2 * n - j))
            assert marg.table.shape == want.shape
            assert marg.outcome_sets == sets[:j - 1] + sets[j:]
            assert np.abs(marg.table - want).max(initial=0.0) <= 1e-14
        labels = list(range(n))
        want_diag = np.real(np.einsum(table, labels + labels, labels))
        np.testing.assert_array_equal(dist.diagonal(), want_diag)


def _full_scan_causality(table):
    """The scan over all of |table| that the per-block scan replaces."""
    absq = np.abs(table)
    n = absq.ndim // 2
    view = np.moveaxis(absq, (0, n), (0, 1))
    view[np.eye(absq.shape[0], dtype=bool)] = 0.0
    return float(absq.max()), int(absq.argmax())


class TestLatestSlotCausality:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
        levels=st.integers(min_value=1, max_value=3),
        nans=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_full_scan(self, sizes, levels, nans, seed):
        # few distinct magnitudes, so the maximum is often tied across blocks
        rng = np.random.default_rng(seed)
        shape = tuple(sizes[::-1]) * 2
        table = rng.integers(0, levels, size=shape) * np.exp(1j * rng.uniform(0, 6, size=shape))
        for _ in range(nans):
            table[tuple(int(rng.integers(k)) for k in shape)] = np.nan
        dev, flat = latest_slot_causality(table)
        want_dev, want_flat = _full_scan_causality(table)
        assert (dev == want_dev) or (np.isnan(dev) and np.isnan(want_dev))
        assert flat == want_flat

    def test_all_zero_off_diagonal_gives_flat_index_zero(self):
        table = np.zeros((2, 3, 2, 3), dtype=complex)
        table[1, 2, 1, 0] = 0.7  # a diagonal block of the latest slot
        assert latest_slot_causality(table) == (0.0, 0)
        assert latest_slot_causality(np.ones((1, 2, 1, 2))) == (0.0, 0)

    def test_first_flat_index_of_a_tie(self):
        table = np.zeros((2, 2, 2, 2), dtype=complex)
        table[1, 0, 0, 0] = 0.5  # block (1, 0), flat index 8
        table[0, 1, 1, 1] = -0.5j  # block (0, 1), flat index 7
        assert latest_slot_causality(table) == (0.5, 7)


class TestAverage:
    def test_constant_function(self):
        sc = bt.random_scenario(2, seed=8)
        g = grid(0.5, 1.0)
        dist = bt.full_distribution(sc, g)
        x = bt.TupleFunction.constant(g, dist.outcome_sets)
        assert bt.average(dist, x) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_picks_entry(self, rabi):
        g = grid(np.pi / 2, np.pi)
        dist = bt.full_distribution(rabi, g)
        o = outcome((1.0, 1.0), (1.0, -1.0))
        x = bt.TupleFunction.indicator(g, dist.outcome_sets, o)
        assert bt.average(dist, x) == pytest.approx(dist.value(o), abs=1e-14)

    def test_product_function_matches_operator_oracle(self, rabi):
        # X(f+, f-) = f+_1 * f-_1 averages to tr[F_t1 rho F_t1] with F_t the
        # Heisenberg-picture observable, computed here via plain operators
        g = grid(0.8, 1.6)
        dist = bt.full_distribution(rabi, g)
        x = bt.TupleFunction.from_callable(
            g, dist.outcome_sets, lambda o: o.plus[1] * o.minus[1]
        )
        got = bt.average(dist, x)
        f_op = sum(
            f * bt.heisenberg_projector(rabi, f, 0.8) for f in rabi.pvm.outcomes
        )
        want = np.trace(f_op @ rabi.state.matrix @ f_op)
        assert got == pytest.approx(complex(want), abs=1e-12)

    def test_linear_in_x(self):
        sc = bt.random_scenario(2, seed=10)
        g = grid(0.4, 1.1)
        dist = bt.full_distribution(sc, g)
        rng = np.random.default_rng(0)
        shape = dist.table.shape
        xa = bt.TupleFunction(g, dist.outcome_sets, rng.standard_normal(shape) + 0j)
        xb = bt.TupleFunction(g, dist.outcome_sets, rng.standard_normal(shape) + 0j)
        combo = bt.TupleFunction(g, dist.outcome_sets, 2.0 * xa.values + 3.0 * xb.values)
        assert bt.average(dist, combo) == pytest.approx(
            2.0 * bt.average(dist, xa) + 3.0 * bt.average(dist, xb), abs=1e-12
        )

    def test_subgrid_insensitivity(self):
        # a function of the coarse slots only averages identically on the
        # finer grid: adding times does not change the value
        sc = bt.random_scenario(3, seed=11)
        coarse = grid(0.5, 1.2)
        fine = grid(0.3, 0.5, 0.9, 1.2)
        dist_c = bt.full_distribution(sc, coarse)
        dist_f = bt.full_distribution(sc, fine)
        rng = np.random.default_rng(1)
        x = bt.TupleFunction(
            coarse, dist_c.outcome_sets,
            rng.standard_normal(dist_c.table.shape) + 1j * rng.standard_normal(dist_c.table.shape),
        )
        lifted = x.lift(fine, dist_f.outcome_sets)
        assert bt.average(dist_f, lifted) == pytest.approx(
            bt.average(dist_c, x), abs=1e-10
        )

    def test_domain_mismatch(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.5, 1.0))
        x = bt.TupleFunction.constant(grid(0.5), ((1.0, -1.0),))
        with pytest.raises(errors.DomainMismatch):
            bt.average(dist, x)

    def test_lift_requires_membership(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.5))
        x = bt.TupleFunction.constant(grid(0.5), dist.outcome_sets)
        with pytest.raises(errors.NotNested):
            x.lift(grid(0.7, 1.0), ((1.0, -1.0), (1.0, -1.0)))


class TestExports:
    def test_json_layout(self, rabi):
        dist = bt.full_distribution(rabi, grid(1.0))
        doc = dist.to_json_dict()
        assert doc["times"] == [1.0]
        assert doc["outcomes"] == [1.0, -1.0]
        assert len(doc["entries"]) == 4
        entry = doc["entries"][0]
        assert set(entry) == {"plus", "minus", "re", "im"}
        total = sum(e["re"] for e in doc["entries"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_csv_rows(self, rabi):
        rows = list(bt.full_distribution(rabi, grid(1.0)).to_csv_rows())
        assert rows[0] == ["plus", "minus", "re", "im"]
        assert len(rows) == 5


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    d=st.integers(min_value=2, max_value=3),
    n=st.integers(min_value=1, max_value=3),
)
def test_table_sums_to_one_property(seed, d, n):
    sc = bt.random_scenario(d, seed=seed)
    g = bt.TimeGrid(tuple(0.4 * (k + 1) for k in range(n)))
    dist = bt.full_distribution(sc, g)
    assert abs(dist.total() - 1.0) <= 1e-10


def _compositions(d):
    """Ordered block sizes summing to d: every coarse-graining of a d-outcome PVM."""
    if d == 0:
        return [()]
    return [(k,) + rest for k in range(1, d + 1) for rest in _compositions(d - k)]


def _state_of_kind(d, kind, rng):
    """A rank-deficient state, or one with an eigenvalue of -1e-11."""
    weights = rng.uniform(0.1, 1.0, size=d)
    weights[-1] = 0.0
    weights /= weights.sum()
    if kind == "negative_eigenvalue":
        weights[-1] = -1e-11
        weights[0] += 1e-11
    v = haar_unitary(d, rng)
    return bt.DensityOperator((v * weights) @ v.conj().T)


def _assert_table_matches_oracles(sc, g, table, stacks, rng, pvms=None):
    n = len(g)
    for idx in np.ndindex(*table.shape):
        plus, minus = idx[:n][::-1], idx[n:][::-1]
        assert abs(table[idx] - _entry_trace(sc.state, stacks, plus, minus)) <= 1e-12
        assert abs(table[idx] - _entry_gram(sc.state, stacks, plus, minus)) <= 1e-12
    sets = [p.outcomes for p in (pvms or [sc.pvm] * n)][::-1]
    for flat in rng.choice(table.size, size=min(table.size, 6), replace=False):
        idx = np.unravel_index(flat, table.shape)
        plus = tuple(sets[a][idx[a]] for a in range(n))
        minus = tuple(sets[a][idx[n + a]] for a in range(n))
        want = oracle_biprob(sc, g.times, plus, minus, pvms=pvms)
        assert abs(table[idx] - want) <= 1e-12


class TestGramEngineCrossCheck:
    """The Gram table against the trace formula, the comb chain and the oracle."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        d=st.sampled_from([2, 3, 4]),
        grouping=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(["pure", "mixed", "rank_deficient", "negative_eigenvalue"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(d=3, grouping=0, n=2, kind="rank_deficient", seed=1)
    @example(d=4, grouping=5, n=2, kind="negative_eigenvalue", seed=2)
    def test_random_scenarios(self, d, grouping, n, kind, seed):
        groups = _compositions(d)[grouping % len(_compositions(d))]
        k = len(groups)
        while k ** n > 64:  # keeps the entrywise trace loop at <= 4096 entries
            n -= 1
        rng = np.random.default_rng(seed)
        sc = bt.random_scenario(d, seed, pure=kind == "pure", outcome_groups=groups)
        if kind in ("rank_deficient", "negative_eigenvalue"):
            sc = sc.with_state(_state_of_kind(d, kind, rng))
        g = bt.TimeGrid(tuple(np.cumsum(rng.uniform(0.1, 0.8, size=n))))
        table = bt.full_distribution(sc, g).table
        assert np.abs(comb_table(sc, g) - table).max() <= 1e-12
        _assert_table_matches_oracles(sc, g, table, list(heisenberg_pvm_stacks(sc, g.times)), rng)

    def test_mixed_slot_multiobs(self):
        sc = bt.random_scenario(2, seed=3)
        g = grid(0.3, 0.7, 1.2, 1.9)
        pvms = (bt.ObservablePVM.pauli_z(), PAULI_X_PVM) * 2
        seq = bt.ObservableSequence(pvms)
        table = bt.multiobs_distribution(sc, g, seq).table
        stacks = list(heisenberg_pvm_stacks(sc, g.times, pvms))
        _assert_table_matches_oracles(sc, g, table, stacks, np.random.default_rng(0), pvms)
        o = outcome((1.0, -1.0, -1.0, 1.0), (1.0, 1.0, -1.0, -1.0))
        assert abs(bt.eval_multiobs(sc, g, seq, o) - oracle_biprob(sc, g.times, o.plus, o.minus, pvms)) <= 1e-12


@pytest.mark.parametrize("levels, groups, n", [(32, None, 2), (64, (32, 32), 6)])
def test_table_fits_its_count(monkeypatch, levels, groups, n):
    # 32 levels: the table, W and one block; 64 levels in two blocks: W beside
    # the rows its last slot grows from
    sc = bt.random_scenario(levels, seed=0, outcome_groups=groups)
    stacks = list(heisenberg_pvm_stacks(sc, tuple(0.3 * (j + 1) for j in range(n))))
    monkeypatch.setattr(biprob, "MEMORY_BUDGET", 0)
    with pytest.raises(errors.EnumerationTooLarge) as err:
        biprob._table_from_stacks(sc.state, stacks)
    nbytes = int(re.search(r"take (\d+) bytes", str(err.value)).group(1))
    monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes)
    tracemalloc.start()
    try:
        table = biprob._table_from_stacks(sc.state, stacks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.size == math.prod(len(p) for p in stacks) ** 2
    assert peak <= nbytes + 64 * 2**10
    monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes - 1)
    with pytest.raises(errors.EnumerationTooLarge):
        biprob._table_from_stacks(sc.state, stacks)


def test_a_huge_table_is_refused_before_any_walk(monkeypatch):
    # 2^16000 entries: a count of 4,800 digits, which str() refuses, and
    # 8,000 Heisenberg stacks, of which none may be walked; the
    # bi-trajectory map's grid is not built either
    sc = bt.rabi_scenario()
    big = bt.TimeGrid(tuple(1e-4 * (j + 1) for j in range(8000)))
    model = bt.OpenModel(SIGMA_Z, SIGMA_X, 0.5, sc)

    def fail(*args, **kwargs):
        raise AssertionError("a walk began before the budget check")

    monkeypatch.setattr(propagate, "_walk", fail)
    for call in (
        lambda: bt.full_distribution(sc, big),
        lambda: bt.bitrajectory_map(model, 1.0, 8000, method="enumerate"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(errors.EnumerationTooLarge, match=r"table would take over 2\*\*\d+ bytes"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_table_memory_bounded_at_the_cap():
    # 32^4 = 4^10 entries: a 16 MiB table plus a 16 MiB W, within the
    # budget; a (k^n, k^n, d, d) intermediate would need about 17 GB
    sc = bt.random_scenario(32, seed=0)
    tracemalloc.start()
    try:
        dist = bt.full_distribution(sc, grid(0.5, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.table.size == 4**10
    assert peak < 2 * MEMORY_BUDGET  # 128 MiB
