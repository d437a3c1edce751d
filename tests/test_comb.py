import re
import tracemalloc

import numpy as np
import pytest

import bitraj as bt
from bitraj import biprob, errors
from bitraj.comb import comb_table

from conftest import grid, outcome


class TestBiInstrument:
    def test_definition_at_time_zero(self, rabi):
        inst = bt.bi_instrument(rabi, 1.0, 1.0, 0.0)
        p = rabi.pvm.projector(1.0)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(inst.apply(a), p @ a @ p, atol=1e-12)

    def test_completeness_at_every_time(self):
        sc = bt.random_scenario(3, seed=2)
        for t in (0.0, 0.4, 1.0, 1.7):
            total = np.zeros((9, 9), dtype=complex)
            for fp in sc.pvm.outcomes:
                for fm in sc.pvm.outcomes:
                    total += bt.bi_instrument(sc, fp, fm, t).matrix
            assert np.linalg.norm(total - np.eye(9), 2) <= 1e-10

    def test_diagonal_members_are_completely_positive(self, rabi):
        for t in (0.0, 0.8, 2.1):
            choi = bt.choi_matrix(bt.bi_instrument(rabi, 1.0, 1.0, t))
            assert np.abs(choi - choi.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(choi).min() >= -1e-10

    def test_offdiagonal_members_are_not_cp(self, rabi):
        # a non-Hermiticity-preserving map has a non-Hermitian Choi matrix;
        # the Hermitian part witnesses the CP failure
        for t in (0.0, 0.8, 2.1):
            choi = bt.choi_matrix(bt.bi_instrument(rabi, 1.0, -1.0, t))
            herm = 0.5 * (choi + choi.conj().T)
            assert np.linalg.eigvalsh(herm).min() < -1e-6

    def test_unknown_outcome(self, rabi):
        with pytest.raises(errors.UnknownOutcome):
            bt.bi_instrument(rabi, 2.0, 1.0, 0.5)

    def test_both_projectors_come_from_one_walk(self, monkeypatch):
        import bitraj.propagate as propagate

        walks = []
        real = propagate._walk

        def counting(*args):
            walks.append(args[1:])
            return real(*args)

        monkeypatch.setattr(propagate, "_walk", counting)
        sc = bt.random_scenario(3, seed=4)
        inst = bt.bi_instrument(sc, 0.0, 2.0, 0.7)
        assert len(walks) == 1
        p_plus, p_minus = (bt.heisenberg_projector(sc, f, 0.7) for f in (0.0, 2.0))
        np.testing.assert_allclose(inst.matrix, np.kron(p_minus.T, p_plus), atol=1e-12)


class TestCombBiprob:
    def test_single_slot_agreement(self, rabi):
        g = grid(0.9)
        for fp in (1.0, -1.0):
            for fm in (1.0, -1.0):
                o = outcome((fp,), (fm,))
                assert bt.comb_biprob(rabi, g, o) == pytest.approx(
                    bt.eval_biprob(rabi, g, o), abs=1e-12
                )

    def test_negative_witness(self, rabi):
        g = grid(np.pi / 2, np.pi)
        q = bt.comb_biprob(rabi, g, outcome((1.0, 1.0), (1.0, -1.0)))
        assert q.real == pytest.approx(-0.25, abs=1e-10)
        assert abs(q.imag) <= 1e-12

    def test_full_table_agreement_random_d3(self):
        sc = bt.random_scenario(3, seed=29)
        g = grid(0.4, 0.9, 1.3)
        dist = bt.full_distribution(sc, g)
        worst = 0.0
        for o, q in dist.entries():
            worst = max(worst, abs(bt.comb_biprob(sc, g, o) - q))
        assert worst <= 1e-10

    def test_comb_table_matches_distribution(self):
        sc = bt.random_scenario(2, seed=31)
        g = grid(0.3, 0.8, 1.5)
        dist = bt.full_distribution(sc, g)
        assert np.abs(comb_table(sc, g) - dist.table).max() <= 1e-10

    def test_comb_table_cap(self, rabi, monkeypatch):
        # the cap is checked before any slot is propagated or any table built
        monkeypatch.setattr("bitraj.comb.heisenberg_pvm_stacks", None)
        with pytest.raises(errors.EnumerationTooLarge):
            comb_table(rabi, grid(*(0.1 * k for k in range(1, 12))))

    def test_comb_table_peak_within_its_count_while_a_memo_fills(self, monkeypatch):
        # 4,000 qubit segments: the first walk fills a 0.85 MiB segment memo,
        # three times what the stacks and one streamed walk take
        schedule = bt.HamiltonianSchedule.from_function(
            lambda t: np.array([[0.3 * np.sin(t), 0.5], [0.5, -0.3 * np.sin(t)]]), 60.0, segments=4000)
        sc = bt.QuantumScenario(2, schedule, bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z())
        g = grid(20.0, 59.0)
        with monkeypatch.context() as patch:
            patch.setattr(biprob, "MEMORY_BUDGET", 0)
            with pytest.raises(errors.EnumerationTooLarge) as err:
                comb_table(sc, g)
        count = int(re.search(r"take (\d+) bytes", str(err.value)).group(1))
        tracemalloc.start()
        try:
            comb_table(sc, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 800_000 < peak <= count

    def test_comb_table_runs_at_sixteen_levels(self):
        # the (16, 16, 16, 16) state stack is 1 MiB; no d^4 instrument is formed
        sc = bt.random_scenario(16, seed=0)
        g = grid(0.5)
        assert np.abs(comb_table(sc, g) - bt.full_distribution(sc, g).table).max() <= 1e-12

    def test_length_mismatch(self, rabi):
        with pytest.raises(errors.LengthMismatch):
            bt.comb_biprob(rabi, grid(0.5, 1.0), outcome((1.0,), (1.0,)))
