import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import errors

from conftest import (
    PAULI_X_PVM,
    SIGMA_X,
    all_tuples,
    grid,
    haar_unitary,
    oracle_biprob,
    oracle_generic_expansion,
    outcome,
    static_scenario,
)


def random_pvm(d, rng):
    u = haar_unitary(d, rng)
    projectors = tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d))
    return bt.ObservablePVM(tuple(float(k) for k in range(d)), projectors)


def brute_generic(unitaries, plus, minus):
    """Definitional oracle: amplitude chain with explicit overlaps."""
    n = len(unitaries)
    if plus[0] != minus[0] or plus[-1] != minus[-1]:
        return 0.0 + 0.0j
    p_asc = list(reversed(plus))
    m_asc = list(reversed(minus))
    amp = 1.0 + 0.0j
    for j in range(n - 1):
        a = unitaries[j + 1].conj().T @ unitaries[j]
        amp *= a[p_asc[j + 1], p_asc[j]] * np.conj(a[m_asc[j + 1], m_asc[j]])
    return complex(amp)


class TestEvalMultiobs:
    def test_reduces_to_single_observable(self, rabi):
        g = grid(0.5, 1.1)
        seq = bt.ObservableSequence((rabi.pvm, rabi.pvm))
        for plus in all_tuples((1.0, -1.0), 2):
            for minus in all_tuples((1.0, -1.0), 2):
                o = outcome(plus, minus)
                a = bt.eval_multiobs(rabi, g, seq, o)
                b = bt.eval_biprob(rabi, g, o)
                assert a == pytest.approx(b, abs=1e-12)

    def test_sigma_z_then_sigma_x_frozen_dynamics(self):
        sz = bt.ObservablePVM.pauli_z()
        sc = static_scenario(np.zeros((2, 2)), np.diag([1.0, 0.0]), sz)
        g = grid(0.5, 1.0)
        seq = bt.ObservableSequence((sz, PAULI_X_PVM))
        # slot 1 measures sigma_z on |up>, slot 2 measures sigma_x
        q = bt.eval_multiobs(sc, g, seq, outcome((1.0, 1.0), (1.0, 1.0)))
        assert q == pytest.approx(0.5, abs=1e-12)
        want = oracle_biprob(sc, g.times, (1.0, 1.0), (1.0, 1.0), pvms=[sz, PAULI_X_PVM])
        assert q == pytest.approx(want, abs=1e-12)

    def test_normalization_over_lattice(self):
        rng = np.random.default_rng(3)
        sc = bt.random_scenario(3, seed=3)
        seq = bt.ObservableSequence((random_pvm(3, rng), random_pvm(3, rng)))
        dist = bt.multiobs_distribution(sc, grid(0.6, 1.2), seq)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)

    def test_property_battery_passes(self):
        from conftest import p4_max_deviation

        rng = np.random.default_rng(7)
        sc = bt.random_scenario(2, seed=7)
        seq = bt.ObservableSequence(
            (random_pvm(2, rng), random_pvm(2, rng), random_pvm(2, rng))
        )
        dist = bt.multiobs_distribution(sc, grid(0.4, 0.8, 1.2), seq)
        report = bt.check_properties(dist, tolerance=1e-10)
        assert report.all_pass, report.to_json_dict()
        assert p4_max_deviation(dist) <= 1e-10

    def test_slot_outcome_mismatch(self, rabi):
        three = bt.ObservablePVM.computational_basis(2)
        seq = bt.ObservableSequence((rabi.pvm, three))
        with pytest.raises(errors.UnknownOutcome):
            bt.eval_multiobs(rabi, grid(0.5, 1.0), seq, outcome((5.0, 1.0), (5.0, 1.0)))

    def test_dimension_mismatch(self, rabi):
        seq = bt.ObservableSequence((bt.ObservablePVM.computational_basis(3),))
        with pytest.raises(errors.DimensionMismatch):
            bt.eval_multiobs(rabi, grid(0.5), seq, outcome((0.0,), (0.0,)))

    def test_norm_can_exceed_single_observable_bound(self):
        # alternating sigma_z / sigma_x slots with frozen dynamics: the
        # single-observable bound d^2 e^0 = 4 does not cover multi-observable
        # families; by n = 4 the norm reaches 8
        sz = bt.ObservablePVM.pauli_z()
        sc = static_scenario(np.zeros((2, 2)), np.diag([1.0, 0.0]), sz)
        g = grid(0.4, 0.8, 1.2, 1.6)
        seq = bt.ObservableSequence((PAULI_X_PVM, sz, PAULI_X_PVM, sz))
        dist = bt.multiobs_distribution(sc, g, seq)
        norm = bt.l1_norm(dist)
        naive = bt.uniform_bound(sc, g.times[-1])  # = 4 for H = 0
        assert naive == pytest.approx(4.0, abs=1e-12)
        assert norm > naive + 1e-6
        assert norm == pytest.approx(8.0, abs=1e-9)


class TestEvalGeneric:
    def test_identity_unitaries(self):
        us = (np.eye(2),) * 3
        assert bt.eval_generic(bt.GenericTuple(us, (0, 0, 0), (0, 0, 0))) == pytest.approx(1.0)
        assert bt.eval_generic(bt.GenericTuple(us, (0, 1, 0), (0, 1, 0))) == pytest.approx(0.0)
        assert bt.eval_generic(bt.GenericTuple(us, (1, 1, 1), (1, 1, 1))) == pytest.approx(1.0)

    def test_single_slot_delta(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(2, rng)
        assert bt.eval_generic(bt.GenericTuple((u,), (0,), (0,))) == pytest.approx(1.0)
        assert bt.eval_generic(bt.GenericTuple((u,), (0,), (1,))) == 0.0

    def test_matches_amplitude_oracle(self):
        rng = np.random.default_rng(17)
        us = tuple(haar_unitary(2, rng) for _ in range(3))
        for plus in itertools.product(range(2), repeat=3):
            for minus in itertools.product(range(2), repeat=3):
                got = bt.eval_generic(bt.GenericTuple(us, plus, minus))
                want = brute_generic(us, plus, minus)
                assert got == pytest.approx(want, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            bt.GenericTuple((np.eye(2),), (2,), (0,))

    def test_normalization_per_initial_index(self):
        # summing over everything but a fixed first-slot index gives 1
        rng = np.random.default_rng(23)
        us = tuple(haar_unitary(3, rng) for _ in range(2))
        for k0 in range(3):
            total = 0.0 + 0.0j
            for plus_rest in range(3):
                for minus_rest in range(3):
                    total += bt.eval_generic(
                        bt.GenericTuple(us, (plus_rest, k0), (minus_rest, k0))
                    )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestGenericL1Norm:
    def test_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for d, n in ((2, 3), (3, 2)):
            us = [haar_unitary(d, rng) for _ in range(n)]
            brute = sum(
                abs(bt.eval_generic(bt.GenericTuple(tuple(us), p, m)))
                for p in itertools.product(range(d), repeat=n)
                for m in itertools.product(range(d), repeat=n)
            )
            assert bt.generic_l1_norm(us) == pytest.approx(brute, abs=1e-10)

    def test_identical_slots_give_d(self):
        rng = np.random.default_rng(6)
        u = haar_unitary(3, rng)
        assert bt.generic_l1_norm([u, u, u]) == pytest.approx(3.0, abs=1e-12)


class TestDecomposition:
    def test_single_observable_single_time(self, rabi):
        seq = bt.ObservableSequence((rabi.pvm,))
        rec = bt.decompose_multiobs(rabi, grid(0.9), seq, outcome((1.0,), (1.0,)))
        assert rec.direct == pytest.approx(rec.reconstructed, abs=1e-12)

    def test_qubit_alternation_full_lattice(self):
        sz = bt.ObservablePVM.pauli_z()
        sc = static_scenario(0.5 * SIGMA_X, np.diag([0.8, 0.2]), sz)
        g = grid(0.6, 1.2)
        seq = bt.ObservableSequence((sz, PAULI_X_PVM))
        dist = bt.multiobs_distribution(sc, g, seq)
        for o, q in dist.entries():
            rec = bt.decompose_multiobs(sc, g, seq, o)
            assert rec.direct == pytest.approx(q, abs=1e-12)
            assert abs(rec.direct - rec.reconstructed) <= 1e-10

    def test_d3_random_pvm_pairs(self):
        rng = np.random.default_rng(19)
        sc = bt.random_scenario(3, seed=19)
        seq = bt.ObservableSequence((random_pvm(3, rng), random_pvm(3, rng)))
        g = grid(0.5, 1.0)
        dist = bt.multiobs_distribution(sc, g, seq)
        worst = 0.0
        for o, q in dist.entries():
            rec = bt.decompose_multiobs(sc, g, seq, o)
            worst = max(worst, abs(rec.direct - rec.reconstructed))
        assert worst <= 1e-9

    def test_degenerate_observable_blocks(self):
        sc = bt.random_scenario(3, seed=21, outcome_groups=(2, 1))
        seq = bt.ObservableSequence((sc.pvm, sc.pvm))
        g = grid(0.4, 0.9)
        rec = bt.decompose_multiobs(sc, g, seq, outcome((0.0, 1.0), (0.0, 0.0)))
        assert abs(rec.direct - rec.reconstructed) <= 1e-9

    def test_outcome_with_a_zero_projector(self):
        # outcome 2.0 is in the PVM with an empty block: its entries are 0
        pvm = bt.ObservablePVM(
            (0.0, 1.0, 2.0), (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]), np.zeros((3, 3))))
        sc = bt.random_scenario(3, seed=1)
        seq = bt.ObservableSequence((pvm, pvm))
        rec = bt.decompose_multiobs(sc, grid(0.5, 1.0), seq, outcome((2.0, 0.0), (2.0, 0.0)))
        assert rec.direct == 0.0 and rec.reconstructed == 0.0

    def test_no_generic_term_is_built(self, monkeypatch):
        # 8 levels in two blocks of 4: (4 * 4)^4 slot paths times 8^2 state
        # pairs is 4^11 generic terms, which the contraction never forms
        blocks = {float(f): float(f >= 4) for f in range(8)}
        pvm = bt.coarse_grain_pvm(bt.ObservablePVM.computational_basis(8), blocks)
        sc = bt.random_scenario(8, seed=3)
        seq = bt.ObservableSequence((pvm,) * 4)

        def no_term(*args):
            raise AssertionError("a generic term was built")

        monkeypatch.setattr("bitraj.multiobs.GenericTuple", no_term)
        monkeypatch.setattr("bitraj.multiobs.eval_generic", no_term)
        rec = bt.decompose_multiobs(
            sc, grid(0.3, 0.6, 0.9, 1.2), seq, outcome((0.0, 1.0) * 2, (1.0, 0.0) * 2))
        assert abs(rec.reconstructed - rec.direct) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        d=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=1, max_value=4),
        pure=st.booleans(),
        same_latest=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_contraction_matches_enumerated_terms(self, d, n, pure, same_latest, seed):
        rng = np.random.default_rng(seed)
        pvms = []
        for _ in range(n):  # a random rank-1 PVM coarse-grained into random blocks
            cuts = rng.choice(np.arange(1, d), size=rng.integers(0, d), replace=False)
            block_of = np.searchsorted(np.sort(cuts), np.arange(d), side="right")
            pvms.append(bt.coarse_grain_pvm(
                random_pvm(d, rng), {float(k): float(b) for k, b in enumerate(block_of)}))
        plus = tuple(float(rng.choice(p.outcomes)) for p in reversed(pvms))
        minus = tuple(float(rng.choice(p.outcomes)) for p in reversed(pvms))
        latest = pvms[-1].outcomes
        if same_latest or len(latest) == 1:
            minus = (plus[0],) + minus[1:]
        else:
            minus = (float(rng.choice([f for f in latest if f != plus[0]])),) + minus[1:]

        def block(pvm, f):
            return round(np.trace(pvm.projector(f)).real)

        terms = d * d * math.prod(
            block(p, fp) * block(p, fm) for p, fp, fm in zip(reversed(pvms), plus, minus))
        assume(terms <= 4096)
        sc = bt.random_scenario(d, seed=seed, pure=pure)
        g = bt.TimeGrid(tuple(np.cumsum(rng.uniform(0.1, 0.8, size=n))))
        seq = bt.ObservableSequence(tuple(pvms))
        o = outcome(plus, minus)
        rec = bt.decompose_multiobs(sc, g, seq, o)
        want = oracle_generic_expansion(sc, g.times, pvms, plus, minus)
        assert abs(rec.reconstructed - want) <= 1e-12
        assert abs(rec.reconstructed - bt.eval_multiobs(sc, g, seq, o)) <= 1e-10


class TestUnitaryPath:
    def test_zero_generator(self):
        path = bt.UnitaryPath(((1.0, np.zeros((2, 2))),), np.eye(2))
        assert bt.path_length(path) == 0.0
        np.testing.assert_allclose(path.unitary(0.7), np.eye(2))

    def test_single_segment_length(self):
        path = bt.UnitaryPath(((1.0, 0.5 * SIGMA_X),), np.eye(2))
        assert bt.path_length(path) == pytest.approx(0.5, abs=1e-14)

    def test_two_segment_length_additivity(self):
        v1, v2 = 0.5 * SIGMA_X, np.diag([2.0, -2.0])
        path = bt.UnitaryPath(((0.25, v1), (0.75, v2)), np.eye(2))
        assert bt.path_length(path) == pytest.approx(0.25 * 0.5 + 0.75 * 2.0, abs=1e-14)

    def test_length_matches_quadrature_oracle(self):
        v1, v2 = 0.5 * SIGMA_X, np.diag([2.0, -2.0])
        path = bt.UnitaryPath(((0.25, v1), (0.75, v2)), np.eye(2))
        taus = np.linspace(0, 1, 20001)
        def gen_norm(tau):
            return np.linalg.norm(v1 if tau < 0.25 else v2, 2)
        quad = np.trapezoid([gen_norm(t) for t in taus], taus)
        assert bt.path_length(path) == pytest.approx(quad, abs=1e-3)

    def test_curve_endpoint(self):
        path = bt.UnitaryPath(((1.0, np.pi * SIGMA_X / 2),), np.eye(2))
        np.testing.assert_allclose(path.endpoint(), -1j * SIGMA_X, atol=1e-12)

    def test_durations_must_sum_to_one(self):
        with pytest.raises(errors.ValidationError):
            bt.UnitaryPath(((0.5, SIGMA_X),), np.eye(2))

    def test_concatenation_preserves_length_and_points(self):
        p1 = bt.UnitaryPath(((1.0, 0.5 * SIGMA_X),), np.eye(2))
        p2 = bt.UnitaryPath(((1.0, np.diag([1.0, -1.0])),), np.eye(2))
        cat = p1.concatenated(p2)
        assert bt.path_length(cat) == pytest.approx(
            bt.path_length(p1) + bt.path_length(p2), abs=1e-12
        )
        np.testing.assert_allclose(cat.unitary(0.25), p1.unitary(0.5), atol=1e-12)
        np.testing.assert_allclose(cat.unitary(0.5), p1.endpoint(), atol=1e-12)


class TestPathBound:
    def test_overflowing_bound_is_inf_without_warning(self):
        path = bt.UnitaryPath(((1.0, 400.0 * SIGMA_X),), np.eye(2))
        assert bt.path_length(path) == pytest.approx(400.0, rel=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = bt.path_bound_check(path, [(0.5,)])
        assert rec.bound == math.inf

    def test_zero_generator_classical(self):
        path = bt.UnitaryPath(((1.0, np.zeros((2, 2))),), np.eye(2))
        rec = bt.path_bound_check(path, [(0.2, 0.5), (0.1, 0.4, 0.9)])
        # every slot is the same unitary: one classical unit per initial index
        assert rec.max_l1 == pytest.approx(2.0, abs=1e-12)
        assert rec.bound == pytest.approx(4.0, abs=1e-12)
        assert rec.max_l1 <= rec.bound

    def test_rabi_path_reproduces_single_observable_norms(self, rabi):
        # gamma(tau) = exp(-i tau T H) with anchor 1; sampling tau = t/T plus
        # the preparation slot at 0 matches the scenario's own table norms
        # summed over the pure initial basis states
        t_total = np.pi
        path = bt.UnitaryPath(((1.0, t_total * 0.5 * SIGMA_X),), np.eye(2))
        times = (np.pi / 2, np.pi)
        taus = (0.0,) + tuple(t / t_total for t in times)
        unitaries = [path.unitary(t) for t in taus]
        got = bt.generic_l1_norm(unitaries)
        want = 0.0
        for k in range(2):
            vec = np.zeros(2)
            vec[k] = 1.0
            sc = rabi.with_state(bt.DensityOperator.pure(vec))
            want += bt.l1_norm(bt.full_distribution(sc, grid(*times)))
        assert got == pytest.approx(want, abs=1e-10)

    def test_random_paths_respect_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            segs = []
            n_seg = int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(n_seg))
            for w in weights:
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                segs.append((float(w), 0.5 * (g + g.conj().T)))
            path = bt.UnitaryPath(tuple(segs), haar_unitary(2, rng))
            grids = [np.sort(rng.uniform(0, 1, size=rng.integers(1, 4))) for _ in range(3)]
            grids = [tuple(g) for g in grids if len(set(g)) == len(g)]
            rec = bt.path_bound_check(path, grids)
            assert rec.max_l1 <= rec.bound + 1e-9
