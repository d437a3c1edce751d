"""End-to-end coverage for genuinely time-dependent schedules.

Most module tests use static Hamiltonians; these exercise piecewise and
midpoint-sampled schedules through evaluation, verification, bounds, the
instrument chain, and the open-system reconstruction.
"""

import numpy as np
import pytest

import bitraj as bt
from bitraj.comb import comb_table

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, grid, oracle_biprob, outcome


def piecewise_qubit(seed=0):
    rng = np.random.default_rng(seed)

    def herm():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return 0.5 * (g + g.conj().T)

    schedule = bt.HamiltonianSchedule(
        ((0.0, 0.5, herm()), (0.5, 1.1, herm()), (1.1, 2.0, herm()))
    )
    return bt.QuantumScenario(
        2, schedule, bt.DensityOperator(np.diag([0.6, 0.4])), bt.ObservablePVM.pauli_z()
    )


class TestPiecewiseScenario:
    def test_entries_match_oracle_across_segment_boundaries(self):
        sc = piecewise_qubit(seed=3)
        g = grid(0.5, 1.1, 1.7)  # two times sit exactly on segment edges
        dist = bt.full_distribution(sc, g)
        for o, q in dist.entries():
            want = oracle_biprob(sc, g.times, o.plus, o.minus)
            assert q == pytest.approx(want, abs=1e-12)

    def test_property_battery(self):
        sc = piecewise_qubit(seed=5)
        report = bt.check_properties(bt.full_distribution(sc, grid(0.3, 0.8, 1.4)))
        assert report.all_pass, report.to_json_dict()

    def test_norm_bounds(self):
        sc = piecewise_qubit(seed=7)
        g = grid(0.4, 0.9, 1.6)
        dist = bt.full_distribution(sc, g)
        bound = bt.uniform_bound(sc, g.times[-1])
        assert 1.0 - 1e-9 <= bt.l1_norm(dist) <= bound + 1e-9

    def test_comb_table_agrees(self):
        sc = piecewise_qubit(seed=9)
        g = grid(0.25, 0.5, 1.3)
        dist = bt.full_distribution(sc, g)
        assert np.abs(comb_table(sc, g) - dist.table).max() <= 1e-10

    def test_amplitude_path_agrees(self):
        # default entries (amplitude vector chains) against the trace oracle
        sc = piecewise_qubit(seed=11)
        g = grid(0.45, 1.05, 1.9)
        for o, q in bt.full_distribution(sc, g).entries():
            fast = bt.eval_biprob(sc, g, o)
            assert fast == pytest.approx(bt.eval_biprob(sc, g, o, method="trace"), abs=1e-12)
            assert fast == pytest.approx(q, abs=1e-12)


class TestSampledSmoothSchedule:
    def test_sampled_static_reproduces_static(self):
        # a constant function sampled onto segments is the static schedule
        sampled = bt.HamiltonianSchedule.from_function(
            lambda t: 0.5 * SIGMA_X, horizon=np.pi + 0.1, segments=50
        )
        sc = bt.QuantumScenario(
            2, sampled, bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z()
        )
        q = bt.eval_biprob(sc, grid(np.pi), outcome((1.0,), (1.0,)))
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_sampled_rotating_field_converges(self):
        # H(t) = cos(2t) sigma_x + sin(2t) sigma_z does not commute with
        # itself across times, so time ordering matters; midpoint sampling
        # still converges at second order in the segment width
        def field(t):
            return np.cos(2 * t) * SIGMA_X + np.sin(2 * t) * SIGMA_Z

        def prob(segments):
            sched = bt.HamiltonianSchedule.from_function(field, horizon=1.0, segments=segments)
            sc = bt.QuantumScenario(
                2, sched, bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z()
            )
            return bt.diagonal_probability(sc, grid(1.0), (1.0,))

        reference = prob(4096)
        coarse = abs(prob(8) - reference)
        fine = abs(prob(32) - reference)
        assert coarse > 1e-7  # the sampling error is actually visible
        assert fine <= coarse / 8  # ~16x for second order

    def test_uniform_bound_for_ramp(self):
        # ||H(t)|| = t for a linear ramp, so the integral over [0, 1] is 1/2
        sched = bt.HamiltonianSchedule.from_function(lambda t: t * SIGMA_Y, horizon=1.0, segments=64)
        sc = bt.QuantumScenario(
            2, sched, bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z()
        )
        bound = bt.uniform_bound(sc, 1.0)
        assert bound == pytest.approx(4.0 * np.exp(2 * 0.5), rel=1e-3)


class TestPiecewiseEnvironmentOpenSystem:
    def test_bitrajectory_converges_to_exact(self):
        env_schedule = bt.HamiltonianSchedule(
            ((0.0, 0.5, 0.8 * SIGMA_X), (0.5, 1.5, 0.3 * SIGMA_Z + 0.4 * SIGMA_X))
        )
        env = bt.QuantumScenario(
            2, env_schedule, bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z()
        )
        model = bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.6, environment=env)
        study = bt.convergence_study(model, 1.2, [8, 32, 128])
        assert study[-1].error <= study[0].error / 4
        assert study[-1].error <= 5e-3

    def test_enumerate_matches_contract_on_piecewise_env(self):
        env_schedule = bt.HamiltonianSchedule(
            ((0.0, 0.6, 0.5 * SIGMA_Y), (0.6, 2.0, 0.7 * SIGMA_X))
        )
        env = bt.QuantumScenario(
            2, env_schedule, bt.DensityOperator(np.diag([0.7, 0.3])), bt.ObservablePVM.pauli_z()
        )
        model = bt.OpenModel(h_sys=0.4 * SIGMA_X, v_sys=SIGMA_Z, coupling=0.5, environment=env)
        a = bt.bitrajectory_map(model, 1.8, 3, method="enumerate")
        b = bt.bitrajectory_map(model, 1.8, 3, method="contract")
        assert a.distance(b) <= 1e-12
