import math
import tracemalloc

import numpy as np
import pytest

import bitraj as bt
from bitraj import errors, model

from conftest import grid, oracle_table_l1, static_scenario


class TestL1Norm:
    def test_commuting_case_is_one(self):
        sc = static_scenario(np.zeros((2, 2)), np.diag([0.3, 0.7]), bt.ObservablePVM.pauli_z())
        dist = bt.full_distribution(sc, grid(0.5, 1.0, 1.5))
        assert bt.l1_norm(dist) == pytest.approx(1.0, abs=1e-12)

    def test_rabi_matches_summation_oracle(self, rabi):
        g = grid(np.pi / 2, np.pi)
        dist = bt.full_distribution(rabi, g)
        assert bt.l1_norm(dist) == pytest.approx(oracle_table_l1(rabi, g.times), abs=1e-10)
        assert bt.l1_norm(dist) >= 1.0

    def test_at_least_one(self):
        for seed in (1, 2, 3):
            sc = bt.random_scenario(3, seed=seed)
            dist = bt.full_distribution(sc, grid(0.4, 1.0))
            assert bt.l1_norm(dist) >= 1.0 - 1e-12


class TestNonuniformBound:
    def test_qubit_two_times(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.5, 1.0))
        assert bt.nonuniform_bound(dist) == 4.0

    def test_d3_three_times(self):
        sc = bt.random_scenario(3, seed=1)
        dist = bt.full_distribution(sc, grid(0.4, 0.8, 1.2))
        assert bt.nonuniform_bound(dist) == 27.0

    def test_never_violated(self):
        for seed in range(6):
            sc = bt.random_scenario(2, seed=seed)
            dist = bt.full_distribution(sc, grid(0.3, 0.9, 1.4))
            assert bt.l1_norm(dist) <= bt.nonuniform_bound(dist) + 1e-12


class TestUniformBound:
    def test_overflowing_exponent_is_infinite(self):
        # 2 (d-1) * (1000/2) * 2 = 2000 overflows math.exp; inf is still an upper bound
        assert bt.uniform_bound(bt.rabi_scenario(1000.0), 2.0) == math.inf

    def test_half_sigma_x_one_unit_of_time(self, rabi):
        # d^2 exp[2 (d-1) * ||H|| * T] with ||H|| = 1/2, T = 1
        assert bt.uniform_bound(rabi, 1.0) == pytest.approx(4.0 * math.e, rel=1e-12)
        assert bt.uniform_bound(rabi, 1.0) == pytest.approx(10.8731, abs=1e-4)

    def test_frozen_hamiltonian_gives_d_squared(self):
        sc = static_scenario(np.zeros((3, 3)), np.eye(3) / 3, bt.ObservablePVM.computational_basis(3))
        assert bt.uniform_bound(sc, 5.0) == pytest.approx(9.0, abs=1e-12)

    def test_grid_independent(self):
        sc = bt.random_scenario(3, seed=4)
        horizon = 1.5
        bound = bt.uniform_bound(sc, horizon)
        for g in (grid(1.5), grid(0.3, 1.5), grid(0.2, 0.9, 1.1), grid(0.7,)):
            assert bt.uniform_bound(sc, horizon) == bound
            dist = bt.full_distribution(sc, g)
            assert bt.l1_norm(dist) <= bound + 1e-9

    def test_piecewise_integral_is_segment_exact(self):
        h1 = np.diag([1.0, -1.0])
        h2 = np.diag([0.5, -0.5])
        sched = bt.HamiltonianSchedule(((0.0, 1.0, h1), (1.0, 3.0, h2)))
        sc = bt.QuantumScenario(
            2, sched, bt.DensityOperator(np.eye(2) / 2), bt.ObservablePVM.pauli_z()
        )
        # integral over [0, 2] = 1*1 + 0.5*1
        assert bt.uniform_bound(sc, 2.0) == pytest.approx(4.0 * math.exp(2 * 1.5), rel=1e-12)

    @pytest.mark.parametrize("case", ["rabi", "drive_640_segments"])
    def test_batched_norms_equal_per_piece_loop(self, case):
        if case == "rabi":
            sc, horizon = bt.rabi_scenario(1.3), 2.5
        else:
            schedule = bt.HamiltonianSchedule.from_function(
                lambda t: np.array([[0.3 * math.cos(t), 0.6], [0.6, -0.3 * math.cos(t)]]),
                10.0, segments=640,
            )
            sc = bt.QuantumScenario(
                2, schedule, bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z()
            )
            horizon = 7.3  # ends inside a segment
        integral = 0.0
        for a, b, h in sc.schedule.pieces(0.0, horizon):
            integral += float(np.linalg.norm(h, 2)) * (b - a)
        d = sc.dimension
        assert bt.uniform_bound(sc, horizon) == d * d * math.exp(2.0 * (d - 1) * integral)

    def test_chunked_norms_equal_per_piece_loop(self, monkeypatch):
        # three pieces a chunk, so the 468 pieces up to 7.3 span 156 chunks
        monkeypatch.setattr(model, "_CHUNK_BYTES", 3 * 16 * 2**2)
        self.test_batched_norms_equal_per_piece_loop("drive_640_segments")

    def test_peak_is_a_few_chunks(self):
        # 640 random 16x16 segments hold 2.5 MiB; a stack of them all is as much again
        rng = np.random.default_rng(3)
        g = rng.standard_normal((640, 16, 16)) + 1j * rng.standard_normal((640, 16, 16))
        h = g + g.conj().transpose(0, 2, 1)
        schedule = bt.HamiltonianSchedule(tuple((k / 64, (k + 1) / 64, h[k]) for k in range(640)))
        sc = bt.QuantumScenario(16, schedule, bt.DensityOperator(np.eye(16) / 16),
                                bt.ObservablePVM.computational_basis(16))
        tracemalloc.start()
        try:
            bt.uniform_bound(sc, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * model._CHUNK_BYTES

    def test_out_of_horizon(self):
        sched = bt.HamiltonianSchedule(((0.0, 1.0, np.diag([1.0, -1.0])),))
        sc = bt.QuantumScenario(
            2, sched, bt.DensityOperator(np.eye(2) / 2), bt.ObservablePVM.pauli_z()
        )
        with pytest.raises(errors.OutOfHorizon):
            bt.uniform_bound(sc, 2.0)


class TestBuildRefinement:
    def test_single_time(self):
        mesh = bt.build_refinement(grid(1.0), 4)
        assert mesh.refined.times == (0.25, 0.5, 0.75, 1.0)
        assert mesh.injection == (4,)

    def test_snap_preserves_originals(self):
        mesh = bt.build_refinement(grid(0.5, 1.0), 4)
        assert 0.5 in mesh.refined.times
        assert 1.0 in mesh.refined.times
        assert mesh.refined.times[mesh.injection[0] - 1] == 0.5

    def test_irrational_ratio_gap_bound(self):
        mesh = bt.build_refinement(grid(1 / np.pi, 1.0), 64)
        assert mesh.max_gap() <= 2.0 / 64 + 1e-15
        assert 1 / np.pi in mesh.refined.times

    def test_too_coarse_reports_minimum(self):
        n0 = bt.minimum_refinement_size(grid(0.5, 1.0))
        assert n0 == 3
        with pytest.raises(errors.TooCoarse) as err:
            bt.build_refinement(grid(0.5, 1.0), 2)
        assert err.value.minimum == 3

    def test_mesh_is_refinement(self):
        mesh = bt.build_refinement(grid(0.31, 0.77, 1.21), 16)
        assert mesh.refined.is_refinement_of(mesh.base)
        assert mesh.injection[-1] == len(mesh.refined)

    def test_out_of_horizon(self):
        with pytest.raises(errors.OutOfHorizon):
            bt.build_refinement(grid(0.5, 1.0), 8, horizon=0.7)

    def test_size_past_the_budget_is_refused_before_any_time_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(errors.EnumerationTooLarge, match="refined grid"):
                bt.build_refinement(grid(0.5, 1.0), 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_refined_grid_peak_within_its_count(self):
        size = 100_000
        tracemalloc.start()
        try:
            mesh = bt.build_refinement(grid(0.3, 1.0), size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mesh.refined) == size
        assert peak <= 64 * size


class TestRefinementMonotonicity:
    def test_commuting_case_saturates_at_one(self):
        sc = static_scenario(np.zeros((2, 2)), np.diag([0.6, 0.4]), bt.ObservablePVM.pauli_z())
        mesh = bt.build_refinement(grid(0.5, 1.0), 4)
        rec = bt.refinement_monotonicity(sc, mesh)
        assert rec.norm_coarse == pytest.approx(1.0, abs=1e-12)
        assert rec.norm_fine == pytest.approx(1.0, abs=1e-12)

    def test_rabi_single_time_refined(self, rabi):
        mesh = bt.RefinementMesh(
            base=grid(np.pi), refined=grid(np.pi / 2, np.pi), injection=(2,)
        )
        rec = bt.refinement_monotonicity(rabi, mesh)
        assert rec.norm_coarse == pytest.approx(1.0, abs=1e-12)
        assert rec.norm_fine >= rec.norm_coarse - 1e-9

    def test_random_scenario_monotone(self):
        sc = bt.random_scenario(2, seed=13)
        mesh = bt.build_refinement(grid(0.5, 1.0), 4)
        rec = bt.refinement_monotonicity(sc, mesh)
        assert rec.norm_coarse <= rec.norm_fine + 1e-9

    def test_chain_is_nondecreasing(self, rabi):
        g = grid(0.5, 1.0)
        n0 = bt.minimum_refinement_size(g)
        norms = [bt.l1_norm(bt.full_distribution(rabi, g))]
        for size in (n0, 2 * n0):
            mesh = bt.build_refinement(g, size)
            norms.append(bt.l1_norm(bt.full_distribution(rabi, mesh.refined)))
        assert norms[0] <= norms[1] + 1e-9
        assert norms[1] <= norms[2] + 1e-9

    def test_enumeration_cap_respected(self, rabi, no_gram_rows_past_cap):
        mesh = bt.build_refinement(grid(0.5, 1.0), 11)  # 4^11 entries on the fine grid
        with pytest.raises(errors.EnumerationTooLarge):
            bt.refinement_monotonicity(rabi, mesh)


class TestCombinedInvariant:
    def test_sandwich_between_one_and_bounds(self):
        for seed in range(5):
            sc = bt.random_scenario(2, seed=seed)
            g = grid(0.4, 0.9, 1.3)
            dist = bt.full_distribution(sc, g)
            norm = bt.l1_norm(dist)
            limit = min(bt.nonuniform_bound(dist), bt.uniform_bound(sc, g.times[-1]))
            assert 1.0 - 1e-9 <= norm <= limit + 1e-9
