import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import errors, model
from bitraj.model import check_hermitian

from conftest import SIGMA_X, SIGMA_Z


def textbook_config():
    return {
        "dimension": 2,
        "hamiltonian": {"type": "static", "matrix": [[0, [0.5, 0]], [[0.5, 0], 0]]},
        "initial_state": {"matrix": [[1, 0], [0, 0]]},
        "observable": {"type": "pauli_z"},
    }


class TestValidateScenario:
    def test_textbook_qubit_is_valid(self):
        sc = bt.validate_scenario(textbook_config())
        assert sc.dimension == 2
        np.testing.assert_allclose(sc.schedule.segments[0][2], SIGMA_X / 2)
        assert sc.pvm.outcomes == (1.0, -1.0)

    def test_duplicate_projectors_fail_completeness_and_orthogonality(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.ObservablePVM((1.0, 2.0), (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
        assert err.value.has(errors.IncompletePVM)

    def test_overlap_reports_the_spectral_norm(self):
        # the overlap diag(1, 1, 0) has spectral norm 1 and Frobenius norm sqrt 2
        p = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(errors.ValidationError) as err:
            bt.ObservablePVM((1.0, 2.0), (p, p))
        overlaps = [str(v) for v in err.value.violations if "overlap" in str(v)]
        assert overlaps == ["projectors(1.0,2.0): overlap 1.000e+00 exceeds tol 1.0e-10"]
        # P - P^dagger has spectral norm 0.5 and Frobenius norm sqrt 0.5
        skew = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(errors.ValidationError) as err:
            bt.ObservablePVM((1.0, 2.0), (skew, np.eye(3) - skew))
        defects = [str(v) for v in err.value.violations if "Hermiticity" in str(v)]
        assert defects == [
            "projector(1.0): Hermiticity defect 5.000e-01 exceeds tol 1.0e-10",
            "projector(2.0): Hermiticity defect 5.000e-01 exceeds tol 1.0e-10",
        ]
        # P^2 - P = diag(2, 2, 0) has spectral norm 2 and Frobenius norm sqrt 8
        with pytest.raises(errors.ValidationError) as err:
            bt.ObservablePVM((1.0,), (np.diag([2.0, 2.0, 0.0]),))
        defects = [str(v) for v in err.value.violations if "P^2" in str(v)]
        assert defects == ["projector(1.0): ||P^2 - P|| = 2.000e+00 exceeds tol 1.0e-10"]

    def test_valid_pvm_needs_no_svd(self, monkeypatch):
        # every check of a valid PVM passes on its Frobenius norm
        pvm = bt.random_scenario(32, seed=5).pvm
        assert pvm.size == 32

        def no_svd(stack):
            raise AssertionError("a spectral norm was computed")

        monkeypatch.setattr("bitraj.model._spectral_norms", no_svd)
        rebuilt = bt.ObservablePVM(pvm.outcomes, pvm.projectors)
        assert rebuilt.outcomes == pvm.outcomes

    def test_bad_trace(self):
        cfg = textbook_config()
        cfg["initial_state"] = {"matrix": [[0.6, 0], [0, 0.6]]}
        with pytest.raises(errors.ValidationError) as err:
            bt.validate_scenario(cfg)
        assert err.value.has(errors.BadTrace)

    def test_non_hermitian_hamiltonian(self):
        cfg = textbook_config()
        cfg["hamiltonian"] = {"type": "static", "matrix": [[0, [1, 0]], [[0, 1], 0]]}
        with pytest.raises(errors.ValidationError) as err:
            bt.validate_scenario(cfg)
        assert err.value.has(errors.NonHermitian)

    def test_all_violations_collected(self):
        cfg = textbook_config()
        cfg["hamiltonian"] = {"type": "static", "matrix": [[0, [1, 0]], [[0, 1], 0]]}
        cfg["initial_state"] = {"matrix": [[0.6, 0], [0, 0.6]]}
        with pytest.raises(errors.ValidationError) as err:
            bt.validate_scenario(cfg)
        assert err.value.has(errors.NonHermitian)
        assert err.value.has(errors.BadTrace)

    def test_dimension_mismatch(self):
        cfg = textbook_config()
        cfg["dimension"] = 3
        with pytest.raises(errors.ParseError):
            bt.validate_scenario(cfg)

    def test_cross_dimension_mismatch(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.QuantumScenario(
                dimension=3,
                schedule=bt.HamiltonianSchedule.from_static(np.zeros((2, 2))),
                state=bt.DensityOperator(np.diag([1.0, 0.0])),
                pvm=bt.ObservablePVM.pauli_z(),
            )
        assert err.value.has(errors.DimensionMismatch)

    def test_ragged_matrix_names_row(self):
        cfg = textbook_config()
        cfg["hamiltonian"] = {"type": "static", "matrix": [[0, 0], [0]]}
        with pytest.raises(errors.ParseError, match="row 1"):
            bt.validate_scenario(cfg)

    @pytest.mark.parametrize("build, name", [
        (lambda m: bt.DensityOperator(m), "state"),
        (lambda m: bt.HamiltonianSchedule(((0.0, 1.0, SIGMA_Z), (1.0, 2.0, m))), "schedule segment 1"),
        (lambda m: bt.UnitaryMatrix(m, 0.0, 1.0), "propagator matrix"),
    ], ids=["state", "segment", "unitary"])
    @pytest.mark.parametrize("matrix", [[["a", 0], [0, 1]], [[{}, 0], [0, 1]], [[1, 0], [0]]], ids=["str", "dict", "ragged"])
    def test_a_matrix_that_is_not_numbers_names_its_argument(self, build, name, matrix):
        with pytest.raises(errors.ValidationError, match=f"{name}: expected a matrix of numbers") as err:
            build(matrix)
        assert [type(v) for v in err.value.violations] == [errors.DomainMismatch]

    def test_a_transposed_complex_matrix_is_read(self):
        # its last axis is strided, which a float view of the entries cannot take
        rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        assert np.array_equal(bt.DensityOperator(rho.T).matrix, rho.T)
        assert bt.operator_norm(rho.T) == bt.operator_norm(rho.T.copy())

    def test_missing_key(self):
        cfg = textbook_config()
        del cfg["observable"]
        with pytest.raises(errors.ParseError, match="observable"):
            bt.validate_scenario(cfg)

    def test_rabi_preset(self):
        cfg = {
            "dimension": 2,
            "hamiltonian": {"type": "preset", "name": "rabi", "omega": 2.0},
            "initial_state": {"type": "pure", "vector": [[1, 0], [0, 0]]},
            "observable": {"type": "pauli_z"},
        }
        sc = bt.validate_scenario(cfg)
        np.testing.assert_allclose(sc.schedule.segments[0][2], SIGMA_X)

    def test_piecewise_schedule(self):
        cfg = textbook_config()
        cfg["hamiltonian"] = {
            "type": "piecewise",
            "segments": [
                {"t_start": 0, "t_end": 1, "matrix": [[0, [0.5, 0]], [[0.5, 0], 0]]},
                {"t_start": 1, "t_end": 2, "matrix": [[1, 0], [0, [-1, 0]]]},
            ],
        }
        sc = bt.validate_scenario(cfg)
        assert sc.schedule.horizon == 2.0

    def test_non_contiguous_segments(self):
        with pytest.raises(errors.ValidationError):
            bt.HamiltonianSchedule(((0.0, 1.0, SIGMA_Z), (1.5, 2.0, SIGMA_Z)))


class TestSchedule:
    def test_static_has_unbounded_horizon(self):
        sched = bt.HamiltonianSchedule.from_static(SIGMA_X)
        assert math.isinf(sched.horizon)

    def test_from_function_midpoint_sampling(self):
        sched = bt.HamiltonianSchedule.from_function(
            lambda t: t * SIGMA_Z, horizon=1.0, segments=4
        )
        assert len(sched.segments) == 4
        a, b, h = sched.segments[0]
        np.testing.assert_allclose(h, 0.125 * SIGMA_Z)

    def test_from_function_default_density(self):
        sched = bt.HamiltonianSchedule.from_function(lambda t: SIGMA_Z, horizon=0.5)
        assert len(sched.segments) == 32  # 64 per unit time

    @pytest.mark.parametrize("horizon, segments", [(1e308, None), (1e7, None), (1.0, 10**9)])
    def test_from_function_refuses_a_segment_count_past_the_budget(self, horizon, segments):
        tracemalloc.start()
        try:
            with pytest.raises(errors.EnumerationTooLarge, match="sampled schedule"):
                bt.HamiltonianSchedule.from_function(lambda t: SIGMA_Z, horizon, segments)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_from_function_holds_at_least_its_count_a_segment(self):
        # the count is a floor: one 1 x 1 generator, shared by every segment
        h = np.ones((1, 1))
        tracemalloc.start()
        try:
            sched = bt.HamiltonianSchedule.from_function(lambda t: h, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 512 * len(sched.segments)

    def test_pieces_clipping(self):
        sched = bt.HamiltonianSchedule(((0.0, 1.0, SIGMA_X), (1.0, 2.0, SIGMA_Z)))
        pieces = list(sched.pieces(0.5, 1.5))
        assert pieces[0][:2] == (0.5, 1.0)
        assert pieces[1][:2] == (1.0, 1.5)

    def test_batched_hermiticity_defects_match_per_segment_check(self):
        rng = np.random.default_rng(3)
        hs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        hs[1] = hs[1] + hs[1].conj().T  # the one Hermitian segment
        segs = tuple((float(k), float(k + 1), h) for k, h in enumerate(hs))
        with pytest.raises(errors.ValidationError) as err:
            bt.HamiltonianSchedule(segs)
        want = [str(v) for k in (0, 2) for v in check_hermitian(hs[k], f"schedule segment {k}")]
        assert [str(v) for v in err.value.violations] == want

    def test_violations_stay_in_segment_order(self):
        segs = ((0.0, 1.0, SIGMA_X + 1e-3j * SIGMA_Z), (1.5, 2.0, SIGMA_Z))
        with pytest.raises(errors.ValidationError) as err:
            bt.HamiltonianSchedule(segs)
        kinds = [type(v) for v in err.value.violations]
        assert kinds == [errors.NonHermitian, errors.DegenerateInterval]

    @staticmethod
    def random_segments(n, d, seed=0):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        return [(k / n, (k + 1) / n, 0.5 * (x + x.conj().T)) for k, x in enumerate(g)]

    def test_hermiticity_check_peak_is_chunk_bounded(self):
        # 640 16x16 segments are 2.5 MiB; the check holds about four copies
        # of what it stacks, beside the schedule's own copy
        segs = tuple(self.random_segments(640, 16))
        nbytes = 640 * 16 * 16 * 16
        tracemalloc.start()
        try:
            bt.HamiltonianSchedule(segs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + 6 * model._CHUNK_BYTES

    @pytest.mark.parametrize("d, chunks", [(2, 1), (16, 10)])
    def test_hermiticity_chunks(self, d, chunks, monkeypatch):
        # 640 qubit segments, as a from_function schedule of 10 time units
        # has, are one chunk
        calls = []
        spectral_norms = model._spectral_norms
        monkeypatch.setattr(model, "_spectral_norms", lambda s: calls.append(len(s)) or spectral_norms(s))
        bt.HamiltonianSchedule(tuple(self.random_segments(640, d)))
        assert len(calls) == chunks and sum(calls) == 640

    def test_non_hermitian_segment_found_in_a_later_chunk(self):
        segs = self.random_segments(640, 16)
        a, b, h = segs[500]
        segs[500] = (a, b, h + 1e-3j * np.eye(16))
        with pytest.raises(errors.ValidationError) as err:
            bt.HamiltonianSchedule(tuple(segs))
        assert [str(v) for v in err.value.violations] == [
            str(v) for v in check_hermitian(segs[500][2], "schedule segment 500")]

    def test_wrong_dimension_segment_skips_hermiticity(self):
        segs = ((0.0, 1.0, SIGMA_X), (1.0, 2.0, np.triu(np.ones((3, 3)))))
        with pytest.raises(errors.ValidationError) as err:
            bt.HamiltonianSchedule(segs)
        assert [type(v) for v in err.value.violations] == [errors.DimensionMismatch]


class TestCoarseGraining:
    def test_rank_pattern(self):
        sc = bt.random_scenario(3, seed=1)
        grouped = bt.coarse_grain_pvm(sc.pvm, {0.0: 0.0, 1.0: 0.0, 2.0: 1.0})
        assert grouped.size == 2
        ranks = [int(round(np.trace(p).real)) for p in grouped.projectors]
        assert sorted(ranks) == [1, 2]

    def test_identity_grouping(self):
        sc = bt.random_scenario(3, seed=2)
        same = bt.coarse_grain_pvm(sc.pvm, {f: f for f in sc.pvm.outcomes})
        for p, q in zip(same.projectors, sc.pvm.projectors):
            np.testing.assert_allclose(p, q)

    def test_all_into_one_group(self):
        sc = bt.random_scenario(3, seed=3)
        one = bt.coarse_grain_pvm(sc.pvm, {f: 0.0 for f in sc.pvm.outcomes})
        assert one.size == 1
        np.testing.assert_allclose(one.projectors[0], np.eye(3), atol=1e-12)

    def test_uncovered_outcome(self):
        sc = bt.random_scenario(3, seed=4)
        with pytest.raises(errors.UncoveredOutcome):
            bt.coarse_grain_pvm(sc.pvm, {0.0: 0.0})

    def test_completeness_preserved(self):
        sc = bt.random_scenario(4, seed=5)
        grouped = bt.coarse_grain_pvm(sc.pvm, {0.0: 0.0, 1.0: 0.0, 2.0: 1.0, 3.0: 1.0})
        total = sum(grouped.projectors)
        assert np.linalg.norm(total - np.eye(4), 2) <= 1e-12


class TestRandomScenario:
    def test_deterministic_in_seed(self):
        a = bt.random_scenario(2, seed=7)
        b = bt.random_scenario(2, seed=7)
        assert a.fingerprint == b.fingerprint
        np.testing.assert_array_equal(a.state.matrix, b.state.matrix)
        np.testing.assert_array_equal(a.schedule.segments[0][2], b.schedule.segments[0][2])
        for p, q in zip(a.pvm.projectors, b.pvm.projectors):
            np.testing.assert_array_equal(p, q)

    def test_fingerprint_hashed_once_per_scenario(self, monkeypatch):
        calls = []
        real = bt.HamiltonianSchedule.content_bytes

        def counted(schedule):
            calls.append(schedule)
            return real(schedule)

        monkeypatch.setattr(bt.HamiltonianSchedule, "content_bytes", counted)
        sc = bt.rabi_scenario()
        # the value the golden table files carry for this scenario
        fingerprint = "0dafca36c410c18f8421de508b6d9b821fbedb8bee3b86260b98487fafff9f53"
        assert sc.fingerprint == fingerprint
        bt.check_properties(bt.full_distribution(sc, bt.TimeGrid((0.5, 1.0, 1.5))))
        assert sc.fingerprint == fingerprint
        assert len(calls) == 1

    def test_norm_cap(self):
        sc = bt.random_scenario(4, seed=1)
        h = sc.schedule.segments[0][2]
        evals = np.linalg.eigvalsh(h)
        assert np.abs(evals).max() <= 1.0 + 1e-12

    def test_pure_state_spectrum(self):
        sc = bt.random_scenario(3, seed=2, pure=True)
        evals = np.sort(np.linalg.eigvalsh(sc.state.matrix))[::-1]
        np.testing.assert_allclose(evals, [1.0, 0.0, 0.0], atol=1e-10)

    def test_outcome_groups(self):
        sc = bt.random_scenario(3, seed=6, outcome_groups=(2, 1))
        assert sc.pvm.size == 2
        assert not sc.pvm.is_rank_one

    def test_rejects_small_dimension(self):
        with pytest.raises(errors.ValidationError):
            bt.random_scenario(1, seed=0)

    @pytest.mark.parametrize("seed", [-1, None, 1.5, 2.0, "3", True])
    def test_rejects_a_seed_that_cannot_draw_it_again(self, seed):
        with pytest.raises(errors.ValidationError) as err:
            bt.random_scenario(3, seed)
        assert err.value.has(errors.DomainMismatch)
        assert "seed must be an integer >= 0" in str(err.value)

    def test_numpy_integer_seed_is_the_same_instance(self):
        a = bt.random_scenario(3, np.int64(11))
        assert a.fingerprint == bt.random_scenario(3, 11).fingerprint

    @pytest.mark.parametrize("d", [2.0, 2.5, True, "3", None])
    def test_rejects_a_dimension_that_is_not_an_integer(self, d):
        with pytest.raises(errors.ValidationError) as err:
            bt.random_scenario(d, 1)
        assert err.value.has(errors.DomainMismatch)
        assert "d must be an integer" in str(err.value)

    def test_numpy_integer_dimension_is_the_same_instance(self):
        a = bt.random_scenario(np.int64(3), 11)
        assert a.dimension == 3 and a.fingerprint == bt.random_scenario(3, 11).fingerprint

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_generator_pvm_invariants(self, d, seed):
        pvm = bt.random_scenario(d, seed=seed).pvm
        total = sum(pvm.projectors)
        assert np.linalg.norm(total - np.eye(d), 2) <= 1e-10
        for i, p in enumerate(pvm.projectors):
            assert np.linalg.norm(p @ p - p, 2) <= 1e-10
            for q in pvm.projectors[i + 1:]:
                assert np.linalg.norm(p @ q, 2) <= 1e-10


class TestImmutability:
    def test_arrays_are_frozen(self, rabi):
        with pytest.raises(ValueError):
            rabi.state.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            rabi.pvm.projectors[0][0, 0] = 5.0

    def test_time_grid_validation(self):
        with pytest.raises(errors.ValidationError):
            bt.TimeGrid((0.5, 0.5))
        with pytest.raises(errors.ValidationError):
            bt.TimeGrid((-1.0, 1.0))
        assert len(bt.TimeGrid(())) == 0


# Finite entries whose residual A - A^dagger overflows: the defect is NaN,
# which a `dev > tol` comparison would have let through
OVERFLOWING = np.array([[0, 1e308], [-1e308, 0]], dtype=complex)


class TestOverflowingOperators:
    def test_hamiltonian(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.HamiltonianSchedule.from_static(OVERFLOWING)
        assert err.value.has(errors.NonHermitian)

    def test_projector(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.ObservablePVM((1.0, -1.0), (np.eye(2) + OVERFLOWING, -OVERFLOWING))
        assert err.value.has(errors.NonHermitian)
        assert err.value.has(errors.NotAProjector)
        assert err.value.has(errors.IncompletePVM)

    def test_state(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.DensityOperator(np.diag([1.0, 0.0]) + OVERFLOWING)
        assert err.value.has(errors.NonHermitian)

    def test_open_model_v_o(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.OpenModel(SIGMA_Z, OVERFLOWING, 0.5, bt.rabi_scenario())
        assert err.value.has(errors.NonHermitian)

    def test_unitary_path(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((1.0, OVERFLOWING),), np.eye(2))
        assert err.value.has(errors.NonHermitian)
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((1.0, SIGMA_X),), OVERFLOWING)
        assert err.value.has(errors.NotUnitary)
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((float("nan"), SIGMA_X),), np.eye(2))
        # the rejected duration is the one violation: no durations-sum check follows
        assert [type(v) for v in err.value.violations] == [errors.DegenerateInterval]

    def test_unitary_matrix(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryMatrix(OVERFLOWING, 0.0, 1.0)
        assert err.value.has(errors.NotUnitary)

    def test_non_finite_outcome_value(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.ObservablePVM((float("nan"), 1.0), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert err.value.has(errors.DomainMismatch)


class TestConfigNumbers:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("hamiltonian",), {"type": "static", "matrix": [[0, 1], [1, 0]], "horizon": "abc"}),
            (("hamiltonian",), {"type": "preset", "name": "rabi", "omega": None}),
            (("hamiltonian",), {"type": "preset", "name": "rabi", "omega": True}),
            (("hamiltonian",), {"type": "piecewise", "segments": [
                {"t_start": 0, "t_end": "x", "matrix": [[0, 1], [1, 0]]}]}),
            (("observable",), {"values": ["a", 2], "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}),
            (("initial_state",), {"matrix": [[True, 0], [0, 0]]}),
            (("initial_state",), {"matrix": [[10 ** 400, 0], [0, 0]]}),
            (("dimension",), True),
        ],
    )
    def test_non_numbers_are_parse_errors(self, path, value):
        cfg = textbook_config()
        cfg[path[0]] = value
        with pytest.raises(errors.ParseError):
            bt.validate_scenario(cfg)

    def test_lambda(self):
        cfg = dict(textbook_config(), system={"h_o": [[1, 0], [0, -1]], "v_o": [[0, 1], [1, 0]],
                                              "lambda": "big"})
        with pytest.raises(errors.ParseError, match="lambda"):
            bt.OpenModel.from_dict(cfg)

    def test_real_from_json(self):
        from bitraj.serialize import real_from_json

        assert real_from_json(2) == 2.0 and real_from_json(-0.5) == -0.5
        for bad in (False, None, "1", [1.0], 10 ** 400):
            with pytest.raises(errors.ParseError):
                real_from_json(bad)
