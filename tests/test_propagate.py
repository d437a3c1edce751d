import collections
import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import errors, propagate
from bitraj._linalg import expm_hermitian
from bitraj.propagate import heisenberg_pvm_stacks, uniform_step_runs

from conftest import (
    SIGMA_X,
    SIGMA_Z,
    oracle_heisenberg,
    oracle_piece_propagator,
    oracle_propagator,
)


def two_segment_schedule(seed=0):
    rng = np.random.default_rng(seed)
    def herm():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return 0.5 * (g + g.conj().T)
    return bt.HamiltonianSchedule(((0.0, 1.0, herm()), (1.0, 2.0, herm())))


class TestPropagator:
    def test_rabi_half_turn(self, rabi):
        u = bt.propagator(rabi.schedule, 0.0, np.pi).matrix
        np.testing.assert_allclose(u, -1j * SIGMA_X, atol=1e-12)

    def test_empty_interval_is_identity(self):
        sched = two_segment_schedule()
        u = bt.propagator(sched, 0.7, 0.7).matrix
        np.testing.assert_array_equal(u, np.eye(2))

    def test_piecewise_product(self):
        sched = two_segment_schedule(seed=3)
        u = bt.propagator(sched, 0.0, 2.0).matrix
        expected = oracle_propagator(sched, 0.0, 2.0)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_reversed_interval_raises(self):
        sched = two_segment_schedule()
        with pytest.raises(errors.DegenerateInterval):
            bt.propagator(sched, 1.5, 0.5)

    def test_out_of_horizon(self):
        sched = two_segment_schedule()
        with pytest.raises(errors.OutOfHorizon):
            bt.propagator(sched, 0.0, 3.0)
        with pytest.raises(errors.OutOfHorizon):
            bt.propagator(sched, -0.5, 1.0)

    def test_cocycle_and_inverse(self):
        sched = two_segment_schedule(seed=7)
        u20 = bt.propagator(sched, 0.0, 2.0).matrix
        u21 = bt.propagator(sched, 1.0, 2.0).matrix
        u10 = bt.propagator(sched, 0.0, 1.0).matrix
        assert np.linalg.norm(u20 - u21 @ u10, 2) <= 1e-9
        np.testing.assert_allclose(u10.conj().T @ u10, np.eye(2), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        t_a=st.floats(min_value=0.0, max_value=2.0),
        t_b=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_unitarity_property(self, seed, t_a, t_b):
        sched = two_segment_schedule(seed=seed)
        lo, hi = sorted((t_a, t_b))
        u = bt.propagator(sched, lo, hi).matrix
        assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        segments=st.integers(min_value=1, max_value=11),
        data=st.data(),
    )
    def test_bitwise_equal_to_piece_loop(self, seed, d, segments, data):
        rng = np.random.default_rng(seed)
        edges = [0.0, *np.sort(rng.uniform(0.0, 3.0, segments - 1)).tolist(), 3.0]
        pieces = []
        for a, b in zip(edges[:-1], edges[1:]):
            if b > a:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                pieces.append((a, b, 0.5 * (g + g.conj().T)))
        sched = bt.HamiltonianSchedule(tuple(pieces))
        # segment edges, t_from > 0 and t_from = t_to are all reachable
        point = st.one_of(st.sampled_from(edges), st.floats(min_value=0.0, max_value=3.0))
        lo, hi = sorted((data.draw(point), data.draw(point)))
        if data.draw(st.booleans()):
            hi = lo
        u = bt.propagator(sched, lo, hi)
        assert u.interval == (lo, hi)
        np.testing.assert_array_equal(u.matrix, oracle_piece_propagator(sched, lo, hi))


class TestHeisenbergProjector:
    def test_time_zero_unchanged(self, rabi):
        p = bt.heisenberg_projector(rabi, 1.0, 0.0)
        np.testing.assert_array_equal(p, rabi.pvm.projector(1.0))

    def test_commuting_static_hamiltonian(self):
        sc = bt.QuantumScenario(
            2,
            bt.HamiltonianSchedule.from_static(0.7 * SIGMA_Z),
            bt.DensityOperator(np.diag([0.5, 0.5])),
            bt.ObservablePVM.pauli_z(),
        )
        for t in (0.3, 1.1, 4.0):
            p = bt.heisenberg_projector(sc, 1.0, t)
            np.testing.assert_allclose(p, sc.pvm.projector(1.0), atol=1e-12)

    def test_rabi_half_turn_swaps_projectors(self, rabi):
        p = bt.heisenberg_projector(rabi, 1.0, np.pi)
        np.testing.assert_allclose(p, rabi.pvm.projector(-1.0), atol=1e-12)

    def test_matches_oracle(self, rabi):
        p = bt.heisenberg_projector(rabi, -1.0, 1.3)
        np.testing.assert_allclose(p, oracle_heisenberg(rabi, -1.0, 1.3), atol=1e-12)
        assert np.linalg.norm(p @ p - p, 2) <= 1e-10

    def test_unknown_outcome(self, rabi):
        with pytest.raises(errors.UnknownOutcome):
            bt.heisenberg_projector(rabi, 3.0, 0.5)

    @pytest.mark.parametrize("t", [0.0, 0.4, 1.0, 1.7, 2.0])
    def test_conjugation_by_the_propagator(self, t):
        rng = np.random.default_rng(4)
        hs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        sched = bt.HamiltonianSchedule(tuple(
            (a, a + 1.0, 0.5 * (g + g.conj().T)) for a, g in zip((0.0, 1.0), hs)))
        sc = bt.QuantumScenario(
            3, sched, bt.DensityOperator(np.eye(3) / 3), bt.ObservablePVM.computational_basis(3))
        u = bt.propagator(sched, 0.0, t).matrix
        for f in sc.pvm.outcomes:
            np.testing.assert_array_equal(
                bt.heisenberg_projector(sc, f, t), u.conj().T @ sc.pvm.projector(f) @ u)


class TestOperatorNorm:
    def test_half_sigma_x(self):
        assert bt.operator_norm(SIGMA_X / 2) == pytest.approx(0.5, abs=1e-14)

    def test_zero_matrix(self):
        assert bt.operator_norm(np.zeros((3, 3))) == 0.0

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (g + g.conj().T)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        for _ in range(3000):
            v = h @ h @ v
            v /= np.linalg.norm(v)
        power_estimate = float(np.sqrt(np.real(np.vdot(v, h @ h @ v))))
        assert bt.operator_norm(h) == pytest.approx(power_estimate, abs=1e-10)

    def test_non_square(self):
        with pytest.raises(errors.DimensionMismatch):
            bt.operator_norm(np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        m = np.eye(2)
        m[0, 1] = value
        with pytest.raises(errors.DomainMismatch):
            bt.operator_norm(m)


def count_eigh(monkeypatch) -> list:
    """Record, per ``np.linalg.eigh`` call, the number of matrices it diagonalises."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def driven_schedule(segments=640, horizon=10.0):
    return bt.HamiltonianSchedule.from_function(
        lambda t: 0.5 * SIGMA_X + 0.3 * np.sin(t) * SIGMA_Z, horizon, segments=segments
    )


class TestPropagatorsAlong:
    @pytest.mark.parametrize(
        "schedule, times",
        [
            (bt.rabi_scenario().schedule, [0.0, 0.3, 1.7, 1.7, 40.0]),
            (two_segment_schedule(seed=19), [0.0, 0.4, 1.0, 1.3, 2.0]),
            (driven_schedule(segments=8, horizon=2.0), [0.25, 0.5, 0.6, 1.5, 1.75, 2.0]),
        ],
        ids=["static", "two_segment", "boundaries"],
    )
    def test_bitwise_equal_to_propagator(self, schedule, times):
        us = bt.propagators_along(schedule, times)
        assert len(us) == len(times)
        for u, t in zip(us, times):
            assert isinstance(u, bt.UnitaryMatrix) and u.interval == (0.0, t)
            np.testing.assert_array_equal(u.matrix, bt.propagator(schedule, 0.0, t).matrix)

    def test_empty_grid(self):
        assert bt.propagators_along(two_segment_schedule(), []) == []

    @pytest.mark.parametrize(
        "times, error",
        [
            ([0.5, 0.4], errors.DegenerateInterval),
            ([0.5, float("nan")], errors.NonFiniteTime),
            ([float("inf")], errors.NonFiniteTime),
            ([-float("inf"), 0.5], errors.NonFiniteTime),
            ([-0.1, 0.5], errors.OutOfHorizon),
            ([0.5, 2.5], errors.OutOfHorizon),
        ],
    )
    def test_invalid_times_raise(self, times, error):
        with pytest.raises(error):
            bt.propagators_along(two_segment_schedule(), times)

    def test_each_segment_diagonalised_at_most_once(self, monkeypatch):
        sc = bt.QuantumScenario(
            2, driven_schedule(), bt.DensityOperator.pure([1.0, 0.0]), bt.ObservablePVM.pauli_z()
        )
        grid = bt.TimeGrid(tuple(0.97 * (k + 1) for k in range(10)))
        calls = count_eigh(monkeypatch)
        list(heisenberg_pvm_stacks(sc, grid.times))
        # segments of 1/64 cover [0, 9.7] with 621 of the 640, in stacks
        assert sum(calls) == 621
        assert 0 < len(calls) <= -(-621 // propagate._chunk_len(2))

    def test_a_second_walk_diagonalises_nothing(self, monkeypatch):
        schedule = driven_schedule()
        sc = scenario_of(schedule)
        times = [0.97 * (k + 1) for k in range(10)]
        first = bt.propagators_along(schedule, times)
        calls = count_eigh(monkeypatch)
        again = bt.propagators_along(schedule, times)
        list(heisenberg_pvm_stacks(sc, times[3:]))
        bt.heisenberg_projector(sc, 1.0, 5.0)
        bt.propagator(schedule, 0.3, 9.7)
        step_runs(schedule, 9.7, 64)
        assert calls == []
        for u, v in zip(first, again):
            np.testing.assert_array_equal(u.matrix, v.matrix)


def step_runs(schedule, t: float, n: int, per_batch: int = 3) -> list:
    """``(dU, m)`` per run, read from the ``(dUs, ms)`` batches of uniform_step_runs."""
    batches = uniform_step_runs(schedule, t, n, per_batch)
    return [run for dus, ms in batches for run in zip(dus, ms, strict=True)]


def expand_runs(runs) -> list:
    """One step exponential per step, from ``(dU, m)`` runs."""
    return [du for du, m in runs for _ in range(m)]


class TestUniformStepRuns:
    CASES = [
        (bt.rabi_scenario().schedule, 1.0, 512),
        (two_segment_schedule(seed=19), 2.0, 7),
        (driven_schedule(segments=8, horizon=2.0), 1.9, 19),  # runs and crossings
        (driven_schedule(segments=12, horizon=2.0), 1.6, 3),  # steps across several edges
        (driven_schedule(segments=8, horizon=2.0), 2.0, 8),  # steps end on the edges
        (driven_schedule(segments=4, horizon=1.9), 1.9, 8),  # int(b / t * n) is one short at 1.425
    ]

    @pytest.mark.parametrize("schedule, t, n", CASES)
    def test_each_step_is_its_segment_exponential_or_the_walk(self, schedule, t, n):
        steps = expand_runs(step_runs(schedule, t, n))
        assert len(steps) == n
        for j, du in enumerate(steps, start=1):
            lo, hi = t * ((j - 1) / n), t * (j / n)
            inside = [h for a, b, h in schedule.segments if a <= lo and hi <= b]
            want = expm_hermitian(inside[0], -1j * (t / n)) if inside else bt.propagator(schedule, lo, hi).matrix
            np.testing.assert_array_equal(du, want)

    @pytest.mark.parametrize("schedule, t, n", CASES)
    def test_runs_compose_to_the_propagator(self, schedule, t, n):
        u = np.eye(schedule.dimension, dtype=complex)
        for du, m in step_runs(schedule, t, n):
            u = np.linalg.matrix_power(du, m) @ u
        np.testing.assert_allclose(u, oracle_propagator(schedule, 0.0, t), rtol=0, atol=1e-12)

    def test_run_lengths(self):
        assert [m for _, m in step_runs(bt.rabi_scenario().schedule, 1.0, 512)] == [512]
        # segments of 0.25 and steps of 0.1: two whole steps per segment at
        # most, between the steps that cross an edge
        runs = [m for _, m in step_runs(driven_schedule(segments=8, horizon=2.0), 1.9, 19)]
        assert sum(runs) == 19 and max(runs) == 2 and runs.count(1) > 1

    def test_each_covered_segment_diagonalised_once(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        step_runs(driven_schedule(), 9.7, 512)
        assert sum(calls) == 621  # segments of 1/64 cover [0, 9.7] with 621
        assert 0 < len(calls) <= -(-621 // propagate._chunk_len(2))

    @pytest.mark.parametrize(
        "t, error",
        [
            (float("nan"), errors.NonFiniteTime),
            (float("inf"), errors.NonFiniteTime),
            (-0.1, errors.OutOfHorizon),
            (2.5, errors.OutOfHorizon),
        ],
    )
    def test_invalid_time_raises(self, t, error):
        with pytest.raises(error):
            step_runs(two_segment_schedule(), t, 4)


def unbounded_schedule(seed=5, d=2):
    rng = np.random.default_rng(seed)
    hs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3)]
    edges = (0.0, 0.5, 1.0, math.inf)
    return bt.HamiltonianSchedule(tuple(
        (a, b, 0.5 * (g + g.conj().T)) for a, b, g in zip(edges[:-1], edges[1:], hs)))


def irregular_schedule(seed=11, d=3, segments=7):
    rng = np.random.default_rng(seed)
    edges = [0.0, *np.sort(rng.uniform(0.0, 3.0, segments - 1)).tolist(), 3.0]
    g = rng.standard_normal((segments, d, d)) + 1j * rng.standard_normal((segments, d, d))
    return bt.HamiltonianSchedule(tuple(
        (a, b, 0.5 * (x + x.conj().T)) for a, b, x in zip(edges[:-1], edges[1:], g)))


def edges_and_midpoints(schedule) -> list:
    edges = [a for a, _, _ in schedule.segments] + [schedule.horizon]
    return sorted(edges + [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])])


CHUNKED = {
    # a fresh schedule per call, whose memo no earlier walk has grown, and
    # points on and between its segment edges
    "driven": lambda: (driven_schedule(segments=8, horizon=2.0), [0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 1.0, 1.3, 1.75, 2.0]),
    "irregular": lambda: (irregular_schedule(), edges_and_midpoints(irregular_schedule())),
    "unbounded": lambda: (unbounded_schedule(), [0.0, 0.2, 0.5, 0.7, 1.0, 1.4, 3.0]),
    "static": lambda: (bt.HamiltonianSchedule.from_static(0.3 * SIGMA_X + 0.2 * SIGMA_Z), [0.0, 0.4, 2.5]),
}


def scenario_of(schedule) -> bt.QuantumScenario:
    d = schedule.dimension
    return bt.QuantumScenario(
        d, schedule, bt.DensityOperator(np.eye(d) / d), bt.ObservablePVM.computational_basis(d))


class TestChunkEdges:
    """Every walk, with the segments diagonalised one to three at a time."""

    @pytest.fixture(params=[1, 2, 3])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(propagate, "_chunk_len", lambda d: request.param)
        return request.param

    @pytest.mark.parametrize("name", list(CHUNKED))
    def test_propagator(self, chunk, name):
        # t_from and t_to on segment edges, chunk edges and inside both
        schedule, points = CHUNKED[name]()
        for i, lo in enumerate(points):
            for hi in points[i:]:
                u = bt.propagator(schedule, lo, hi).matrix
                np.testing.assert_array_equal(u, oracle_piece_propagator(schedule, lo, hi))
                np.testing.assert_allclose(u, oracle_propagator(schedule, lo, hi), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(CHUNKED))
    def test_propagators_along_and_heisenberg_stacks(self, chunk, name, monkeypatch):
        schedule, points = CHUNKED[name]()
        calls = count_eigh(monkeypatch)
        us = bt.propagators_along(schedule, points)
        sc = scenario_of(schedule)
        stacks = list(heisenberg_pvm_stacks(sc, points))
        covered = next(k for k, (_, b, _) in enumerate(schedule.segments) if b >= points[-1]) + 1
        # the stacks read the segments the propagators factored
        assert max(calls) <= chunk and sum(calls) == covered
        projectors = np.stack(sc.pvm.projectors)
        for u, stack, t in zip(us, stacks, points):
            want = oracle_piece_propagator(schedule, 0.0, t)
            np.testing.assert_array_equal(u.matrix, want)
            np.testing.assert_allclose(u.matrix, oracle_propagator(schedule, 0.0, t), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(stack, want.conj().T @ projectors @ want)

    @pytest.mark.parametrize("name, t, n", [
        ("driven", 2.0, 8), ("driven", 1.9, 19), ("driven", 1.6, 3),
        ("irregular", 2.9, 11), ("unbounded", 1.7, 5), ("static", 2.5, 4),
    ])
    def test_uniform_step_runs(self, chunk, name, t, n):
        schedule, _ = CHUNKED[name]()
        steps = expand_runs(step_runs(schedule, t, n, chunk))
        assert len(steps) == n
        u = np.eye(schedule.dimension, dtype=complex)
        for du, want in zip(steps, step_oracle(schedule, t, n)):
            np.testing.assert_array_equal(du, want)
            u = du @ u
        np.testing.assert_allclose(u, oracle_propagator(schedule, 0.0, t), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["unbounded", "static"])
    def test_unbounded_segment_never_exponentiated_whole(self, chunk, name, monkeypatch):
        schedule, points = CHUNKED[name]()
        scales = []
        expm = propagate.expm_from_eigh
        monkeypatch.setattr(
            propagate, "expm_from_eigh", lambda eig, scale: scales.append(scale) or expm(eig, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bt.propagator(schedule, 0.0, points[-1])
            bt.propagators_along(schedule, points)
            list(heisenberg_pvm_stacks(scenario_of(schedule), points))
            step_runs(schedule, points[-1], 7)
        assert scales and all(np.isfinite(s).all() for s in scales)


Walked = collections.namedtuple("Walked", "matrix interval")


def walk_records(schedule, t_from: float, times):
    """The batches of ``propagate._walk``, flattened lazily into one (matrix, interval) record per time."""
    for us, batch in propagate._walk(schedule, t_from, times):
        for u, t in zip(us, batch):
            yield Walked(u, (t_from, t))


class TestOverflowingSegment:
    """A segment whose phase overflows makes the walks through it NaN, quietly."""

    @staticmethod
    def schedule():
        h = np.full((2, 2), 1e308, dtype=complex)  # eigenvalue 2e308 overflows to inf
        return bt.HamiltonianSchedule(((0.0, 1.0, 0.5 * SIGMA_X), (1.0, 2.0, h), (2.0, 3.0, 0.5 * SIGMA_Z)))

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_times_before_it_are_unaffected(self, chunk, monkeypatch):
        monkeypatch.setattr(propagate, "_chunk_len", lambda d: chunk)
        schedule = self.schedule()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a batch is checked before it is yielded, so the earlier times are walked alone
            for u, t in zip(walk_records(schedule, 0.0, [0.5, 1.0]), (0.5, 1.0), strict=True):
                np.testing.assert_array_equal(u.matrix, oracle_piece_propagator(schedule, 0.0, t))
            with pytest.raises(errors.ValidationError, match=r"propagator on \[0\.0, 2\.5\]: unitarity defect") as err:
                list(walk_records(schedule, 0.0, [0.5, 1.0, 2.5]))
            assert err.value.has(errors.NotUnitary)
            steps = expand_runs(step_runs(schedule, 3.0, 6, chunk))
        # each step is its own exponential: only those on [1, 2] are NaN
        assert [bool(np.isfinite(du).all()) for du in steps] == [True, True, False, False, True, True]


def step_oracle(schedule, t: float, n: int) -> list:
    """Each step of a uniform grid over [0, t]: its segment's exponential, or the piece product across edges."""
    steps = []
    for j in range(1, n + 1):
        lo, hi = t * ((j - 1) / n), t * (j / n)
        inside = [h for a, b, h in schedule.segments if a <= lo and hi <= b]
        steps.append(expm_hermitian(inside[0], -1j * (t / n)) if inside else oracle_piece_propagator(schedule, lo, hi))
    return steps


def query(kind: str, schedule, args) -> list:
    """The arrays one query returns, in order."""
    if kind == "propagator":
        return [bt.propagator(schedule, *args).matrix]
    if kind == "along":
        return [u.matrix for u in bt.propagators_along(schedule, args)]
    if kind == "projector":
        return [bt.heisenberg_projector(scenario_of(schedule), *args)]
    runs = step_runs(schedule, *args)
    return [np.array([m for _, m in runs], dtype=float)] + expand_runs(runs)


def query_oracle(kind: str, schedule, args) -> list:
    if kind == "propagator":
        return [oracle_piece_propagator(schedule, *args)]
    if kind == "along":
        return [oracle_piece_propagator(schedule, 0.0, t) for t in args]
    if kind == "projector":
        f, t = args
        u = oracle_piece_propagator(schedule, 0.0, t)
        return [u.conj().T @ scenario_of(schedule).pvm.projector(f) @ u]
    return step_oracle(schedule, *args)


class TestMemo:
    """One schedule's memo, whatever its queries and their order, gives what a fresh schedule gives."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        segments=st.integers(min_value=1, max_value=9),
        unbounded=st.booleans(),
        over_cap=st.booleans(),
        chunk=st.sampled_from([1, 2, 3, 256]),
        data=st.data(),
    )
    def test_queries_in_any_order_are_bitwise_a_fresh_schedule_and_the_oracle(
            self, seed, d, segments, unbounded, over_cap, chunk, data):
        rng = np.random.default_rng(seed)
        edges = [0.0, *np.unique(rng.uniform(0.0, 3.0, segments - 1)).tolist(), 3.0]
        if unbounded:
            edges[-1] = math.inf
        g = rng.standard_normal((len(edges) - 1, d, d)) + 1j * rng.standard_normal((len(edges) - 1, d, d))
        pieces = tuple((a, b, 0.5 * (x + x.conj().T)) for a, b, x in zip(edges[:-1], edges[1:], g))
        # segment edges, t_from > 0 and times past the last finite edge are all reachable
        point = st.one_of(st.sampled_from(edges[:-1] + [3.0]), st.floats(min_value=0.0, max_value=4.0 if unbounded else 3.0))
        kinds = data.draw(st.lists(st.sampled_from(["propagator", "along", "projector", "runs"]), min_size=1, max_size=6))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagate, "_chunk_len", lambda d: chunk)
            if over_cap:
                patch.setattr(propagate, "_MEMO_BYTES", 0)
            shared = bt.HamiltonianSchedule(pieces)
            for kind in kinds:
                if kind == "propagator":
                    args = tuple(sorted((data.draw(point), data.draw(point))))
                elif kind == "along":
                    args = sorted(data.draw(st.lists(point, max_size=5)))
                elif kind == "projector":
                    args = (float(data.draw(st.integers(min_value=0, max_value=d - 1))), data.draw(point))
                else:
                    args = (data.draw(point), data.draw(st.integers(min_value=1, max_value=7)))
                got = query(kind, shared, args)
                fresh = query(kind, bt.HamiltonianSchedule(pieces), args)
                assert len(got) == len(fresh)
                for x, y in zip(got, fresh):
                    np.testing.assert_array_equal(x, y)
                for x, y in zip(got[kind == "runs":], query_oracle(kind, shared, args)):
                    np.testing.assert_array_equal(x, y)
        assert ("_memo" in vars(shared)) is not over_cap

    @pytest.mark.parametrize("make", [
        driven_schedule,
        lambda: irregular_schedule(d=16, segments=100),
        lambda: unbounded_schedule(d=4),
    ], ids=["driven_640", "irregular_d16", "unbounded_d4"])
    def test_held_bytes_within_the_count_and_under_the_cap(self, make):
        schedule = make()
        d, n = schedule.dimension, len(schedule.segments)
        t = min(schedule.horizon, 10.0)
        bt.propagator(make(), 0.0, t)  # the first walk at this dimension caches its chunk length
        tracemalloc.start()
        try:
            bt.propagator(schedule, 0.0, t)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        count = propagate._memo_bytes(d, n)
        assert schedule._memo.factored == schedule._memo.prefixed == n
        # all of it but one whole exponential and the small objects is held
        assert count - 16 * d * d - 2048 <= held <= count <= propagate._MEMO_BYTES

    def test_a_schedule_over_the_cap_keeps_no_memo_and_streams(self, monkeypatch):
        schedule = irregular_schedule(d=16, segments=100)
        d, n = 16, 100
        monkeypatch.setattr(propagate, "_MEMO_BYTES", propagate._memo_bytes(d, n) - 1)
        for call in (
            lambda: bt.propagator(schedule, 0.0, 2.9),
            lambda: bt.propagator(schedule, 0.5, 2.9),
            lambda: collections.deque(uniform_step_runs(schedule, 2.9, 37, 1), maxlen=0),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= propagate._walk_bytes(d, n)
        assert "_memo" not in vars(schedule)
        monkeypatch.setattr(propagate, "_MEMO_BYTES", propagate._memo_bytes(d, n))
        bt.propagator(schedule, 0.0, 2.9)
        assert schedule._memo.factored > 0

    def test_threads_sharing_a_schedule_see_what_one_thread_sees(self, monkeypatch):
        # chunks of two, so that the threads race to factor and to extend the
        # prefix products many times on one schedule
        monkeypatch.setattr(propagate, "_chunk_len", lambda d: 2)
        times = [0.97 * (k + 1) for k in range(10)]
        want = [u.matrix for u in bt.propagators_along(driven_schedule(segments=160), times)]
        shared = driven_schedule(segments=160)
        got, errors_seen = {}, []

        def walk(i):
            try:
                got[i] = [bt.propagator(shared, 0.0, t).matrix for t in times[i % 3::3]]
                got[i] += [du for du, _ in step_runs(shared, times[-1 - i % 4], 5)]
            except Exception as exc:  # reported after the join
                errors_seen.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors_seen
        fresh = driven_schedule(segments=160)
        for i in range(6):
            runs = [du for du, _ in step_runs(fresh, times[-1 - i % 4], 5)]
            for x, y in zip(got[i], want[i % 3::3] + runs, strict=True):
                np.testing.assert_array_equal(x, y)

    def test_a_pickled_schedule_starts_an_empty_memo(self):
        schedule = driven_schedule(segments=8, horizon=2.0)
        want = bt.propagator(schedule, 0.0, 1.3).matrix
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy._memo.factored == 0
        np.testing.assert_array_equal(bt.propagator(copy, 0.0, 1.3).matrix, want)


def random_pieces(seed: int, d: int, segments: int) -> tuple:
    rng = np.random.default_rng(seed)
    edges = [0.0, *np.unique(rng.uniform(0.0, 3.0, segments - 1)).tolist(), 3.0]
    g = rng.standard_normal((len(edges) - 1, d, d)) + 1j * rng.standard_normal((len(edges) - 1, d, d))
    return tuple((a, b, 0.5 * (x + x.conj().T)) for a, b, x in zip(edges[:-1], edges[1:], g)), edges


class TestBatchedWalk:
    """A walk forms its times in stacked batches; each matrix is still the per-time one, checked and read-only."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        segments=st.integers(min_value=1, max_value=9),
        over_cap=st.booleans(),
        chunk=st.sampled_from([1, 2, 3, 256]),
        data=st.data(),
    )
    def test_every_walked_matrix_is_bitwise_the_per_time_one(self, seed, d, segments, over_cap, chunk, data):
        pieces, edges = random_pieces(seed, d, segments)
        # time 0, segment edges and repeated times are all likely
        point = st.one_of(st.sampled_from(edges), st.floats(min_value=0.0, max_value=3.0))
        times = sorted(data.draw(st.lists(point, min_size=1, max_size=12)))
        times += data.draw(st.lists(st.sampled_from(times), max_size=3))
        times.sort()
        t_from = times[0] if data.draw(st.booleans()) else 0.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagate, "_chunk_len", lambda d: chunk)  # segments per chunk and times per batch
            if over_cap:
                patch.setattr(propagate, "_MEMO_BYTES", 0)
            schedule = bt.HamiltonianSchedule(pieces)
            walked = list(walk_records(schedule, t_from, times))
            assert len(walked) == len(times)
            for u, t in zip(walked, times):
                assert u.interval == (t_from, t) and not u.matrix.flags.writeable
                np.testing.assert_array_equal(u.matrix, oracle_piece_propagator(schedule, t_from, t))
                alone = bt.propagator(bt.HamiltonianSchedule(pieces), t_from, t)
                np.testing.assert_array_equal(u.matrix, alone.matrix)
        assert ("_memo" in vars(schedule)) is not over_cap

    def test_walked_matrices_are_read_only_and_share_nothing_with_the_memo(self):
        schedule = driven_schedule(segments=8, horizon=2.0)
        times = [0.0, 0.0, 0.3, 1.0, 1.0, 1.7]
        want = [oracle_piece_propagator(schedule, 0.0, t) for t in times]
        walks = (
            bt.propagators_along(schedule, times),
            [bt.propagator(schedule, 0.0, t) for t in times],
            list(walk_records(schedule, 0.25, times[2:])),
        )
        memo = schedule._memo
        for walk in walks:
            for u in walk:
                for held in (memo.evals, memo.evecs, memo.wholes, memo.prefix):
                    assert not np.shares_memory(u.matrix, held)
                with pytest.raises(ValueError):
                    u.matrix[0, 0] = 2.0
                with pytest.raises(ValueError):
                    u.matrix.setflags(write=True)
        for u, w in zip(bt.propagators_along(schedule, times), want, strict=True):
            np.testing.assert_array_equal(u.matrix, w)

    def test_a_planted_non_unitary_time_fails_only_the_full_walk(self):
        schedule = bt.HamiltonianSchedule(
            ((0.0, 1.0, 0.5 * SIGMA_X), (1.0, 2.0, 0.5 * SIGMA_Z), (2.0, 3.0, 0.3 * SIGMA_X)))
        bt.propagator(schedule, 0.0, 3.0)  # fills the memo's rows and prefix products
        schedule._memo.evecs[1] *= 1.001  # segment 1's eigenvectors are no longer orthonormal
        # a batch is checked before it is yielded, so the earlier times are walked alone
        for u, t in zip(walk_records(schedule, 0.0, [0.5, 1.0]), (0.5, 1.0), strict=True):
            np.testing.assert_array_equal(u.matrix, oracle_piece_propagator(schedule, 0.0, t))
        with pytest.raises(errors.ValidationError, match=r"propagator on \[0\.0, 1\.5\]: unitarity defect") as err:
            list(walk_records(schedule, 0.0, [0.5, 1.0, 1.5, 2.5]))
        assert err.value.has(errors.NotUnitary)

    def test_two_failing_times_in_one_batch_name_the_earliest_only(self):
        schedule = bt.HamiltonianSchedule(((0.0, 1.0, 0.5 * SIGMA_X), (1.0, 3.0, 0.5 * SIGMA_Z)))
        bt.propagator(schedule, 0.0, 3.0)
        memo = schedule._memo
        memo.evecs[1] *= 1.001  # the row covering 1.5 and 2.5
        with pytest.raises(errors.ValidationError) as walked:
            bt.propagators_along(schedule, [0.5, 1.5, 2.5])
        [fault] = walked.value.violations
        assert isinstance(fault, errors.NotUnitary)
        assert str(fault).startswith("propagator on [0.0, 1.5]: unitarity defect ")
        # the walk's matrix at 1.5, given to the constructor, fails the same check
        u = propagate.expm_from_eigh((memo.evals[1], memo.evecs[1]), -0.5j) @ memo.prefix[1]
        with pytest.raises(errors.ValidationError) as given_:
            bt.UnitaryMatrix(u, 0.0, 1.5)
        assert str(given_.value) == str(walked.value)


class TestUnitaryMatrix:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        m = np.eye(2, dtype=complex)
        m[0, 1] = value
        with pytest.raises(errors.ValidationError):
            bt.UnitaryMatrix(m, 0.0, 1.0)
        with pytest.raises(errors.ValidationError):
            bt.UnitaryMatrix(np.full((2, 2), value), 0.0, 1.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(errors.ValidationError):
            bt.UnitaryMatrix(np.diag([1.0, 1.0 + 1e-8]), 0.0, 1.0)
