import contextlib
import re
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import biprob, errors, opensys, propagate
from bitraj._linalg import expm_hermitian, vec, unvec

from conftest import (
    SIGMA_X,
    SIGMA_Z,
    oracle_choi,
    oracle_heisenberg,
    oracle_piece_propagator,
    oracle_propagator,
    oracle_reduced_map,
    static_scenario,
)


def standard_model(coupling=0.5, omega=1.0):
    return bt.OpenModel(
        h_sys=0.5 * SIGMA_Z,
        v_sys=SIGMA_X,
        coupling=coupling,
        environment=bt.rabi_scenario(omega),
    )


def commuting_environment_model(coupling=0.7):
    env = static_scenario(
        np.diag([0.4, -0.3]), np.diag([0.35, 0.65]), bt.ObservablePVM.pauli_z()
    )
    return bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=coupling, environment=env)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def driven_environment(env, horizon, segments, seed):
    """``env`` with H(s) = H_0 + sin(3 s) H_1 on ``segments`` pieces of [0, horizon]."""
    h0 = env.schedule.segments[0][2]
    h1 = random_hermitian(np.random.default_rng(seed), env.dimension)
    schedule = bt.HamiltonianSchedule.from_function(
        lambda s: h0 + np.sin(3.0 * s) * h1, horizon, segments=segments
    )
    return bt.QuantumScenario(env.dimension, schedule, env.state, env.pvm)


def per_run_contract_map(model, t: float, n: int):
    """The contract map with V folded one run at a time, each run's dU from a call of its own.

    Steps inside one segment form a run, whose power is one matrix_power; a
    step across edges is the product of its pieces.  This is the order the
    batched map keeps, so the two agree bitwise; a non-finite V gives None.
    """
    env = model.environment
    schedule, d_e = env.schedule, env.dimension
    g = sum(np.kron(a, p) for a, p in zip(opensys._system_step_stack(model, t / n), env.pvm.projectors))
    runs = []  # [the run's segment, or None across edges, dU, m]
    with np.errstate(all="ignore"):  # an overflowing segment's steps are NaN
        for j in range(1, n + 1):
            lo, hi = t * ((j - 1) / n), t * (j / n)
            k = next((k for k, (a, b, _) in enumerate(schedule.segments) if a <= lo and hi <= b), None)
            if k is not None and runs and runs[-1][0] == k:
                runs[-1][2] += 1
            elif k is not None:
                runs.append([k, expm_hermitian(schedule.segments[k][2], -1j * (t / n)), 1])
            else:
                runs.append([None, oracle_piece_propagator(schedule, lo, hi), 1])
        v = np.eye(model.joint_dim, dtype=complex)
        for _, du, m in runs:
            v = np.linalg.matrix_power((g.reshape(-1, d_e) @ du).reshape(g.shape), m) @ v
    if not np.isfinite(v).all():
        return None
    return opensys._reduce_to_system(v, model.system_dim, d_e, env.state.matrix).matrix


class TestSuperoperator:
    def test_sandwich_matches_direct_product(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = bt.Superoperator.from_sandwich(x, y)
        np.testing.assert_allclose(s.apply(a), x @ a @ y, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_sandwich_is_bitwise_kron(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            np.testing.assert_array_equal(bt.Superoperator.from_sandwich(x, y).matrix, np.kron(y.T, x))

    def test_identity(self):
        rho = np.diag([0.2, 0.8])
        s = bt.Superoperator.identity(2)
        np.testing.assert_array_equal(s.apply(rho), rho)

    def test_vec_convention_round_trip(self):
        a = np.arange(9, dtype=complex).reshape(3, 3)
        np.testing.assert_array_equal(unvec(vec(a), 3), a)
        # column stacking: first d entries are the first column
        np.testing.assert_array_equal(vec(a)[:3], a[:, 0])

    def test_choi_of_unitary_conjugation(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        s = bt.Superoperator.from_sandwich(q, q.conj().T)
        choi = bt.choi_matrix(s)
        evals = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
        assert evals.min() >= -1e-12
        assert np.trace(choi) == pytest.approx(2.0, abs=1e-12)
        assert sum(e > 1e-9 for e in evals) == 1  # rank one


    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=2**16))
    def test_choi_is_the_matrix_unit_loop(self, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        s = bt.Superoperator(m, d)
        np.testing.assert_array_equal(bt.choi_matrix(s), oracle_choi(s))


def oracle_exact_operator(model, t):
    """The joint propagator, from scipy expm of the kron-built joint generator."""
    eye_o = np.eye(model.system_dim)
    eye_e = np.eye(model.environment.dimension)
    f_op = model.coupling_operator
    segments = tuple(
        (a, b, np.kron(model.h_sys, eye_e) + np.kron(eye_o, h)
         + model.coupling * np.kron(model.v_sys, f_op))
        for a, b, h in model.environment.schedule.segments
    )
    return oracle_propagator(bt.HamiltonianSchedule(segments), 0.0, t)


def oracle_contract_operator(model, t, n_steps):
    """T_n ... T_1 with T_j = sum_f expm(-i dt (H_O + lambda f V_O)) kron P_{t_j}(f)."""
    env = model.environment
    dt = t / n_steps
    v = np.eye(model.joint_dim, dtype=complex)
    for j in range(1, n_steps + 1):
        t_j = t * (j / n_steps)
        step = sum(
            np.kron(
                scipy.linalg.expm(-1j * dt * (model.h_sys + model.coupling * f * model.v_sys)),
                oracle_heisenberg(env, f, t_j),
            )
            for f in env.pvm.outcomes
        )
        v = step @ v
    return v


def mp_contract_operator(model, t, n_steps):
    """T_n ... T_1 of ``oracle_contract_operator`` in 40-digit mpmath, as complex128.

    Every propagator is the piece-by-piece product from time 0, and every
    exponential is mpmath's expm of the exact float inputs.
    """
    env = model.environment

    def mat(a):
        return mpmath.matrix(np.asarray(a, dtype=complex).tolist())

    def kron(a, b):
        return mpmath.matrix([[a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]
                               for j in range(a.cols * b.cols)] for i in range(a.rows * b.rows)])

    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        h_o, v_o, lam = mat(model.h_sys), mat(model.v_sys), mpmath.mpf(model.coupling)
        steps = [mpmath.expm(-1j * (t / n_steps) * (h_o + lam * mpmath.mpf(f) * v_o))
                 for f in env.pvm.outcomes]
        projs = [mat(p) for p in env.pvm.projectors]
        segments = iter(env.schedule.segments)
        a, b, h = next(segments)
        carry = mpmath.eye(env.dimension)  # U(a, 0)
        v = mpmath.eye(model.joint_dim)
        for j in range(1, n_steps + 1):
            t_j = t * j / n_steps
            while t_j > b:
                carry = mpmath.expm(-1j * (mpmath.mpf(b) - a) * mat(h)) * carry
                a, b, h = next(segments)
            u = mpmath.expm(-1j * (t_j - mpmath.mpf(a)) * mat(h)) * carry
            step = mpmath.zeros(model.joint_dim)
            for s, p in zip(steps, projs):
                step += kron(s, u.H * p * u)
            v = step * v
        return np.array(v.tolist(), dtype=complex)


# (d_e, outcome_groups, pure): mixed and pure states, fine and coarse PVMs
ORACLE_ENVIRONMENTS = [
    (2, None, False), (2, None, True), (3, None, False), (3, (2, 1), True),
    (4, None, False), (4, (2, 2), False), (4, (1, 3), True),
    (8, None, False), (8, (3, 5), False), (8, (2, 2, 4), True),
]


def oracle_model(d_o, env, driven, seed, t, coupling):
    d_e, groups, pure = env
    environment = bt.random_scenario(d_e, seed, pure=pure, outcome_groups=groups)
    if driven:
        environment = driven_environment(environment, 1.25 * t, 12, seed)
    rng = np.random.default_rng(seed + 1)
    return bt.OpenModel(
        h_sys=random_hermitian(rng, d_o),
        v_sys=random_hermitian(rng, d_o),
        coupling=coupling,
        environment=environment,
    )


class TestJointOperatorReduction:
    """Both maps against the kron(V*, V) superoperator reduction of an oracle V."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        d_o=st.integers(min_value=1, max_value=3),
        env=st.sampled_from(ORACLE_ENVIRONMENTS),
        driven=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
        t=st.floats(min_value=0.1, max_value=2.0),
        coupling=st.floats(min_value=0.0, max_value=1.5),
    )
    @example(d_o=3, env=(8, (3, 5), False), driven=True, seed=5, t=1.3, coupling=0.9)
    def test_exact_map_matches_kron_oracle(self, d_o, env, driven, seed, t, coupling):
        model = oracle_model(d_o, env, driven, seed, t, coupling)
        want = oracle_reduced_map(
            oracle_exact_operator(model, t), d_o, env[0], model.environment.state.matrix
        )
        got = bt.exact_joint_map(model, t).matrix
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        d_o=st.integers(min_value=1, max_value=3),
        env=st.sampled_from(ORACLE_ENVIRONMENTS),
        driven=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
        t=st.floats(min_value=0.1, max_value=2.0),
        n_steps=st.integers(min_value=1, max_value=4),
        coupling=st.floats(min_value=0.0, max_value=1.5),
    )
    @example(d_o=3, env=(8, (3, 5), False), driven=True, seed=5, t=1.3, n_steps=3, coupling=0.9)
    def test_contract_map_matches_kron_oracle(self, d_o, env, driven, seed, t, n_steps, coupling):
        model = oracle_model(d_o, env, driven, seed, t, coupling)
        want = oracle_reduced_map(
            oracle_contract_operator(model, t, n_steps), d_o, env[0],
            model.environment.state.matrix,
        )
        got = bt.bitrajectory_map(model, t, n_steps, method="contract").matrix
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("env", ORACLE_ENVIRONMENTS[::3])
    @pytest.mark.parametrize("d_o, driven", [(1, False), (2, True), (3, True)])
    def test_joint_generators_are_bitwise_np_kron(self, d_o, env, driven, monkeypatch):
        model = oracle_model(d_o, env, driven, seed=7, t=1.3, coupling=0.9)
        got = list(opensys._joint_schedule(model).segments)
        exact = bt.exact_joint_map(model, 1.3).matrix
        monkeypatch.setattr(opensys, "kron", np.kron)
        want = list(opensys._joint_schedule(model).segments)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
        assert all(np.array_equal(g, w) for (_, _, g), (_, _, w) in zip(got, want))
        assert np.array_equal(bt.exact_joint_map(model, 1.3).matrix, exact)

    def test_joint_dimension_64_stays_small(self):
        # kron(V*, V) alone is 256 MB at D = 64, holding all 128 slot stacks
        # of a 32-outcome environment is 67 MB, and a list of all 512
        # environment propagators is 8.6 MB
        env = bt.random_scenario(32, seed=7)
        model = bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.5, environment=env)
        assert model.joint_dim == 64
        for call, limit in (
            (lambda: bt.exact_joint_map(model, 1.0), 16 * 2**20),
            (lambda: bt.bitrajectory_map(model, 1.0, 128), 16 * 2**20),
            (lambda: bt.bitrajectory_map(model, 1.0, 512), 4 * 2**20),
        ):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < limit


class TestOpenModel:
    def test_coupling_operator_from_pvm(self):
        model = standard_model()
        np.testing.assert_allclose(model.coupling_operator, SIGMA_Z)

    def test_non_hermitian_system_rejected(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.OpenModel(
                h_sys=np.array([[0, 1], [0, 0]], dtype=complex),
                v_sys=SIGMA_X,
                coupling=0.1,
                environment=bt.rabi_scenario(),
            )
        assert err.value.has(errors.NonHermitian)

    def test_caller_arrays_are_copied(self):
        h, v = 0.5 * SIGMA_Z, SIGMA_X.copy()
        model = bt.OpenModel(h_sys=h, v_sys=v, coupling=0.5, environment=bt.rabi_scenario())
        assert h.flags.writeable and v.flags.writeable
        assert not (model.h_sys.flags.writeable or model.v_sys.flags.writeable)
        h[...], v[...] = 7.0, 7.0
        assert np.array_equal(model.h_sys, 0.5 * SIGMA_Z) and np.array_equal(model.v_sys, SIGMA_X)

    def test_from_dict(self):
        cfg = {
            "dimension": 2,
            "hamiltonian": {"type": "preset", "name": "rabi", "omega": 1.0},
            "initial_state": {"type": "pure", "vector": [[1, 0], [0, 0]]},
            "observable": {"type": "pauli_z"},
            "system": {
                "h_o": [[[0.5, 0], 0], [0, [-0.5, 0]]],
                "v_o": [[0, [1, 0]], [[1, 0], 0]],
                "lambda": 0.5,
            },
        }
        model = bt.OpenModel.from_dict(cfg)
        assert model.system_dim == 2
        assert model.coupling == 0.5

    def test_from_dict_requires_system_keys(self):
        with pytest.raises(errors.ParseError, match="lambda"):
            bt.OpenModel.from_dict(
                {
                    "dimension": 2,
                    "hamiltonian": {"type": "preset", "name": "rabi"},
                    "initial_state": {"type": "pure", "vector": [[1, 0], [0, 0]]},
                    "observable": {"type": "pauli_z"},
                    "system": {"h_o": [[0, 0], [0, 0]], "v_o": [[0, 0], [0, 0]]},
                }
            )


class TestExactJointMap:
    def test_decoupled_tensor_factorization(self):
        model = standard_model(coupling=0.0)
        t = 1.3
        exact = bt.exact_joint_map(model, t)
        u = bt.propagator(
            bt.HamiltonianSchedule.from_static(model.h_sys), 0.0, t
        ).matrix
        expected = bt.Superoperator.from_sandwich(u, u.conj().T)
        assert exact.distance(expected) <= 1e-12

    def test_time_zero_is_identity(self):
        model = standard_model()
        assert bt.exact_joint_map(model, 0.0).distance(bt.Superoperator.identity(2)) <= 1e-12

    def test_trace_preserving_and_completely_positive(self):
        model = standard_model()
        exact = bt.exact_joint_map(model, 1.0)
        assert exact.trace_preservation_defect() <= 1e-12
        choi = bt.choi_matrix(exact)
        evals = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
        assert evals.min() >= -1e-9

    def test_joint_dimension_128_within_the_budget(self):
        # a qubit on a 64-level environment; kron(V*, V) alone would be 4 GiB
        env = bt.random_scenario(64, seed=7)
        model = bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.5, environment=env)
        assert model.joint_dim == 128
        tracemalloc.start()
        try:
            exact = bt.exact_joint_map(model, 1.0)
            study = bt.convergence_study(model, 1.0, [8, 16, 32, 64])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < biprob.MEMORY_BUDGET
        want = oracle_reduced_map(
            oracle_exact_operator(model, 1.0), 2, 64, env.state.matrix, via_kron=False)
        assert np.abs(exact.matrix - want).max() <= 1e-12
        errs = [p.error for p in study]
        assert all(b < a for a, b in zip(errs, errs[1:])), errs

    def test_128_outcome_environment_within_the_budget(self, monkeypatch):
        # D = 256 with a 128-outcome PVM, whose (k, d_e, d_e) projector stack
        # alone is 32 MiB
        model = bt.OpenModel(
            h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.5,
            environment=bt.random_scenario(128, seed=7),
        )
        assert model.joint_dim == 256 and model.environment.pvm.size == 128
        def call():
            return bt.convergence_study(model, 1.0, [8, 16, 32, 64])

        tracemalloc.start()
        try:
            study = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < counted_bytes(call, monkeypatch) <= biprob.MEMORY_BUDGET
        errs = [p.error for p in study]
        assert all(b < a for a, b in zip(errs, errs[1:])), errs

    @pytest.mark.parametrize("d_o, d_e", [(2, 64), (16, 8)])
    def test_counts_bound_the_traced_peak(self, d_o, d_e, monkeypatch):
        # the joint walk dominates at (2, 64), the reduced map at (16, 8); each
        # call runs at exactly its count, within it up to a few KiB of small
        # objects, and is refused one byte below it
        rng = np.random.default_rng(d_o)
        model = bt.OpenModel(
            h_sys=random_hermitian(rng, d_o), v_sys=random_hermitian(rng, d_o),
            coupling=0.5, environment=bt.random_scenario(d_e, seed=7),
        )
        for call in (
            lambda: bt.exact_joint_map(model, 1.0),
            lambda: bt.bitrajectory_map(model, 1.0, 8, method="contract"),
            lambda: bt.convergence_study(model, 1.0, [4, 8]),
        ):
            nbytes = counted_bytes(call, monkeypatch)
            monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes)
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= nbytes + 16 * 2**10
            monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes - 1)
            with pytest.raises(errors.EnumerationTooLarge, match=f"{nbytes} bytes"):
                call()

    @pytest.mark.parametrize("d_o, d_e", [(2, 64), (16, 8), (2, 4), (2, 2)])
    def test_many_run_contract_map_fits_its_count(self, d_o, d_e, monkeypatch):
        # a 160-segment driven environment under 300 steps: over 100 runs,
        # in batches of one at D = 128 and of 256 at D = 8, the first full;
        # at D = 4 a batch could hold 1,024 runs, but 300 steps make at most
        # 300, and only those are counted; at d_e = 64 the walk streams chunks
        # of one segment, at d_e = 8, 4 and 2 the call fills the schedule's
        # memo, which stays beside the reduction
        def environment():
            return driven_environment(bt.random_scenario(d_e, seed=7), 2.0, 160, seed=d_e)

        assert sum(len(ms) for _, ms in propagate.uniform_step_runs(environment().schedule, 1.9, 300, 1)) >= 100
        rng = np.random.default_rng(d_o)
        model = bt.OpenModel(
            h_sys=random_hermitian(rng, d_o), v_sys=random_hermitian(rng, d_o), coupling=0.5,
            environment=environment())
        call = lambda: bt.bitrajectory_map(model, 1.9, 300)  # noqa: E731
        nbytes = counted_bytes(call, monkeypatch)
        monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes)
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + 16 * 2**10
        assert nbytes < 4 * peak  # a batch counts the runs the steps can make, not a full chunk
        monkeypatch.setattr(biprob, "MEMORY_BUDGET", nbytes - 1)
        with pytest.raises(errors.EnumerationTooLarge, match=f"{nbytes} bytes"):
            call()

    @pytest.mark.parametrize("d_e, slack", [(64, 0), (16, 16 * 2**10)])
    def test_exact_map_walk_fits_its_count(self, d_e, slack, monkeypatch):
        # a 160-segment driven environment: at D = 128 the joint walk takes
        # one segment at a time, at D = 32 chunks of two, whose generators,
        # eigenvectors and exponentials the count holds; small objects may
        # exceed the count at D = 32 by a few KiB
        rng = np.random.default_rng(d_e)
        env = driven_environment(bt.random_scenario(d_e, seed=3), 2.0, 160, seed=d_e)
        model = bt.OpenModel(
            h_sys=random_hermitian(rng, 2), v_sys=random_hermitian(rng, 2), coupling=0.5, environment=env)
        nbytes = counted_bytes(lambda: bt.exact_joint_map(model, 1.9), monkeypatch)
        tracemalloc.start()
        try:
            bt.exact_joint_map(model, 1.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + slack
        if d_e == 16:  # twelve D x D arrays, the count without the chunk, are exceeded
            assert peak > 16 * 12 * model.joint_dim**2

    @pytest.mark.parametrize("d_o", [64, 128])
    def test_large_system_refused_before_any_work(self, d_o, monkeypatch):
        # a qubit environment keeps D at 128 or 256, but the reduced map has
        # d_o^4 entries and exists twice: 2 x 256 MiB at d_o = 64, 2 x 4 GiB
        # at d_o = 128
        model = bt.OpenModel(
            h_sys=np.diag(np.linspace(-1.0, 1.0, d_o)), v_sys=np.eye(d_o),
            coupling=0.5, environment=bt.rabi_scenario(),
        )

        def fail(*args, **kwargs):
            raise AssertionError("work began before the budget check")

        for name in ("_reduce_to_system", "_system_step_stack", "propagator", "uniform_step_runs"):
            monkeypatch.setattr(opensys, name, fail)
        for call in (
            lambda: bt.exact_joint_map(model, 1.0),
            lambda: bt.bitrajectory_map(model, 1.0, 8, method="contract"),
            lambda: bt.convergence_study(model, 1.0, [4, 8]),
        ):
            with pytest.raises(errors.EnumerationTooLarge, match="bytes"):
                call()


def counted_bytes(call, monkeypatch) -> int:
    """The bytes a call counts against the budget, read from its refusal under a zero budget."""
    with monkeypatch.context() as patch:
        patch.setattr(biprob, "MEMORY_BUDGET", 0)
        with pytest.raises(errors.EnumerationTooLarge) as err:
            call()
    return int(re.search(r"take (\d+) bytes", str(err.value)).group(1))


class TestBitrajectoryMap:
    @pytest.mark.parametrize("method", ["contract", "enumerate"])
    def test_identity_at_time_zero(self, method):
        model = standard_model()
        identity = bt.Superoperator.identity(model.system_dim)
        assert bt.exact_joint_map(model, 0.0).distance(identity) == 0.0
        for n in (1, 3):
            approx = bt.bitrajectory_map(model, 0.0, n, method=method)
            np.testing.assert_array_equal(approx.matrix, identity.matrix)

    def test_convergence_study_at_time_zero(self):
        study = bt.convergence_study(standard_model(), 0.0, [1, 2])
        assert [(p.n_steps, p.error) for p in study] == [(1, 0.0), (2, 0.0)]

    def test_decoupled_is_exact_for_any_step_count(self):
        model = standard_model(coupling=0.0)
        exact = bt.exact_joint_map(model, 1.0)
        for n in (1, 3, 16):
            approx = bt.bitrajectory_map(model, 1.0, n)
            assert approx.distance(exact) <= 1e-10

    def test_commuting_environment_is_exact(self):
        model = commuting_environment_model()
        exact = bt.exact_joint_map(model, 1.2)
        for n in (1, 2, 8, 32):
            approx = bt.bitrajectory_map(model, 1.2, n)
            assert approx.distance(exact) <= 1e-8

    def test_enumerate_and_contract_agree(self):
        model = standard_model()
        for n in (1, 2, 4):
            a = bt.bitrajectory_map(model, 0.9, n, method="enumerate")
            b = bt.bitrajectory_map(model, 0.9, n, method="contract")
            assert a.distance(b) <= 1e-12

    @pytest.mark.parametrize("method", ["contract", "enumerate"])
    def test_grid_ends_exactly_at_horizon(self, method):
        # t * 6 / 6 rounds one ulp above this t; the grid must still end at t
        t = 1.7514000829594232
        env = bt.QuantumScenario(
            2,
            bt.HamiltonianSchedule.from_static(0.5 * SIGMA_X, horizon=t),
            bt.DensityOperator.pure([1.0, 0.0]),
            bt.ObservablePVM.pauli_z(),
        )
        model = bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.5, environment=env)
        approx = bt.bitrajectory_map(model, t, 6, method=method)
        assert approx.trace_preservation_defect() <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        env=st.sampled_from([(2, None), (3, None), (4, None), (3, (2, 1)), (4, (2, 2)), (4, (1, 3))]),
        driven=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
        t=st.floats(min_value=0.1, max_value=2.0),
        n_steps=st.integers(min_value=1, max_value=3),
        coupling=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_contract_matches_enumerate(self, env, driven, seed, t, n_steps, coupling):
        d_e, groups = env
        environment = bt.random_scenario(d_e, seed, outcome_groups=groups)
        if driven:
            environment = driven_environment(environment, 1.25 * t, 12, seed)
        rng = np.random.default_rng(seed + 1)
        model = bt.OpenModel(
            h_sys=random_hermitian(rng, 2),
            v_sys=random_hermitian(rng, 2),
            coupling=coupling,
            environment=environment,
        )
        a = bt.bitrajectory_map(model, t, n_steps, method="contract")
        b = bt.bitrajectory_map(model, t, n_steps, method="enumerate")
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        d_e=st.sampled_from([2, 3]),
        segments=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
        t=st.floats(min_value=0.1, max_value=2.0),
        n_steps=st.integers(min_value=4, max_value=6),
        coupling=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_contract_matches_enumerate_on_mixed_runs(self, d_e, segments, seed, t, n_steps, coupling):
        # a few segments under 4-6 steps: runs of several steps inside a
        # segment between steps that cross its edges
        environment = driven_environment(bt.random_scenario(d_e, seed), 1.25 * t, segments, seed)
        rng = np.random.default_rng(seed + 1)
        model = bt.OpenModel(
            h_sys=random_hermitian(rng, 2), v_sys=random_hermitian(rng, 2),
            coupling=coupling, environment=environment,
        )
        a = bt.bitrajectory_map(model, t, n_steps, method="contract")
        b = bt.bitrajectory_map(model, t, n_steps, method="enumerate")
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(segments=12, n=3, frac=0.8, seed=1, chunk=3, overflow=False)  # steps across several edges
    @example(segments=8, n=19, frac=0.95, seed=2, chunk=1, overflow=False)  # runs between crossings
    @example(segments=40, n=64, frac=1.0, seed=3, chunk=None, overflow=False)
    @example(segments=6, n=12, frac=1.0, seed=4, chunk=3, overflow=True)
    @given(
        segments=st.integers(min_value=2, max_value=40),
        n=st.integers(min_value=1, max_value=64),
        frac=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
        chunk=st.sampled_from([1, 3, None]),
        overflow=st.just(False),
    )
    def test_batched_map_is_bitwise_the_per_run_fold(self, segments, n, frac, seed, chunk, overflow):
        # runs batched by chunk (the default when None), segments diagonalised
        # as many at a time; with overflow, one segment's phase overflows and
        # the map is refused
        env = driven_environment(bt.random_scenario(2 + seed % 2, seed), 2.0, segments, seed)
        if overflow:
            pieces = list(env.schedule.segments)
            pieces[2] = (*pieces[2][:2], np.full((env.dimension,) * 2, 1e308, dtype=complex))
            env = bt.QuantumScenario(env.dimension, bt.HamiltonianSchedule(tuple(pieces)), env.state, env.pvm)
        rng = np.random.default_rng(seed + 1)
        model = bt.OpenModel(
            h_sys=random_hermitian(rng, 2), v_sys=random_hermitian(rng, 2), coupling=0.7, environment=env)
        t = 2.0 * frac
        want = per_run_contract_map(model, t, n)
        with contextlib.ExitStack() as patches:
            if chunk is not None:
                patches.enter_context(mock.patch.object(opensys, "_per_chunk", lambda d: chunk))
                patches.enter_context(mock.patch.object(propagate, "_chunk_len", lambda d: chunk))
            if want is None:
                with pytest.raises(errors.ValidationError) as err:
                    bt.bitrajectory_map(model, t, n)
                assert overflow and err.value.has(errors.NotUnitary)
            else:
                np.testing.assert_array_equal(bt.bitrajectory_map(model, t, n).matrix, want)

    def test_driven_map_matches_40_digit_reference(self):
        # 512 steps across 128 segments: runs of a few steps between steps
        # that cross an edge
        model = standard_model()
        env = driven_environment(model.environment, 2.5, 160, seed=3)
        model = bt.OpenModel(model.h_sys, model.v_sys, model.coupling, env)
        want = oracle_reduced_map(mp_contract_operator(model, 2.0, 512), 2, 2, env.state.matrix)
        got = bt.bitrajectory_map(model, 2.0, 512, method="contract").matrix
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("driven", [False, True])
    def test_trace_preservation_at_512_steps(self, driven):
        model = standard_model()
        if driven:
            env = driven_environment(model.environment, 2.5, 160, seed=3)
            model = bt.OpenModel(model.h_sys, model.v_sys, model.coupling, env)
        approx = bt.bitrajectory_map(model, 2.0, 512)
        assert approx.trace_preservation_defect() <= 1e-10

    def test_overflowing_environment_exponential_rejected(self):
        # finite and Hermitian, but its eigenvalue 2e308 overflows to inf
        h = np.full((2, 2), 1e308, dtype=complex)
        env = static_scenario(h, np.diag([1.0, 0.0]), bt.ObservablePVM.pauli_z())
        model = bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.5, environment=env)
        with pytest.raises(errors.ValidationError) as err:
            bt.bitrajectory_map(model, 0.5, 3, method="contract")
        assert err.value.has(errors.NotUnitary)

    @pytest.mark.parametrize("call", ["propagator", "full_distribution", "contract", "exact"])
    def test_overflow_is_not_unitary_with_warnings_as_errors(self, call):
        # numpy's overflow warnings stay inside the library, which names the fault
        h = np.full((2, 2), 1e308, dtype=complex)
        env = static_scenario(h, np.diag([1.0, 0.0]), bt.ObservablePVM.pauli_z())
        model = bt.OpenModel(h_sys=0.5 * SIGMA_Z, v_sys=SIGMA_X, coupling=0.5, environment=env)
        run = {
            "propagator": lambda: bt.propagator(env.schedule, 0.0, 0.5),
            "full_distribution": lambda: bt.full_distribution(env, bt.TimeGrid((0.5,))),
            "contract": lambda: bt.bitrajectory_map(model, 0.5, 3, method="contract"),
            "exact": lambda: bt.exact_joint_map(model, 0.5),
        }[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.ValidationError) as err:
                run()
        assert err.value.has(errors.NotUnitary)

    def test_enumeration_cap(self):
        model = standard_model()
        with pytest.raises(errors.EnumerationTooLarge):
            bt.bitrajectory_map(model, 1.0, 64, method="enumerate")

    def test_trace_and_hermiticity_preservation(self):
        model = standard_model()
        rng = np.random.default_rng(2)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for n in (1, 4, 16, 64):
            approx = bt.bitrajectory_map(model, 1.0, n)
            assert approx.trace_preservation_defect() <= 1e-8
            out = approx.apply(rho)
            assert np.abs(out - out.conj().T).max() <= 1e-10
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)

    def test_first_order_convergence(self):
        model = standard_model()
        study = bt.convergence_study(model, 1.0, [8, 16, 32])
        assert study[0].error > study[1].error > study[2].error
        # first order in the step size
        assert study[2].error <= study[0].error / 2


class TestConvergenceStudy:
    def test_reports_every_requested_step_count(self):
        model = standard_model(coupling=0.0)
        study = bt.convergence_study(model, 1.0, [2, 4, 8])
        assert [p.n_steps for p in study] == [2, 4, 8]
        for p in study:
            assert p.error <= 1e-10

    def test_requires_ascending_steps(self):
        model = standard_model()
        with pytest.raises(errors.DegenerateInterval):
            bt.convergence_study(model, 1.0, [8, 4])
