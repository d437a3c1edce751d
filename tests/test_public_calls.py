"""Every public call reads its numbers as reals or counts, or rejects them.

``CALLS`` holds one valid base call for each public callable that takes a
real or a count.  A case replaces one or two of its scalar arguments with a
mutant: the config fuzz's ``MUTANTS``, plus ``EXTRA``.  With warnings as
errors, the call must return or raise a ``BitrajError``; any other exception
fails.  Large valid values are drawn only for the arguments named as
bounded, whose work the call bounds itself (``random_scenario`` at d = 1000
would run for hours).  ``TAKES_NO_NUMBER`` lists the public callables that
take no real or count, and the coverage test holds the two lists to
``bitraj.__all__``.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitraj as bt
from bitraj import errors
from bitraj.biprob import BiDistribution

from conftest import MUTANTS, SIGMA_X, SIGMA_Z, grid

EXTRA = (1.5, "1", np.float32(0.5), np.int64(2), np.bool_(True))


@functools.cache
def _rabi():
    return bt.rabi_scenario()


@functools.cache
def _dist():
    return bt.full_distribution(_rabi(), grid(0.5, 1.0))


@functools.cache
def _model():
    return bt.OpenModel(SIGMA_Z, SIGMA_X, 0.5, _rabi())


@functools.cache
def _path():
    return bt.UnitaryPath(((1.0, SIGMA_X),), np.eye(2))


P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

# name: (call, valid arguments, the arguments that may take large values)
CALLS = {
    "BiDistribution": (
        lambda f: BiDistribution(grid(0.5), ((1.0, f),), np.diag([1.0, 0.0])),
        dict(f=-1.0), "f"),
    "BiOutcome": (lambda f, g: bt.BiOutcome((f, 1.0), (g, 1.0)), dict(f=1.0, g=-1.0), "f g"),
    "GenericTuple": (
        lambda k, j: bt.GenericTuple((np.eye(2), np.eye(2)), (k, 0), (j, 0)), dict(k=1, j=1), "k j"),
    "HamiltonianSchedule": (
        lambda a, b: bt.HamiltonianSchedule(((0.0, a, SIGMA_X), (a, b, SIGMA_Z))),
        dict(a=0.5, b=1.0), "a b"),
    "HamiltonianSchedule.from_static": (
        lambda horizon: bt.HamiltonianSchedule.from_static(SIGMA_X, horizon), dict(horizon=2.0), "horizon"),
    "HamiltonianSchedule.from_function": (
        lambda horizon, segments: bt.HamiltonianSchedule.from_function(lambda t: SIGMA_X, horizon, segments),
        dict(horizon=1.0, segments=4), "horizon segments"),
    "ObservablePVM": (lambda f: bt.ObservablePVM((1.0, f), (P0, P1)), dict(f=-1.0), "f"),
    "ObservablePVM.computational_basis": (
        lambda d: bt.ObservablePVM.computational_basis(d), dict(d=2), ""),
    "ObservablePVM.projector": (lambda f: bt.ObservablePVM.pauli_z().projector(f), dict(f=1.0), "f"),
    "OpenModel": (lambda coupling: bt.OpenModel(SIGMA_Z, SIGMA_X, coupling, _rabi()), dict(coupling=0.5), "coupling"),
    "QuantumScenario": (
        lambda d: bt.QuantumScenario(d, _rabi().schedule, _rabi().state, _rabi().pvm), dict(d=2), "d"),
    "RefinementMesh": (
        lambda k: bt.RefinementMesh(grid(0.5, 1.0), grid(0.25, 0.5, 0.75, 1.0), (k, 4)), dict(k=2), "k"),
    "Superoperator": (lambda dim: bt.Superoperator(np.eye(4), dim), dict(dim=2), "dim"),
    "Superoperator.identity": (lambda dim: bt.Superoperator.identity(dim), dict(dim=2), ""),
    "TimeGrid": (lambda t1, t2: bt.TimeGrid((t1, t2)), dict(t1=0.5, t2=1.0), "t1 t2"),
    "TupleFunction": (
        lambda f: bt.TupleFunction(grid(0.5), ((1.0, f),), np.ones((2, 2))), dict(f=-1.0), "f"),
    "TupleFunction.lift": (
        lambda f: bt.TupleFunction.constant(grid(0.5), ((1.0, -1.0),)).lift(
            grid(0.5, 1.0), ((1.0, -1.0), (1.0, f))),
        dict(f=-1.0), "f"),
    "UnitaryMatrix": (lambda a, b: bt.UnitaryMatrix(np.eye(2), a, b), dict(a=0.0, b=1.0), "a b"),
    "UnitaryPath": (
        lambda w1, w2: bt.UnitaryPath(((w1, SIGMA_X), (w2, SIGMA_Z)), np.eye(2)),
        dict(w1=0.5, w2=0.5), "w1 w2"),
    "UnitaryPath.unitary": (lambda tau: _path().unitary(tau), dict(tau=0.5), "tau"),
    "bi_instrument": (
        lambda f, g, t: bt.bi_instrument(_rabi(), f, g, t), dict(f=1.0, g=-1.0, t=0.5), "f g t"),
    "bitrajectory_map": (lambda t, n: bt.bitrajectory_map(_model(), t, n), dict(t=1.0, n=4), "t n"),
    "build_refinement": (
        lambda size, horizon: bt.build_refinement(grid(0.5, 1.0), size, horizon),
        dict(size=4, horizon=2.0), "size horizon"),
    "check_properties": (lambda tol: bt.check_properties(_dist(), tol), dict(tol=1e-9), "tol"),
    "coarse_grain_pvm": (
        lambda label: bt.coarse_grain_pvm(bt.ObservablePVM.pauli_z(), {1.0: label, -1.0: 0.0}),
        dict(label=1.0), "label"),
    "convergence_study": (
        lambda t, n1, n2: bt.convergence_study(_model(), t, [n1, n2]), dict(t=1.0, n1=2, n2=4), "t n1 n2"),
    "diagonal_probability": (
        lambda f, g: bt.diagonal_probability(_rabi(), grid(0.5, 1.0), (f, g)), dict(f=1.0, g=-1.0), "f g"),
    "exact_joint_map": (lambda t: bt.exact_joint_map(_model(), t), dict(t=1.0), "t"),
    "grade2_check": (
        lambda f, g: bt.grade2_check(_dist(), [(f, 1.0)], [(g, -1.0)], []), dict(f=1.0, g=-1.0), "f g"),
    "heisenberg_projector": (
        lambda f, t: bt.heisenberg_projector(_rabi(), f, t), dict(f=1.0, t=0.5), "f t"),
    "inconsistency_decomposition": (
        lambda f, position: bt.inconsistency_decomposition(_rabi(), grid(0.5, 1.0), (f, 1.0), position),
        dict(f=-1.0, position=1), "f position"),
    "marginalize": (lambda position: bt.marginalize(_dist(), position), dict(position=1), "position"),
    "path_bound_check": (
        lambda a, b: bt.path_bound_check(_path(), [(a, b)]), dict(a=0.25, b=0.75), "a b"),
    "propagator": (lambda a, b: bt.propagator(_rabi().schedule, a, b), dict(a=0.0, b=1.0), "a b"),
    "propagators_along": (
        lambda t1, t2: bt.propagators_along(_rabi().schedule, (t1, t2)), dict(t1=0.5, t2=1.0), "t1 t2"),
    "rabi_scenario": (lambda omega: bt.rabi_scenario(omega), dict(omega=1.0), "omega"),
    "random_scenario": (
        lambda d, seed, g: bt.random_scenario(d, seed, outcome_groups=(g, 1)),
        dict(d=3, seed=1, g=2), "seed g"),
    "uniform_bound": (lambda horizon: bt.uniform_bound(_rabi(), horizon), dict(horizon=1.0), "horizon"),
}

# public callables that take no real or count: their numbers arrive inside
# domain objects, matrices or a config mapping (``validate_scenario``, whose
# numbers the config fuzz mutates)
TAKES_NO_NUMBER = {
    "DensityOperator", "ObservableSequence", "PropertyReport", "average", "cauchy_stabilization",
    "choi_matrix", "classicality_report", "comb_biprob", "decompose_multiobs", "eval_biprob",
    "eval_generic", "eval_multiobs", "full_distribution", "generic_l1_norm", "l1_norm",
    "minimum_refinement_size", "multiobs_distribution", "nonuniform_bound", "operator_norm",
    "path_length", "refinement_monotonicity", "validate_scenario",
}

# each of these escaped as a raw TypeError or ValueError, was truncated, or
# was read as another value, before the readers; a superoperator of
# dimension -2 was accepted, as its 4 x 4 matrix has (-2)^2 rows
PROBES = [
    ("check_properties", {"tol": True}),
    ("check_properties", {"tol": "x"}),
    ("marginalize", {"position": True}),
    ("marginalize", {"position": 1.5}),
    ("convergence_study", {"n1": 1.5, "n2": 2.7}),
    ("GenericTuple", {"k": 0.7}),
    ("RefinementMesh", {"k": 1.5}),
    ("HamiltonianSchedule.from_function", {"segments": 1.5}),
    ("bitrajectory_map", {"n": 1.5}),
    ("propagator", {"b": "1"}),
    ("UnitaryPath", {"w1": "0.5"}),
    ("TimeGrid", {"t1": "a"}),
    ("uniform_bound", {"horizon": "x"}),
    ("BiOutcome", {"f": "x"}),
    ("ObservablePVM", {"f": "x"}),
    ("HamiltonianSchedule.from_static", {"horizon": "x"}),
    ("OpenModel", {"coupling": "x"}),
    ("exact_joint_map", {"t": "x"}),
    ("build_refinement", {"size": 1e308}),
    ("random_scenario", {"d": 2.0}),
    ("Superoperator", {"dim": -2}),
]


def _is_large(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value) and abs(value) >= 1000


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    _, base, bounded = CALLS[name]
    slots = draw(st.lists(st.sampled_from(sorted(base)), min_size=1, max_size=2, unique=True))
    mutation = {}
    for slot in slots:
        pool = [m for m in MUTANTS + EXTRA if slot in bounded.split() or not _is_large(m)]
        mutation[slot] = draw(st.sampled_from(pool))
    return name, mutation


def _call(name, mutation):
    call, base, _ = CALLS[name]
    return call(**{**base, **mutation})


def _probes(test):
    for case in PROBES:
        test = example(case=case)(test)
    return test


def test_every_public_callable_is_in_the_table_or_takes_no_number():
    public = {name for name in bt.__all__ if callable(getattr(bt, name))}
    in_table = {name.split(".")[0] for name in CALLS}
    assert public - in_table - TAKES_NO_NUMBER == set()
    assert (in_table | TAKES_NO_NUMBER) - public == set()
    assert not in_table & TAKES_NO_NUMBER


@pytest.mark.parametrize("name", sorted(CALLS))
def test_base_calls_are_valid(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call(name, {})


@settings(max_examples=300, deadline=None, derandomize=True)
@_probes
@given(case=_cases())
def test_mutated_call_returns_or_raises_a_bitraj_error(case):
    name, mutation = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _call(name, mutation)
        except errors.BitrajError:
            pass


@pytest.mark.parametrize("name, mutation", PROBES, ids=[f"{n}-{m}" for n, m in PROBES])
def test_probe_is_rejected(name, mutation):
    with pytest.raises(errors.ValidationError) as err:
        _call(name, mutation)
    faults = (errors.DomainMismatch, errors.EnumerationTooLarge, errors.DimensionMismatch)
    assert any(err.value.has(fault) for fault in faults)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, 1.5, [1]])
def test_a_count_is_an_integer_and_not_a_bool(value):
    with pytest.raises(errors.ValidationError, match="position: .* is not an integer"):
        bt.marginalize(_dist(), value)


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, 1j, np.array(0.5)])
def test_a_real_is_a_real_number_and_not_a_bool(value):
    with pytest.raises(errors.ValidationError, match="propagation time: .* is not a real number"):
        bt.propagator(_rabi().schedule, 0.0, value)


def test_numpy_scalars_read_as_their_values():
    schedule = _rabi().schedule
    assert np.array_equal(
        bt.propagator(schedule, np.float32(0.0), np.float32(0.5)).matrix,
        bt.propagator(schedule, 0.0, 0.5).matrix)
    assert np.array_equal(bt.marginalize(_dist(), np.int64(1)).table, bt.marginalize(_dist(), 1).table)
    assert np.array_equal(
        bt.bitrajectory_map(_model(), np.float64(1.0), np.uint8(4)).matrix,
        bt.bitrajectory_map(_model(), 1.0, 4).matrix)
    assert bt.TimeGrid((np.float16(0.5), 1)).times == (0.5, 1.0)
    assert bt.check_properties(_dist(), np.float32(1e-9)).checks[0].tolerance == float(np.float32(1e-9))
