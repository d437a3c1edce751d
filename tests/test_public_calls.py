"""Every public call reads its numbers as reals or counts, or rejects them.

``CALLS`` holds one valid base call for each public callable that takes a
real or a count, and one for ``DensityOperator``, whose slot is a matrix
entry.  A case replaces one or two of its scalar arguments with a mutant:
the config fuzz's ``MUTANTS``, plus ``EXTRA``.  With warnings as
errors, the call must return or raise a ``BitrajError``; any other exception
fails.  Large valid values are drawn only for the arguments named as
bounded, whose work the call bounds itself (``random_scenario`` at d = 1000
would run for hours).  ``TAKES_NO_NUMBER`` lists the public callables that
take no real or count, and the coverage test holds the two lists to
``bitraj.__all__``.

``ARRAY_CALLS`` does the same for the array arguments: one valid base call
per public callable that takes an array, whose one entry, or the whole
array, is replaced with one of ``ARRAY_MUTANTS``.  A string (numeric or
not), None, a dict or a ragged row must raise a ``BitrajError``; a NaN or
an inf may also be computed, as the call's own finiteness checks decide.
``TAKES_NO_ARRAY`` lists the rest, and a second coverage test holds the two
to ``bitraj.__all__``.
"""

import copy
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
    "DensityOperator": (lambda p: bt.DensityOperator([[p, 0], [0, 0.5]]), dict(p=0.5), ""),
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
    "ObservableSequence", "PropertyReport", "average", "cauchy_stabilization",
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
    ("UnitaryMatrix", {"a": "a", "b": None}),
    ("DensityOperator", {"p": "a"}),
    ("Superoperator.identity", {"dim": math.nan}),
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


# -- array arguments ---------------------------------------------------------

RAGGED = [[1.0, 0.0], [0.0]]
ARRAY_MUTANTS = ("a", "1", None, {}, math.nan, math.inf, RAGGED)
EYE, SX, SZ = np.eye(2).tolist(), [[0, 1], [1, 0]], [[1, 0], [0, -1]]
SETS = ((1.0, -1.0),)

# name: (call of one array argument, its valid value as nested lists)
ARRAY_CALLS = {
    "BiDistribution": (lambda a: BiDistribution(grid(0.5), SETS, a), [[1.0, 0.0], [0.0, 0.0]]),
    "DensityOperator": (bt.DensityOperator, [[0.5, 0], [0, 0.5]]),
    "DensityOperator.pure": (bt.DensityOperator.pure, [1.0, 0.0]),
    "GenericTuple": (lambda u: bt.GenericTuple((u, np.eye(2)), (0, 0), (0, 0)), EYE),
    "HamiltonianSchedule": (lambda h: bt.HamiltonianSchedule(((0.0, 0.5, SIGMA_X), (0.5, 1.0, h))), SZ),
    "HamiltonianSchedule.from_static": (bt.HamiltonianSchedule.from_static, SX),
    "HamiltonianSchedule.from_function": (
        lambda h: bt.HamiltonianSchedule.from_function(lambda t: h, 1.0, 2), SX),
    "ObservablePVM": (lambda p: bt.ObservablePVM((1.0, -1.0), (p, P1)), P0.tolist()),
    "OpenModel": (lambda v: bt.OpenModel(SIGMA_Z, v, 0.5, _rabi()), SX),
    "Superoperator": (lambda m: bt.Superoperator(m, 2), np.eye(4).tolist()),
    "Superoperator.apply": (lambda rho: bt.Superoperator.identity(2).apply(rho), [[0.5, 0], [0, 0.5]]),
    "Superoperator.from_sandwich": (lambda x: bt.Superoperator.from_sandwich(x, np.eye(2)), SX),
    "TupleFunction": (lambda v: bt.TupleFunction(grid(0.5), SETS, v), [[1.0, 2.0], [3.0, 4.0]]),
    "TupleFunction.constant": (lambda v: bt.TupleFunction.constant(grid(0.5), SETS, v), 2.0),
    "TupleFunction.from_callable": (  # v at the diagonal outcomes, 0 elsewhere
        lambda v: bt.TupleFunction.from_callable(grid(0.5), SETS, lambda o: v if o.plus == o.minus else 0.0),
        1.0),
    "UnitaryMatrix": (lambda m: bt.UnitaryMatrix(m, 0.0, 1.0), EYE),
    "UnitaryPath": (lambda v: bt.UnitaryPath(((1.0, v),), np.eye(2)), SX),
    "UnitaryPath.anchor": (lambda a: bt.UnitaryPath(((1.0, SIGMA_X),), a), EYE),
    "generic_l1_norm": (lambda u: bt.generic_l1_norm([np.eye(2), u]), SX),
    "operator_norm": (bt.operator_norm, SX),
}

# public callables that take no array: their arrays arrive inside domain
# objects (a scenario, a distribution, a superoperator) or a config mapping,
# and their sequences of times, outcomes or positions are read as reals or counts
TAKES_NO_ARRAY = {
    "BiOutcome", "ObservableSequence", "PropertyReport", "QuantumScenario", "RefinementMesh", "TimeGrid",
    "average", "bi_instrument", "bitrajectory_map", "build_refinement", "cauchy_stabilization",
    "check_properties", "choi_matrix", "classicality_report", "coarse_grain_pvm", "comb_biprob",
    "convergence_study", "decompose_multiobs", "diagonal_probability", "eval_biprob", "eval_generic",
    "eval_multiobs", "exact_joint_map", "full_distribution", "grade2_check", "heisenberg_projector",
    "inconsistency_decomposition", "l1_norm", "marginalize", "minimum_refinement_size",
    "multiobs_distribution", "nonuniform_bound", "path_bound_check", "path_length", "propagator",
    "propagators_along", "rabi_scenario", "random_scenario", "refinement_monotonicity", "uniform_bound",
    "validate_scenario",
}

# (name, entry, mutant, fault): each escaped as numpy's raw ValueError or
# IndexError, was read as NaN or as its number, or gave a value for no valid
# input, before the array reader; entry () replaces the whole array.  A 1-D
# unitary, one of another size and a whole array that is no matrix are
# shape faults; the others raise ValidationError([DomainMismatch])
ARRAY_PROBES = [
    ("operator_norm", (0, 0), "a", errors.DomainMismatch),
    ("DensityOperator.pure", (0,), "a", errors.DomainMismatch),
    ("GenericTuple", (0, 0), "a", errors.DomainMismatch),
    ("generic_l1_norm", (0, 0), "a", errors.DomainMismatch),
    ("Superoperator", (0, 0), "a", errors.DomainMismatch),
    ("Superoperator.apply", (0, 0), "a", errors.DomainMismatch),
    ("Superoperator.from_sandwich", (0, 0), "a", errors.DomainMismatch),
    ("TupleFunction", (0, 0), "a", errors.DomainMismatch),
    ("TupleFunction.from_callable", (), "a", errors.DomainMismatch),
    ("TupleFunction.constant", (), "a", errors.DomainMismatch),
    ("BiDistribution", (0, 0), "a", errors.DomainMismatch),
    ("GenericTuple", (1,), [0.0], errors.DomainMismatch),
    ("GenericTuple", (0, 0), None, errors.DomainMismatch),
    ("DensityOperator", (0, 0), "1", errors.DomainMismatch),
    ("generic_l1_norm", (), [1.0, 0.0], errors.DimensionMismatch),
    ("generic_l1_norm", (), np.eye(3).tolist(), errors.DimensionMismatch),
    ("Superoperator.from_sandwich", (), math.nan, errors.DimensionMismatch),
    ("Superoperator.apply", (), math.nan, errors.DimensionMismatch),
]


def _entries(value) -> list:
    """``()`` for the whole array, then the index of every entry of a nested list."""
    return [()] + list(np.ndindex(np.shape(value)))


def _mutated(value, entry, mutant):
    if not entry:
        return mutant
    value = copy.deepcopy(value)
    rows = value
    for i in entry[:-1]:
        rows = rows[i]
    rows[entry[-1]] = mutant
    return value


def _call_array(name, entry, mutant):
    call, value = ARRAY_CALLS[name]
    return call(_mutated(value, entry, mutant))


@st.composite
def _array_cases(draw):
    name = draw(st.sampled_from(sorted(ARRAY_CALLS)))
    entry = draw(st.sampled_from(_entries(ARRAY_CALLS[name][1])))
    return name, entry, draw(st.sampled_from(ARRAY_MUTANTS))


def _array_probes(test):
    for name, entry, mutant, _ in ARRAY_PROBES:
        test = example(case=(name, entry, mutant))(test)
    return test


def test_every_public_callable_is_in_the_array_table_or_takes_no_array():
    public = {name for name in bt.__all__ if callable(getattr(bt, name))}
    in_table = {name.split(".")[0] for name in ARRAY_CALLS}
    assert public - in_table - TAKES_NO_ARRAY == set()
    assert (in_table | TAKES_NO_ARRAY) - public == set()
    assert not in_table & TAKES_NO_ARRAY


@pytest.mark.parametrize("name", sorted(ARRAY_CALLS))
def test_base_array_calls_are_valid(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call_array(name, (), ARRAY_CALLS[name][1])
        _call_array(name, (), np.array(ARRAY_CALLS[name][1], dtype=complex))


@settings(max_examples=300, deadline=None, derandomize=True)
@_array_probes
@given(case=_array_cases())
def test_mutated_array_returns_or_raises_a_bitraj_error(case):
    name, entry, mutant = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _call_array(name, entry, mutant)
        except errors.BitrajError:
            return
    assert isinstance(mutant, float), f"{name} accepted {mutant!r} at {entry or 'the whole array'}"


@pytest.mark.parametrize(
    "name, entry, mutant, fault", ARRAY_PROBES, ids=[f"{n}-{e}-{m!r}" for n, e, m, _ in ARRAY_PROBES])
def test_array_probe_is_rejected(name, entry, mutant, fault):
    with pytest.raises(errors.BitrajError) as err:
        _call_array(name, entry, mutant)
    found = err.value.violations if isinstance(err.value, errors.ValidationError) else (err.value,)
    assert any(isinstance(v, fault) for v in found)
    assert fault is errors.DimensionMismatch or isinstance(err.value, errors.ValidationError)
