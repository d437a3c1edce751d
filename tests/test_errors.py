"""Every error class names one fault, and a public call raises each of them.

``TRIGGERS`` maps each ``BitrajError`` subclass of ``bitraj.errors`` to one
public call that hits that fault, so a class that nothing raises (or a
class added without a trigger) fails here.
"""

import numpy as np
import pytest

import bitraj as bt
from bitraj import errors
from bitraj.biprob import BiDistribution

from conftest import SIGMA_X, SIGMA_Z, grid, outcome


def _rabi():
    return bt.rabi_scenario()


def _open_model(d_sys):
    return bt.OpenModel(np.zeros((d_sys, d_sys)), np.zeros((d_sys, d_sys)), 0.5, _rabi())


TRIGGERS = {
    errors.ValidationError: lambda: bt.TimeGrid((0.5, 0.5)),
    errors.NonHermitian: lambda: bt.HamiltonianSchedule.from_static([[0, 1], [0, 0]]),
    errors.NotAProjector: lambda: bt.ObservablePVM((1.0,), (2 * np.eye(2),)),
    errors.IncompletePVM: lambda: bt.ObservablePVM((1.0,), (np.diag([1.0, 0.0]),)),
    errors.BadTrace: lambda: bt.DensityOperator(np.diag([0.6, 0.6])),
    errors.NotUnitary: lambda: bt.UnitaryMatrix(2 * np.eye(2), 0.0, 1.0),
    errors.DimensionMismatch: lambda: bt.operator_norm(np.zeros((2, 3))),
    errors.UncoveredOutcome: lambda: bt.coarse_grain_pvm(bt.ObservablePVM.pauli_z(), {1.0: 0}),
    errors.NonFiniteTime: lambda: bt.propagator(_rabi().schedule, 0.0, float("nan")),
    errors.OutOfHorizon: lambda: bt.TimeGrid((0.0, 1.0)),
    errors.DegenerateInterval: lambda: bt.propagator(_rabi().schedule, 1.0, 0.5),
    errors.UnknownOutcome: lambda: bt.eval_biprob(_rabi(), grid(1.0), outcome((5.0,), (1.0,))),
    errors.LengthMismatch: lambda: bt.eval_biprob(_rabi(), grid(1.0), outcome((1.0, 1.0), (1.0, 1.0))),
    errors.IndexOutOfRange: lambda: bt.marginalize(bt.full_distribution(_rabi(), grid(1.0)), 2),
    errors.DomainMismatch: lambda: bt.eval_biprob(
        _rabi(), grid(1.0), outcome((1.0,), (1.0,)), method="amplitude"),
    errors.EnumerationTooLarge: lambda: bt.full_distribution(
        _rabi(), grid(*(0.1 * k for k in range(1, 12)))),
    errors.OverlappingEvents: lambda: bt.grade2_check(
        bt.full_distribution(_rabi(), grid(1.0)), [(1.0,)], [(1.0,)], []),
    errors.NotNested: lambda: bt.cauchy_stabilization(
        _rabi(), [grid(0.5), grid(0.7)], bt.TupleFunction.constant(grid(0.5), [(1.0, -1.0)])),
    errors.TooCoarse: lambda: bt.build_refinement(grid(0.5, 1.0), 1),
    errors.ParseError: lambda: bt.validate_scenario([]),
}


def _raised(exc, fault) -> bool:
    return isinstance(exc, fault) or (
        isinstance(exc, errors.ValidationError) and exc.has(fault)
    )


def _fault_classes():
    return sorted(
        (
            cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.BitrajError)
            and cls is not errors.BitrajError
        ),
        key=lambda cls: cls.__name__,
    )


def test_vocabulary_size_and_merged_classes():
    names = {cls.__name__ for cls in _fault_classes()}
    assert len(names) == 20
    assert not names & {
        "EmptyGroup", "SlotOutcomeMismatch", "BadPosition", "NonSquare", "DimensionTooLarge"}
    assert set(TRIGGERS) == set(_fault_classes())


@pytest.mark.parametrize("fault", _fault_classes(), ids=lambda cls: cls.__name__)
def test_every_class_is_raised_by_a_public_call(fault):
    trigger = TRIGGERS.get(fault)
    if trigger is None:
        pytest.fail(f"no public call is known to raise {fault.__name__}")
    with pytest.raises(errors.BitrajError) as err:
        trigger()
    assert _raised(err.value, fault), f"{fault.__name__} expected, got {err.value!r}"
    assert fault.__doc__, f"{fault.__name__} has no docstring naming its fault"


class TestRelabelledFaults:
    """Faults that used to raise a class named after something else."""

    def test_grid_times(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.TimeGrid((-1.0, 1.0))
        assert err.value.has(errors.OutOfHorizon)
        with pytest.raises(errors.ValidationError) as err:
            bt.TimeGrid((1.0, 0.5))
        assert err.value.has(errors.DegenerateInterval)

    def test_schedule_ordering(self):
        # one bad time is one violation: later segments are not compared
        # against a non-finite end
        for segments in (
            ((0.5, 1.0, SIGMA_Z),),
            ((0.0, 1.0, SIGMA_Z), (1.5, 2.0, SIGMA_Z)),
            ((0.0, 0.0, SIGMA_Z),),
            ((0.0, np.inf, SIGMA_Z), (np.inf, np.inf, SIGMA_Z)),
            ((0, 1, SIGMA_Z), (1, np.nan, SIGMA_Z), (2, 3, SIGMA_Z)),
        ):
            with pytest.raises(errors.ValidationError) as err:
                bt.HamiltonianSchedule(segments)
            assert [type(v) for v in err.value.violations] == [errors.DegenerateInterval], segments
        assert "segment 1: empty interval" in str(err.value)

    def test_unknown_method_is_one_class(self):
        model = _open_model(2)
        with pytest.raises(errors.DomainMismatch):
            bt.bitrajectory_map(model, 1.0, 4, method="amplitude")
        with pytest.raises(errors.DomainMismatch):
            bt.bitrajectory_map(model, 1.0, 0)

    def test_domain_arguments(self):
        for call in (
            lambda: bt.ObservablePVM((1.0, 1.0), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
            lambda: bt.random_scenario(1, seed=0),
            lambda: bt.random_scenario(2, seed=-1),
            lambda: bt.random_scenario(3, seed=0, outcome_groups=(1, 1)),
            lambda: bt.check_properties(bt.full_distribution(_rabi(), grid(1.0)), tolerance=-1.0),
            lambda: bt.OpenModel(SIGMA_Z, SIGMA_X, float("inf"), _rabi()),
            lambda: bt.DensityOperator(np.full((2, 2), np.nan)),
        ):
            with pytest.raises(errors.BitrajError) as err:
                call()
            assert _raised(err.value, errors.DomainMismatch), err.value

    def test_unitary_path(self):
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((1.0, [[0, 1], [0, 0]]),), np.eye(2))
        assert err.value.has(errors.NonHermitian)
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((1.0, SIGMA_X),), 2 * np.eye(2))
        assert err.value.has(errors.NotUnitary)
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((0.0, SIGMA_X), (1.0, SIGMA_Z)), np.eye(2))
        assert err.value.has(errors.DegenerateInterval)
        with pytest.raises(errors.ValidationError) as err:
            bt.UnitaryPath(((0.5, SIGMA_X),), np.eye(2))
        assert err.value.has(errors.DomainMismatch)
        # a rejected duration is the one violation: no cascade into later
        # segments, and no durations-sum check
        for bad in (np.nan, np.inf):
            with pytest.raises(errors.ValidationError) as err:
                bt.UnitaryPath(((0.5, SIGMA_X), (bad, SIGMA_X), (0.5, SIGMA_X)), np.eye(2))
            assert [type(v) for v in err.value.violations] == [errors.DegenerateInterval], bad
            assert "schedule segment 1:" in str(err.value.violations[0])
        path = bt.UnitaryPath(((1.0, SIGMA_X),), np.eye(2))
        with pytest.raises(errors.DegenerateInterval):
            bt.path_bound_check(path, [(0.5, 0.2)])

    def test_multiobs_slot_outcome_names_the_slot(self, rabi):
        seq = bt.ObservableSequence((rabi.pvm, bt.ObservablePVM.computational_basis(2)))
        with pytest.raises(errors.UnknownOutcome, match="slot 2"):
            bt.eval_multiobs(rabi, grid(0.5, 1.0), seq, outcome((5.0, 1.0), (5.0, 1.0)))

    def test_sourceless_distribution(self, rabi):
        dist = bt.full_distribution(rabi, grid(0.5, 1.0))
        bare = BiDistribution(grid=dist.grid, outcome_sets=dist.outcome_sets, table=dist.table)
        with pytest.raises(errors.DomainMismatch):
            bt.classicality_report(bare)
