"""Multitime quantum bi-probability distributions at finite time grids.

Evaluation, property verification, norm bounds, refinement experiments,
multi-observable and generic families, open-system bi-trajectory
reconstruction, and the bi-instrument cross-check, for finite-dimensional
systems with piecewise-constant Hamiltonians.
"""

from .model import (
    DensityOperator,
    HamiltonianSchedule,
    ObservablePVM,
    QuantumScenario,
    TimeGrid,
    coarse_grain_pvm,
    rabi_scenario,
    random_scenario,
    validate_scenario,
)
from .propagate import (
    UnitaryMatrix,
    heisenberg_projector,
    operator_norm,
    propagator,
    propagators_along,
)
from .biprob import (
    BiDistribution,
    BiOutcome,
    TupleFunction,
    average,
    diagonal_probability,
    eval_biprob,
    full_distribution,
    marginalize,
)
from .verify import (
    PropertyReport,
    cauchy_stabilization,
    check_properties,
    classicality_report,
    grade2_check,
    inconsistency_decomposition,
)
from .bounds import (
    RefinementMesh,
    build_refinement,
    l1_norm,
    minimum_refinement_size,
    nonuniform_bound,
    refinement_monotonicity,
    uniform_bound,
)
from .multiobs import (
    GenericTuple,
    ObservableSequence,
    UnitaryPath,
    decompose_multiobs,
    eval_generic,
    eval_multiobs,
    generic_l1_norm,
    multiobs_distribution,
    path_bound_check,
    path_length,
)
from .opensys import (
    OpenModel,
    Superoperator,
    bitrajectory_map,
    choi_matrix,
    convergence_study,
    exact_joint_map,
)
from .comb import bi_instrument, comb_biprob
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BiDistribution",
    "BiOutcome",
    "DensityOperator",
    "GenericTuple",
    "HamiltonianSchedule",
    "ObservablePVM",
    "ObservableSequence",
    "OpenModel",
    "PropertyReport",
    "QuantumScenario",
    "RefinementMesh",
    "Superoperator",
    "TimeGrid",
    "TupleFunction",
    "UnitaryMatrix",
    "UnitaryPath",
    "average",
    "bi_instrument",
    "bitrajectory_map",
    "build_refinement",
    "cauchy_stabilization",
    "check_properties",
    "choi_matrix",
    "classicality_report",
    "coarse_grain_pvm",
    "comb_biprob",
    "convergence_study",
    "decompose_multiobs",
    "diagonal_probability",
    "errors",
    "eval_biprob",
    "eval_generic",
    "eval_multiobs",
    "exact_joint_map",
    "full_distribution",
    "generic_l1_norm",
    "grade2_check",
    "heisenberg_projector",
    "inconsistency_decomposition",
    "l1_norm",
    "marginalize",
    "minimum_refinement_size",
    "multiobs_distribution",
    "nonuniform_bound",
    "operator_norm",
    "path_bound_check",
    "path_length",
    "propagator",
    "propagators_along",
    "rabi_scenario",
    "random_scenario",
    "refinement_monotonicity",
    "uniform_bound",
    "validate_scenario",
]
