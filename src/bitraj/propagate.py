"""Unitary propagators and Heisenberg-picture projectors.

Propagators are exact products of segment exponentials ``exp(-i H dt)``
computed by Hermitian eigendecomposition, so unitarity holds to floating
point regardless of step size.  In the piecewise-constant model the cocycle
property U(t3,t1) = U(t3,t2) U(t2,t1) is exact up to rounding.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._linalg import dagger, expm_hermitian
from .errors import (
    DegenerateInterval,
    NonFiniteTime,
    NonHermitian,
    NonSquare,
    OutOfHorizon,
    ValidationError,
)
from .model import HamiltonianSchedule, QuantumScenario

TOL_UNITARY = 1e-9


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A propagator together with the time interval it covers."""

    matrix: np.ndarray
    t_from: float
    t_to: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonSquare(f"propagator matrix must be square, got shape {m.shape}")
        dev = float(np.linalg.norm(dagger(m) @ m - np.eye(m.shape[0]), 2))
        if dev > TOL_UNITARY:
            raise ValidationError(
                [NonHermitian(
                    f"unitarity defect {dev:.3e} exceeds tol {TOL_UNITARY:.1e}"
                    f" on [{self.t_from}, {self.t_to}]")]
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def interval(self) -> tuple:
        return (self.t_from, self.t_to)

    def reversed(self) -> "UnitaryMatrix":
        return UnitaryMatrix(dagger(self.matrix), self.t_to, self.t_from)


def operator_norm(m) -> float:
    """Largest singular value (for Hermitian input, the max |eigenvalue|)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"operator_norm: expected a square matrix, got shape {a.shape}")
    return float(np.linalg.norm(a, 2))


def propagator(
    schedule: HamiltonianSchedule,
    t_from: float,
    t_to: float,
    substeps: int = 1,
) -> UnitaryMatrix:
    """Time-ordered propagator U(t_to, t_from) for a piecewise schedule.

    Each covered segment piece is split into ``substeps`` equal slices with
    an exact exponential per slice; for piecewise-constant H the result is
    independent of ``substeps``.
    """
    t_from, t_to = float(t_from), float(t_to)
    if not (math.isfinite(t_from) and math.isfinite(t_to)):
        raise NonFiniteTime(f"propagator endpoints must be finite, got [{t_from}, {t_to}]")
    if substeps < 1:
        raise DegenerateInterval(f"substeps must be >= 1, got {substeps}")
    if t_from > t_to:
        raise DegenerateInterval(f"t_from {t_from} exceeds t_to {t_to}")
    if t_from < 0 or t_to > schedule.horizon:
        raise OutOfHorizon(
            f"interval [{t_from}, {t_to}] outside schedule horizon [0, {schedule.horizon}]"
        )
    d = schedule.dimension
    u = np.eye(d, dtype=complex)
    if t_to > t_from:
        for a, b, h in schedule.pieces(t_from, t_to):
            dt = (b - a) / substeps
            step = expm_hermitian(h, -1j * dt)
            for _ in range(substeps):
                u = step @ u
    return UnitaryMatrix(u, t_from, t_to)


class PropagatorCache:
    """Memoized propagators for one schedule, keyed on exact endpoints.

    Times are compared bitwise (grids are constructed, not measured), which
    avoids epsilon-keying bugs.  Access is lock-protected; a cache hit returns
    the identical array object, hence is bitwise-equal to a fresh computation.
    """

    def __init__(self, schedule: HamiltonianSchedule):
        self.schedule = schedule
        self._store: dict = {}
        self._lock = threading.Lock()

    def propagator(self, t_from: float, t_to: float, substeps: int = 1) -> UnitaryMatrix:
        key = (float(t_from), float(t_to), int(substeps))
        with self._lock:
            hit = self._store.get(key)
        if hit is not None:
            return hit
        u = propagator(self.schedule, t_from, t_to, substeps)
        with self._lock:
            self._store.setdefault(key, u)
        return u

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


def heisenberg_projector(
    scenario: QuantumScenario,
    outcome: float,
    t: float,
    cache: PropagatorCache | None = None,
) -> np.ndarray:
    """P_t(f) = U(0,t) P(f) U(t,0): the projector evolved to time t."""
    p = scenario.pvm.projector(outcome)  # raises UnknownOutcome
    if t == 0.0:
        return p
    if cache is not None:
        u = cache.propagator(0.0, t).matrix
    else:
        u = propagator(scenario.schedule, 0.0, t).matrix
    return dagger(u) @ p @ u


def heisenberg_pvm_stack(
    scenario: QuantumScenario,
    t: float,
    cache: PropagatorCache | None = None,
    pvm=None,
) -> np.ndarray:
    """All Heisenberg projectors at time t, stacked along axis 0."""
    pvm = scenario.pvm if pvm is None else pvm
    if t == 0.0:
        return np.stack(pvm.projectors)
    if cache is not None:
        u = cache.propagator(0.0, t).matrix
    else:
        u = propagator(scenario.schedule, 0.0, t).matrix
    ud = dagger(u)
    return np.stack([ud @ p @ u for p in pvm.projectors])
