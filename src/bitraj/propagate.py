"""Unitary propagators and Heisenberg-picture projectors.

Propagators are exact products of segment exponentials ``exp(-i H dt)``
computed by Hermitian eigendecomposition, so unitarity holds to floating
point regardless of step size.  In the piecewise-constant model the cocycle
property U(t3,t1) = U(t3,t2) U(t2,t1) is exact up to rounding.
:func:`propagators_along` is the one way to propagate along an ascending
grid: it diagonalises each segment once and reproduces :func:`propagator`
bitwise at every grid time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._linalg import dagger, expm_from_eigh, expm_hermitian
from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    NonFiniteTime,
    NotUnitary,
    OutOfHorizon,
    ValidationError,
)
from .model import HamiltonianSchedule, QuantumScenario, check_defect

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
            raise DimensionMismatch(f"propagator matrix must be square, got shape {m.shape}")
        # Frobenius norm: never below the spectral norm, so never a looser
        # check, and it needs no SVD; a non-finite entry makes dev NaN or
        # inf, which fails the comparison
        with np.errstate(invalid="ignore", over="ignore"):
            dev = float(np.linalg.norm(dagger(m) @ m - np.eye(m.shape[0])))
        violations = check_defect(
            dev, TOL_UNITARY, NotUnitary,
            "propagator on [%r, %r]: unitarity defect", self.t_from, self.t_to)
        if violations:
            raise ValidationError(violations)
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
        raise DimensionMismatch(f"operator_norm: expected a square matrix, got shape {a.shape}")
    return float(np.linalg.norm(a, 2))


def propagator(
    schedule: HamiltonianSchedule,
    t_from: float,
    t_to: float,
) -> UnitaryMatrix:
    """Time-ordered propagator U(t_to, t_from) for a piecewise schedule.

    Each covered segment piece contributes one exact exponential.
    """
    t_from, t_to = float(t_from), float(t_to)
    if not (math.isfinite(t_from) and math.isfinite(t_to)):
        raise NonFiniteTime(f"propagator endpoints must be finite, got [{t_from}, {t_to}]")
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
            u = expm_hermitian(h, -1j * (b - a)) @ u
    return UnitaryMatrix(u, t_from, t_to)


def propagators_along(schedule: HamiltonianSchedule, times) -> list:
    """U(0, t_j) for every time of an ascending grid, as UnitaryMatrix objects.

    Each segment is diagonalised once.  Only whole segments are carried,
    as U(0, a_k); every U(0, t_j) is the partial exponential
    exp(-i H_k (t_j - a_k)) applied to the carry of its segment, which is the
    arithmetic of ``propagator(schedule, 0.0, t_j)``, so the results are
    bitwise equal to it.  Chaining grid steps U(t_{j-1}, t_j) instead would
    add one rounding error per grid step.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(t) for t in times):
        raise NonFiniteTime(f"propagation times must be finite, got {times}")
    if any(b < a for a, b in zip(times[:-1], times[1:])):
        raise DegenerateInterval(f"propagation times must be ascending, got {times}")
    if times and (times[0] < 0 or times[-1] > schedule.horizon):
        raise OutOfHorizon(
            f"times [{times[0]}, {times[-1]}] outside schedule horizon [0, {schedule.horizon}]"
        )
    segments = iter(schedule.segments)
    a, b, h = next(segments)
    eig = np.linalg.eigh(h)
    carry = np.eye(schedule.dimension, dtype=complex)
    out = []
    for t in times:
        while t > b:
            carry = expm_from_eigh(eig, -1j * (b - a)) @ carry
            a, b, h = next(segments)
            eig = np.linalg.eigh(h)
        u = expm_from_eigh(eig, -1j * (t - a)) @ carry if t > a else carry
        out.append(UnitaryMatrix(u, 0.0, t))
    return out


def heisenberg_projector(scenario: QuantumScenario, outcome: float, t: float) -> np.ndarray:
    """P_t(f) = U(0,t) P(f) U(t,0): the projector evolved to time t."""
    p = scenario.pvm.projector(outcome)  # raises UnknownOutcome
    if t == 0.0:
        return p
    u = propagator(scenario.schedule, 0.0, t).matrix
    return dagger(u) @ p @ u


def heisenberg_pvm_stacks(scenario: QuantumScenario, times, pvms=None) -> Iterator[np.ndarray]:
    """Yield the Heisenberg projector stack, one (k_j, d, d) array, per ascending time.

    ``pvms`` gives one observable per time and defaults to the scenario's.
    A consumer that drops each stack holds one at a time.
    """
    if pvms is None:
        pvms = [scenario.pvm] * len(times)
    for u, pvm in zip(propagators_along(scenario.schedule, times), pvms):
        ud = dagger(u.matrix)
        yield np.stack([ud @ p @ u.matrix for p in pvm.projectors])
