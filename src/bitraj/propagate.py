"""Unitary propagators and Heisenberg-picture projectors.

Propagators are exact products of segment exponentials ``exp(-i H dt)``
computed by Hermitian eigendecomposition, so unitarity holds to floating
point regardless of step size.  In the piecewise-constant model the cocycle
property U(t3,t1) = U(t3,t2) U(t2,t1) is exact up to rounding.  Every
propagator comes from one lazy segment walk, which diagonalises each segment
once: :func:`propagator` is its first value (and :func:`heisenberg_projector`
conjugates by it), :func:`propagators_along` its list, and
:func:`heisenberg_pvm_stacks` consumes it one time at a time;
:func:`uniform_step_runs` walks a uniform grid the same way.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._linalg import dagger, expm_from_eigh
from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    DomainMismatch,
    NonFiniteTime,
    NotUnitary,
    OutOfHorizon,
    ValidationError,
)
from .model import HamiltonianSchedule, QuantumScenario, _spectral_norm, check_defect

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


def operator_norm(m) -> float:
    """Largest singular value (for Hermitian input, the max |eigenvalue|)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator_norm: expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainMismatch("operator_norm: entries must be finite")
    return _spectral_norm(a)


def _walk(schedule: HamiltonianSchedule, t_from: float, times) -> Iterator[UnitaryMatrix]:
    """Yield U(t, t_from) for every time of an ascending sequence, lazily.

    Each segment is diagonalised once, when the walk first enters it.  Only
    whole segment pieces are carried; every U(t, t_from) is the partial
    exponential exp(-i H_k (t - a_k)) applied to the carry of its piece, so
    each yielded propagator has the arithmetic of the plain piece-by-piece
    product from t_from to t, whatever other times are walked.  Chaining
    steps between the times instead would add one rounding error per step.
    """
    t_from = float(t_from)
    times = [float(t) for t in times]
    ends = [t_from, *times]
    if not all(math.isfinite(t) for t in ends):
        raise NonFiniteTime(f"propagation times must be finite, got {ends}")
    if min(ends) < 0 or max(ends) > schedule.horizon:
        raise OutOfHorizon(f"times {ends} outside schedule horizon [0, {schedule.horizon}]")
    if any(b < a for a, b in zip(ends[:-1], ends[1:])):
        raise DegenerateInterval(f"propagation times must be ascending from t_from, got {ends}")
    pieces = ((max(a, t_from), b, h) for a, b, h in schedule.segments if b > t_from)
    a = b = t_from
    carry = np.eye(schedule.dimension, dtype=complex)
    for t in times:
        # an exponential that overflows is NaN, which fails the unitarity check
        with np.errstate(invalid="ignore", over="ignore"):
            while t > b:
                if b > a:
                    carry = expm_from_eigh(eig, -1j * (b - a)) @ carry
                a, b, h = next(pieces)
                eig = np.linalg.eigh(h)
            u = expm_from_eigh(eig, -1j * (t - a)) @ carry if t > a else carry
        yield UnitaryMatrix(u, t_from, t)


def propagator(
    schedule: HamiltonianSchedule,
    t_from: float,
    t_to: float,
) -> UnitaryMatrix:
    """Time-ordered propagator U(t_to, t_from) for a piecewise schedule.

    Each covered segment piece contributes one exact exponential.
    """
    return next(_walk(schedule, t_from, [t_to]))


def propagators_along(schedule: HamiltonianSchedule, times) -> list:
    """U(0, t_j) for every time of an ascending grid, as UnitaryMatrix objects.

    One walk: bitwise equal to ``propagator(schedule, 0.0, t_j)`` at every time.
    """
    return list(_walk(schedule, 0.0, times))


def uniform_step_runs(schedule: HamiltonianSchedule, t: float, n_steps: int) -> Iterator[tuple]:
    """Yield ``(dU, m)`` runs over the steps [t (j-1)/n, t j/n] of [0, t], earliest first.

    The ordered product of the dU^m is U(t, 0).  The m steps inside one
    segment share dU = exp(-i H t/n) from its single eigendecomposition; a
    step across segment edges is a run of length 1, bitwise the product of
    its pieces that :func:`propagator` forms.
    """
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteTime(f"propagation time must be finite, got {t}")
    if not 0 <= t <= schedule.horizon:
        raise OutOfHorizon(f"time {t} outside schedule horizon [0, {schedule.horizon}]")

    def end(i):  # t_i, never one ulp past t at i = n
        return t * (i / n_steps)

    j, carry = 0, None  # carry: the pieces so far of step j, which crosses an edge
    for a, b, h in schedule.segments:
        if j == n_steps:
            return
        eig = np.linalg.eigh(h)
        if carry is not None:
            if end(j + 1) > b:
                carry = expm_from_eigh(eig, -1j * (b - a)) @ carry
                continue
            yield expm_from_eigh(eig, -1j * (end(j + 1) - a)) @ carry, 1
            j, carry = j + 1, None
        m = bisect.bisect_right(range(n_steps + 1), b, j + 1, key=end) - j - 1  # steps ending by b
        if m:
            yield expm_from_eigh(eig, -1j * (t / n_steps)), m
            j += m
        if j < n_steps and end(j) < b:
            carry = expm_from_eigh(eig, -1j * (b - end(j)))


def heisenberg_projector(scenario: QuantumScenario, outcome: float, t: float) -> np.ndarray:
    """P_t(f) = U(0,t) P(f) U(t,0): the projector evolved to time t."""
    p = scenario.pvm.projector(outcome)  # raises UnknownOutcome
    u = propagator(scenario.schedule, 0.0, t).matrix
    return dagger(u) @ p @ u


def heisenberg_pvm_stacks(scenario: QuantumScenario, times, pvms=None) -> Iterator[np.ndarray]:
    """Yield the Heisenberg projector stack, one (k_j, d, d) array, per ascending time.

    ``pvms`` gives one observable per time and defaults to the scenario's.
    A consumer that drops each stack holds one at a time.
    """
    if pvms is None:
        pvms = [scenario.pvm] * len(times)
    for u, pvm in zip(_walk(scenario.schedule, 0.0, times), pvms):
        yield dagger(u.matrix) @ np.stack(pvm.projectors) @ u.matrix
