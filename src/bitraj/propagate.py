"""Unitary propagators and Heisenberg-picture projectors.

Propagators are exact products of segment exponentials ``exp(-i H dt)``
computed by Hermitian eigendecomposition, so unitarity holds to floating
point regardless of step size.  In the piecewise-constant model the cocycle
property U(t3,t1) = U(t3,t2) U(t2,t1) is exact up to rounding.  Every
propagator comes from one lazy segment walk, which diagonalises each segment
once, in byte-bounded batches (one ``eigh`` and one exponential per chunk
of segments, bitwise the per-segment calls): :func:`propagator` is its first
value (and :func:`heisenberg_projector` conjugates by it),
:func:`propagators_along` its list, and :func:`heisenberg_pvm_stacks`
consumes it one time at a time; :func:`uniform_step_runs` walks a uniform
grid over the same batches.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
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
_CHUNK_BYTES = 2**18  # what a walk holds of one chunk of segments


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


def _segment_bytes(d: int) -> int:
    # six d x d stacks' share (generators, eigenvectors and exponentials with
    # temporaries, beside the previous chunk's eigenvectors and exponentials)
    # and 1 KiB of small objects
    return 96 * d * d + 1024


@functools.cache
def _chunk_len(d: int) -> int:
    """Segments per chunk of a walk: as many as _CHUNK_BYTES holds, and at least one."""
    return max(1, _CHUNK_BYTES // _segment_bytes(d))


def _walk_bytes(d: int, segments: int) -> int:
    """Peak bytes of a walk: one chunk, beside the carry, a partial exponential and eigh's workspace."""
    return min(segments, _chunk_len(d)) * _segment_bytes(d) + 96 * d * d


def _segment_pieces(schedule, t_from: float, t_to: float) -> Iterator[tuple]:
    """Yield ``(a, b, eig, whole)`` for each segment piece [a, b] the walks to t_to enter.

    The segments are read one chunk of ``_chunk_len(d)`` at a time, a lazily
    built schedule included, with one ``eigh`` and one exponential per chunk;
    ``whole`` is exp(-i H (b - a)), or None for the last piece, which may be
    unbounded.  Each value is bitwise the per-piece call's.  A piece whose
    phase |lambda| dt can overflow gets NaN eigenvalues: its exponentials are
    NaN, which the unitarity check names, with no RuntimeWarning to silence.
    """
    per_chunk, chunk = _chunk_len(schedule.dimension), []
    for a, b, h in schedule.segments:
        if b > t_from:
            chunk.append((max(a, t_from), b, h))
            last = b >= t_to
            if last or len(chunk) == per_chunk:
                if len(chunk) > 1:
                    yield from _diagonalise(chunk, last, t_to)
                else:  # no stack copy: a short schedule costs what it did
                    a, b, h = chunk.pop()
                    evals, evecs = eig = np.linalg.eigh(h)
                    # |lambda| <= this bound, which a NaN eigenvalue makes NaN
                    if not (abs(float(evals[0])) + abs(float(evals[-1]))) * (min(b, t_to) - a) < math.inf:
                        _quiet_overflow(evals, a, b, t_to)
                    yield a, b, eig, None if last else expm_from_eigh(eig, -1j * (b - a))
                if last:
                    return


def _diagonalise(chunk: list, last: bool, t_to: float) -> list:
    """``(a, b, eig, whole)`` of each ``(a, b, H)`` of a chunk of two or more, which it empties."""
    starts, ends, hs = zip(*chunk)
    chunk.clear()
    stack = np.array(hs)  # np.stack takes three times as long on small matrices
    del hs  # the stack alone holds a lazily built chunk
    evals, evecs = np.linalg.eigh(stack)
    del stack
    if not float(np.abs(evals).max()) * (min(ends[-1], t_to) - starts[0]) < math.inf:
        _quiet_overflow(evals, np.array(starts), np.array(ends), t_to)
    n = len(starts) - last  # whole pieces
    wholes = list(expm_from_eigh((evals[:n], evecs[:n]), -1j * (np.array(ends[:n]) - starts[:n])))
    return list(zip(starts, ends, zip(evals, evecs), wholes + [None] * last))


def _quiet_overflow(evals: np.ndarray, a, b, t_to: float) -> None:
    """Set to NaN, in place, the eigenvalues of each piece [a, b] whose phase can overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.abs(evals).max(axis=-1) * (np.minimum(b, t_to) - a)
    evals[~(phase < math.inf)] = math.nan


def _walk(schedule: HamiltonianSchedule, t_from: float, times) -> Iterator[UnitaryMatrix]:
    """Yield U(t, t_from) for every time of an ascending sequence, lazily.

    Each covered segment is diagonalised once, in the byte-bounded batches
    of :func:`_segment_pieces`.  Only whole segment pieces are carried; every
    U(t, t_from) is the partial exponential exp(-i H_k (t - a_k)) applied to
    the carry of its piece, so each yielded propagator has the arithmetic of
    the plain piece-by-piece product from t_from to t, whatever other times
    are walked.  Chaining steps between the times instead would add one
    rounding error per step.
    """
    t_from = float(t_from)
    times = [float(t) for t in times]
    ends = [t_from, *times]
    if not all(map(math.isfinite, ends)):
        raise NonFiniteTime(f"propagation times must be finite, got {ends}")
    if min(ends) < 0 or max(ends) > schedule.horizon:
        raise OutOfHorizon(f"times {ends} outside schedule horizon [0, {schedule.horizon}]")
    if any(map(operator.lt, ends[1:], ends[:-1])):
        raise DegenerateInterval(f"propagation times must be ascending from t_from, got {ends}")
    pieces = _segment_pieces(schedule, t_from, ends[-1])
    a = b = t_from
    carry = np.eye(schedule.dimension, dtype=complex)
    for t in times:
        while t > b:
            if b > a:
                carry = whole @ carry
            a, b, eig, whole = next(pieces)
        u = expm_from_eigh(eig, -1j * (t - a)) @ carry if t > a else carry
        yield UnitaryMatrix(u, t_from, t)  # an overflowing piece made u NaN


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

    The ordered product of the dU^m is U(t, 0).  Each covered segment is
    diagonalised once, in the byte-bounded batches of :func:`_segment_pieces`;
    the m steps inside one segment share dU = exp(-i H t/n); a step across
    segment edges is a run of length 1, bitwise the product of its pieces
    that :func:`propagator` forms.
    """
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteTime(f"propagation time must be finite, got {t}")
    if not 0 <= t <= schedule.horizon:
        raise OutOfHorizon(f"time {t} outside schedule horizon [0, {schedule.horizon}]")

    def end(i):  # t_i, never one ulp past t at i = n
        return t * (i / n_steps)

    j, carry = 0, None  # carry: the pieces so far of step j, which crosses an edge
    for a, b, eig, whole in _segment_pieces(schedule, 0.0, t):
        if carry is not None:
            if end(j + 1) > b:
                carry = whole @ carry
                continue
            yield expm_from_eigh(eig, -1j * (end(j + 1) - a)) @ carry, 1
            j, carry = j + 1, None
        # steps ending by b: all that are left in the last segment
        m = n_steps - j if b >= t else bisect.bisect_right(range(n_steps + 1), b, j + 1, key=end) - j - 1
        if m:
            yield expm_from_eigh(eig, -1j * (t / n_steps)), m
            j += m
        if j == n_steps:
            return
        if end(j) < b:
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
        yield dagger(u.matrix) @ pvm._stack @ u.matrix
