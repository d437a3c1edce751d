"""Unitary propagators and Heisenberg-picture projectors.

Propagators are exact products of segment exponentials ``exp(-i H dt)``
computed by Hermitian eigendecomposition, so unitarity holds to floating
point regardless of step size.  In the piecewise-constant model the cocycle
property U(t3,t1) = U(t3,t2) U(t2,t1) is exact up to rounding.

Every propagator comes from one segment walk, which yields its times in
batches, each a checked, read-only ``(m, d, d)`` stack: :func:`propagator`
and :func:`propagators_along` wrap its rows as UnitaryMatrix objects (and
:func:`heisenberg_projector` conjugates by one), and
:func:`heisenberg_pvm_stacks` conjugates them one time at a time;
:func:`uniform_step_runs` batches the step runs of a uniform grid over the
same segments.  A walk diagonalises the segments it covers in byte-bounded
batches (one ``eigh`` and one exponential per chunk of segments, bitwise the
per-segment calls).

A HamiltonianSchedule keeps what its walks factor in a private memo, which
lives as long as the schedule: each covered segment's eigensystem and whole
exponential and, once a walk from 0 reaches it, the prefix product
U(a_k, 0).  So each segment is diagonalised once per schedule, and a walk
from 0 through factored segments forms its times in batches: one partial
exponential call with one scale per time, one stacked product with the
prefix rows and one stacked unitarity check, which the UnitaryMatrix
constructor shares (:func:`_checked`).  The memo holds ``48 d^2 + 8 d + 8``
bytes a segment and 2 KiB (:func:`_memo_bytes`).  A schedule whose memo would
pass ``_MEMO_BYTES`` (4 MiB) keeps none, and neither does a lazily built one
such as the opensys joint generators: their walks factor one chunk at a time
and drop it, within :func:`_walk_bytes`.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import threading
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
from .model import _CHUNK_BYTES, HamiltonianSchedule, QuantumScenario, _spectral_norm, check_defect
from .serialize import as_array, as_operator, as_real, as_reals

TOL_UNITARY = 1e-9
_MEMO_BYTES = 2**22  # the most a schedule's memo may hold


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A propagator together with the time interval it covers, held to ||U^dagger U - I||_F <= TOL_UNITARY.

    The constructor checks and freezes a copy with :func:`_checked`, which checks
    every walked batch too; :func:`propagator` and :func:`propagators_along` wrap their rows.
    """

    matrix: np.ndarray
    t_from: float
    t_to: float

    def __post_init__(self):
        m = as_operator(self.matrix, "propagator matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"propagator matrix must be square, got shape {m.shape}")
        t_from, t_to = as_real(self.t_from, "t_from"), as_real(self.t_to, "t_to")
        with np.errstate(invalid="ignore", over="ignore"):  # a given matrix may hold huge entries
            us = _checked(m[None].copy(), t_from, (t_to,))
        vars(self).update(matrix=us[0], t_from=t_from, t_to=t_to)

    @classmethod
    def _walked(cls, m: np.ndarray, t_from: float, t_to: float) -> "UnitaryMatrix":
        """A propagator a walk formed and checked: ``m`` is kept as it is, with no copy and no second check."""
        u = object.__new__(cls)
        vars(u).update(matrix=m, t_from=t_from, t_to=t_to)
        return u

    @property
    def interval(self) -> tuple:
        return (self.t_from, self.t_to)


@functools.cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d, dtype=complex)
    eye.setflags(write=False)
    return eye


def _checked(us: np.ndarray, t_from: float, times) -> np.ndarray:
    """A stack of U(t, t_from), one per time, made read-only once each has ||U^dagger U - I||_F <= TOL_UNITARY.

    The Frobenius norm is never below the spectral norm, so the check is never
    looser, and one stacked product serves it with no SVD.  A non-finite entry
    makes the defect NaN or inf, which fails; the earliest time that fails
    raises NotUnitary.  The stack owns its data, so no row can be made writable.
    """
    g = us.conj().swapaxes(-1, -2) @ us
    g -= _identity(us.shape[-1])
    r = g.reshape(len(us), 1, -1).view(float)
    for dev, t in zip((r @ r.swapaxes(-1, -2)).ravel().tolist(), times):
        violations = check_defect(
            math.sqrt(dev), TOL_UNITARY, NotUnitary, "propagator on [%r, %r]: unitarity defect", t_from, t)
        if violations:
            raise ValidationError(violations)
    us.setflags(write=False)
    return us


def operator_norm(m) -> float:
    """Largest singular value (for Hermitian input, the max |eigenvalue|)."""
    a = as_array(m, "operator_norm")
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


def _walk_bytes(d: int, pieces: int) -> int:
    """Peak bytes of a walk: a chunk of its segments or of its times (each within a segment's
    share), whichever is more, beside the carry, a partial exponential and eigh's workspace."""
    return min(pieces, _chunk_len(d)) * _segment_bytes(d) + 96 * d * d


def _kept_memo_bytes(schedule: HamiltonianSchedule) -> int:
    """Bytes the schedule's memo holds once full, beside a walk and after it; 0 if it keeps none."""
    memo = _memo_bytes(schedule.dimension, len(schedule.segments))
    return memo if memo <= _MEMO_BYTES else 0


def _memo_bytes(d: int, segments: int) -> int:
    """Bytes a schedule's memo holds: its rows for every segment and 2 KiB of small objects."""
    # eigenvalues, eigenvectors, whole exponential and prefix product, and a
    # tuple slot for the end
    return segments * (48 * d * d + 8 * d + 8) + 2048


class _Memo:
    """The factored segments of one HamiltonianSchedule, which keeps it as ``_memo``.

    Row k of ``evals`` and ``evecs`` holds segment k's eigensystem once
    k < ``factored``, and ``wholes`` its whole exponential (every segment
    but the last has one); row k of ``prefix``, made by the first walk from
    0, holds U(a_k, 0) once k < ``prefixed``.  The rows are sized for every
    segment, as :func:`_memo_bytes` counts them, and filled under a lock, so
    a schedule stays shareable across threads.
    """

    def __init__(self, segments: tuple):
        n, d = len(segments), segments[0][2].shape[0]
        self.segments = segments
        self.ends = tuple(b for _, b, _ in segments)
        self.evals = np.empty((n, d))
        self.evecs = np.empty((n, d, d), dtype=complex)
        self.wholes = np.empty((n - 1, d, d), dtype=complex)
        self.prefix = None
        self.factored = self.prefixed = 0
        self.lock = threading.Lock()

    def __reduce__(self):  # a copy starts empty: a lock cannot be pickled
        return _Memo, (self.segments,)

    def factor(self, k: int) -> None:
        """Factor the segments up to k, one ``eigh`` and one exponential per chunk of _chunk_len(d)."""
        if k < self.factored:
            return
        with self.lock:
            while self.factored <= k:
                lo = self.factored
                hi = min(lo + _chunk_len(self.evals.shape[1]), k + 1)
                pieces = list(self.segments[lo:hi])
                _, _, evals, evecs, wholes = _factor(pieces, min(hi, len(self.wholes)) - lo)
                self.evals[lo:hi], self.evecs[lo:hi] = evals, evecs
                self.wholes[lo:lo + len(wholes)] = wholes
                self.factored = hi

    def from_zero(self, times: tuple) -> np.ndarray:
        """U(t, 0) for ascending times in factored segments, as one new (m, d, d) stack.

        The times at 0 get the identity row.  The others take one partial
        exponential call, with one scale per time, and one stacked product with
        the prefix rows of their segments: each matrix is bitwise the per-time
        product, and NaN where its phase can overflow (:func:`_fitting`).
        """
        z = bisect.bisect_right(times, 0.0)  # ascending, so the times at 0 lead
        rows = [bisect.bisect_left(self.ends, t) for t in times[z:]]
        k = rows[-1] if rows else 0
        if k >= self.prefixed:
            with self.lock:
                if self.prefix is None:
                    self.prefix = np.empty_like(self.evecs)
                for j in range(self.prefixed, k + 1):  # the walk's carry products, in its order
                    if j:
                        np.matmul(self.wholes[j - 1], self.prefix[j - 1], out=self.prefix[j])
                    else:
                        self.prefix[0] = np.eye(self.prefix.shape[1])
                self.prefixed = max(self.prefixed, k + 1)
        dts = [t - self.segments[row][0] for t, row in zip(times[z:], rows)]
        if len(rows) == 1:  # views of its rows and 1-D calls: 8 us, against 14 for a stack of one
            k, dt = rows[0], dts[0]
            us = expm_from_eigh(_eig(self.evals[k], self.evecs[k], dt), -1j * dt) @ self.prefix[k:k + 1]
        elif rows:
            evals = _fitting(self.evals.take(rows, 0), np.array(dts))
            scales = np.array([-1j * dt for dt in dts])
            us = expm_from_eigh((evals, self.evecs.take(rows, 0)), scales) @ self.prefix.take(rows, 0)
        if not z:
            return us
        identity = np.repeat(self.prefix[:1], z, 0)
        return np.concatenate((identity, us)) if rows else identity


def _memo(schedule):
    """The schedule's memo, made on first use; None for a lazily built schedule or one over _MEMO_BYTES."""
    memo = schedule.__dict__.get("_memo")
    if memo is None and isinstance(schedule, HamiltonianSchedule):
        if _memo_bytes(schedule.dimension, len(schedule.segments)) <= _MEMO_BYTES:
            memo = schedule.__dict__.setdefault("_memo", _Memo(schedule.segments))
    return memo


def _factor(pieces: list, n: int) -> tuple:
    """``(starts, ends, evals, evecs, wholes)`` of a list of ``(a, b, H)`` pieces, which it empties.

    One ``eigh`` diagonalises every piece and one exponential gives the whole
    exp(-i H (b - a)) of the first n, each bitwise the per-piece call.  A
    whole piece whose phase can overflow gets a NaN exponential (:func:`_fitting`).
    """
    starts, ends, hs = zip(*pieces)
    pieces.clear()
    # np.stack takes three times as long on small matrices; one piece is not copied
    stack = np.array(hs) if len(hs) > 1 else hs[0][None]
    del hs  # the stack alone holds a lazily built chunk
    evals, evecs = np.linalg.eigh(stack)
    del stack
    dt = np.array(ends[:n]) - starts[:n]
    return starts, ends, evals, evecs, expm_from_eigh((_fitting(evals[:n], dt), evecs[:n]), -1j * dt)


def _fitting(evals: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The rule of :func:`_eig` for a stack: each row of eigenvalues, or NaN where its phase over dt can overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        fits = (np.abs(evals[:, 0]) + np.abs(evals[:, -1])) * dt < math.inf
    return evals if fits.all() else np.where(fits[:, None], evals, math.nan)


def _eig(evals: np.ndarray, evecs: np.ndarray, dt: float) -> tuple:
    """A piece's eigensystem for a phase over dt, with NaN eigenvalues if that phase can overflow.

    Its exponentials are then NaN, which the unitarity check names, with no
    RuntimeWarning to silence.  |lambda| <= |lambda_min| + |lambda_max|, a
    bound that a NaN eigenvalue makes NaN.
    """
    if (abs(float(evals[0])) + abs(float(evals[-1]))) * dt < math.inf:
        return evals, evecs
    return np.full_like(evals, math.nan), evecs


def _segment_pieces(schedule, t_from: float, t_to: float) -> Iterator[tuple]:
    """Yield ``(a, b, eig, whole)`` for each segment piece [a, b] the walks to t_to enter.

    ``whole`` is exp(-i H (b - a)), or None for the last piece, which may be
    unbounded.  Each value is bitwise the per-piece call's, and ``eig`` is
    NaN if the phase over [a, min(b, t_to)] can overflow.  The pieces come in
    chunks ``(starts, ends, evals, evecs, wholes)``: the rows of the
    schedule's memo or, with none, :func:`_factored_chunks`.
    """
    memo = _memo(schedule)
    if memo is None:
        chunks = _factored_chunks(schedule, t_from, t_to)
    else:
        first, last = bisect.bisect_right(memo.ends, t_from), bisect.bisect_left(memo.ends, t_to)
        memo.factor(last)
        starts = [a for a, _, _ in memo.segments[first:last + 1]]
        chunks = [(starts, memo.ends[first:last + 1], memo.evals[first:], memo.evecs[first:], memo.wholes[first:])]
    for starts, ends, evals, evecs, wholes in chunks:
        for i, (start, b) in enumerate(zip(starts, ends)):
            a = max(start, t_from)
            eig = _eig(evals[i], evecs[i], min(b, t_to) - a)
            if b >= t_to:
                whole = None
            else:  # a memo row's whole exponential covers its segment from its start
                whole = wholes[i] if a == start else expm_from_eigh(eig, -1j * (b - a))
            yield a, b, eig, whole


def _factored_chunks(schedule, t_from: float, t_to: float) -> Iterator[tuple]:
    """:func:`_factor` the pieces from t_from to t_to, ``_chunk_len(d)`` at a time, each as a walk reaches it."""
    per_chunk, pieces = _chunk_len(schedule.dimension), []
    for a, b, h in schedule.segments:
        if b > t_from:
            pieces.append((max(a, t_from), b, h))
            last = b >= t_to
            if last or len(pieces) == per_chunk:
                yield _factor(pieces, len(pieces) - last)
                if last:
                    return


def _walk(schedule: HamiltonianSchedule, t_from: float, times) -> Iterator[tuple]:
    """Yield U(t, t_from) for every time of an ascending sequence, lazily, in batches ``(stack, times)``.

    Each covered segment is diagonalised once, in the byte-bounded batches
    of :func:`_segment_pieces`.  Only whole segment pieces are carried; every
    U(t, t_from) is the partial exponential exp(-i H_k (t - a_k)) applied to
    the carry of its piece, so each propagator has the arithmetic of the
    plain piece-by-piece product from t_from to t, whatever other times are
    walked.  Chaining steps between the times instead would add one
    rounding error per step.  From t_from = 0, the carries are the memo's
    prefix products, and the times go through :meth:`_Memo.from_zero` in
    batches of ``_chunk_len(d)``; otherwise each batch holds one time.  Every
    batch is an ``(m, d, d)`` stack of its m times, checked by
    :func:`_checked` before it is yielded and read-only.
    """
    t_from = as_real(t_from, "t_from")
    times = as_reals(times, "propagation time")
    ends = [t_from, *times]
    if not all(map(math.isfinite, ends)):
        raise NonFiniteTime(f"propagation times must be finite, got {ends}")
    if min(ends) < 0 or max(ends) > schedule.horizon:
        raise OutOfHorizon(f"times {ends} outside schedule horizon [0, {schedule.horizon}]")
    if any(map(operator.lt, ends[1:], ends[:-1])):
        raise DegenerateInterval(f"propagation times must be ascending from t_from, got {ends}")
    memo = _memo(schedule)
    if memo is not None and t_from == 0:
        if ends[-1] > 0:
            memo.factor(bisect.bisect_left(memo.ends, ends[-1]))
        step = _chunk_len(schedule.dimension)  # times per batch: a time holds less than a segment
        for lo in range(0, len(times), step):
            batch = times[lo:lo + step]
            yield _checked(memo.from_zero(batch), t_from, batch), batch
        return
    pieces = _segment_pieces(schedule, t_from, ends[-1])
    a = b = t_from
    carry = np.array([np.eye(schedule.dimension, dtype=complex)])  # a stack of one, as _checked takes
    for t in times:
        while t > b:
            if b > a:
                carry = whole @ carry
            a, b, eig, whole = next(pieces)
        u = expm_from_eigh(eig, -1j * (t - a)) @ carry if t > a else carry
        yield _checked(u, t_from, (t,)), (t,)  # an overflowing piece made u NaN


def propagator(
    schedule: HamiltonianSchedule,
    t_from: float,
    t_to: float,
) -> UnitaryMatrix:
    """Time-ordered propagator U(t_to, t_from) for a piecewise schedule.

    Each covered segment piece contributes one exact exponential.
    """
    us, (t_to,) = next(_walk(schedule, t_from, [t_to]))
    return UnitaryMatrix._walked(us[0], as_real(t_from, "t_from"), t_to)


def propagators_along(schedule: HamiltonianSchedule, times) -> list:
    """U(0, t_j) for every time of an ascending grid, as UnitaryMatrix objects.

    One walk: bitwise equal to ``propagator(schedule, 0.0, t_j)`` at every time.
    """
    return [UnitaryMatrix._walked(u, 0.0, t) for us, ts in _walk(schedule, 0.0, times) for u, t in zip(us, ts)]


def uniform_step_runs(schedule: HamiltonianSchedule, t: float, n_steps: int, per_batch: int) -> Iterator[tuple]:
    """Yield batches ``(dUs, ms)`` of the runs over the steps [t (j-1)/n, t j/n] of [0, t], earliest first.

    A batch stacks the dU of at most per_batch runs and lists their lengths m;
    the ordered product of every dU^m is U(t, 0).  The m steps inside one
    segment share dU = exp(-i H t/n), one exponential call per batch on a copy
    of the eigensystems :func:`_segment_pieces` walks; a step across segment
    edges is a run of length 1, the product of its pieces that
    :func:`propagator` forms.  Each dU is bitwise the per-run call's.  Beside
    the walk, a batch holds five (per_batch, d, d) stacks at most.
    """
    t = as_real(t, "propagation time")
    if not math.isfinite(t):
        raise NonFiniteTime(f"propagation time must be finite, got {t}")
    if not 0 <= t <= schedule.horizon:
        raise OutOfHorizon(f"time {t} outside schedule horizon [0, {schedule.horizon}]")
    size, d = min(per_batch, n_steps), schedule.dimension
    evals, evecs = np.empty((size, d)), np.empty((size, d, d), dtype=complex)  # the batch's whole-step runs

    def end(i):  # t_i, never one ulp past t at i = n
        return t * (i / n_steps)

    pieces = _segment_pieces(schedule, 0.0, t)
    a, b, eig, whole = next(pieces)
    j, k, runs = 0, 0, []  # runs: (dU, m), dU None for the k whole-step runs
    while j < n_steps:
        if end(j + 1) <= b:  # the steps ending by b: one estimate, corrected exactly, or all that are left
            i = n_steps if b >= t else int(b / t * n_steps)
            while b < t and end(i + 1) <= b:
                i += 1
            while end(i) > b:
                i -= 1
            evals[k], evecs[k] = eig
            runs.append((None, i - j))
            j, k = i, k + 1
        else:  # step j + 1 crosses b: the ordered product of its pieces
            carry = expm_from_eigh(eig, -1j * (b - end(j)))
            a, b, eig, whole = next(pieces)
            while end(j + 1) > b:
                carry = whole @ carry
                a, b, eig, whole = next(pieces)
            runs.append((expm_from_eigh(eig, -1j * (end(j + 1) - a)) @ carry, 1))
            j += 1
        if len(runs) == size or j == n_steps:  # the whole-step runs' exponentials from one call
            dus = expm_from_eigh((evals[:k], evecs[:k]), -1j * (t / n_steps))
            if k < len(runs):  # the crossings put among them
                wholes = iter(dus)
                dus = np.array([next(wholes) if du is None else du for du, _ in runs])
            yield dus, [m for _, m in runs]
            k, runs = 0, []
        if j < n_steps and end(j) == b:
            a, b, eig, whole = next(pieces)


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
    pvms = iter([scenario.pvm] * len(times) if pvms is None else pvms)
    for us, _ in _walk(scenario.schedule, 0.0, times):
        for u, pvm in zip(us, pvms):
            yield dagger(u) @ pvm._stack @ u
