"""l1 norms of bi-probability tables and the bounds they satisfy.

The table's l1 norm (sum of entry magnitudes) always sits between 1 and two
bounds: a lattice-counting bound |Omega|^n that grows with the grid length,
and a grid-independent one, d^2 exp[2(d-1) * integral of ||H(s)||_op], whose
finiteness on a finite horizon is what makes the family extendable at all.
Refining a grid can only increase the norm; the snapped-uniform refinement
meshes built here realize that monotonicity experimentally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .biprob import BiDistribution, check_budget, full_distribution
from .errors import LengthMismatch, NonFiniteTime, OutOfHorizon, TooCoarse
from .model import HamiltonianSchedule, QuantumScenario, TimeGrid, _per_chunk, _spectral_norms
from .serialize import as_count, as_real

REFINEMENT_SCAN_CAP = 10 ** 6


def l1_norm(dist: BiDistribution) -> float:
    """Sum of |Q| over the whole table; at least 1 since the table sums to 1."""
    return float(np.abs(dist.table).sum())


def nonuniform_bound(dist: BiDistribution) -> float:
    """Lattice-size bound |Omega|^n (product of slot sizes for mixed slots)."""
    return float(math.prod(dist.sizes))


def _norm_integral(schedule: HamiltonianSchedule, horizon: float) -> float:
    """int_0^horizon ||H(s)||_op ds, segment-exactly.

    The pieces' norms come from batched SVDs of one chunk of pieces at a
    time, the chunks of the schedule's own Hermiticity check, and are summed
    in time order, so no quadrature error can under-report the integral.
    """
    pieces = schedule.pieces(0.0, horizon)
    per_chunk = _per_chunk(schedule.dimension)
    integral = 0.0
    while chunk := list(itertools.islice(pieces, per_chunk)):
        norms = _spectral_norms(np.array([h for _, _, h in chunk]))
        for (a, b, _), norm in zip(chunk, norms.tolist()):
            integral += norm * (b - a)
    return integral


def _norm_bound(d: int, integral: float) -> float:
    """d^2 exp[2(d-1) integral]; ``math.inf``, still an upper bound, past the float range."""
    try:
        return d * d * math.exp(2.0 * (d - 1) * integral)
    except OverflowError:
        return math.inf


def uniform_bound(scenario: QuantumScenario, horizon: float) -> float:
    """Grid-independent norm bound d^2 exp[2(d-1) * int_0^T ||H(s)|| ds].

    The integral is evaluated segment-exactly over the piecewise-constant
    schedule.  An exponent beyond the float range gives ``math.inf``, still
    an upper bound.
    """
    horizon = as_real(horizon, "horizon")
    if not math.isfinite(horizon):
        raise NonFiniteTime(f"horizon must be finite, got {horizon}")
    if horizon < 0 or horizon > scenario.schedule.horizon:
        raise OutOfHorizon(
            f"requested horizon {horizon} outside schedule horizon [0, {scenario.schedule.horizon}]"
        )
    return _norm_bound(scenario.dimension, _norm_integral(scenario.schedule, horizon))


@dataclass(frozen=True)
class RefinementMesh:
    """A finer grid containing the base grid via an order-preserving injection.

    ``injection[j-1]`` is the 1-based position of t_j inside the refined grid;
    the last base time always maps to the last refined time.
    """

    base: TimeGrid
    refined: TimeGrid
    injection: tuple

    def __post_init__(self):
        inj = tuple(as_count(k, "injection position") for k in self.injection)
        n, big_n = len(self.base), len(self.refined)
        if len(inj) != n:
            raise LengthMismatch(f"injection length {len(inj)} != base grid length {n}")
        if n and inj[-1] != big_n:
            raise LengthMismatch(f"injection must send the last time to position {big_n}, got {inj[-1]}")
        for j, k in enumerate(inj, start=1):
            if not 1 <= k <= big_n:
                raise LengthMismatch(f"injection position {k} outside 1..{big_n}")
            if self.refined.times[k - 1] != self.base.times[j - 1]:
                raise LengthMismatch(
                    f"refined time at position {k} is {self.refined.times[k - 1]},"
                    f" expected base time {self.base.times[j - 1]}"
                )
        object.__setattr__(self, "injection", inj)

    def max_gap(self) -> float:
        times = (0.0,) + self.refined.times
        return max(b - a for a, b in zip(times[:-1], times[1:]))


@dataclass(frozen=True)
class MonotonicityRecord:
    norm_coarse: float
    norm_fine: float


def _snap_positions(grid: TimeGrid, size: int):
    """Cell positions for snapping a uniform size-N mesh onto the grid.

    Returns the 1-based indices (k_1, ..., k_{n-1}) or None when some interior
    time cannot be given its own cell strictly separated from its neighbours.
    """
    times = grid.times
    n = len(times)
    t_n = times[-1]
    h = t_n / size
    ks = []
    prev_k = 0
    for j in range(1, n):  # interior times t_1 .. t_{n-1}
        t_j = times[j - 1]
        k = math.ceil(t_j * size / t_n)
        t_prev = times[j - 2] if j >= 2 else 0.0
        t_next = times[j]
        if k <= prev_k or not ((k - 1) * h > t_prev and k * h < t_next and k * h >= t_j):
            return None
        ks.append(k)
        prev_k = k
    return ks


def minimum_refinement_size(grid: TimeGrid) -> int:
    """Smallest N for which the snapped uniform mesh refines the grid."""
    n = len(grid)
    if n == 0:
        raise LengthMismatch("cannot refine an empty grid")
    for size in range(n, REFINEMENT_SCAN_CAP + 1):
        if _snap_positions(grid, size) is not None:
            return size
    raise TooCoarse(
        f"no admissible refinement size found below {REFINEMENT_SCAN_CAP}",
        minimum=None,
    )


def build_refinement(grid: TimeGrid, size: int, horizon: float | None = None) -> RefinementMesh:
    """Uniform size-N partition of [0, t_n] snapped onto the grid times.

    The mesh keeps every original time exactly; unsnapped points sit at
    multiples of t_n/N, so all gaps are at most 2 t_n / N.
    """
    n = len(grid)
    if n == 0:
        raise LengthMismatch("cannot refine an empty grid")
    t_n = grid.times[-1]
    if horizon is not None and t_n > as_real(horizon, "horizon"):
        raise OutOfHorizon(f"grid reaches {t_n}, beyond the stated horizon {horizon}")
    size = as_count(size, "refinement size")
    # the times as a list and as the grid's tuple, with their floats and the reader's list
    check_budget(64 * size, "refined grid")
    ks = _snap_positions(grid, size) if size >= n else None  # a smaller size never snaps
    if ks is None:
        minimum = minimum_refinement_size(grid)
        raise TooCoarse(
            f"size {size} is not an admissible refinement size for grid {grid.times}"
            f" (minimum {minimum})",
            minimum=minimum,
        )
    taus = [t_n * k / size for k in range(1, size + 1)]
    for j, k in enumerate(ks, start=1):
        taus[k - 1] = grid.times[j - 1]
    taus[size - 1] = t_n
    injection = tuple(ks) + (size,)
    return RefinementMesh(base=grid, refined=TimeGrid(taus), injection=injection)


def refinement_monotonicity(scenario: QuantumScenario, mesh: RefinementMesh) -> MonotonicityRecord:
    """l1 norms on the base grid and its refinement (coarse <= fine holds)."""
    coarse = l1_norm(full_distribution(scenario, mesh.base))
    fine = l1_norm(full_distribution(scenario, mesh.refined))
    return MonotonicityRecord(norm_coarse=coarse, norm_fine=fine)
