"""Bi-probabilities for sequences of different observables.

One PVM per time slot generalizes the single-observable table; the same
trace formula applies with slot-dependent Heisenberg projectors, and all the
structural properties survive.  Any such table decomposes into a weighted sum
of *generic* bi-probabilities, labelled purely by unitaries and basis
indices, whose families along a path of unitaries obey a norm bound governed
by the path length.  No uniform bound is claimed for unrestricted
multi-observable families: their norms can outgrow the single-observable
bound, and a test should assert exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import dagger
from .biprob import (
    BiDistribution,
    BiOutcome,
    _distribution_for_slots,
    _entry,
)
from .bounds import _norm_bound, _norm_integral
from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    DomainMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NotUnitary,
    ValidationError,
)
from .model import (
    HamiltonianSchedule,
    QuantumScenario,
    TimeGrid,
    _spectral_norm,
    check_defect,
)
from .propagate import TOL_UNITARY, _walk
from .serialize import as_count, as_operator, as_real, as_reals

@dataclass(frozen=True, eq=False)
class ObservableSequence:
    """One PVM per time slot, earliest slot first."""

    pvms: tuple

    def __post_init__(self):
        pvms = tuple(self.pvms)
        if not pvms:
            raise LengthMismatch("observable sequence cannot be empty")
        dims = {p.dimension for p in pvms}
        if len(dims) != 1:
            raise DimensionMismatch(f"slot observables act on different dimensions: {sorted(dims)}")
        object.__setattr__(self, "pvms", pvms)

    def __len__(self) -> int:
        return len(self.pvms)

    def __iter__(self):
        return iter(self.pvms)

    @property
    def dimension(self) -> int:
        return self.pvms[0].dimension


def eval_multiobs(
    scenario: QuantumScenario,
    grid: TimeGrid,
    seq: ObservableSequence,
    outcome: BiOutcome,
) -> complex:
    """Trace formula with a slot-dependent Heisenberg projector per time.

    Reduces exactly to the single-observable bi-probability when every slot
    carries the same PVM.
    """
    if len(seq) != len(grid):
        raise LengthMismatch(f"{len(seq)} observables for a grid of length {len(grid)}")
    if seq.dimension != scenario.dimension:
        raise DimensionMismatch(
            f"observable dimension {seq.dimension} != scenario dimension {scenario.dimension}"
        )
    return _entry(scenario, grid, seq.pvms, outcome, "auto")


def multiobs_distribution(
    scenario: QuantumScenario,
    grid: TimeGrid,
    seq: ObservableSequence,
) -> BiDistribution:
    """Dense multi-observable table; satisfies the same property battery."""
    if seq.dimension != scenario.dimension:
        raise DimensionMismatch(
            f"observable dimension {seq.dimension} != scenario dimension {scenario.dimension}"
        )
    return _distribution_for_slots(scenario, grid, seq.pvms)


# -- generic bi-probabilities ------------------------------------------------


@dataclass(frozen=True, eq=False)
class GenericTuple:
    """Unitaries (earliest slot first) with basis-index tuples (latest first).

    Indices label the reference basis, 0..d-1.
    """

    unitaries: tuple
    plus: tuple
    minus: tuple

    def __post_init__(self):
        us, d = _unitaries(self.unitaries)
        plus = tuple(as_count(k, "basis index") for k in self.plus)
        minus = tuple(as_count(k, "basis index") for k in self.minus)
        if len(plus) != len(us) or len(minus) != len(us):
            raise LengthMismatch(
                f"{len(us)} unitaries with index tuples of lengths {len(plus)}, {len(minus)}"
            )
        for k in plus + minus:
            if not 0 <= k < d:
                raise IndexOutOfRange(f"basis index {k} outside 0..{d - 1}")
        object.__setattr__(self, "unitaries", us)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    @property
    def dimension(self) -> int:
        return self.unitaries[0].shape[0]


def _unitaries(unitaries) -> tuple:
    """``(us, d)``: the unitary slots of a generic family, at least one, finite square matrices of size d."""
    us = tuple(as_operator(u, f"unitary {j}") for j, u in enumerate(unitaries))
    if not us:
        raise LengthMismatch("a generic family needs at least one unitary")
    d = us[0].shape[0]
    if any(u.shape != (d, d) for u in us):
        raise DimensionMismatch(f"unitaries must be square and of one size, got {[u.shape for u in us]}")
    return us, d


def eval_generic(g: GenericTuple) -> complex:
    """Generic bi-probability: ordered products of rotated basis projectors.

    The first and last slots carry causality deltas; there is no separate
    state argument, the earliest slot's unitary plays that role in the
    decomposition of observable-based tables.
    """
    n = len(g.unitaries)
    d = g.dimension
    if g.plus[0] != g.minus[0] or g.plus[-1] != g.minus[-1]:
        return 0.0 + 0.0j

    def chain(indices, slots):  # the rotated basis projectors of the slots, applied right to left
        m = np.eye(d, dtype=complex)
        for j in slots:
            u, k = g.unitaries[j], indices[n - 1 - j]
            m = np.outer(u[:, k], u[:, k].conj()) @ m
        return m

    # ascending on the plus side (U_1 ... U_n), descending on the minus side
    return complex(np.trace(chain(g.plus, range(n)) @ chain(g.minus, range(n - 1, -1, -1))))


def generic_l1_norm(unitaries: Sequence[np.ndarray]) -> float:
    """l1 norm of the full generic table for the given unitary slots.

    Each entry is a single product of transition amplitudes, so the norm
    factorizes exactly: with S the product of the entrywise moduli of the
    consecutive overlap matrices U_{j+1}^dag U_j, the norm is sum_{a,b}
    S[a,b]^2 (endpoint deltas square the endpoint sums).
    """
    us, d = _unitaries(unitaries)
    s = np.eye(d)
    for u_prev, u_next in zip(us[:-1], us[1:]):
        s = np.abs(dagger(u_next) @ u_prev) @ s
    return float((s * s).sum())


# -- decomposition into generic bi-probabilities ------------------------------


@dataclass(frozen=True)
class DecompositionRecord:
    direct: complex
    reconstructed: complex


def decompose_multiobs(
    scenario: QuantumScenario,
    grid: TimeGrid,
    seq: ObservableSequence,
    outcome: BiOutcome,
) -> DecompositionRecord:
    """Cross-check a multi-observable value against its generic expansion.

    The expansion sums generic bi-probabilities over basis indices compatible
    with the requested outcomes, weighted by the eigenvalues of rho at the
    earliest slot.  Each term is a product of transition amplitudes along a
    plus and a minus index path, so the sum is contracted leg by leg: slot
    j's overlap ``V_j^dag V_{j-1}`` keeps the rows of the leg's outcome block
    (``V_0`` is the state's eigenbasis, ``V_j = U(t_j, 0)^dag W_j`` the
    slot's PVM-adapted basis), and the causality deltas close the two legs
    at the state index and at the indices the latest blocks share.
    """
    direct = eval_multiobs(scenario, grid, seq, outcome)  # checks lengths and outcomes

    n = len(grid)
    evals, evecs = scenario.state._eigh
    legs = [(evecs, np.eye(len(evals)))] * 2  # plus, minus: (block basis, block x state amplitudes)
    for j, u in enumerate(u for us, _ in _walk(scenario.schedule, 0.0, grid.times) for u in us):
        w, labels = seq.pvms[j]._basis
        for i, f in enumerate((outcome.plus[n - 1 - j], outcome.minus[n - 1 - j])):
            lo = labels.index(f) if f in labels else 0  # _basis lists a block's columns together
            block = dagger(u) @ w[:, lo:lo + labels.count(f)]
            basis, amps = legs[i]
            legs[i] = (block, (dagger(block) @ basis) @ amps)
    (_, plus), (_, minus) = legs
    recon = 0.0
    if outcome.plus[0] == outcome.minus[0]:  # distinct outcomes' latest blocks share no index
        recon = np.vdot(minus, plus * np.clip(evals, 0.0, None))
    return DecompositionRecord(direct=complex(direct), reconstructed=complex(recon))


# -- paths of unitaries --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnitaryPath:
    """Piecewise-constant-generator curve in the unitary group on [0, 1].

    ``segments`` are (duration, V) pairs with Hermitian generators, durations
    summing to 1; ``anchor`` is the starting unitary.  Later segments act on
    the left, so the curve is the time-ordered exponential of the generators
    applied to the anchor.  The generators form a private Hamiltonian
    schedule on [0, 1], which the propagation layer walks.
    """

    segments: tuple
    anchor: np.ndarray

    def __post_init__(self):
        segs = tuple(
            (as_real(w, "path: duration"), as_operator(v, f"segment {i}: generator"))
            for i, (w, v) in enumerate(self.segments)
        )
        if not segs:
            raise LengthMismatch("path needs at least one segment")
        d = segs[0][1].shape[0]
        ends = list(itertools.accumulate(w for w, _ in segs))
        violations = []
        try:  # the generators as a Hamiltonian schedule on [0, 1]
            schedule = HamiltonianSchedule(
                tuple((a, b, v) for a, b, (_, v) in zip([0.0] + ends, ends, segs))
            )
        except ValidationError as err:
            violations += err.violations
        if not any(isinstance(v, DegenerateInterval) for v in violations):  # no duration rejected
            violations += check_defect(
                abs(ends[-1] - 1.0), 1e-9, DomainMismatch, f"durations sum to {ends[-1]}, |sum - 1| =")
        anchor = as_operator(self.anchor, "anchor")
        if anchor.shape != (d, d):
            violations.append(DimensionMismatch(f"anchor shape {anchor.shape} != {(d, d)}"))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                dev = _spectral_norm(dagger(anchor) @ anchor - np.eye(d))
            violations += check_defect(dev, TOL_UNITARY, NotUnitary, "anchor: unitarity defect")
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "_schedule", schedule)

    @property
    def dimension(self) -> int:
        return self.anchor.shape[0]

    def _points(self, taus) -> list:
        """The curve points at ascending parameters in [0, 1], from one propagation walk."""
        taus = as_reals(taus, "path parameter")
        for tau in taus:
            if not 0.0 <= tau <= 1.0 + 1e-12:
                raise IndexOutOfRange(f"path parameter {tau} outside [0, 1]")
        horizon = self._schedule.horizon  # within 1e-9 of 1
        walk = _walk(self._schedule, 0.0, [min(t, horizon) for t in taus])
        return [u @ self.anchor for us, _ in walk for u in us]

    def unitary(self, tau: float) -> np.ndarray:
        """The curve point at parameter tau in [0, 1]."""
        return self._points([tau])[0]

    def endpoint(self) -> np.ndarray:
        return self.unitary(1.0)

    def concatenated(self, other: "UnitaryPath") -> "UnitaryPath":
        """Traverse this path then ``other``, re-anchored at this endpoint.

        Parameters are rescaled to halves with generators doubled, so every
        visited unitary (and the total length) is preserved.
        """
        if other.dimension != self.dimension:
            raise DimensionMismatch("cannot concatenate paths of different dimensions")
        first = tuple((0.5 * w, 2.0 * v) for w, v in self.segments)
        second = tuple((0.5 * w, 2.0 * v) for w, v in other.segments)
        return UnitaryPath(first + second, self.anchor)


def path_length(path: UnitaryPath) -> float:
    """Arc length: sum of duration * ||V||_op over the segments (exact)."""
    return _norm_integral(path._schedule, path._schedule.horizon)


@dataclass(frozen=True)
class PathBoundRecord:
    max_l1: float
    bound: float


def path_bound_check(
    path: UnitaryPath,
    parameter_grids: Sequence[Sequence[float]],
) -> PathBoundRecord:
    """Norms of generic families sampled along the path versus the length bound.

    For each parameter tuple, the slots are the curve points at those
    parameters; the l1 norm is computed in closed form from d x d overlaps,
    so no table is built and the memory budget never binds.  The bound d^2 exp[2(d-1) Length] is independent of the samples.
    """
    d = path.dimension
    worst = 0.0
    for taus in parameter_grids:
        taus = as_reals(taus, "path parameter")
        if not all(b > a for a, b in zip(taus[:-1], taus[1:])):
            raise DegenerateInterval(f"parameter tuple {taus} must be strictly increasing")
        worst = max(worst, generic_l1_norm(path._points(taus)))
    return PathBoundRecord(max_l1=worst, bound=_norm_bound(d, path_length(path)))
