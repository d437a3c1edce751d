"""Machine checks of the structural properties of bi-probability tables.

Normalization, causality, positive semidefiniteness and bi-consistency of the
complex table, plus the probability-distribution properties of its diagonal,
are theorems for valid scenarios: any deviation beyond tolerance indicates an
implementation bug, which is exactly what makes them useful as a test battery.
Also provided: the slotwise decomposition of Kolmogorov-consistency violations
into off-diagonal bi-probability mass, classicality diagnostics, grade-2
additivity of diagonal events, and stabilization of averages over nested
grids (the finite-scale shadow of the extension limit).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .biprob import (
    BiDistribution,
    BiOutcome,
    TupleFunction,
    _block_rows,
    _gram_rows,
    _lattice_indices,
    _slot_sum,
    _table_from_stacks,
    _worse,
    average,
    full_distribution,
    latest_slot_causality,
)
from .errors import (
    DomainMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NotNested,
    OverlappingEvents,
    ValidationError,
)
from .model import QuantumScenario, TimeGrid
from .propagate import heisenberg_pvm_stacks
from .serialize import as_count, as_real, as_reals

DEFAULT_PROPERTY_TOL = 1e-9


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    witness: str

    def __post_init__(self):
        object.__setattr__(self, "max_deviation", float(self.max_deviation))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class InconsistencyRecord:
    lhs: float
    offdiag_sum: complex


@dataclass(frozen=True)
class ClassicalityRecord:
    consistency_deviation: float
    offdiagonal_mass: float


def _label(outcome_sets: tuple, flat_index: int, legs: int = 2) -> str:
    """The outcome tuples at a flat index of a table (``legs=2``) or its diagonal (1).

    ``outcome_sets`` run in ascending slot order; the tuples are latest-first.
    """
    rev = outcome_sets[::-1]
    n = len(rev)
    idx = np.unravel_index(flat_index, tuple(len(s) for s in rev) * legs) if n else ()
    values = [rev[a % n][i] for a, i in enumerate(idx)]
    if legs == 1:
        return f"tuple={tuple(values)}"
    return f"plus={tuple(values[:n])}, minus={tuple(values[n:])}"


def _slot_stacks(dist: BiDistribution) -> list:
    """The slot stacks of ``dist``: the engine's own if it built ``dist``, recomputed otherwise.

    A distribution with slots but no scenario and observables is rejected
    here, before the caller does any work.
    """
    if not dist.n:
        return []
    if dist.scenario is None or dist.pvms is None:
        raise DomainMismatch(
            "distribution carries no scenario; bi-consistency cannot be re-evaluated"
        )
    return dist._stacks or list(heisenberg_pvm_stacks(dist.scenario, dist.grid.times, dist.pvms))


def _reduced_tables(dist: BiDistribution, stacks: list) -> Iterator[tuple]:
    """``(j, table on the grid of dist without slot j)`` for j = 1..n, each evaluated afresh.

    ``stacks`` are ``_slot_stacks(dist)``.  Each slot's stack depends on its
    own time only, so dropping one is bitwise what recomputing the reduced
    grid's stacks gives.  The tables are evaluated one at a time as drawn.
    """
    state = dist.scenario.state if dist.n else None
    return ((j, _table_from_stacks(state, stacks[:j - 1] + stacks[j:])) for j in range(1, dist.n + 1))


def _diagonal_defect(diag: np.ndarray, j: int, fresh: np.ndarray) -> tuple:
    """(max, first flat index) of |P summed over slot j - P on the grid without slot j|.

    ``diag`` holds the joint probabilities (latest-first axes) and ``fresh``
    the reduced table evaluated afresh; a NaN is the maximum.
    """
    summed = diag.sum(axis=diag.ndim - j).reshape(-1)
    diff = np.abs(summed - fresh.reshape(summed.size, -1).diagonal().real)
    i = int(diff.argmax())
    return float(diff[i]), i


def _psd_check(m: np.ndarray, tolerance: float, basis: np.ndarray | None) -> PropertyCheck:
    """Q3 on the Hermitian part M_h of the reshaped table ``m``.

    An engine table is the Gram matrix M = W S W^H of its K path rows, so
    Q = qr(``basis``), those rows reshaped to K x c (c = d^2), spans its
    range.  With B = Q^H M_h Q, the Hermitian part of C = Q^H M Q, and
    R = M - Q B Q^H, the error E = M_h - Q B Q^H is R's Hermitian part, so
    Weyl gives lambda_min(M_h) >= min(lambda_min(B), 0) - ||R||_F for any
    table and any orthonormal Q, and ||B||_2 <= ||M_h||_2 makes the relative
    tolerance no looser.  R is read one block of rows at a time.  A table not
    certified, also one with a NaN or inf entry (B or R is then non-finite),
    takes the exact ``eigvalsh`` of M_h, so a failing record is always the
    exact one; it decides alone when there is no basis, when c > K/8 (the
    certificate would cost about as much) or when the tolerance is zero.
    """
    name = "Q3_positive_semidefinite"
    k = m.shape[0]
    if basis is not None and tolerance > 0 and basis.shape[1] <= k // 8:
        q = np.linalg.qr(basis)[0]
        b = q.conj().T @ (m @ q)
        b = 0.5 * (b + b.conj().T)
        # a non-finite B is an overflow or entry that the exact path scales
        # away or names; a negative lambda_min(B) bounds lambda_min(M_h): it fails
        if np.isfinite(b).all():
            evals = np.linalg.eigvalsh(b)
            norm = float(max(-evals[0], evals[-1]))
            tol_eff = tolerance * max(norm, 1e-300)
            if evals[0] >= -tol_eff:
                bq = b @ q.conj().T
                step = _block_rows(k)
                block = np.empty((min(step, k), k), dtype=complex)
                err2 = 0.0
                for i in range(0, k, step):
                    r = np.matmul(q[i:i + step], bq, out=block[:min(step, k - i)])
                    r -= m[i:i + step]  # -R, one block of rows at a time
                    err2 += np.vdot(r, r).real
                err = math.sqrt(err2)
                dev = max(0.0, -float(evals[0])) + err
                if dev <= tol_eff:
                    return PropertyCheck(
                        name, dev, tol_eff, True,
                        f"min eigenvalue >= {-dev:.3e} of the {k}x{k} reshaped table, certified on "
                        f"its range of width p={q.shape[1]} (residual ||E||_F <= {err:.3e}, norm {norm:.3e})",
                    )
    m_h = np.conj(m.T, order="C")  # the one complex K x K temporary
    m_h += m
    m_h *= 0.5
    if not np.isfinite(m_h).all():
        i, j = divmod(int(np.isfinite(m_h).argmin()), k)
        return PropertyCheck(
            name, math.nan, tolerance, False,
            f"non-finite entry at row {i}, column {j} of the {k}x{k} reshaped table",
        )
    evals = np.linalg.eigvalsh(m_h) if k else np.array([0.0])
    lam_min = float(evals[0])
    norm = float(max(-evals[0], evals[-1]))  # spectral norm of the Hermitian M_h
    dev = max(0.0, -lam_min)
    tol_eff = tolerance * max(norm, 1e-300)
    return PropertyCheck(
        name, dev, tol_eff, dev <= tol_eff,
        f"min eigenvalue {lam_min:.3e} of the {k}x{k} reshaped table (norm {norm:.3e})",
    )


@np.errstate(invalid="ignore", over="ignore")
def check_properties(
    dist: BiDistribution, tolerance: float = DEFAULT_PROPERTY_TOL
) -> PropertyReport:
    """Run the full property battery on one distribution.

    Covers table normalization (Q1), causality at the latest slot (Q2),
    positive semidefiniteness of the reshaped table (Q3, via the minimum
    eigenvalue relative to the spectral norm, certified on the range of the
    engine's path rows when that suffices and computed exactly otherwise),
    bi-consistency against fresh evaluation on every reduced grid (Q4), and
    the diagonal's probability properties (P1), the Cauchy-Schwarz envelope
    |Q| <= sqrt(P+ P-) (P2), and causality of measurements (P3).  A report is
    always produced, without numpy warnings; each record carries the
    worst-case witness, and a non-finite entry fails every check that reads
    it.  Every scan keeps the worst case by one rule: a NaN beats any number,
    and equal values go to the first slot or flat index.  ``tolerance`` must
    be finite and non-negative: any other value would fail or pass every
    check regardless of the table.
    """
    tolerance = as_real(tolerance, "tolerance")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValidationError(
            [DomainMismatch(f"tolerance must be finite and >= 0, got {tolerance}")]
        )
    stacks = _slot_stacks(dist)
    checks = []
    n = dist.n
    table = dist.table
    k_total = math.prod(dist.sizes)

    def record(name: str, dev: float, witness: str) -> None:
        checks.append(PropertyCheck(name, dev, tolerance, dev <= tolerance, witness))

    # Q1 normalization
    record("Q1_normalization", abs(table.sum() - 1.0), "total sum")

    # Q2 causality at the latest slot
    if n >= 1:
        dev, flat = latest_slot_causality(table)
        record("Q2_causality", dev, _label(dist.outcome_sets, flat) if table.size else "n/a")

    # Q3 positive semidefiniteness of M[f+, f-], on the range of the engine's path rows W
    m = table.reshape(k_total, k_total)
    w = None if dist.scenario is None else _gram_rows(dist.scenario.state._gram[0], stacks)
    checks.append(_psd_check(m, tolerance, None if w is None else w.reshape(k_total, -1)))

    # Q4 bi-consistency, every slot: each reduced table is evaluated afresh,
    # negated, and the slot's slices of the table are added into it in place
    diag = dist.diagonal()
    worst, at = -math.inf, None
    for j, fresh in _reduced_tables(dist, stacks):
        if j == n:
            p3 = _diagonal_defect(diag, n, fresh)  # P3 reads the latest slot's table
        np.negative(fresh, out=fresh)
        diff = np.abs(_slot_sum(table, j, out=fresh))
        flat = int(diff.argmax())
        if _worse(float(diff.flat[flat]), (j, flat), worst, at):
            worst, at = float(diff.flat[flat]), (j, flat)
    if at is None:  # an empty grid has no slot to drop
        worst, witness = 0.0, "n/a"
    else:
        j, flat = at
        witness = f"slot {j}, {_label(dist.outcome_sets[:j - 1] + dist.outcome_sets[j:], flat)}"
    record("Q4_biconsistency", worst, witness)

    # P1 diagonal is a probability distribution
    neg = float(np.maximum(0.0, -diag.min())) if diag.size else 0.0  # keeps a NaN
    witness = (
        f"min diagonal at {_label(dist.outcome_sets, int(diag.argmin()), 1)}" if diag.size else "n/a"
    )
    record("P1_joint_probability", max(neg, abs(diag.sum() - 1.0)), witness)

    # P2 |Q| <= sqrt(P+ P-), one block of rows at a time
    p_clip = np.clip(diag, 0.0, None).reshape(-1)
    step = _block_rows(k_total)
    best, at = -math.inf, 0
    for i in range(0, k_total, step):
        rows = p_clip[i:i + step]
        excess = np.abs(m[i:i + step]) - np.sqrt(rows[:, None] * p_clip[None, :])
        j = int(excess.argmax())
        if _worse(float(excess.flat[j]), i * k_total + j, best, at):
            best, at = float(excess.flat[j]), i * k_total + j
    record("P2_bounding", float(np.maximum(0.0, best)), _label(dist.outcome_sets, at))

    # P3 causality of measurements: marginal of the diagonal over the latest slot
    if n >= 1:
        dev, flat = p3
        record("P3_measurement_causality", dev, _label(dist.outcome_sets[:-1], flat, 1))

    return PropertyReport(tuple(checks))


def inconsistency_decomposition(
    scenario: QuantumScenario,
    grid: TimeGrid,
    outcomes: Sequence[float],
    position: int,
) -> InconsistencyRecord:
    """Slot-j violation of classical consistency and its off-diagonal cause.

    ``outcomes`` is the full tuple (f_n,...,f_1); the component at the probed
    slot is ignored (it is summed over / removed).  The identity
    lhs = sum_{f+_j != f-_j} Q(...; f+_j, f-_j; ...) holds to numerical
    precision, with the right-hand side real up to rounding.
    """
    n = len(grid)
    position = as_count(position, "position")
    if not 1 <= position <= n:
        raise IndexOutOfRange(f"position {position} outside 1..{n}")
    probe = list(as_reals(outcomes, "outcome"))
    if len(probe) != n:
        raise LengthMismatch(f"outcome tuple length {len(probe)} != grid length {n}")
    # the probed component is ignored: any admissible value stands in for it
    probe[n - position] = scenario.pvm.outcomes[0]
    outcome_sets = (scenario.pvm.outcomes,) * n
    idx = _lattice_indices(outcome_sets, BiOutcome(probe, probe))[:n][::-1]  # ascending
    stacks = list(heisenberg_pvm_stacks(scenario, grid.times))
    paths = [p[i:i + 1] for p, i in zip(stacks, idx)]
    reduced = _table_from_stacks(scenario.state, paths[:position - 1] + paths[position:]).real.sum()
    paths[position - 1] = stacks[position - 1]
    k = stacks[position - 1].shape[0]
    block = _table_from_stacks(scenario.state, paths).reshape(k, k)
    lhs = reduced - block.diagonal().real.sum()
    offdiag = block[~np.eye(k, dtype=bool)].sum()
    return InconsistencyRecord(lhs=float(lhs), offdiag_sum=complex(offdiag))


def classicality_report(dist: BiDistribution) -> ClassicalityRecord:
    """How far the diagonal statistics are from a classical process.

    ``consistency_deviation`` is the worst single-slot marginalization defect
    of the joint probabilities, NaN if any compared probability is NaN;
    ``offdiagonal_mass`` the total |Q| carried by trajectory pairs that
    disagree somewhere.  Both vanish for dynamics that commute with the
    probed observable.
    """
    n = dist.n
    if n < 2:
        raise LengthMismatch(f"classicality diagnostics need n >= 2, got {n}")
    diag = dist.diagonal()
    worst, at = -math.inf, 0
    for j, fresh in _reduced_tables(dist, _slot_stacks(dist)):
        dev = _diagonal_defect(diag, j, fresh)[0]
        if _worse(dev, j, worst, at):
            worst, at = dev, j
    mass_all = float(np.abs(dist.table).sum())
    k = math.prod(dist.sizes)
    mass_diag = float(np.abs(dist.table.reshape(k, k).diagonal()).sum())
    return ClassicalityRecord(
        consistency_deviation=worst,
        offdiagonal_mass=mass_all - mass_diag,
    )


def _event_indices(dist: BiDistribution, event: Iterable) -> np.ndarray:
    """Flatten diagonal tuples (latest-first values) into table row indices."""
    sizes = dist.sizes[::-1]
    flat = []
    for tup in event:
        tup = as_reals(tup, "event outcome")
        idx = _lattice_indices(dist.outcome_sets, BiOutcome(tup, tup))[: dist.n]
        flat.append(int(np.ravel_multi_index(idx, sizes)) if sizes else 0)
    return np.array(sorted(set(flat)), dtype=int)


def grade2_check(dist: BiDistribution, a1, a2, a3) -> float:
    """Deviation from grade-2 additivity of mu(A) = sum_{f+,f- in A} Q.

    The three events are disjoint sets of diagonal outcome tuples.  The
    returned deviation is |mu(A1 u A2 u A3) - mu(A1 u A2) - mu(A2 u A3)
    - mu(A1 u A3) + mu(A1) + mu(A2) + mu(A3)|.
    """
    k_total = math.prod(dist.sizes)
    m = dist.table.reshape(k_total, k_total)
    events = [_event_indices(dist, a) for a in (a1, a2, a3)]
    for i in range(3):
        for j in range(i + 1, 3):
            common = np.intersect1d(events[i], events[j])
            if common.size:
                raise OverlappingEvents(
                    f"events {i + 1} and {j + 1} share {common.size} tuple(s)"
                )

    def mu(*parts) -> complex:  # of the union of the events
        idx = functools.reduce(np.union1d, parts)
        return complex(m[np.ix_(idx, idx)].sum())

    e1, e2, e3 = events
    dev = mu(e1, e2, e3) - mu(e1, e2) - mu(e2, e3) - mu(e1, e3) + mu(e1) + mu(e2) + mu(e3)
    return float(abs(dev))


def cauchy_stabilization(
    scenario: QuantumScenario,
    grids: Sequence[TimeGrid],
    x: TupleFunction,
) -> list:
    """Averages of one test function across a nested chain of grids.

    ``x`` lives on the coarsest grid and is lifted to each finer grid by
    ignoring the added coordinates; bi-consistency makes the returned list
    constant to numerical precision.
    """
    if not grids:
        return []
    for coarse, fine in zip(grids[:-1], grids[1:]):
        if not fine.is_refinement_of(coarse):
            raise NotNested(f"grid {fine.times} does not contain {coarse.times}")
    if x.grid.times != grids[0].times:
        raise NotNested("test function must live on the coarsest grid")
    out = []
    for g in grids:
        dist = full_distribution(scenario, g)
        lifted = x.lift(g, dist.outcome_sets) if g.times != x.grid.times else x
        out.append(average(dist, lifted))
    return out
