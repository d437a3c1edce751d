"""Shared fixtures and independent oracles.

Oracles deliberately avoid the package's evaluation machinery: propagators
come from scipy's Pade expm (the package uses Hermitian eigendecomposition),
and table entries come from explicit Python-loop operator products (the
package uses Gram products of path vectors).
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

from bitraj import (
    BiOutcome,
    DensityOperator,
    HamiltonianSchedule,
    ObservablePVM,
    ObservableSequence,
    QuantumScenario,
    TimeGrid,
    full_distribution,
    multiobs_distribution,
    rabi_scenario,
)
from bitraj._linalg import expm_hermitian
from bitraj.multiobs import GenericTuple, eval_generic

# Hypothesis writes a patch for each falsifying example with libcst, whose
# import warns (mypy_extensions.TypedDict is deprecated).  Under -W error that
# warning turned the failure report into a pytest INTERNALERROR, so the patch
# writer is imported once here, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis writes no patch
        pass

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BIG = 1e308

# values that replace one input of a config file or of a public call: each
# must be rejected with a BitrajError or computed correctly
MUTANTS = (
    float("nan"), float("inf"), -float("inf"), BIG, -BIG, 1000, 1000.0,
    "x", None, True, False, [], [[1]], [1, [2, 3]], {"a": 1},
)

PAULI_X_PVM = ObservablePVM(
    (1.0, -1.0),
    (0.5 * np.array([[1, 1], [1, 1]]), 0.5 * np.array([[1, -1], [-1, 1]])),
)


@pytest.fixture
def no_gram_rows_past_cap(monkeypatch):
    """Fail if path vectors W are grown when the table plus W exceed the memory budget."""
    import bitraj.biprob as biprob

    real = biprob._gram_rows

    def guarded(factor, stacks):
        rows = int(np.prod([p.shape[0] for p in stacks]))
        nbytes = 16 * rows * rows + 16 * rows * factor.size  # the table, then W
        assert nbytes <= biprob.MEMORY_BUDGET, "W built past the budget"
        return real(factor, stacks)

    monkeypatch.setattr(biprob, "_gram_rows", guarded)


@pytest.fixture
def rabi():
    return rabi_scenario(1.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def oracle_propagator(schedule: HamiltonianSchedule, t_from: float, t_to: float) -> np.ndarray:
    """U(t_to, t_from) via scipy expm, segment by segment."""
    d = schedule.dimension
    u = np.eye(d, dtype=complex)
    for a, b, h in schedule.pieces(t_from, t_to):
        u = scipy.linalg.expm(-1j * (b - a) * h) @ u
    return u


def oracle_piece_propagator(schedule: HamiltonianSchedule, t_from: float, t_to: float) -> np.ndarray:
    """U(t_to, t_from) as a plain product over the covered segment pieces.

    It uses the package's eigendecomposition exponential on purpose, so that
    the segment walk behind ``propagator`` can be held to it bitwise; the
    piece loop is the independent part.
    """
    u = np.eye(schedule.dimension, dtype=complex)
    for a, b, h in schedule.pieces(t_from, t_to):
        u = expm_hermitian(h, -1j * (b - a)) @ u
    return u


def oracle_heisenberg(scenario: QuantumScenario, outcome: float, t: float) -> np.ndarray:
    u = oracle_propagator(scenario.schedule, 0.0, t)
    p = scenario.pvm.projector(outcome)
    return u.conj().T @ p @ u


def oracle_biprob(
    scenario: QuantumScenario,
    times,
    plus,
    minus,
    pvms=None,
) -> complex:
    """Plain-loop evaluation of one table entry (latest-first tuples)."""
    n = len(times)
    if pvms is None:
        pvms = [scenario.pvm] * n
    a = np.array(scenario.state.matrix)
    for j in range(n):  # ascending slots
        t = times[j]
        u = oracle_propagator(scenario.schedule, 0.0, t)
        p_plus = u.conj().T @ pvms[j].projector(plus[n - 1 - j]) @ u
        p_minus = u.conj().T @ pvms[j].projector(minus[n - 1 - j]) @ u
        a = p_plus @ a @ p_minus
    return complex(np.trace(a))


def oracle_generic_expansion(scenario: QuantumScenario, times, pvms, plus, minus) -> complex:
    """A multi-observable entry as the enumerated sum of its generic terms.

    Slot 0 is the state's eigenbasis; slot j is a basis adapted to slot j's
    projectors, taken from an SVD and pulled back by the scipy propagator to
    t_j, and the outcome picks one block of its indices.  Every pair of state
    indices, weighted by sqrt(rho_+ rho_-), and every plus and minus index
    path through the blocks gives one ``eval_generic`` term.  Tuples are
    latest first.
    """
    evals, evecs = np.linalg.eigh(scenario.state.matrix)
    weights = np.sqrt(np.clip(evals, 0.0, None))
    slots, blocks_plus, blocks_minus = [evecs], [], []
    for t, pvm, f_plus, f_minus in zip(times, pvms, reversed(plus), reversed(minus)):
        cols, labels = [], []
        for f, p in zip(pvm.outcomes, pvm.projectors):
            left, s, _ = np.linalg.svd(p)
            rank = int(round(s.sum()))
            cols.append(left[:, :rank])
            labels += [f] * rank
        u = oracle_propagator(scenario.schedule, 0.0, t)
        slots.append(u.conj().T @ np.concatenate(cols, axis=1))
        blocks_plus.append([k for k, lab in enumerate(labels) if lab == f_plus])
        blocks_minus.append([k for k, lab in enumerate(labels) if lab == f_minus])
    total = 0.0 + 0.0j
    for k_plus, k_minus in itertools.product(range(len(evals)), repeat=2):
        for path_plus in itertools.product(*blocks_plus):
            for path_minus in itertools.product(*blocks_minus):
                g = GenericTuple(
                    tuple(slots), (*reversed(path_plus), k_plus), (*reversed(path_minus), k_minus))
                total += weights[k_plus] * weights[k_minus] * eval_generic(g)
    return complex(total)


def oracle_reduced_map(
    v: np.ndarray, d_o: int, d_e: int, rho_env: np.ndarray, via_kron: bool = True
) -> np.ndarray:
    """A -> tr_E[V (A kron rho_E) V^dagger], one system matrix unit at a time.

    Column-stacked: the column of E_ij is vec tr_E[V (E_ij kron rho_E) V^dagger].
    With ``via_kron`` that image comes from the joint superoperator
    kron(V*, V) on vec(E_ij kron rho_E), which also checks the vec
    convention; without it, from the D x D products alone, which reach joint
    dimensions where kron(V*, V) does not fit in memory.
    """
    d = d_o * d_e
    superop = np.kron(v.conj(), v) if via_kron else None
    s = np.empty((d_o * d_o, d_o * d_o), dtype=complex)
    for j in range(d_o):
        for i in range(d_o):
            unit = np.zeros((d_o, d_o), dtype=complex)
            unit[i, j] = 1.0
            x = np.kron(unit, rho_env)
            if via_kron:
                w = (superop @ x.T.reshape(-1)).reshape(d, d).T
            else:
                w = v @ x @ v.conj().T
            reduced = np.einsum("iaja->ij", w.reshape(d_o, d_e, d_o, d_e))
            s[:, j * d_o + i] = reduced.T.reshape(-1)
    return s


def oracle_choi(s) -> np.ndarray:
    """sum_ij |i><j| kron S(|i><j|), one matrix unit at a time."""
    d = s.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            c += np.kron(unit, s.apply(unit))
    return c


def all_tuples(outcomes, n):
    """All latest-first outcome tuples of length n, lexicographic order."""
    if n == 0:
        return [()]
    shorter = all_tuples(outcomes, n - 1)
    return [(f,) + rest for f in outcomes for rest in shorter]


def oracle_table_l1(scenario, times) -> float:
    total = 0.0
    outs = scenario.pvm.outcomes
    for plus in all_tuples(outs, len(times)):
        for minus in all_tuples(outs, len(times)):
            total += abs(oracle_biprob(scenario, times, plus, minus))
    return total


def oracle_reduced(dist, j):
    """A fresh public evaluation on the grid of ``dist`` without slot j."""
    grid, pvms = dist.grid.without(j), dist.pvms[:j - 1] + dist.pvms[j:]
    if not pvms:  # the empty grid
        return full_distribution(dist.scenario, grid)
    return multiobs_distribution(dist.scenario, grid, ObservableSequence(pvms))


def p4_max_deviation(dist) -> float:
    """Worst measurement-inconsistency identity defect over all slots/tuples.

    Checks that every slotwise violation of classical consistency by the
    diagonal equals the corresponding off-diagonal table mass (with a real
    value), vectorized over the full lattice.  Each reduced table is
    ``oracle_reduced``.
    """
    n = dist.n
    diag = dist.diagonal()
    worst = 0.0
    for j in range(1, n + 1):
        lhs = oracle_reduced(dist, j).diagonal() - diag.sum(axis=n - j)
        labels_plus = list(range(n))
        labels_minus = list(range(n))
        labels_plus[n - j] = n
        labels_minus[n - j] = n + 1
        out = [a for a in range(n) if a != n - j] + [n, n + 1]
        part = np.einsum(dist.table, labels_plus + labels_minus, out)
        offdiag = part.sum(axis=(-2, -1)) - np.einsum("...kk->...", part)
        if lhs.size:
            worst = max(
                worst,
                float(np.abs(lhs - offdiag.real).max()),
                float(np.abs(offdiag.imag).max()),
            )
    return worst


def oracle_slot_defects(dist, j):
    """(|marginal - fresh|, |diagonal marginal - fresh diagonal|) at slot j, flattened.

    The marginal is numpy's sum over (f+_j, f-_j) of the table viewed as
    (A, k, B, A, k, B); the fresh table is ``oracle_reduced``.  The second
    array compares the joint probabilities summed over slot j with the fresh
    diagonal.
    """
    n = dist.n
    rev = dist.sizes[::-1]
    a, k, b = int(np.prod(rev[:n - j])), rev[n - j], int(np.prod(rev[n - j + 1:]))
    marginal = dist.table.reshape(a, k, b, a, k, b).sum(axis=(1, 4)).reshape(a * b, a * b)
    fresh = oracle_reduced(dist, j).table.reshape(a * b, a * b)
    summed = dist.diagonal().sum(axis=n - j).reshape(-1)
    return np.abs(marginal - fresh).reshape(-1), np.abs(summed - fresh.diagonal().real)


def hermitian_part(table) -> np.ndarray:
    """(M + M^dagger) / 2 of the K x K reshape M[f+, f-] of a table."""
    k = int(round(np.sqrt(table.size)))
    m = table.reshape(k, k)
    return 0.5 * (m + m.conj().T)


def oracle_psd_check(m_h, tolerance):
    """Q3 from the dense ``eigvalsh`` of the whole Hermitian part ``m_h``.

    This is the record the battery reports whenever Q3 is not certified.
    """
    from bitraj.verify import PropertyCheck

    k = m_h.shape[0]
    evals = np.linalg.eigvalsh(m_h) if k else np.array([0.0])
    lam_min = float(evals[0])
    norm = float(max(-evals[0], evals[-1]))
    dev = max(0.0, -lam_min)
    tol_eff = tolerance * max(norm, 1e-300)
    return PropertyCheck(
        "Q3_positive_semidefinite", dev, tol_eff, dev <= tol_eff,
        f"min eigenvalue {lam_min:.3e} of the {k}x{k} reshaped table (norm {norm:.3e})",
    )


def oracle_bounding_check(dist, tolerance):
    """P2 |Q| <= sqrt(P+ P-) over the whole K x K envelope at once."""
    from bitraj.verify import PropertyCheck, _label

    k = int(np.prod(dist.sizes)) if dist.sizes else 1
    p_clip = np.clip(dist.diagonal(), 0.0, None).reshape(-1)
    envelope = np.sqrt(p_clip[:, None] * p_clip[None, :])
    excess = np.abs(dist.table.reshape(k, k)) - envelope
    dev = float(max(0.0, excess.max())) if excess.size else 0.0
    flat = int(excess.argmax()) if excess.size else 0
    witness = _label(dist.outcome_sets, flat)
    return PropertyCheck("P2_bounding", dev, tolerance, dev <= tolerance, witness)


def static_scenario(h, state, pvm) -> QuantumScenario:
    h = np.asarray(h, dtype=complex)
    return QuantumScenario(
        dimension=h.shape[0],
        schedule=HamiltonianSchedule.from_static(h),
        state=state if isinstance(state, DensityOperator) else DensityOperator(state),
        pvm=pvm,
    )


def grid(*times) -> TimeGrid:
    return TimeGrid(tuple(times))


def outcome(plus, minus) -> BiOutcome:
    return BiOutcome(tuple(plus), tuple(minus))
