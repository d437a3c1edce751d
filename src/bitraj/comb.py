"""Bi-instruments and the sequential-composition cross-check.

The two-sided projector sandwich N_t(f+, f-): A -> P_t(f+) A P_t(f-) is not
completely positive off the diagonal, yet the family sums to the identity
channel, and chaining one bi-instrument per time slot onto the initial state
reproduces the bi-probability table entry for entry.  This gives a second,
structurally different evaluation path used for cross-validation.

Column-stacking vectorization is inherited from :mod:`bitraj.opensys`.
"""

from __future__ import annotations

import numpy as np

from ._linalg import vec
from .biprob import BiOutcome, check_budget
from .errors import LengthMismatch
from .model import QuantumScenario, TimeGrid
from .opensys import Superoperator
from .propagate import heisenberg_projector, heisenberg_pvm_stacks


def bi_instrument(
    scenario: QuantumScenario,
    f_plus: float,
    f_minus: float,
    t: float,
) -> Superoperator:
    """Superoperator of A -> P_t(f+) A P_t(f-).

    Summed over all outcome pairs these reproduce the identity channel; the
    diagonal members are completely positive, strictly off-diagonal ones are
    not (their Choi matrices have negative eigenvalues).
    """
    p_plus = heisenberg_projector(scenario, f_plus, t)
    p_minus = heisenberg_projector(scenario, f_minus, t)
    return Superoperator.from_sandwich(p_plus, p_minus)


def comb_biprob(
    scenario: QuantumScenario,
    grid: TimeGrid,
    outcome: BiOutcome,
) -> complex:
    """Bi-probability via sequential bi-instrument application.

    Applies N_{t_1}, ..., N_{t_n} to the state and traces; agrees with the
    trace-formula evaluation to numerical precision, through an independent
    code path.
    """
    n = len(grid)
    if len(outcome) != n:
        raise LengthMismatch(f"outcome length {len(outcome)} != grid length {n}")
    pvm = scenario.pvm
    v = vec(scenario.state.matrix)
    # ascending slots; outcome tuples are latest-first
    for j, projs in enumerate(heisenberg_pvm_stacks(scenario, grid.times)):
        p_plus = projs[pvm.index_of(outcome.plus[n - 1 - j])]
        p_minus = projs[pvm.index_of(outcome.minus[n - 1 - j])]
        v = Superoperator.from_sandwich(p_plus, p_minus).matrix @ v
    ident = vec(np.eye(scenario.dimension, dtype=complex))
    return complex(ident.conj() @ v)


def comb_table(scenario: QuantumScenario, grid: TimeGrid) -> np.ndarray:
    """The full table through the bi-instrument chain, for cross-validation.

    Axes match :class:`~bitraj.biprob.BiDistribution` (latest-first plus
    block, then minus block).  The computation runs entirely on vectorized
    states and superoperator matrices, sharing no code with the trace-formula
    enumeration.
    """
    n = len(grid)
    d = scenario.dimension
    k = scenario.pvm.size
    # each slot's (k, k, d^2, d^2) instruments exist twice while they are
    # stacked; the last (k^2)^n x d^2 state stack sits beside the one before
    # it, or beside the table and its reordered copy: at most twice over
    check_budget(32 * ((k * k) * d**4 + (k * k) ** n * d * d), "comb instruments and state stack")
    v = vec(scenario.state.matrix)[None, :]
    # ascending slots, slot 1 applied first
    for projs in heisenberg_pvm_stacks(scenario, grid.times):
        insts = np.stack(
            [
                np.stack([np.kron(projs[g].T, projs[f]) for g in range(k)])
                for f in range(k)
            ]
        )
        v = np.einsum("fgxy,sy->sfgx", insts, v, optimize=True)
        v = v.reshape(-1, d * d)
    ident = vec(np.eye(d, dtype=complex))
    q = v @ ident.conj()
    # slot-ascending interleaved (f+_1, f-_1, ..., f+_n, f-_n) -> canonical
    q = q.reshape((k, k) * n)
    plus_axes = tuple(2 * (n - 1 - j) for j in range(n))
    minus_axes = tuple(2 * (n - 1 - j) + 1 for j in range(n))
    return q.transpose(plus_axes + minus_axes).copy(order="C")
