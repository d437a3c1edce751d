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
from .propagate import _kept_memo_bytes, _walk_bytes, heisenberg_projector, heisenberg_pvm_stacks


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
    block, then minus block).  The states form one (K+ d) x (K- d) block
    matrix whose block (f+, f-) is the state after the slots so far.  Each
    slot applies its sandwiches A -> P(f+) A P(f-) to every block, the narrow
    right product before the wide left one, with the slot's outcomes as the
    most significant digits of f+ and f-, so the blocks' final traces are
    already in table layout.  No Gram factor of the state is formed, so the
    table engine shares none of this path.
    """
    n = len(grid)
    d = scenario.dimension
    k = scenario.pvm.size
    s = k ** max(n - 1, 0)  # outcome paths before the last slot
    # the last slot's state stack beside the one before it and the half-applied
    # one, or beside the table; and a projector stack beside the next one and
    # the walk that forms it
    held = max(s * s * d * d * (1 + k + k * k), (k**n) ** 2 * (d * d + 1)) + 2 * k * d * d
    walk = _walk_bytes(d, len(scenario.schedule.segments)) + _kept_memo_bytes(scenario.schedule)
    check_budget(16 * held + walk, "comb state stack")
    v = scenario.state.matrix[None, :, None, :]  # (K+, d, K-, d), K = 1
    # ascending slots, slot 1 applied first
    for projs in heisenberg_pvm_stacks(scenario, grid.times):
        rows, cols = v.shape[0], v.shape[2]
        # every block column times P(f-): (K+ d, f-, K-, d)
        right = np.matmul(v.reshape(rows * d, 1, cols, d), projs[None])
        # P(f+) times every block row: (f+, K+, d, f- K- d)
        v = np.matmul(projs[:, None], right.reshape(rows, d, k * cols * d))
        v = v.reshape(k * rows, d, k * cols, d)
    return np.trace(v, axis1=1, axis2=3).reshape((k,) * (2 * n))
