#!/usr/bin/env python3
# Bi-instruments: two-sided projector sandwiches N(f+, f-): A -> P A P'.
# They sum to the identity channel, the diagonal ones are honest (CP)
# measurement updates, the off-diagonal ones are not CP, and chaining one
# per time slot reproduces the bi-probability table through a completely
# different code path (superoperator algebra on vectorized states).

import numpy as np

import bitraj as bt
from bitraj.comb import comb_table

scenario = bt.rabi_scenario(omega=1.0)

# Completeness: summing over both outcome slots gives the identity channel.
t = 0.8
total = sum(
    bt.bi_instrument(scenario, fp, fm, t).matrix
    for fp in (1.0, -1.0)
    for fm in (1.0, -1.0)
)
print(f"completeness defect at t = {t}: "
      f"{np.linalg.norm(total - np.eye(4), 2):.3e}")

# Complete positivity: diagonal yes, off-diagonal no.
diag_choi = bt.choi_matrix(bt.bi_instrument(scenario, 1.0, 1.0, t))
off_choi = bt.choi_matrix(bt.bi_instrument(scenario, 1.0, -1.0, t))
off_herm = 0.5 * (off_choi + off_choi.conj().T)
print(f"diagonal instrument Choi min eigenvalue      = "
      f"{np.linalg.eigvalsh(diag_choi).min():+.3e}")
print(f"off-diagonal instrument Choi (Hermitian part) = "
      f"{np.linalg.eigvalsh(off_herm).min():+.3f}  (not CP)")

# Cross-check on the signature entry and then on a whole random table.
grid = bt.TimeGrid((np.pi / 2, np.pi))
o = bt.BiOutcome((1.0, 1.0), (1.0, -1.0))
via_comb = bt.comb_biprob(scenario, grid, o)
via_trace = bt.eval_biprob(scenario, grid, o)
print(f"\nwitness entry via instrument chain: {via_comb:+.12f}")
print(f"witness entry via trace formula   : {via_trace:+.12f}")

random_sc = bt.random_scenario(3, seed=29)
random_grid = bt.TimeGrid((0.4, 0.9, 1.3))
dist = bt.full_distribution(random_sc, random_grid)
gap = np.abs(comb_table(random_sc, random_grid) - dist.table).max()
print(f"\nfull-table agreement, random d=3, n=3: max |difference| = {gap:.3e}"
      f" over {dist.table.size} entries")
