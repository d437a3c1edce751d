"""Quantum bi-probability distributions on finite time grids.

The central object is the complex table

    Q(f+_n, ..., f+_1; f-_n, ..., f-_1)
        = tr[ P_{t_n}(f+_n) ... P_{t_1}(f+_1)  rho  P_{t_1}(f-_1) ... P_{t_n}(f-_n) ]

whose diagonal (f+ = f-) is the joint probability of a projective measurement
sequence.  Tables are enumerated densely; entries are stored in lexicographic
order over (f+_n,...,f+_1,f-_n,...,f-_1) with outcomes in declared PVM order,
so serialization is reproducible.

One working-memory budget, ``MEMORY_BUDGET`` bytes, guards the package's
large arrays: each guarded call counts the bytes of the arrays it holds at
once, and passes them to :func:`check_budget` before allocating any of them.

Tables, single entries and multi-observable tables all come from one Gram
engine: with rho = sum_r lambda_r |psi_r><psi_r| and path vectors
w_r(f) = P_tn(f_n)...P_t1(f_1) sqrt|lambda_r| psi_r, each entry is
Q(f+; f-) = sum_r sign(lambda_r) <w_r(f-)|w_r(f+)>, so the reshaped table is
the Gram matrix behind its positive semidefiniteness.  The table is written
once and frozen.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BitrajError,
    DomainMismatch,
    EnumerationTooLarge,
    IndexOutOfRange,
    LengthMismatch,
    NotNested,
    UnknownOutcome,
    ValidationError,
)
from .model import DensityOperator, ObservablePVM, QuantumScenario, TimeGrid, check_defect
from .propagate import heisenberg_pvm_stacks
from .serialize import as_array, as_count, as_reals, format_floats

MEMORY_BUDGET = 64 * 2**20  # bytes
_TABLE_BLOCK_BYTES = 2**20  # the rows of W that one column block of a table reads

TOL_NORMALIZATION = 1e-9
TOL_CAUSALITY = 1e-9


@dataclass(frozen=True)
class BiOutcome:
    """A pair of outcome tuples, each ordered latest-time-first."""

    plus: tuple
    minus: tuple

    def __post_init__(self):
        plus = as_reals(self.plus, "outcome")
        minus = as_reals(self.minus, "outcome")
        if len(plus) != len(minus):
            raise LengthMismatch(
                f"plus tuple has length {len(plus)}, minus {len(minus)}"
            )
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __len__(self) -> int:
        return len(self.plus)


@dataclass(frozen=True, eq=False)
class BiDistribution:
    """Dense bi-probability table on an ordered time grid.

    ``outcome_sets[i]`` lists the admissible outcomes of slot i+1 (ascending
    time); the table axes run latest-first: (f+_n,...,f+_1,f-_n,...,f-_1).
    ``scenario`` and ``pvms`` keep enough provenance to re-evaluate reduced
    grids (needed by the verification module); ``fingerprint`` identifies the
    generating scenario.  A table the engine builds also keeps the engine's
    slot stacks, one frozen (k_j, d, d) Heisenberg projector stack per slot,
    as the private ``_stacks``, so the battery does not propagate again; a
    hand-built distribution has none and they are recomputed from
    ``scenario`` and ``pvms``.  The table is copied on construction, except
    one the engine builds and hands over as ``_Handover``, which nothing else
    holds.
    """

    grid: TimeGrid
    outcome_sets: tuple
    table: np.ndarray
    fingerprint: str = ""
    scenario: QuantumScenario | None = None
    pvms: tuple | None = None
    _stacks = None  # set by _distribution_for_slots; not a field

    def __post_init__(self):
        if isinstance(self.table, _Handover):  # the engine's complex C-ordered array
            table = self.table.array
        else:
            table = np.array(as_array(self.table, "table"))  # a copy, frozen below
        n = len(self.grid)
        sizes = tuple(len(s) for s in self.outcome_sets)
        if len(self.outcome_sets) != n:
            raise LengthMismatch(
                f"{len(self.outcome_sets)} outcome sets for a grid of length {n}"
            )
        if table.shape != sizes[::-1] + sizes[::-1]:
            raise LengthMismatch(
                f"table shape {table.shape} does not match outcome sizes {sizes}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "outcome_sets", _outcome_sets(self.outcome_sets))

    def assert_well_formed(self) -> None:
        """Raise unless normalization and latest-slot causality hold.

        Run by the enumeration factories; a violation there means an
        implementation bug.  Hand-built tables (e.g. fault injection in
        tests) skip this and are diagnosed by the verification module.
        """
        total = self.table.sum()
        violations = check_defect(
            abs(total - 1.0), TOL_NORMALIZATION, BitrajError,
            f"table sum {total:.12g} has |sum - 1| =")
        if not violations and self.n >= 1:
            off, _ = latest_slot_causality(self.table)
            violations = check_defect(
                off, TOL_CAUSALITY, BitrajError, "causality: max |Q| at f+_n != f-_n =")
        if violations:
            raise ValidationError(violations)

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def sizes(self) -> tuple:
        return tuple(len(s) for s in self.outcome_sets)

    @property
    def uniform_outcomes(self) -> tuple | None:
        """The common outcome set, or None if slots differ."""
        if not self.outcome_sets:
            return ()
        first = self.outcome_sets[0]
        return first if all(s == first for s in self.outcome_sets) else None

    def total(self) -> complex:
        return complex(self.table.sum())

    def value(self, outcome: BiOutcome) -> complex:
        return complex(self.table[_lattice_indices(self.outcome_sets, outcome)])

    def __getitem__(self, outcome: BiOutcome) -> complex:
        return self.value(outcome)

    def diagonal(self) -> np.ndarray:
        """Joint probabilities P(f_n,...,f_1) as a real array (latest-first axes)."""
        shape = self.table.shape[:self.n]
        k = math.prod(shape)
        return np.real(self.table.reshape(k, k).diagonal()).reshape(shape).copy()

    def _labels(self) -> list:
        """The K latest-first outcome tuples (f_n, ..., f_1) in table row order.

        Entry k = i*K + j of the flattened table is Q(labels[i]; labels[j]).
        """
        return list(itertools.product(*self.outcome_sets[::-1]))

    def entries(self) -> Iterator[tuple]:
        labels = self._labels()
        for plus, row in zip(labels, self.table.reshape(len(labels), -1)):
            for minus, q in zip(labels, row.tolist()):
                yield BiOutcome(plus, minus), q

    def _json_header(self) -> dict:
        outcomes = (
            list(self.uniform_outcomes)
            if self.uniform_outcomes is not None
            else [list(s) for s in self.outcome_sets]
        )
        return {
            "times": list(self.grid.times),
            "outcomes": outcomes,
            "fingerprint": self.fingerprint,
        }

    def to_json_dict(self) -> dict:
        labels = self._labels()
        entries = [
            {"plus": list(plus), "minus": list(minus), "re": re, "im": im}
            for plus, row in zip(labels, self.table.reshape(len(labels), -1))
            for minus, re, im in zip(labels, row.real.tolist(), row.imag.tolist())
        ]
        return {**self._json_header(), "entries": entries}

    def to_csv_rows(self) -> Iterator[list]:
        """Header, then one row per entry; every label and value is formatted once."""
        yield ["plus", "minus", "re", "im"]
        labels = [" ".join(format_floats(t)) for t in self._labels()]
        for plus, row in zip(labels, self.table.reshape(len(labels), -1)):
            for minus, re, im in zip(
                labels, format_floats(row.real.tolist()), format_floats(row.imag.tolist())
            ):
                yield [plus, minus, re, im]


@dataclass(frozen=True)
class _Handover:
    """A table the engine built and hands to BiDistribution, which keeps it uncopied."""

    array: np.ndarray


@dataclass(frozen=True, eq=False)
class TupleFunction:
    """A test function X(f+, f-) tabulated on the full outcome lattice."""

    grid: TimeGrid
    outcome_sets: tuple
    values: np.ndarray

    def __post_init__(self):
        sizes = tuple(len(s) for s in self.outcome_sets)
        values = as_array(self.values, "test function values")
        if values.shape != sizes[::-1] + sizes[::-1]:
            raise DomainMismatch(
                f"values shape {values.shape} does not match outcome sizes {sizes}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "outcome_sets", _outcome_sets(self.outcome_sets))

    @classmethod
    def from_callable(
        cls, grid: TimeGrid, outcome_sets, fn: Callable[[BiOutcome], complex]
    ) -> "TupleFunction":
        sets = _outcome_sets(outcome_sets)
        labels = list(itertools.product(*sets[::-1]))  # latest-first tuples, in table row order
        values = as_array([fn(BiOutcome(p, m)) for p in labels for m in labels], "test function value")
        rev = tuple(len(s) for s in sets[::-1])
        return cls(grid, sets, values.reshape(rev + rev + values.shape[1:]))  # array values fail the shape check

    @classmethod
    def constant(cls, grid: TimeGrid, outcome_sets, value: complex = 1.0) -> "TupleFunction":
        sizes = tuple(len(s) for s in outcome_sets)[::-1]
        value = as_array(value, "test function value")  # an array value fails the shape check
        return cls(grid, outcome_sets, np.full(sizes + sizes + value.shape, value))

    @classmethod
    def indicator(cls, grid: TimeGrid, outcome_sets, outcome: BiOutcome) -> "TupleFunction":
        sets = _outcome_sets(outcome_sets)
        sizes = tuple(len(s) for s in sets)[::-1]
        values = np.zeros(sizes + sizes, dtype=complex)
        values[_lattice_indices(sets, outcome)] = 1.0
        return cls(grid, sets, values)

    def lift(self, fine_grid: TimeGrid, fine_outcome_sets) -> "TupleFunction":
        """Extend to a finer grid by ignoring the added coordinates.

        Every time of this function's grid must appear (bitwise) in
        ``fine_grid``; added slots are broadcast over.  The injection is
        order-preserving, so a reshape with singleton axes suffices.
        """
        fine_sets = _outcome_sets(fine_outcome_sets)
        n_fine = len(fine_grid)
        matched = set()
        for j, t in enumerate(self.grid.times):
            try:
                pos = fine_grid.times.index(t)
            except ValueError:
                raise NotNested(f"time {t} missing from the finer grid {fine_grid.times}") from None
            if fine_sets[pos] != self.outcome_sets[j]:
                raise DomainMismatch(f"outcome set at time {t} differs between grids")
            matched.add(n_fine - 1 - pos)  # latest-first axis of the fine layout
        fine_sizes = tuple(len(s) for s in fine_sets)[::-1]
        shape = tuple(
            fine_sizes[a] if a in matched else 1 for a in range(n_fine)
        )
        expanded = self.values.reshape(shape + shape)
        return TupleFunction(
            fine_grid, fine_sets, np.broadcast_to(expanded, fine_sizes + fine_sizes).copy()
        )


# -- evaluation machinery ----------------------------------------------------


def _outcome_sets(sets) -> tuple:
    """Each slot's admissible outcomes as a tuple of floats."""
    return tuple(as_reals(s, "outcome set entry") for s in sets)


def _lattice_indices(outcome_sets: tuple, outcome: BiOutcome) -> tuple:
    """Table index of a BiOutcome (axes latest-first, plus block then minus)."""
    n = len(outcome_sets)
    if len(outcome) != n:
        raise LengthMismatch(f"outcome length {len(outcome)} != grid length {n}")
    idx = []
    for leg in (outcome.plus, outcome.minus):
        for a, f in enumerate(leg):
            slot_set = outcome_sets[n - 1 - a]
            try:
                idx.append(slot_set.index(f))
            except ValueError:
                raise UnknownOutcome(
                    f"outcome {f} not admissible at slot {n - a} (expected one of {slot_set})"
                ) from None
    return tuple(idx)


def _worse(val: float, at, best: float, best_at) -> bool:
    """Whether ``val`` at ``at`` beats the worst case ``best`` at ``best_at``.

    The one worst-case rule of every scan: a NaN beats any number, a larger
    value beats a smaller one, and equal values (or two NaNs) go to the
    smaller slot or flat index.
    """
    if math.isnan(val) or math.isnan(best):
        return math.isnan(val) and (not math.isnan(best) or at < best_at)
    return val > best or (val == best and at < best_at)


def latest_slot_causality(table: np.ndarray) -> tuple:
    """(max |Q| over f+_n != f-_n, first flat index holding it), for n >= 1.

    That mass is what causality at the latest slot forbids; the pair is the
    causality deviation and its witness.  The k(k-1) off-diagonal blocks of
    the latest slot are scanned one at a time, so the extra memory is one
    block's |Q|.  Every f+_n = f-_n entry counts as 0: a maximum of 0 (or no
    off-diagonal block at all) gives flat index 0, and a NaN is the maximum.
    """
    best, where = 0.0, 0
    if not table.size:
        return best, where
    k = table.shape[0]
    cols = math.prod(table.shape[1:table.ndim // 2])
    v = table.reshape(k, cols, k, cols)
    for p in range(k):
        for m in range(k):
            if p == m:
                continue
            block = np.abs(v[p, :, m, :])
            i = int(block.argmax())
            val = float(block.flat[i])
            plus_row, minus_col = divmod(i, cols)
            flat = ((p * cols + plus_row) * k + m) * cols + minus_col
            if _worse(val, flat, best, where):
                best, where = val, flat
    return best, where


def check_budget(nbytes: int, what: str) -> None:
    """Raise EnumerationTooLarge, before the array exists, if ``nbytes`` exceed the budget."""
    if nbytes > MEMORY_BUDGET:
        try:
            count = f"{nbytes}"
        except ValueError:  # too many digits for str: the power of two it passes
            count = f"over 2**{nbytes.bit_length() - 1}"
        raise EnumerationTooLarge(f"{what} would take {count} bytes, beyond the budget of {MEMORY_BUDGET} bytes")


def _gram_rows(factor: np.ndarray, stacks: list) -> np.ndarray:
    """w(f) = P_tn(f_n)...P_t1(f_1) F for every outcome path f.

    Returns shape (K, d, r), K = k_1...k_n.  Each slot's outcome becomes the
    most significant row digit, so rows run lexicographically over the
    latest-first tuple (f_n, ..., f_1), the table's axis order.  A stack
    holding a single projector per slot yields the one vector of that path.
    """
    w = factor[None]
    for p in stacks:
        w = np.matmul(p[:, None], w[None]).reshape(-1, *factor.shape)
    return w


def _block_rows(width: int) -> int:
    """Rows of ``width`` complex entries in one block of ``_TABLE_BLOCK_BYTES``, at least one."""
    return max(1, _TABLE_BLOCK_BYTES // (16 * width))


def _check_table(sizes: tuple, d: int) -> None:
    """Check against the budget the peak bytes of a table over slots of these PVM sizes."""
    rows, step = math.prod(sizes), _block_rows(d * d)
    grown_from = rows // sizes[-1] if sizes else 0
    # the state's cached eigenvectors, F and W beside the table and a block, or the rows W grows from
    held = max(rows * rows + min(step, rows) * d * d, grown_from * d * d)
    check_budget(16 * ((2 + rows) * d * d + held), "table")


def _table_from_stacks(state: DensityOperator, stacks: list) -> np.ndarray:
    """Dense table as the Gram matrix of the path vectors w(f).

    With C(f) = P_tn(f_n)...P_t1(f_1) and rho = F S F^dagger, every entry is
    Q(f+; f-) = tr[C(f+) rho C(f-)^dagger] = <w(f-)| S |w(f+)>, so the whole
    table is the one product (W S) W^dagger, already in latest-first layout.
    W has shape (K, d, d): the factor F keeps all d eigenvectors, so r = d.
    The product is written one column block at a time, from a conjugated
    block of W's rows with the real sign folded in.  Working memory peaks at
    the table, W and one block, or, while W grows by its last slot, at W and
    the rows it grows from; both are counted against the budget before W
    exists.
    """
    sizes = tuple(s.shape[0] for s in stacks)
    rows = math.prod(sizes)
    rho = state.matrix
    step = _block_rows(rho.size)  # rows of W per block
    _check_table(sizes, len(rho))

    factor, sign = state._gram
    w = _gram_rows(factor, stacks)
    flat = w.reshape(rows, -1)
    q = np.empty((rows, rows), dtype=complex)
    block = np.empty((min(step, rows), *factor.shape), dtype=complex)
    for i in range(0, rows, step):
        b = np.conjugate(w[i:i + step], out=block[:min(step, rows - i)])
        # conj(W S) = conj(W) S, as S is real, and a zero sign goes with a zero
        # column of F; negating columns in place avoids the buffer that a
        # broadcast product with S would take
        for r in np.flatnonzero(sign < 0):
            np.negative(b[..., r], out=b[..., r])
        np.matmul(flat, b.reshape(len(b), -1).T, out=q[:, i:i + step])
    return q.reshape(sizes[::-1] + sizes[::-1])


def _entry_gram(state: DensityOperator, stacks: list, plus_idx, minus_idx) -> complex:
    """One table entry from the two vector chains w(f+) and w(f-), each matrix the table's row."""
    factor, sign = state._gram
    plus = minus = factor
    for p, i, j in zip(stacks, plus_idx, minus_idx):
        plus, minus = p[i] @ plus, p[j] @ minus
    return complex(np.vdot(minus, plus * sign))


def _entry_trace(state: DensityOperator, stacks: list, plus_idx, minus_idx) -> complex:
    """Direct ordered-product evaluation of one table entry."""
    a = state.matrix
    for p, fp, fm in zip(stacks, plus_idx, minus_idx):
        a = p[fp] @ a @ p[fm]
    return complex(np.trace(a))


def _distribution_for_slots(
    scenario: QuantumScenario,
    grid: TimeGrid,
    pvms: Sequence[ObservablePVM],
) -> BiDistribution:
    """Dense table with a (possibly different) PVM per time slot."""
    if len(pvms) != len(grid):
        raise LengthMismatch(f"{len(pvms)} observables for a grid of length {len(grid)}")
    _check_table(tuple(p.size for p in pvms), scenario.dimension)  # before any stack is walked
    stacks = list(heisenberg_pvm_stacks(scenario, grid.times, pvms))
    table = _table_from_stacks(scenario.state, stacks)
    dist = BiDistribution(
        grid=grid,
        outcome_sets=tuple(tuple(p.outcomes) for p in pvms),
        table=_Handover(table),
        fingerprint=scenario.fingerprint,
        scenario=scenario,
        pvms=tuple(pvms),
    )
    for stack in stacks:
        stack.setflags(write=False)
    object.__setattr__(dist, "_stacks", stacks)
    dist.assert_well_formed()
    return dist


def _entry(
    scenario: QuantumScenario,
    grid: TimeGrid,
    pvms: Sequence[ObservablePVM],
    outcome: BiOutcome,
    method: str,
) -> complex:
    """One table entry with one PVM per slot: the path of every point query.

    The method and the outcome are checked before anything is propagated.
    """
    if method not in ("auto", "trace"):
        raise DomainMismatch(f"unknown method {method!r}")
    idx = _lattice_indices(tuple(tuple(p.outcomes) for p in pvms), outcome)
    n = len(grid)
    plus_idx, minus_idx = idx[:n][::-1], idx[n:][::-1]  # ascending slots
    entry = _entry_gram if method == "auto" else _entry_trace
    stacks = list(heisenberg_pvm_stacks(scenario, grid.times, pvms))
    return entry(scenario.state, stacks, plus_idx, minus_idx)


# -- public operations -------------------------------------------------------


def eval_biprob(
    scenario: QuantumScenario,
    grid: TimeGrid,
    outcome: BiOutcome,
    method: str = "auto",
) -> complex:
    """One bi-probability value Q(f+, f-) on the given grid.

    ``method`` "auto" runs the Gram engine's two vector chains w(f+), w(f-);
    "trace" multiplies the ordered operator product out, an independent
    evaluation kept as an oracle.  Both agree to ~1e-12.
    """
    return _entry(scenario, grid, [scenario.pvm] * len(grid), outcome, method)


def full_distribution(scenario: QuantumScenario, grid: TimeGrid) -> BiDistribution:
    """Enumerate the whole table; normalization is checked on construction."""
    return _distribution_for_slots(scenario, grid, [scenario.pvm] * len(grid))


def diagonal_probability(scenario: QuantumScenario, grid: TimeGrid, outcomes) -> float:
    """P(f_n,...,f_1): the diagonal bi-probability, a genuine probability."""
    tup = as_reals(outcomes, "outcome")
    return eval_biprob(scenario, grid, BiOutcome(tup, tup)).real


def _slot_sum(table: np.ndarray, position: int, out: np.ndarray | None = None) -> np.ndarray:
    """The table summed jointly over (f+_j, f-_j) at slot ``position``, added into ``out``.

    With the table viewed as (A, k, B, A, k, B), the k^2 slices
    [:, f+_j, :, :, f-_j, :] are added one at a time, f+_j outer and f-_j
    inner, into ``out`` (a C-contiguous array of the reduced table's size) or,
    without one, into a copy of the first slice.  That is not bitwise numpy's
    reduction over the two strided axes: entries may differ by rounding
    (about 1e-16).
    """
    n = table.ndim // 2
    rev = table.shape[:n]
    axis = n - position  # latest-first axis of slot `position`
    k = rev[axis]
    before, after = math.prod(rev[:axis]), math.prod(rev[axis + 1:])
    v = table.reshape(before, k, after, before, k, after)
    pairs = [(p, m) for p in range(k) for m in range(k)]
    if out is None:  # an empty slot sums to zero
        out = v[:, 0, :, :, 0, :].copy() if k else np.zeros((before, after) * 2, dtype=complex)
        pairs = pairs[1:]
    acc = out.reshape(before, after, before, after)  # a view: out is contiguous
    for p, m in pairs:
        acc += v[:, p, :, :, m, :]
    reduced = rev[:axis] + rev[axis + 1:]
    return out.reshape(reduced + reduced)


def marginalize(dist: BiDistribution, position: int) -> BiDistribution:
    """Sum jointly over (f+_j, f-_j); returns the distribution with t_j removed.

    ``position`` is 1-based over ascending times.  By bi-consistency the
    result matches a direct evaluation on the reduced grid.
    """
    n = dist.n
    position = as_count(position, "position")
    if not 1 <= position <= n:
        raise IndexOutOfRange(f"position {position} outside 1..{n}")

    def others(items):
        return tuple(x for j, x in enumerate(items, start=1) if j != position)

    return BiDistribution(
        grid=dist.grid.without(position),
        outcome_sets=others(dist.outcome_sets),
        table=_Handover(_slot_sum(dist.table, position)),
        fingerprint=dist.fingerprint,
        scenario=dist.scenario,
        pvms=others(dist.pvms) if dist.pvms is not None else None,
    )


def average(dist: BiDistribution, x: TupleFunction) -> complex:
    """E[X] = sum Q(f+,f-) X(f+,f-), linear in X, equal to 1 for X = 1."""
    if x.grid.times != dist.grid.times:
        raise DomainMismatch(
            f"function grid {x.grid.times} != distribution grid {dist.grid.times}"
        )
    if x.outcome_sets != dist.outcome_sets:
        raise DomainMismatch("function outcome lattice differs from the distribution's")
    return complex(np.sum(dist.table * x.values))
