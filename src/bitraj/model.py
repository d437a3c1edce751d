"""Domain types for quantum measurement scenarios.

A scenario bundles a Hamiltonian schedule H(t), an initial density operator,
and a projection-valued measure (PVM) for the probed observable, all on one
d-dimensional Hilbert space.  Hamiltonians are piecewise constant in time;
smooth time dependence is approximated by midpoint sampling
(:meth:`HamiltonianSchedule.from_function`), which keeps every propagator an
exact product of segment exponentials.

All types are immutable after validation (arrays are frozen), so instances
can be shared freely across threads.  A schedule, a state and a PVM keep
what a query factors of them (segment eigensystems and propagators,
``eigh`` of rho and its Gram factor, an outcome-adapted basis) for their
lifetime.  Tolerances are absolute, measured in spectral norm, and equal to
``DEFAULT_TOL``.

Outcome tuples throughout the package are ordered latest-time-first,
``(f_n, ..., f_1)``, while time grids are ascending ``(t_1, ..., t_n)``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import serialize
from .serialize import as_array, as_count, as_operator, as_real, as_reals
from .errors import (
    BadTrace,
    DegenerateInterval,
    DimensionMismatch,
    DomainMismatch,
    IncompletePVM,
    NonFiniteTime,
    NonHermitian,
    NotAProjector,
    OutOfHorizon,
    ParseError,
    UncoveredOutcome,
    UnknownOutcome,
    ValidationError,
)

DEFAULT_TOL = 1e-10
SEGMENTS_PER_UNIT_TIME = 64
_CHUNK_BYTES = 2**18  # what one chunk of stacked schedule segments may hold

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _per_chunk(d: int) -> int:
    """d x d complex matrices in one chunk of ``_CHUNK_BYTES``, at least one."""
    return max(1, _CHUNK_BYTES // (16 * d * d))


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value; inf, with no SVD, if an entry is not finite."""
    return float(_spectral_norms(a[None])[0])


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """``_spectral_norm`` of each matrix of an (m, r, c) stack, in one batched SVD.

    Each norm is bitwise what ``np.linalg.norm(a, 2)`` gives for that matrix.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    out = np.full(len(stack), math.inf)
    if finite.any():
        out[finite] = np.linalg.norm(stack[finite], 2, axis=(1, 2))
    return out


def _screened_norm(a: np.ndarray) -> float:
    """The Frobenius norm if it is within DEFAULT_TOL, else the spectral norm.

    The Frobenius norm bounds the spectral norm, so a check against
    DEFAULT_TOL decides alike on either, and one that passes needs no SVD.
    """
    dev = float(np.linalg.norm(a))
    return dev if dev <= DEFAULT_TOL else _spectral_norm(a)


def check_defect(dev: float, tol: float, fault: type, what: str, *args) -> list:
    """``[fault]`` unless ``dev <= tol``, the one comparison of every operator check.

    Finite entries can still overflow in a residual such as ``A - A^dagger``
    and give a NaN defect; ``dev > tol`` would pass it, ``not dev <= tol``
    does not.  As in ``logging``, ``what % args`` is formatted only on
    failure, which keeps the per-propagator unitarity check cheap.
    """
    if dev <= tol:
        return []
    return [fault(f"{what % args if args else what} {dev:.3e} exceeds tol {tol:.1e}")]


def check_hermitian(a: np.ndarray, name: str) -> list:
    with np.errstate(over="ignore", invalid="ignore"):
        dev = _screened_norm(a - a.conj().T)
    return check_defect(dev, DEFAULT_TOL, NonHermitian, f"{name}: Hermiticity defect")


# -- Hamiltonian schedule --------------------------------------------------

@dataclass(frozen=True, eq=False)
class HamiltonianSchedule:
    """Piecewise-constant Hamiltonian on contiguous segments starting at 0.

    Each segment is ``(t_start, t_end, H)`` with Hermitian ``H`` (units of
    inverse time, hbar = 1).  The final ``t_end`` may be ``math.inf`` for a
    static Hamiltonian with unbounded horizon.
    """

    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValidationError([DimensionMismatch("schedule: needs at least one segment")])
        found = []  # violations of each segment, in segment order
        cleaned = []
        same_dim = []  # (k, H) of the segments with the schedule's dimension
        dim = None
        prev_end = 0.0
        for k, (a, b, h) in enumerate(self.segments):
            a, b = as_real(a, "schedule segment time"), as_real(b, "schedule segment time")
            h = as_operator(h, f"schedule segment {k}")
            violations = []
            found.append(violations)
            if h.shape[0] != h.shape[1]:
                violations.append(DimensionMismatch(f"schedule segment {k}: matrix is not square"))
                continue
            if dim is None:
                dim = h.shape[0]
            if h.shape[0] == dim:
                same_dim.append((k, h))
            else:
                violations.append(
                    DimensionMismatch(
                        f"schedule segment {k}: dimension {h.shape[0]} != {dim}")
                )
            if k == 0 and a != 0.0:
                violations.append(DegenerateInterval(f"schedule: first segment starts at {a}, not 0"))
            # one bad time is one violation: a non-finite end is not compared with
            # the next start, and a non-finite start is not an empty interval
            if k > 0 and math.isfinite(prev_end) and a != prev_end:
                violations.append(
                    DegenerateInterval(
                        f"schedule segment {k}: starts at {a}, previous ends at {prev_end}")
                )
            if math.isfinite(a) and not b > a:
                violations.append(DegenerateInterval(f"schedule segment {k}: empty interval [{a}, {b}]"))
            elif b == math.inf and k != len(self.segments) - 1:
                violations.append(DegenerateInterval(f"schedule segment {k}: only the last segment may be unbounded"))
            prev_end = b
            cleaned.append((a, b, _frozen(h)))
        # the check holds about four copies of each chunk of segments it stacks
        per_chunk = _per_chunk(dim or 1)
        for i in range(0, len(same_dim), per_chunk):
            chunk = same_dim[i:i + per_chunk]
            stack = np.stack([h for _, h in chunk])
            with np.errstate(over="ignore", invalid="ignore"):
                defects = _spectral_norms(stack - stack.conj().transpose(0, 2, 1))
            for (k, _), dev in zip(chunk, defects.tolist()):
                found[k] += check_defect(
                    dev, DEFAULT_TOL, NonHermitian, "schedule segment %d: Hermiticity defect", k)
        violations = [v for seg in found for v in seg]
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "segments", tuple(cleaned))

    @classmethod
    def from_static(cls, h, horizon: float = math.inf) -> "HamiltonianSchedule":
        return cls(((0.0, as_real(horizon, "schedule horizon"), h),))

    @classmethod
    def from_function(
        cls,
        fn: Callable[[float], np.ndarray],
        horizon: float,
        segments: int | None = None,
    ) -> "HamiltonianSchedule":
        """Midpoint-sample a smooth ``t -> H(t)`` into a piecewise schedule.

        ``segments`` defaults to ``SEGMENTS_PER_UNIT_TIME`` per unit of time.
        The schedule holds at least 512 bytes a segment, whatever its
        dimension, and that count must fit the working-memory budget.
        """
        from .biprob import check_budget  # biprob imports this module
        horizon = as_real(horizon, "from_function: horizon")
        if not (horizon > 0 and math.isfinite(horizon)):
            raise ValidationError([DomainMismatch("from_function: horizon must be finite and positive")])
        if segments is None:
            segments = SEGMENTS_PER_UNIT_TIME * horizon  # a float, inf past the float range
        elif as_count(segments, "from_function: segments") < 1:
            raise ValidationError([DomainMismatch(f"from_function: segments must be >= 1, got {segments}")])
        check_budget(512 * segments, "sampled schedule")
        segments = math.ceil(segments)
        edges = np.linspace(0.0, horizon, segments + 1)
        segs = []
        for a, b in zip(edges[:-1], edges[1:]):
            segs.append((float(a), float(b), fn(0.5 * (a + b))))
        return cls(tuple(segs))

    @property
    def dimension(self) -> int:
        return self.segments[0][2].shape[0]

    @property
    def horizon(self) -> float:
        return self.segments[-1][1]

    def pieces(self, t_from: float, t_to: float) -> Iterator[tuple]:
        """Yield ``(a, b, H)`` covering [t_from, t_to], clipped to segments."""
        for a, b, h in self.segments:
            lo, hi = max(a, t_from), min(b, t_to)
            if hi > lo:
                yield lo, hi, h

    def content_bytes(self) -> bytes:
        parts = []
        for a, b, h in self.segments:
            parts.append(np.array([a, b]).tobytes())
            parts.append(np.ascontiguousarray(h).tobytes())
        return b"".join(parts)


# -- Observable PVM --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ObservablePVM:
    """Orthogonal projectors summing to the identity, one per real outcome."""

    outcomes: tuple
    projectors: tuple

    def __post_init__(self):
        outcomes = as_reals(self.outcomes, "pvm: outcome")
        projectors = tuple(as_operator(p, f"projector[{k}]") for k, p in enumerate(self.projectors))
        violations = []
        if len(outcomes) != len(projectors):
            raise ValidationError(
                [DimensionMismatch(
                    f"pvm: {len(outcomes)} outcomes but {len(projectors)} projectors")]
            )
        if len(set(outcomes)) != len(outcomes):
            violations.append(DomainMismatch("pvm: outcome values must be distinct"))
        if not all(math.isfinite(f) for f in outcomes):
            violations.append(DomainMismatch(f"pvm: outcome values must be finite, got {outcomes}"))
        dims = {p.shape for p in projectors}
        if len(dims) != 1 or any(r != c for r, c in dims):
            violations.append(DimensionMismatch(f"pvm: projector shapes differ or non-square: {sorted(dims)}"))
            raise ValidationError(violations)
        d = projectors[0].shape[0]
        if len(outcomes) > d:
            violations.append(DimensionMismatch(f"pvm: {len(outcomes)} outcomes exceed dimension {d}"))
        with np.errstate(over="ignore", invalid="ignore"):
            for f, p in zip(outcomes, projectors):
                violations.extend(check_hermitian(p, f"projector({f})"))
                violations.extend(check_defect(
                    _screened_norm(p @ p - p), DEFAULT_TOL, NotAProjector,
                    f"projector({f}): ||P^2 - P|| ="))
            for i in range(len(projectors)):
                for j in range(i + 1, len(projectors)):
                    violations.extend(check_defect(
                        _screened_norm(projectors[i] @ projectors[j]), DEFAULT_TOL,
                        IncompletePVM, f"projectors({outcomes[i]},{outcomes[j]}): overlap"))
            violations.extend(check_defect(
                _screened_norm(sum(projectors) - np.eye(d)), DEFAULT_TOL, IncompletePVM,
                "pvm: ||sum P - 1|| ="))
        if violations:
            raise ValidationError(violations)
        stack = np.stack(projectors)  # the projectors are its views, read by the Heisenberg stacks
        stack.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    @classmethod
    def pauli_z(cls) -> "ObservablePVM":
        return cls((1.0, -1.0), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

    @classmethod
    def computational_basis(cls, d: int) -> "ObservablePVM":
        k = range(as_count(d, "computational_basis: d"))
        return cls(tuple(map(float, k)), tuple(np.diag([i == j for i in k]) for j in k))

    @property
    def dimension(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.outcomes)

    @property
    def is_rank_one(self) -> bool:
        return all(abs(np.trace(p).real - 1.0) <= 1e-9 for p in self.projectors)

    def index_of(self, outcome: float) -> int:
        outcome = as_real(outcome, "outcome")
        for k, f in enumerate(self.outcomes):
            if f == outcome:
                return k
        raise UnknownOutcome(f"outcome {outcome} not in {self.outcomes}")

    def projector(self, outcome: float) -> np.ndarray:
        return self.projectors[self.index_of(outcome)]

    @functools.cached_property
    def _basis(self) -> tuple:
        """Orthonormal columns adapted to the projectors, with their outcome labels, formed once."""
        cols = []
        labels = []
        for f, p in zip(self.outcomes, self.projectors):
            evals, evecs = np.linalg.eigh(p)
            order = np.argsort(evals)[::-1]
            for r in range(int(round(np.trace(p).real))):
                cols.append(evecs[:, order[r]])
                labels.append(f)
        return _frozen(np.stack(cols, axis=1)), tuple(labels)

    def content_bytes(self) -> bytes:
        parts = [np.array(self.outcomes).tobytes()]
        parts += [np.ascontiguousarray(p).tobytes() for p in self.projectors]
        return b"".join(parts)


# -- Density operator ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityOperator:
    matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(self.matrix, "state")
        if m.shape[0] != m.shape[1]:
            raise ValidationError([DimensionMismatch("state: matrix is not square")])
        violations = check_hermitian(m, "state")
        with np.errstate(over="ignore", invalid="ignore"):
            tr = np.trace(m)
        violations += check_defect(
            abs(tr - 1.0), DEFAULT_TOL, BadTrace, f"state: trace {tr:.12g} has |trace - 1| =")
        if not violations:
            evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            violations += check_defect(
                -evals.min(), DEFAULT_TOL, BadTrace, "state: -(min eigenvalue) =")
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "matrix", _frozen(m))

    @classmethod
    def pure(cls, vector) -> "DensityOperator":
        v = as_array(vector, "state vector").reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValidationError([DomainMismatch("state: vector entries must be finite")])
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if not 0 < nrm < math.inf:
            raise ValidationError([BadTrace(f"state: a vector of norm {nrm} cannot be normalized")])
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def _eigh(self) -> tuple:
        """``np.linalg.eigh`` of the matrix, computed once and read-only."""
        evals, evecs = np.linalg.eigh(self.matrix)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs

    @functools.cached_property
    def _gram(self) -> tuple:
        """(F, s) with rho = F diag(s) F^dagger and s_r = sign(lambda_r), from ``_eigh``, read-only.

        Columns of F are the eigenvectors of rho scaled by sqrt|lambda_r|.  The
        sign keeps the slightly negative eigenvalues a valid state may carry
        (down to -tol), so the factorization reproduces rho itself rather than
        a clipped copy.
        """
        evals, evecs = self._eigh
        factor, sign = evecs * np.sqrt(np.abs(evals)), np.sign(evals)
        factor.setflags(write=False)
        sign.setflags(write=False)
        return factor, sign


# -- Time grid -------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing measurement times, all positive and finite."""

    times: tuple

    def __post_init__(self):
        times = as_reals(self.times, "grid: time")
        if not all(math.isfinite(t) for t in times):
            raise ValidationError([NonFiniteTime(f"grid: times must be finite, got {times}")])
        if any(t <= 0 for t in times):
            raise ValidationError([OutOfHorizon(f"grid: times must be positive, got {times}")])
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise ValidationError([DegenerateInterval(f"grid: times must be strictly increasing, got {times}")])
        object.__setattr__(self, "times", times)

    # The empty grid is allowed: it indexes the trivial distribution {() -> 1}
    # produced by marginalizing a single-time distribution.

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(self.times)

    def without(self, position: int) -> "TimeGrid":
        """Grid with t_position removed (1-based, ascending)."""
        return TimeGrid(tuple(t for k, t in enumerate(self.times, start=1) if k != position))

    def is_refinement_of(self, coarse: "TimeGrid") -> bool:
        return set(coarse.times) <= set(self.times)


# -- Scenario --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuantumScenario:
    dimension: int
    schedule: HamiltonianSchedule
    state: DensityOperator
    pvm: ObservablePVM

    def __post_init__(self):
        d = as_count(self.dimension, "scenario: dimension")
        parts = (("schedule", self.schedule), ("state", self.state), ("observable", self.pvm))
        violations = [DimensionMismatch(f"{name}: dimension {part.dimension} != scenario dimension {d}")
                      for name, part in parts if part.dimension != d]
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "dimension", d)

    @property
    def horizon(self) -> float:
        return self.schedule.horizon

    @functools.cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the scenario's content, hashed once per (frozen) scenario."""
        h = hashlib.sha256()
        h.update(np.array([self.dimension]).tobytes())
        h.update(self.schedule.content_bytes())
        h.update(np.ascontiguousarray(self.state.matrix).tobytes())
        h.update(self.pvm.content_bytes())
        return h.hexdigest()

    def with_state(self, state: DensityOperator) -> "QuantumScenario":
        return QuantumScenario(self.dimension, self.schedule, state, self.pvm)


def _rabi_hamiltonian(omega: float) -> np.ndarray:
    """omega * sigma_x / 2; a non-finite omega is rejected before the product warns."""
    omega = as_real(omega, "hamiltonian.omega")
    if not math.isfinite(omega):
        raise ValidationError([DomainMismatch(f"hamiltonian.omega: must be finite, got {omega}")])
    return 0.5 * omega * PAULI_X


def rabi_scenario(omega: float = 1.0) -> QuantumScenario:
    """Qubit precessing under H = omega * sigma_x / 2, probed in sigma_z."""
    return QuantumScenario(
        dimension=2,
        schedule=HamiltonianSchedule.from_static(_rabi_hamiltonian(omega)),
        state=DensityOperator.pure([1.0, 0.0]),
        pvm=ObservablePVM.pauli_z(),
    )


# -- Operations ------------------------------------------------------------

def validate_scenario(raw) -> QuantumScenario:
    """Build a validated scenario from a config dict (or revalidate one).

    All violated invariants are collected into a single
    :class:`~bitraj.errors.ValidationError` rather than failing on the first.
    """
    if isinstance(raw, QuantumScenario):
        return QuantumScenario(raw.dimension, raw.schedule, raw.state, raw.pvm)
    if not isinstance(raw, Mapping):
        raise ParseError(f"scenario: expected a mapping, got {type(raw).__name__}")

    for key in ("dimension", "hamiltonian", "initial_state", "observable"):
        if key not in raw:
            raise ParseError(f"scenario: missing required key '{key}'")
    d = raw["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError(f"scenario: dimension must be a positive integer, got {d!r}")

    violations = []
    schedule = state = pvm = None
    try:
        schedule = _schedule_from_config(raw["hamiltonian"], d)
    except ValidationError as exc:
        violations.extend(exc.violations)
    try:
        state = _state_from_config(raw["initial_state"])
    except ValidationError as exc:
        violations.extend(exc.violations)
    try:
        pvm = _pvm_from_config(raw["observable"], d)
    except ValidationError as exc:
        violations.extend(exc.violations)
    if None not in (schedule, state, pvm):
        try:
            return QuantumScenario(d, schedule, state, pvm)
        except ValidationError as exc:
            violations.extend(exc.violations)
    raise ValidationError(violations)


def _schedule_from_config(cfg, d: int) -> HamiltonianSchedule:
    if not isinstance(cfg, Mapping) or "type" not in cfg:
        raise ParseError("hamiltonian: expected a mapping with a 'type' key")
    kind = cfg["type"]
    if kind == "static":
        h = serialize.matrix_from_json(cfg.get("matrix"), "hamiltonian.matrix")
        horizon = serialize.real_from_json(cfg.get("horizon", math.inf), "hamiltonian.horizon")
        return HamiltonianSchedule.from_static(h, horizon)
    if kind == "piecewise":
        segs = cfg.get("segments")
        if not isinstance(segs, (list, tuple)) or not segs:
            raise ParseError("hamiltonian.segments: expected a non-empty list")
        built = []
        for k, seg in enumerate(segs):
            if not isinstance(seg, Mapping):
                raise ParseError(f"hamiltonian.segments[{k}]: expected a mapping")
            where = f"hamiltonian.segments[{k}]"
            built.append(
                (
                    serialize.real_from_json(seg.get("t_start", 0.0), f"{where}.t_start"),
                    serialize.real_from_json(seg.get("t_end", 0.0), f"{where}.t_end"),
                    serialize.matrix_from_json(seg.get("matrix"), f"{where}.matrix"),
                )
            )
        return HamiltonianSchedule(tuple(built))
    if kind == "preset":
        name = cfg.get("name")
        if name == "rabi":
            if d != 2:
                raise ParseError(f"hamiltonian preset 'rabi': requires dimension 2, got {d}")
            omega = serialize.real_from_json(cfg.get("omega", 1.0), "hamiltonian.omega")
            return HamiltonianSchedule.from_static(_rabi_hamiltonian(omega))
        raise ParseError(f"hamiltonian preset: unknown name {name!r}")
    raise ParseError(f"hamiltonian: unknown type {kind!r}")


def _state_from_config(cfg) -> DensityOperator:
    if not isinstance(cfg, Mapping):
        raise ParseError("initial_state: expected a mapping")
    if cfg.get("type") == "pure" or "vector" in cfg:
        return DensityOperator.pure(serialize.vector_from_json(cfg.get("vector"), "initial_state.vector"))
    if "matrix" in cfg:
        return DensityOperator(serialize.matrix_from_json(cfg["matrix"], "initial_state.matrix"))
    raise ParseError("initial_state: expected 'vector' (type 'pure') or 'matrix'")


def _pvm_from_config(cfg, d: int) -> ObservablePVM:
    if not isinstance(cfg, Mapping):
        raise ParseError("observable: expected a mapping")
    if cfg.get("type") == "pauli_z":
        if d != 2:
            raise ParseError(f"observable preset 'pauli_z': requires dimension 2, got {d}")
        return ObservablePVM.pauli_z()
    if "values" in cfg and "projectors" in cfg:
        values = cfg["values"]
        if not isinstance(values, (list, tuple)) or not values:
            raise ParseError("observable.values: expected a non-empty list")
        projectors = cfg["projectors"]
        if not isinstance(projectors, (list, tuple)) or len(projectors) != len(values):
            raise ParseError("observable.projectors: expected one matrix per outcome value")
        mats = [
            serialize.matrix_from_json(p, f"observable.projectors[{k}]")
            for k, p in enumerate(projectors)
        ]
        values = tuple(
            serialize.real_from_json(v, f"observable.values[{k}]") for k, v in enumerate(values)
        )
        return ObservablePVM(values, tuple(mats))
    raise ParseError("observable: expected preset 'pauli_z' or explicit 'values' + 'projectors'")


def coarse_grain_pvm(pvm: ObservablePVM, grouping: Mapping) -> ObservablePVM:
    """Merge outcomes into groups; each group's projector is the block sum.

    ``grouping`` maps every outcome value to a group label; labels become the
    outcome values of the returned PVM and must therefore be distinct real
    numbers.
    """
    uncovered = [f for f in pvm.outcomes if f not in grouping]
    if uncovered:
        raise UncoveredOutcome(f"grouping covers no outcome(s) {uncovered}")
    groups: dict = {}
    for f in pvm.outcomes:
        groups.setdefault(as_real(grouping[f], "group label"), []).append(f)
    projectors = [sum(pvm.projector(f) for f in members) for members in groups.values()]
    return ObservablePVM(tuple(groups), tuple(projectors))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_scenario(
    d: int,
    seed: int,
    *,
    pure: bool = False,
    outcome_groups: Sequence[int] | None = None,
) -> QuantumScenario:
    """Deterministic random test instance.

    The Hamiltonian is a GUE-style Hermitian matrix rescaled to operator norm
    1; the state is full rank (or pure); the PVM comes from the columns of a
    Haar-random unitary, optionally coarse-grained into blocks of sizes
    ``outcome_groups`` (which must sum to d).  ``d`` must be an integer >= 2
    and ``seed`` an integer >= 0, so that every instance can be drawn again.
    """
    if as_count(d, "random_scenario: d must be an integer") < 2:
        raise ValidationError([DomainMismatch(f"random_scenario: d must be >= 2, got {d}")])
    if as_count(seed, "random_scenario: seed must be an integer >= 0") < 0:
        raise ValidationError([DomainMismatch(f"random_scenario: seed must be an integer >= 0, got {seed!r}")])
    if outcome_groups is not None:
        sizes = tuple(as_count(s, "random_scenario: outcome_groups") for s in outcome_groups)
        if any(s < 1 for s in sizes) or sum(sizes) != d:
            raise ValidationError(
                [DomainMismatch(f"random_scenario: outcome_groups {sizes} must be positive and sum to {d}")]
            )
    rng = np.random.default_rng(seed)

    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    nrm = _spectral_norm(h)
    if nrm > 0:
        h = h * (1.0 / nrm)

    if pure:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        state = DensityOperator.pure(v)
    else:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        state = DensityOperator(m / np.trace(m).real)

    w = _haar_unitary(d, rng)
    if outcome_groups is None:
        projectors = [np.outer(w[:, k], w[:, k].conj()) for k in range(d)]
    else:  # the blocks of consecutive columns
        projectors = [w[:, b - s:b] @ w[:, b - s:b].conj().T for s, b in zip(sizes, np.cumsum(sizes))]
    return QuantumScenario(
        dimension=d,
        schedule=HamiltonianSchedule.from_static(h),
        state=state,
        pvm=ObservablePVM(tuple(map(float, range(len(projectors)))), tuple(projectors)),
    )
