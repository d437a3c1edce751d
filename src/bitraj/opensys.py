"""Open-system dynamical maps as bi-trajectory averages.

A system coupled to the probed observable of an environment evolves, after
tracing the environment out, by a map expressible as a sum over pairs of
classical environment trajectories: each pair carries a forward and a
backward system phase weighted by the environment's bi-probability.  Here
trajectories are discretized as piecewise-constant on a uniform grid (value
f_j on [t_{j-1}, t_j), measured at the right endpoint), and the discretized
map is validated against exact joint evolution.

The sum over trajectory pairs factorises: with A_f the system step for
environment value f and T_j = sum_f A_f kron P_{t_j}(f), the whole map is
A -> tr_E[V (A kron rho_E) V^dagger] with V = T_n ... T_1.  As
P_{t_j}(f) = U_j^dagger P(f) U_j, V is (1 kron U_n^dagger), which the trace
drops, times the ordered product of G (1 kron dU_j), with the fixed
G = sum_f A_f kron P(f) and dU_j = U(t_j, t_{j-1}).  The steps inside one
environment segment share dU, so each run of them is one matrix power, one
stacked call per run length in a byte-bounded batch, folded into V in order.
The exact map has V the joint propagator, built one segment at a time.  Neither
forms a D^2 x D^2 superoperator: the working memory, a few D x D arrays, a
batch and the d_o^2 x d_o^2 reduced map twice while it is reordered, counts
against the working-memory budget before any of it exists; the enumerate
method counts its trajectory table from the PVM sizes, before any grid.

Superoperators use column stacking throughout: vec(X A Y) = (Y^T kron X) vec(A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from . import serialize
from ._linalg import dagger, expm_hermitian, kron, vec, unvec
from .biprob import _check_table, check_budget, full_distribution
from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    DomainMismatch,
    NotUnitary,
    ParseError,
    ValidationError,
)
from .model import (
    QuantumScenario,
    TimeGrid,
    _per_chunk,
    check_hermitian,
    validate_scenario,
)
from .propagate import _kept_memo_bytes, _walk_bytes, propagator, uniform_step_runs
from .serialize import as_array, as_count, as_operator, as_real


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on operators, stored as a matrix on column-stacked vecs."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = np.array(as_array(self.matrix, "superoperator matrix"))  # a copy, frozen below
        object.__setattr__(self, "dim", as_count(self.dim, "superoperator dimension"))
        if self.dim < 1:
            raise ValidationError([DimensionMismatch(f"superoperator dimension must be >= 1, got {self.dim}")])
        d2 = self.dim * self.dim
        if m.shape != (d2, d2):
            raise DimensionMismatch(
                f"superoperator for dimension {self.dim} must be {d2}x{d2}, got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        dim = as_count(dim, "superoperator dimension")
        return cls(np.eye(dim * dim, dtype=complex), dim)

    @classmethod
    def from_sandwich(cls, x: np.ndarray, y: np.ndarray) -> "Superoperator":
        """The map A -> X A Y."""
        x, y = as_array(x, "sandwich: x"), as_array(y, "sandwich: y")
        if x.ndim != 2 or y.ndim != 2:
            raise DimensionMismatch(f"sandwich: X and Y must be matrices, got shapes {x.shape}, {y.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # an inf entry times a zero is NaN, as in np.kron
            return cls(kron(y.T, x), len(x))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_array(rho, "apply: rho")
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"apply: rho must be {self.dim}x{self.dim}, got shape {rho.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # an inf entry times a zero is NaN
            return unvec(self.matrix @ vec(rho), self.dim)

    def trace_preservation_defect(self) -> float:
        """Norm of the identity-costate condition residual."""
        ident = vec(np.eye(self.dim, dtype=complex))
        return float(np.linalg.norm(dagger(self.matrix) @ ident - ident))

    def distance(self, other: "Superoperator") -> float:
        """Operator-norm (largest singular value) distance."""
        return float(np.linalg.norm(self.matrix - other.matrix, 2))


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij |i><j| kron S(|i><j|); PSD iff the map is CP.

    Entry (id + a, jd + b) is S(|i><j|)[a, b] = s.matrix[bd + a, jd + i].
    """
    d = s.dim
    return s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


@dataclass(frozen=True, eq=False)
class OpenModel:
    """System (H_O, V_O, coupling) attached to a probed environment scenario.

    The joint generator is H_O kron 1 + 1 kron H(t) + coupling * V_O kron F,
    with F = sum_f f P(f) built from the environment's PVM.
    """

    h_sys: np.ndarray
    v_sys: np.ndarray
    coupling: float
    environment: QuantumScenario

    def __post_init__(self):
        h = as_operator(self.h_sys, "h_o")
        v = as_operator(self.v_sys, "v_o")
        if h.shape[0] != h.shape[1]:
            raise ValidationError([DimensionMismatch(f"h_o: expected square matrix, got {h.shape}")])
        violations = check_hermitian(h, "h_o")
        if v.shape != h.shape:
            violations.append(DimensionMismatch(f"v_o: shape {v.shape} != h_o shape {h.shape}"))
        else:
            violations += check_hermitian(v, "v_o")
        lam = as_real(self.coupling, "lambda")
        if not math.isfinite(lam):
            violations.append(DomainMismatch(f"lambda: must be finite, got {lam}"))
        violations += check_hermitian(self.coupling_operator, "coupling observable F")
        if violations:
            raise ValidationError(violations)
        h.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "h_sys", h)
        object.__setattr__(self, "v_sys", v)
        object.__setattr__(self, "coupling", lam)

    @property
    def system_dim(self) -> int:
        return self.h_sys.shape[0]

    @property
    def joint_dim(self) -> int:
        return self.system_dim * self.environment.dimension

    @property
    def coupling_operator(self) -> np.ndarray:
        pvm = self.environment.pvm
        return sum(f * p for f, p in zip(pvm.outcomes, pvm.projectors))

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "OpenModel":
        if "system" not in cfg:
            raise ParseError("open-system model: missing 'system' block")
        sys_cfg = cfg["system"]
        if not isinstance(sys_cfg, Mapping):
            raise ParseError("open-system model: 'system' must be a mapping")
        for key in ("h_o", "v_o", "lambda"):
            if key not in sys_cfg:
                raise ParseError(f"open-system model: system block missing '{key}'")
        env_cfg = {k: v for k, v in cfg.items() if k != "system"}
        environment = validate_scenario(env_cfg)
        return cls(
            h_sys=serialize.matrix_from_json(sys_cfg["h_o"], "system.h_o"),
            v_sys=serialize.matrix_from_json(sys_cfg["v_o"], "system.v_o"),
            coupling=serialize.real_from_json(sys_cfg["lambda"], "system.lambda"),
            environment=environment,
        )


def _system_step_stack(model: OpenModel, dt: float) -> np.ndarray:
    """exp(-i dt (H_O + lambda f V_O)) for every environment outcome f."""
    return np.stack(
        [
            expm_hermitian(model.h_sys + model.coupling * f * model.v_sys, -1j * dt)
            for f in model.environment.pvm.outcomes
        ]
    )


def bitrajectory_map(
    model: OpenModel,
    t: float,
    n_steps: int,
    method: str = "contract",
) -> Superoperator:
    """Discretized bi-trajectory average of the reduced dynamics up to t.

    Trajectory pairs are piecewise constant on the uniform n_steps grid and
    weighted by the environment bi-probability at the grid times; the system
    factors are the ordered step exponentials.  ``method`` "enumerate"
    materializes the trajectory table (within the memory budget) and is
    kept as an independent oracle; "contract" evaluates the identical sum as
    V = T_n ... T_1 in the module's step-run form (interior steps use dt = t/n,
    a step across segment edges is a run of its own), then the partial trace
    of V (A kron rho_E) V^dagger, at any step count; its peak, V with G and a
    batch of runs with matrix_power's temporaries, or the reduced map, counts
    against the budget.
    At t = 0 every method gives the identity map, as the exact evolution does.
    """
    n_steps = as_count(n_steps, "n_steps")
    if n_steps < 1:
        raise DomainMismatch(f"n_steps must be >= 1, got {n_steps}")
    if method not in ("contract", "enumerate"):
        raise DomainMismatch(f"unknown method {method!r}")
    t = as_real(t, "time")
    if t == 0.0:
        return Superoperator.identity(model.system_dim)
    if method == "enumerate":
        return _bitrajectory_map_enumerate(model, t, n_steps)
    return _bitrajectory_map_contract(model, t, n_steps)


def _bitrajectory_map_enumerate(model: OpenModel, t: float, n_steps: int) -> Superoperator:
    k = model.environment.pvm.size
    _check_table((k,) * n_steps, model.environment.dimension)  # before the grid is built
    # t * (j / n) rather than t * j / n: the last point is then exactly t,
    # never one ulp past a horizon equal to t
    grid = TimeGrid(tuple(t * (j / n_steps) for j in range(1, n_steps + 1)))
    dist = full_distribution(model.environment, grid)
    big_k = k ** n_steps
    q = dist.table.reshape(big_k, big_k)

    steps = _system_step_stack(model, t / n_steps)
    d_o = model.system_dim
    x = np.eye(d_o, dtype=complex)[None, :, :]
    for _ in range(n_steps):
        # append less-significant (earlier) slots on the right of the product
        x = np.einsum("pab,fbc->pfac", x, steps)
        x = x.reshape(-1, d_o, d_o)
    s = np.einsum("pm,mcd,pab->cadb", q, x.conj(), x, optimize=True)
    return Superoperator(s.reshape(d_o * d_o, d_o * d_o), d_o)


def _reduction_bytes(d_o: int, d_e: int) -> int:
    # V beside three D x D arrays (its transposed copies), then beside two of
    # them and the d_o^2 x d_o^2 product, then beside two reduced maps
    d2 = (d_o * d_e) ** 2
    return 16 * (d2 + max(3 * d2, 2 * d2 + d_o**4, 2 * d_o**4))


def _contract_bytes(model: OpenModel, n_steps: int) -> int:
    # G, V and a batch of steps beside matrix_power's base (the steps or a copied part),
    # square, result and next square, 1 + 5 per_batch D x D at most, with the walk and its
    # batch of five stacks (G's making holds less), or the reduction; either beside the memo.
    # A batch holds at most one run per step.
    d_o, d_e, env = model.system_dim, model.environment.dimension, model.environment
    per_batch = min(_per_chunk(model.joint_dim), n_steps)
    walk = _walk_bytes(d_e, len(env.schedule.segments)) + 16 * per_batch * (5 * d_e * d_e + d_e)
    steps = 16 * (1 + 5 * per_batch) * model.joint_dim**2 + walk
    return _kept_memo_bytes(env.schedule) + max(steps, _reduction_bytes(d_o, d_e))


def _exact_bytes(model: OpenModel) -> int:
    # the joint walk, whose generator is built beside it, or the reduction
    env = model.environment
    walk = _walk_bytes(model.joint_dim, len(env.schedule.segments))
    return max(walk, _reduction_bytes(model.system_dim, env.dimension))


def _bitrajectory_map_contract(model: OpenModel, t: float, n_steps: int) -> Superoperator:
    check_budget(_contract_bytes(model, n_steps), "contract map")
    env = model.environment
    d, d_e = model.joint_dim, env.dimension
    # V up to the environment unitary the trace drops; G = sum_f kron(A_f, P(f)), and
    # G (1 kron dU) is G's environment columns times dU, a batch at once
    g = sum(kron(a, p) for a, p in zip(_system_step_stack(model, t / n_steps), env.pvm.projectors))
    v = np.eye(d, dtype=complex)
    for dus, ms in uniform_step_runs(env.schedule, t, n_steps, _per_chunk(d)):
        x = (g.reshape(-1, d_e) @ dus).reshape(-1, d, d)
        for m in set(ms) - {1}:  # one matrix_power per run length, on the stack of its runs
            runs = [i for i, r in enumerate(ms) if r == m]
            x[runs] = np.linalg.matrix_power(x if len(runs) == len(ms) else x[runs], m)
        for p in x:  # folded run by run, earliest first
            v = p @ v
    if not np.isfinite(v).all():  # only an overflowing segment, whose steps are NaN, makes V so
        raise ValidationError([NotUnitary(f"contract map on [0, {t}]: the step product is not finite")])
    del g, dus, x, p  # the last batch, before the reduction
    return _reduce_to_system(v, model.system_dim, d_e, env.state.matrix)


def _reduce_to_system(v: np.ndarray, d_o: int, d_e: int, rho_env: np.ndarray) -> Superoperator:
    """The map A -> tr_env[V (A kron rho_env) V^dagger] of a joint operator V.

    Its entry at output (a, c), input (b, d) is
    sum_{i,j,l} V[ai, bj] rho_env[j, l] conj(V[ci, dl]): one product with
    rho_env, then one (d_o^2 x d_e^2) by (d_e^2 x d_o^2) product over the
    (d_o, d_e, d_o, d_e) view of V.
    """
    d2 = d_o * d_o
    x = (v.reshape(-1, d_e) @ rho_env).reshape(d_o, d_e, d_o, d_e)
    x = x.transpose(0, 2, 1, 3).reshape(d2, d_e * d_e)
    y = v.conj().reshape(d_o, d_e, d_o, d_e).transpose(0, 2, 1, 3).reshape(d2, d_e * d_e)
    m = (x @ y.T).reshape(d_o, d_o, d_o, d_o)  # axes (a, b, c, d)
    del x, y
    m = m.transpose(2, 0, 3, 1).reshape(d2, d2)  # frees the product before the map copies m
    return Superoperator(m, d_o)


def _joint_schedule(model: OpenModel) -> SimpleNamespace:
    """Joint generators for :func:`propagator`, each built as the walk enters its segment.

    Unlike a HamiltonianSchedule, it holds one and checks none: each is Hermitian.
    """
    env = model.environment
    eye_o = np.eye(model.system_dim, dtype=complex)
    h_o = np.kron(model.h_sys, np.eye(env.dimension, dtype=complex))
    coupling = model.coupling * np.kron(model.v_sys, model.coupling_operator)
    segments = ((a, b, h_o + np.kron(eye_o, h) + coupling) for a, b, h in env.schedule.segments)
    return SimpleNamespace(dimension=model.joint_dim, horizon=env.horizon, segments=segments)


def exact_joint_map(model: OpenModel, t: float) -> Superoperator:
    """Reference map: joint unitary evolution followed by the partial trace."""
    check_budget(_exact_bytes(model), "exact map")
    u = propagator(_joint_schedule(model), 0.0, t).matrix
    env = model.environment
    return _reduce_to_system(u, model.system_dim, env.dimension, env.state.matrix)


@dataclass(frozen=True)
class ConvergencePoint:
    n_steps: int
    error: float


def convergence_study(
    model: OpenModel,
    t: float,
    steps: Sequence[int],
) -> list:
    """Distance of the discretized map to the exact one per step count.

    The table is reported as computed; per-row monotonicity is an empirical
    observation, not a contract.
    """
    steps = [as_count(n, "step count") for n in steps]
    if any(b <= a for a, b in zip(steps[:-1], steps[1:])):
        raise DegenerateInterval(f"step counts must be ascending, got {steps}")
    # the exact map stays live beside each discretized map, then both beside
    # their difference and the SVD's copy of it, beside the memo the first map fills
    d4 = 16 * model.system_dim**4
    memo = _kept_memo_bytes(model.environment.schedule)
    contract = _contract_bytes(model, steps[-1]) if steps else 0  # the largest step count holds the most
    check_budget(max(_exact_bytes(model), d4 + contract, 4 * d4 + memo), "convergence study")
    exact = exact_joint_map(model, t)
    out = []
    for n in steps:
        error = bitrajectory_map(model, t, n).distance(exact)
        out.append(ConvergencePoint(n_steps=n, error=error))
    return out
