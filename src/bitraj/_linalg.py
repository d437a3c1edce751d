"""Small shared linear-algebra helpers.

Vectorization convention (used everywhere in the package): column stacking,
``vec(A)[j*d + i] = A[i, j]``.  The superoperator of the two-sided product
``A -> X A Y`` is then ``kron(Y^T, X)``.
"""

from __future__ import annotations

import numpy as np


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a).T.reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for square ``dim`` x ``dim`` matrices."""
    return np.asarray(v).reshape(dim, dim).T


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """``exp(scale * H)`` for Hermitian ``H`` via eigendecomposition."""
    return expm_from_eigh(np.linalg.eigh(h), scale)


def expm_from_eigh(eig: tuple, scale) -> np.ndarray:
    """``exp(scale * H)`` from ``eig = np.linalg.eigh(H)``, reusable across scales.

    A stack of H, diagonalised in one call, takes one scale per matrix or one
    for all; every exponential is bitwise the one of its matrix alone.
    """
    evals, evecs = eig
    if evals.ndim == 1:
        phases = np.exp(scale * evals)
    else:
        phases = np.exp(np.asarray(scale)[..., None] * evals)[:, None, :]
    return (evecs * phases) @ evecs.conj().swapaxes(-1, -2)
