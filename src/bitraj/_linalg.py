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


def expm_from_eigh(eig: tuple, scale: complex) -> np.ndarray:
    """``exp(scale * H)`` from ``eig = np.linalg.eigh(H)``, reusable across scales."""
    evals, evecs = eig
    return (evecs * np.exp(scale * evals)) @ dagger(evecs)
