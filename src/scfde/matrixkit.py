"""Numerical kernel: unitary DFT ops, circulant eigenvalues, dominant
singular vector (Gram eigendecomposition), and ridge-regularized least
squares.

DFT convention. The unitary matrix F[k, n] = exp(-2j*pi*k*n/P) / sqrt(P)
is used for all forward/inverse transforms, while the eigenvalues of the
circulant data matrix are the UNNORMALIZED DFT of its first column. Under
this pairing the frequency-domain model

    Yf = diag(circulant_eigenvalues(x)) @ F_L @ H_L

holds exactly for noiseless circular propagation, where Yf is the forward
unitary DFT of the received matrix and F_L holds the first L columns of F.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def dft_first_columns(P: int, L: int) -> np.ndarray:
    """First L columns of the P-point unitary DFT matrix (read-only cache)."""
    if not 1 <= L <= P:
        raise ValueError(f"need 1 <= L <= P, got L={L}, P={P}")
    k = np.arange(P)[:, None]
    n = np.arange(L)[None, :]
    F = np.exp(-2j * np.pi * k * n / P) / np.sqrt(P)
    F.flags.writeable = False
    return F


class DftOperator:
    """Forward/inverse unitary DFT on length-P vectors and P-row matrices."""

    def __init__(self, P: int):
        if P < 1:
            raise ValueError(f"transform size must be >= 1, got {P}")
        self.P = P
        self._root = np.sqrt(P)

    def forward(self, a: np.ndarray) -> np.ndarray:
        return np.fft.fft(np.asarray(a, dtype=complex), axis=0) / self._root

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return np.fft.ifft(np.asarray(a, dtype=complex), axis=0) * self._root

    def first_columns(self, L: int) -> np.ndarray:
        return dft_first_columns(self.P, L)


def circulant_eigenvalues(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant matrix whose first column is x, ordered
    by DFT bin: the unnormalized DFT of x."""
    return np.fft.fft(np.asarray(x, dtype=complex).ravel())


def top_left_singular_vector(Yf: np.ndarray) -> np.ndarray:
    """Dominant left singular vector of Yf from one Hermitian
    eigendecomposition of the smaller Gram matrix.

    With P >= Nr the top eigenvector v of the Nr x Nr matrix Yf^H Yf gives
    u = Yf v / ||Yf v||; with P < Nr, u is the top eigenvector of the P x P
    matrix Yf Yf^H directly. The result does not depend on how the columns
    of Yf are ordered or rotated (up to phase), has unit norm and an
    unspecified global phase.
    """
    Yf = np.asarray(Yf, dtype=complex)
    if Yf.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {Yf.shape}")
    if not np.any(Yf):
        raise ValueError("matrix is zero; no dominant singular vector")
    P, Nr = Yf.shape
    if P < Nr:
        return np.linalg.eigh(Yf @ Yf.conj().T)[1][:, -1]
    u = Yf @ np.linalg.eigh(Yf.conj().T @ Yf)[1][:, -1]
    return u / np.linalg.norm(u)


def regularized_ls(A: np.ndarray, Yf: np.ndarray, mu: float) -> np.ndarray:
    """Minimizer of ||Yf - A H||_F^2 + mu ||H||_F^2 via the L x L normal
    equations (A^H A + mu I) H = A^H Yf.

    With mu = 0 the system is solvable only for full-column-rank A;
    numpy raises LinAlgError on an exactly singular Gram matrix.
    """
    if mu < 0:
        raise ValueError(f"regularization must be >= 0, got {mu}")
    A = np.asarray(A, dtype=complex)
    A_h = A.conj().T
    gram = A_h @ A
    gram.flat[:: gram.shape[0] + 1] += mu
    return np.linalg.solve(gram, A_h @ Yf)
