"""Numerical kernel: the unitary DFT pair, circulant eigenvalues, the rank-K
compression of a matrix onto its dominant right singular subspace (one Gram
eigendecomposition; its column 0 is sigma_1 u_1, the dominant left singular
vector scaled by its singular value), ridge-regularized least squares, and
the O(P L) Hermitian Toeplitz form of the weighted Gram F_L^H diag(w) F_L.

DFT convention. The unitary matrix F[k, n] = exp(-2j*pi*k*n/P) / sqrt(P)
is used for all forward/inverse transforms (dft/idft), while the
eigenvalues of the circulant data matrix are the UNNORMALIZED DFT of its
first column. Under this pairing the frequency-domain model

    Yf = diag(circulant_eigenvalues(x)) @ F_L @ H_L

holds exactly for noiseless circular propagation, where Yf is the forward
unitary DFT of the received matrix and F_L holds the first L columns of F.
"""

from __future__ import annotations

import math
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


def dft(a: np.ndarray) -> np.ndarray:
    """Forward unitary DFT along axis 0 (P = a.shape[0])."""
    a = np.asarray(a, dtype=complex)
    out = np.fft.fft(a, axis=0)
    # numpy runs complex / real through its complex-division loop, which
    # computes the same 1/sqrt(P) product at several times the cost
    out *= 1.0 / math.sqrt(a.shape[0])
    return out


def idft(a: np.ndarray) -> np.ndarray:
    """Inverse unitary DFT along axis 0 (P = a.shape[0])."""
    a = np.asarray(a, dtype=complex)
    out = np.fft.ifft(a, axis=0)
    out *= math.sqrt(a.shape[0])  # norm="ortho" would round differently at P = 512
    return out


def circulant_eigenvalues(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant matrix whose first column is x, ordered
    by DFT bin: the unnormalized DFT of x."""
    return np.fft.fft(np.asarray(x, dtype=complex).ravel())


def compress_columns(Yf: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-K compression of Yf onto its dominant right singular subspace.

    Returns (Yf @ V_K, V_K), where the Nr x K matrix V_K holds the top-K
    eigenvectors of the Gram matrix Yf^H Yf (one Hermitian
    eigendecomposition) in descending order, so column k of Yf @ V_K is
    sigma_k u_k, the k-th left singular vector scaled by its singular value.
    The columns of V_K are orthonormal, also when P < Nr, and the subspace
    does not depend on how the columns of Yf are ordered or rotated. Raises
    ValueError for a zero matrix or K outside 1..Nr.
    """
    Yf = np.asarray(Yf, dtype=complex)
    if Yf.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {Yf.shape}")
    if not 1 <= K <= Yf.shape[1]:
        raise ValueError(f"need 1 <= K <= {Yf.shape[1]}, got K={K}")
    if not np.any(Yf):
        raise ValueError("matrix is zero; no dominant singular subspace")
    V_K = np.linalg.eigh(Yf.conj().T @ Yf)[1][:, : -K - 1 : -1]
    return Yf @ V_K, V_K


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


@lru_cache(maxsize=None)
def _toeplitz_gather(L: int) -> np.ndarray:
    """Index table of L x L Hermitian Toeplitz matrices (read-only cache):
    gather[l, m] = l - m + L - 1 picks entry (l, m) from the stacked lags
    (conj(c_{L-1}), ..., conj(c_1), c_0, c_1, ..., c_{L-1}).
    """
    taps = np.arange(L)
    gather = taps[:, None] - taps[None, :] + L - 1
    gather.flags.writeable = False
    return gather


def dft_weighted_gram(w: np.ndarray, F_L: np.ndarray, mu: float = 0.0) -> np.ndarray:
    """F_L^H diag(w) F_L + mu I for real weights w, in O(P L).

    F_L is dft_first_columns(P, L), C-contiguous. Because F_L holds DFT
    columns, F_L^H diag(w) F_L is Hermitian Toeplitz with first column
    c_k = sum_p w_p exp(2j pi p k / P) / P = conj(w @ F_L)_k / sqrt(P), the
    conjugate because w is real. That product is one real gemv of w against
    the real view of F_L (each row interleaves the real and imaginary parts
    of its L entries), with no real-to-complex cast of w. The view takes
    F_L's own precision, so a complex64 F_L with float32 weights gives a
    complex64 Gram.
    """
    P, L = F_L.shape
    # math.sqrt: a numpy scalar sqrt per call would cost more than the conj
    c = (w @ F_L.view(F_L.real.dtype)).view(F_L.dtype).conj() / math.sqrt(P)
    c[0] += mu  # lag 0 is the diagonal
    return np.concatenate((c[:0:-1].conj(), c))[_toeplitz_gather(L)]

