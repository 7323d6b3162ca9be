"""Numerical kernel: the unitary DFT pair, circulant eigenvalues, the rank-K
compression of a matrix onto its dominant right singular subspace (one Gram
eigendecomposition; the dominant left singular vector is its K = 1 case),
ridge-regularized least squares, and the O(P L) Toeplitz forms of the
quadratic products of F_L.

DFT convention. The unitary matrix F[k, n] = exp(-2j*pi*k*n/P) / sqrt(P)
is used for all forward/inverse transforms (dft/idft), while the
eigenvalues of the circulant data matrix are the UNNORMALIZED DFT of its
first column. Under this pairing the frequency-domain model

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


def dft(a: np.ndarray) -> np.ndarray:
    """Forward unitary DFT along axis 0 (P = a.shape[0])."""
    a = np.asarray(a, dtype=complex)
    return np.fft.fft(a, axis=0) / np.sqrt(a.shape[0])


def idft(a: np.ndarray) -> np.ndarray:
    """Inverse unitary DFT along axis 0 (P = a.shape[0])."""
    a = np.asarray(a, dtype=complex)
    return np.fft.ifft(a, axis=0) * np.sqrt(a.shape[0])


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


def top_left_singular_vector(Yf: np.ndarray) -> np.ndarray:
    """Dominant left singular vector of Yf: the K = 1 case of
    compress_columns, normalized. Unit norm, unspecified global phase."""
    u = compress_columns(Yf, 1)[0][:, 0]
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


@lru_cache(maxsize=None)
def _toeplitz_tables(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables for L x L Hermitian Toeplitz matrices (read-only cache).

    gather[l, m] = l - m + L - 1 picks entry (l, m) from the stacked lags
    (conj(c_{L-1}), ..., conj(c_1), c_0, c_1, ..., c_{L-1}); row k of the
    0/1 matrix sums adds up the k-th lower diagonal of a flattened L x L
    matrix.
    """
    taps = np.arange(L)
    lag = taps[:, None] - taps[None, :]
    sums = (lag.ravel()[None, :] == taps[:, None]).astype(complex)
    gather = lag + L - 1
    gather.flags.writeable = False
    sums.flags.writeable = False
    return gather, sums


def dft_weighted_gram(w: np.ndarray, F_conj: np.ndarray, mu: float = 0.0) -> np.ndarray:
    """F_L^H diag(w) F_L + mu I for real weights w, in O(P L).

    F_conj is conj(dft_first_columns(P, L)), C-contiguous. Because F_L holds
    DFT columns, F_L^H diag(w) F_L is Hermitian Toeplitz with first column
    c_k = sum_p w_p exp(2j pi p k / P) / P = (w @ F_conj)_k / sqrt(P). That
    product is one real gemv of w against the float64 view of F_conj (each
    row interleaves the real and imaginary parts of its L entries), with no
    real-to-complex cast of w.
    """
    P, L = F_conj.shape
    c = (w @ F_conj.view(np.float64)).view(complex) / np.sqrt(P)
    c[0] += mu  # lag 0 is the diagonal
    return np.concatenate((c[:0:-1].conj(), c))[_toeplitz_tables(L)[0]]


def dft_row_energies(B: np.ndarray, F_L: np.ndarray) -> np.ndarray:
    """Squared row norms ||(F_L B)_p||^2 of F_L @ B, in O(P L) beyond B B^H.

    F_L is dft_first_columns(P, L), C-contiguous, and B has L rows. The p-th
    diagonal entry of F_L (B B^H) F_L^H is
    Re(sum_k d'_k exp(-2j pi p k / P)) / P, where d_k sums the k-th lower
    diagonal of B B^H and d' = (d_0, 2 d_1, ..., 2 d_{L-1}) folds in the
    conjugate upper diagonals. Only the real part is needed, and
    Re(F d') = Re(F) Re(d') - Im(F) Im(d') is one real gemv of the float64
    view of F_L against that of conj(d'). The rounding error scales with the
    mean row energy, not with each row's own, so a vanishing row can come out
    slightly negative.
    """
    P, L = F_L.shape
    d = _toeplitz_tables(L)[1] @ (B @ B.conj().T).ravel()
    d[1:] *= 2
    return (F_L.view(np.float64) @ d.conj().view(np.float64)) / np.sqrt(P)
