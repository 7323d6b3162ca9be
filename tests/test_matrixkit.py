import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfde.channel import convolve_channel, draw_channel, geometric_profile
from scfde.matrixkit import (
    circulant_eigenvalues,
    compress_columns,
    dft,
    dft_first_columns,
    dft_weighted_gram,
    idft,
    real_blocks,
    regularized_ls,
)


def unitary_dft_matrix(P):
    """Oracle construction, independent of the library's FFT path."""
    k = np.arange(P)
    return np.exp(-2j * np.pi * np.outer(k, k) / P) / np.sqrt(P)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def first_compressed_column(Yf, K):
    """The spectrum AM starts from: column 0 of the rank-K compression,
    normalized."""
    Yc = compress_columns(Yf, K)[0]
    return Yc[:, 0] / np.linalg.norm(Yc[:, 0])


def test_forward_inverse_round_trip():
    rng = np.random.default_rng(0)
    v = random_complex(rng, 33)
    assert np.linalg.norm(idft(dft(v)) - v) / np.linalg.norm(v) < 1e-10
    A = random_complex(rng, 33, 5)
    assert np.linalg.norm(dft(idft(A)) - A) / np.linalg.norm(A) < 1e-10


def test_parseval():
    rng = np.random.default_rng(1)
    v = random_complex(rng, 50)
    assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) < 1e-10


def test_dft_matches_oracle_matrix_along_axis_0():
    rng = np.random.default_rng(2)
    F = unitary_dft_matrix(12)
    A = random_complex(rng, 12, 3)
    assert np.allclose(dft(A), F @ A, rtol=0, atol=1e-12)
    assert np.allclose(idft(A), F.conj().T @ A, rtol=0, atol=1e-12)


@pytest.mark.parametrize("P", [256, 512, 1024])
@pytest.mark.parametrize("Nr", [None, 64])
def test_dft_pair_rescale_is_bit_equal_to_the_dividing_reference(P, Nr):
    # sqrt(512) is not exact, so P = 512 is where an inexact rescale shows
    rng = np.random.default_rng(P)
    a = random_complex(rng, P) if Nr is None else random_complex(rng, P, Nr)
    forward = np.fft.fft(a, axis=0) / np.sqrt(P)
    inverse = np.fft.ifft(a, axis=0) * np.sqrt(P)
    assert np.array_equal(dft(a).view(np.float64), forward.view(np.float64))
    assert np.array_equal(idft(a).view(np.float64), inverse.view(np.float64))


def test_idft_against_spectrum_oracle():
    # the inverse unitary DFT of the circulant eigenvalues is sqrt(P) x
    rng = np.random.default_rng(5)
    x = random_complex(rng, 32)
    out = idft(circulant_eigenvalues(x))
    assert np.allclose(out, np.sqrt(32) * x, rtol=1e-12, atol=1e-12)
    assert np.all(idft(np.zeros(16)) == 0)
    v = random_complex(rng, 16)
    assert abs(np.linalg.norm(idft(v)) - np.linalg.norm(v)) < 1e-12


def test_first_columns_orthonormal():
    F_L = dft_first_columns(32, 7)
    gram = F_L.conj().T @ F_L
    assert np.linalg.norm(gram - np.eye(7)) < 1e-10


def test_first_columns_matches_oracle_matrix():
    F = unitary_dft_matrix(16)
    assert np.allclose(dft_first_columns(16, 5), F[:, :5], rtol=0, atol=1e-13)


def test_circulant_eigenvalues_delta_is_flat():
    x = np.zeros(12)
    x[0] = 1.0
    assert np.allclose(circulant_eigenvalues(x), np.ones(12), rtol=0, atol=1e-13)


def test_circulant_eigenvalues_dc_only():
    ev = circulant_eigenvalues(np.ones(9))
    expected = np.zeros(9, dtype=complex)
    expected[0] = 9.0
    assert np.allclose(ev, expected, rtol=0, atol=1e-12)


def test_circulant_diagonalization_explicit_p8():
    # oracle: build the circulant with first column x and diagonalize by hand
    rng = np.random.default_rng(2)
    P = 8
    x = random_complex(rng, P)
    C = x[(np.arange(P)[:, None] - np.arange(P)[None, :]) % P]
    F = unitary_dft_matrix(P)
    D = F @ C @ F.conj().T
    off = D - np.diag(np.diag(D))
    assert np.linalg.norm(off) < 1e-12 * np.linalg.norm(D)
    assert np.allclose(np.diag(D), circulant_eigenvalues(x), rtol=1e-12, atol=1e-12)


def test_frequency_model_identity_noiseless():
    # the package-wide bedrock: Yf = diag(ev(x)) F_L H_L exactly without noise
    rng = np.random.default_rng(3)
    for P in (16, 64, 256):
        L = 4
        x = random_complex(rng, P)
        ch = draw_channel(geometric_profile(L), 3, rng)
        Yf = dft(convolve_channel(x, ch))
        model = circulant_eigenvalues(x)[:, None] * (dft_first_columns(P, L) @ ch)
        assert np.linalg.norm(Yf - model) / np.linalg.norm(Yf) < 1e-10


def test_first_compressed_column_rank_one():
    rng = np.random.default_rng(4)
    u0 = random_complex(rng, 10)
    u0 /= np.linalg.norm(u0)
    v0 = random_complex(rng, 3)
    u = first_compressed_column(np.outer(u0, v0.conj()), 3)
    assert abs(np.vdot(u, u0)) > 1 - 1e-8


def test_first_compressed_column_dominant_axis():
    Yf = np.zeros((8, 4), dtype=complex)
    Yf[0, 0] = 3.0
    Yf[1, 1] = 1.0
    u = first_compressed_column(Yf, 2)
    assert abs(u[0]) > 1 - 1e-9


def test_first_compressed_column_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        Yf = random_complex(rng, 8, 4)
        u = first_compressed_column(Yf, 3)
        u_svd = np.linalg.svd(Yf)[0][:, 0]
        assert abs(np.vdot(u, u_svd)) > 1 - 1e-6
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12


def test_first_compressed_column_invariant_under_column_permutation():
    rng = np.random.default_rng(6)
    Yf = random_complex(rng, 12, 6)
    u1 = first_compressed_column(Yf, 3)
    u2 = first_compressed_column(Yf[:, ::-1], 3)
    assert abs(np.vdot(u1, u2)) > 1 - 1e-9


def test_first_compressed_column_near_tied_spectrum_matches_svd():
    # singular values 1 and 1 - 1e-6: the eigendecomposition still resolves
    # the dominant direction
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    A = (rot(0.7) @ np.diag([1.0, 1.0 - 1e-6]) @ rot(0.3)).astype(complex)
    u = first_compressed_column(A, 2)
    assert u.shape == (2,)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert abs(np.vdot(u, np.linalg.svd(A)[0][:, 0])) > 1 - 1e-6


def test_first_compressed_column_wide_matrix_matches_svd():
    # P < Nr: the Nr x Nr Gram matrix is rank-deficient
    rng = np.random.default_rng(11)
    for _ in range(10):
        Yf = random_complex(rng, 4, 9)
        u = first_compressed_column(Yf, 9)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert abs(np.vdot(u, np.linalg.svd(Yf)[0][:, 0])) > 1 - 1e-9


def test_first_compressed_column_invariant_under_unitary_antenna_rotation():
    # Yf @ V with V the ascending eigenvectors of Yf^H Yf puts the weakest
    # direction in the first column; the dominant vector must not change
    rng = np.random.default_rng(12)
    Yf = random_complex(rng, 32, 6)
    V = np.linalg.eigh(Yf.conj().T @ Yf)[1]
    u1 = first_compressed_column(Yf, 6)
    u2 = first_compressed_column(Yf @ V, 6)
    assert abs(np.vdot(u1, u2)) > 1 - 1e-12


@pytest.mark.parametrize("P, Nr", [(40, 6), (5, 12)])
def test_compress_columns_first_column_does_not_depend_on_rank(P, Nr):
    # AM starts from column 0 of the rank-K compression it runs on, so that
    # column must be sigma_1 u_1 whatever K is, also for P < Nr
    rng = np.random.default_rng(14)
    for _ in range(10):
        Yf = random_complex(rng, P, Nr)
        first = compress_columns(Yf, 1)[0][:, 0]
        for K in (1, 3, Nr):
            assert np.allclose(compress_columns(Yf, K)[0][:, 0], first, rtol=0, atol=1e-12)


@pytest.mark.parametrize("P, Nr, K", [(40, 6, 3), (40, 6, 6), (4, 9, 1), (5, 12, 3)])
def test_compress_columns_matches_svd(P, Nr, K):
    # the columns of Yf V_K are sigma_k u_k, V_K is orthonormal, and the
    # first column is aligned with the dominant left singular vector, also
    # for P < Nr
    rng = np.random.default_rng(13)
    for _ in range(10):
        Yf = random_complex(rng, P, Nr)
        Yc, V_K = compress_columns(Yf, K)
        assert Yc.shape == (P, K) and V_K.shape == (Nr, K)
        assert np.allclose(V_K.conj().T @ V_K, np.eye(K), rtol=0, atol=1e-12)
        assert np.allclose(Yc, Yf @ V_K, rtol=0, atol=1e-12)
        U, sigma, _ = np.linalg.svd(Yf)
        assert np.allclose(np.linalg.norm(Yc, axis=0), sigma[:K], rtol=1e-10)
        u = Yc[:, 0] / np.linalg.norm(Yc[:, 0])
        assert abs(np.vdot(u, U[:, 0])) > 1 - 1e-6


def test_compress_columns_rejects_bad_rank():
    Yf = np.ones((8, 3), dtype=complex)
    for K in (0, 4):
        with pytest.raises(ValueError):
            compress_columns(Yf, K)
    with pytest.raises(ValueError, match="2-D"):  # one antenna's column, not a matrix
        compress_columns(Yf[:, 0], 1)


def test_compress_columns_rejects_zero_matrix():
    for K in (1, 2):
        with pytest.raises(ValueError):
            compress_columns(np.zeros((4, 2), dtype=complex), K)


def test_regularized_ls_projection_for_orthonormal_columns():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(random_complex(rng, 16, 3))
    Yf = random_complex(rng, 16, 4)
    H = regularized_ls(Q, Yf, 0.0)
    assert np.allclose(H, Q.conj().T @ Yf, rtol=1e-12, atol=1e-12)


def test_regularized_ls_matches_normal_equation_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        A = random_complex(rng, 16, 3)
        Yf = random_complex(rng, 16, 4)
        mu = 0.5
        H = regularized_ls(A, Yf, mu)
        gram = A.conj().T @ A + mu * np.eye(3)
        oracle = np.linalg.inv(gram) @ (A.conj().T @ Yf)
        assert np.linalg.norm(H - oracle) / np.linalg.norm(oracle) < 1e-10


def test_regularized_ls_unregularized_normal_equations_residual():
    rng = np.random.default_rng(9)
    A = random_complex(rng, 20, 4)
    Yf = random_complex(rng, 20, 3)
    H = regularized_ls(A, Yf, 0.0)
    residual = A.conj().T @ (Yf - A @ H)
    assert np.linalg.norm(residual) < 1e-9


def test_regularized_ls_dominated_by_large_mu():
    rng = np.random.default_rng(10)
    A = random_complex(rng, 16, 3)
    Yf = random_complex(rng, 16, 2)
    mu = 1e12
    H = regularized_ls(A, Yf, mu)
    assert np.linalg.norm(H) <= np.linalg.norm(A.conj().T @ Yf) / mu * (1 + 1e-9)


def test_regularized_ls_negative_mu_rejected():
    with pytest.raises(ValueError):
        regularized_ls(np.eye(3, dtype=complex), np.eye(3, dtype=complex), -0.1)


def test_dft_first_columns_bounds_checked():
    with pytest.raises(ValueError):
        dft_first_columns(8, 9)
    with pytest.raises(ValueError):
        dft_first_columns(8, 0)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 9),
    extra=st.integers(0, 80),
    mu=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_toeplitz_forms_match_dense_products(L, extra, mu, seed):
    P = L + extra
    rng = np.random.default_rng(seed)
    F_L = dft_first_columns(P, L)
    lam = random_complex(rng, P)
    A = lam[:, None] * F_L
    dense_gram = A.conj().T @ A + mu * np.eye(L)
    gram = dft_weighted_gram(np.abs(lam) ** 2, F_L, mu)
    assert np.linalg.norm(gram - dense_gram) <= 1e-12 * np.linalg.norm(dense_gram)
    # in F_L's own precision: complex64 columns and float32 weights, as AM's
    # single-precision steps pass them, give the same Gram in complex64
    gram32 = dft_weighted_gram((np.abs(lam) ** 2).astype(np.float32), F_L.astype(np.complex64), mu)
    assert gram32.dtype == np.complex64
    eps32 = float(np.finfo(np.float32).eps)
    assert np.linalg.norm(gram32 - dense_gram) <= 20 * eps32 * np.linalg.norm(dense_gram)


def test_real_blocks_of_one_entry():
    # c + jd becomes [[c, d], [-d, c]]: the row [a, b] of a + jb times it is
    # [ac - bd, ad + bc], the product's real and imaginary parts
    assert np.array_equal(real_blocks(np.array([[1.0 + 2.0j]])), [[1.0, 2.0], [-2.0, 1.0]])


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 300),
    k=st.integers(1, 12),
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_blocks_turn_a_complex_product_into_a_real_one(m, n, k, single, seed):
    # Z.view(real) @ real_blocks(B) == (Z @ B).view(real) to rounding, in B's
    # precision, and the blocks are 2n x 2k, C-contiguous and read-only
    rng = np.random.default_rng(seed)
    cplx, real = (np.complex64, np.float32) if single else (complex, np.float64)
    Z, B = random_complex(rng, m, n).astype(cplx), random_complex(rng, n, k).astype(cplx)
    R = real_blocks(B)
    assert R.shape == (2 * n, 2 * k) and R.dtype == real
    assert R.flags.c_contiguous and not R.flags.writeable
    with pytest.raises(ValueError):
        R[0, 0] = 0.0
    product = Z.view(real) @ R
    assert product.dtype == real
    exact = Z.astype(complex) @ B.astype(complex)
    eps = float(np.finfo(real).eps)
    bound = 4 * n * eps * np.linalg.norm(Z.astype(complex)) * np.linalg.norm(B.astype(complex))
    assert np.linalg.norm(product.view(cplx) - exact) <= bound
    assert np.linalg.norm(product.view(cplx) - Z @ B) <= bound
