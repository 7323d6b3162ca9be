import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfde.channel import (
    complex_noise,
    convolve_channel,
    draw_channel,
    frequency_response,
    geometric_profile,
    receive_spectrum,
    snr_db_to_noise_variance,
)
from scfde.matrixkit import dft, dft_first_columns, idft


def direct_circular_convolution(x, h):
    """Oracle: y[n] = sum_l h[l] x[(n - l) mod P], written as the plain sum."""
    P = len(x)
    y = np.zeros(P, dtype=complex)
    for n in range(P):
        for l in range(len(h)):
            y[n] += h[l] * x[(n - l) % P]
    return y


def test_pdp_validation():
    with pytest.raises(ValueError):
        geometric_profile(0, 0.5)
    for ratio in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            geometric_profile(4, ratio)
    with pytest.raises(ValueError):
        draw_channel(np.array([1.5, -0.5]), 2, np.random.default_rng(0))


def test_geometric_profile_values():
    p = geometric_profile(3, 0.5)
    assert np.allclose(p, np.array([4, 2, 1]) / 7.0, rtol=0, atol=1e-15)
    assert geometric_profile(9, 0.5).size == 9
    for ratio in (0.3, 0.5, 1.0):
        p = geometric_profile(9, ratio)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(p) <= 0)


def test_single_tap_energy_monte_carlo():
    rng = np.random.default_rng(0)
    pdp = np.array([1.0])
    draws = draw_channel(pdp, 100_000, rng)
    mean_energy = np.mean(np.abs(draws) ** 2)
    assert abs(mean_energy - 1.0) < 0.02


def test_multitap_energy_monte_carlo():
    rng = np.random.default_rng(1)
    pdp = geometric_profile(5, 0.5)
    taps = draw_channel(pdp, 50_000, rng)
    assert abs(np.mean(np.sum(np.abs(taps) ** 2, axis=0)) - 1.0) < 0.02


def test_draw_channel_seed_determinism():
    pdp = geometric_profile(4, 0.5)
    a = draw_channel(pdp, 8, np.random.default_rng(42))
    b = draw_channel(pdp, 8, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_zero_power_taps_are_exactly_zero():
    pdp = np.array([1.0, 0.0, 0.0])
    taps = draw_channel(pdp, 16, np.random.default_rng(3))
    assert np.all(taps[1:] == 0)
    assert np.all(taps[0] != 0)


def test_identity_channel_passes_signal_through():
    ch = np.ones((1, 1), dtype=complex)
    x = np.arange(1, 9, dtype=complex)
    Y = convolve_channel(x, ch) + complex_noise((8, 1), 0.0, np.random.default_rng(0))
    assert np.allclose(Y[:, 0], x, rtol=0, atol=1e-12)


def test_impulse_input_exposes_taps():
    a, b = 0.8 - 0.2j, 0.3 + 0.1j
    ch = np.array([[a], [b]])
    x = np.array([1, 0, 0, 0], dtype=complex)
    Y = convolve_channel(x, ch)
    oracle = direct_circular_convolution(x, [a, b])
    assert np.allclose(Y[:, 0], oracle, rtol=0, atol=1e-14)
    assert np.allclose(Y[:, 0], [a, b, 0, 0], rtol=0, atol=1e-14)


def test_convolution_matches_direct_sum_oracle():
    rng = np.random.default_rng(9)
    for P in (4, 8, 17, 32):
        x = rng.standard_normal(P) + 1j * rng.standard_normal(P)
        ch = draw_channel(geometric_profile(3, 0.5), 2, rng)
        Y = convolve_channel(x, ch)
        for r in range(2):
            oracle = direct_circular_convolution(x, ch[:, r])
            assert np.allclose(Y[:, r], oracle, rtol=1e-12, atol=1e-12)


def test_noise_variance_calibration():
    rng = np.random.default_rng(17)
    ch = np.ones((1, 10), dtype=complex)
    x = np.ones(10_000, dtype=complex)
    sigma2 = 0.37
    Y = convolve_channel(x, ch) + complex_noise((10_000, 10), sigma2, rng)
    noise = Y - convolve_channel(x, ch)
    measured = np.mean(np.abs(noise) ** 2)
    assert abs(measured - sigma2) / sigma2 < 0.02


def test_snr_convention():
    assert snr_db_to_noise_variance(0.0) == pytest.approx(1.0)
    assert snr_db_to_noise_variance(10.0) == pytest.approx(0.1)
    assert snr_db_to_noise_variance(-3.0) == pytest.approx(10 ** 0.3)


def test_circular_convolution_theorem_machine_precision():
    rng = np.random.default_rng(23)
    P = 64
    x = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    ch = draw_channel(geometric_profile(6, 0.5), 3, rng)
    Y = convolve_channel(x, ch)
    Xf = np.fft.fft(x)
    for r in range(3):
        lhs = np.fft.fft(Y[:, r])
        rhs = Xf * np.fft.fft(ch[:, r], n=P)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-13


def test_noiseless_linearity():
    rng = np.random.default_rng(29)
    ch = draw_channel(geometric_profile(4, 0.5), 2, rng)
    x1 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    x2 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lhs = convolve_channel(x1 + x2, ch)
    rhs = convolve_channel(x1, ch) + convolve_channel(x2, ch)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_channel_longer_than_frame_rejected():
    ch = draw_channel(geometric_profile(5, 0.5), 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        convolve_channel(np.ones(4, dtype=complex), ch)


def test_antenna_count_validated():
    with pytest.raises(ValueError):
        draw_channel(geometric_profile(2, 0.5), 0, np.random.default_rng(0))


def test_complex_noise_matches_two_block_reference():
    # real parts take the first block of draws, imaginary parts the second
    shape = (37, 5)
    w = complex_noise(shape, 0.37, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    ref = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.37 / 2.0)
    assert np.array_equal(w, ref)


def test_frequency_response_is_unnormalized_tap_dft():
    ch = draw_channel(geometric_profile(5, 0.5), 3, np.random.default_rng(37))
    Hf = frequency_response(ch, 24)
    assert np.allclose(Hf, np.fft.fft(ch, n=24, axis=0), rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        frequency_response(ch, 4)


def test_front_end_is_bit_equal_to_the_out_of_place_reference():
    rng = np.random.default_rng(41)
    P, Nr, L = 512, 64, 9
    taps = draw_channel(geometric_profile(L, 0.5), Nr, rng)
    Hf = frequency_response(taps, P)
    reference = np.sqrt(P) * (dft_first_columns(P, L) @ taps)
    assert np.array_equal(Hf.view(np.float64), reference.view(np.float64))
    Xf = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    Nf = dft(complex_noise((P, Nr), 0.2, rng))
    Yf = receive_spectrum(Xf, Hf, Nf)
    reference = Xf[:, None] * Hf + Nf
    assert np.array_equal(Yf.view(np.float64), reference.view(np.float64))


def relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=60, deadline=None)
@given(
    P=st.integers(2, 96),
    Nr=st.integers(1, 6),
    L=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_receive_spectrum_matches_time_domain_reference(P, Nr, L, seed):
    L = min(L, P)
    rng = np.random.default_rng(seed)
    ch = draw_channel(geometric_profile(L, 0.5), Nr, rng)
    noise = complex_noise((P, Nr), 0.2, rng)
    Hf, Nf = frequency_response(ch, P), dft(noise)

    # single-carrier block: the receiver sees the DFT of its time samples
    x = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    reference = dft(convolve_channel(x, ch) + noise)
    assert relative_error(receive_spectrum(dft(x), Hf, Nf), reference) < 1e-12

    # OFDM block: the symbols are the spectrum of the transmitted samples
    Xf = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    reference = dft(convolve_channel(idft(Xf), ch) + noise)
    assert relative_error(receive_spectrum(Xf, Hf, Nf), reference) < 1e-12
