import numpy as np
import pytest

from scfde.baseline_rx import (
    OfdmPilotConfig,
    estimate_channel,
    mrc_combine,
    ofdm_mrc_receive,
    ofdm_transmit,
)
from scfde.channel import (
    complex_noise,
    convolve_channel,
    draw_channel,
    frequency_response,
    geometric_profile,
    receive_spectrum,
    snr_db_to_noise_variance,
)
from scfde.constellation import qam_demodulate
from scfde.matrixkit import dft, idft


def transmit_through(Xf, ch, noise_var=0.0, rng=None):
    y = convolve_channel(idft(Xf), ch)
    if noise_var:
        y = y + complex_noise(y.shape, noise_var, rng)
    return dft(y)


def test_ten_percent_of_ten_bins_is_one_pilot():
    cfg = OfdmPilotConfig(P=10, M=4, L_trunc=1)
    assert cfg.n_pilots == 1
    assert np.array_equal(cfg.pilot_indices, [0])


def test_index_sets_are_complementary():
    cfg = OfdmPilotConfig(P=64, M=16, L_trunc=4)
    pilots = set(cfg.pilot_indices.tolist())
    data = set(cfg.data_indices.tolist())
    assert pilots.isdisjoint(data)
    assert pilots | data == set(range(64))
    assert np.all(np.diff(cfg.pilot_indices) > 0)


def test_uniform_grid_when_pilot_count_divides_p():
    cfg = OfdmPilotConfig(P=160, M=64, L_trunc=5)
    assert cfg.n_pilots == 16
    assert np.all(np.diff(cfg.pilot_indices) == 10)


def test_flat_channel_noiseless_decodes_clean():
    rng = np.random.default_rng(0)
    cfg = OfdmPilotConfig(P=32, M=16, L_trunc=1)
    bits = rng.integers(0, 2, cfg.payload_bits)
    Xf = ofdm_transmit(bits, cfg)
    ch = np.ones((1, 3), dtype=complex)
    Yf = transmit_through(Xf, ch)
    decided = ofdm_mrc_receive(Yf, cfg)
    assert np.array_equal(decided, bits)
    assert np.allclose(estimate_channel(Yf, cfg), 1.0, rtol=0, atol=1e-12)
    # pilots recoverable directly at the pilot bins
    assert np.allclose(Yf[cfg.pilot_indices, 0], cfg.pilot_symbol, rtol=0, atol=1e-12)


def test_interpolation_exact_for_short_channel_on_uniform_grid():
    # oracle: the true per-bin response computed straight from the taps
    rng = np.random.default_rng(1)
    cfg = OfdmPilotConfig(P=16, M=4, L_trunc=2)
    assert cfg.n_pilots == 2
    bits = rng.integers(0, 2, cfg.payload_bits)
    Xf = ofdm_transmit(bits, cfg)
    taps = np.array([[0.9 - 0.3j], [0.2 + 0.4j]])
    ch = taps
    Yf = transmit_through(Xf, ch)
    H_est = estimate_channel(Yf, cfg)
    H_true = np.fft.fft(taps, n=16, axis=0)
    assert np.allclose(H_est, H_true, rtol=0, atol=1e-9)


def test_genie_channel_mrc_is_exact():
    rng = np.random.default_rng(2)
    cfg = OfdmPilotConfig(P=64, M=64, L_trunc=4)
    bits = rng.integers(0, 2, cfg.payload_bits)
    Xf = ofdm_transmit(bits, cfg)
    ch = draw_channel(geometric_profile(4), 6, rng)
    Yf = transmit_through(Xf, ch)
    H_true = np.fft.fft(ch, n=64, axis=0)
    X_hat = mrc_combine(Yf, H_true)
    assert np.allclose(X_hat, Xf, rtol=1e-10, atol=1e-12)


def test_high_snr_million_bits_error_free():
    # uniform pilot grid (32 | 320) and L_trunc >= L: estimation is exact up
    # to 40 dB noise, so a million bits must come through clean
    rng = np.random.default_rng(3)
    cfg = OfdmPilotConfig(P=320, M=64, L_trunc=5)
    noise_var = snr_db_to_noise_variance(40.0)
    pdp = geometric_profile(5)
    bits_seen = errors = 0
    while bits_seen < 1_000_000:
        bits = rng.integers(0, 2, cfg.payload_bits)
        Xf = ofdm_transmit(bits, cfg)
        ch = draw_channel(pdp, 4, rng)
        Yf = transmit_through(Xf, ch, noise_var, rng)
        decided = ofdm_mrc_receive(Yf, cfg)
        errors += np.count_nonzero(decided != bits)
        bits_seen += bits.size
    assert errors == 0


def test_mrc_per_bin_snr_at_least_any_single_antenna():
    rng = np.random.default_rng(4)
    ch = draw_channel(geometric_profile(3), 8, rng)
    H = np.fft.fft(ch, n=32, axis=0)
    noise_var = 0.1
    combined = np.sum(np.abs(H) ** 2, axis=1) / noise_var
    single = np.abs(H) ** 2 / noise_var
    assert np.all(combined[:, None] >= single - 1e-12)


def test_transmit_payload_length_validated():
    cfg = OfdmPilotConfig(P=32, M=16, L_trunc=2)
    with pytest.raises(ValueError):
        ofdm_transmit(np.zeros(cfg.payload_bits - 1, dtype=int), cfg)


def test_pilot_count_must_resolve_taps():
    with pytest.raises(ValueError):
        OfdmPilotConfig(P=32, M=16, L_trunc=8)  # only 4 pilots


def test_subcarrier_indices_built_once_per_plan():
    cfg = OfdmPilotConfig(P=64, M=16, L_trunc=4)
    untouched = OfdmPilotConfig(P=64, M=16, L_trunc=4)
    for name in ("pilot_indices", "data_indices"):
        idx = getattr(cfg, name)
        assert getattr(cfg, name) is idx, name
        assert not idx.flags.writeable, name
    # the cached arrays stay out of equality and hashing
    assert cfg == untouched and hash(cfg) == hash(untouched)


def reference_estimate_channel(Yf, cfg):
    """estimate_channel with the zero-padded transform along axis 0."""
    pilots = Yf[cfg.pilot_indices, :] / cfg.pilot_symbol
    taps = np.fft.ifft(pilots, axis=0)[: cfg.L_trunc, :]
    return np.fft.fft(taps, n=cfg.P, axis=0)


def reference_mrc_combine(Yf, H):
    """mrc_combine with the denominator read off H times its conjugate."""
    num = np.einsum("pr,pr->p", Yf, H.conj())
    den = np.einsum("pr,pr->p", H, H.conj()).real
    return num / den


def fig5_ofdm_frame(snr_db, rng):
    """One fig5-sized OFDM frame (P = 1024, Nr = 64, L = 9, 64-QAM) at snr_db."""
    cfg = OfdmPilotConfig(P=1024, M=64)
    bits = rng.integers(0, 2, cfg.payload_bits)
    taps = draw_channel(geometric_profile(9), 64, rng)
    noise = complex_noise((1024, 64), snr_db_to_noise_variance(snr_db), rng)
    Yf = receive_spectrum(ofdm_transmit(bits, cfg), frequency_response(taps, 1024), dft(noise))
    return cfg, bits, Yf


def test_channel_estimate_and_mrc_match_the_reference_formulas():
    cfg, _, Yf = fig5_ofdm_frame(4.0, np.random.default_rng(43))
    H = estimate_channel(Yf, cfg)
    H_ref = reference_estimate_channel(Yf, cfg)
    assert np.linalg.norm(H - H_ref) <= 1e-13 * np.linalg.norm(H_ref)
    X_hat, X_ref = mrc_combine(Yf, H), reference_mrc_combine(Yf, H_ref)
    assert np.max(np.abs(X_hat - X_ref) / np.abs(X_ref)) <= 1e-13


def test_ofdm_decisions_match_the_reference_receiver():
    rng = np.random.default_rng(47)
    for snr_db in (0.0, 0.0, 2.0, 4.0, 4.0, 7.0, 7.0, 10.0, 14.0, 20.0):
        cfg, bits, Yf = fig5_ofdm_frame(snr_db, rng)
        decided = ofdm_mrc_receive(Yf, cfg)
        X_ref = reference_mrc_combine(Yf, reference_estimate_channel(Yf, cfg))
        reference, _ = qam_demodulate(X_ref[cfg.data_indices], cfg.M)
        assert np.array_equal(decided, reference), snr_db
        if snr_db == 0.0:
            assert np.count_nonzero(decided != bits)  # the decisions are noisy
