"""Frequency-selective Rayleigh channel and AWGN front end.

Taps are independent zero-mean circularly-symmetric complex Gaussians whose
variances are a plain array of tap powers. The simulator takes them from
``geometric_profile``, which decays as _DECAY**l and sums to 1, so the
expected channel energy per antenna is 1. With the unit-average-energy
constellation this fixes the SNR convention used everywhere in the package:

    noise variance per complex sample = 10^(-snr_db / 10).

Propagation is P-point circular convolution (the frame's zero padding makes
the physical linear convolution circular), applied per receive antenna, with
independent noise per antenna and sample. The simulator forms the receive
matrix directly in the frequency domain, where the convolution is a per-bin
product with the channel's frequency response; ``convolve_channel`` plus
``complex_noise`` is the time-domain reference for that model.
"""

from __future__ import annotations

import math

import numpy as np

from .matrixkit import dft_first_columns

# power ratio of each tap to the one before it, in every simulated channel
_DECAY = 0.5


def geometric_profile(L: int) -> np.ndarray:
    """Tap powers p[l] proportional to _DECAY**l, l < L, normalized to sum 1."""
    if L < 1:
        raise ValueError(f"tap count must be >= 1, got {L}")
    p = _DECAY ** np.arange(L)
    return p / p.sum()


def draw_channel(powers: np.ndarray, Nr: int, rng: np.random.Generator) -> np.ndarray:
    """L x Nr tap matrix (column r = taps of antenna r) with h[l, r] ~
    CN(0, powers[l]), independent across l and r."""
    if np.any(powers < 0):
        raise ValueError("tap powers must be nonnegative")
    if Nr < 1:
        raise ValueError(f"antenna count must be >= 1, got {Nr}")
    return complex_noise((powers.size, Nr), powers[:, None], rng)


def snr_db_to_noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance under the unit-energy conventions."""
    return float(10.0 ** (-snr_db / 10.0))


def complex_noise(shape, variance, rng: np.random.Generator) -> np.ndarray:
    """Independent CN(0, variance) samples (always consumes the stream, even
    at 0). variance is a scalar or an array that broadcasts against shape,
    such as one power per row.

    The real parts take the first block of draws and the imaginary parts the
    second, so a given stream yields the same samples as
    ``(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sigma``.
    """
    w = np.empty(shape, dtype=complex)
    w.real = rng.standard_normal(shape)
    w.imag = rng.standard_normal(shape)
    w *= np.sqrt(variance / 2.0)
    return w


def frequency_response(taps: np.ndarray, P: int) -> np.ndarray:
    """P x Nr per-bin channel gains of an L x Nr tap matrix: the
    unnormalized P-point DFT of each antenna's taps, sqrt(P) * F_L @ taps
    with F_L the first L columns of the unitary DFT."""
    Hf = dft_first_columns(P, taps.shape[0]) @ taps
    Hf *= math.sqrt(P)
    return Hf


def receive_spectrum(Xf: np.ndarray, Hf: np.ndarray, Nf: np.ndarray) -> np.ndarray:
    """Frequency-domain receive matrix Yf = diag(Xf) Hf + Nf.

    Xf is the unitary DFT of the transmitted block, Hf its channel's
    frequency response and Nf the unitary DFT of the time-domain noise, so
    Yf equals the unitary DFT of ``convolve_channel(x, taps) + noise``.
    """
    Yf = np.asarray(Xf, dtype=complex).ravel()[:, None] * Hf
    Yf += Nf
    return Yf


def convolve_channel(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Noiseless P x Nr receive matrix: per-antenna circular convolution of
    x with the zero-padded columns of the L x Nr tap matrix, computed
    through the FFT."""
    x = np.asarray(x, dtype=complex).ravel()
    P = x.size
    L = taps.shape[0]
    if L > P:
        raise ValueError(f"channel has {L} taps but the frame only {P} samples")
    Hf = np.fft.fft(taps, n=P, axis=0)
    return np.fft.ifft(np.fft.fft(x)[:, None] * Hf, axis=0)

