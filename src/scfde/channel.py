"""Frequency-selective Rayleigh channel and AWGN front end.

Taps are independent zero-mean circularly-symmetric complex Gaussians whose
variances follow a normalized power-delay profile, so the expected channel
energy per antenna is 1. With the unit-average-energy constellation this
fixes the SNR convention used everywhere in the package:

    noise variance per complex sample = 10^(-snr_db / 10).

Propagation is P-point circular convolution (the frame's zero padding makes
the physical linear convolution circular), applied per receive antenna, with
independent noise per antenna and sample. The simulator forms the receive
matrix directly in the frequency domain, where the convolution is a per-bin
product with the channel's frequency response; ``convolve_channel`` plus
``complex_noise`` is the time-domain reference for that model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrixkit import dft_first_columns


class PowerDelayProfile:
    """Per-tap average powers; normalized to sum 1 and non-increasing."""

    def __init__(self, powers):
        p = np.asarray(powers, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("powers must be a non-empty 1-D sequence")
        if np.any(p < 0):
            raise ValueError("tap powers must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"tap powers must sum to 1, got {p.sum()!r}")
        if np.any(np.diff(p) > 0):
            raise ValueError("tap powers must be non-increasing")
        p.flags.writeable = False
        self.powers = p

    @property
    def L(self) -> int:
        return self.powers.size

    @classmethod
    def geometric(cls, L: int, ratio: float = 0.5) -> "PowerDelayProfile":
        """Geometrically decaying profile p[l] proportional to ratio**l."""
        if not 0 < ratio <= 1:
            raise ValueError(f"decay ratio must be in (0, 1], got {ratio}")
        p = ratio ** np.arange(L)
        return cls(p / p.sum())


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the L x Nr tap matrix (column r = taps of antenna r)."""

    taps: np.ndarray = field(repr=False)

    @property
    def L(self) -> int:
        return self.taps.shape[0]

    @property
    def Nr(self) -> int:
        return self.taps.shape[1]


def draw_channel(pdp: PowerDelayProfile, Nr: int, rng: np.random.Generator) -> ChannelRealization:
    """Sample taps h[l, r] ~ CN(0, p[l]), independent across l and r."""
    if Nr < 1:
        raise ValueError(f"antenna count must be >= 1, got {Nr}")
    sigma = np.sqrt(pdp.powers / 2.0)[:, None]
    taps = sigma * (rng.standard_normal((pdp.L, Nr)) + 1j * rng.standard_normal((pdp.L, Nr)))
    return ChannelRealization(taps=taps)


def snr_db_to_noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance under the unit-energy conventions."""
    return float(10.0 ** (-snr_db / 10.0))


def complex_noise(shape, variance: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, variance) samples (always consumes the stream, even at 0).

    The real parts take the first block of draws and the imaginary parts the
    second, so a given stream yields the same samples as
    ``(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sigma``.
    """
    w = np.empty(shape, dtype=complex)
    w.real = rng.standard_normal(shape)
    w.imag = rng.standard_normal(shape)
    w *= np.sqrt(variance / 2.0)
    return w


def frequency_response(ch: ChannelRealization, P: int) -> np.ndarray:
    """P x Nr per-bin channel gains: the unnormalized P-point DFT of each
    antenna's taps, sqrt(P) * F_L @ taps with F_L the first L columns of
    the unitary DFT."""
    if ch.L > P:
        raise ValueError(f"channel has {ch.L} taps but the frame only {P} samples")
    return np.sqrt(P) * (dft_first_columns(P, ch.L) @ ch.taps)


def receive_spectrum(Xf: np.ndarray, Hf: np.ndarray, Nf: np.ndarray) -> np.ndarray:
    """Frequency-domain receive matrix Yf = diag(Xf) Hf + Nf.

    Xf is the unitary DFT of the transmitted block, Hf its channel's
    frequency response and Nf the unitary DFT of the time-domain noise, so
    Yf equals the unitary DFT of ``convolve_channel(x, ch) + noise``.
    """
    return np.asarray(Xf, dtype=complex).ravel()[:, None] * Hf + Nf


def convolve_channel(x: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Noiseless P x Nr receive matrix: per-antenna circular convolution of
    x with the zero-padded tap vector, computed through the FFT."""
    x = np.asarray(x, dtype=complex).ravel()
    P = x.size
    if ch.L > P:
        raise ValueError(f"channel has {ch.L} taps but the frame only {P} samples")
    Hf = np.fft.fft(ch.taps, n=P, axis=0)
    return np.fft.ifft(np.fft.fft(x)[:, None] * Hf, axis=0)

