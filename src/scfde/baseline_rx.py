"""Pilot-based MRC-OFDM comparison receiver.

Transmits data on P subcarriers with a fixed fraction of equidistant pilot
tones, estimates the channel per antenna by least squares at the pilot bins,
interpolates to all bins through the tap domain (inverse DFT of the pilot
estimates, truncate to L_trunc taps, forward DFT to P bins), and combines
antennas with per-bin MRC before hard demodulation.

The tap-domain interpolation is exact (noise aside) when the pilot count
divides P, so the pilot grid is strictly uniform; otherwise the grid is the
nearest-integer rounding of the ideal uniform grid and the interpolation
carries a small model error. Propagation reuses the package's circular
channel model, which stands in for CP-OFDM with a sufficient prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import get_constellation, qam_demodulate, qam_modulate
from .errors import DegenerateBinError, is_whole

# share of the P subcarriers that carry a pilot tone
_PILOT_FRACTION = 0.10


@dataclass(frozen=True)
class OfdmPilotConfig:
    """Subcarrier plan: P bins, ceil(_PILOT_FRACTION * P) pilot tones on a
    (near-)uniform grid, and L_trunc taps kept by the interpolator (None,
    the default, keeps all n_pilots pilot taps: classic parameter-free FFT
    interpolation, no channel-length side information)."""

    P: int
    M: int
    L_trunc: int | None = None

    def __post_init__(self):
        get_constellation(self.M)  # rejects unsupported orders
        if not is_whole(self.P) or self.P < 1:
            raise ValueError(f"subcarrier count must be a whole number >= 1, got {self.P}")
        if self.L_trunc is None:
            return
        if not is_whole(self.L_trunc) or self.L_trunc < 1:
            raise ValueError(
                f"interpolator must keep a whole number >= 1 of taps, got {self.L_trunc}"
            )
        if self.n_pilots < self.L_trunc:
            raise ValueError(f"{self.n_pilots} pilots cannot resolve {self.L_trunc} taps")

    @property
    def n_pilots(self) -> int:
        return int(np.ceil(_PILOT_FRACTION * self.P))

    @cached_property
    def pilot_indices(self) -> np.ndarray:
        idx = np.round(np.arange(self.n_pilots) * self.P / self.n_pilots).astype(int)
        idx.flags.writeable = False
        return idx

    @cached_property
    def data_indices(self) -> np.ndarray:
        mask = np.ones(self.P, dtype=bool)
        mask[self.pilot_indices] = False
        idx = np.flatnonzero(mask)
        idx.flags.writeable = False
        return idx

    @property
    def pilot_symbol(self) -> complex:
        """Known tone on every pilot subcarrier (the corner symbol)."""
        return get_constellation(self.M).corners[0]

    @property
    def payload_bits(self) -> int:
        return (self.P - self.n_pilots) * get_constellation(self.M).bits_per_symbol


def ofdm_transmit(bits: np.ndarray, cfg: OfdmPilotConfig) -> np.ndarray:
    """Frequency-domain symbol vector: pilots on the pilot grid, modulated
    payload on the remaining bins."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size != cfg.payload_bits:
        raise ValueError(f"payload is {bits.size} bits, grid needs {cfg.payload_bits}")
    Xf = np.empty(cfg.P, dtype=complex)
    Xf[cfg.pilot_indices] = cfg.pilot_symbol
    Xf[cfg.data_indices] = qam_modulate(bits, cfg.M)
    return Xf


def estimate_channel(Yf: np.ndarray, cfg: OfdmPilotConfig) -> np.ndarray:
    """Per-bin channel estimate from the pilot tones, per antenna.

    LS at the pilot bins, then tap-domain interpolation: the inverse DFT of
    the pilot-grid estimates is truncated to L_trunc taps, zero-padded, and
    transformed back to all P bins. The zero-padded transform runs along
    contiguous rows, one per antenna, of the transposed taps, so the P x Nr
    result is a transposed view holding the same values as a transform
    along axis 0.
    """
    Yf = np.asarray(Yf, dtype=complex)
    pilots = Yf[cfg.pilot_indices, :] / cfg.pilot_symbol
    taps = np.fft.ifft(pilots, axis=0)[: cfg.L_trunc, :]
    return np.fft.fft(np.ascontiguousarray(taps.T), n=cfg.P, axis=1).T


def mrc_combine(Yf: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Per-bin maximal ratio combining of the antenna columns.

    Returns lambda[p] = sum_r Yf[p,r] conj(H[p,r]) / sum_r |H[p,r]|^2, the
    per-bin least-squares fit of a diagonal spectrum given the channel H.
    Raises DegenerateBinError at the first bin whose denominator is zero.
    """
    num = np.einsum("pr,pr->p", Yf, H.conj())
    den = (H.real**2 + H.imag**2).sum(1)
    dead = np.flatnonzero(den == 0.0)
    if dead.size:
        raise DegenerateBinError(int(dead[0]))
    return num * (1.0 / den)


def ofdm_mrc_receive(Yf: np.ndarray, cfg: OfdmPilotConfig) -> np.ndarray:
    """Decode one OFDM block: returns the payload bit decisions. Raises
    DegenerateBinError if MRC hits an all-zero bin."""
    X_hat = mrc_combine(Yf, estimate_channel(Yf, cfg))
    bits, _ = qam_demodulate(X_hat[cfg.data_indices], cfg.M)
    return bits
