"""Zero-padded single-pilot frame layout and index bookkeeping.

A frame of P time-domain symbols carries L-1 leading zeros, one pilot,
N-2 further data symbols and L-1 trailing zeros, where N = P - 2(L-1) is
the non-zero symbol count. The guard zeros make the linear channel act
circularly within the frame; the pilot (the quadrant-1 corner symbol,
the maximum-energy point of the alphabet) is the only sample known to the
receiver and resolves the global complex scale of the blind estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import get_constellation, qam_modulate
from .errors import is_whole


@dataclass(frozen=True)
class FrameConfig:
    """Frame geometry for a given (P, L, M).

    P: frame length in symbols. L: channel tap count assumed for the guard
    padding. M: constellation order.
    """

    P: int
    L: int
    M: int

    def __post_init__(self):
        get_constellation(self.M)  # rejects unsupported orders
        if not is_whole(self.L) or self.L < 1:
            raise ValueError(f"tap count must be a whole number >= 1, got {self.L}")
        if self.N < 2:
            raise ValueError(
                f"frame too short: P={self.P}, L={self.L} leaves N={self.N} < 2 "
                "non-zero symbols"
            )

    @property
    def N(self) -> int:
        """Count of non-zero symbols (pilot + payload)."""
        return self.P - 2 * (self.L - 1)

    @property
    def pilot_index(self) -> int:
        """First non-zero position, l_p = L - 1."""
        return self.L - 1

    @property
    def pilot_value(self) -> complex:
        return get_constellation(self.M).corners[0]

    @cached_property
    def data_indices(self) -> np.ndarray:
        """Positions of the N-1 payload symbols (pilot excluded), read-only."""
        idx = np.arange(self.pilot_index + 1, self.pilot_index + self.N)
        idx.flags.writeable = False
        return idx

    @property
    def payload_bits(self) -> int:
        """Bit budget of one frame: (N-1) * log2(M)."""
        return (self.N - 1) * get_constellation(self.M).bits_per_symbol


def random_payload(cfg, rng: np.random.Generator) -> np.ndarray:
    """Uniform random payload bits for any plan with a ``payload_bits``
    budget (a FrameConfig, or the baseline's OfdmPilotConfig)."""
    return rng.integers(0, 2, size=cfg.payload_bits)


def build_frame(cfg: FrameConfig, payload_bits: np.ndarray) -> np.ndarray:
    """Length-P time-domain symbol vector of the frame carrying the given
    payload bits.

    Raises ValueError when the payload length differs from cfg.payload_bits.
    """
    payload_bits = np.asarray(payload_bits, dtype=np.int64).ravel()
    if payload_bits.size != cfg.payload_bits:
        raise ValueError(
            f"payload is {payload_bits.size} bits, frame needs {cfg.payload_bits}"
        )
    x = np.zeros(cfg.P, dtype=complex)
    x[cfg.pilot_index] = cfg.pilot_value
    x[cfg.data_indices] = qam_modulate(payload_bits, cfg.M)
    return x


def extract_data(cfg: FrameConfig, time_symbols: np.ndarray) -> np.ndarray:
    """Payload-position samples of a length-P estimate (pilot and guard
    zeros dropped)."""
    time_symbols = np.asarray(time_symbols)
    if time_symbols.shape != (cfg.P,):
        raise ValueError(
            f"expected a length-{cfg.P} vector, got shape {time_symbols.shape}"
        )
    return time_symbols[cfg.data_indices]
