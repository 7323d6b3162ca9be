"""Square M-QAM alphabets with Gray bit mapping and quadrant geometry.

Symbols are built from per-dimension Gray coding on the odd-integer levels
{+-1, +-3, ..., +-(sqrt(M)-1)}, scaled so the alphabet has unit average
energy. The first half of each bit group selects the in-phase level, the
second half the quadrature level; bit pattern 0...0 maps to the largest
positive level on both axes, so the all-zeros symbol is the quadrant-1
corner point.

Besides modulation and hard demodulation, the module exposes the quadrant
features used by the scaling/rotation correction stages: per-quadrant
corner points (maximum-modulus symbol of each quadrant) and per-quadrant
centroids (arithmetic mean of the M/4 symbols in each quadrant).
"""

from __future__ import annotations

import numpy as np

SUPPORTED_ORDERS = (4, 16, 64, 256)


def _gray_decode(g: np.ndarray) -> np.ndarray:
    """Invert the binary-reflected Gray code, elementwise on integers."""
    b = g.copy()
    mask = g >> 1
    while np.any(mask):
        b = b ^ mask
        mask >>= 1
    return b


class Constellation:
    """Gray-mapped square M-QAM alphabet with unit average energy.

    Attributes:
        order: constellation size M (4, 16, 64 or 256).
        bits_per_symbol: log2(M).
        points: length-M complex array, indexed by the integer value of the
            MSB-first bit group so that ``points[i]`` is the symbol for bit
            pattern i.
    """

    def __init__(self, order: int):
        if order not in SUPPORTED_ORDERS:
            raise ValueError(
                f"unsupported constellation order {order}; expected one of {SUPPORTED_ORDERS}"
            )
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        m = int(np.sqrt(order))  # levels per dimension
        half = self.bits_per_symbol // 2

        idx = np.arange(order)
        gray_i = idx >> half
        gray_q = idx & ((1 << half) - 1)
        # Gray-decoded rank 0 -> highest level, so bits 0..0 land in quadrant 1
        level_i = (m - 1) - 2 * _gray_decode(gray_i)
        level_q = (m - 1) - 2 * _gray_decode(gray_q)
        scale = np.sqrt(3.0 / (2.0 * (order - 1)))
        self.points = (level_i + 1j * level_q) * scale
        self.points.flags.writeable = False
        self._scale = scale
        self._m = m

    def _bracketing_indices(self, z: np.ndarray) -> np.ndarray:
        """N x 4 point indices, ascending per row, of the grid cell around
        each sample: per axis the two adjacent levels that bracket it
        (the two outermost levels for samples beyond the grid edge)."""
        half = self.bits_per_symbol // 2
        m = self._m

        def ranks(coord):
            # level (m-1) - 2r has rank r; NaN falls to the first pair
            t = np.floor(((m - 1) - coord / self._scale) / 2.0)
            lo = np.fmin(np.fmax(t, 0.0), m - 2).astype(np.int64)
            pair = np.stack([lo, lo + 1], axis=-1)
            return pair ^ (pair >> 1)  # Gray code of each rank

        gray_i = ranks(z.real) << half
        gray_q = ranks(z.imag)
        cells = gray_i[:, :, None] | gray_q[:, None, :]
        return np.sort(cells.reshape(-1, 4), axis=1)

    # -- quadrant geometry -------------------------------------------------

    def quadrant_of(self, z: np.ndarray) -> np.ndarray:
        """Quadrant index in {1,2,3,4} of each complex sample (axes excluded
        by the odd-level grid; samples on an axis fall to the lower quadrant)."""
        z = np.asarray(z)
        re_pos = z.real > 0
        im_pos = z.imag > 0
        q = np.where(re_pos & im_pos, 1,
                     np.where(~re_pos & im_pos, 2,
                              np.where(~re_pos & ~im_pos, 3, 4)))
        return q

    def corner(self, q: int) -> complex:
        """Maximum-modulus point of quadrant q; corner(1) has positive real
        and imaginary parts and the others are its exact pi/2 rotations."""
        if q not in (1, 2, 3, 4):
            raise ValueError(f"quadrant must be 1..4, got {q}")
        c1 = (self._m - 1) * (1 + 1j) * self._scale
        return c1 * (1j ** (q - 1))

    def quadrant_centroid(self, q: int) -> complex:
        """Arithmetic mean of the M/4 points in quadrant q."""
        if q not in (1, 2, 3, 4):
            raise ValueError(f"quadrant must be 1..4, got {q}")
        sel = self.quadrant_of(self.points) == q
        return complex(np.mean(self.points[sel]))


_CACHE: dict[int, Constellation] = {}


def get_constellation(order: int) -> Constellation:
    """Shared immutable instance per order (safe across trial workers)."""
    if order not in _CACHE:
        _CACHE[order] = Constellation(order)
    return _CACHE[order]


def qam_modulate(bits: np.ndarray, order: int) -> np.ndarray:
    """Map a bit sequence to M-QAM symbols, log2(M) bits per symbol, MSB first.

    Raises ValueError if the bit count is not a multiple of log2(M).
    """
    const = get_constellation(order)
    bits = np.asarray(bits, dtype=np.int64).ravel()
    k = const.bits_per_symbol
    if bits.size % k != 0:
        raise ValueError(f"bit count {bits.size} not divisible by log2(M)={k}")
    groups = bits.reshape(-1, k)
    index = groups @ (1 << np.arange(k - 1, -1, -1))
    return const.points[index]


def qam_demodulate(symbols: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor hard decision for each symbol.

    Returns ``(bits, hard_points)`` where bits is the flat MSB-first bit
    sequence and hard_points the decided constellation points. Distance ties
    resolve to the smaller point index (argmin order of ``points``).

    O(N): each axis is sliced to the two levels that bracket the sample, and
    only the 2 x 2 points they span are compared, with the same squared
    distance |symbol - point|^2 as an exhaustive search. Any other point is
    at least one level spacing farther away, so for finite inputs the
    decisions equal the exhaustive search's, ties and rounding included.
    """
    const = get_constellation(order)
    symbols = np.asarray(symbols, dtype=complex).ravel()
    candidates = const._bracketing_indices(symbols)
    d2 = np.abs(symbols[:, None] - const.points[candidates]) ** 2
    index = candidates[np.arange(symbols.size), d2.argmin(axis=1)]
    k = const.bits_per_symbol
    bits = (index[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return bits.ravel(), const.points[index]
