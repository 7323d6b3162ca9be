"""Square M-QAM alphabets with Gray bit mapping and quadrant geometry.

Symbols are built from per-dimension Gray coding on the odd-integer levels
{+-1, +-3, ..., +-(sqrt(M)-1)}, scaled so the alphabet has unit average
energy. The first half of each bit group selects the in-phase level, the
second half the quadrature level; bit pattern 0...0 maps to the largest
positive level on both axes, so the all-zeros symbol is the quadrant-1
corner point.

Besides modulation and hard demodulation, the module exposes the quadrant
features used by the scaling/rotation correction stages: the read-only
tables ``corners`` (maximum-modulus symbol of each quadrant) and
``centroids`` (arithmetic mean of the M/4 symbols in each quadrant).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import is_whole

SUPPORTED_ORDERS = (4, 16, 64, 256)


class Constellation:
    """Gray-mapped square M-QAM alphabet with unit average energy.

    Attributes:
        order: constellation size M (4, 16, 64 or 256).
        bits_per_symbol: log2(M).
        points: length-M complex array, indexed by the integer value of the
            MSB-first bit group so that ``points[i]`` is the symbol for bit
            pattern i.
        corners: the maximum-modulus point of each quadrant, quadrant q at
            index q - 1; corners[0] has positive real and imaginary parts and
            the others are its exact pi/2 rotations.
        centroids: the arithmetic mean of each quadrant's M/4 points, indexed
            like corners.
    """

    def __init__(self, order: int):
        if not is_whole(order) or order not in SUPPORTED_ORDERS:
            raise ValueError(
                f"unsupported constellation order {order}; expected a whole number, "
                f"one of {SUPPORTED_ORDERS}"
            )
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        m = int(np.sqrt(order))  # levels per dimension
        half = self.bits_per_symbol // 2

        # the binary-reflected Gray code of each level rank, and its inverse;
        # rank r is level (m-1) - 2r, so bits 0..0 land in quadrant 1
        ranks = np.arange(m)
        gray = ranks ^ (ranks >> 1)
        rank_of = np.argsort(gray)
        idx = np.arange(order)
        level_i = (m - 1) - 2 * rank_of[idx >> half]
        level_q = (m - 1) - 2 * rank_of[idx & ((1 << half) - 1)]
        scale = np.sqrt(3.0 / (2.0 * (order - 1)))
        self.points = (level_i + 1j * level_q) * scale
        self._scale = scale
        self._m = m
        c1 = (m - 1) * (1 + 1j) * scale
        self.corners = np.array([c1 * 1j**k for k in range(4)])
        quadrant = self.quadrant_of(self.points)
        self.centroids = np.array([np.mean(self.points[quadrant == q]) for q in (1, 2, 3, 4)])
        # the four point indices around the cell between level ranks a, a+1
        # in phase and b, b+1 in quadrature; the in-phase code is the high
        # bit group, so each row is in index order
        pair = np.sort(np.stack([gray[:-1], gray[1:]], axis=1), axis=1)
        self._cells = ((pair[:, None, :, None] << half) | pair[None, :, None, :]).reshape(
            m - 1, m - 1, 4
        )
        # the MSB-first bit row of each point index
        self._bits = (idx[:, None] >> np.arange(self.bits_per_symbol - 1, -1, -1)) & 1
        for table in (self.points, self.corners, self.centroids, self._cells, self._bits):
            table.flags.writeable = False

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


@lru_cache(maxsize=None, typed=True)
def get_constellation(order: int) -> Constellation:
    """Shared immutable instance per order (safe across trial workers).
    Typed, as 16.0 == 16: a float order never finds the integer alphabet,
    so Constellation refuses it on every call."""
    return Constellation(order)


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
    only the 2 x 2 points they span, read from a cell table the alphabet
    builds once, are compared, with the same squared distance
    |symbol - point|^2 as an exhaustive search. Any other point is at least
    one level spacing farther away, so for finite inputs the decisions equal
    the exhaustive search's, ties and rounding included.
    """
    const = get_constellation(order)
    symbols = np.asarray(symbols, dtype=complex).ravel()
    m = const._m
    # per axis the cell between level ranks r and r + 1 (level (m-1) - 2r has
    # rank r), the outermost one beyond the grid edge; NaN falls to cell 0
    a, b = (
        np.fmin(np.fmax(np.floor(((m - 1) - x / const._scale) / 2.0), 0.0), m - 2)
        for x in (symbols.real, symbols.imag)
    )
    candidates = const._cells[a.astype(np.int64), b.astype(np.int64)]
    d2 = np.abs(symbols[:, None] - const.points[candidates]) ** 2
    index = candidates[np.arange(symbols.size), d2.argmin(axis=1)]
    return const._bits[index].ravel(), const.points[index]
