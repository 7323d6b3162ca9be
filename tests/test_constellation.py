import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfde.constellation import (
    SUPPORTED_ORDERS,
    get_constellation,
    qam_demodulate,
    qam_modulate,
)


def test_unit_average_energy_all_orders():
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        assert abs(np.mean(np.abs(const.points) ** 2) - 1.0) < 1e-12


def test_m64_normalization_from_level_enumeration():
    # independent oracle: enumerate the unscaled odd-level grid energy
    levels = np.arange(-7, 8, 2)
    grid = levels[:, None] + 1j * levels[None, :]
    assert np.mean(np.abs(grid) ** 2) == pytest.approx(42.0)
    const = get_constellation(64)
    assert np.max(np.abs(const.points)) == pytest.approx(np.sqrt(98.0 / 42.0))


def test_qpsk_bits_00_maps_to_first_quadrant_corner():
    sym = qam_modulate(np.array([0, 0]), 4)
    assert np.allclose(sym, (1 + 1j) / np.sqrt(2.0), rtol=0, atol=1e-15)


def test_bit_symbol_round_trip_exhaustive():
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        k = const.bits_per_symbol
        bits = ((np.arange(M)[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()
        symbols = qam_modulate(bits, M)
        back, hard = qam_demodulate(symbols, M)
        assert np.array_equal(back, bits)
        assert np.array_equal(hard, symbols)


def test_round_trip_random_bits():
    rng = np.random.default_rng(0)
    for M in (4, 64):
        bits = rng.integers(0, 2, size=600 * int(np.log2(M)))
        back, _ = qam_demodulate(qam_modulate(bits, M), M)
        assert np.array_equal(back, bits)


def test_gray_adjacency_one_bit_per_level_step():
    # neighbors along one axis must differ in exactly one bit, all orders
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        k = const.bits_per_symbol
        step = 2.0 * np.sqrt(3.0 / (2.0 * (M - 1)))
        pts = const.points
        for i in range(M):
            for j in range(M):
                d = pts[i] - pts[j]
                horizontal = abs(abs(d.real) - step) < 1e-9 and abs(d.imag) < 1e-9
                vertical = abs(d.real) < 1e-9 and abs(abs(d.imag) - step) < 1e-9
                if horizontal or vertical:
                    assert bin(i ^ j).count("1") == 1


def test_demodulate_matches_exhaustive_nearest_neighbor():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    for M in (16, 256):
        const = get_constellation(M)
        _, hard = qam_demodulate(samples, M)
        for s, h in zip(samples, hard):
            best = min(range(M), key=lambda i: (abs(s - const.points[i]) ** 2, i))
            assert h == const.points[best]


def exhaustive_decisions(symbols, M):
    """Oracle: argmin of |s - p|^2 over every point, first index on ties."""
    points = get_constellation(M).points
    return (np.abs(symbols[:, None] - points[None, :]) ** 2).argmin(axis=1)


def coordinates(M):
    """Random coordinates, including beyond the grid, and coordinates placed
    exactly on decision boundaries: the origin and the midpoints of adjacent
    levels, as the exact midpoint or as 2k times the level scale."""
    levels = np.unique(get_constellation(M).points.real)
    scale = np.sqrt(3.0 / (2.0 * (M - 1)))
    m = levels.size
    return st.one_of(
        st.floats(-1.6, 1.6),
        st.integers(0, m - 2).map(lambda k: float((levels[k] + levels[k + 1]) / 2.0)),
        st.integers(-(m // 2), m // 2).map(lambda k: 2.0 * k * scale),
    )


@settings(max_examples=200, deadline=None)
@given(M=st.sampled_from(SUPPORTED_ORDERS), data=st.data())
def test_slicer_matches_exhaustive_search(M, data):
    coord = coordinates(M)
    pairs = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    symbols = np.array([complex(re, im) for re, im in pairs])
    bits, hard = qam_demodulate(symbols, M)
    index = exhaustive_decisions(symbols, M)
    k = get_constellation(M).bits_per_symbol
    assert np.array_equal(hard, get_constellation(M).points[index])
    assert np.array_equal(bits, ((index[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel())


def test_demodulate_within_half_minimum_distance():
    rng = np.random.default_rng(2)
    for M in (4, 64):
        const = get_constellation(M)
        dmin = 2.0 * np.sqrt(3.0 / (2.0 * (M - 1)))
        idx = rng.integers(0, M, size=200)
        phase = np.exp(2j * np.pi * rng.random(200))
        noisy = const.points[idx] + 0.49 * dmin * rng.random(200) * phase
        _, hard = qam_demodulate(noisy, M)
        assert np.array_equal(hard, const.points[idx])


def test_demodulate_tie_breaks_to_smaller_index():
    # the origin is equidistant from all QPSK points; index 0 must win
    _, hard = qam_demodulate(np.array([0.0 + 0.0j]), 4)
    assert hard[0] == get_constellation(4).points[0]


def test_quadrant_partition_counts_and_no_axis_points():
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        q = const.quadrant_of(const.points)
        assert np.array_equal(np.sort(np.unique(q)), [1, 2, 3, 4])
        for quadrant in (1, 2, 3, 4):
            assert np.count_nonzero(q == quadrant) == M // 4
        assert np.min(np.abs(const.points.real)) > 1e-6
        assert np.min(np.abs(const.points.imag)) > 1e-6


def test_quadrant_tables_equal_the_formulas_bit_for_bit():
    # corners are c1 * 1j**k and centroids the mean of each quadrant's points
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        m = int(np.sqrt(M))
        c1 = (m - 1) * (1 + 1j) * np.sqrt(3.0 / (2.0 * (M - 1)))
        corners = np.array([c1 * 1j**k for k in range(4)])
        quadrant = const.quadrant_of(const.points)
        centroids = np.array([np.mean(const.points[quadrant == q]) for q in (1, 2, 3, 4)])
        for table, expected in ((const.corners, corners), (const.centroids, centroids)):
            assert np.array_equal(table.view(np.float64), expected.view(np.float64))
            with pytest.raises(ValueError):  # read-only
                table[0] = 0


def test_slicer_tables_equal_their_formulas():
    # _cells[a, b] holds, ascending, the four points whose level ranks are
    # a, a+1 in phase and b, b+1 in quadrature; _bits[i] is i's bit row
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        k = const.bits_per_symbol
        m = int(np.sqrt(M))
        indices = np.arange(M)
        assert np.array_equal(const._bits, (indices[:, None] >> np.arange(k - 1, -1, -1)) & 1)
        # rank r is level (m-1) - 2r, the largest level first
        levels = np.round(const.points / np.sqrt(3.0 / (2.0 * (M - 1)))).astype(complex)
        rank_i = ((m - 1) - levels.real.astype(int)) // 2
        rank_q = ((m - 1) - levels.imag.astype(int)) // 2
        assert const._cells.shape == (m - 1, m - 1, 4)
        for a in range(m - 1):
            for b in range(m - 1):
                around = np.isin(rank_i, (a, a + 1)) & np.isin(rank_q, (b, b + 1))
                assert np.array_equal(const._cells[a, b], indices[around]), (M, a, b)
        for table in (const._cells, const._bits):
            with pytest.raises(ValueError):  # read-only
                table[0] = 0


def test_corners_are_rotations_and_quadrant_maxima():
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        c1 = const.corners[0]
        assert c1.real > 0 and c1.imag > 0
        for q, corner in enumerate(const.corners, start=1):
            assert corner == c1 * (1j ** (q - 1))
            members = const.points[const.quadrant_of(const.points) == q]
            assert abs(corner) == pytest.approx(np.max(np.abs(members)))
            assert np.min(np.abs(members - corner)) < 1e-12


def test_quadrant_centroid_m64_value():
    # independent oracle: enumerate the quadrant-1 points directly
    const = get_constellation(64)
    members = const.points[(const.points.real > 0) & (const.points.imag > 0)]
    oracle = np.mean(members)
    assert abs(oracle - (4 + 4j) / np.sqrt(42.0)) < 1e-12
    assert abs(const.centroids[0] - oracle) < 1e-12


def test_quadrant_centroid_rotation_symmetry():
    for M in SUPPORTED_ORDERS:
        const = get_constellation(M)
        c1 = const.centroids[0]
        for q, centroid in enumerate(const.centroids, start=1):
            expected = c1 * np.exp(1j * (q - 1) * np.pi / 2.0)
            assert abs(centroid - expected) < 1e-12


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        qam_modulate(np.array([0, 1]), 8)
    with pytest.raises(ValueError):
        get_constellation(1024)


def test_bit_length_mismatch_rejected():
    with pytest.raises(ValueError):
        qam_modulate(np.array([0, 1, 0]), 4)

