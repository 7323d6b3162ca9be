import numpy as np
import pytest

from scfde.constellation import get_constellation, qam_modulate
from scfde.frame import FrameConfig, build_frame, extract_data, random_payload


def test_single_tap_frame_has_no_padding():
    cfg = FrameConfig(P=8, L=1, M=4)
    assert cfg.N == cfg.P
    assert cfg.pilot_index == 0
    frame = build_frame(cfg, np.zeros(cfg.payload_bits, dtype=int))
    assert frame[0] == cfg.pilot_value
    assert np.all(frame != 0)


def test_p16_l3_layout_counts():
    cfg = FrameConfig(P=16, L=3, M=4)
    assert cfg.N == 12  # 16 - 2*(3-1)
    assert cfg.pilot_index == 2
    assert cfg.payload_bits == 11 * 2
    frame = build_frame(cfg, np.ones(cfg.payload_bits, dtype=int))
    x = frame
    assert np.all(x[[0, 1, 14, 15]] == 0)
    assert x[2] == cfg.pilot_value
    assert np.all(x[3:14] != 0)


def test_payload_positions_built_once_per_plan():
    cfg = FrameConfig(P=32, L=4, M=16)
    idx = cfg.data_indices
    assert cfg.data_indices is idx
    assert not idx.flags.writeable
    # the cached array stays out of equality and hashing
    untouched = FrameConfig(P=32, L=4, M=16)
    assert cfg == untouched and hash(cfg) == hash(untouched)


def test_build_frame_deterministic():
    cfg = FrameConfig(P=32, L=4, M=16)
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, cfg.payload_bits)
    a = build_frame(cfg, bits)
    b = build_frame(cfg, bits)
    assert np.array_equal(a, b)


def test_extract_inverts_build():
    cfg = FrameConfig(P=64, L=5, M=64)
    rng = np.random.default_rng(11)
    bits = random_payload(cfg, rng)
    frame = build_frame(cfg, bits)
    assert np.array_equal(extract_data(cfg, frame), qam_modulate(bits, cfg.M))


def test_extract_matches_independent_slicing_oracle():
    cfg = FrameConfig(P=24, L=3, M=4)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    oracle = np.array([v[cfg.pilot_index + 1 + k] for k in range(cfg.N - 1)])
    assert np.array_equal(extract_data(cfg, v), oracle)


def test_extract_all_zero_input():
    cfg = FrameConfig(P=16, L=2, M=4)
    out = extract_data(cfg, np.zeros(16, dtype=complex))
    assert out.shape == (cfg.N - 1,)
    assert np.all(out == 0)


def test_frame_energy_is_pilot_plus_payload():
    cfg = FrameConfig(P=32, L=3, M=64)
    rng = np.random.default_rng(5)
    bits = random_payload(cfg, rng)
    frame = build_frame(cfg, bits)
    symbols = qam_modulate(bits, cfg.M)
    total = np.sum(np.abs(frame) ** 2)
    assert total == np.abs(cfg.pilot_value) ** 2 + np.sum(np.abs(symbols) ** 2)


def test_payload_length_mismatch_rejected():
    cfg = FrameConfig(P=16, L=2, M=4)
    with pytest.raises(ValueError):
        build_frame(cfg, np.zeros(cfg.payload_bits + 2, dtype=int))


def test_extract_length_mismatch_rejected():
    cfg = FrameConfig(P=16, L=2, M=4)
    with pytest.raises(ValueError):
        extract_data(cfg, np.zeros(15, dtype=complex))


def test_too_short_frame_rejected():
    FrameConfig(P=8, L=4, M=4)  # N = 2 is the shortest legal frame
    with pytest.raises(ValueError):
        FrameConfig(P=8, L=5, M=4)
    with pytest.raises(ValueError):
        FrameConfig(P=8, L=0, M=4)
