import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scfde.baseline_rx import mrc_combine
from scfde.blind_rx import (
    BlindConfig,
    Compression,
    ModeEstimate,
    _MU,
    _am_step,
    alternating_minimization,
    ca_alpha,
    decode_frame,
    pilot_alpha,
    qq_alpha,
)
from scfde.channel import convolve_channel, draw_channel, geometric_profile
from scfde.constellation import get_constellation, qam_demodulate, qam_modulate
from scfde.errors import DegenerateBinError, PilotLossError
from scfde.frame import FrameConfig, build_frame, extract_data, random_payload
from scfde.matrixkit import (
    circulant_eigenvalues,
    compress_columns,
    dft,
    dft_first_columns,
    dft_weighted_gram,
    idft,
    regularized_ls,
)


EPS32 = float(np.finfo(np.float32).eps)


def am(Yf, L_est):
    """AM on the receive matrix Yf, through its compression."""
    cfg = BlindConfig(L_est=L_est)
    return alternating_minimization(Compression.of(Yf, cfg), cfg)


def decode(Yf, frame_cfg, cfg, *modes):
    """decode_frame on the receive matrix Yf, through its compression."""
    return decode_frame(Compression.of(Yf, cfg), frame_cfg, cfg, *modes)


def laid_out(Y, energy, L):
    """The P x K matrix Y itself laid out as AM's problem with the given
    energy: a compression that keeps every column (V_K the identity)."""
    return Compression.laid_out(np.ascontiguousarray(Y.T), float(energy), np.eye(Y.shape[1]), L)


def noiseless_setup(P, L, Nr, M, seed):
    rng = np.random.default_rng(seed)
    cfg = FrameConfig(P=P, L=L, M=M)
    payload = random_payload(cfg, rng)
    frame = build_frame(cfg, payload)
    ch = draw_channel(geometric_profile(L), Nr, rng)
    Yf = dft(convolve_channel(frame, ch))
    return cfg, payload, frame, ch, Yf


def all_symbol_frame(M, distortion=1.0 + 0.0j):
    """Frame whose payload runs through every constellation point once."""
    const = get_constellation(M)
    cfg = FrameConfig(P=M + 1, L=1, M=M)
    k = const.bits_per_symbol
    bits = ((np.arange(M)[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()
    frame = build_frame(cfg, bits)
    return cfg, bits, frame, distortion * frame


def test_factorization_scale_ambiguity_is_exact():
    rng = np.random.default_rng(0)
    P, L, Nr = 32, 3, 4
    lam = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    H = rng.standard_normal((L, Nr)) + 1j * rng.standard_normal((L, Nr))
    F_L = dft_first_columns(P, L)
    alpha = 1.7 * np.exp(0.4j)
    base = lam[:, None] * (F_L @ H)
    scaled = (alpha * lam)[:, None] * (F_L @ (H / alpha))
    assert np.linalg.norm(base - scaled) / np.linalg.norm(base) < 1e-12


def test_single_mrc_pass_with_true_channel_is_exact():
    cfg, _, frame, ch, Yf = noiseless_setup(64, 3, 6, 16, seed=1)
    Hn_true = dft_first_columns(64, 3) @ ch
    lam = mrc_combine(Yf, Hn_true)
    truth = circulant_eigenvalues(frame)
    assert np.linalg.norm(lam - truth) / np.linalg.norm(truth) < 1e-10


def test_mrc_update_never_increases_residual():
    # rebuild the iteration from public ops and compare residuals around step 9
    rng = np.random.default_rng(2)
    cfg, _, frame, ch, Yf = noiseless_setup(64, 2, 4, 16, seed=2)
    Yf = Yf + 0.1 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape))
    F_L = dft_first_columns(64, 2)
    Yc = compress_columns(Yf, 2)[0]
    lam = Yc[:, 0] / np.linalg.norm(Yc[:, 0])
    norm = np.linalg.norm(Yf)
    for _ in range(20):
        H_t = regularized_ls(lam[:, None] * F_L, Yf, 0.5)
        H_n = F_L @ H_t
        before = np.linalg.norm(Yf - lam[:, None] * H_n) / norm
        lam = mrc_combine(Yf, H_n)
        after = np.linalg.norm(Yf - lam[:, None] * H_n) / norm
        assert after <= before + 1e-12


def first_spectrum(c):
    """The spectrum AM starts from: column 0 of its compression, normalized."""
    return c.Y_rows[0] / np.linalg.norm(c.Y_rows[0])


def stepped(c, lam, steps):
    """steps AM steps by hand on c, from lam cast to c's precision: the last
    step's spectrum and taps, and the residual of every step."""
    lam, trace = lam.astype(c.F_L.dtype), []
    for _ in range(steps):
        lam, H_t, residual = _am_step(c, lam, _MU)
        trace.append(residual)
    return lam, H_t, np.asarray(trace)


def test_am_stops_at_the_first_step_that_does_not_lower_the_residual():
    # criterion 3's noiseless frame 3 (seed 160_003) floors before the cap,
    # at step 49: every step before it lowered the residual, step 49 did
    # not, and it stays in the trace. An all-double run of the same frame
    # floors at the same step
    _, _, _, _, Yf = noiseless_setup(256, 4, 16, 64, seed=160_003)
    est = am(Yf, 4)
    trace = est.residual_trace
    assert est.iterations == len(trace) == 49
    assert (np.flatnonzero(np.diff(trace) >= 0) + 2).tolist() == [49]
    c = est.compression
    _, _, double = stepped(c, first_spectrum(c), 49)
    assert (np.flatnonzero(np.diff(double) >= 0) + 2).tolist() == [49]


def test_a_frame_whose_single_stage_stalls_finishes_in_double():
    # the same frame, stepped by hand: its single stage stalls at step 49
    # (float32 residuals), so AM keeps the 47 steps before the last two on
    # the unit-energy complex64 copy and takes steps 48 and 49 again in
    # double from the iterate of step 47; that gives AM's trace and spectrum
    # bit for bit, and the double finish ends below the single stage's best.
    # What AM returns, and the compression the decision-directed rounds step
    # on, are complex128
    _, _, _, _, Yf = noiseless_setup(256, 4, 16, 64, seed=160_003)
    est = am(Yf, 4)
    c, single = est.compression, est.compression.single()
    assert est.lambda_hat.dtype == est.H_t_hat.dtype == complex
    assert c.Y_rows.dtype == c.F_L.dtype == c.F_rows.dtype == complex
    assert single.Y_rows.dtype == single.F_L.dtype == single.F_rows.dtype == np.complex64
    assert c.Y_blocks.dtype == c.F_blocks.dtype == np.float64
    assert single.Y_blocks.dtype == single.F_blocks.dtype == np.float32
    assert single.energy == 1.0
    _, _, stalled = stepped(single, first_spectrum(c), 49)
    assert (np.flatnonzero(np.diff(stalled) >= 0) + 2).tolist() == [49]
    handover, _, first = stepped(single, first_spectrum(c), 47)
    assert np.array_equal(first, stalled[:47])
    lam, _, last = stepped(c, handover, 2)
    assert np.array_equal(est.residual_trace, np.concatenate((first, last)))
    assert np.array_equal(est.lambda_hat, lam)
    assert est.residual_trace[-1] <= first.min()


def test_a_stall_in_single_precision_is_stepped_again_in_double(monkeypatch):
    # a single-precision step whose residual does not fall hands over the
    # iterate from before the last two steps: the double stage takes both
    # again and judges the stall on double residuals, so a noisy frame whose
    # float32 residual bumps at step 4 still runs to the cap
    import scfde.blind_rx as blind_rx

    step = _am_step
    precisions = []

    def bumped_fourth_single_step(c, lam, mu):
        precisions.append(c.F_L.dtype)
        lam, H_t, residual = step(c, lam, mu)
        return lam, H_t, 1.0 if len(precisions) == 4 else residual

    monkeypatch.setattr(blind_rx, "_am_step", bumped_fourth_single_step)
    rng = np.random.default_rng(5)
    _, _, _, _, Yf = noiseless_setup(64, 2, 4, 16, seed=5)
    Yf = Yf + 0.3 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape))
    est = am(Yf, 2)
    assert est.iterations == BlindConfig.max_iter
    assert precisions == [np.complex64] * 4 + [complex] * (BlindConfig.max_iter - 2)
    c = est.compression
    handover, _, single = stepped(c.single(), first_spectrum(c), 2)
    lam, _, double = stepped(c, handover, BlindConfig.max_iter - 2)
    assert np.array_equal(est.residual_trace, np.concatenate((single, double)))
    assert np.array_equal(est.lambda_hat, lam)


def test_a_degenerate_bin_in_single_precision_goes_on_in_double(monkeypatch):
    # a single-precision step that raises DegenerateBinError does not fail the
    # frame: AM takes the double step from the same iterate and goes on there
    import scfde.blind_rx as blind_rx

    step = _am_step
    precisions = []

    def degenerate_third_single_step(c, lam, mu):
        if c.F_L.dtype == np.complex64 and len(precisions) == 2:
            raise DegenerateBinError(0)
        precisions.append(c.F_L.dtype)
        return step(c, lam, mu)

    monkeypatch.setattr(blind_rx, "_am_step", degenerate_third_single_step)
    _, _, _, _, Yf = noiseless_setup(64, 2, 4, 16, seed=5)
    est = am(Yf, 2)
    assert precisions == [np.complex64] * 2 + [complex] * (est.iterations - 2)
    c = est.compression
    handover, _, single = stepped(c.single(), first_spectrum(c), 2)
    lam, _, double = stepped(c, handover, est.iterations - 2)
    assert np.array_equal(est.residual_trace, np.concatenate((single, double)))
    assert np.array_equal(est.lambda_hat, lam)


def test_mrc_degenerate_bin_identified():
    Yf = np.ones((8, 2), dtype=complex)
    H = np.ones((8, 2), dtype=complex)
    H[5, :] = 0
    with pytest.raises(DegenerateBinError) as info:
        mrc_combine(Yf, H)
    assert info.value.bin_index == 5


def test_flat_channel_noiseless_recovery():
    rng = np.random.default_rng(3)
    cfg = FrameConfig(P=64, L=1, M=16)
    frame = build_frame(cfg, random_payload(cfg, rng))
    ch = np.ones((1, 4), dtype=complex)
    Yf = dft(convolve_channel(frame, ch))
    est = am(Yf, 1)
    assert est.iterations <= 3
    recon = est.lambda_hat[:, None] * (dft_first_columns(64, 1) @ est.H_t_hat)
    assert np.linalg.norm(Yf - recon) / np.linalg.norm(Yf) < 1e-6
    x_hat = idft(est.lambda_hat)
    x = frame
    cosine = abs(np.vdot(x_hat, x)) / (np.linalg.norm(x_hat) * np.linalg.norm(x))
    assert cosine > 0.999


def test_noiseless_two_tap_residual_frozen_instance():
    # verified draw: this channel/payload reaches 2.0e-4 at the cap of 100
    # (3.5e-4 by iteration 50); seeds 100-104 land between 2e-4 and 1.3e-3
    cfg, _, frame, ch, Yf = noiseless_setup(64, 2, 8, 64, seed=101)
    est = am(Yf, 2)
    assert est.residual_trace[-1] < 1e-3
    for seed in range(100, 105):
        _, _, _, _, Yf_s = noiseless_setup(64, 2, 8, 64, seed=seed)
        est_s = am(Yf_s, 2)
        assert est_s.residual_trace[-1] < 5e-3


def test_estimate_internal_consistency():
    cfg, _, _, _, Yf = noiseless_setup(128, 3, 4, 16, seed=4)
    est = am(Yf, 3)
    # the closed-form residual of the last step on the compression (K = 3 of
    # Nr = 4 columns) equals the direct one of the taps mapped back to Nr
    assert est.H_t_hat.shape == (3, 4)
    F_L = dft_first_columns(128, 3)
    recon = est.lambda_hat[:, None] * (F_L @ est.H_t_hat)
    direct = np.linalg.norm(Yf - recon) / np.linalg.norm(Yf)
    assert abs(direct - est.residual_trace[-1]) < 1e-10
    assert est.iterations == len(est.residual_trace) <= BlindConfig.max_iter
    assert np.all(np.isfinite(est.residual_trace))
    assert np.all(est.residual_trace >= 0)


def test_am_on_full_rank_compression_matches_full_width():
    # with K = Nr the compression Yf V_K only rotates the antennas, and an AM
    # step commutes with that rotation: the same spectrum, taps rotated back.
    # This frame takes 99 single-precision steps and finishes with one double
    # step. The single stage on the full width matches AM's to float32
    # rounding; from AM's own hand-over iterate, the double step on the full
    # width matches AM's exactly
    rng = np.random.default_rng(19)
    cfg, _, _, _, Yf = noiseless_setup(64, 4, 4, 16, seed=19)
    Yf = Yf + 0.1 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape))
    est = am(Yf, 4)
    assert est.iterations == BlindConfig.max_iter
    full = laid_out(Yf, np.linalg.norm(Yf) ** 2, 4)
    start = first_spectrum(est.compression)
    handover, _, single = stepped(est.compression.single(), start, 99)
    assert np.array_equal(est.residual_trace[:99], single)
    _, _, full_single = stepped(full.single(), start, 99)
    assert np.max(np.abs(full_single - single)) <= 20 * EPS32
    lam, H_t, trace = stepped(full, handover, 1)
    assert np.linalg.norm(est.lambda_hat - lam) <= 1e-12 * np.linalg.norm(lam)
    assert np.linalg.norm(est.H_t_hat - H_t) <= 1e-12 * np.linalg.norm(H_t)
    assert np.max(np.abs(est.residual_trace[99:] - trace)) <= 1e-12


def dense_am_step(Yf, lam, F_L, mu, energy):
    """Reference AM iteration: the dense ridge solve on A = diag(lam) F_L,
    then MRC against the explicit per-bin channel F_L H_t."""
    H_t = regularized_ls(lam[:, None] * F_L, Yf, mu)
    Hn = F_L @ H_t
    num = (Yf * Hn.conj()).sum(axis=1)
    den = (np.abs(Hn) ** 2).sum(axis=1)
    fit = float((np.abs(num) ** 2 / den).sum())
    return num / den, H_t, np.sqrt(max(energy - fit, 0.0) / energy)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 16),
    extra=st.integers(1, 60),
    Nr=st.integers(1, 80),
    mu=st.sampled_from([0.01, 0.5, 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=12, extra=1, Nr=1, mu=0.5, seed=2558169)
def test_am_step_matches_dense_reference_step(L, extra, Nr, mu, seed):
    P = 2 * L + extra  # Nr > P happens too
    rng = np.random.default_rng(seed)
    Yf = rng.standard_normal((P, Nr)) + 1j * rng.standard_normal((P, Nr))
    lam = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    F_L = dft_first_columns(P, L)
    energy = float(np.linalg.norm(Yf) ** 2)
    lam_new, H_t, residual = _am_step(laid_out(Yf, energy, L), lam, mu)
    lam_ref, H_ref, residual_ref = dense_am_step(Yf, lam, F_L, mu, energy)
    assert np.linalg.norm(lam_new - lam_ref) <= 1e-12 * np.linalg.norm(lam_ref)
    assert np.linalg.norm(H_t - H_ref) <= 1e-12 * np.linalg.norm(H_ref)
    # compared squared: at a perfect fit (Nr = 1) both residuals are square
    # roots of a rounding-level difference of energies
    assert abs(residual**2 - residual_ref**2) <= 1e-12
    # the same step on the complex64 copy at unit energy, whose taps are
    # scaled by 1 / sqrt(energy), to float32 rounding (the fit is in double)
    single = laid_out(Yf, energy, L).single()
    lam32, H32, residual32 = _am_step(single, lam.astype(np.complex64), mu)
    assert lam32.dtype == H32.dtype == np.complex64
    assert np.linalg.norm(lam32 - lam_ref) <= 200 * EPS32 * np.linalg.norm(lam_ref)
    assert np.linalg.norm(H32 * np.sqrt(energy) - H_ref) <= 200 * EPS32 * np.linalg.norm(H_ref)
    assert abs(residual32**2 - residual_ref**2) <= 10 * EPS32


def dividing_am_step(c, lam, mu):
    """_am_step with the spectrum update written as numpy's complex division
    num / den and the residual taken with np.sqrt; its products are the same
    real GEMMs on the same block operands."""
    gram = dft_weighted_gram(lam.real**2 + lam.imag**2, c.F_L, mu)
    rhs = ((c.F_rows * lam.conj()).view(np.float64) @ c.Y_blocks).view(complex)
    H_t = np.linalg.solve(gram, rhs)
    G = np.ascontiguousarray(H_t.conj().T).view(np.float64) @ c.F_blocks
    squares = np.square(G).sum(0)
    den = squares[0::2] + squares[1::2]
    num = (G.view(complex) * c.Y_rows).sum(0)
    lam = num / den
    fit = np.vdot(lam, num).real
    return lam, H_t, np.sqrt(max(c.energy - fit, 0.0) / c.energy)


@pytest.mark.parametrize("P", [256, 512])
def test_am_step_is_bit_equal_to_the_dividing_reference(P):
    rng = np.random.default_rng(P)
    _, _, _, _, Yf = noiseless_setup(P, 9, 64, 64, seed=P)
    Yf = Yf + 0.3 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape))
    c = Compression.of(Yf, BlindConfig(L_est=9))
    lam = ref = first_spectrum(c)
    for _ in range(20):
        lam, H_t, residual = _am_step(c, lam, 0.5)
        ref, H_ref, residual_ref = dividing_am_step(c, ref, 0.5)
        assert np.array_equal(lam.view(np.float64), ref.view(np.float64))
        assert np.array_equal(H_t.view(np.float64), H_ref.view(np.float64))
        assert residual == residual_ref


def assert_real_form(blocks, Z):
    """blocks is the real form of the complex Z, entry for entry: each z =
    c + jd is the 2 x 2 block [[c, d], [-d, c]], in Z's precision."""
    assert blocks.shape == (2 * Z.shape[0], 2 * Z.shape[1])
    assert blocks.dtype == Z.real.dtype and not blocks.flags.writeable
    for rows, cols, part in ((0, 0, Z.real), (0, 1, Z.imag), (1, 0, -Z.imag), (1, 1, Z.real)):
        assert np.array_equal(blocks[rows::2, cols::2], part)


def test_each_compression_carries_the_real_form_of_its_own_rows():
    # of() lays out the double rows' blocks, and single() the blocks of its
    # own unit-energy complex64 rows, not a cast of the double blocks; both
    # share the cached real form of F_L^H in their precision
    rng = np.random.default_rng(7)
    _, _, _, _, Yf = noiseless_setup(128, 3, 8, 16, seed=7)
    Yf = 1e3 * (Yf + 0.1 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape)))
    c = Compression.of(Yf, BlindConfig(L_est=3))
    for comp in (c, c.single()):
        assert_real_form(comp.Y_blocks, comp.Y_rows.T)
        assert_real_form(comp.F_blocks, comp.F_rows)
    assert c.single().F_blocks is c.single().F_blocks  # one cached copy


def test_am_step_zero_spectrum_raises_at_bin_zero():
    P, L, Nr = 16, 3, 4
    c = laid_out(np.ones((P, Nr), dtype=complex), P * Nr, L)
    with pytest.raises(DegenerateBinError) as info:
        _am_step(c, np.zeros(P, dtype=complex), 0.5)
    assert info.value.bin_index == 0


def test_alternating_minimization_preconditions():
    with pytest.raises(ValueError):
        Compression.of(np.ones((8, 2), dtype=complex), BlindConfig(L_est=4))
    with pytest.raises(TypeError):  # AM's stop takes no tolerance
        BlindConfig(L_est=2, eps=1e-4)
    with pytest.raises(TypeError):  # nor a ridge weight: it is _MU
        BlindConfig(L_est=2, mu=0.5)
    with pytest.raises(TypeError):  # nor an iteration cap: it is a class constant
        BlindConfig(L_est=2, max_iter=50)
    with pytest.raises(ValueError):
        BlindConfig(L_est=0)
    with pytest.raises(ValueError):  # no antenna column: compress_columns refuses K = 0
        Compression.of(np.ones((64, 0), dtype=complex), BlindConfig(L_est=2))


def test_blind_config_is_frozen():
    # a checked config stays checked: L_est >= 1 cannot be undone later
    cfg = BlindConfig(L_est=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.L_est = 0


def test_pilot_alpha_pure_scale():
    cfg = FrameConfig(P=32, L=2, M=16)
    frame = build_frame(cfg, random_payload(cfg, np.random.default_rng(6)))
    alpha = 2.0 * np.exp(0.3j)
    x_hat = alpha * frame
    alpha_hat = pilot_alpha(x_hat, cfg)
    assert abs(alpha_hat - alpha) < 1e-12
    x_derot = x_hat / alpha_hat
    assert np.allclose(x_derot, frame, rtol=1e-12, atol=1e-12)
    assert np.isclose(x_derot[cfg.pilot_index], cfg.pilot_value, rtol=1e-12)


def test_pilot_alpha_identity():
    cfg = FrameConfig(P=32, L=2, M=16)
    frame = build_frame(cfg, random_payload(cfg, np.random.default_rng(7)))
    alpha_hat = pilot_alpha(frame, cfg)
    assert abs(alpha_hat - 1.0) < 1e-12


def test_pilot_alpha_noisy_pilot_single_sample_oracle():
    cfg = FrameConfig(P=32, L=2, M=16)
    frame = build_frame(cfg, random_payload(cfg, np.random.default_rng(8)))
    alpha = 1.3 * np.exp(-0.2j)
    e = 0.05 + 0.02j
    x_hat = alpha * frame
    x_hat[cfg.pilot_index] += e
    alpha_hat = pilot_alpha(x_hat, cfg)
    oracle = (alpha * cfg.pilot_value + e) / cfg.pilot_value
    assert abs(alpha_hat - oracle) < 1e-15


def test_pilot_annihilated_raises():
    cfg = FrameConfig(P=32, L=2, M=16)
    frame = build_frame(cfg, random_payload(cfg, np.random.default_rng(9)))
    x_hat = frame.copy()
    x_hat[cfg.pilot_index] = 0
    with pytest.raises(PilotLossError):
        pilot_alpha(x_hat, cfg)
    with pytest.raises(PilotLossError):  # QQ's scale starts from the pilot
        qq_alpha(x_hat, cfg)
    with pytest.raises(PilotLossError, match="all data samples are zero"):  # CA reads the data
        ca_alpha(np.zeros(cfg.P, dtype=complex), cfg)


def test_ca_alpha_identity_on_clean_frame():
    cfg = FrameConfig(P=64, L=2, M=64)
    frame = build_frame(cfg, random_payload(cfg, np.random.default_rng(10)))
    out = frame / ca_alpha(frame, cfg)
    assert np.allclose(out, frame, rtol=0, atol=1e-9)


def test_ca_alpha_resolves_quadrant_rotations():
    cfg, bits, frame, _ = all_symbol_frame(64)
    tx = qam_modulate(bits, 64)
    for k in range(4):
        x_hat = np.exp(1j * k * np.pi / 2.0) * frame
        out = x_hat / ca_alpha(x_hat, cfg)
        assert np.allclose(out, frame, rtol=0, atol=1e-6)
        _, hard = qam_demodulate(extract_data(cfg, out), 64)
        assert np.array_equal(hard, tx)


def test_ca_alpha_known_distortion_exact_decisions():
    cfg, bits, frame, x_hat = all_symbol_frame(64, distortion=2.0 * np.exp(0.1j))
    out = x_hat / ca_alpha(x_hat, cfg)
    _, hard = qam_demodulate(extract_data(cfg, out), 64)
    assert np.array_equal(hard, qam_modulate(bits, 64))
    assert np.allclose(out, frame, rtol=0, atol=1e-9)


def test_qq_identity_under_uniform_coverage():
    cfg, _, frame, _ = all_symbol_frame(64)
    out = frame / qq_alpha(frame, cfg)
    assert np.allclose(out, frame, rtol=0, atol=1e-12)


def scaled_data(frame, cfg, alpha):
    """frame with its data samples times alpha and its pilot left exact, so
    that pilot_alpha is 1 and qq_alpha is the quadrant collapse alone."""
    x = frame.copy()
    x[cfg.data_indices] *= alpha
    return x


def test_qq_recovers_small_rotation_and_scale():
    # the pilot resolves any global scale, even one far outside a quadrant
    cfg, _, frame, _ = all_symbol_frame(64)
    for alpha in (np.exp(0.05j), 1.1 + 0.0j, np.exp(2j), 0.3 * np.exp(-2.5j)):
        x = alpha * frame
        assert abs(qq_alpha(x, cfg) - alpha) <= 1e-9
        out = x / qq_alpha(x, cfg)
        assert np.allclose(out, frame, rtol=0, atol=1e-9)
    # a scale on the data alone is left to the quadrant collapse
    for alpha in (np.exp(0.05j), 1.1 + 0.0j, 0.9 * np.exp(-0.05j)):
        x = scaled_data(frame, cfg, alpha)
        assert pilot_alpha(x, cfg) == 1.0
        assert abs(qq_alpha(x, cfg) - alpha) <= 1e-9


def test_qq_phase_commutation_qpsk_quarter_turn():
    # on QPSK the quadrant sets survive any |theta| < pi/4 rotation intact
    cfg, _, frame, _ = all_symbol_frame(4)
    for theta in (-0.7, -0.3, 0.3, 0.7):
        x = np.exp(1j * theta) * frame
        out = x / qq_alpha(x, cfg)
        assert np.allclose(out, frame, rtol=0, atol=1e-6)
        # rotating the data alone, the collapse itself must undo the turn
        x = scaled_data(frame, cfg, np.exp(1j * theta))
        assert pilot_alpha(x, cfg) == 1.0
        assert abs(qq_alpha(x, cfg) - np.exp(1j * theta)) <= 1e-12


def test_qq_renormalizes_over_empty_quadrants():
    # payload restricted to quadrants 1 and 2 still yields the exact scale
    cfg = FrameConfig(P=9, L=1, M=4)
    bits = np.array([0, 0, 1, 0] * 4)  # symbols alternate quadrant 1, 2
    frame = build_frame(cfg, bits)
    x = 1.05 * frame
    out = x / qq_alpha(x, cfg)
    assert np.allclose(out, frame, rtol=0, atol=1e-12)


def test_qq_all_zero_data_warns_and_passes_through():
    cfg = FrameConfig(P=9, L=1, M=4)
    x = np.zeros(9, dtype=complex)
    x[cfg.pilot_index] = cfg.pilot_value
    with pytest.warns(UserWarning):
        alpha = qq_alpha(x, cfg)
    assert alpha == 1.0
    assert np.array_equal(x / alpha, x)


def test_decode_frame_shares_estimate_and_scales_exactly(monkeypatch):
    # with no decision-directed round every mode decodes the AM estimate
    import scfde.blind_rx as blind_rx

    cfg, payload, frame, ch, Yf = noiseless_setup(64, 2, 8, 16, seed=11)
    monkeypatch.setattr(blind_rx, "_DD_ROUNDS", 0)
    result = decode(Yf, cfg, BlindConfig(L_est=2))
    assert set(result.modes) == {"blind_pilot", "blind_ca", "blind_qq"}
    x_hat = idft(result.estimate.lambda_hat)
    alphas = {
        "blind_pilot": pilot_alpha(x_hat, cfg),
        "blind_ca": ca_alpha(x_hat, cfg),
        "blind_qq": qq_alpha(x_hat, cfg),
    }
    for mode, decoded in result.modes.items():
        bits, _ = qam_demodulate(extract_data(cfg, x_hat / alphas[mode]), cfg.M)
        assert np.array_equal(decoded.bits, bits), mode
        assert np.isnan(decoded.dd_changed), mode
    assert np.array_equal(result.modes["blind_pilot"].bits, payload)


def test_decode_frame_rounds_are_a_fixed_point_on_a_noiseless_frame():
    # decisions that are all right rebuild the true spectrum, from which the
    # unregularized re-solve returns the exact taps and MRC the exact spectrum,
    # at the transmitted scale whatever scale estimate took the first decisions
    cfg, payload, frame, ch, Yf = noiseless_setup(128, 3, 8, 16, seed=18)
    result = decode(Yf, cfg, BlindConfig(L_est=3))
    assert set(result.modes) == {"blind_pilot", "blind_ca", "blind_qq"}
    truth = dft(frame)
    for mode, decoded in result.modes.items():
        assert decoded.dd_changed == 0, mode
        assert np.array_equal(decoded.bits, payload), mode
        rebuilt = dft(build_frame(cfg, decoded.bits))
        lam, _, _ = _am_step(result.estimate.compression, rebuilt, 0.0)
        scale = np.vdot(truth, lam) / np.vdot(truth, truth)
        assert abs(scale - 1) <= 1e-10, mode
        assert np.linalg.norm(lam - truth) <= 1e-10 * np.linalg.norm(lam), mode


def test_decode_frame_re_solves_each_decision_vector_once(monkeypatch):
    # all three modes decide the payload on this frame (QQ despite its bias),
    # and the rounds are a fixed point there, so one unregularized re-solve
    # serves both rounds of every mode
    import scfde.blind_rx as blind_rx

    cfg, payload, _, _, Yf = noiseless_setup(128, 3, 8, 16, seed=18)
    step, rounds = blind_rx._am_step, []

    def counted_step(c, lam, mu):
        rounds.extend([mu] if mu == 0.0 else [])
        return step(c, lam, mu)

    monkeypatch.setattr(blind_rx, "_am_step", counted_step)
    result = decode(Yf, cfg, BlindConfig(L_est=3))
    assert len(rounds) == 1
    assert len({id(decoded) for decoded in result.modes.values()}) == 1
    monkeypatch.setattr(blind_rx, "_DD_ROUNDS", 0)
    first = decode(Yf, cfg, BlindConfig(L_est=3)).modes
    assert all(np.array_equal(d.bits, payload) for d in first.values())


def test_dd_changed_counts_the_decisions_the_last_round_moved(monkeypatch):
    # decoding with one round fewer gives the decisions the last round started from
    import scfde.blind_rx as blind_rx

    rng = np.random.default_rng(20)
    cfg, _, _, _, Yf = noiseless_setup(256, 4, 8, 64, seed=20)
    Yf = Yf + 0.25 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape))
    decoded = []
    for n in (0, 1, 2):
        monkeypatch.setattr(blind_rx, "_DD_ROUNDS", n)
        decoded.append(decode(Yf, cfg, BlindConfig(L_est=4)).modes)
    moved = 0
    for n in (1, 2):
        for mode, last in decoded[n].items():
            prev = decoded[n - 1][mode]
            changed = np.count_nonzero(
                qam_modulate(last.bits, cfg.M) != qam_modulate(prev.bits, cfg.M)
            )
            assert last.dd_changed == changed, (n, mode)
            moved += changed
    assert moved > 0  # the frame is noisy enough for the rounds to move decisions


def test_decode_frame_fails_exactly_the_modes_reaching_a_failed_round(monkeypatch):
    import scfde.blind_rx as blind_rx

    cfg, payload, frame, _, Yf = noiseless_setup(64, 2, 4, 16, seed=13)
    truth = dft(frame)
    step, ca_alpha_of = blind_rx._am_step, blind_rx.ca_alpha

    def round_fails_on(fails_on_truth):
        def stepped(c, lam, mu):
            # a decision-directed round, not an AM iteration, on the chosen frame
            if mu == 0.0 and np.array_equal(lam, truth) == fails_on_truth:
                raise DegenerateBinError(7)
            return step(c, lam, mu)

        return stepped

    # a quarter-turned CA scale leads CA alone to rotated decisions, whose
    # round fails; pilot and QQ decide the payload and decode it
    def rotated_ca(x, cfg):
        return 1j * ca_alpha_of(x, cfg)

    monkeypatch.setattr(blind_rx, "ca_alpha", rotated_ca)
    monkeypatch.setitem(blind_rx.MODES, "blind_ca", rotated_ca)
    monkeypatch.setattr(blind_rx, "_am_step", round_fails_on(False))
    result = decode(Yf, cfg, BlindConfig(L_est=2))
    assert set(result.failures) == {"blind_ca"}
    assert result.failures["blind_ca"].bin_index == 7
    assert set(result.modes) == {"blind_pilot", "blind_qq"}
    for decoded in result.modes.values():
        assert np.array_equal(decoded.bits, payload)

    # the payload's round fails both modes that reach it, and CA, rotated
    # away from it, decodes
    monkeypatch.setattr(blind_rx, "_am_step", round_fails_on(True))
    result = decode(Yf, cfg, BlindConfig(L_est=2))
    assert set(result.failures) == {"blind_pilot", "blind_qq"}
    assert set(result.modes) == {"blind_ca"}
    assert all(err.bin_index == 7 for err in result.failures.values())


def test_decode_frame_refines_only_the_given_modes(monkeypatch):
    import scfde.blind_rx as blind_rx

    cfg, _, _, _, Yf = noiseless_setup(64, 2, 4, 16, seed=13)
    blind = BlindConfig(L_est=2)
    full = decode(Yf, cfg, blind)
    step, rounds = blind_rx._am_step, []

    def counted_step(c, lam, mu):
        rounds.extend([mu] if mu == 0.0 else [])
        return step(c, lam, mu)

    def same_decode(a, b):
        return np.array_equal(a.bits, b.bits) and a.dd_changed == b.dd_changed

    monkeypatch.setattr(blind_rx, "_am_step", counted_step)
    for mode in ("blind_pilot", "blind_qq", "blind_ca"):
        rounds.clear()
        result = decode(Yf, cfg, blind, (mode,))
        assert set(result.modes) == {mode} and not result.failures
        assert 1 <= len(rounds) <= blind_rx._DD_ROUNDS, mode
        assert same_decode(result.modes[mode], full.modes[mode]), mode
    # the order of the modes does not change any of them
    backwards = ("blind_ca", "blind_qq", "blind_pilot")
    reversed_modes = decode(Yf, cfg, blind, backwards)
    assert tuple(reversed_modes.modes) == backwards
    for mode, decoded in reversed_modes.modes.items():
        assert same_decode(decoded, full.modes[mode]), mode
    # a failure of an unselected mode is left out as well
    def broken_pilot(x_hat, frame_cfg):
        raise PilotLossError("synthetic pilot loss")

    monkeypatch.setattr(blind_rx, "pilot_alpha", broken_pilot)
    monkeypatch.setitem(blind_rx.MODES, "blind_pilot", broken_pilot)
    result = decode(Yf, cfg, blind, ("blind_ca",))
    assert set(result.modes) == {"blind_ca"} and not result.failures


def test_decode_frame_invariant_under_unitary_antenna_rotation():
    # Yf @ V, V the eigenvectors of Yf^H Yf in ascending order, is the same
    # receive matrix seen through rotated antennas, with its weakest direction
    # in the first column; the decisions must not change
    rng = np.random.default_rng(14)
    blind = BlindConfig(L_est=4)
    for seed in (15, 16):
        cfg, payload, _, _, Yf = noiseless_setup(256, 4, 16, 64, seed=seed)
        Yf = Yf + 0.1 * (rng.standard_normal(Yf.shape) + 1j * rng.standard_normal(Yf.shape))
        V = np.linalg.eigh(Yf.conj().T @ Yf)[1]
        decisions = []
        for received in (Yf, Yf @ V):
            decisions.append(decode(received, cfg, blind).modes["blind_pilot"].bits)
        assert np.array_equal(decisions[0], decisions[1])
        assert np.count_nonzero(decisions[0] != payload) < payload.size // 100


def test_decode_frame_isolates_pilot_failure_from_ca(monkeypatch):
    import scfde.blind_rx as blind_rx

    cfg, _, _, _, Yf = noiseless_setup(64, 2, 4, 16, seed=13)

    def broken_pilot(x_hat, frame_cfg):
        raise PilotLossError("synthetic pilot loss")

    monkeypatch.setattr(blind_rx, "pilot_alpha", broken_pilot)  # QQ's scale calls it
    monkeypatch.setitem(blind_rx.MODES, "blind_pilot", broken_pilot)
    result = decode(Yf, cfg, BlindConfig(L_est=2))
    assert set(result.failures) == {"blind_pilot", "blind_qq"}
    assert set(result.modes) == {"blind_ca"}


def test_every_mode_is_a_public_scale_estimator():
    import scfde.blind_rx as blind_rx

    assert tuple(blind_rx.MODES) == ("blind_pilot", "blind_ca", "blind_qq")
    for mode, fn in blind_rx.MODES.items():
        assert not fn.__name__.startswith("_"), mode
        assert getattr(blind_rx, fn.__name__) is fn, mode


def test_decode_frame_rejects_unknown_modes(monkeypatch):
    import scfde.blind_rx as blind_rx

    cfg, _, _, _, Yf = noiseless_setup(64, 2, 4, 16, seed=13)

    def no_am(*args):
        raise AssertionError("AM ran before the modes were checked")

    monkeypatch.setattr(blind_rx, "alternating_minimization", no_am)
    # the short names the blind receivers once had are unknown too
    for modes in (("bogus", "PILOT"), ("blind_pilot", "pilot"), ("ca",), ("qq", "")):
        with pytest.raises(ValueError, match="unknown modes"):
            decode(Yf, cfg, BlindConfig(L_est=2), modes)


def test_a_decoded_frame_is_its_bits_and_dd_changed():
    # a mode returns its hard decisions alone, and nothing in the package reads
    # a time estimate or symbol decisions off a decode result
    assert [f.name for f in dataclasses.fields(ModeEstimate)] == ["bits", "dd_changed"]
    package = Path(__file__).parents[1] / "src" / "scfde"
    readers = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\.(x_hat|symbols)\b", line)
    ]
    assert readers == []
