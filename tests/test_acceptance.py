"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line with the measured quantities, so a
``pytest tests/test_acceptance.py -v -s`` run doubles as the sign-off
report. The heavier sweeps run on two worker processes.
"""

import dataclasses
import time

import numpy as np

from scfde.blind_rx import (
    BlindConfig,
    Compression,
    ca_alpha,
    decode_frame,
    qq_alpha,
)
from scfde.channel import convolve_channel, draw_channel, geometric_profile
from scfde.constellation import get_constellation, qam_demodulate, qam_modulate
from scfde.frame import FrameConfig, build_frame, extract_data, random_payload
from scfde.matrixkit import (
    circulant_eigenvalues,
    compress_columns,
    dft,
    dft_first_columns,
    regularized_ls,
)
from scfde.harness import PRESETS, SimulationConfig, render_csv, sweep

WORKERS = 2


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def complex_randn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def run_cell(cfg, snr_db, frames, P=None):
    """One (P, snr) sweep cell on a worker pool, returned per receiver."""
    P = P if P is not None else cfg.seq_lengths[0]
    cfg = dataclasses.replace(
        cfg, seq_lengths=(P,), snr_db_list=(snr_db,), frames_per_point=frames, workers=WORKERS
    )
    return {pt.receiver: pt for pt in sweep(cfg)}


def test_criterion_1_model_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for P in (16, 64, 1024):
        for _ in range(100):
            L = 5
            x = complex_randn(rng, P)
            ch = draw_channel(geometric_profile(L), 3, rng)
            Yf = dft(convolve_channel(x, ch))
            model = circulant_eigenvalues(x)[:, None] * (dft_first_columns(P, L) @ ch)
            worst = max(worst, np.linalg.norm(Yf - model) / np.linalg.norm(Yf))

    # explicit circulant diagonalization at P = 8
    P = 8
    x = complex_randn(rng, P)
    C = x[(np.arange(P)[:, None] - np.arange(P)[None, :]) % P]
    k = np.arange(P)
    F = np.exp(-2j * np.pi * np.outer(k, k) / P) / np.sqrt(P)
    D = F @ C @ F.conj().T
    off_diag = np.linalg.norm(D - np.diag(np.diag(D))) / np.linalg.norm(D)
    eig_err = np.max(np.abs(np.diag(D) - circulant_eigenvalues(x)))

    ok = worst < 1e-10 and off_diag < 1e-12 and eig_err < 1e-12
    report(
        1, "model identities",
        ok,
        f"worst frequency-model rel err {worst:.2e} (300 draws), circulant "
        f"off-diagonal {off_diag:.2e}, eigenvalue err {eig_err:.2e}",
    )


def test_criterion_2_oracle_equivalence_suite():
    rng = np.random.default_rng(77)

    worst_ls = 0.0
    for _ in range(100):
        A = complex_randn(rng, 16, 3)
        Yf = complex_randn(rng, 16, 4)
        mu = float(rng.uniform(0.05, 0.95))
        H = regularized_ls(A, Yf, mu)
        oracle = np.linalg.inv(A.conj().T @ A + mu * np.eye(3)) @ (A.conj().T @ Yf)
        worst_ls = max(worst_ls, np.linalg.norm(H - oracle) / np.linalg.norm(oracle))

    worst_align = 1.0
    for _ in range(50):
        Yf = complex_randn(rng, 12, 5)
        Yc = compress_columns(Yf, 3)[0]
        u = Yc[:, 0] / np.linalg.norm(Yc[:, 0])
        u_ref = np.linalg.svd(Yf)[0][:, 0]
        worst_align = min(worst_align, abs(np.vdot(u, u_ref)))

    worst_conv = 0.0
    for P in range(4, 33):
        x = complex_randn(rng, P)
        L = min(4, P)
        ch = draw_channel(geometric_profile(L), 2, rng)
        Y = convolve_channel(x, ch)
        for r in range(2):
            oracle = np.array(
                [sum(ch[l, r] * x[(n - l) % P] for l in range(L)) for n in range(P)]
            )
            worst_conv = max(worst_conv, np.max(np.abs(Y[:, r] - oracle)))

    ok = worst_ls < 1e-10 and worst_align > 1 - 1e-6 and worst_conv < 1e-10
    report(
        2, "oracle equivalence",
        ok,
        f"ridge-LS vs normal equations {worst_ls:.2e}, initializer-vs-SVD "
        f"alignment {worst_align:.12f}, convolution vs direct sum {worst_conv:.2e}",
    )


def test_criterion_3_noiseless_blind_recovery():
    P, Nr, L, M, frames = 256, 16, 4, 64, 50
    cfg = FrameConfig(P=P, L=L, M=M)
    blind = BlindConfig(L_est=L)
    clean, stopped = 0, []
    for t in range(frames):
        rng = np.random.default_rng(160_000 + t)
        payload = random_payload(cfg, rng)
        frame = build_frame(cfg, payload)
        ch = draw_channel(geometric_profile(L), Nr, rng)
        Yf = dft(convolve_channel(frame, ch))
        result = decode_frame(Compression.of(Yf, blind), cfg, blind)
        est = result.estimate
        if est.iterations < blind.max_iter:
            stopped.append((t, est.iterations, est.residual_trace[-1]))
        # the Gray map is a bijection, so equal bits are equal symbol decisions
        if np.array_equal(result.modes["blind_pilot"].bits, payload):
            clean += 1
    stalls_ok = all(residual < 1e-3 for _, _, residual in stopped)
    ok = clean >= 48 and stalls_ok
    report(
        3, "noiseless blind recovery",
        ok,
        f"{clean}/{frames} frames symbol-error-free after pilot de-rotation; "
        f"{len(stopped)}/{frames} stopped before the cap ("
        + "; ".join(f"trial {t} at step {k}, residual {r:.2e}" for t, k, r in stopped)
        + f"), every one below 1e-3 residual: {stalls_ok}",
    )


def test_criterion_4_low_snr_ordering_vs_baseline():
    cfg = SimulationConfig(**PRESETS["fig5"], seed=501)
    cell = run_cell(cfg, snr_db=7.0, frames=200)
    qq, ca, mrc = cell["blind_qq"].ber, cell["blind_ca"].ber, cell["mrc_ofdm"].ber
    ok = qq <= mrc and ca <= mrc
    report(
        4, "low-SNR ordering",
        ok,
        f"at 7 dB over 200 frames: BER qq={qq:.3e}, ca={ca:.3e}, mrc_ofdm={mrc:.3e}",
    )


def test_criterion_5_high_snr_drift():
    # NOTE: AM alone at the 100-iteration cap made 1/1/2 pilot/CA/QQ bit
    # errors here (trials 192, 280 and 309, which stop before AM converges);
    # the decision-directed rounds after AM decode all 500 frames error-free,
    # so the ordering holds with equal (zero) counts; ROADMAP item 2 has the
    # counts of a shorter AM.
    cfg = SimulationConfig(
        **PRESETS["fig5"], receivers=("blind_pilot", "blind_ca", "blind_qq"), seed=502
    )
    cell = run_cell(cfg, snr_db=16.0, frames=500)
    pilot, ca, qq = (cell[r] for r in ("blind_pilot", "blind_ca", "blind_qq"))
    ok = pilot.ber >= ca.ber and pilot.ber >= qq.ber
    report(
        5, "high-SNR drift",
        ok,
        f"at 16 dB over 500 frames: bit errors pilot={pilot.bit_errors}, "
        f"ca={ca.bit_errors}, qq={qq.bit_errors} of {pilot.bits_total} bits each "
        f"(BER {pilot.ber:.2e} / {ca.ber:.2e} / {qq.ber:.2e})",
    )


def test_criterion_6_sequence_length_scaling():
    cfg = SimulationConfig(**PRESETS["fig7"], receivers=("blind_qq",), seed=503)
    cells = {P: run_cell(cfg, snr_db=7.0, frames=60, P=P)["blind_qq"] for P in (256, 512, 1024)}
    residuals = {P: cells[P].mean_final_residual for P in cells}
    res_ok = residuals[256] > residuals[512] > residuals[1024]

    def non_increasing_with_confidence(lo, hi):
        p1, n1 = lo.ber, lo.bits_total
        p2, n2 = hi.ber, hi.bits_total
        margin = 1.96 * np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
        return p2 <= p1 + margin

    ber_ok = non_increasing_with_confidence(cells[256], cells[512]) and \
        non_increasing_with_confidence(cells[512], cells[1024])
    ok = res_ok and ber_ok
    report(
        6, "sequence-length scaling",
        ok,
        "mean final residual "
        + " > ".join(f"{residuals[P]:.5f} (P={P})" for P in (256, 512, 1024))
        + f"; BER {cells[256].ber:.3e} -> {cells[512].ber:.3e} -> {cells[1024].ber:.3e} "
        f"non-increasing within 95% confidence: {ber_ok}",
    )


def test_criterion_7_per_iteration_cost_scaling():
    # times single iterations of the decoder's update (_am_step, the function
    # the production loop runs, on the P x K compression of Yf it runs on,
    # K = min(Nr, L_est)) and compares best-case floors: the min over
    # hundreds of samples is the standard microbenchmark estimator and is
    # immune to short co-tenant spikes; the two sizes take turns, sample by
    # sample, so a slow phase of the machine hits both of them alike
    from scfde.blind_rx import _am_step

    Nr, L = 64, 9
    comps, lams, samples = {}, {}, {}
    for P in (512, 1024):
        cfg = FrameConfig(P=P, L=L, M=64)
        rng = np.random.default_rng(700 + P)
        frame = build_frame(cfg, random_payload(cfg, rng))
        ch = draw_channel(geometric_profile(L), Nr, rng)
        Y = convolve_channel(frame, ch) + 0.3 * complex_randn(rng, P, Nr)
        Yf = dft(Y)
        comps[P] = c = Compression.of(Yf, BlindConfig(L_est=L))
        lams[P] = c.Y_rows[0] / np.linalg.norm(c.Y_rows[0])
        samples[P] = []
    for n in range(300):
        for P, c in comps.items():
            start = time.perf_counter()
            lams[P], _, _ = _am_step(c, lams[P], 0.5)
            if n >= 10:  # discard warm-up
                samples[P].append(time.perf_counter() - start)
    times = {P: min(s) for P, s in samples.items()}
    ratio = times[1024] / times[512]
    ok = ratio <= 2.5
    report(
        7, "per-iteration cost scaling",
        ok,
        f"best-case per-iteration time {times[512]*1e3:.3f} ms (P=512) vs "
        f"{times[1024]*1e3:.3f} ms (P=1024), ratio {ratio:.2f} <= 2.5",
    )


def test_criterion_8_correction_unit_oracles():
    M = 64
    cfg = FrameConfig(P=M + 1, L=1, M=M)
    const = get_constellation(M)
    k = const.bits_per_symbol
    bits = ((np.arange(M)[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()
    frame = build_frame(cfg, bits)
    tx = qam_modulate(bits, M)

    ca_errors = 0
    for distortion in [2.0 * np.exp(0.1j)] + [np.exp(1j * q * np.pi / 2) for q in range(4)]:
        x_hat = distortion * frame
        out = x_hat / ca_alpha(x_hat, cfg)
        _, hard = qam_demodulate(extract_data(cfg, out), M)
        ca_errors += np.count_nonzero(hard != tx)

    x_rot, x_scale = np.exp(0.05j) * frame, 1.1 * frame
    qq_rot = x_rot / qq_alpha(x_rot, cfg)
    qq_scale = x_scale / qq_alpha(x_scale, cfg)
    rot_err = np.max(np.abs(qq_rot - frame))
    scale_err = np.max(np.abs(qq_scale - frame))

    ok = ca_errors == 0 and rot_err < 1e-9 and scale_err < 1e-9
    report(
        8, "correction unit oracles",
        ok,
        f"CA symbol errors {ca_errors} over 5 distortions; QQ residue error "
        f"{rot_err:.2e}, scale error {scale_err:.2e}",
    )


def test_criterion_9_deterministic_csv():
    cfg = SimulationConfig(
        seq_lengths=(64,), Nr=4, L=3, L_est=3, M=16,
        snr_db_list=(6.0, 12.0), frames_per_point=6, seed=99, workers=1,
    )
    first = render_csv(cfg, sweep(cfg))
    second = render_csv(cfg, sweep(cfg))
    eight = render_csv(cfg, sweep(dataclasses.replace(cfg, workers=8)))
    ok = first == second == eight
    report(
        9, "deterministic CSV",
        ok,
        f"byte-identical across repeat runs and worker counts {{1, 8}}: {ok} "
        f"({len(first.splitlines())} lines)",
    )
