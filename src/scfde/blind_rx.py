"""Blind SC-FDE receiver: alternating minimization with per-bin MRC on a
rank-L_est compression of the receive matrix, three estimators of the
global complex scale (pilot, CA, QQ), and decision-directed tap re-solves.

The decoder factors the frequency-domain receive matrix Yf into a diagonal
data spectrum and a short tap matrix by alternating a ridge-regularized
channel solve with a per-bin MRC update of the spectrum. The channel has
rank at most L_est, so the factorization runs on the P x K compression
Yf V_K onto the dominant right singular subspace (K = min(Nr, L_est)). It
is identifiable only up to one global complex scale alpha: the
time-domain estimate x_hat = idft(lambda_hat) is the transmitted frame
times alpha. Each correction mode is one estimate of alpha, taken from the
single pilot alone (pilot_alpha), from the pilot plus a quadrant-centroid
average (pilot_alpha times qq_alpha), or from the corner-symbol cluster
centroid with the pilot picking among the four quadrant rotations
(ca_alpha). decode_frame then refines each mode on its own: it slices
x_hat / alpha, rebuilds the frame from those decisions, re-solves the taps
by least squares given that frame and updates the spectrum by MRC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constellation import get_constellation, qam_demodulate
from .errors import DegenerateBinError, PilotLossError, ReceiverError
from .frame import FrameConfig, build_frame, extract_data
from .matrixkit import (
    compress_columns,
    dft,
    dft_first_columns,
    dft_row_energies,
    dft_weighted_gram,
    idft,
)


# decision-directed tap re-solves each correction mode runs after AM
_DD_ROUNDS = 2


@dataclass
class BlindConfig:
    """Knobs of the alternating-minimization decoder.

    L_est is the assumed tap count (performance degrades only when it drops
    below the true channel length). The ridge weight mu stabilizes the
    channel solve and must stay in (0, 1); eps is the relative-residual
    stopping tolerance and max_iter the iteration cap.
    """

    L_est: int
    mu: float = 0.5
    eps: float = 1e-4
    max_iter: int = 100

    def __post_init__(self):
        if self.L_est < 1:
            raise ValueError(f"L_est must be >= 1, got {self.L_est}")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not self.eps > 0:  # also rejects NaN
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class Compression:
    """The P x K problem AM solves for one frame: Yc = Yf V_K, the full
    energy ||Yf||_F^2 and the DFT columns F_L (and their conjugate), kept so
    that the decision-directed rounds step on the same problem."""

    Yc: np.ndarray = field(repr=False)
    energy: float
    F_L: np.ndarray = field(repr=False)
    F_conj: np.ndarray = field(repr=False)


@dataclass
class ReceiverEstimate:
    """Output of the alternating minimization.

    lambda_hat: length-P diagonal of the estimated data spectrum.
    H_t_hat: L_est x Nr tap estimate (per-bin channel F_{L_est} @ H_t_hat),
    the taps fitted to the compression Yf V_K mapped back to all Nr
    antennas.
    residual_trace: relative residual ||Yf - diag(lambda) F H_t||_F / ||Yf||_F
    after each iteration; converged marks whether the eps target was met
    before the iteration cap.
    compression: the compressed problem the iterations ran on.
    """

    lambda_hat: np.ndarray = field(repr=False)
    H_t_hat: np.ndarray = field(repr=False)
    iterations: int
    residual_trace: np.ndarray = field(repr=False)
    converged: bool
    compression: Compression = field(repr=False)


def _am_step(
    Yf: np.ndarray,
    lam: np.ndarray,
    F_L: np.ndarray,
    F_conj: np.ndarray,
    mu: float,
    energy: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One AM iteration: the ridge channel solve given the spectrum lam, then
    the per-bin MRC update of the spectrum given that channel.

    Only two products touch all of Yf, A^H Yf and Yf H_t^H (P x L x Nr
    each, with A = diag(lam) F_L); the rest is O(P L) because F_L holds DFT
    columns: the ridge Gram A^H A + mu I is Hermitian Toeplitz
    (dft_weighted_gram), and so is the MRC denominator, the diagonal of
    F_L (H_t H_t^H) F_L^H (dft_row_energies). The MRC numerator is
    sum_l conj(F) * (Yf H_t^H) per bin, and the post-update residual follows
    from MRC optimality,
    ||Yf - diag(lam) F H_t||^2 = ||Yf||^2 - sum_p |num_p|^2 / den_p.

    Returns (updated lam, H_t, relative residual); energy is ||Yf||_F^2.
    Raises DegenerateBinError where the per-bin channel vanishes.
    """
    gram = dft_weighted_gram(lam.real**2 + lam.imag**2, F_conj, mu)
    H_t = np.linalg.solve(gram, (lam.conj()[:, None] * F_conj).T @ Yf)
    num = np.einsum("pl,pl->p", Yf @ H_t.conj().T, F_conj)
    den = dft_row_energies(H_t, F_L)
    if den.min() <= 0.0:
        raise DegenerateBinError(int(np.flatnonzero(den <= 0.0)[0]))
    fit = float(((num.real**2 + num.imag**2) / den).sum())
    return num / den, H_t, np.sqrt(max(energy - fit, 0.0) / energy)


def alternating_minimization(Yf: np.ndarray, cfg: BlindConfig) -> ReceiverEstimate:
    """Jointly estimate the data spectrum and channel taps from Yf.

    rank(F_L H_t) <= L_est, so the signal lies in the top K = min(Nr, L_est)
    right singular vectors V_K of Yf, and AM runs on the P x K compression
    Yc = Yf V_K (compress_columns). The spectrum starts as Yc's first
    column, the dominant left singular vector of Yf, normalized; then
    _am_step alternates (a) the ridge channel solve given the spectrum with
    (b) the per-bin MRC spectrum update given the channel, stopping when the
    relative reconstruction residual drops below cfg.eps or at
    cfg.max_iter. The residual is that of the full Yf: each step gets
    ||Yf||^2 as its energy, so the energy outside V_K counts as misfit.
    """
    Yf = np.asarray(Yf, dtype=complex)
    P, Nr = Yf.shape
    if P <= 2 * cfg.L_est:
        raise ValueError(f"need P > 2*L_est, got P={P}, L_est={cfg.L_est}")
    if Nr < 1:
        raise ValueError("at least one antenna column required")

    Yc, V_K = compress_columns(Yf, min(Nr, cfg.L_est))
    F_L = dft_first_columns(P, cfg.L_est)
    c = Compression(Yc, float(np.linalg.norm(Yf) ** 2), F_L, F_L.conj())
    lam = Yc[:, 0] / np.linalg.norm(Yc[:, 0])

    trace = []
    converged = False
    H_t = np.zeros((cfg.L_est, V_K.shape[1]), dtype=complex)
    for _ in range(cfg.max_iter):
        lam, H_t, residual = _am_step(c.Yc, lam, c.F_L, c.F_conj, cfg.mu, c.energy)
        trace.append(residual)
        if residual < cfg.eps:
            converged = True
            break

    return ReceiverEstimate(
        lambda_hat=lam,
        H_t_hat=H_t @ V_K.conj().T,
        iterations=len(trace),
        residual_trace=np.asarray(trace),
        converged=converged,
        compression=c,
    )


def pilot_alpha(x_hat: np.ndarray, cfg: FrameConfig) -> complex:
    """Global scale from the pilot sample: x_hat[l_p] / pilot_value, so
    x_hat / alpha carries the known pilot value exactly. Raises
    PilotLossError if the pilot sample was annihilated.
    """
    sample = x_hat[cfg.pilot_index]
    if sample == 0:
        raise PilotLossError("pilot sample is zero; global scale unresolvable")
    return complex(sample / cfg.pilot_value)


def ca_alpha(x_hat: np.ndarray, cfg: FrameConfig) -> complex:
    """Global scale from the corner-symbol cluster centroid (CA).

    Operates on the raw time estimate: the maximum-modulus data sample pins
    a provisional scale, the centroid of all samples decided as the
    quadrant-1 corner refines it, and the pilot position selects which of
    the four pi/2 rotations of that centroid scale is the true one. Raises
    PilotLossError if every data sample is zero.
    """
    const = get_constellation(cfg.M)
    data = x_hat[cfg.data_indices]
    k_max = int(np.argmax(np.abs(data)))
    if data[k_max] == 0:
        raise PilotLossError("all data samples are zero; scale unresolvable")
    corner1 = const.corner(1)
    alpha_mid = data[k_max] / corner1
    data_mid = data / alpha_mid

    # the scaled max sample is the corner symbol by construction
    _, hard = qam_demodulate(data_mid, const.order)
    members = np.flatnonzero(hard == corner1)
    if members.size == 0:  # unreachable in exact arithmetic; keep a sane fallback
        warnings.warn("no sample demodulated to the corner; using the max sample")
        members = np.array([k_max])
    centroid = np.mean(data_mid[members])

    pilot_mid = x_hat[cfg.pilot_index] / alpha_mid
    best_q = min(
        range(1, 5),
        key=lambda q: abs(pilot_mid / (centroid / const.corner(q)) - cfg.pilot_value) ** 2,
    )
    return complex(alpha_mid * centroid / const.corner(best_q))


def qq_alpha(x_derot: np.ndarray, cfg: FrameConfig) -> complex:
    """Rotational residue left after pilot de-rotation (QQ).

    Collapses the data samples of x_derot = x_hat / pilot_alpha quadrant-wise
    onto the alphabet's quadrant centroids: each quadrant's sample mean over
    its ideal centroid estimates the leftover complex scale, and the average
    over the non-empty quadrants is returned. With no nonzero data sample it
    warns and returns 1.
    """
    const = get_constellation(cfg.M)
    data = x_derot[cfg.data_indices]
    data = data[data != 0]  # exact zeros carry no quadrant information
    ratios = []
    for q in (1, 2, 3, 4):
        members = data[const.quadrant_of(data) == q]
        if members.size:
            ratios.append(np.mean(members) / const.quadrant_centroid(q))
    if not ratios:
        warnings.warn("no nonzero data samples; residue left uncorrected")
        return 1.0 + 0.0j
    return complex(np.mean(ratios))


def _mode_alpha(mode: str, x_hat: np.ndarray, cfg: FrameConfig) -> complex:
    """The global scale of one correction mode, estimated on x_hat."""
    if mode == "ca":
        return ca_alpha(x_hat, cfg)
    alpha = pilot_alpha(x_hat, cfg)
    return alpha if mode == "pilot" else alpha * qq_alpha(x_hat / alpha, cfg)


@dataclass
class ModeEstimate:
    """One correction mode's decoded frame.

    x_hat / alpha is the mode's time-domain frame estimate, bits and symbols
    are the payload decisions sliced from it, and dd_changed counts the
    symbol decisions the last decision-directed round changed (0 means a
    fixed point; NaN when no round ran).
    """

    x_hat: np.ndarray = field(repr=False)
    alpha: complex
    bits: np.ndarray = field(repr=False)
    symbols: np.ndarray = field(repr=False)
    dd_changed: int | float = math.nan


def _decide(x_hat: np.ndarray, alpha: complex, cfg: FrameConfig) -> ModeEstimate:
    bits, symbols = qam_demodulate(extract_data(cfg, x_hat) / alpha, cfg.M)
    return ModeEstimate(x_hat=x_hat, alpha=alpha, bits=bits, symbols=symbols)


@dataclass
class BlindDecodeResult:
    """The shared AM factorization and one decoded frame per correction mode.

    A mode that fails on its own (e.g. an annihilated pilot, or a degenerate
    bin in one of its rounds) lands in ``failures`` instead of taking the
    other modes down with it.
    """

    estimate: ReceiverEstimate
    modes: dict[str, ModeEstimate]
    failures: dict[str, ReceiverError]


def decode_frame(
    Yf: np.ndarray,
    frame_cfg: FrameConfig,
    cfg: BlindConfig,
    modes: tuple = ("pilot", "qq", "ca"),
) -> BlindDecodeResult:
    """Run the blind factorization once, estimate the scales on its
    x_hat = idft(lambda_hat), then refine each of the given modes by
    _DD_ROUNDS decision-directed rounds.

    The scales are the pilot ratio ("pilot"), the pilot ratio times the
    quadrant residue of x_hat / pilot ratio ("qq"), and the centroid scale
    ("ca"). The pilot ratio of the AM estimate is computed once for "pilot"
    and "qq" together, so its failure is recorded for both; "ca" succeeds or
    fails on its own. One round of a mode slices x_hat / alpha, rebuilds the
    frame from the pilot, the guard zeros and those decisions, takes its
    spectrum as lambda in one unregularized _am_step on AM's compression
    (the least-squares taps given the decided frame, then MRC), and
    re-estimates the mode's scale on the new x_hat. A round that raises
    fails its mode only. The result covers the given modes and no other.
    """
    est = alternating_minimization(Yf, cfg)
    c = est.compression
    x_hat = idft(est.lambda_hat)

    alphas: dict[str, complex] = {}
    failures: dict[str, ReceiverError] = {}
    try:
        alpha = pilot_alpha(x_hat, frame_cfg)
    except ReceiverError as err:
        failures.update(pilot=err, qq=err)
    else:
        alphas.update(pilot=alpha, qq=alpha * qq_alpha(x_hat / alpha, frame_cfg))
    if "ca" in modes:
        try:
            alphas["ca"] = ca_alpha(x_hat, frame_cfg)
        except ReceiverError as err:
            failures["ca"] = err

    decoded: dict[str, ModeEstimate] = {}
    for mode, alpha in alphas.items():
        if mode not in modes:
            continue
        decided = _decide(x_hat, alpha, frame_cfg)
        try:
            for _ in range(_DD_ROUNDS):
                frame = build_frame(frame_cfg, decided.bits)
                lam, _, _ = _am_step(c.Yc, dft(frame), c.F_L, c.F_conj, 0.0, c.energy)
                x_mode = idft(lam)
                prior = decided.symbols
                decided = _decide(x_mode, _mode_alpha(mode, x_mode, frame_cfg), frame_cfg)
                decided.dd_changed = int(np.count_nonzero(decided.symbols != prior))
        except ReceiverError as err:
            failures[mode] = err
        else:
            decoded[mode] = decided
    failures = {mode: err for mode, err in failures.items() if mode in modes}
    return BlindDecodeResult(estimate=est, modes=decoded, failures=failures)
