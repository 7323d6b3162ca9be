"""Blind SC-FDE receiver: alternating minimization with per-bin MRC and
three estimators of the global complex scale (pilot, CA, QQ).

The decoder factors the frequency-domain receive matrix Yf into a diagonal
data spectrum and a short tap matrix by alternating a ridge-regularized
channel solve with a per-bin MRC update of the spectrum. The factorization
is identifiable only up to one global complex scale alpha: the time-domain
estimate x_hat = idft(lambda_hat) is the transmitted frame times alpha.
Each correction mode is one estimate of alpha, taken from the single pilot
alone (pilot_alpha), from the pilot plus a quadrant-centroid average
(pilot_alpha times qq_alpha), or from the corner-symbol cluster centroid
with the pilot picking among the four quadrant rotations (ca_alpha).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constellation import get_constellation, qam_demodulate
from .errors import DegenerateBinError, PilotLossError, ReceiverError
from .frame import FrameConfig
from .matrixkit import (
    dft_first_columns,
    dft_row_energies,
    dft_weighted_gram,
    idft,
    top_left_singular_vector,
)


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


@dataclass
class ReceiverEstimate:
    """Output of the alternating minimization.

    lambda_hat: length-P diagonal of the estimated data spectrum.
    H_t_hat: L_est x Nr tap estimate (per-bin channel F_{L_est} @ H_t_hat).
    residual_trace: relative residual ||Yf - diag(lambda) F H_t||_F / ||Yf||_F
    after each iteration; converged marks whether the eps target was met
    before the iteration cap.
    """

    lambda_hat: np.ndarray = field(repr=False)
    H_t_hat: np.ndarray = field(repr=False)
    iterations: int
    residual_trace: np.ndarray = field(repr=False)
    converged: bool


def mrc_combine(Yf: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Per-bin maximal ratio combining of the antenna columns.

    Returns lambda[p] = sum_r Yf[p,r] conj(H[p,r]) / sum_r |H[p,r]|^2, the
    per-bin least-squares fit of a diagonal spectrum given the channel H.
    Raises DegenerateBinError at the first bin whose denominator is zero.
    """
    num = np.einsum("pr,pr->p", Yf, H.conj())
    den = np.einsum("pr,pr->p", H, H.conj()).real
    dead = np.flatnonzero(den == 0.0)
    if dead.size:
        raise DegenerateBinError(int(dead[0]))
    return num / den


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

    Initializes the spectrum with the dominant left singular vector of Yf,
    then repeats _am_step, which alternates (a) the ridge channel solve
    given the spectrum with (b) the per-bin MRC spectrum update given the
    channel, stopping when the relative reconstruction residual drops below
    cfg.eps or at cfg.max_iter.
    """
    Yf = np.asarray(Yf, dtype=complex)
    P, Nr = Yf.shape
    if P <= 2 * cfg.L_est:
        raise ValueError(f"need P > 2*L_est, got P={P}, L_est={cfg.L_est}")
    if Nr < 1:
        raise ValueError("at least one antenna column required")

    F_L = dft_first_columns(P, cfg.L_est)
    F_conj = F_L.conj()
    energy = float(np.linalg.norm(Yf) ** 2)
    lam = top_left_singular_vector(Yf)

    trace = []
    converged = False
    H_t = np.zeros((cfg.L_est, Nr), dtype=complex)
    for _ in range(cfg.max_iter):
        lam, H_t, residual = _am_step(Yf, lam, F_L, F_conj, cfg.mu, energy)
        trace.append(residual)
        if residual < cfg.eps:
            converged = True
            break

    return ReceiverEstimate(
        lambda_hat=lam,
        H_t_hat=H_t,
        iterations=len(trace),
        residual_trace=np.asarray(trace),
        converged=converged,
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


@dataclass
class BlindDecodeResult:
    """Shared factorization, its time-domain estimate x_hat, and one global
    scale per correction mode: x_hat / alphas[mode] is that mode's frame.

    A correction that fails on its own (e.g. an annihilated pilot) lands in
    ``failures`` instead of taking the other modes down with it.
    """

    estimate: ReceiverEstimate
    x_hat: np.ndarray = field(repr=False)
    alphas: dict[str, complex]
    failures: dict[str, ReceiverError]


def decode_frame(Yf: np.ndarray, frame_cfg: FrameConfig, cfg: BlindConfig) -> BlindDecodeResult:
    """Run the blind factorization once and estimate all three scales: the
    pilot ratio ("pilot"), the pilot ratio times the quadrant residue of
    x_hat / pilot ratio ("qq"), and the centroid scale ("ca").

    The pilot ratio is computed once for "pilot" and "qq" together, so a
    pilot failure is recorded for both; "ca" succeeds or fails on its own.
    """
    est = alternating_minimization(Yf, cfg)
    x_hat = idft(est.lambda_hat)

    alphas: dict[str, complex] = {}
    failures: dict[str, ReceiverError] = {}
    try:
        alpha = pilot_alpha(x_hat, frame_cfg)
    except ReceiverError as err:
        failures.update(pilot=err, qq=err)
    else:
        alphas.update(pilot=alpha, qq=alpha * qq_alpha(x_hat / alpha, frame_cfg))
    try:
        alphas["ca"] = ca_alpha(x_hat, frame_cfg)
    except ReceiverError as err:
        failures["ca"] = err
    return BlindDecodeResult(estimate=est, x_hat=x_hat, alphas=alphas, failures=failures)
