"""Blind SC-FDE receiver: alternating minimization with per-bin MRC on a
rank-L_est compression of the receive matrix, three estimators of the
global complex scale (pilot, CA, QQ), and decision-directed tap re-solves.

The decoder factors the frequency-domain receive matrix Yf into a diagonal
data spectrum and a short tap matrix by alternating a ridge-regularized
channel solve with a per-bin MRC update of the spectrum, until a step no
longer lowers the reconstruction residual or an iteration cap is reached
(the stop takes no tolerance). The channel has rank at most L_est, so the
factorization runs on the P x K compression Yf V_K onto the dominant right
singular subspace (K = min(Nr, L_est)). A caller builds that compression
once per frame (Compression.of) and hands it to alternating_minimization or
decode_frame, so it can be built on another thread than the one that decodes.
AM's steps run in single precision on a unit-energy complex64 copy of the
compression, with each residual in double, and the run finishes in double;
what it returns, and everything after it, is double. The factorization is
identifiable only up to one global complex scale alpha: the time-domain
estimate x_hat = idft(lambda_hat) is the transmitted frame times alpha.
Each correction mode is one (x_hat, frame) -> alpha estimator, taking alpha
from the single pilot alone (pilot_alpha), from the corner-symbol cluster
centroid with the pilot picking among the four quadrant rotations
(ca_alpha), or from the pilot ratio times a quadrant-centroid average of
the pilot-de-rotated estimate (qq_alpha). A mode's scale sets only its first
decisions, the slice of x_hat / alpha; decode_frame then re-solves the taps
given the frame rebuilt from the decisions and slices the MRC update at that
frame's scale. A decoded frame is its payload bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .constellation import get_constellation, qam_demodulate
from .errors import DegenerateBinError, PilotLossError, ReceiverError, is_whole
from .frame import FrameConfig, build_frame, extract_data
from .matrixkit import (
    compress_columns,
    dft,
    dft_first_columns,
    dft_weighted_gram,
    idft,
)


# decision-directed tap re-solves each correction mode runs after AM
_DD_ROUNDS = 2
# ridge weight of AM's channel solve (the decision-directed rounds use 0)
_MU = 0.5
# in single precision energy - fit rounds at about eps * energy, so a relative
# residual below sqrt(eps) cannot be told from 0 there
_SINGLE_FLOOR = math.sqrt(np.finfo(np.float32).eps)

@dataclass(frozen=True)
class BlindConfig:
    """Knobs of the alternating-minimization decoder.

    L_est is the assumed tap count. Too few taps and too many both cost
    accuracy, because extra taps fit noise: on fig5 at 4 dB (L = 9),
    L_est = 16 made 769/2876/434 pilot/CA/QQ bit errors against
    269/272/243 at L_est = 9 (ROADMAP item 5). L_est is the only field:
    the class constant max_iter caps the iterations, which otherwise stop
    at the first step that does not lower the residual, and the channel
    solve's ridge weight is the constant _MU.
    """

    L_est: int
    max_iter: ClassVar[int] = 100

    def __post_init__(self):
        if not is_whole(self.L_est) or self.L_est < 1:
            raise ValueError(f"L_est must be a whole number >= 1, got {self.L_est}")

    def check_length(self, P: int) -> None:
        """Refuse a frame of P samples too short to identify its L_est taps."""
        if P <= 2 * self.L_est:
            raise ValueError(f"need P > 2*L_est, got P={P}, L_est={self.L_est}")


@lru_cache(maxsize=None)
def _dft_rows(P: int, L: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """F_L = dft_first_columns(P, L) and F_L^H as L x P rows, both
    C-contiguous in dtype (read-only cache, one pair per precision)."""
    F_L = dft_first_columns(P, L)
    F_rows = np.ascontiguousarray(F_L.conj().T).astype(dtype, copy=False)
    F_L = F_L.astype(dtype, copy=False)
    F_rows.flags.writeable = F_L.flags.writeable = False
    return F_L, F_rows


@dataclass(frozen=True)
class Compression:
    """The problem AM solves for one frame, laid out for _am_step.

    Y_rows is the P x K compression Yc = Yf V_K stored transposed, K x P and
    C-contiguous, and F_rows is F_L^H, the conjugate DFT columns as L x P
    rows: with P along the rows' contiguous axis, every elementwise product
    and every reduction of a step runs along the long P axis, not along the
    K- or L-long one. F_L holds the same columns P x L, C-contiguous, as
    matrixkit's O(P L) Toeplitz Gram takes them; both are shared, read-only,
    by every frame of one (P, L). energy is the full ||Yf||_F^2, and the
    Nr x K V_K maps taps fitted to the compression back to all Nr antennas.
    The decision-directed rounds step on the same problem, in complex128;
    AM's single stage steps on its complex64 copy, single().
    """

    Y_rows: np.ndarray = field(repr=False)
    energy: float
    V_K: np.ndarray = field(repr=False)
    F_L: np.ndarray = field(repr=False)
    F_rows: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, Yf: np.ndarray, cfg: BlindConfig) -> Compression:
        """AM's problem for the P x Nr receive matrix Yf: its compression onto
        the top K = min(Nr, cfg.L_est) right singular vectors V_K
        (compress_columns), and ||Yf||^2. Refuses a frame too short for
        cfg.L_est (BlindConfig.check_length)."""
        Yf = np.asarray(Yf, dtype=complex)
        P, Nr = Yf.shape
        cfg.check_length(P)
        Yc, V_K = compress_columns(Yf, min(Nr, cfg.L_est))
        rows = np.ascontiguousarray(Yc.T)
        return cls(rows, float(np.linalg.norm(Yf) ** 2), V_K, *_dft_rows(P, cfg.L_est, complex))

    def single(self) -> Compression:
        """This problem in complex64, scaled to unit energy.

        Squares of complex64 entries overflow past a modulus of ~1.8e19,
        which a frame at -400 dB reaches; at unit energy they cannot. The
        scale leaves a step's spectrum and relative residual as they are (the
        MRC numerator and denominator both scale by its square) and divides
        its taps by sqrt(energy).
        """
        rows = (self.Y_rows * (1.0 / math.sqrt(self.energy))).astype(np.complex64)
        return Compression(rows, 1.0, self.V_K, *_dft_rows(*self.F_L.shape, np.complex64))


@dataclass
class ReceiverEstimate:
    """Output of the alternating minimization.

    lambda_hat: length-P diagonal of the estimated data spectrum.
    H_t_hat: L_est x Nr tap estimate (per-bin channel F_{L_est} @ H_t_hat),
    the taps fitted to the compression Yf V_K mapped back to all Nr
    antennas.
    Both are complex128: AM's last step is always a double one.
    residual_trace: relative residual ||Yf - diag(lambda) F H_t||_F / ||Yf||_F
    after each iteration, computed in double. The entries of the single
    stage's steps (all but the last on most noisy frames) carry the float32
    rounding of their iterate, ~1e-7 of ||Yf||^2 in the squared residual; the
    double steps' are exact to ~1e-15. iterations is its length: below
    max_iter, the last step did not lower the residual (a stall); at
    max_iter, the cap. compression: the compressed problem, complex128, that
    the double steps and the decision-directed rounds step on.
    """

    lambda_hat: np.ndarray = field(repr=False)
    H_t_hat: np.ndarray = field(repr=False)
    residual_trace: np.ndarray = field(repr=False)
    compression: Compression = field(repr=False)

    @property
    def iterations(self) -> int:
        return len(self.residual_trace)


def _am_step(
    c: Compression, lam: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One AM iteration on the compressed problem c: the ridge channel solve
    given the spectrum lam, then the per-bin MRC update of the spectrum given
    that channel.

    Only two products are P x L x K in size (A = diag(lam) F_L): the ridge
    right-hand side A^H Yc = (F_L^H diag(conj lam)) Yc, F_rows scaled along
    P, and G = H_t^H F_L^H, the K x P conjugate transpose of the per-bin
    channel F_L H_t. Both MRC terms are read off G: the numerator is the
    column sum of G times Y_rows elementwise, and the denominator
    ||(F_L H_t)_p||^2 is the exact sum of squares of G's column p. With the
    operands row-major (Compression) these run along P, so at K and L of 5
    to 9 a step costs little more than its two products. The ridge Gram
    A^H A + mu I is O(P L) because F_L holds DFT columns: it is Hermitian
    Toeplitz (dft_weighted_gram). The post-update residual follows from MRC
    optimality,
    ||Yf - diag(lam) F H_t||^2 = ||Yf||^2 - sum_p |num_p|^2 / den_p.

    One function for both precisions: on a complex64 c (Compression.single)
    with a complex64 lam every product, the Gram and the solve run in
    single precision, and lam and H_t come back complex64. The fit
    vdot(lam, num), and so the residual, is always taken in double.

    Returns (updated lam, H_t, relative residual). Raises
    DegenerateBinError where the per-bin channel vanishes.
    """
    gram = dft_weighted_gram(lam.real**2 + lam.imag**2, c.F_L, mu)
    H_t = np.linalg.solve(gram, (c.F_rows * lam.conj()) @ c.Y_rows.T)
    G = H_t.conj().T @ c.F_rows
    num = (G * c.Y_rows).sum(0)
    den = (G.real**2 + G.imag**2).sum(0)
    if den.min() <= 0.0:
        raise DegenerateBinError(int(np.flatnonzero(den <= 0.0)[0]))
    lam = num * (1.0 / den)  # the same quotient, without the complex-division loop
    # the fit in double: in float32, energy - fit rounds at ~1e-7 relative
    fit = np.vdot(lam.astype(complex, copy=False), num.astype(complex, copy=False)).real
    return lam, H_t, math.sqrt(max(c.energy - fit, 0.0) / c.energy)


def alternating_minimization(c: Compression, cfg: BlindConfig) -> ReceiverEstimate:
    """Jointly estimate the data spectrum and channel taps from the receive
    matrix Yf whose compression is c (Compression.of(Yf, cfg)).

    rank(F_L H_t) <= L_est, so the signal lies in the top K = min(Nr, L_est)
    right singular vectors V_K of Yf, and AM runs on the P x K compression
    Yc = Yf V_K, laid out as K x P and L x P rows (Compression) so that each
    step reduces along P, not along the K- or L_est-long axis. The spectrum
    starts as Yc's first column, the dominant left singular vector of Yf,
    normalized; then _am_step alternates (a) the ridge channel solve (weight
    _MU) given the spectrum with (b) the per-bin MRC spectrum update given
    the channel, stopping after the first step that does not lower the
    relative reconstruction residual (that step stays in the trace) or at
    cfg.max_iter. The residual is that of the full Yf: each step gets
    ||Yf||^2 as its energy, so the energy outside V_K counts as misfit.

    The steps run in two stages that share the one cap. The single stage
    steps on c.single(), the compression in complex64 at unit energy, with
    each residual in double. It ends at its first step that does not lower
    the residual, at a residual below _SINGLE_FLOOR (which float32 cannot
    tell from 0), at a DegenerateBinError, or one step before the cap. The
    double stage then goes on from that iterate, cast up, on c itself until
    a double step does not lower the residual of the double step before it
    or the cap is reached. So every run ends on a double step, the stop
    rule never fires on float32 rounding, and a noiseless frame floors
    where an all-double run does. A residual of exactly 0 cannot fall, so a
    double stage that reaches it stops at its next step.
    """
    first = c.Y_rows[0]
    lam = (first / np.linalg.norm(first)).astype(np.complex64)

    trace: list[float] = []
    single = c.single()
    try:
        while len(trace) < cfg.max_iter - 1:
            lam, _, residual = _am_step(single, lam, _MU)
            trace.append(residual)
            if residual < _SINGLE_FLOOR or len(trace) > 1 and residual >= trace[-2]:
                break
    except DegenerateBinError:
        pass  # the double step from the same iterate decides
    lam, handover = lam.astype(complex), len(trace)
    while len(trace) < cfg.max_iter:
        lam, H_t, residual = _am_step(c, lam, _MU)
        trace.append(residual)
        if len(trace) > handover + 1 and residual >= trace[-2]:
            break

    return ReceiverEstimate(
        lambda_hat=lam,
        H_t_hat=H_t @ c.V_K.conj().T,
        residual_trace=np.asarray(trace),
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
    corner1 = const.corners[0]
    alpha_mid = data[k_max] / corner1
    data_mid = data / alpha_mid

    # the scaled max sample slices to the corner by construction (a NaN one
    # to point 0, which is the corner too), so the cluster is never empty
    _, hard = qam_demodulate(data_mid, const.order)
    centroid = np.mean(data_mid[hard == corner1])

    pilot_mid = x_hat[cfg.pilot_index] / alpha_mid
    corner = min(
        const.corners,
        key=lambda c: abs(pilot_mid / (centroid / c) - cfg.pilot_value) ** 2,
    )
    return complex(alpha_mid * centroid / corner)


def qq_alpha(x_hat: np.ndarray, cfg: FrameConfig) -> complex:
    """Global scale from the pilot plus the quadrant residue (QQ).

    alpha = pilot_alpha de-rotates x_hat; the data samples of x_hat / alpha
    then collapse quadrant-wise onto the alphabet's quadrant centroids: each
    quadrant's sample mean over its ideal centroid estimates the leftover
    complex scale, and alpha times the average over the non-empty quadrants
    is returned. With no nonzero data sample it warns and returns alpha.
    Raises PilotLossError if the pilot sample was annihilated.
    """
    alpha = pilot_alpha(x_hat, cfg)
    const = get_constellation(cfg.M)
    data = (x_hat / alpha)[cfg.data_indices]
    data = data[data != 0]  # exact zeros carry no quadrant information
    quadrant = const.quadrant_of(data)
    ratios = []
    for q, centroid in enumerate(const.centroids, start=1):
        members = data[quadrant == q]
        if members.size:
            ratios.append(np.mean(members) / centroid)
    if not ratios:
        warnings.warn("no nonzero data samples; residue left uncorrected")
        return alpha * (1.0 + 0.0j)
    return alpha * complex(np.mean(ratios))


@dataclass
class ModeEstimate:
    """One correction mode's decoded frame: bits, its payload decisions, and
    dd_changed, the symbol decisions the last decision-directed round changed,
    counted on their bit groups (0 means a fixed point; NaN when no round ran)."""

    bits: np.ndarray = field(repr=False)
    dd_changed: int | float = math.nan


# the blind receivers, by the name the harness reports, in CSV order: each is
# the (x_hat, frame) -> alpha estimator that sets its first decisions
MODES = {"blind_pilot": pilot_alpha, "blind_ca": ca_alpha, "blind_qq": qq_alpha}


def _slice(x_hat: np.ndarray, cfg: FrameConfig, prior: np.ndarray | None = None) -> ModeEstimate:
    """Slice x_hat, a frame estimate at the transmitted scale; prior is the
    bits it was refined from, if any (dd_changed: the Gray map is a bijection,
    so a symbol decision changed where its log2(M)-bit group did)."""
    bits, _ = qam_demodulate(extract_data(cfg, x_hat), cfg.M)
    groups = None if prior is None else (bits != prior).reshape(cfg.N - 1, -1)  # row per symbol
    changed = math.nan if groups is None else int(np.count_nonzero(groups.any(axis=1)))
    return ModeEstimate(bits=bits, dd_changed=changed)


@dataclass
class BlindDecodeResult:
    """The shared AM factorization and one decoded frame, its payload bits
    and dd_changed (ModeEstimate), per mode, keyed by its MODES name.

    A mode that fails on its own (e.g. an annihilated pilot, or a degenerate
    bin in one of its rounds) lands in ``failures`` instead of taking the
    other modes down with it.
    """

    estimate: ReceiverEstimate
    modes: dict[str, ModeEstimate]
    failures: dict[str, ReceiverError]


def decode_frame(
    c: Compression,
    frame_cfg: FrameConfig,
    cfg: BlindConfig,
    modes: tuple = tuple(MODES),
) -> BlindDecodeResult:
    """Run the blind factorization once on the frame's compression c
    (Compression.of), then decode each of the given modes from AM's
    x_hat = idft(lambda_hat).

    A mode slices x_hat / alpha, alpha its scale estimate (MODES[mode]).
    Each of _DD_ROUNDS rounds then rebuilds the frame from the pilot, the
    guard zeros and the decided bits, re-solves the taps given that frame by
    one unregularized _am_step on AM's compression, and slices the updated
    spectrum's idft at that frame's scale against the round's input bits. A
    round depends on those bits alone, so the modes that reach one bit vector
    share one run of its round (a round that raises is not kept, and fails
    each of them alike). The result covers the given modes and no other.
    Raises ValueError for a mode outside MODES, before AM runs.
    """
    unknown = [mode for mode in modes if mode not in MODES]
    if unknown:
        raise ValueError(f"unknown modes: {unknown}; valid: {tuple(MODES)}")
    est = alternating_minimization(c, cfg)
    x_hat = idft(est.lambda_hat)
    rounds: dict[bytes, ModeEstimate] = {}  # each round's outcome, by its input bits
    decoded: dict[str, ModeEstimate] = {}
    failures: dict[str, ReceiverError] = {}
    for mode in modes:
        try:
            decided = _slice(x_hat / MODES[mode](x_hat, frame_cfg), frame_cfg)
            for _ in range(_DD_ROUNDS):
                key = decided.bits.tobytes()
                if key not in rounds:
                    frame = build_frame(frame_cfg, decided.bits)
                    lam, _, _ = _am_step(est.compression, dft(frame), 0.0)
                    rounds[key] = _slice(idft(lam), frame_cfg, decided.bits)
                decided = rounds[key]
        except ReceiverError as err:
            failures[mode] = err
        else:
            decoded[mode] = decided
    return BlindDecodeResult(estimate=est, modes=decoded, failures=failures)
