"""Monte-Carlo experiment driver: seeded trials, SNR sweeps, residual
traces, and CSV persistence.

Every trial derives its own random substream from (seed, P, snr, trial
index), so results are a pure function of the configuration no matter how
trials are scheduled across workers and threads. Within a trial, the
payloads, channel and noise are always drawn in the same order regardless
of which receivers are enabled; the blind variants (blind_rx.MODES) share
one factorization on the same received samples, and each reference receiver
(BASELINES) decides from the same channel and noise, the OFDM baseline on
its own block.

A trial is prepared, then decoded, for the receivers of the run's config: a
sweep's cfg.receivers, and for a trace the blind ones (residual_trace).
prepare_trial draws it and, when a blind receiver is selected, forms AM's
input (the blind receive matrix's blind_rx.Compression) and scores every
selected baseline, so the decoding thread runs only AM, the decision rounds
and the blind rows' scoring. A serial run prepares each next trial on one
helper thread while the current one decodes; a pool worker prepares its
trials inline.

Every row of RECEIVERS is scored alike, where its bits are decided
(_scored): a frame on which its receiver raises (degenerate MRC bin,
annihilated pilot) is excluded from the error counts and reported in the
``frames_failed`` column, and a reference row reports AM's iterations and
residual as NaN.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import suppress
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from . import __version__
from .baseline_rx import OfdmPilotConfig, ofdm_mrc_receive, ofdm_transmit
from .blind_rx import MODES, BlindConfig, Compression, alternating_minimization, decode_frame
from .channel import (
    complex_noise,
    draw_channel,
    frequency_response,
    geometric_profile,
    receive_spectrum,
    snr_db_to_noise_variance,
)
from .errors import ReceiverError, is_whole
from .frame import FrameConfig, build_frame, random_payload
from .matrixkit import dft


def _mrc_ofdm(draw: TrialDraw) -> tuple[np.ndarray, np.ndarray]:
    """The pilot-based MRC-OFDM reference: the trial's channel and noise on
    its own block, whose symbols are already its unitary DFT."""
    Yf = draw.received(ofdm_transmit(draw.ofdm_payload, draw.ofdm_cfg))
    return ofdm_mrc_receive(Yf, draw.ofdm_cfg), draw.ofdm_payload


# name -> f(draw) returning (decided bits, sent bits) or raising ReceiverError;
# f calls its layers through module globals, which perfbench/spans.py wraps
BASELINES = {"mrc_ofdm": _mrc_ofdm}
RECEIVERS = (*MODES, *BASELINES)


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one experiment; the CSV is a function of this.
    The decay channel._DECAY and AM's ridge weight blind_rx._MU are constants."""

    seq_lengths: tuple = (256,)
    L: int = 4
    L_est: int = 4
    Nr: int = 16
    M: int = 64
    snr_db_list: tuple = (4.0, 8.0, 12.0)
    frames_per_point: int = 10
    seed: int = 0
    receivers: tuple = RECEIVERS
    ofdm_taps: int | None = None
    workers: int = 1
    out_path: str | None = None
    dump_path: str | None = None

    def __post_init__(self):
        # its own lists and counts, one rule each; its plans own L, L_est, M, ofdm_taps
        # and every rule on a length but the sweep's: a power of two, and distinct
        for name in ("seq_lengths", "snr_db_list", "receivers"):  # tuples, for equality and the echo
            value = getattr(self, name)
            items = () if isinstance(value, str) else tuple(value)  # a string is no list
            if not items:
                raise ValueError(f"{name} must be a nonempty list, got {value!r}")
            object.__setattr__(self, name, items)
        for name, least in {"Nr": 1, "frames_per_point": 1, "seed": 0, "workers": 1}.items():
            value = getattr(self, name)
            if not is_whole(value) or value < least:
                raise ValueError(f"{name} must be a whole number >= {least}, got {value}")
        for P in self.seq_lengths:  # builds, and so checks, every plan before any trial runs
            _plan(P, self.L, self.L_est, self.M, self.ofdm_taps)
            if P & (P - 1):
                raise ValueError(f"sequence length {P} is not a power of two")
        if len(set(self.seq_lengths)) < len(self.seq_lengths):
            raise ValueError(f"sequence lengths {self.seq_lengths} repeat")
        bad = set(self.receivers) - set(RECEIVERS)
        if bad:
            raise ValueError(f"unknown receivers: {sorted(bad)}; valid: {RECEIVERS}")
        # canonical order, once: the rows and the echo follow RECEIVERS
        object.__setattr__(self, "receivers", tuple(r for r in RECEIVERS if r in self.receivers))
        if len({_snr_key(snr) for snr in self.snr_db_list}) < len(self.snr_db_list):
            raise ValueError(
                f"SNRs {self.snr_db_list} repeat at 1e-3 dB resolution, so their "
                "cells would share random draws"
            )
        for snr in self.snr_db_list:
            try:  # the noise energy of the largest receive matrix
                energy = max(self.seq_lengths) * self.Nr * snr_db_to_noise_variance(snr)
            except OverflowError:
                energy = math.inf
            if not math.isfinite(energy):
                raise ValueError(f"SNR {snr} dB overflows the receive energy")
        # refuse an output that cannot be written before any trial runs;
        # abspath("") would name the working directory, so empty goes first
        paths = [path for path in (self.out_path, self.dump_path) if path is not None]
        for path in paths:
            if not path:
                raise FileNotFoundError(f"output path {path!r} is empty")
            if os.path.isdir(path):
                raise IsADirectoryError(f"output path {path!r} is a directory")
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise FileNotFoundError(f"no directory for output path {path!r}")
        if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise ValueError(
                f"output and per-trial dump are the same file ({self.out_path}); "
                "the dump would overwrite the sweep CSV"
            )


@lru_cache(maxsize=None, typed=True)
def _plan(P: int, L: int, L_est: int, M: int, ofdm_taps: int | None) -> tuple:
    """P's (FrameConfig, OfdmPilotConfig, BlindConfig, tap powers), built once per
    process from the fields they read, typed since 3.0 == 3; a task pickles only cfg."""
    blind_cfg = BlindConfig(L_est=L_est)
    frame_cfg, ofdm_cfg = FrameConfig(P, L, M), OfdmPilotConfig(P, M, ofdm_taps)
    blind_cfg.check_length(P)
    return frame_cfg, ofdm_cfg, blind_cfg, geometric_profile(L)


PRESETS = {
    # headline BER comparison operating point
    "fig5": dict(seq_lengths=(1024,), Nr=64, L=9, L_est=9, M=64),
    # sequence-length study for the residual decay
    "fig7": dict(seq_lengths=(256, 512, 1024), Nr=64, L=5, L_est=5, M=64),
}


@dataclass
class ReceiverTrial:
    """One receiver's outcome on one frame; NaN marks what the receiver does
    not report (a failed frame, or AM's fields on a BASELINES row).

    iterations and final_residual describe the shared AM run (iterations
    below BlindConfig.max_iter (100): it stopped on a step that did not
    lower the residual);
    dd_changed counts the decisions the receiver's last decision-directed
    round changed (0: a fixed point)."""

    failed: bool = False
    bits: int = 0
    bit_errors: int = 0
    iterations: int | float = math.nan
    final_residual: float = math.nan
    dd_changed: int | float = math.nan


# a dump row is the trial key followed by ReceiverTrial's fields, in order
DUMP_HEADER = ",".join(["P,snr_db,trial,receiver", *(f.name for f in fields(ReceiverTrial))])


@dataclass
class BerPoint:
    """Aggregated error counts for one (P, snr, receiver) cell."""

    snr_db: float
    receiver: str
    P: int
    Nr: int
    L: int
    L_est: int
    M: int
    frames: int
    frames_failed: int
    bits_total: int
    bit_errors: int
    ber: float
    mean_iterations: float
    mean_final_residual: float


# the sweep CSV's columns are BerPoint's fields, in declaration order
CSV_HEADER = ",".join(f.name for f in fields(BerPoint))


def _snr_milli(snr_db: float) -> int:
    """The SNR in whole 1e-3 dB (round half to even), its stream key's unit."""
    milli = snr_db * 1000.0
    if not math.isfinite(milli):
        raise ValueError(f"SNR {snr_db} dB is not finite in units of 1e-3 dB")
    return round(milli)


def _snr_key(snr_db: float) -> int:
    """The SNR's share of a trial's stream key: 32 bits of _snr_milli."""
    return _snr_milli(snr_db) & 0xFFFFFFFF


def snr_key_count(lo_db: float, hi_db: float) -> int:
    """How many distinct stream keys the SNRs from lo_db to hi_db can take."""
    return min(2**32, _snr_milli(hi_db) - _snr_milli(lo_db) + 1)


def _substream(seed: int, P: int, snr_db: float, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, P, _snr_key(snr_db), trial_index]))


@dataclass(frozen=True)
class TrialDraw:
    """The random draws of one trial: the payloads, the L x Nr taps and the
    P x Nr time-domain noise. Their frequency-domain forms Hf and Nf are
    formed on first use, by the thread that prepares the trial
    (prepare_trial), which then drops them with the noise."""

    frame_cfg: FrameConfig
    payload: np.ndarray = field(repr=False)
    ofdm_cfg: OfdmPilotConfig
    blind_cfg: BlindConfig
    ofdm_payload: np.ndarray = field(repr=False)
    taps: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)

    @cached_property
    def Hf(self) -> np.ndarray:
        """P x Nr frequency response of the taps."""
        return frequency_response(self.taps, self.noise.shape[0])

    @cached_property
    def Nf(self) -> np.ndarray:
        """Unitary DFT of the time-domain noise."""
        return dft(self.noise)

    def received(self, Xf: np.ndarray) -> np.ndarray:
        """Receive matrix of a block whose unitary DFT is Xf."""
        return receive_spectrum(Xf, self.Hf, self.Nf)

    def blind_received(self) -> np.ndarray:
        """Receive matrix of the blind receivers' zero-padded pilot frame."""
        return self.received(dft(build_frame(self.frame_cfg, self.payload)))


def draw_trial(cfg: SimulationConfig, P: int, snr_db: float, trial_index: int) -> TrialDraw:
    """Deterministic draws of one trial, shared by run_trial and trace_trial
    through prepare_trial.

    The order is fixed (blind payload, OFDM payload, channel, noise)
    independent of the receiver selection, so enabling extra receivers
    never changes results.
    """
    rng = _substream(cfg.seed, P, snr_db, trial_index)
    frame_cfg, ofdm_cfg, blind_cfg, powers = _plan(P, cfg.L, cfg.L_est, cfg.M, cfg.ofdm_taps)
    payload = random_payload(frame_cfg, rng)
    ofdm_payload = random_payload(ofdm_cfg, rng)
    taps = draw_channel(powers, cfg.Nr, rng)
    noise = complex_noise((P, cfg.Nr), snr_db_to_noise_variance(snr_db), rng)
    return TrialDraw(
        frame_cfg=frame_cfg,
        payload=payload,
        ofdm_cfg=ofdm_cfg,
        blind_cfg=blind_cfg,
        ofdm_payload=ofdm_payload,
        taps=taps,
        noise=noise,
    )


@dataclass(frozen=True)
class PreparedTrial:
    """A trial made ready to decode (prepare_trial): the blind frame's plans
    and payload, and either AM's input with the baselines' rows or the draws
    themselves.

    When a blind receiver was prepared, compression is AM's input and
    baselines maps each selected BASELINES row to its scored ReceiverTrial
    (_decide_baselines); draw is None, so the trial's P x Nr arrays (the
    noise, Hf and Nf) were freed by the thread that made them. Otherwise
    compression is None, baselines is empty, and draw holds the draws for
    run_trial's baselines.
    """

    frame_cfg: FrameConfig
    blind_cfg: BlindConfig
    payload: np.ndarray = field(repr=False)
    compression: Compression | None = field(repr=False)
    baselines: dict = field(repr=False)
    draw: TrialDraw | None = field(repr=False)


def _scored(bits: np.ndarray, sent: np.ndarray, **am) -> ReceiverTrial:
    """The row of a receiver that decided bits for the sent bits; am holds
    AM's fields, which a BASELINES row leaves NaN."""
    return ReceiverTrial(bits=sent.size, bit_errors=int(np.count_nonzero(bits != sent)), **am)


def _decide_baselines(draw: TrialDraw, receivers: tuple) -> dict[str, ReceiverTrial]:
    """The scored row of each BASELINES row in receivers, on draw; a row
    whose receiver raised ReceiverError is left out."""
    rows = {}
    for name in receivers:
        if name in BASELINES:
            with suppress(ReceiverError):
                rows[name] = _scored(*BASELINES[name](draw))
    return rows


def prepare_trial(cfg: SimulationConfig, P: int, snr_db: float, trial_index: int) -> PreparedTrial:
    """draw_trial's trial, made ready to decode cfg.receivers.

    With a blind receiver among them, this scores every selected baseline,
    forms the blind receive matrix and then its Compression, and keeps none
    of the P x Nr arrays. The draws are freed before the compression
    allocates, which lowered the peak resident set of fig7 trace workers
    by ~1 MB. Without a blind receiver it only draws: run_trial then runs
    the baselines, as on the helper thread they would leave the decoding
    thread idle. An error other than ReceiverError propagates.
    """
    draw = draw_trial(cfg, P, snr_db, trial_index)
    if not any(name in MODES for name in cfg.receivers):
        return PreparedTrial(draw.frame_cfg, draw.blind_cfg, draw.payload, None, {}, draw)
    baselines = _decide_baselines(draw, cfg.receivers)
    received, blind_cfg = draw.blind_received(), draw.blind_cfg
    kept = draw.frame_cfg, blind_cfg, draw.payload
    del draw  # frees the noise, Hf and Nf before the compression allocates
    return PreparedTrial(*kept, Compression.of(received, blind_cfg), baselines, None)


def run_trial(
    cfg: SimulationConfig, P: int, snr_db: float, trial_index: int, ahead: Future | None = None
) -> dict[str, ReceiverTrial]:
    """One frame end to end: the outcome of every selected receiver, by name.

    Deterministic in (cfg.seed, P, snr_db, trial_index); see draw_trial.
    ahead, when given, is this trial's prepare_trial, already submitted by
    _score, and the frame waits for it here. The selected blind variants
    share one factorization of the same receive matrix, and each scores its
    own refined mode (decode_frame decodes only the selected modes); a
    baseline decides from the same draws. A receiver that raised, or whose
    factorization raised, reports a failed frame.
    """
    trial = ahead.result() if ahead is not None else prepare_trial(cfg, P, snr_db, trial_index)
    rows = dict(trial.baselines)
    if trial.draw is not None:  # prepared no further than its draws
        rows = _decide_baselines(trial.draw, cfg.receivers)
    blind = tuple(r for r in cfg.receivers if r in MODES)
    if blind:
        with suppress(ReceiverError):  # a failed factorization fails every blind row
            decoded = decode_frame(trial.compression, trial.frame_cfg, trial.blind_cfg, blind)
            est = decoded.estimate
            am = {"iterations": est.iterations, "final_residual": float(est.residual_trace[-1])}
            for name, mode in decoded.modes.items():
                rows[name] = _scored(mode.bits, trial.payload, **am, dd_changed=mode.dd_changed)
    # a row left out: its receiver raised, or its factorization did
    return {name: rows.get(name, ReceiverTrial(failed=True)) for name in cfg.receivers}


# a pool task scores at most this many consecutive trials of one cell
_BLOCK = 8


def _score(fn, tasks: list, submit=None) -> list:
    """fn(*task, ahead) for each task in order: with submit, ahead is the
    task's submit(prepare_trial, *task), made while the task before it is
    scored, and fn waits for it in its call; without, ahead is None and fn
    prepares its own trial."""
    aheads = (submit(prepare_trial, *task) if submit else None for task in tasks)
    results, ahead = [], next(aheads)
    for task in tasks:
        current, ahead = ahead, next(aheads, None)
        results.append(fn(*task, current))
    return results


def _map_cells(cfg: SimulationConfig, fn, cells: list) -> list[list]:
    """fn(cfg, P, snr_db, trial_index, ahead) for every trial of every
    (P, snr_db) cell, through _score; returns one list per cell, in cell
    order, with its trials in order. Each trial is prepared (prepare_trial)
    for cfg.receivers.

    The trials run largest P first, so on a pool the longest frames start
    early. A pool (cfg.workers > 1) has min(workers, len(tasks)) processes
    (a forking pool starts all of its workers at the first submit) and
    scores one block per task: consecutive trials of one cell, at most
    _BLOCK and len(tasks) // workers long, so there are never fewer blocks
    than workers. Its workers prepare each trial inline: a helper thread in
    each, on 2 workers and 2 cores, cost 2-6% of fig7 trace frames/s in 10
    of 12 paired runs. Otherwise one helper thread prepares trial k+1, numpy
    work that releases the GIL, while this process scores trial k, across
    cells (cli.main keeps both threads in one malloc arena).
    """
    order = sorted(cells, key=lambda cell: -cell[0])
    n = cfg.frames_per_point
    tasks = [(cfg, P, snr_db, i) for P, snr_db in order for i in range(n)]
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        b = min(_BLOCK, len(tasks) // workers)  # trials per block
        blocks = [  # never spanning cells
            tasks[k : k + n][s : s + b] for k in range(0, len(tasks), n) for s in range(0, n, b)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for block in pool.map(partial(_score, fn), blocks) for r in block]
    else:
        # a raise leaves the with block, which joins the one preparation in flight
        with ThreadPoolExecutor(max_workers=1) as helper:
            results = _score(fn, tasks, helper.submit)
    by_cell = {cell: results[k * n : (k + 1) * n] for k, cell in enumerate(order)}
    return [by_cell[cell] for cell in cells]


def aggregate(
    cfg: SimulationConfig, P: int, snr_db: float, outcomes: list[dict[str, ReceiverTrial]]
) -> list[BerPoint]:
    """Reduce one cell's run_trial outcomes, in trial order, to one BerPoint
    per receiver (canonical order, trial-index order inside each mean, so
    results are scheduler-independent)."""
    points = []
    for name in cfg.receivers:
        trials = [outcome[name] for outcome in outcomes]
        ok = [t for t in trials if not t.failed]
        bits = sum(t.bits for t in ok)
        errors = sum(t.bit_errors for t in ok)
        iters = [t.iterations for t in ok]
        residuals = [t.final_residual for t in ok]
        points.append(
            BerPoint(
                snr_db=snr_db,
                receiver=name,
                P=P,
                Nr=cfg.Nr,
                L=cfg.L,
                L_est=cfg.L_est,
                M=cfg.M,
                frames=len(trials),
                frames_failed=len(trials) - len(ok),
                bits_total=bits,
                bit_errors=errors,
                ber=(errors / bits) if bits else float("nan"),
                mean_iterations=(sum(iters) / len(iters)) if iters else float("nan"),
                mean_final_residual=(sum(residuals) / len(residuals)) if residuals else float("nan"),
            )
        )
    return points


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


# scheduling and output destinations cannot change the numbers, so they are
# left out of the echo to keep the CSV bytes a function of the results alone
_ECHO_SKIP = ("workers", "out_path", "dump_path")
# fields only a sweep reads: trace has no flag or key for them and no echo line
SWEEP_ONLY = ("receivers", "ofdm_taps", "dump_path")


def _config_echo(cfg: SimulationConfig, skip: tuple = ()) -> list[str]:
    lines = [f"# scfde {__version__}"]
    for f in fields(cfg):
        if f.name in _ECHO_SKIP or f.name in skip:
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        lines.append(f"# {f.name} = {_fmt(value)}")
    return lines


def _render(preamble: list[str], header: str, rows) -> str:
    """CSV text: the preamble lines, the header, then one line per row."""
    lines = [*preamble, header, *(",".join(_fmt(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def sweep(cfg: SimulationConfig) -> list[BerPoint]:
    """BER sweep over every (P, snr) cell; writes CSV/dump when paths are set.

    Trials may run on a process pool (cfg.workers > 1); aggregation is
    order-independent so the output bytes never depend on the worker count.
    """
    cells = [(P, snr_db) for P in cfg.seq_lengths for snr_db in cfg.snr_db_list]
    points: list[BerPoint] = []
    dump_rows: list[tuple] = []
    for (P, snr_db), outcomes in zip(cells, _map_cells(cfg, run_trial, cells)):
        points.extend(aggregate(cfg, P, snr_db, outcomes))
        if cfg.dump_path is not None:
            # _map_cells returns each cell's trials in index order
            dump_rows.extend(
                (P, snr_db, i, name, *astuple(outcome[name]))
                for i, outcome in enumerate(outcomes)
                for name in cfg.receivers
            )

    if cfg.out_path is not None:
        write_csv(cfg.out_path, render_csv(cfg, points))
    if cfg.dump_path is not None:
        write_csv(cfg.dump_path, _render([], DUMP_HEADER, dump_rows))
    return points


def render_csv(cfg: SimulationConfig, points: list[BerPoint]) -> str:
    return _render(_config_echo(cfg), CSV_HEADER, map(astuple, points))


def write_csv(path: str, text: str) -> None:
    """Write one output file (a sweep CSV, a dump or a trace) as given."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


# -- residual traces ---------------------------------------------------------


@dataclass
class ResidualTrace:
    """Per-iteration normalized reconstruction error, averaged over frames."""

    P: int
    snr_db: float
    errors: np.ndarray = field(repr=False)


def trace_trial(
    cfg: SimulationConfig, P: int, snr_db: float, trial_index: int, ahead: Future | None = None
) -> np.ndarray:
    """Residual trace of the blind factorization on one frame (the same
    draws, hence the same receive matrix, as run_trial; ahead as there).
    cfg is residual_trace's, whose receivers are the blind ones, so its
    trial is prepared up to AM's input and runs no baseline."""
    trial = ahead.result() if ahead is not None else prepare_trial(cfg, P, snr_db, trial_index)
    return alternating_minimization(trial.compression, trial.blind_cfg).residual_trace


def residual_trace(cfg: SimulationConfig) -> list[ResidualTrace]:
    """Mean per-iteration normalized error for each configured SNR and, within
    it, each sequence length; writes the trace CSV when cfg.out_path is set.
    Frames that stop early hold their final value in the average. Its trials
    are prepared for the blind receivers alone, so a trace runs no baseline
    whatever cfg.receivers holds (a SWEEP_ONLY field, which it does not echo)."""
    cells = [(P, snr_db) for snr_db in cfg.snr_db_list for P in cfg.seq_lengths]
    traced = replace(cfg, receivers=tuple(MODES))
    traces: list[ResidualTrace] = []
    for (P, snr_db), runs in zip(cells, _map_cells(traced, trace_trial, cells)):
        depth = max(len(r) for r in runs)
        padded = np.vstack([
            np.concatenate([r, np.full(depth - len(r), r[-1])]) for r in runs
        ])
        traces.append(ResidualTrace(P=P, snr_db=snr_db, errors=padded.mean(axis=0)))
    if cfg.out_path is not None:
        write_csv(cfg.out_path, render_trace_csv(cfg, traces))
    return traces


TRACE_HEADER = "P,snr_db,iteration,normalized_error"


def render_trace_csv(cfg: SimulationConfig, traces: list[ResidualTrace]) -> str:
    rows = (
        (tr.P, tr.snr_db, i, float(err))
        for tr in traces
        for i, err in enumerate(tr.errors, start=1)
    )
    return _render(_config_echo(cfg, SWEEP_ONLY), TRACE_HEADER, rows)
