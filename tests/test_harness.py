import dataclasses
import re
import threading
from concurrent.futures import Future

import numpy as np
import pytest

import scfde.harness as harness
from scfde.baseline_rx import OfdmPilotConfig, estimate_channel, ofdm_transmit
from scfde.blind_rx import MODES, BlindConfig, Compression
from scfde.channel import (
    complex_noise,
    convolve_channel,
    draw_channel,
    geometric_profile,
    snr_db_to_noise_variance,
)
from scfde.constellation import get_constellation
from scfde.errors import DegenerateBinError
from scfde.frame import FrameConfig, build_frame
from scfde.harness import (
    BASELINES,
    DUMP_HEADER,
    PRESETS,
    RECEIVERS,
    SimulationConfig,
    _substream,
    aggregate,
    draw_trial,
    render_csv,
    render_trace_csv,
    residual_trace,
    run_trial,
    sweep,
    trace_trial,
)
from scfde.matrixkit import dft, idft

SMALL = SimulationConfig(
    seq_lengths=(64,),
    L=3,
    L_est=3,
    Nr=4,
    M=16,
    snr_db_list=(8.0,),
    frames_per_point=4,
    seed=5,
)


def test_run_trial_bit_identical_repeat():
    r1 = run_trial(SMALL, 64, 8.0, 0)
    r2 = run_trial(SMALL, 64, 8.0, 0)
    assert r1 == r2


def test_trials_differ_across_indices_and_snr():
    r0 = run_trial(SMALL, 64, 8.0, 0)
    r1 = run_trial(SMALL, 64, 8.0, 1)
    assert r0 != r1


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_receiver_subset_does_not_change_draws(receiver):
    solo = dataclasses.replace(SMALL, receivers=(receiver,))
    r_solo = run_trial(solo, 64, 8.0, 2)
    r_all = run_trial(SMALL, 64, 8.0, 2)
    assert r_solo == {receiver: r_all[receiver]}


def test_near_noiseless_trial_is_error_free():
    cfg = dataclasses.replace(SMALL, receivers=("blind_qq",))
    trial = run_trial(cfg, 64, 200.0, 0)["blind_qq"]
    assert not trial.failed
    assert trial.bit_errors == 0
    assert trial.bits > 0


def test_extreme_snrs_decode_without_overflow():
    # AM steps on a unit-energy complex64 copy of each frame: at -400 dB the
    # receive entries reach ~1e20, and their squares would overflow complex64
    # (the residual read nan). The noise-bound residual equals the all-double
    # run's (0.800259812777) to float32 rounding; at +300 dB the frames decode
    # error-free at a noiseless frame's floor
    cfg = dataclasses.replace(
        SMALL, L=2, L_est=2, snr_db_list=(-400.0, 300.0), receivers=("blind_pilot",), seed=0
    )
    with np.errstate(over="raise", invalid="raise"):
        low, high = (
            aggregate(cfg, 64, snr, [run_trial(cfg, 64, snr, i) for i in range(4)])[0]
            for snr in cfg.snr_db_list
        )
    assert low.frames_failed == high.frames_failed == 0
    assert low.mean_final_residual == pytest.approx(0.800259812777, rel=1e-6)
    assert high.bit_errors == 0
    assert high.mean_final_residual < 5e-3


def test_draw_trial_matches_time_domain_reference():
    # the frequency-domain receive matrices equal the DFT of the time-domain
    # propagation of the same draws, taken in the documented order
    rng = np.random.default_rng(41)
    for trial in range(12):
        P = int(2 ** rng.integers(4, 10))
        Nr = int(rng.integers(1, 9))
        L = int(rng.integers(1, min(8, P // 4) + 1))
        cfg = SimulationConfig(
            seq_lengths=(P,), L=L, L_est=L, Nr=Nr, M=16, snr_db_list=(5.0,), seed=trial
        )
        draw = draw_trial(cfg, P, 5.0, trial)

        ref = _substream(cfg.seed, P, 5.0, trial)
        frame_cfg = FrameConfig(P=P, L=L, M=16)
        payload = ref.integers(0, 2, size=frame_cfg.payload_bits)
        ofdm_payload = ref.integers(0, 2, size=OfdmPilotConfig(P=P, M=16).payload_bits)
        ch = draw_channel(geometric_profile(L), Nr, ref)
        noise = complex_noise((P, Nr), snr_db_to_noise_variance(5.0), ref)
        assert np.array_equal(draw.payload, payload)
        assert np.array_equal(draw.ofdm_payload, ofdm_payload)
        assert np.array_equal(draw.taps, ch) and np.array_equal(draw.noise, noise)

        x = build_frame(frame_cfg, payload)
        blind_ref = dft(convolve_channel(x, ch) + noise)
        blind = draw.blind_received()
        assert np.linalg.norm(blind - blind_ref) / np.linalg.norm(blind_ref) < 1e-12

        Xf = ofdm_transmit(ofdm_payload, draw.ofdm_cfg)
        ofdm_ref = dft(convolve_channel(idft(Xf), ch) + noise)
        ofdm = draw.received(Xf)
        assert np.linalg.norm(ofdm - ofdm_ref) / np.linalg.norm(ofdm_ref) < 1e-12


def test_sweep_single_cell_single_row():
    cfg = dataclasses.replace(
        SMALL, receivers=("blind_pilot",), frames_per_point=1, snr_db_list=(10.0,)
    )
    points = sweep(cfg)
    assert len(points) == 1
    pt = points[0]
    assert pt.receiver == "blind_pilot"
    assert pt.frames == 1
    assert pt.ber == pt.bit_errors / pt.bits_total


# (P, SNR) -> (bits_total, bit_errors) per receiver in RECEIVERS order, read
# from fixed-seed runs; a change in any hard decision moves them
PINNED_BIT_COUNTS = [
    (
        SimulationConfig(
            seq_lengths=(64,), Nr=4, L=2, L_est=2, M=16, snr_db_list=(-4.0, 7.0),
            frames_per_point=8, seed=3,
        ),
        {
            (64, -4.0): ((1952, 729), (1952, 734), (1952, 741), (1824, 670)),
            (64, 7.0): ((1952, 66), (1952, 75), (1952, 71), (1824, 99)),
        },
    ),
    (
        SimulationConfig(
            seq_lengths=(32, 64), Nr=4, L=2, L_est=2, M=64, snr_db_list=(10.0,),
            frames_per_point=4, seed=11, workers=2,
        ),
        {
            (32, 10.0): ((696, 60), (696, 69), (696, 57), (672, 60)),
            (64, 10.0): ((1464, 124), (1464, 145), (1464, 114), (1368, 118)),
        },
    ),
]


@pytest.mark.parametrize("cfg, expected", PINNED_BIT_COUNTS)
def test_fixed_seed_bit_counts_are_pinned(cfg, expected):
    # iteration counts and residuals are not pinned: a frame that stalls
    # before the cap does so on a step comparison the BLAS build can move
    got = {}
    for pt in sweep(cfg):
        assert pt.frames_failed == 0, pt
        got.setdefault((pt.P, pt.snr_db), {})[pt.receiver] = (pt.bits_total, pt.bit_errors)
    assert got == {cell: dict(zip(RECEIVERS, counts)) for cell, counts in expected.items()}


def test_aggregate_matches_manual_trial_sums():
    outcomes = [run_trial(SMALL, 64, 8.0, i) for i in range(SMALL.frames_per_point)]
    points = aggregate(SMALL, 64, 8.0, outcomes)
    for pt in points:
        bits = sum(o[pt.receiver].bits for o in outcomes)
        errors = sum(o[pt.receiver].bit_errors for o in outcomes)
        assert pt.bits_total == bits
        assert pt.bit_errors == errors
        assert pt.ber == errors / bits


def points_equal(a, b):
    for name in vars(a):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, float) and np.isnan(x) and np.isnan(y):
            continue
        if x != y:
            return False
    return True


def test_split_runs_merge_to_single_run_totals():
    # additive-counts oracle: two half-runs over disjoint trial indices must
    # reproduce the full sweep cell exactly
    full = sweep(dataclasses.replace(SMALL, snr_db_list=(8.0,)))
    first = [run_trial(SMALL, 64, 8.0, i) for i in (0, 1)]
    second = [run_trial(SMALL, 64, 8.0, i) for i in (2, 3)]
    merged = aggregate(SMALL, 64, 8.0, first + second)
    by_rx = {pt.receiver: pt for pt in full}
    for pt in merged:
        assert points_equal(by_rx[pt.receiver], pt)


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    # a forking pool starts all max_workers processes at the first submit,
    # so the request is capped at the task count; the fake starts none
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = dataclasses.replace(SMALL, frames_per_point=2)
    pooled = sweep(dataclasses.replace(cfg, workers=8))
    assert requested == [2]
    assert render_csv(cfg, pooled) == render_csv(cfg, sweep(cfg))
    residual_trace(dataclasses.replace(cfg, frames_per_point=1, workers=8))
    assert requested == [2]  # a single trial runs without a pool


def test_dump_rows_reaggregate_to_csv(tmp_path):
    out = tmp_path / "point.csv"
    dump = tmp_path / "trials.csv"
    cfg = dataclasses.replace(
        SMALL, frames_per_point=3, out_path=str(out), dump_path=str(dump)
    )
    points = sweep(cfg)
    # independent aggregation of the per-trial dump
    rows = dump.read_text().strip().splitlines()
    header = rows[0].split(",")
    sums: dict = {}
    for row in rows[1:]:
        rec = dict(zip(header, row.split(",")))
        key = rec["receiver"]
        if rec["failed"] == "1":
            continue
        bits, errs = sums.get(key, (0, 0))
        sums[key] = (bits + int(rec["bits"]), errs + int(rec["bit_errors"]))
    for pt in points:
        assert sums[pt.receiver] == (pt.bits_total, pt.bit_errors)
    # and the written CSV ber column equals the recomputed ratio
    for line in out.read_text().strip().splitlines():
        if line.startswith(("#", "snr_db")):
            continue
        parts = line.split(",")
        receiver, bits_total, bit_errors, ber = parts[1], int(parts[9]), int(parts[10]), float(parts[11])
        assert ber == pytest.approx(sums[receiver][1] / sums[receiver][0], rel=1e-10)


def test_dump_rows_of_failed_frames_and_of_the_baseline(tmp_path, monkeypatch):
    # a failed frame dumps zero counts and NaN estimates, and the OFDM
    # baseline reports neither iterations nor a residual
    decode, calls = harness.decode_frame, []

    def second_frame_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise DegenerateBinError(0)
        return decode(*args)

    monkeypatch.setattr(harness, "decode_frame", second_frame_fails)
    dump = tmp_path / "trials.csv"
    points = sweep(dataclasses.replace(SMALL, frames_per_point=3, dump_path=str(dump)))
    rows = dump.read_text().splitlines()
    assert rows[0] == DUMP_HEADER
    assert rows[5:8] == [
        f"64,8,1,{name},1,0,0,nan,nan,nan" for name in ("blind_pilot", "blind_ca", "blind_qq")
    ]
    ofdm = [row for row in rows if row.split(",")[3] == "mrc_ofdm"]
    assert len(ofdm) == 3
    for i, row in enumerate(ofdm):
        assert row.startswith(f"64,8,{i},mrc_ofdm,0,") and row.endswith(",nan,nan,nan"), row
    assert not any(row.endswith("nan") for row in rows[1:4]), rows[1:4]
    for row in rows[1:4]:  # a decoded frame: iterations and dd_changed are counts
        iterations, _, dd_changed = row.split(",")[-3:]
        assert iterations.isdigit() and dd_changed.isdigit(), row
    assert [pt.frames_failed for pt in points] == [1, 1, 1, 0]


# two lengths x two SNRs x three frames: a serial run draws ahead across
# trial, SNR and sequence-length boundaries
MULTI = dataclasses.replace(
    SMALL, seq_lengths=(32, 64), L_est=2, snr_db_list=(8.0, 14.0), frames_per_point=3
)
# _map_cells' task order: largest P first, then the cell order, then the trial index
MULTI_TASKS = [(P, snr, i) for P in (64, 32) for snr in (8.0, 14.0) for i in range(3)]


def test_a_serial_run_scores_each_trial_as_alone_and_writes_the_pool_bytes(
    tmp_path, monkeypatch
):
    frame, calls = harness.run_trial, []

    def recorded(cfg, P, snr_db, trial_index, *ahead):
        outcome = frame(cfg, P, snr_db, trial_index, *ahead)
        calls.append(((P, snr_db, trial_index), ahead, outcome))
        return outcome

    outputs = []
    for workers in (1, 2):
        cfg = dataclasses.replace(
            MULTI,
            workers=workers,
            out_path=str(tmp_path / f"sweep{workers}.csv"),
            dump_path=str(tmp_path / f"dump{workers}.csv"),
        )
        with monkeypatch.context() as patch:
            if workers == 1:  # a pool task would have to pickle the recorder
                patch.setattr(harness, "run_trial", recorded)
            sweep(cfg)
        trace = tmp_path / f"trace{workers}.csv"
        traces = residual_trace(dataclasses.replace(cfg, dump_path=None, out_path=str(trace)))
        assert [(tr.snr_db, tr.P) for tr in traces] == [(8.0, 32), (8.0, 64), (14.0, 32), (14.0, 64)]
        names = ("sweep", "dump", "trace")
        outputs.append([(tmp_path / f"{name}{workers}.csv").read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    # the dump's rows follow the cells, (P, snr), and each cell's trials in order
    keys = [tuple(row.split(",")[:3]) for row in outputs[0][1].decode().splitlines()[1:]]
    assert keys == [
        (str(P), format(snr, ".12g"), str(i))
        for P in (32, 64)
        for snr in (8.0, 14.0)
        for i in range(3)
        for _ in MULTI.receivers
    ]
    # one call per frame through the module global, each handed the trial the
    # helper prepared while the frame before it decoded
    assert [key for key, _, _ in calls] == MULTI_TASKS
    assert all(isinstance(ahead, Future) for _, (ahead,), _ in calls)
    for (P, snr_db, i), _, outcome in calls:
        assert outcome == run_trial(MULTI, P, snr_db, i)


def test_the_helper_draws_each_task_once_in_task_order(monkeypatch):
    draw, drawn = harness.draw_trial, []

    def recorded(cfg, P, snr_db, trial_index):
        drawn.append(((P, snr_db, trial_index), threading.current_thread()))
        return draw(cfg, P, snr_db, trial_index)

    monkeypatch.setattr(harness, "draw_trial", recorded)
    for run in (sweep, residual_trace):
        drawn.clear()
        run(MULTI)
        assert [key for key, _ in drawn] == MULTI_TASKS
        threads = {thread for _, thread in drawn}  # one helper, never this thread
        assert len(threads) == 1 and threading.main_thread() not in threads


def test_a_draw_that_raises_surfaces_at_its_trial_and_leaves_no_thread(monkeypatch):
    before = threading.active_count()
    for run in (sweep, residual_trace):
        run(MULTI)
        assert threading.active_count() == before
    draw = harness.draw_trial
    frames = {"run_trial": harness.run_trial, "trace_trial": harness.trace_trial}
    scored = []

    def third_draw_fails(cfg, P, snr_db, trial_index):
        if trial_index == 2:
            raise RuntimeError(f"no draw for trial {trial_index}")
        return draw(cfg, P, snr_db, trial_index)

    def counted(name):
        def scored_frame(cfg, P, snr_db, trial_index, *ahead):
            result = frames[name](cfg, P, snr_db, trial_index, *ahead)
            scored.append(trial_index)
            return result

        return scored_frame

    monkeypatch.setattr(harness, "draw_trial", third_draw_fails)
    for name in frames:
        monkeypatch.setattr(harness, name, counted(name))
    for run in (sweep, residual_trace):
        scored.clear()
        with pytest.raises(RuntimeError, match="no draw for trial 2"):
            run(MULTI)
        assert scored == [0, 1]  # raised at the third frame's own call
        assert threading.active_count() == before


def test_a_pool_task_scores_a_block_of_one_cells_trials(tmp_path, monkeypatch):
    # twenty frames a cell on two workers: each cell reaches the pool as
    # blocks of 8, 8 and 4 consecutive trials, largest P first
    requested, mapped, frames = [], [], []

    class InlinePool:  # runs each task in this process, so frames can be recorded
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            mapped.append(list(zip(*iterables)))
            return map(fn, *iterables)

    def recorder(name):
        frame = getattr(harness, name)

        def recorded(cfg, P, snr_db, trial_index, ahead=None):
            frames.append(("entered", (P, snr_db, trial_index), ahead))
            outcome = frame(cfg, P, snr_db, trial_index, ahead)
            frames.append(("scored", (P, snr_db, trial_index), ahead))
            return outcome

        return recorded

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    for name in ("run_trial", "trace_trial"):
        monkeypatch.setattr(harness, name, recorder(name))
    n = 20
    outputs = []
    for workers in (1, 2):
        cfg = dataclasses.replace(
            MULTI,
            frames_per_point=n,
            workers=workers,
            out_path=str(tmp_path / f"sweep{workers}.csv"),
            dump_path=str(tmp_path / f"dump{workers}.csv"),
        )
        frames.clear()
        sweep(cfg)
        trace = tmp_path / f"trace{workers}.csv"
        residual_trace(dataclasses.replace(cfg, dump_path=None, out_path=str(trace)))
        if workers == 2:
            pooled = [ahead for event, _, ahead in frames if event == "scored"]
            assert len(pooled) == 2 * 4 * n and all(ahead is None for ahead in pooled)
        names = ("sweep", "dump", "trace")
        outputs.append([(tmp_path / f"{name}{workers}.csv").read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    assert requested == [2, 2]  # one pool for the sweep, one for the trace
    trials = [(P, snr, i) for P in (64, 32) for snr in (8.0, 14.0) for i in range(n)]
    for tasks in mapped:
        blocks = [[task[1:] for task in block] for (block,) in tasks]
        # at most _BLOCK long; 80 // 2 does not bind here
        assert [len(block) for block in blocks] == [8, 8, 4] * 4
        for block in blocks:
            (P, snr_db, first), *_ = block
            assert block == [(P, snr_db, first + k) for k in range(len(block))]
        assert [key for block in blocks for key in block] == trials  # each once, largest P first

    draw = harness.draw_trial

    def third_draw_fails(cfg, P, snr_db, trial_index):
        if trial_index == 2:
            raise RuntimeError(f"no draw for trial {trial_index}")
        return draw(cfg, P, snr_db, trial_index)

    monkeypatch.setattr(harness, "draw_trial", third_draw_fails)
    pooled = dataclasses.replace(MULTI, frames_per_point=n, workers=2)
    for run in (sweep, residual_trace):
        frames.clear()
        with pytest.raises(RuntimeError, match="no draw for trial 2"):
            run(pooled)
        # the first block's third frame drew inside its own call, and raised there
        assert [(event, key[2]) for event, key, _ in frames] == [
            ("entered", 0), ("scored", 0), ("entered", 1), ("scored", 1), ("entered", 2)
        ]


def test_a_single_trial_run_equals_its_trial_alone(monkeypatch):
    frame, calls = harness.run_trial, []

    def recorded(cfg, P, snr_db, trial_index, *ahead):
        outcome = frame(cfg, P, snr_db, trial_index, *ahead)
        calls.append(((P, snr_db, trial_index), ahead, outcome))
        return outcome

    one = dataclasses.replace(SMALL, frames_per_point=1)
    (P,), (snr_db,) = one.seq_lengths, one.snr_db_list
    before = threading.active_count()
    monkeypatch.setattr(harness, "run_trial", recorded)
    sweep(one)
    (trace,) = residual_trace(one)
    assert threading.active_count() == before
    ((key, (ahead,), outcome),) = calls  # drawn on the helper like any other
    assert key == (P, snr_db, 0) and isinstance(ahead, Future)
    assert outcome == run_trial(one, P, snr_db, 0)
    np.testing.assert_array_equal(trace.errors, harness.trace_trial(one, P, snr_db, 0))


def test_the_helper_prepares_the_compression_and_every_baseline(monkeypatch):
    # with a blind receiver selected, the helper compresses each trial and
    # runs every baseline on it, and the decoding thread does neither; with
    # the baseline alone the helper only draws, and the baseline decodes here
    import scfde.blind_rx as blind_rx

    compress, baseline, threads = blind_rx.compress_columns, BASELINES["mrc_ofdm"], {}

    def recorded(name, fn):
        def called(*args):
            threads.setdefault(name, []).append(threading.current_thread())
            return fn(*args)

        return called

    monkeypatch.setattr(blind_rx, "compress_columns", recorded("compress", compress))
    monkeypatch.setitem(BASELINES, "mrc_ofdm", recorded("mrc_ofdm", baseline))
    main, n = threading.main_thread(), len(MULTI_TASKS)
    sweep(MULTI)
    for name in ("compress", "mrc_ofdm"):
        assert len(threads[name]) == n and main not in threads[name], name
    threads.clear()
    sweep(dataclasses.replace(MULTI, receivers=("mrc_ofdm",)))
    assert threads == {"mrc_ofdm": [main] * n}


@pytest.mark.parametrize("workers", [1, 2])
def test_a_trace_runs_no_baseline(workers, monkeypatch):
    mapped = []

    class InlinePool:  # runs each task in this process, where the baseline is patched
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            mapped.append(fn)
            return map(fn, *iterables)

    def no_baseline(draw):
        raise AssertionError("a trace ran a baseline")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setitem(BASELINES, "mrc_ofdm", no_baseline)
    cfg = dataclasses.replace(MULTI, workers=workers)
    assert [(tr.P, tr.snr_db) for tr in residual_trace(cfg)] == [
        (32, 8.0), (64, 8.0), (32, 14.0), (64, 14.0)
    ]
    assert len(mapped) == (workers > 1)


def _arrays(value):
    """Every numpy array value holds, through dataclass fields, dicts and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (dict, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


def test_a_prepared_trial_holds_no_receive_sized_array(monkeypatch):
    # the helper hands over AM's K x P input, not the P x Nr draws: no array
    # it hands a sweep or a trace frame is as large as one P x Nr matrix
    cfg, handed = dataclasses.replace(MULTI, Nr=16), []

    def recorder(frame):
        def recorded(cfg, P, snr_db, trial_index, ahead=None):
            handed.append((P, ahead.result()))
            return frame(cfg, P, snr_db, trial_index, ahead)

        return recorded

    for name in ("run_trial", "trace_trial"):
        monkeypatch.setattr(harness, name, recorder(getattr(harness, name)))
    sweep(cfg)
    residual_trace(cfg)
    assert len(handed) == 2 * len(MULTI_TASKS)
    for P, trial in handed:
        assert trial.draw is None and trial.compression is not None
        assert all(a.size < P * cfg.Nr for a in _arrays(trial)), P


@pytest.mark.parametrize("stage", ["compression", "baseline"])
def test_an_error_while_preparing_surfaces_at_its_trial_and_leaves_no_thread(
    stage, monkeypatch
):
    # an error other than ReceiverError, raised on the helper while it
    # prepares the third trial, is raised by that trial's own call
    import scfde.blind_rx as blind_rx

    before, calls, scored = threading.active_count(), [], []
    frames = {"run_trial": harness.run_trial, "trace_trial": harness.trace_trial}

    def third_fails(fn):
        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError(f"no {stage} for trial 2")
            return fn(*args)

        return failing

    def counted(name):
        def scored_frame(cfg, P, snr_db, trial_index, *ahead):
            result = frames[name](cfg, P, snr_db, trial_index, *ahead)
            scored.append(trial_index)
            return result

        return scored_frame

    if stage == "compression":
        monkeypatch.setattr(blind_rx, "compress_columns", third_fails(blind_rx.compress_columns))
        runs = (sweep, residual_trace)
    else:  # a trace prepares no baseline
        monkeypatch.setitem(BASELINES, "mrc_ofdm", third_fails(BASELINES["mrc_ofdm"]))
        runs = (sweep,)
    for name in frames:
        monkeypatch.setattr(harness, name, counted(name))
    for run in runs:
        calls.clear()
        scored.clear()
        with pytest.raises(RuntimeError, match=f"no {stage} for trial 2"):
            run(MULTI)
        assert scored == [0, 1]
        assert threading.active_count() == before


def test_a_baseline_that_raises_on_the_helper_fails_its_row_alone(tmp_path, monkeypatch):
    # a ReceiverError raised by a baseline while the helper prepares a trial is
    # that row's failed frame; the blind rows of the trial still score
    def run(tag):
        out, dump = tmp_path / f"{tag}.csv", tmp_path / f"{tag}_dump.csv"
        sweep(dataclasses.replace(MULTI, out_path=str(out), dump_path=str(dump)))
        return out.read_text().splitlines(), dump.read_text().splitlines()

    rows, dump = run("before")
    baseline, threads = BASELINES["mrc_ofdm"], []

    def second_fails(draw):
        threads.append(threading.current_thread())
        if len(threads) == 2:  # the second trial prepared: P = 64, 8 dB, trial 1
            raise DegenerateBinError(0)
        return baseline(draw)

    monkeypatch.setitem(BASELINES, "mrc_ofdm", second_fails)
    failed_rows, failed_dump = run("after")
    assert threading.main_thread() not in threads
    changed = [(a.split(",")[:4], b) for a, b in zip(dump, failed_dump) if a != b]
    assert changed == [(["64", "8", "1", "mrc_ofdm"], "64,8,1,mrc_ofdm,1,0,0,nan,nan,nan")]
    changed = [b.split(",")[:3] + b.split(",")[8:9] for a, b in zip(rows, failed_rows) if a != b]
    assert changed == [["8", "mrc_ofdm", "64", "1"]]  # frames_failed 1


def test_trace_writes_its_csv_to_out_path(tmp_path):
    out = tmp_path / "trace.csv"
    cfg = dataclasses.replace(SMALL, frames_per_point=2, out_path=str(out))
    traces = residual_trace(cfg)
    assert out.read_bytes() == render_trace_csv(cfg, traces).encode()


@pytest.mark.parametrize("field", ["out_path", "dump_path"])
def test_unwritable_output_refused_while_the_config_is_built(tmp_path, monkeypatch, field):
    def no_trial(*args):
        raise AssertionError("a trial ran before the output paths were checked")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    monkeypatch.setattr(harness, "trace_trial", no_trial)
    folder = tmp_path / "folder"
    folder.mkdir()
    monkeypatch.chdir(folder)  # where abspath("") points
    missing = str(tmp_path / "missing" / "x.csv")
    for path, error in (
        ("", FileNotFoundError),
        (str(folder), IsADirectoryError),
        (missing, FileNotFoundError),
    ):
        for run in (sweep, residual_trace):
            with pytest.raises(error, match=re.escape(repr(path))):
                run(dataclasses.replace(SMALL, **{field: path}))
        with pytest.raises(error):
            SimulationConfig(**{field: path})
    # an empty path is refused as such even when the other is empty too
    with pytest.raises(FileNotFoundError, match="is empty"):
        dataclasses.replace(SMALL, out_path="", dump_path="")
    assert list(tmp_path.iterdir()) == [folder] and not any(folder.iterdir())


def test_trace_final_value_matches_receiver_residual():
    trace = trace_trial(SMALL, 64, 8.0, 1)
    outcome = run_trial(dataclasses.replace(SMALL, receivers=("blind_pilot",)), 64, 8.0, 1)
    assert outcome["blind_pilot"].final_residual == pytest.approx(
        float(trace[-1]), rel=1e-12
    )


def test_trace_noiseless_flat_channel_converges_fast():
    cfg = dataclasses.replace(SMALL, L=1, L_est=1, frames_per_point=3, snr_db_list=(300.0,))
    traces = residual_trace(cfg)
    errors = traces[0].errors
    assert errors[min(len(errors), 10) - 1] < 1e-6


def test_am_runs_to_the_cap_on_fig5_frames_at_7_db():
    # the stall stop leaves the preset traffic alone: the residual still
    # falls at every step, so each frame runs all max_iter steps
    cfg = SimulationConfig(**PRESETS["fig5"], seed=501)
    for trial in range(3):
        trace = trace_trial(cfg, 1024, 7.0, trial)
        assert len(trace) == BlindConfig.max_iter, trial
        assert np.all(np.diff(trace) < 0), trial


def test_trace_is_finite_and_shaped():
    cfg = dataclasses.replace(SMALL, frames_per_point=2)
    traces = residual_trace(cfg)
    assert len(traces) == 1
    assert traces[0].P == 64
    assert len(traces[0].errors) <= BlindConfig.max_iter
    assert np.all(np.isfinite(traces[0].errors))
    text = render_trace_csv(cfg, traces)
    assert "P,snr_db,iteration,normalized_error" in text


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(seq_lengths=(100,))  # not a power of two
    with pytest.raises(ValueError):
        SimulationConfig(receivers=("bogus",))
    with pytest.raises(ValueError):
        SimulationConfig(frames_per_point=0)
    with pytest.raises(ValueError):
        SimulationConfig(workers=0)
    with pytest.raises(ValueError):
        SimulationConfig(seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(receivers=())
    with pytest.raises(ValueError):
        SimulationConfig(Nr=0)
    with pytest.raises(ValueError):
        SimulationConfig(ofdm_taps=0)
    with pytest.raises(ValueError):  # both SNRs key the same random substream
        SimulationConfig(snr_db_list=(7.0, 7.0004))
    with pytest.raises(ValueError):
        SimulationConfig(seq_lengths=())
    with pytest.raises(ValueError):  # each length would run and print twice
        SimulationConfig(seq_lengths=(64, 64))
    with pytest.raises(ValueError):
        SimulationConfig(snr_db_list=())
    with pytest.raises(ValueError, match="nonempty list"):  # a bare string is no list
        SimulationConfig(receivers="mrc_ofdm")
    with pytest.raises(TypeError):
        SimulationConfig(seq_lengths=64)
    # the tap-power decay and the ridge weight are constants, not settings
    with pytest.raises(TypeError):
        SimulationConfig(pdp_ratio=0.5)
    with pytest.raises(TypeError):
        SimulationConfig(mu=0.5)


WHOLE = dataclasses.replace(SMALL, ofdm_taps=3, workers=2)


@pytest.mark.parametrize("kind", [float, bool])
@pytest.mark.parametrize(
    "name", ["Nr", "frames_per_point", "seed", "workers", "L", "L_est", "M", "ofdm_taps", "P"]
)
def test_a_count_that_is_not_a_whole_number_is_refused(name, kind):
    # 3.0 == 3 passed every range check and then failed mid-run; each owner
    # of a count refuses it while the config is built, and a numpy integer
    # is still a whole number
    get_constellation.cache_clear()

    def fields(convert):
        if name == "P":
            return {"seq_lengths": (convert(64),)}
        return {name: convert(getattr(WHOLE, name))}

    with pytest.raises(ValueError, match="whole"):
        dataclasses.replace(WHOLE, **fields(kind))
    numpy_int = dataclasses.replace(WHOLE, **fields(np.int64))
    assert numpy_int == dataclasses.replace(WHOLE, **fields(int))


def test_a_refused_float_count_leaves_the_plans_to_its_whole_twin():
    # the plan cache keys on the typed plan fields, as 3.0 == 3: a float is
    # refused both before and after its whole-number twin has run, and the
    # refused float leaves no plan behind for the twin to run on
    whole = dataclasses.replace(SMALL, ofdm_taps=3, frames_per_point=2)
    for name in ("L", "L_est", "M", "ofdm_taps"):
        twin = {name: float(getattr(whole, name))}
        with pytest.raises(ValueError, match="whole number"):
            dataclasses.replace(whole, **twin)
        assert all(point.frames_failed == 0 for point in sweep(whole))
        with pytest.raises(ValueError, match="whole number"):
            dataclasses.replace(whole, **twin)
    # the alphabet's cache holds the 16-QAM alphabet now, and still refuses 16.0
    with pytest.raises(ValueError, match="whole number"):
        get_constellation(16.0)


def test_selected_receivers_canonical_order():
    # a reordered, repeated selection is stored once, in canonical order, so
    # its CSV (echo included) is the canonical selection's, byte for byte
    cfg = dataclasses.replace(SMALL, receivers=("mrc_ofdm", "blind_pilot", "mrc_ofdm"))
    assert cfg.receivers == ("blind_pilot", "mrc_ofdm")
    assert not hasattr(cfg, "selected")
    canonical = dataclasses.replace(SMALL, receivers=("blind_pilot", "mrc_ofdm"))
    assert render_csv(cfg, sweep(cfg)) == render_csv(canonical, sweep(canonical))


@pytest.mark.parametrize("name, value", [("seq_lengths", [64]), ("snr_db_list", [8.0])])
def test_a_list_builds_the_config_its_tuple_builds(name, value):
    # a list is stored as the tuple it names, so the two configs are equal
    listed = dataclasses.replace(SMALL, frames_per_point=1, **{name: value})
    tupled = dataclasses.replace(SMALL, frames_per_point=1)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert render_csv(listed, sweep(listed)) == render_csv(tupled, sweep(tupled))


def test_the_receiver_table_is_the_blind_modes_then_the_baselines():
    assert RECEIVERS == ("blind_pilot", "blind_ca", "blind_qq", "mrc_ofdm")
    assert RECEIVERS == (*MODES, *BASELINES)


def test_a_registered_baseline_becomes_a_sweep_and_dump_row(tmp_path, monkeypatch):
    # a reference receiver is one BASELINES entry: run_trial, the sweep and
    # the dump score it as they score every other row, and leave those alone
    calls = []

    def sent_payload(draw):  # decides the sent bits, and fails on trial 1
        calls.append(draw)
        if len(calls) == 2:
            raise DegenerateBinError(0)
        return draw.ofdm_payload.copy(), draw.ofdm_payload

    def run(receivers, tag):
        out, dump = tmp_path / f"{tag}.csv", tmp_path / f"{tag}_dump.csv"
        cfg = dataclasses.replace(
            SMALL, frames_per_point=3, receivers=receivers, out_path=str(out), dump_path=str(dump)
        )
        sweep(cfg)
        return out.read_text().splitlines(), dump.read_text().splitlines()

    before, before_dump = run(RECEIVERS, "before")
    monkeypatch.setattr(harness, "BASELINES", {**BASELINES, "stub": sent_payload})
    monkeypatch.setattr(harness, "RECEIVERS", (*RECEIVERS, "stub"))
    after, after_dump = run((*RECEIVERS, "stub"), "after")
    assert len(calls) == 3

    size = calls[0].ofdm_payload.size
    echo = "# receivers = " + ",".join(RECEIVERS)
    assert after == [echo + ",stub" if line == echo else line for line in before] + [
        f"8,stub,64,4,3,3,16,3,1,{2 * size},0,0,nan,nan"
    ]
    assert [row for row in after_dump if ",stub," not in row] == before_dump
    assert [row for row in after_dump if ",stub," in row] == [
        f"64,8,0,stub,0,{size},0,nan,nan,nan",
        "64,8,1,stub,1,0,0,nan,nan,nan",
        f"64,8,2,stub,0,{size},0,nan,nan,nan",
    ]


def test_ofdm_config_defaults_to_all_pilot_taps():
    plan = draw_trial(SMALL, 64, 8.0, 0).ofdm_cfg
    assert plan.L_trunc is None
    # None keeps every pilot tap: the same estimate as L_trunc = ceil(0.1 * 64)
    rng = np.random.default_rng(5)
    Yf = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    explicit = OfdmPilotConfig(P=64, M=SMALL.M, L_trunc=7)
    assert np.array_equal(estimate_channel(Yf, plan), estimate_channel(Yf, explicit))
    informed = dataclasses.replace(SMALL, ofdm_taps=3)
    assert draw_trial(informed, 64, 8.0, 0).ofdm_cfg.L_trunc == 3


def test_trials_read_the_plans_the_config_built(monkeypatch, tmp_path):
    # SimulationConfig builds every plan, and the channel's tap powers, to
    # check it; a sweep and a trace then read those objects rather than
    # building their own for each frame, and a config that differs only in
    # fields no plan reads shares them
    cfg = dataclasses.replace(SMALL, seq_lengths=(32, 64), frames_per_point=2, workers=1)
    built = []

    def counted(check):
        def post_init(self):
            built.append(type(self).__name__)
            check(self)

        return post_init

    def profile(L):
        built.append("geometric_profile")
        return geometric_profile(L)

    for plan in (FrameConfig, OfdmPilotConfig, BlindConfig):
        monkeypatch.setattr(plan, "__post_init__", counted(plan.__post_init__))
    monkeypatch.setattr(harness, "geometric_profile", profile)
    sweep(cfg)
    residual_trace(cfg)
    unread = dict(
        seed=6,
        snr_db_list=(4.0,),
        frames_per_point=3,
        workers=2,
        receivers=("mrc_ofdm",),
        out_path=str(tmp_path / "out.csv"),
    )
    twins = [dataclasses.replace(cfg, **{name: value}) for name, value in unread.items()]
    assert built == []
    first = draw_trial(cfg, 64, 8.0, 0)
    for draw in (draw_trial(cfg, 64, 8.0, 1), *(draw_trial(t, 64, 8.0, 0) for t in twins)):
        assert draw.frame_cfg is first.frame_cfg
        assert draw.ofdm_cfg is first.ofdm_cfg
        assert draw.blind_cfg is first.blind_cfg


def test_the_identifiability_bound_has_one_owner(monkeypatch):
    # the config check and AM's compression both ask BlindConfig.check_length,
    # so a stricter bound refuses in both a length that P > 2*L_est allows
    def stricter(self, P):
        if P <= 4 * self.L_est:
            raise ValueError(f"need P > 4*L_est, got P={P}, L_est={self.L_est}")

    fields = dict(seq_lengths=(64,), L=2, L_est=20, Nr=2, snr_db_list=(29.0,))
    SimulationConfig(**fields)
    monkeypatch.setattr(BlindConfig, "check_length", stricter)
    harness._plan.cache_clear()  # the config just built must be checked afresh
    with pytest.raises(ValueError, match=r"4\*L_est"):
        SimulationConfig(**fields)
    Yf = np.random.default_rng(29).standard_normal((64, 2)) + 0j
    with pytest.raises(ValueError, match=r"4\*L_est"):
        Compression.of(Yf, BlindConfig(L_est=20))
