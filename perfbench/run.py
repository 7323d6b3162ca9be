#!/usr/bin/env python3
"""Benchmark of the scfde simulator, driven through ``scfde.cli.main``.

    python3 perfbench/run.py --workload fig5_7db --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 [--trace 1]

One run sets up (median of several fresh-process set-ups), then repeats
timed jobs, each one ``scfde sweep``/``scfde trace`` call on a seed drawn
from ``--seed``, for ``--seconds`` seconds. Every job's CSV is checked; a
job that fails its check counts as failed and is not timed. The quality
cell, the same command at the workload seed, gives the bit errors and the
residual. With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics from spans recorded
around each layer's public functions. All times are rescaled to a fixed
machine speed (calibrate.py). See README.md in this directory.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is imported, so that
# pool workers x threads never exceed the cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
from calibrate import Clock  # noqa: E402
from checks import CheckError, ber, check_sweep, check_trace  # noqa: E402
from layers import Totals, layer_metrics  # noqa: E402
from workloads import ALL_RECEIVERS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
MIN_JOBS = 3
PROBE_TIMEOUT_S = 120


@dataclass
class Job:
    argv: list
    wall: float
    text: str
    spans: list
    error: str = ""


class Bench:
    def __init__(self, workload, args, workdir: Path):
        self.w = workload
        self.args = args
        self.workdir = workdir
        self.workload_seed = workload.seed if args.workload_seed is None else args.workload_seed
        self.cli = importlib.import_module("scfde.cli")
        self.np = importlib.import_module("numpy")
        self.clock = Clock()
        self.raw: dict = {}
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def job_seed(self, j: int) -> int:
        entropy = [self.workload_seed, self.args.seed % 2**32, j]
        return int(self.np.random.SeedSequence(entropy).generate_state(1)[0])

    def job(self, seed: int, frames: int, traced: bool, **argv_kw) -> Job:
        spans.install(traced)
        out = self.workdir / "job.csv"
        argv = self.w.argv(seed, frames, str(out), **argv_kw)
        spans.take()
        error = ""
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:
            rc, error = None, traceback.format_exc()
        wall = perf_counter() - t0
        recorded = spans.take()
        if rc != 0 and not error:
            error = f"scfde exited with code {rc}"
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        return Job(argv, wall, text, recorded, error)

    def check(self, job: Job, frames: int, receivers=None):
        """Returns the sweep table or the trace's final residuals."""
        if job.error:
            raise CheckError(job.error)
        counted = sum(1 for s in job.spans if s[0] in spans.FRAME_SPANS)
        if counted != frames * len(self.w.seq_lengths):
            raise CheckError(f"{counted} frame spans, expected {frames * len(self.w.seq_lengths)}")
        if job.argv[0] == "trace":
            return check_trace(job.text, self.w.seq_lengths)
        receivers = self.w.receivers if receivers is None else receivers
        return check_sweep(job.text, self.w.seq_lengths, receivers, frames)

    def timed(self, seed: int, traced: bool):
        """One timed job; returns (job, checked output) or (job, None) if it failed."""
        job = self.job(seed, self.w.job_frames, traced)
        self.clock.sample()
        outcomes = self.w.frames_per_job * self.w.outcomes_per_frame
        self.attempted += outcomes
        try:
            result = self.check(job, self.w.job_frames)
        except CheckError as err:
            self.fail(f"job {job.argv}: {err}")
            self.failed += outcomes
            return job, None
        if self.w.command == "sweep":
            self.failed += sum(int(r["frames_failed"]) for r in result.values())
        return job, result

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    def repeat_matches(self, first: Job, traced: bool) -> Job:
        """Rerun the first timed job; its CSV bytes must not change."""
        again = self.job(self.job_seed(0), self.w.job_frames, traced)
        if again.error or again.text != first.text:
            self.fail(f"rerun of {first.argv} changed the CSV bytes {again.error}")
        return again

    def quality(self, traced: bool):
        """The workload's own command at the workload seed."""
        job = self.job(self.workload_seed, self.w.quality_frames, traced)
        try:
            return job, self.check(job, self.w.quality_frames)
        except CheckError as err:
            self.fail(f"quality cell {job.argv}: {err}")
            return job, None

    # -- end-to-end run ----------------------------------------------------

    def run_untraced(self) -> dict:
        setup_s = measure_setup(self.args, self.clock)
        self.job(self.workload_seed, 1, traced=False)  # warm-up: caches, lazy imports
        passed, bits, first = [], {}, None
        deadline = perf_counter() + self.args.seconds
        j = 0
        while j < MIN_JOBS or perf_counter() < deadline:
            job, result = self.timed(self.job_seed(j), traced=False)
            if j == 0 and result is not None:
                first = job
            if result is not None:
                passed.append(job)
                for (_, rx), r in (result.items() if self.w.command == "sweep" else ()):
                    b, e = bits.get(rx, (0, 0))
                    bits[rx] = (b + int(r["bits_total"]), e + int(r["bit_errors"]))
            j += 1
        if first is not None:
            self.repeat_matches(first, traced=False)
        if self.w.qq_beats_ofdm and bits:
            qq, ofdm = (e / b for b, e in (bits["blind_qq"], bits["mrc_ofdm"]))
            if qq > ofdm:
                self.fail(f"timed jobs: blind_qq BER {qq:.3g} > mrc_ofdm BER {ofdm:.3g}")

        own, own_result = self.quality(traced=False)
        full = self.full_cell(own_result)
        # every time is rescaled to the reference machine speed (calibrate.py)
        scale = self.clock.scale()
        metrics = {"setup_s": (setup_s * scale, "s")}
        frame_ms = [(s[2] - s[1]) * 1e3 for job in passed for s in job.spans if s[0] in spans.FRAME_SPANS]
        wall = sum(job.wall for job in passed)
        fps = len(frame_ms) / wall if wall else 0.0
        p50 = statistics.median(frame_ms) if frame_ms else 0.0
        p90 = statistics.quantiles(frame_ms, n=10)[-1] if len(frame_ms) > 1 else p50
        metrics["frames_per_s"] = (fps / scale, "1/s")
        metrics["frame_ms_p50"] = (p50 * scale, "ms")
        metrics["frame_ms_p90"] = (p90 * scale, "ms")
        self.raw = {"timed_frames": len(frame_ms), "timed_jobs": len(passed), "scale": scale,
                    "setup_s": setup_s, "frames_per_s": fps, "frame_ms_p50": p50, "frame_ms_p90": p90}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        for rx in ALL_RECEIVERS:
            errors = sum(int(r["bit_errors"]) for (_, name), r in (full or {}).items() if name == rx)
            metrics[f"bit_errors.{rx}"] = (errors, "count")
        if self.w.command == "trace" and own_result:
            residual = statistics.fmean(own_result.values())
        elif full:
            residual = statistics.fmean(
                float(r["mean_final_residual"]) for (_, rx), r in full.items() if rx == "blind_qq"
            )
        else:
            residual = 0.0
        metrics["mean_final_residual"] = (residual, "ratio")
        return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    def full_cell(self, own_result):
        """Sweep with all four receivers at the workload seed: the bit errors.

        For a sweep workload over fewer receivers, its own rows must equal the
        full sweep's, since enabling receivers never changes results."""
        if self.w.command == "sweep" and self.w.receivers == ALL_RECEIVERS:
            table = own_result
        else:
            job = self.job(self.workload_seed, self.w.quality_frames, traced=False,
                           command="sweep", receivers=ALL_RECEIVERS)
            try:
                table = self.check(job, self.w.quality_frames, receivers=ALL_RECEIVERS)
            except CheckError as err:
                self.fail(f"full sweep {job.argv}: {err}")
                return None
        if self.w.command == "sweep" and own_result and table:
            for key, row in own_result.items():
                if row != table[key]:
                    self.fail(f"{key}: row {row} differs from the all-receiver sweep {table[key]}")
        if self.w.qq_beats_ofdm and table and ber(table, "blind_qq") > ber(table, "mrc_ofdm"):
            self.fail("quality cell: blind_qq BER exceeds mrc_ofdm BER")
        return table

    # -- traced run --------------------------------------------------------

    def run_traced(self) -> dict:
        self.job(self.workload_seed, 1, traced=True)  # warm-up
        timed = Totals()
        wall = {False: 0.0, True: 0.0}
        frames = {False: 0, True: 0}
        first_traced = None
        deadline = perf_counter() + self.args.seconds
        j = 0
        while j < MIN_JOBS or perf_counter() < deadline:
            # each seed runs untraced and traced, in alternating order
            for traced in (False, True) if j % 2 == 0 else (True, False):
                job, result = self.timed(self.job_seed(j), traced)
                if result is None:
                    continue
                wall[traced] += job.wall
                frames[traced] += self.w.frames_per_job
                if traced:
                    timed.add(job.spans)
                    if j == 0:
                        first_traced = job
            j += 1
        if first_traced is not None:
            again = self.repeat_matches(first_traced, traced=True)
            counts = [Totals() for _ in range(2)]
            counts[0].add(first_traced.spans)
            counts[1].add(again.spans)
            if counts[0].counts() != counts[1].counts():
                self.fail(f"counts changed on rerun: {counts[0].counts()} != {counts[1].counts()}")
        own, _ = self.quality(traced=True)
        quality = Totals()
        quality.add(own.spans)
        if spans.missing_targets:
            print(f"perfbench: not defined, reading 0: {spans.missing_targets}", file=sys.stderr)
        if not (timed.frames and quality.frames and wall[False] and wall[True]):
            self.fail("no traced or untraced job passed its check")
            return {}
        fps = {t: frames[t] / wall[t] for t in (False, True)}
        return layer_metrics(timed, quality, wall[True], self.w.workers, fps[True], fps[False],
                             self.clock.scale())


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child (pool
    workers, set-up probes), in MiB."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def measure_setup(args, clock: Clock) -> float:
    """Median over fresh processes of: import scfde, one warm-up job through
    cli.main (which starts and stops the pool of a pool workload)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
           "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
        clock.sample()
    return statistics.median(times)


def probe_setup(workload, workdir: Path) -> float:
    t0 = perf_counter()
    cli = importlib.import_module("scfde.cli")
    rc = cli.main(workload.argv(workload.seed, 1, str(workdir / "warmup.csv")))
    if rc != 0:
        raise SystemExit(f"perfbench: warm-up job exited with code {rc}")
    return perf_counter() - t0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
    }


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    all_ok = True
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
        summary[name] = result
        ok = bool(result and result["correct"])
        all_ok &= ok
        print(f"== {name}: checks {'passed' if ok else 'FAILED'}", end="")
        if result:
            print(f", {result['failed']} of {result['attempted']} outcomes failed")
            for metric, m in result["metrics"].items():
                print(f"  {metric:42s} {m['value']:>14.6g} {m['unit']}")
        else:
            print(f", exit code {out.returncode}")
    print(json.dumps(summary))
    return 0 if all_ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1, help="seed of the timed jobs' inputs")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--workload-seed", type=int, default=None,
                   help="seed of the quality cell (default: the workload's; see README.md)")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: P <= 64, Nr = 4, for the smoke test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scfde" / "cli.py").is_file():
        print(f"perfbench: no scfde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = workload.tiny()
    workdir = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            print(json.dumps({"setup_s": probe_setup(workload, workdir)}))
            return 0
        bench = Bench(workload, args, workdir)
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        spans.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": environment(), "seed": args.seed, "workload_seed": bench.workload_seed,
                      "unscaled": bench.raw}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
