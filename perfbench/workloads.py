"""The benchmark's workloads: each is one ``scfde`` command line.

A timed job is one in-process ``scfde.cli.main`` call with ``job_frames``
frames per (P, SNR) point on a seed drawn from the run's ``--seed``. The
quality cell is the same command with ``quality_frames`` frames at the
workload seed; its bit errors, residual and counts repeat exactly for a
given version of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ALL_RECEIVERS = ("blind_pilot", "blind_ca", "blind_qq", "mrc_ofdm")
SNR_DB = "7"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # scfde subcommand: "sweep" or "trace"
    geometry: tuple  # flags that fix P, Nr, L, M
    seq_lengths: tuple  # the P values those flags select
    receivers: tuple  # receivers of a sweep; () for trace
    workers: int
    job_frames: int
    quality_frames: int
    seed: int  # default workload seed; README.md names the held-back ones
    qq_beats_ofdm: bool = False  # check blind_qq BER <= mrc_ofdm BER

    def argv(self, seed: int, frames: int, out: str, command=None, receivers=None) -> list:
        command = command or self.command
        args = [command, *self.geometry, "--snr", SNR_DB, "--frames", str(frames),
                "--seed", str(seed), "--workers", str(self.workers), "--out", out]
        receivers = self.receivers if receivers is None else receivers
        if command == "sweep" and receivers != ALL_RECEIVERS:
            args += ["--receivers", ",".join(receivers)]
        return args

    @property
    def frames_per_job(self) -> int:
        return self.job_frames * len(self.seq_lengths)

    @property
    def outcomes_per_frame(self) -> int:
        """Receiver outcomes one frame produces (a trace frame yields one)."""
        return max(1, len(self.receivers))

    def tiny(self) -> "Workload":
        """Same path at P <= 64, Nr = 4, for the benchmark's smoke test."""
        seq = (32, 64) if len(self.seq_lengths) > 1 else (64,)
        geometry = ("--seq-len", ",".join(map(str, seq)), "--nr", "4", "--taps", "2",
                    "--taps-est", "2", "--mod-order", "16")
        return replace(self, geometry=geometry, seq_lengths=seq, job_frames=2, quality_frames=4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig5_7db",
            why="headline fig5 point (P=1024, Nr=64, L=9, 64-QAM) at 7 dB with all four "
                "receivers; alternating minimization does most of the work",
            command="sweep",
            geometry=("--preset", "fig5"),
            seq_lengths=(1024,),
            receivers=ALL_RECEIVERS,
            workers=1,
            job_frames=8,
            quality_frames=40,
            seed=501,
            qq_beats_ofdm=True,
        ),
        Workload(
            name="ofdm_only",
            why="same geometry, seed and SNR with only mrc_ofdm: bypasses the blind "
                "receiver, so channel, constellation and OFDM changes show strongly",
            command="sweep",
            geometry=("--preset", "fig5"),
            seq_lengths=(1024,),
            receivers=("mrc_ofdm",),
            workers=1,
            job_frames=40,
            quality_frames=40,
            seed=501,
        ),
        Workload(
            name="fig7_trace_pool",
            why="scfde trace on fig7 (P=256/512/1024, Nr=64, L=5) with 2 pool workers: "
                "the second trial engine, residual traces and the process pool",
            command="trace",
            geometry=("--preset", "fig7"),
            seq_lengths=(256, 512, 1024),
            receivers=(),
            workers=2,
            job_frames=8,
            quality_frames=40,
            seed=503,
        ),
    )
}
