"""Machine-speed reference that steadies timings on a shared machine.

On a machine shared with other jobs, the same frame can take anywhere from
0.8x to 1.8x its quiet time, in phases that last long enough to shift a
whole run. The benchmark therefore times a fixed numpy kernel of the
program's shape (a 1024 x 64 complex receive matrix: Gaussian draws, FFT,
ridge solve, combining and einsum, single-threaded) after every timed job
and set-up probe, and rescales the run's times by ``REFERENCE_S / median
reference time``. The reference code belongs to the benchmark, so it is the
same for a change and its parent; a change that speeds up the program shows
in full, while a phase that slows the whole machine cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Nominal duration of one Reference.measure() call on an idle core; rescaled
# times read as if the machine ran at that speed.
REFERENCE_S = 0.008
_REPEATS = 4


class Reference:
    def __init__(self):
        import numpy as np

        self._np = np
        self.rng = np.random.default_rng(0)
        self.Y = self.rng.standard_normal((1024, 64)) + 1j * self.rng.standard_normal((1024, 64))
        self.F = np.fft.fft(np.eye(1024)[:, :9], axis=0) / 32.0
        self.ridge = 0.5 * np.eye(9)
        self.measure()  # first call pays for lazy set-up

    def measure(self) -> float:
        np, Y, F = self._np, self.Y, self.F
        t0 = perf_counter()
        for _ in range(_REPEATS):
            W = self.rng.standard_normal((1024, 16)) + 1j * self.rng.standard_normal((1024, 16))
            np.fft.fft(Y[:, :16] + W, axis=0)
            np.fft.fft(Y, axis=0)
            A = F * Y[:, :1]
            H = np.linalg.solve(A.conj().T @ A + self.ridge, A.conj().T @ Y)
            G = Y @ H.conj().T
            np.einsum("pl,pl->p", G, F.conj())
        return perf_counter() - t0


class Clock:
    """Reference times sampled between measurements during one run.

    One factor per run, ``REFERENCE_S / median sample``, rescales every time
    of the run. Single samples are too noisy to rescale a single job: the
    reference itself varies by ~15% from one call to the next, while the
    machine's speed drifts over seconds to minutes."""

    def __init__(self):
        self.reference = Reference()
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(self.reference.measure())

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
