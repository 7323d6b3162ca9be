"""Per-layer metrics from recorded spans.

Times come from the traced timed jobs and are given per frame: ``.ms`` is a
span's inclusive time, ``self_ms`` its time minus the time its child spans
cover. Counts come from the traced quality cell, a fixed set of frames, so
they repeat exactly for a given version of the program.
"""

from __future__ import annotations

from collections import Counter

from spans import FRAME_SPANS

OUTPUT_SPANS = (
    "harness.aggregate",
    "harness.check_ber_monotonicity",
    "harness.write_csv",
    "harness.render_trace_csv",
)

# metric -> span whose inclusive time per frame it reports
INCLUSIVE_MS = {
    "channel.draw_channel.ms": "channel.draw_channel",
    "channel.complex_noise.ms": "channel.complex_noise",
    "channel.convolve_channel.ms": "channel.convolve_channel",
    "frame.build_frame.ms": "frame.build_frame",
    "frame.extract_data.ms": "frame.extract_data",
    "constellation.qam_modulate.ms": "constellation.qam_modulate",
    "constellation.qam_demodulate.ms": "constellation.qam_demodulate",
    "matrixkit.dft_forward.ms": "matrixkit.dft_forward",
    "matrixkit.top_left_singular_vector.ms": "matrixkit.top_left_singular_vector",
    "matrixkit.regularized_ls.ms": "matrixkit.regularized_ls",
    "baseline_rx.ofdm_transmit.ms": "baseline_rx.ofdm_transmit",
    "baseline_rx.ofdm_mrc_receive.ms": "baseline_rx.ofdm_mrc_receive",
}

# every per-layer metric with its unit, in report order
UNITS = {
    "harness.run_trial.ms": "ms/frame",
    "harness.self_ms": "ms/frame",
    "harness.unattributed_share": "share",
    "harness.pool.busy_share": "share",
    "harness.output.ms": "ms/frame",
    "cli.self_ms": "ms/frame",
    **{name: "ms/frame" for name in INCLUSIVE_MS},
    "constellation.qam_demodulate.calls": "calls/frame",
    "matrixkit.regularized_ls.calls": "calls/frame",
    "blind_rx.alternating_minimization.self_ms": "ms/frame",
    "blind_rx.am_ms_per_iter": "ms/iter",
    "blind_rx.am_iterations": "iter/frame",
    "blind_rx.am_capped_share": "share",
    "blind_rx.corrections.ms": "ms/frame",
    "blind_rx.failures": "count",
    "trace.frames_per_s": "1/s",
    "trace.untraced_frames_per_s": "1/s",
    "trace.overhead_share": "share",
}


class Totals:
    """Span totals over a set of jobs (times in ms)."""

    def __init__(self):
        self.ms = Counter()
        self.self_ms = Counter()
        self.calls = Counter()
        self.frames = 0
        self.iterations = 0
        self.capped = 0
        self.failures = 0

    def add(self, spans: list) -> None:
        children = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        for span, child in zip(spans, children):
            name, duration, info = span[0], span[2] - span[1], span[5] or {}
            self.ms[name] += duration * 1e3
            self.self_ms[name] += (duration - child) * 1e3
            self.calls[name] += 1
            self.frames += name in FRAME_SPANS
            self.iterations += info.get("iterations", 0)
            self.capped += bool(info.get("capped"))
            self.failures += info.get("failures", 0) + ("raised" in info and name == "blind_rx.decode_frame")

    def counts(self) -> dict:
        """The counts that must repeat exactly when the same frames rerun."""
        return {
            "frames": self.frames,
            "am_iterations": self.iterations,
            "am_capped": self.capped,
            "regularized_ls": self.calls["matrixkit.regularized_ls"],
            "qam_demodulate": self.calls["constellation.qam_demodulate"],
            "failures": self.failures,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timed: Totals, quality: Totals, wall_s: float, workers: int,
                  traced_fps: float, untraced_fps: float, scale: float) -> dict:
    """Per-layer metrics; times are multiplied by the run's machine-speed
    scale (calibrate.py), as the end-to-end times are."""
    frames = timed.frames
    frame_ms = sum(timed.ms[n] for n in FRAME_SPANS)
    frame_self = sum(timed.self_ms[n] for n in FRAME_SPANS)
    am = "blind_rx.alternating_minimization"
    am_calls = quality.calls[am]
    values = {
        "harness.run_trial.ms": frame_ms / frames,
        "harness.self_ms": frame_self / frames,
        "harness.unattributed_share": _ratio(frame_self, frame_ms),
        "harness.pool.busy_share": frame_ms / 1e3 / (workers * wall_s),
        "harness.output.ms": sum(timed.ms[n] for n in OUTPUT_SPANS) / frames,
        "cli.self_ms": timed.self_ms["cli.main"] / frames,
        **{metric: timed.ms[span] / frames for metric, span in INCLUSIVE_MS.items()},
        "constellation.qam_demodulate.calls": quality.calls["constellation.qam_demodulate"] / quality.frames,
        "matrixkit.regularized_ls.calls": quality.calls["matrixkit.regularized_ls"] / quality.frames,
        "blind_rx.alternating_minimization.self_ms": timed.self_ms[am] / frames,
        "blind_rx.am_ms_per_iter": _ratio(timed.ms[am], timed.iterations),
        "blind_rx.am_iterations": quality.iterations / quality.frames,
        "blind_rx.am_capped_share": _ratio(quality.capped, am_calls),
        "blind_rx.corrections.ms": timed.self_ms["blind_rx.decode_frame"] / frames,
        "blind_rx.failures": quality.failures,
        "trace.frames_per_s": traced_fps,
        "trace.untraced_frames_per_s": untraced_fps,
        "trace.overhead_share": 1.0 - traced_fps / untraced_fps,
    }
    for name, unit in UNITS.items():
        if unit.startswith("ms/"):
            values[name] *= scale
        elif unit == "1/s":
            values[name] /= scale
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
