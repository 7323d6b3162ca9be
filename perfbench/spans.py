"""Span recording for the scfde benchmark, installed from outside the library.

Each target is a public scfde function (or method). Installing a target
replaces every module attribute that refers to the original function object,
so a function that another module imported into its own namespace (harness
imports ``decode_frame``, ``qam_demodulate`` and others) is wrapped at the
place it is called. Nothing under ``src/`` changes.

A span is a list ``[name, start, end, parent, frame, info]``: ``parent`` is
the index of the enclosing span in the same process (-1 at top level),
``frame`` identifies the simulated frame the span belongs to (None outside a
frame), and ``info`` carries what a hook read from the return value.

Process pools are replaced by ``TracingPool``, which runs each task under a
fresh span list in the worker and ships that list back with the result, so
worker spans reach the parent although forked workers never run ``atexit``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter


class Recorder:
    """Spans of the current process, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.frame = None


RECORDER = Recorder()

# Frame entry points: one span per simulated frame. The trace workload's frame
# function is trace_trial, the sweep workloads' run_trial.
FRAME_SPANS = ("harness.run_trial", "harness.trace_trial")


def _am_info(args, kwargs, est):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"iterations": est.iterations, "capped": est.iterations >= cfg.max_iter}


def _decode_info(args, kwargs, result):
    return {"failures": len(result.failures)}


# (scfde module, attribute, span name, return hook)
FRAME_TARGETS = (
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "trace_trial", "harness.trace_trial", None),
)
LAYER_TARGETS = (
    ("cli", "main", "cli.main", None),
    ("harness", "sweep", "harness.sweep", None),
    ("harness", "residual_trace", "harness.residual_trace", None),
    ("harness", "aggregate", "harness.aggregate", None),
    ("harness", "check_ber_monotonicity", "harness.check_ber_monotonicity", None),
    ("harness", "write_csv", "harness.write_csv", None),
    ("harness", "render_trace_csv", "harness.render_trace_csv", None),
    ("channel", "draw_channel", "channel.draw_channel", None),
    ("channel", "complex_noise", "channel.complex_noise", None),
    ("channel", "convolve_channel", "channel.convolve_channel", None),
    ("frame", "build_frame", "frame.build_frame", None),
    ("frame", "extract_data", "frame.extract_data", None),
    ("constellation", "qam_modulate", "constellation.qam_modulate", None),
    ("constellation", "qam_demodulate", "constellation.qam_demodulate", None),
    ("matrixkit", "DftOperator.forward", "matrixkit.dft_forward", None),
    ("matrixkit", "top_left_singular_vector", "matrixkit.top_left_singular_vector", None),
    ("matrixkit", "regularized_ls", "matrixkit.regularized_ls", None),
    ("blind_rx", "alternating_minimization", "blind_rx.alternating_minimization", _am_info),
    ("blind_rx", "decode_frame", "blind_rx.decode_frame", _decode_info),
    ("baseline_rx", "ofdm_transmit", "baseline_rx.ofdm_transmit", None),
    ("baseline_rx", "ofdm_mrc_receive", "baseline_rx.ofdm_mrc_receive", None),
)


def _wrap(orig, name, hook):
    is_frame = name in FRAME_SPANS

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.frame, None]
        index = len(rec.spans)
        rec.spans.append(span)
        rec.stack.append(index)
        opens_frame = is_frame and rec.frame is None
        if opens_frame:
            rec.frame = span[4] = f"{os.getpid()}:{index}"
        span[1] = perf_counter()
        try:
            result = orig(*args, **kwargs)
        except Exception as err:
            span[5] = {"raised": type(err).__name__}
            raise
        finally:
            span[2] = perf_counter()
            rec.stack.pop()
            if opens_frame:
                rec.frame = None
        if hook is not None:
            span[5] = hook(args, kwargs, result)
        return result

    return wrapper


def _traced_task(traced, fn, *args):
    """Pool task: run fn under a fresh span list and return it with the value."""
    if not _installed:
        install(traced)
    saved = RECORDER.spans
    RECORDER.spans, RECORDER.stack, RECORDER.frame = [], [], None
    try:
        value = fn(*args)
        return value, RECORDER.spans
    finally:
        RECORDER.spans = saved


class TracingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose tasks ship their spans back with the result.

    Records one "harness.pool" span from creation to the end of shutdown."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self._span = ["harness.pool", perf_counter(), 0.0, -1, None, {"workers": max_workers}]

    def map(self, fn, *iterables, **kwargs):
        task = functools.partial(_traced_task, _installed_traced, fn)
        results = super().map(task, *iterables, **kwargs)
        return (_absorb(value, spans) for value, spans in results)

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        self._span[2] = perf_counter()
        RECORDER.spans.append(self._span)


def _absorb(value, spans):
    base = len(RECORDER.spans)
    for span in spans:
        if span[3] >= 0:
            span[3] += base
        RECORDER.spans.append(span)
    return value


_installed: list = []
_installed_traced = False
missing_targets: list = []


def install(traced: bool) -> None:
    """Wrap the frame entry points, and every layer target when traced.

    A target that the library no longer defines is skipped and listed in
    ``missing_targets``; its metrics then read 0."""
    global _installed_traced
    uninstall()
    _installed_traced = traced
    modules = [m for n, m in list(sys.modules.items()) if n == "scfde" or n.startswith("scfde.")]
    targets = FRAME_TARGETS + (LAYER_TARGETS if traced else ())
    missing_targets.clear()
    for module_name, attr, name, hook in targets:
        owner = importlib.import_module(f"scfde.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            orig = vars(cls).get(method) if cls is not None else None
            if orig is None:
                missing_targets.append(name)
                continue
            setattr(cls, method, _wrap(orig, name, hook))
            _installed.append((cls, method, orig))
            continue
        orig = getattr(owner, attr, None)
        if orig is None:
            missing_targets.append(name)
            continue
        wrapper = _wrap(orig, name, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    _installed.append((module, key, orig))
    harness = importlib.import_module("scfde.harness")
    if hasattr(harness, "ProcessPoolExecutor"):
        _installed.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness.ProcessPoolExecutor = TracingPool


def uninstall() -> None:
    while _installed:
        owner, key, orig = _installed.pop()
        setattr(owner, key, orig)


def take() -> list:
    """Return the spans recorded so far and start a new list."""
    spans = RECORDER.spans
    RECORDER.spans, RECORDER.stack, RECORDER.frame = [], [], None
    return spans
