"""Command-line front end for the Monte-Carlo harness.

Two subcommands: ``sweep`` writes one BER row per (sequence length, SNR,
receiver); ``trace`` writes the per-iteration normalized reconstruction
error of the blind decoder and takes no flag whose field is in
harness.SWEEP_ONLY. Every flag of a command can also live in a flat UTF-8
key=value config file (``--config``); explicit flags win over the file,
which wins over the preset, which wins over built-in defaults.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 every frame
failed at some sweep point. Output paths are checked when SimulationConfig
is built: one that is empty, names a directory or has no directory raises
FileNotFoundError/IsADirectoryError (exit 3) before any trial runs, and
--out and --dump-trials naming one file, or either naming the --config
file, is a configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial

from .harness import (
    PRESETS,
    RECEIVERS,
    SWEEP_ONLY,
    SimulationConfig,
    render_csv,
    render_trace_csv,
    residual_trace,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ALL_FAILED = 4


class ConfigError(Exception):
    pass


def comma_list(convert, text: str) -> tuple:
    """convert(item) for each non-blank item of a comma list; convert is
    int, float or str.strip (SimulationConfig rejects unknown names)."""
    try:
        return tuple(convert(p) for p in text.split(",") if p.strip())
    except ValueError as err:
        raise ConfigError(f"bad list {text!r}: {err}") from None


def parse_snr_list(text: str) -> tuple:
    """Either a comma list '0,4,8' or an inclusive range 'start:stop:step'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"SNR range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"SNR range bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError("SNR range step must be positive")
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise ConfigError(f"SNR range {text!r} has too many values to count")
        count = int(math.floor(steps + 1e-9)) + 1
        if count < 1:
            raise ConfigError(f"empty SNR range {text!r}")
        # SimulationConfig rejects SNRs that repeat a 32-bit 1e-3 dB key, and
        # a range with more values than keys between its ends must repeat one
        lo, hi = start * 1000.0, (start + (count - 1) * step) * 1000.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"SNR range {text!r} is not finite in units of 1e-3 dB")
        keys = min(2**32, round(hi) - round(lo) + 1)
        if count > keys:
            raise ConfigError(
                f"SNR range {text!r} has {count:.3g} values but only {keys:.3g} "
                "keys at 1e-3 dB resolution, so some would repeat"
            )
        return tuple(start + i * step for i in range(count))
    return comma_list(float, text)


# flag (also the config-file key) -> (SimulationConfig field, parser, help)
_FLAGS = {
    "snr": (
        "snr_db_list", parse_snr_list, "comma list '0,4,8' or inclusive range 'start:stop:step'"
    ),
    "frames": ("frames_per_point", int, "frames per (P, SNR) point"),
    "nr": ("Nr", int, "receive antenna count"),
    "taps": ("L", int, "true channel tap count"),
    "taps_est": ("L_est", int, "tap count assumed by the receivers"),
    "mod_order": ("M", int, "constellation order M"),
    "seq_len": (
        "seq_lengths", partial(comma_list, int), "comma list of sequence lengths P (powers of two)"
    ),
    "receivers": (
        "receivers", partial(comma_list, str.strip), f"comma list from: {', '.join(RECEIVERS)}"
    ),
    "seed": ("seed", int, "master seed"),
    "workers": ("workers", int, "parallel trial workers"),
    "ofdm_taps": (
        "ofdm_taps", int, "taps kept by the baseline interpolator (default: all pilot taps)"
    ),
    "out": ("out_path", str, "output CSV path (default: stdout)"),
    "dump_trials": ("dump_path", str, "per-trial dump CSV path"),
}


def read_config_file(path: str, keys) -> dict:
    """Flat UTF-8 'key = value' lines (a leading byte-order mark is skipped),
    each key at most once; '#' at the start of a line or after whitespace
    starts a comment, so 'out = run#1.csv' keeps its '#'; a key is 'preset'
    or one of keys (the command's flags), and '-' and '_' in a key are the
    same."""
    values, line_of = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key != "preset" and key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}: key {key!r} on lines {line_of[key]} and {lineno}")
        values[key], line_of[key] = value, lineno
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scfde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "Monte-Carlo BER sweep over SNR (and sequence lengths)"),
        ("trace", "per-iteration normalized reconstruction error"),
    ):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
        for flag, (field_name, _, flag_help) in _FLAGS.items():
            if name == "sweep" or field_name not in SWEEP_ONLY:
                p.add_argument("--" + flag.replace("_", "-"), help=flag_help)
    return parser


def build_config(args: argparse.Namespace) -> SimulationConfig:
    """Flags win over the config file, which wins over the preset; --preset
    also wins over a 'preset' key in the file."""
    flags = [flag for flag in _FLAGS if hasattr(args, flag)]  # the command's own
    file_values = read_config_file(args.config, flags) if args.config else {}
    file_preset = file_values.pop("preset", None)
    preset = args.preset or file_preset
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; valid: {sorted(PRESETS)}")
    values = dict(PRESETS.get(preset, {}))

    flag_values = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    for source, raw_values in (("config key", file_values), ("flag", flag_values)):
        for flag, raw in raw_values.items():
            field_name, convert, _ = _FLAGS[flag]
            try:
                values[field_name] = convert(raw)
            except (ValueError, ConfigError) as err:
                raise ConfigError(f"{source} {flag!r}: {err}") from None

    try:
        cfg = SimulationConfig(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None
    # an output written over the config file would destroy the run's input
    if args.config is not None:
        for path in (cfg.out_path, cfg.dump_path):
            if path is not None and os.path.realpath(path) == os.path.realpath(args.config):
                raise ConfigError(f"output {path!r} is the config file {args.config!r}")
    return cfg


def _join_negative_snr(argv: list) -> list:
    """'--snr -4:8:6' as '--snr=-4:8:6': argparse takes a token that starts
    with '-' for an option unless the whole token is one negative number, so
    a list or range that starts below 0 would leave --snr without a value."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--snr" and re.match(r"-[\d.]", token):
            joined[-1] = "--snr=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_snr(argv))
    try:
        cfg = build_config(args)
        if args.command == "sweep":
            points = sweep(cfg)
            if cfg.out_path is None:
                sys.stdout.write(render_csv(cfg, points))
            all_failed = [
                f"P={pt.P} snr={pt.snr_db} {pt.receiver}"
                for pt in points
                if pt.frames_failed == pt.frames
            ]
            if all_failed:
                print(
                    "scfde: every frame failed at: " + "; ".join(all_failed),
                    file=sys.stderr,
                )
                return EXIT_ALL_FAILED
        else:
            traces = residual_trace(cfg)
            if cfg.out_path is None:
                sys.stdout.write(render_trace_csv(cfg, traces))
    except ConfigError as err:
        print(f"scfde: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"scfde: I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
