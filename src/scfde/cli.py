"""Command-line front end for the Monte-Carlo harness.

Two subcommands: ``sweep`` writes one BER row per (sequence length, SNR,
receiver); ``trace`` writes the per-iteration normalized reconstruction
error of the blind decoder. Every flag can also live in a flat key=value
config file (``--config``); explicit flags win over the file, which wins
over the preset, which wins over built-in defaults.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 every frame
failed at some sweep point.
"""

from __future__ import annotations

import argparse
import math
import sys

from .harness import (
    PRESETS,
    RECEIVERS,
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


def parse_snr_list(text: str) -> tuple:
    """Either a comma list '0,4,8' or an inclusive range 'start:stop:step'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"SNR range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ConfigError("SNR range step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ConfigError(f"empty SNR range {text!r}")
        return tuple(start + i * step for i in range(count))
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as err:
        raise ConfigError(f"bad SNR list {text!r}: {err}") from None


def parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError as err:
        raise ConfigError(f"bad integer list {text!r}: {err}") from None


def parse_receivers(text: str) -> tuple:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    bad = set(names) - set(RECEIVERS)
    if bad:
        raise ConfigError(f"unknown receivers {sorted(bad)}; valid: {', '.join(RECEIVERS)}")
    return names


# flag name -> (SimulationConfig field, parser)
_FLAG_FIELDS = {
    "snr": ("snr_db_list", parse_snr_list),
    "frames": ("frames_per_point", int),
    "nr": ("Nr", int),
    "taps": ("L", int),
    "taps_est": ("L_est", int),
    "mod_order": ("M", int),
    "seq_len": ("seq_lengths", parse_int_list),
    "receivers": ("receivers", parse_receivers),
    "mu": ("mu", float),
    "eps": ("eps", float),
    "max_iter": ("max_iter", int),
    "seed": ("seed", int),
    "workers": ("workers", int),
    "pdp_ratio": ("pdp_ratio", float),
    "ofdm_taps": ("ofdm_taps", int),
    "out": ("out_path", str),
    "dump_trials": ("dump_path", str),
}


def read_config_file(path: str) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; keys match the flags."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "preset":
            values["preset"] = value
            continue
        if key not in _FLAG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scfde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "Monte-Carlo BER sweep over SNR (and sequence lengths)"),
        ("trace", "per-iteration normalized reconstruction error"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
        p.add_argument("--snr", help="comma list '0,4,8' or inclusive range 'start:stop:step'")
        p.add_argument("--frames", type=int, help="frames per (P, SNR) point")
        p.add_argument("--nr", type=int, help="receive antenna count")
        p.add_argument("--taps", type=int, help="true channel tap count")
        p.add_argument("--taps-est", type=int, help="tap count assumed by the receivers")
        p.add_argument("--mod-order", type=int, help="constellation order M")
        p.add_argument("--seq-len", help="comma list of sequence lengths P (powers of two)")
        p.add_argument("--receivers", help=f"comma list from: {', '.join(RECEIVERS)}")
        p.add_argument("--mu", type=float, help="ridge regularization weight")
        p.add_argument("--eps", type=float, help="relative-residual stopping tolerance")
        p.add_argument("--max-iter", type=int, help="iteration cap of the blind decoder")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--workers", type=int, help="parallel trial workers")
        p.add_argument("--pdp-ratio", type=float, help="geometric tap-power decay ratio")
        p.add_argument(
            "--ofdm-taps",
            type=int,
            help="taps kept by the baseline interpolator (default: all pilot taps)",
        )
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--dump-trials", help="optional per-trial dump CSV path")
    return parser


def build_config(args: argparse.Namespace) -> SimulationConfig:
    values: dict = {}
    file_values = read_config_file(args.config) if args.config else {}

    preset = args.preset or file_values.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; valid: {sorted(PRESETS)}")
        values.update(PRESETS[preset])

    for flag, raw in file_values.items():
        field_name, convert = _FLAG_FIELDS[flag]
        try:
            values[field_name] = convert(raw)
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"config key {flag!r}: {err}") from None

    for flag, (field_name, convert) in _FLAG_FIELDS.items():
        raw = getattr(args, flag, None)
        if raw is None:
            continue
        values[field_name] = convert(raw) if isinstance(raw, str) else raw

    try:
        return SimulationConfig(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as err:
        print(f"scfde: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
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
            text = render_trace_csv(cfg, residual_trace(cfg))
            if cfg.out_path is None:
                sys.stdout.write(text)
            else:
                with open(cfg.out_path, "w", newline="") as fh:
                    fh.write(text)
    except OSError as err:
        print(f"scfde: I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
