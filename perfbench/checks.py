"""Checks on the CSVs the program writes, from the documented CSV schemas.

Payload sizes are derived here from the frame conventions in the README,
not from the library, so a change that drops or adds payload bits fails.
"""

from __future__ import annotations

import csv
import math

SWEEP_COLUMNS = (
    "snr_db,receiver,P,Nr,L,L_est,M,frames,frames_failed,"
    "bits_total,bit_errors,ber,mean_iterations,mean_final_residual"
).split(",")
TRACE_COLUMNS = ["P", "snr_db", "iteration", "normalized_error"]
OFDM_PILOT_FRACTION = 0.10


class CheckError(Exception):
    pass


def _rows(text: str, columns: list) -> list:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0].split(",") != columns:
        raise CheckError(f"CSV header is {lines[:1]}, expected {','.join(columns)}")
    rows = list(csv.DictReader(lines))
    if not rows or any(None in row or None in row.values() for row in rows):
        raise CheckError("CSV has no rows or a row with the wrong field count")
    return rows


def payload_bits(receiver: str, P: int, L: int, M: int) -> int:
    bits_per_symbol = M.bit_length() - 1
    if receiver == "mrc_ofdm":
        return (P - math.ceil(OFDM_PILOT_FRACTION * P)) * bits_per_symbol
    # zero-padded frame: L-1 zeros on each edge, one pilot, the rest payload
    return (P - 2 * (L - 1) - 1) * bits_per_symbol


def check_sweep(text: str, seq_lengths: tuple, receivers: tuple, frames: int) -> dict:
    """Validate a sweep CSV; returns {(P, receiver): row}."""
    rows = _rows(text, SWEEP_COLUMNS)
    table = {(int(r["P"]), r["receiver"]): r for r in rows}
    expected = {(P, rx) for P in seq_lengths for rx in receivers}
    if len(table) != len(rows) or set(table) != expected:
        raise CheckError(f"sweep cells {sorted(table)} != expected {sorted(expected)}")
    for (P, rx), r in table.items():
        n, failed = int(r["frames"]), int(r["frames_failed"])
        bits, errors = int(r["bits_total"]), int(r["bit_errors"])
        if n != frames or not 0 <= failed <= n:
            raise CheckError(f"{rx} P={P}: {n} frames ({failed} failed), expected {frames}")
        per_frame = payload_bits(rx, P, int(r["L"]), int(r["M"]))
        if bits != (n - failed) * per_frame:
            raise CheckError(
                f"{rx} P={P}: bits_total {bits} != {n - failed} frames x {per_frame} bits"
            )
        if not 0 <= errors <= bits:
            raise CheckError(f"{rx} P={P}: {errors} bit errors out of {bits} bits")
        if bits and not math.isclose(float(r["ber"]), errors / bits, rel_tol=1e-9):
            raise CheckError(f"{rx} P={P}: ber {r['ber']} != {errors}/{bits}")
    return table


def check_trace(text: str, seq_lengths: tuple) -> dict:
    """Validate a trace CSV; returns {P: final normalized error}."""
    by_p: dict = {}
    for r in _rows(text, TRACE_COLUMNS):
        by_p.setdefault(int(r["P"]), []).append((int(r["iteration"]), float(r["normalized_error"])))
    if sorted(by_p) != sorted(seq_lengths):
        raise CheckError(f"trace covers P={sorted(by_p)}, expected {sorted(seq_lengths)}")
    final = {}
    for P, trace in by_p.items():
        if [i for i, _ in trace] != list(range(1, len(trace) + 1)):
            raise CheckError(f"P={P}: iterations are not 1..{len(trace)}")
        if not all(0.0 <= e <= 1.0 for _, e in trace):
            raise CheckError(f"P={P}: normalized error outside [0, 1]")
        final[P] = trace[-1][1]
    return final


def ber(table: dict, receiver: str) -> float:
    rows = [r for (_, rx), r in table.items() if rx == receiver]
    bits = sum(int(r["bits_total"]) for r in rows)
    return sum(int(r["bit_errors"]) for r in rows) / bits if bits else math.nan
