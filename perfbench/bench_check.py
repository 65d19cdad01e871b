"""Correctness checks on the rows of a simulate run's ``trials.csv``.

A trial is one (SNR, trial index) cell. It fails if the run raised an error,
or if its rows differ from the expected rows: the recorded reference for the
seed when there is one, otherwise the first checked run of the same seed.
Discrete outcomes must match exactly; continuous values must match within
``REL_TOL`` (relative) or ``ABS_TOL`` (absolute), so a change in the last
bits of a sum passes but a changed estimate fails.
"""

from __future__ import annotations

import csv
import json
import math

REL_TOL = 1e-6
ABS_TOL = 1e-9
# One comm-ber frame's BER is too noisy to order by SNR; 16 frames per SNR
# order correctly on every seed tried (0 to 239).
BER_MIN_TRIALS = 16
DISCRETE = frozenset({"recovered_all", "coarse_failed", "all_within_1deg",
                      "bit_errors", "bit_count"})


def read_trials(path) -> dict:
    """{(snr_db, trial): [(metric, value), ...]} from a trials.csv file."""
    cells: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["snr_db"]), int(row["trial"]))
            cells.setdefault(key, []).append((row["metric"], float(row["value"])))
    return cells


def load_reference(path, seed: int):
    """Reference cells for ``seed``, or None when the seed was not recorded."""
    with open(path) as fh:
        seeds = json.load(fh)["seeds"]
    rows = seeds.get(str(seed))
    if rows is None:
        return None
    cells: dict = {}
    for snr_db, trial, metric, value in rows:
        cells.setdefault((float(snr_db), int(trial)), []).append((metric, float(value)))
    return cells


def rows_match(got, want) -> bool:
    if [m for m, _ in got] != [m for m, _ in want]:
        return False
    for (metric, a), (_, b) in zip(got, want):
        if metric in DISCRETE:
            if a != b:
                return False
        elif not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return False
    return True


def failed_cells(got: dict, want: dict) -> set:
    """Cells of ``want`` that are missing from ``got`` or differ from it."""
    return {key for key, rows in want.items()
            if key not in got or not rows_match(got[key], rows)}


def sanity_failures(cells: dict, snr_values, n_trials: int, kind: str) -> list:
    """Checks for a seed with no reference: every cell present, every value
    finite, and for comm-ber over at least ``BER_MIN_TRIALS`` frames a bit
    error rate that does not rise with SNR."""
    problems = []
    expected = {(float(s), t) for s in snr_values for t in range(n_trials)}
    if set(cells) != expected:
        problems.append(f"cells present {len(cells)}, expected {len(expected)}")
    bad = [key for key, rows in cells.items()
           if not all(math.isfinite(v) for _, v in rows)]
    if bad:
        problems.append(f"non-finite values in cells {sorted(bad)[:5]}")
    if kind == "comm-ber" and n_trials >= BER_MIN_TRIALS:
        ber = []
        for snr in snr_values:
            rows = [dict(cells.get((float(snr), t), [])) for t in range(n_trials)]
            errors = sum(r.get("bit_errors", 0.0) for r in rows)
            bits = sum(r.get("bit_count", 0.0) for r in rows)
            ber.append(errors / bits if bits else math.inf)
        if any(b > a for a, b in zip(ber, ber[1:])):
            problems.append(f"BER rises with SNR: {ber}")
    return problems
