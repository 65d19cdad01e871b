"""Byte-identity gate on the CSVs of the shipped scenarios and the demo.

Every scenario under ``scenarios/`` runs with ``--trials 2``, serially and
with ``--parallel 2``, and ``demo`` runs with its defaults. The sha256 of
every CSV they write must equal the one recorded in ``output_digests.json``.
A change that moves an output on purpose records the new digests with

    PYTHONPATH=src python tests/test_output_digests.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from otfs_isac.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("output_digests.json")
RUNS = {
    **{f"{path.stem}/{mode}": ["simulate", "--scenario", str(path), "--trials", "2",
                                "--parallel", workers]
       for path in sorted((ROOT / "scenarios").glob("*.json"))
       for mode, workers in (("serial", "1"), ("parallel-2", "2"))},
    "demo/serial": ["demo"],
}


def output_digests(work: Path) -> dict:
    """{run/file.csv: sha256} of every CSV that each of ``RUNS`` writes."""
    digests = {}
    for run, argv in RUNS.items():
        out = work / run
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            if main([*argv, "--out", str(out)]) != 0:
                raise RuntimeError(f"{run} exited nonzero")
        scenario_dir = Path(json.loads(printed.getvalue())["outputs"]["aggregate"]).parent
        for csv in sorted(scenario_dir.glob("*.csv")):
            digests[f"{run}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return digests


def test_every_shipped_csv_is_byte_identical_to_its_record(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    digests = output_digests(tmp_path)
    moved = sorted(name for name in recorded.keys() | digests.keys()
                   if recorded.get(name) != digests.get(name))
    assert not moved, f"outputs that moved from {DIGESTS.name}: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: python {Path(__file__).name} --record")
    with tempfile.TemporaryDirectory() as work:
        DIGESTS.write_text(json.dumps(output_digests(Path(work)), indent=2) + "\n")
    print(f"recorded {DIGESTS}")
