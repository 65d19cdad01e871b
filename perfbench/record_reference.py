"""Record the reference trials.csv rows that the benchmark checks against.

Usage::

    python3 perfbench/record_reference.py [--seeds 0-31] [--workload NAME ...]

For each workload and seed this runs one full simulate batch, checks it the
way a benchmark run checks a seed that has no reference, and writes
``perfbench/reference/<workload>.json``. Re-record only on purpose: the
reference defines the outputs a later commit must still produce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def record(name: str, seeds) -> dict:
    workload = run.WORKLOADS[name]
    out_dir = os.path.join(run.OUT, "record", name)
    rows = {}
    for seed in seeds:
        runner = run.Runner(workload, seed, out_dir)
        runner.batch()
        if runner.failed:
            raise run.BenchError(f"{name} seed {seed}: {runner.problems}")
        rows[str(seed)] = [[snr, trial, metric, value]
                           for (snr, trial), cells in sorted(runner.expected.items())
                           for metric, value in cells]
    return {"workload": name, "scenario": workload.scenario,
            "trials": workload.trials, "environment": run.environment(),
            "seeds": rows}


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(32))
    parser.add_argument("--workload", nargs="*", choices=sorted(run.WORKLOADS),
                        default=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, run.SRC)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in args.workload:
        data = record(name, args.seeds)
        path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{path}: {len(data['seeds'])} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
