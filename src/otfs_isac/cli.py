"""Command-line interface.

Subcommands
-----------
simulate        run a scenario JSON file and write CSV/JSON results
crlb            print estimation lower bounds over an SNR sweep
resolution      print range/velocity resolution for a frame geometry
validate-config check a scenario file and report every problem found
demo            three-close-targets showcase (DFT spectrum + SSR surfaces)

Errors are emitted as one JSON object on stderr and a nonzero exit code;
an unexpected exception becomes an ``internal-error`` object that names its
type.
The output directory may also be set with the OTFS_ISAC_OUT environment
variable; the --out flag wins when both are present.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from .coarse import resolution_report
from .config import SystemConfig
from .crlb import SNR_DB_BOUND, crlb_curve
from .exceptions import ConfigValidationError, OtfsIsacError
from .scenario import Scenario, load_scenario, scenario_from_dict
from .schema import check
from .experiments import run_scenario

OUT_ENV_VAR = "OTFS_ISAC_OUT"


def _fail(code: str, message: str, details=None) -> int:
    payload = {"error": code, "message": message}
    if details:
        payload["details"] = details
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _resolve_out(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get(OUT_ENV_VAR, "results")


def _load(path: str):
    """(scenario, None) for a valid file, else (None, exit code of the error)."""
    try:
        return load_scenario(path), None
    except ConfigValidationError as exc:
        return None, _fail("invalid-scenario", f"{path} failed validation",
                           details=exc.errors)
    except OSError as exc:
        return None, _fail("io-error", str(exc))


def _run(scenario: Scenario, args, **kwargs) -> int:
    """Run a scenario into ``<out>/<name>`` and print the output paths."""
    out_dir = os.path.join(_resolve_out(args), scenario.name)
    try:
        paths = run_scenario(scenario, out_dir, **kwargs)
    except ConfigValidationError as exc:    # the run-length bound of a --trials override
        return _fail("invalid-argument", str(exc))
    except OtfsIsacError as exc:
        return _fail("simulation-error", str(exc))
    except OSError as exc:    # the output directory cannot be made or written
        return _fail("io-error", str(exc))
    print(json.dumps({"scenario": scenario.name, "outputs": paths}, indent=2))
    return 0


def _flag_error(args):
    """Exit code of the error for the first count flag below its least
    value, or None; a subcommand without the flag skips it."""
    for name, low in (("parallel", 1), ("trials", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            return _fail("invalid-argument", f"--{name} must be >= {low}, got {value}")
    return None


def _cmd_simulate(args) -> int:
    error = _flag_error(args)
    if error is not None:
        return error
    scenario, error = _load(args.scenario)
    if scenario is None:
        return error
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    return _run(scenario, args, trials=args.trials, parallel=args.parallel)


def _config(args, **kwargs):
    """(config, None) for valid geometry flags, else (None, exit code of the error)."""
    try:
        return SystemConfig(n_doppler=args.N, m_delay=args.M,
                            subcarrier_spacing_hz=args.df, **kwargs), None
    except ValueError as exc:
        return None, _fail("invalid-argument", str(exc))


def _cmd_crlb(args) -> int:
    cfg, error = _config(args, n_rx=args.n_rx)
    if cfg is None:
        return error
    for snr_db in args.snr_db:
        message = check(float, snr_db, SNR_DB_BOUND)
        if message:
            return _fail("invalid-argument", f"--snr-db: {message}")
    rows = crlb_curve(cfg, args.snr_db)
    keys = list(rows[0].keys())
    print(",".join(keys))
    for row in rows:
        print(",".join(repr(float(row[k])) for k in keys))
    return 0


def _cmd_resolution(args) -> int:
    cfg, error = _config(args)
    if cfg is None:
        return error
    for key, value in resolution_report(cfg).items():
        print(f"{key} = {value:.6g}")
    return 0


def _cmd_validate_config(args) -> int:
    scenario, error = _load(args.scenario)
    if scenario is None:
        return error
    print(json.dumps({"valid": True, "scenario": scenario.to_dict()}, indent=2))
    return 0


def _cmd_demo(args) -> int:
    error = _flag_error(args)
    if error is not None:
        return error
    raw = {
        "name": "demo-three-close-targets",
        "experiment_kind": "demo-spectrum",
        "system": {},
        "targets": [
            {"angle_deg": 12.0, "range_m": 73.48, "velocity_mps": 54.54},
            {"angle_deg": 14.0, "range_m": 64.29, "velocity_mps": -98.17},
            {"angle_deg": 16.0, "range_m": 45.92, "velocity_mps": 76.36},
        ],
        "allocation": {"diagonal_private_bins": 4},
        "estimator": {"n_angles": 1, "peaks_per_angle": 3, "n_solvers": 16},
        "snr_db_values": [20.0],
        "seed": args.seed if args.seed is not None else 0,
    }
    return _run(scenario_from_dict(raw), args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (``main`` reuses it)."""
    parser = argparse.ArgumentParser(
        prog="otfs-isac",
        description="MIMO OTFS integrated sensing and communication simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("--scenario", required=True, help="scenario JSON path")
    sim.add_argument("--seed", type=int, default=None, help="override the seed")
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument("--trials", type=int, default=None,
                     help="override the trial count")
    sim.add_argument("--parallel", type=int, default=1,
                     help="worker processes, at most the CPU count and one per "
                          "chunk of cells (results are identical for any value)")
    sim.set_defaults(func=_cmd_simulate)

    # frame geometry flags of crlb and resolution, defaulting to SystemConfig's
    defaults = SystemConfig()
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--N", type=int, default=defaults.n_doppler, help="Doppler bins")
    geometry.add_argument("--M", type=int, default=defaults.m_delay, help="delay bins")
    geometry.add_argument("--df", type=float, default=defaults.subcarrier_spacing_hz,
                          help="subcarrier spacing in Hz")

    crlb = sub.add_parser("crlb", parents=[geometry], help="print estimation lower bounds")
    crlb.add_argument("--n-rx", type=int, default=defaults.n_rx, help="receive antennas")
    crlb.add_argument("--snr-db", type=float, nargs="+",
                      default=[-20.0, -10.0, 0.0, 10.0, 20.0])
    crlb.set_defaults(func=_cmd_crlb)

    res = sub.add_parser("resolution", parents=[geometry],
                         help="print frame resolution limits")
    res.set_defaults(func=_cmd_resolution)

    val = sub.add_parser("validate-config", help="validate a scenario file")
    val.add_argument("--scenario", required=True, help="scenario JSON path")
    val.set_defaults(func=_cmd_validate_config)

    demo = sub.add_parser("demo", help="three-close-targets showcase run")
    demo.add_argument("--seed", type=int, default=None)
    demo.add_argument("--out", default=None, help="output directory")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OtfsIsacError as exc:
        return _fail(type(exc).__name__, str(exc))
    except Exception as exc:    # a numpy, memory or worker failure: still one JSON line
        return _fail("internal-error", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
