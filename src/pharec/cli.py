"""Command-line interface.

Subcommands map one-to-one onto pipeline stages plus the full orchestration
and a raw-signal extraction front end.  Exit codes: 0 success, 1 tolerance
failure in the comparison report, 2 usage, configuration or input error
(unevenly sampled times included), 3 runtime numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import pipeline, serialize
from .errors import InvalidConfig, IoError, NonUniformSampling, PharecError

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

STAGES = {
    "limit-cycle": pipeline.stage_limit_cycle,
    "transforms": pipeline.stage_transforms,
    "simulate": pipeline.stage_simulate,
    "reconstruct-vf": pipeline.stage_vf,
    "reduce-coupling": pipeline.stage_reduce,
    "compare": pipeline.stage_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pharec",
        description="Phase-amplitude reduction and coupling reconstruction "
                    "for oscillator networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--from", dest="from_dir", metavar="DIR",
                       help="artifact directory of a previous run "
                            "(uses its config.json)")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="seed override")

    for name in list(STAGES) + ["pipeline"]:
        add_common(sub.add_parser(name))

    ext = sub.add_parser("extract",
                         help="phase/amplitude extraction from a raw signal CSV")
    ext.add_argument("input", help="CSV with columns t,value")
    ext.add_argument("--out", required=True, help="output CSV path")
    return parser


def load_config(args) -> pipeline.PipelineConfig:
    """Read the config and apply ``--out``/``--seed``; every value is validated."""
    overrides = {}
    if args.from_dir:
        path = os.path.join(args.from_dir, "config.json")
        overrides["out_dir"] = args.from_dir
    elif args.config:
        path = args.config
    else:
        raise InvalidConfig("config", "need --config or --from")
    config = pipeline.PipelineConfig.from_dict(serialize.read_json(path, "config"))
    if args.out:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(config, **overrides)


def run_extract(args) -> int:
    # Imported here, so that only extract loads scipy.signal.
    from . import signal_extract

    data = serialize.read_rows(args.input)
    if data.ndim != 2 or data.shape[0] < 2:
        raise IoError(f"{args.input}: need t,value columns and at least two rows")
    if not np.isfinite(data[:, :2]).all():
        raise IoError(f"{args.input}: every t and value must be a finite number")
    if not (np.diff(data[:, 0]) > 0).all():
        raise IoError(f"{args.input}: the times in column t must strictly increase")
    signal = signal_extract.RawSignal(times=data[:, 0], values=data[:, 1])
    theta, r, edge = signal_extract.extract_phase_amplitude(signal)
    serialize.write_rows(args.out, np.stack([data[:, 0], theta, r, edge], axis=1),
                         ["t", "theta", "r", "edge"])
    return EXIT_PASS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "extract":
            return run_extract(args)
        if (args.command != "pipeline" and args.from_dir and args.out
                and os.path.realpath(args.out) != os.path.realpath(args.from_dir)):
            raise InvalidConfig("--out", "a stage command reads its inputs from "
                                "its output directory, so --out must equal --from")
        config = load_config(args)
        if args.command == "pipeline":
            report = pipeline.run_pipeline(config)
            return EXIT_PASS if report["pass"] else EXIT_TOLERANCE
        if args.seed is not None or args.out:
            pipeline.write_config(config)
        result = STAGES[args.command](config)
        if args.command == "compare":
            return EXIT_PASS if result["pass"] else EXIT_TOLERANCE
        return EXIT_PASS
    except InvalidConfig as exc:
        print(f"pharec: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IoError, NonUniformSampling) as exc:
        print(f"pharec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PharecError as exc:
        print(f"pharec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"pharec: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
