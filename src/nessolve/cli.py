"""Command-line entry point: run one benchmark experiment.

Usage: nes-solve <experiment> [--config FILE] [--seed S] [--full-scale]
[--out DIR] [--check].  The optional YAML config holds parameter overrides
(plus optionally seed/out/full_scale); command-line flags win.  A setting
that breaks its rule is reported on one line of stderr, with exit code 1.
With --check the exit code is 2 when an acceptance threshold is violated.
The CLI reads no environment variables; cap BLAS threads with the BLAS
library's own (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import json
import sys

import yaml

from .errors import ConfigError
from .experiments import EXPERIMENTS, ExperimentConfig, check_thresholds, \
    run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nes-solve",
        description="Kernel-solver benchmarks for roughly forced PDEs")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="YAML file with parameter overrides")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--full-scale", action="store_true")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--check", action="store_true",
                        help="exit 2 if acceptance thresholds are violated")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = yaml.safe_load(fh) or {}
        if not isinstance(file_cfg, dict):
            print("config file must be a mapping", file=sys.stderr)
            return 1
    file_seed = file_cfg.pop("seed", None)
    file_out = file_cfg.pop("out", None)
    file_full_scale = file_cfg.pop("full_scale", False)
    seed = args.seed if args.seed is not None else file_seed
    if seed is None:
        print("a seed is required (--seed or 'seed:' in the config)",
              file=sys.stderr)
        return 1

    try:
        if not isinstance(file_full_scale, bool):
            # bool("false") is True: only a YAML boolean means what it says
            raise ConfigError("full_scale", file_full_scale, "true or false")
        cfg = ExperimentConfig(args.experiment, seed,
                               out_dir=args.out or file_out,
                               full_scale=args.full_scale or file_full_scale,
                               params=file_cfg)
    except ValueError as exc:           # ConfigError is a ValueError
        print(f"nes-solve: {exc}", file=sys.stderr)
        return 1
    report = run_experiment(cfg)
    json.dump(report["metrics"], sys.stdout, indent=2, sort_keys=True)
    print()
    if args.check:
        failures = check_thresholds(args.experiment, report["metrics"],
                                    cfg.full_scale)
        for f in failures:
            print(f"THRESHOLD VIOLATION: {f}", file=sys.stderr)
        if failures:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
