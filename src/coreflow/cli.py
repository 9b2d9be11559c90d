"""Command-line entry points: run experiments, the theorem suite, or data
generation from a config file."""

from __future__ import annotations

import argparse
import sys

from .config import check_seed_count, parse_config
from .errors import CoreflowError, ValidationError
from .experiments import generate_to_files, run_experiment, run_theorem_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreflow",
        description="Optimize tensor-core models and verify their norm dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a config file")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")

    suite_p = sub.add_parser("suite", help="run the theorem-check suite")
    suite_p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    suite_p.add_argument("--out", default=None, help="output directory")

    gen_p = sub.add_parser("gen", help="write synthetic data from a config to DTF1")
    gen_p.add_argument("config", help="path to a config file")
    gen_p.add_argument("--out", default=None, help="output directory override")
    gen_p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            check_seed_count(args.seeds, "--seeds")
            result = run_theorem_suite(args.seeds, args.out)
            for rep in result.reports:
                status = "PASS" if rep.passed else "FAIL"
                print(f"{status} {rep.check} rel_residual={rep.rel_residual:.3e}")
            print(
                f"{result.summary['checks']} checks, "
                f"{result.summary['failures']} failures"
            )
            return 0 if result.passed else 1

        cfg = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out

        if args.command == "gen":
            written = generate_to_files(cfg)
            for name, path in written.items():
                print(f"{name} {path}")
            return 0

        result = run_experiment(cfg)
        for key, value in result.summary.items():
            print(f"{key} {value}")
        return 0 if result.passed else 1
    except CoreflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
