"""Command-line entry points: run, compare, gradcheck.

Exit codes: 0 success, 2 bad configuration (including a negative seed and an
output directory or CSV that cannot be written), 3 numerical failure
(non-finite loss or full-metric statistic mid-run, or a gradient check
exceeding tolerance).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    GRADCHECK_TOL,
    ConfigError,
    ExperimentConfig,
    NumericalError,
    PROBLEM_NAMES,
    compare_suite,
    gradcheck,
    make_output_dir,
    run_experiment,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_override_pairs(extras: list[str]) -> dict[str, str]:
    """Turn trailing ``--key value`` pairs into a mapping, strictly."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or len(token) == 2:
            raise ConfigError(f"expected --key value overrides, got {token!r}")
        key = token[2:].replace("-", "_")
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"override --{key} is missing a value")
            value = extras[i + 1]
            i += 2
        if key in overrides:
            raise ConfigError(f"duplicate override --{key}")
        overrides[key] = value
    return overrides


def _cmd_run(args, extras) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    overrides = _parse_override_pairs(extras)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    out_dir = make_output_dir(cfg.output_dir)
    record = run_experiment(cfg)
    path = out_dir / f"{cfg.problem}_{cfg.optimizer}_seed{cfg.seed}.csv"
    write_csv(record, path)
    print(f"{cfg.problem} / {cfg.optimizer}: {cfg.steps} steps, "
          f"final loss {record.losses[-1]:.6g}, "
          f"final smoothed loss {record.smoothed[-1]:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    records = compare_suite(
        args.suite,
        args.out,
        steps=args.steps,
        seed=args.seed,
        metric_update_interval=args.metric_update_interval,
    )
    width = max(len(name) for name in records)
    print(f"{args.suite} suite, {args.steps} steps, seed {args.seed}")
    for name, record in records.items():
        print(f"  {name:<{width}}  final loss {record.losses[-1]:>12.6g}  "
              f"smoothed {record.smoothed[-1]:>12.6g}")
    print(f"wrote {len(records)} CSV files to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    names = PROBLEM_NAMES if args.problem == "all" else (args.problem,)
    ok = True
    for name in names:
        err = gradcheck(name)
        status = "ok" if err <= GRADCHECK_TOL else "FAIL"
        print(f"{name}: max relative error = {err:.3e} [{status}]")
        ok = ok and err <= GRADCHECK_TOL
    return EXIT_OK if ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgd",
        description="Covariant gradient descent benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured run and write its CSV")
    run.add_argument("--config", required=True, help="flat key = value config file")

    compare = sub.add_parser("compare", help="run all presets on one benchmark suite")
    compare.add_argument("--suite", required=True, choices=PROBLEM_NAMES)
    compare.add_argument("--out", required=True, help="directory for per-optimizer CSVs")
    compare.add_argument("--steps", type=int, default=5000)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--metric-update-interval", type=int, default=1)

    check = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    check.add_argument("--problem", default="all", choices=PROBLEM_NAMES + ("all",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, extras)
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_gradcheck(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
