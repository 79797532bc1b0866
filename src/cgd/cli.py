"""Command-line entry points: run, compare, gradcheck.

``run`` and ``compare`` take trailing ``--key value`` (or ``--key=value``)
config overrides; ``compare`` refuses the keys it sets per run.

Exit codes (the README's table):

- 0: success.
- 2: bad configuration: a bad key or value, an unreadable or non-UTF-8 config
  file or a NUL byte in its path, a negative seed, a non-finite ``gamma``,
  ``eps`` or ``q0``, a ``steps``, ``dim`` or ``batch_size`` too large to
  allocate (a step's arrays included), or an output directory (a NUL byte in
  ``output_dir`` included), CSV or stdout (a closed pipe, a full device) that
  cannot be written.
- 3: numerical failure: a non-finite loss or full-metric statistic mid-run,
  an eigensolver that does not converge, or a gradient check exceeding
  tolerance.
- 1: the one known case left: at two or more BLAS threads, OpenBLAS can fail
  its own buffer allocation for a step that does not fit ("Memory allocation
  still failed...") and end the process before Python sees a MemoryError.

Stdout, like stderr, backslash-escapes a character it cannot encode, and a
stderr that cannot be written leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import os
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
        key, inline, value = token[2:].partition("=")
        key = key.replace("-", "_")
        if inline:
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


def _say(line: str, stream=None) -> None:
    """Print one line to ``stream`` (stdout by default), backslash-escaping a
    character it cannot encode. A stdout that refuses the line is a config
    error, like an unwritable CSV; a stderr that does leaves the exit code."""
    stream = stream or sys.stdout
    try:
        print(line, file=stream, flush=True)
    except UnicodeEncodeError:
        _say(line.encode(stream.encoding, "backslashreplace").decode(stream.encoding), stream)
    except OSError as exc:
        # the unwritten rest stays buffered; let interpreter exit flush it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if stream is sys.stdout:
            raise ConfigError(f"cannot write stdout: {exc}") from None


def _cmd_run(args, extras) -> int:
    cfg = ExperimentConfig.from_file(args.config).with_overrides(_parse_override_pairs(extras))
    out_dir = make_output_dir(cfg.output_dir)
    record = run_experiment(cfg)
    path = out_dir / f"{cfg.problem}_{cfg.optimizer}_seed{cfg.seed}.csv"
    write_csv(record, path)
    _say(f"{cfg.problem} / {cfg.optimizer}: {cfg.steps} steps, "
         f"final loss {record.losses[-1]:.6g}, "
         f"final smoothed loss {record.smoothed[-1]:.6g}")
    _say(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args, extras) -> int:
    records = compare_suite(args.suite, args.out, **_parse_override_pairs(extras))
    cfg = next(iter(records.values())).config
    width = max(len(name) for name in records)
    _say(f"{args.suite} suite, {cfg.steps} steps, seed {cfg.seed}")
    for name, record in records.items():
        _say(f"  {name:<{width}}  final loss {record.losses[-1]:>12.6g}  "
             f"smoothed {record.smoothed[-1]:>12.6g}")
    _say(f"wrote {len(records)} CSV files to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    names = PROBLEM_NAMES if args.problem == "all" else (args.problem,)
    ok = True
    for name in names:
        err = gradcheck(name)
        status = "ok" if err <= GRADCHECK_TOL else "FAIL"
        _say(f"{name}: max relative error = {err:.3e} [{status}]")
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

    # the rest of compare's arguments are --key value overrides, as for run
    compare = sub.add_parser("compare", help="run all presets on one benchmark suite",
                             allow_abbrev=False)
    compare.add_argument("--suite", required=True, choices=PROBLEM_NAMES)
    compare.add_argument("--out", required=True, help="directory for per-optimizer CSVs")

    check = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    check.add_argument("--problem", default="all", choices=PROBLEM_NAMES + ("all",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, extras)
        if args.command == "compare":
            return _cmd_compare(args, extras)
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return _cmd_gradcheck(args)
    except ConfigError as exc:
        _say(f"config error: {exc}", sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        _say(f"numerical failure: {exc}", sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
