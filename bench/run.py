"""The cgd benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout; the program is imported from ``src``.
Whole rounds of the workload run, each in a fresh process, as many as fill
about ``--seconds``; set-up is probed in fresh processes before, between and
after them. Every run pins the BLAS thread count to at most the number of
usable CPUs, prints the environment, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, named
and united as ``BENCHMARK.json`` declares them).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_ROOT = ROOT / ".bench_out"
# Set-up probes per run, spread evenly before, between and after the
# rounds so that their median samples the same stretch of machine time.
SETUP_PROBES = 16
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json declares them: the one place they are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> tuple[dict, int]:
    """Environment for every child: src on the path, BLAS threads pinned."""
    cpus = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(cpus, int(asked)) if asked.isdigit() and int(asked) > 0 else cpus
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def launch(mode: str, opts: dict, env: dict) -> tuple[float, dict]:
    """Run one worker to completion; return its launch time and report."""
    t_launch = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), mode, json.dumps(opts)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return t_launch, json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def spread_probes(total: int, slots: int) -> list[int]:
    """Split ``total`` probes as evenly as possible over ``slots`` slots."""
    return [total // slots + (i < total % slots) for i in range(slots)]


def benchmark(args, env: dict, threads: int) -> dict:
    workload = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    opts = {"workload": workload.name, "seed": args.seed, "out_dir": str(out_dir),
            "trace": bool(args.trace)}
    n_rounds = workload.rounds(args.seconds)
    setup_s, import_s, rounds = [], [], []
    try:
        for slot, probes in enumerate(spread_probes(SETUP_PROBES, n_rounds + 1)):
            for _ in range(probes):
                t_launch, probe = launch("setup", opts, env)
                setup_s.append(probe["t_first_step"] - t_launch)
                import_s.append(probe["import_s"])
            if slot < n_rounds:
                t_launch, report = launch("round", opts, env)
                report["run_s"] = report["t_done"] - t_launch
                rounds.append(report)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env_info = rounds[0]["env"]
    print(f"environment: numpy {env_info['numpy']}, BLAS {env_info['blas']}, "
          f"BLAS threads {threads} (OPENBLAS_NUM_THREADS={env_info['threads']}), "
          f"{len(os.sched_getaffinity(0))} usable CPUs")
    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(workload.presets)} run(s) x {workload.steps} steps, "
          f"{'traced' if args.trace else 'untraced'}; run_s per round "
          f"{[round(r['run_s'], 3) for r in rounds]}")
    for note in rounds[0]["notes"]:
        print(note)
    problems = [msg for r in rounds for msg in r["check_failures"]]
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    errors = [m for r in rounds for m in r["errors"]]
    for msg in errors:
        print(f"OPERATION FAILED: {msg}")

    end_to_end_units, layer_units = metric_units()
    if args.trace:
        metrics = {name: median(r["layers"][name] for r in rounds)
                   for name in rounds[0]["layers"]}
        metrics["cli.import_s"] = median(import_s)
        units = layer_units
    else:
        # a round whose operations all failed did no stepping
        rates = [r["steps"] / r["stepping_s"] for r in rounds if r["stepping_s"] > 0]
        metrics = {
            "setup_s": median(setup_s),
            "run_s": median(r["run_s"] for r in rounds),
            "steps_per_s": median(rates) if rates else 0.0,
            "peak_rss_mb": median(r["rss_kb"] / 1024.0 for r in rounds),
        }
        units = end_to_end_units
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json's {sorted(units)}")
    return {
        # no operation of any workload is expected to fail, and a failed
        # one skips its output checks, so a failure is not correct output
        "correct": not problems and not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check flags a broken input")
    args = parser.parse_args()
    if not (ROOT / "src" / "cgd" / "__init__.py").is_file():
        print(f"error: no cgd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, threads = child_env()
    if args.self_test:
        out_dir = OUT_ROOT / f"selftest-{os.getpid()}"
        try:
            _, report = launch("selftest", {"out_dir": str(out_dir)}, env)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        for line in report["lines"]:
            print(line)
        return 0 if report["ok"] else 1
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    try:
        result = benchmark(args, env, threads)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
