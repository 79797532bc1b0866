"""Print one sha256 per CSV that a fixed set of configs writes through `cgd run`.

A refactor that claims to leave the output unchanged runs this on the old
and the new source tree, at the same BLAS thread count, and diffs the two
listings:

    diff <(python3 tools/csv_digest.py --pythonpath OLD/src --threads 1) \\
         <(python3 tools/csv_digest.py --pythonpath src --threads 1)

Each config runs in its own `python -m cgd.cli run` process with PYTHONPATH
and OPENBLAS_NUM_THREADS set to the given values, so the tree under test is
the one imported. The three multiply `cgd_full` configs differ between one
and two BLAS threads, so running both thread counts exercises the BLAS path.
The full-metric CSVs at d >= `cgd.linalg.TRIDIAGONAL_MIN_DIM` also depend on
whether numpy bundles scipy-openblas, which decides the eigensolver path.
The two interval-3 configs and the second-moment one pin the tracked-spectrum
rule: their eig columns hold the spectrum of the operator each step applied,
which on a step between refreshes is the carried one, and under
`statistic = second_moment` is that of m2. The interval-2 config is the
cadence of the `multiply-full-lazy` benchmark workload, where every other
state carries no operator and the next step builds one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MULTIPLY_FULL = {"problem": "multiply", "optimizer": "cgd_full", "steps": 300, "eig_track_k": 10}
ROSENBROCK_FULL = {"problem": "rosenbrock", "optimizer": "cgd_full", "steps": 5000,
                   "eig_track_k": 2}

CONFIGS: dict[str, dict] = {
    "multiply-full": MULTIPLY_FULL,
    "multiply-full-interval2": {**MULTIPLY_FULL, "metric_update_interval": 2},
    "multiply-full-interval3": {**MULTIPLY_FULL, "metric_update_interval": 3},
    "multiply-full-second-moment": {**MULTIPLY_FULL, "statistic": "second_moment"},
    "rosenbrock-full": ROSENBROCK_FULL,
    "rosenbrock-full-interval3": {**ROSENBROCK_FULL, "metric_update_interval": 3,
                                  "eig_track_interval": 7},
    **{f"rosenbrock-{name}": {"problem": "rosenbrock", "optimizer": name, "steps": 5000}
       for name in ("sgd", "rmsprop", "adam", "adabelief", "cgd_diagonal")},
    **{f"multiply-{name}": {"problem": "multiply", "optimizer": name, "steps": 300}
       for name in ("sgd", "rmsprop", "adam", "adabelief", "cgd_diagonal")},
    # generalized Rosenbrock on either side of linalg.TRIDIAGONAL_MIN_DIM: the
    # first keeps np.linalg.eigh, the second runs the tridiagonal path
    **{f"rosenbrock-full-dim{dim}": {"problem": "rosenbrock", "optimizer": "cgd_full",
                                     "steps": 300, "dim": dim}
       for dim in (63, 64)},
    # on a one-row batch numpy runs the network's products as vector-matrix
    # products (GEMV), whose rounding differs from the GEMM of larger batches
    "multiply-cgd_diagonal-batch1": {"problem": "multiply", "optimizer": "cgd_diagonal",
                                     "steps": 300, "batch_size": 1},
}


def digest(name: str, config: dict, env: dict, work: Path) -> str:
    """Run one config through `cgd run` and return the sha256 of its CSV."""
    out = work / name
    cfg = work / f"{name}.cfg"
    lines = [f"{key} = {value}" for key, value in config.items()]
    cfg.write_text("\n".join(lines + [f"output_dir = {out}"]) + "\n", encoding="utf-8")
    subprocess.run([sys.executable, "-m", "cgd.cli", "run", "--config", str(cfg)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    (csv,) = out.glob("*.csv")
    return hashlib.sha256(csv.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pythonpath", required=True,
                        help="source directory holding the cgd package to run")
    parser.add_argument("--threads", required=True, help="OPENBLAS_NUM_THREADS for every run")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(args.pythonpath).resolve()),
           "OPENBLAS_NUM_THREADS": args.threads}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            print(f"{digest(name, config, env, Path(tmp))}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
