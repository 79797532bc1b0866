"""The four benchmark workloads and the operations each round runs.

One operation is one optimizer run: one preset on one seed, run through
``run_experiment`` and written with ``write_csv``. A round runs every
operation of its workload once, in a fresh process, as a user launching
``cgd`` would.
"""

from __future__ import annotations

from dataclasses import dataclass

DIAGONAL_PRESETS = ("sgd", "rmsprop", "adam", "adabelief", "cgd_diagonal")

# Preset -> (full matrix?, centered covariance?), the README's preset table.
PRESET_METRICS = {
    "sgd": (False, False),
    "rmsprop": (False, False),
    "adam": (False, False),
    "adabelief": (False, True),
    "cgd_diagonal": (False, True),
    "cgd_full": (True, True),
}
ALL_PRESETS = DIAGONAL_PRESETS + ("cgd_full",)

# The full-metric runs pass the loss collapse at steps 470-590 on seeds 0-9
# (the smoothed loss first falls below 1e-3 there), so 800 steps leave over
# 200 steps of margin for the end-of-run checks.
FULL_STEPS = 800


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    presets: tuple[str, ...]
    steps: int
    # typical seconds per round on a 2-vCPU machine; a run makes
    # round(--seconds / round_s) rounds, at least one
    round_s: float
    metric_update_interval: int = 1
    eig_track_k: int = 0

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def config_mapping(self, preset: str, seed: int, output_dir: str) -> dict[str, str]:
        """The ``key = value`` text a user would put in a config file."""
        mapping = {
            "problem": self.problem,
            "optimizer": preset,
            "steps": str(self.steps),
            "seed": str(seed),
            "output_dir": output_dir,
        }
        if self.eig_track_k:
            mapping["eig_track_k"] = str(self.eig_track_k)
        if self.metric_update_interval != 1:
            mapping["metric_update_interval"] = str(self.metric_update_interval)
        return mapping


WORKLOADS = {
    w.name: w
    for w in (
        # cgd compare --suite rosenbrock: d = 2, so Python call overhead, the
        # pure-Python Jacobi eigensolver and CSV writing carry the run.
        Workload("rosenbrock-suite", "rosenbrock", ALL_PRESETS, 5000, 3.0),
        # the network gradient and loss dominate; linalg is never called
        Workload("multiply-diagonal", "multiply", DIAGONAL_PRESETS, 5000, 14.0),
        # one LAPACK eigh per step plus a second one on tracked steps
        Workload("multiply-full", "multiply", ("cgd_full",), FULL_STEPS, 37.0,
                 eig_track_k=10),
        # operator rebuilt every other step and applied every step; at
        # interval 5 seed 12 fails to train, at 10 seeds 0-2 do
        Workload("multiply-full-lazy", "multiply", ("cgd_full",), FULL_STEPS, 22.0,
                 metric_update_interval=2, eig_track_k=10),
    )
}
