"""One benchmark process: a set-up probe, one round of a workload, or the
check self-test.

    python3 bench/worker.py setup|round|selftest '<json options>'

``bench/run.py`` launches it with the BLAS thread count pinned and
``src`` on ``PYTHONPATH``. It prints one JSON object as its last line.
Times it reports are ``time.monotonic()`` readings, which share one clock
with the launching process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import PRESET_METRICS, WORKLOADS  # noqa: E402  (standard library only)


class _FirstStep(Exception):
    pass


def setup(opts: dict) -> dict:
    """Import cgd, parse the config, build the problem and the initial
    state, and stop at the first optimizer step."""
    t_import = time.monotonic()
    import cgd.cli  # noqa: F401  (what the console script imports)
    from cgd import harness

    t_imported = time.monotonic()
    workload = WORKLOADS[opts["workload"]]
    cfg = harness.ExperimentConfig.from_mapping(
        workload.config_mapping(workload.presets[0], opts["seed"], opts["out_dir"]))
    first = []

    def probe(state, grad, opt_cfg):
        first.append(time.monotonic())
        raise _FirstStep

    harness.step = probe
    try:
        harness.run_experiment(cfg)
    except _FirstStep:
        pass
    return {"t_first_step": first[0], "import_s": t_imported - t_import}


def sampled_steps(workload) -> tuple[set, set, tuple]:
    """Steps whose parameters are captured for the direction checks, steps
    whose eig row is checked, and steps whose gradient is checked."""
    n = workload.steps
    grads_at = (1, n // 2, n) if workload.eig_track_k == 0 else ()
    if workload.metric_update_interval > 1:
        moves = set(range(1, n + 1))
    else:
        stride = 250 if n > 1000 else 50
        moves = {1, 2, 3, n, *grads_at} | set(range(1, n + 1, stride))
    eig_at = set(range(1, n + 1, 50)) if workload.eig_track_k else set()
    return moves, eig_at, grads_at


class StepCapture:
    """Keeps every gradient, and the parameters around the sampled steps."""

    def __init__(self, steps: int, sampled: set):
        self.steps, self.sampled = steps, sampled
        self.grads = None
        self.before, self.after = {}, {}

    def wrap(self, step):
        import numpy as np

        count = [0]

        def captured(state, grad, cfg):
            if self.grads is None:
                self.grads = np.empty((self.steps, np.shape(grad)[0]))
            t = count[0] = count[0] + 1
            self.grads[t - 1] = grad
            new = step(state, grad, cfg)
            if t in self.sampled:
                self.before[t] = np.array(state.params, copy=True)
                self.after[t] = np.array(new.params, copy=True)
            return new

        return captured


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned")}


def run_round(opts: dict) -> dict:
    import cgd.cli  # noqa: F401
    from cgd import harness

    from spans import Tracer

    workload = WORKLOADS[opts["workload"]]
    seed, out_dir = opts["seed"], Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if opts["trace"] else None
    if tracer:
        tracer.install()
    capture_on = tracer is not None and workload.problem == "multiply"
    moves, eig_at, grads_at = sampled_steps(workload)
    traced_step = harness.step

    ops, failures, stepping_s, steps_done = [], [], 0.0, 0
    for preset in workload.presets:
        path = out_dir / f"{preset}.csv"
        capture = StepCapture(workload.steps, moves) if capture_on else None
        if capture:
            harness.step = capture.wrap(traced_step)
        calls_before = dict(tracer.calls) if tracer else None
        try:
            cfg = harness.ExperimentConfig.from_mapping(
                workload.config_mapping(preset, seed, str(out_dir)))
            t0 = time.perf_counter()
            if tracer:
                record = tracer.timed("harness.run_experiment", harness.run_experiment, cfg)
                t1 = time.perf_counter()
                tracer.timed("harness.write_csv", harness.write_csv, record, path)
            else:
                record = harness.run_experiment(cfg)
                t1 = time.perf_counter()
                harness.write_csv(record, path)
        except Exception:  # an operation that fails is counted, not fatal
            failures.append(f"{preset}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            harness.step = traced_step
        if tracer:
            tracked = -(-cfg.steps // cfg.eig_track_interval) if cfg.eig_track_k else 0
            tracer.check_reach(calls_before, cfg.steps, PRESET_METRICS[preset][0],
                               tracked)
        stepping_s += t1 - t0
        steps_done += workload.steps
        ops.append((preset, path, record.final_params, capture))
    t_done = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_failures, notes = check_round(workload, seed, ops, eig_at, grads_at)
    report = {
        "attempted": len(workload.presets),
        "failed": len(failures),
        "steps": steps_done,
        "stepping_s": stepping_s,
        "t_done": t_done,
        "rss_kb": rss_kb,
        "check_failures": check_failures,
        "notes": notes,
        "errors": failures,
        "env": environment(),
    }
    if tracer:
        sizes = [path.stat().st_size for _, path, _, _ in ops]
        report["layers"] = tracer.layer_metrics(max(steps_done, 1), sizes or [0])
    return report


def check_round(workload, seed: int, ops: list, eig_at: set,
                grads_at) -> tuple[list[str], list[str]]:
    """Check every operation's outputs; return the failures and, for the
    network runs, the step where the smoothed loss first fell below 1e-3."""
    import numpy as np

    import checks
    from cgd.optimizer import HYPERPARAMETERS

    table = HYPERPARAMETERS[workload.problem]
    out, notes, final = [], [], {}
    for preset, path, final_params, capture in ops:
        label = f"{workload.name}/{preset}"
        hp = table[preset]
        cols = checks.read_csv(path)
        out += checks.check_table(label, cols, workload.steps)
        out += checks.check_smoothing(label, cols["loss"], cols["smoothed_loss"])
        final[preset] = cols["smoothed_loss"][-1]
        if workload.problem == "rosenbrock":
            out += checks.check_rosenbrock_loss(label, cols)
            if preset in ("sgd", "rmsprop", "adam", "adabelief"):
                params = checks.columns(cols, "q")
                out += checks.check_textbook(label, preset, hp, params)
            continue
        below = np.nonzero(cols["smoothed_loss"] < checks.CONVERGED)[0]
        notes.append(f"{label}: smoothed loss first below {checks.CONVERGED:g} at step "
                     f"{below[0] + 1 if below.size else 'never'}, ends at "
                     f"{cols['smoothed_loss'][-1]:.3g}")
        out += checks.check_final_loss(label, cols["loss"], final_params, seed)
        eig = checks.columns(cols, "eig")
        if preset in ("adabelief", "cgd_diagonal", "cgd_full"):
            out += checks.check_converged(label, cols["smoothed_loss"])
        if eig is not None:
            out += checks.check_spectrum(label, eig)
        if capture is None:
            continue
        if PRESET_METRICS[preset][0]:
            out += checks.check_full_directions(
                label, hp, workload.metric_update_interval, capture.grads,
                capture.before, capture.after, eig, eig_at)
        else:
            out += checks.check_diagonal_moves(
                label, preset, hp, capture.grads, capture.before, capture.after)
            out += checks.check_gradients(label, capture.grads, capture.before, seed, grads_at)
    if workload.problem == "rosenbrock" and len(final) == len(workload.presets):
        out += checks.check_ranking(final)
    return out, notes


def main(argv: list[str]) -> int:
    mode, opts = argv[1], json.loads(argv[2]) if len(argv) > 2 else {}
    if mode == "setup":
        report = setup(opts)
    elif mode == "round":
        report = run_round(opts)
    elif mode == "selftest":
        from selftest import run_selftest

        report = run_selftest(opts)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
