"""Positive controls: every output check must flag a deliberately broken
input, and pass the same input unbroken.

Short real runs supply the inputs: the Rosenbrock suite, and on the
network two diagonal presets and a lazy full-metric run, both stopped long
before the loss collapse. Run through ``python3 bench/run.py --self-test``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS
from worker import StepCapture, sampled_steps

SEED = 0
EARLY_STEPS = 300  # the full-metric loss is still ~0.1 here; it collapses after step 470
SPAN_STEPS = 30


def _run(workload, preset: str, out_dir: Path, capture: bool):
    from cgd import harness

    cap = StepCapture(workload.steps, sampled_steps(workload)[0]) if capture else None
    real_step = harness.step
    if cap:
        harness.step = cap.wrap(real_step)
    try:
        cfg = harness.ExperimentConfig.from_mapping(
            workload.config_mapping(preset, SEED, str(out_dir)))
        record = harness.run_experiment(cfg)
    finally:
        harness.step = real_step
    path = out_dir / f"{workload.name}-{preset}.csv"
    harness.write_csv(record, path)
    return checks.read_csv(path), record.final_params, cap


def _perturb_move(before, after, t, size):
    """Shift the step-t move so its direction changes by `size`, relatively."""
    after = dict(after)
    move = before[t] - after[t]
    kick = np.zeros_like(move)
    kick[np.argmax(np.abs(move))] = size * np.linalg.norm(move)
    after[t] = after[t] - kick
    return after


def _bumped(values, index, rel):
    out = np.array(values, copy=True)
    out[index] *= 1.0 + rel
    return out


def _raised(fn, *args) -> list[str]:
    try:
        fn(*args)
    except spans.MissingSpan as exc:
        return [str(exc)]
    return []


def _span_cases(out_dir: Path) -> list:
    """The traced run must refuse to read a layer whose calls it lost. Runs
    last: installing the tracer wraps the program's functions for good."""
    import types

    from cgd import harness, linalg, metric

    lazy = dataclasses.replace(WORKLOADS["multiply-full-lazy"], steps=SPAN_STEPS)
    tracked = -(-SPAN_STEPS // checks.EIG_TRACK_INTERVAL)
    bogus = spans.Tracer()
    boundaries = spans.BOUNDARIES
    spans.BOUNDARIES = (("cgd.metric", None, "no_such_function", "metric.gone"),) + boundaries
    try:
        gone = _raised(bogus.install)
    finally:
        spans.BOUNDARIES = boundaries

    tracer = spans.Tracer()
    tracer.install()

    def traced_run():
        before = dict(tracer.calls)
        _run(lazy, "cgd_full", out_dir, False)
        tracer.check_reach(before, SPAN_STEPS, True, tracked)

    reached = _raised(traced_run)
    # metric reaching an unwrapped eigensolver, as if it had kept its own
    # reference to it: builds go on, eigendecompositions stop being counted
    unwrapped = types.SimpleNamespace(eigendecompose=linalg.eigendecompose.__wrapped__)
    metric.linalg, real_linalg = unwrapped, metric.linalg
    try:
        escaped = _raised(traced_run)
    finally:
        metric.linalg = real_linalg
    harness.track_eigenvalues, real_track = harness.track_eigenvalues.__wrapped__, \
        harness.track_eigenvalues
    try:
        untracked = _raised(traced_run)
    finally:
        harness.track_eigenvalues = real_track
    return [
        ("traced lazy run reaches every span", reached, False),
        ("a timed boundary renamed away", gone, True),
        ("metric calls an eigensolver outside its span", escaped, True),
        ("eigenvalue tracking outside its span", untracked, True),
    ]


def run_selftest(opts: dict) -> dict:
    from cgd.optimizer import HYPERPARAMETERS

    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []  # (name, failures, should_flag)

    # --- Rosenbrock suite -------------------------------------------------
    rosen = WORKLOADS["rosenbrock-suite"]
    table = HYPERPARAMETERS["rosenbrock"]
    runs = {p: _run(rosen, p, out_dir, False)[0] for p in rosen.presets}
    adam = runs["adam"]
    loss_off = dict(adam, loss=_bumped(adam["loss"], 2500, 1e-6))
    cases += [
        ("rosenbrock loss formula", checks.check_rosenbrock_loss("adam", adam), False),
        ("rosenbrock loss row off by 1e-6", checks.check_rosenbrock_loss("adam", loss_off), True),
        ("loss EMA", checks.check_smoothing("adam", adam["loss"], adam["smoothed_loss"]), False),
        ("smoothed row off by 1e-6", checks.check_smoothing(
            "adam", adam["loss"], _bumped(adam["smoothed_loss"], 2500, 1e-6)), True),
    ]
    for preset in ("sgd", "rmsprop", "adam", "adabelief"):
        params = checks.columns(runs[preset], "q")
        broken = params.copy()
        # one ulp for sgd's bitwise check, 1e-9 for the others
        row = 4999 if preset == "sgd" else checks.TEXTBOOK_SPAN // 2
        broken[row, 0] = (np.nextafter(broken[row, 0], np.inf) if preset == "sgd"
                          else broken[row, 0] + 1e-9)
        cases += [
            (f"{preset} textbook loop", checks.check_textbook(
                preset, preset, table[preset], params), False),
            (f"{preset} trajectory perturbed", checks.check_textbook(
                preset, preset, table[preset], broken), True),
        ]
    final = {p: cols["smoothed_loss"][-1] for p, cols in runs.items()}
    cases += [
        ("rosenbrock ranking", checks.check_ranking(final), False),
        ("cgd_full dropped to fourth", checks.check_ranking(
            dict(final, cgd_full=max(final.values()) * 0.99)), True),
    ]

    # --- multiply, diagonal presets, stopped early -----------------------
    diag = dataclasses.replace(WORKLOADS["multiply-diagonal"], steps=EARLY_STEPS)
    grads_at = sampled_steps(diag)[2]
    for preset in ("adam", "cgd_diagonal"):
        hp = HYPERPARAMETERS["multiply"][preset]
        cols, final_params, cap = _run(diag, preset, out_dir, True)
        t = sorted(cap.before)[len(cap.before) // 2]
        grads_off = cap.grads.copy()
        grads_off[t - 1] = _bumped(grads_off[t - 1], np.argmax(np.abs(grads_off[t - 1])), 1e-3)
        cases += [
            (f"{preset} final loss", checks.check_final_loss(
                preset, cols["loss"], final_params, SEED), False),
            (f"{preset} last loss row off by 1e-6", checks.check_final_loss(
                preset, _bumped(cols["loss"], -1, 1e-6), final_params, SEED), True),
            (f"{preset} diagonal moves", checks.check_diagonal_moves(
                preset, preset, hp, cap.grads, cap.before, cap.after), False),
            (f"{preset} step {t} direction perturbed by 1e-4", checks.check_diagonal_moves(
                preset, preset, hp, cap.grads, cap.before,
                _perturb_move(cap.before, cap.after, t, 1e-4)), True),
            (f"{preset} gradients", checks.check_gradients(
                preset, cap.grads, cap.before, SEED, grads_at), False),
            (f"{preset} gradient perturbed by 1e-3", checks.check_gradients(
                preset, grads_off, cap.before, SEED, (t,)), True),
            (f"{preset} stopped at step {EARLY_STEPS}", checks.check_converged(
                preset, cols["smoothed_loss"]), True),
        ]

    # --- multiply, lazy full metric, stopped before the collapse ---------
    lazy = dataclasses.replace(WORKLOADS["multiply-full-lazy"], steps=EARLY_STEPS)
    hp = HYPERPARAMETERS["multiply"]["cgd_full"]
    interval = lazy.metric_update_interval
    refresh = 1 + 50 * interval
    eig_at = sampled_steps(lazy)[1]
    cols, _, cap = _run(lazy, "cgd_full", out_dir, True)
    eig = checks.columns(cols, "eig")
    eig_off = eig.copy()
    eig_off[100, 3] *= 1.0 + 1e-6
    unsorted = eig.copy()
    unsorted[200, [0, 1]] = unsorted[200, [1, 0]]
    drifting = eig.copy()
    drifting[205] *= 1.0 + 1e-9

    def directions(after, eigs=eig, every=interval, steps=range(refresh - 5, refresh + 5)):
        # controls look at ten steps around one refresh; the clean case at all
        return checks.check_full_directions(
            "cgd_full", hp, every, cap.grads, {t: cap.before[t] for t in steps},
            after, eigs, eig_at)

    cases += [
        ("full-metric directions and eig rows",
         directions(cap.after, steps=sorted(cap.before)), False),
        (f"refresh step {refresh} direction perturbed by 1e-4",
         directions(_perturb_move(cap.before, cap.after, refresh, 1e-4)), True),
        (f"cached-operator step {refresh + 1} direction perturbed by 1e-4",
         directions(_perturb_move(cap.before, cap.after, refresh + 1, 1e-4)), True),
        ("cached steps read as fresh operators", directions(cap.after, every=1), True),
        ("eig row 101 off by 1e-6", directions(cap.after, eigs=eig_off), True),
        ("eig columns out of order", checks.check_spectrum("cgd_full", unsorted), True),
        ("eig value changed between tracked steps",
         checks.check_spectrum("cgd_full", drifting), True),
        ("eig columns", checks.check_spectrum("cgd_full", eig), False),
        (f"full metric stopped at step {EARLY_STEPS}",
         checks.check_converged("cgd_full", cols["smoothed_loss"]), True),
        # The top eigenvalue peaks at step 1, where m2 is still the identity,
        # so the decade check passes on any run past ~50 steps, including
        # this early-stopped one; its control is a spectrum that never fell.
        ("spectrum held at its first row",
         checks.check_spectrum("cgd_full", np.repeat(eig[:1], eig.shape[0], axis=0)), True),
    ]

    cases += _span_cases(out_dir)

    lines, ok = [], True
    for name, failures, should_flag in cases:
        good = bool(failures) == should_flag
        ok = ok and good
        verdict = ("flagged" if failures else "passed") + ("" if good else "  <-- WRONG")
        lines.append(f"{'control' if should_flag else 'clean  '}  {name}: {verdict}")
        if failures and not good:
            lines += [f"    {msg}" for msg in failures]
    lines.append(f"self-test {'passed' if ok else 'FAILED'}: {len(cases)} cases")
    return {"ok": ok, "lines": lines}
