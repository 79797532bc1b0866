"""Spans around the calls into each cgd module, installed from outside it.

Each wrapped function records its wall time and its self time (its time
minus the wrapped calls it made). Spans live in memory for the life of one
round and are reduced to per-name statistics when the round ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# Every 50th moment update runs under tracemalloc to read its peak
# allocation; those calls are left out of the timing.
ALLOC_SAMPLE_EVERY = 50

# (module, class or None, attribute, span name), each named where it is
# defined. A module-level function is also rewrapped under every other name
# bound to it in a loaded cgd module (``from .linalg import eigendecompose``),
# so the wrapper sees a call whichever import style the caller uses.
BOUNDARIES = (
    ("cgd.problems", "RosenbrockProblem", "gradient", "problems.gradient"),
    ("cgd.problems", "RosenbrockProblem", "loss", "problems.loss"),
    ("cgd.problems", "MultiplyProblem", "gradient", "problems.gradient"),
    ("cgd.problems", "MultiplyProblem", "loss", "problems.loss"),
    ("cgd.moments", None, "update_moments", "moments.update"),
    ("cgd.moments", None, "covariance", "moments.covariance"),
    ("cgd.linalg", None, "eigendecompose", "linalg.eigendecompose"),
    ("cgd.metric", None, "build_inverse_metric", "metric.build"),
    ("cgd.metric", "InverseMetricOperator", "apply", "metric.apply"),
    ("cgd.optimizer", None, "step", "optimizer.step"),
    ("cgd.harness", None, "track_eigenvalues", "harness.track_eigenvalues"),
)


class MissingSpan(RuntimeError):
    """A boundary the benchmark times is gone, or a call escaped its span."""


class Tracer:
    def __init__(self):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.calls = defaultdict(int)
        self.alloc_peaks = []
        self._stack = []

    def wrap(self, name, fn, alloc_every=0):
        stack = self._stack
        durations = self.durations[name]
        self_times = self.self_times[name]
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            sample_alloc = alloc_every and calls[name] % alloc_every == 1
            if sample_alloc:
                tracemalloc.start()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if sample_alloc:
                    self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                else:
                    durations.append(dt)
                    self_times.append(dt - child)
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every boundary in BOUNDARIES; raise MissingSpan if one is gone."""
        for module_name, owner_name, attr, span in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                where = ".".join(filter(None, (module_name, owner_name, attr)))
                raise MissingSpan(f"{where} is gone; update BOUNDARIES in bench/spans.py")
            every = ALLOC_SAMPLE_EVERY if span == "moments.update" else 0
            wrapped = self.wrap(span, original, every)
            setattr(owner, attr, wrapped)
            if owner_name is None:
                for name, module in list(sys.modules.items()):
                    if name.split(".")[0] != "cgd":
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, alias, wrapped)

    def timed(self, name, fn, *args):
        """Call fn as a top-level span (the benchmark's own calls)."""
        return self.wrap(name, fn)(*args)

    def check_reach(self, before: dict, steps: int, full_metric: bool,
                    tracked_rows: int) -> None:
        """Raise MissingSpan unless one operation's calls, counted from
        ``before`` (a copy of ``calls``), reached every span it must: one
        gradient and one optimizer step per step, a loss, a moment update, a
        metric build and an apply on every run, and on a full-metric run the
        covariance, an eigendecomposition per build and the eigenvalue
        tracking. A span that loses its calls would read as a free layer."""
        made = {name: self.calls[name] - before.get(name, 0) for name in self.calls}
        need = {"problems.gradient": steps, "optimizer.step": steps, "problems.loss": steps,
                "moments.update": 1, "metric.build": 1, "metric.apply": 1}
        if full_metric:
            need.update({"moments.covariance": 1,
                         "linalg.eigendecompose": made.get("metric.build", 0) or 1})
        if tracked_rows:
            need["harness.track_eigenvalues"] = tracked_rows
        short = [f"{name} {made.get(name, 0)} < {least}"
                 for name, least in need.items() if made.get(name, 0) < least]
        if short:
            raise MissingSpan("calls escaped their spans (made < needed): " + ", ".join(short))

    def layer_metrics(self, steps: int, csv_bytes: list[int]) -> dict[str, float]:
        """Per-layer figures of one round; 0 for a layer the round never called."""

        def median_ms(name, table=None):
            values = (table or self.durations)[name]
            return 1e3 * statistics.median(values) if values else 0.0

        def per_step(name):
            return self.calls[name] / steps

        direct = sum(
            sum(self.durations[name])
            for name in ("problems.gradient", "problems.loss", "optimizer.step",
                         "harness.track_eigenvalues")
        )
        loop_self = sum(self.durations["harness.run_experiment"]) - direct
        return {
            "problems.gradient_ms": median_ms("problems.gradient"),
            "problems.loss_ms": median_ms("problems.loss"),
            "moments.update_ms": median_ms("moments.update"),
            "moments.covariance_ms": median_ms("moments.covariance"),
            "moments.update_alloc_mb": (statistics.median(self.alloc_peaks) / 2**20
                                        if self.alloc_peaks else 0.0),
            "linalg.eigendecompose_ms": median_ms("linalg.eigendecompose"),
            "linalg.eigendecompose_per_step": per_step("linalg.eigendecompose"),
            "metric.build_ms": median_ms("metric.build"),
            "metric.builds_per_step": per_step("metric.build"),
            "metric.apply_ms": median_ms("metric.apply"),
            "optimizer.step_ms": median_ms("optimizer.step"),
            "optimizer.step_self_ms": median_ms("optimizer.step", self.self_times),
            "harness.track_eigenvalues_ms": median_ms("harness.track_eigenvalues"),
            "harness.loop_self_ms": 1e3 * loop_self / steps,
            "harness.write_csv_ms": median_ms("harness.write_csv"),
            "harness.csv_bytes": float(statistics.median(csv_bytes)),
        }
