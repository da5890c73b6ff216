"""In-memory span tracing, installed on the program from outside.

The benchmark measures each layer of ``repro`` without editing it: it
wraps the public functions and methods at each layer boundary with a
span recorder, runs the workload, and removes the wrappers again.  A
span is ``[name, start, end, parent, study]``; all spans of one study
share the study's id.  Spans stay in memory until the benchmark ends.

Stage spans (attack, defence, fit, score) are *leaves*: calls made
inside them -- RONI's internal retraining, ``fit_many`` falling back to
``fit`` -- run unwrapped, so that each round stage's time lands on the
stage that caused it and is counted once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# Defence families of the grid workload and the classes that implement
# them.  The radius filter's rounds ride the context kernel's keep mask.
DEFENSE_CLASSES = {
    "radius": ("repro.defenses.radius_filter", "RadiusFilter"),
    "percentile_filter": ("repro.defenses.percentile_filter",
                          "PercentileFilter"),
    "slab_filter": ("repro.defenses.slab_filter", "SlabFilter"),
    "knn_sanitizer": ("repro.defenses.knn_sanitizer", "KNNSanitizer"),
    "roni": ("repro.defenses.roni", "RONIDefense"),
    "loss_filter": ("repro.defenses.loss_filter", "LossFilter"),
    "pca_detector": ("repro.defenses.pca_detector", "PCADetector"),
    "certified": ("repro.defenses.certified", "CertifiedRadiusDefense"),
}

ROOT = "workload"
UNATTRIBUTED = "unattributed"


class Tracer:
    """Records nested spans of the main thread, with per-name counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.study = None
        self._stack: list[int] = []
        self._leaf = 0
        self._main = threading.main_thread()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.study])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out "
                               f"of order")

    def span(self, name: str, study=None):
        return _Span(self, name, study)

    def passthrough(self) -> bool:
        return self._leaf > 0 or \
            threading.current_thread() is not self._main

    def wrap(self, fn, name, *, leaf=False, count=None):
        """``fn`` recorded as span ``name``; ``count(tracer, args,
        kwargs)`` may bump counters on each call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.passthrough():
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs)
            index = tracer.open(name)
            tracer._leaf += leaf
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf -= leaf
                tracer.close(index)

        return wrapper


class _Span:
    def __init__(self, tracer, name, study):
        self.tracer, self.name, self.study = tracer, name, study

    def __enter__(self):
        if self.study is not None:
            self._outer = self.tracer.study
            self.tracer.study = self.study
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        if self.study is not None:
            self.tracer.study = self._outer
        return False


# -- instrumentation -------------------------------------------------------


class Instrumentation:
    """Wrappers on repro's layer boundaries; ``remove()`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def method(self, cls, attr, name, *, leaf=False, count=None):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.tracer.wrap(raw.__func__, name,
                                                   leaf=leaf, count=count))
        else:
            wrapped = self.tracer.wrap(raw, name, leaf=leaf, count=count)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def function(self, module_name, attr, name, *, leaf=False):
        """Wrap a module-level function in every repro module that
        imported it by name, so call sites in any layer see the span."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.tracer.wrap(original, name, leaf=leaf)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append((module, key, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def _count(name):
    def bump(tracer, args, kwargs):
        tracer.counts[name] += 1
    return bump


def _count_fit_many(tracer, args, kwargs):
    n = len(args[1])
    tracer.counts["ml.rounds_fitted"] += n
    if n >= 2:
        tracer.counts["ml.rounds_batched"] += n


def install(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary the benchmark reports on."""
    import importlib

    import repro  # noqa: F401  (loads every module patched below)
    import repro.cluster.backend as cluster_backend
    import repro.engine.backends as backends
    from repro.engine.core import EvaluationEngine
    from repro.experiments.kernel import ContextKernel
    from repro.experiments.runner import ExperimentContext
    from repro.ml.base import BaseEstimator
    from repro.ml.linear_svm import LinearSVM
    from repro.study.checkpoint import StudyCheckpointer
    from repro.study.result import StudyResult
    from repro.study.spec import ContextSpec

    inst = Instrumentation(tracer)
    inst.method(ContextSpec, "materialize", "context.materialize")
    inst.method(ExperimentContext, "kernel", "context.kernel")
    inst.method(ExperimentContext, "fingerprint", "context.fingerprint")
    inst.method(StudyResult, "to_json", "study.archive_write")
    inst.method(StudyCheckpointer, "flush", "study.checkpoint",
                count=_count("study.checkpoint_writes"))
    inst.function("repro.study.result", "study_result_from_json",
                  "study.archive_read")
    inst.function("repro.core.payoff_estimation", "estimate_payoff_curves",
                  "core.payoff_curves")
    inst.function("repro.core.algorithm1", "compute_optimal_defense",
                  "core.algorithm1")
    inst.function("repro.gametheory.lp_solver", "solve_zero_sum_lp",
                  "gametheory.lp")
    inst.method(EvaluationEngine, "evaluate_batch", "engine")
    inst.method(backends.SerialBackend, "run", "backend.serial")
    inst.method(cluster_backend.ClusterBackend, "run", "cluster.batch")
    inst.method(cluster_backend.LocalShardPool, "__init__", "cluster.spawn",
                count=_count("cluster.spawns"))
    inst.function("repro.attacks.base", "poison_dataset", "attacks.poison",
                  leaf=True)
    inst.method(ContextKernel, "keep_mask", "defenses.radius", leaf=True)
    for kind, (module_name, class_name) in DEFENSE_CLASSES.items():
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr in ("mask", "kernel_mask"):
            inst.method(cls, attr, f"defenses.{kind}", leaf=True)
    inst.method(LinearSVM, "fit", "ml.fit", leaf=True,
                count=_count("ml.rounds_fitted"))
    inst.method(LinearSVM, "fit_many", "ml.fit", leaf=True,
                count=_count_fit_many)
    inst.method(BaseEstimator, "score", "ml.score", leaf=True)
    return inst


# -- analysis --------------------------------------------------------------


def self_times(spans, studies=None) -> dict[str, float]:
    """Exclusive seconds per span name; the root's own time is the
    ``unattributed`` row, so the rows add up to the root's wall time.

    ``studies`` restricts the rows to spans of those study ids (the
    root row is then omitted)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    rows: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, study) in enumerate(spans):
        if studies is not None and study not in studies:
            continue
        rows[UNATTRIBUTED if name == ROOT else name] += \
            end - start - child[i]
    return dict(rows)


def root_wall(spans) -> float:
    return sum(end - start for name, start, end, parent, _ in spans
               if name == ROOT)


def format_table(title: str, rows: dict[str, float], wall: float) -> str:
    total = sum(rows.values())
    lines = [f"# {title}  wall={wall:.4f}s",
             f"#   {'layer':<28}{'self_s':>11}{'share':>9}"]
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        share = value / wall if wall else 0.0
        lines.append(f"#   {name:<28}{value:>11.4f}{share:>9.1%}")
    lines.append(f"#   {'sum':<28}{total:>11.4f}"
                 f"{(total / wall if wall else 0.0):>9.1%}")
    return "\n".join(lines)
