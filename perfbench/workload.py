"""One workload process of the benchmark (started by ``run.py``).

``--role probe`` sets up, prints ``READY <setup s> <import s>`` and
exits;
``--role main`` sets up the same way, then runs the timed phase, the
warm repeat pass, the correctness gate and (with ``--trace 1``) the
traced passes, and prints ``RESULT <json>``.  Lines starting with ``#``
are human-readable report lines that ``run.py`` passes through.

The program receives only the ``StudySpec``\\ s generated here from the
workload seed; every archive, cache and shard-cache directory is fresh
and lives under the run's temporary directory (``TMPDIR``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import http.client
import json
import multiprocessing
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import tracing as tr
from hostclock import HostClock

# Each cold cycle is followed by this many warm repeats of its studies:
# about a fifth of the cold phase's time, and at least 1 s.
PAPER_WARM_REPEATS = 3
# Worker processes of the untraced correctness replay (one per CPU).
REPLAY_WORKERS = 2
# The context makers' default test split; spelling it out gives a study
# a new fingerprint without changing a single round.
DEFAULT_TEST_SIZE = 0.3
# How often the service client polls a study's status.
POLL_S = 0.1
# How long one study may take before it counts as failed.
STUDY_TIMEOUT_S = 150.0

GRID_DEFENSES = ("radius:0.05", "percentile_filter:0.05",
                 "slab_filter:0.05", "knn_sanitizer:0.05", "roni:0.05",
                 "loss_filter:0.05", "pca_detector:0.05", "certified:0.05",
                 None)
GRID_ATTACKS = ("boundary:0.05", "label-flip", "random-noise:0.05", None)
FLEET_SHARDS = 2
FLEET_CONTEXTS = 3  # one more than the autospawn pool cache holds
# Warm passes after each cold pass: 6 warm studies per run, so that
# their median does not rest on 3 shard spawns.
FLEET_WARM_PASSES = 2

# The context seed of the paper's setting, on which bench_figure1 and
# bench_table1 calibrate their accuracy thresholds.
PAPER_SEED = 0

SCALES = {
    "paper": {"name": "spambase"},
    "smoke": {"name": "synthetic", "n_samples": 600},
}


def note(line: str) -> None:
    print("# " + line, flush=True)


def fresh_dir(label: str) -> str:
    return tempfile.mkdtemp(prefix=label + "-")


# -- process-tree accounting -----------------------------------------------


def _children_stats():
    """``(cpu seconds, peak RSS kB)`` of this process's live children."""
    me, tick = os.getpid(), os.sysconf("SC_CLK_TCK")
    cpu, hwm = 0.0, 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[1]) != me:
                continue
            cpu += sum(int(f) for f in fields[11:15]) / tick
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm = max(hwm, int(line.split()[1]))
        except (OSError, IndexError, ValueError):
            continue  # the child exited while we read it
    return cpu, hwm


def tree_cpu() -> float:
    """CPU seconds of this process and every descendant, reaped or live."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + children.ru_utime + children.ru_stime
            + _children_stats()[0])


def measured(run):
    """``run()``'s records as one timed unit: ``(records, wall, cpu)``."""
    cpu0, start = tree_cpu(), time.perf_counter()
    records = run()
    return records, time.perf_counter() - start, tree_cpu() - cpu0


def tree_peak_rss_mb() -> float:
    """Peak resident set of the largest process in this process tree."""
    live = _children_stats()[1]
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
               live) / 1024.0


# -- correctness -----------------------------------------------------------


def comparable(doc: dict) -> dict:
    """The parts of an archived result that must be bit-identical
    wherever the study ran (timings and provenance stamps excluded)."""
    data = doc["data"]
    return {key: data[key] for key in
            ("study_fingerprint", "context_fingerprints", "n_rounds",
             "n_unique", "payload", "scenarios")}


def paper_checks(kind: str, payload: dict, paper: bool) -> str | None:
    """The shape checks of bench_figure1/bench_table1.

    The structural checks (probabilities sum to 1, the mixed defence
    guarantees no less than the best pure one) hold on every context.
    The accuracy thresholds are calibrated on the paper's setting, the
    seed-0 Spambase context the benches use, and ``paper`` applies
    them."""
    def sweep_dips(sweep):
        clean, attacked = sweep["acc_clean"], sweep["acc_attacked"]
        if not attacked[0] < clean[0] - 0.05:
            return "attacked sweep does not dip 0.05 below clean at p=0"
        if not max(attacked) > attacked[0] + 0.03:
            return "attacked sweep does not recover by 0.03"
        return None

    def sums_to_one(probabilities, what):
        if abs(sum(probabilities) - 1.0) > 1e-9:
            return f"{what} probabilities sum to {sum(probabilities)!r}"
        return None

    if kind == "figure1":
        return sweep_dips(payload["data"]) if paper else None
    if kind == "table1":
        for row in payload["rows"]:
            why = sums_to_one(row["data"]["probabilities"], "table1 mixed")
            if why:
                return why
        return sweep_dips(payload["sweep"]["data"]) if paper else None
    if kind == "empirical_game":
        data = payload["data"]
        why = sums_to_one(data["defender_mix"], "equilibrium defender")
        if why:
            return why
        if data["mixed_advantage"] < -1e-9:
            return (f"mixed defence guarantees less than the best pure "
                    f"one ({data['mixed_advantage']:+.4f})")
        if paper and not data["game_value_accuracy"] > 0.75:
            return (f"game value {data['game_value_accuracy']:.4f} "
                    f"is not above 0.75")
    return None


class Record:
    """One attempted study: its spec, timing, outcome and failure."""

    def __init__(self, spec, phase: str):
        self.spec, self.phase = spec, phase
        self.wall = 0.0
        self.engine = None
        self.path: str | None = None
        self.failure: str | None = None
        self.wrong = False
        self.extra: dict = {}
        self._doc: dict | None = None

    @property
    def doc(self) -> dict | None:
        """The archived result document, read after the timed phase."""
        if self._doc is None and self.path is not None:
            with open(self.path, encoding="utf-8") as fh:
                self._doc = json.load(fh)
        return self._doc

    @doc.setter
    def doc(self, value: dict) -> None:
        self._doc = value

    def fail(self, why: str) -> None:
        """Count the study as failed (an exception, an HTTP error, a
        fallback to serial)."""
        if self.failure is None:
            self.failure = why

    def reject(self, why: str) -> None:
        """Count the study as failed because its output is wrong."""
        self.fail(why)
        self.wrong = True


# -- workloads -------------------------------------------------------------


class Workload:
    """Shared machinery: seeds, specs, the timed loop and the metrics.

    Subclasses implement ``setup()``, ``close()``, ``timed()``,
    ``repeat_warm()`` or ``warm()``, ``gate()`` and ``layers()``.
    ``timed()`` returns the cold phase as timed units ``(records, wall,
    cpu)``: a cycle of studies or one study.
    """

    warm_repeats = 0
    # Whether times are scaled to reference seconds (see hostclock.py).
    host_clock = False

    def __init__(self, args):
        import repro

        self.repro = repro
        self.args = args
        self.paper = args.scale == "paper"
        # Context seeds come from the workload seed alone: the warm-up
        # study uses the block's first seed, timed studies the rest.
        # No block holds PAPER_SEED.
        self.base = 1000 * (abs(int(args.seed)) + 1)
        self.tracer = None
        self.trees: dict[str, dict] = {}
        self.warm_records: list[Record] = []
        self.clock: HostClock | None = None

    def spec(self, kind: str, k: int | None, **kwargs):
        """Study ``kind`` on the k-th context of the workload seed's
        block, or on the paper's setting when ``k`` is None."""
        seed = PAPER_SEED if k is None else self.base + k
        return self.repro.studies.build(
            kind, context=dict(SCALES[self.args.scale], seed=seed),
            **kwargs)

    def span(self, name, study=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, study)

    def run(self) -> dict:
        if self.host_clock:
            self.clock = HostClock()
        if self.args.trace:
            self.start_timed_trace()
        units = self.timed()
        cold = [r for records, _, _ in units for r in records]
        rss = tree_peak_rss_mb()
        warm = self.warm(cold)
        self.close()
        timed_tree = self.end_timed_trace(len(cold) + len(warm)) \
            if self.args.trace else None
        self.gate(cold + warm)
        attempted = cold + warm
        failed = [r for r in attempted if r.failure]
        for r in failed[:10]:
            note(f"FAILED {r.phase} {r.spec.kind} "
                 f"seed={r.spec.context.seed}: {r.failure}")
        cold_wall = sum(wall for _, wall, _ in units)
        measured_s = {
            "study_s": cold_wall / len(cold),
            "warm_study_s": statistics.median(r.wall for r in warm),
            "cpu_s": sum(cpu for _, _, cpu in units) / len(cold),
        }
        # Times in reference seconds: see hostclock.py.
        scale = self.clock.scale() if self.clock is not None else 1.0
        metrics = {name: value * scale
                   for name, value in measured_s.items()}
        metrics["rounds_per_s"] = sum(self.rounds_computed(r)
                                      for r in cold) / (cold_wall * scale)
        metrics["peak_rss_mb"] = rss
        note(f"{self.args.workload}: {len(cold)} cold studies in "
             f"{len(units)} units over {cold_wall:.3f}s, {len(warm)} warm, "
             f"{len(failed)} failed")
        note("cold unit walls, measured seconds: " + ", ".join(
            f"{wall:.3f}" for _, wall, _ in units))
        if self.clock is not None:
            note(f"host clock: {len(self.clock.samples)} samples, scale "
                 f"{scale:.4f}; measured seconds: " + ", ".join(
                     f"{name} {value:.4f}"
                     for name, value in measured_s.items()))
        out = {"attempted": len(attempted), "failed": len(failed),
               "wrong": sum(r.wrong for r in attempted),
               "metrics": metrics, "layers": None}
        if self.args.trace:
            out["layers"] = self.layers(cold, warm, metrics, timed_tree)
        return out

    def start_timed_trace(self) -> None:
        """Workloads whose timed phase runs elsewhere trace it from the
        client side; in-process workloads trace a separate pass."""

    def end_timed_trace(self, n_studies):
        return None

    def timed_units(self, run_unit, between=None):
        """Cold units ``run_unit(i) -> records`` until they have run the
        run's seconds; ``between(records)`` runs untimed after each."""
        units = []
        while not units or \
                sum(wall for _, wall, _ in units) < self.args.seconds:
            self.tick()
            units.append(measured(lambda: run_unit(len(units))))
            if between is not None:
                between(units[-1][0])
        return units

    def warm(self, cold) -> list:
        """The warm pass: every cold study repeated ``warm_repeats``
        times."""
        return [self.repeat_warm(record, len(cold) * i + j)
                for i in range(self.warm_repeats)
                for j, record in enumerate(cold)]

    def tick(self) -> None:
        """Sample the host clock, if used, between timed intervals."""
        if self.clock is not None:
            self.clock.tick()

    def rounds_computed(self, record) -> int:
        if record.doc is None:
            return 0
        return int(record.doc["data"]["rounds_computed"])

    def run_study(self, record: Record, engine, study=None,
                  **kwargs) -> None:
        """Run one study in-process into a fresh archive and time it."""
        from repro.study.runner import archive_path

        record.engine = engine
        archive = fresh_dir("archive")
        start = time.perf_counter()
        try:
            with self.span("study", study):
                self.repro.run_study(record.spec, engine=engine,
                                     archive_dir=archive, **kwargs)
        except Exception as exc:  # a failed study is counted, not fatal
            record.fail(f"{type(exc).__name__}: {exc}")
        else:
            record.path = archive_path(archive, record.spec.fingerprint())
        record.wall = time.perf_counter() - start

    # -- per-layer ---------------------------------------------------------

    def traced_pass(self, label, records, run_one):
        """Run ``run_one(record, study)`` for each record under the
        tracer and return the tree."""
        tracer = tr.Tracer()
        inst = tr.install(tracer)
        self.tracer = tracer
        try:
            with tracer.span(tr.ROOT):
                for i, record in enumerate(records):
                    run_one(record, i)
        finally:
            inst.remove()
            self.tracer = None
        return self.tree(label, tracer, len(records))

    def tree(self, label, tracer, n_studies) -> dict:
        """Self times of a finished trace; they must add up to its wall."""
        wall = tr.root_wall(tracer.spans)
        rows = tr.self_times(tracer.spans)
        note(tr.format_table(
            f"layers {self.args.workload} tree={label} "
            f"studies={n_studies}", rows, wall))
        if abs(sum(rows.values()) - wall) > 1e-6 * max(wall, 1.0):
            raise RuntimeError(f"self times of tree {label} do not add "
                               f"up to its wall time")
        tree = {"spans": tracer.spans, "counts": dict(tracer.counts),
                "n": max(1, n_studies), "wall": wall, "rows": rows}
        self.trees[label] = tree
        return tree

    def layers(self, cold, warm, metrics, timed_tree) -> dict:
        raise NotImplementedError


def mean_wall(records) -> float:
    return statistics.fmean(r.wall for r in records)


def per_study(tree, name) -> float:
    if tree is None:
        return 0.0
    return tree["rows"].get(name, 0.0) / tree["n"]


def stage_layers(tree) -> dict:
    """Round-stage and solver metrics from one traced tree."""
    out = {
        "attacks.poison_s": per_study(tree, "attacks.poison"),
        "ml.fit_s": per_study(tree, "ml.fit"),
        "ml.score_s": per_study(tree, "ml.score"),
        "core.payoff_curves_s": per_study(tree, "core.payoff_curves"),
        "core.algorithm1_s": per_study(tree, "core.algorithm1"),
        "gametheory.lp_s": per_study(tree, "gametheory.lp"),
    }
    mask = 0.0
    for kind in tr.DEFENSE_CLASSES:
        value = per_study(tree, f"defenses.{kind}")
        out[f"defenses.{kind}_s"] = value
        mask += value
    out["defenses.mask_s"] = mask
    counts = tree["counts"]
    fitted = counts.get("ml.rounds_fitted", 0)
    out["ml.fit_batched_share"] = \
        counts.get("ml.rounds_batched", 0) / fitted if fitted else 0.0
    return out


def study_layers(tree) -> dict:
    """Context, study-bookkeeping and engine metrics from one tree."""
    return {
        "context.materialize_s": per_study(tree, "context.materialize"),
        "context.kernel_s": per_study(tree, "context.kernel"),
        "context.fingerprint_s": per_study(tree, "context.fingerprint"),
        "study.self_s": per_study(tree, "study"),
        "study.archive_write_s": per_study(tree, "study.archive_write"),
        "study.checkpoint_s": per_study(tree, "study.checkpoint"),
        "study.checkpoint_writes":
            tree["counts"].get("study.checkpoint_writes", 0) / tree["n"],
        "study.archive_read_s": per_study(tree, "study.archive_read"),
        "engine.self_s": per_study(tree, "engine"),
        "engine.backend_self_s": per_study(tree, "backend.serial"),
    }


def engine_counts(records) -> dict:
    """The engine's own round counters, per study, from the results."""
    docs = [r.doc["data"] for r in records if r.doc is not None]
    n = max(1, len(docs))
    return {
        "engine.rounds_total": sum(d["n_rounds"] for d in docs) / n,
        "engine.rounds_unique": sum(d["n_unique"] for d in docs) / n,
        "engine.rounds_computed":
            sum(d["rounds_computed"] for d in docs) / n,
        "engine.cache_hits": sum(d["cache_hits"] for d in docs) / n,
    }


def cluster_counts(records) -> dict:
    """Scheduler counters of every cluster batch, per study."""
    entries = [b["cluster"] for r in records if r.doc is not None
               for b in r.doc["data"]["engine_stats"]["batches"]
               if b.get("cluster")]
    n = max(1, len(records))

    def total(*keys):
        return sum(int(e.get(k, 0)) for e in entries for k in keys) / n

    return {
        "cluster.shard_cache_hits": total("shard_cache_hits"),
        "cluster.placement_hits": total("placement_hits"),
        "cluster.steals": total("placed_steals"),
        "cluster.retries": total("requeues", "rejoins"),
    }


ZERO_CLUSTER = {"cluster.spawn_s": 0.0, "cluster.spawns": 0.0,
                "cluster.batch_s": 0.0, "cluster.efficiency": 0.0,
                "cluster.shard_cache_hits": 0.0,
                "cluster.placement_hits": 0.0, "cluster.steals": 0.0,
                "cluster.retries": 0.0}
ZERO_SERVICE = {"service.submit_s": 0.0, "service.result_s": 0.0,
                "service.report_s": 0.0, "service.dedupe_submit_s": 0.0,
                "service.queue_wait_s": 0.0, "service.overhead_s": 0.0,
                "service.http_errors": 0.0}


class PaperSerial(Workload):
    """figure1, table1 and empirical-game per context, serial backend."""

    kinds = ("figure1", "table1", "empirical_game")
    warm_repeats = PAPER_WARM_REPEATS
    # The studies run in this process, on the CPU the kernel samples.
    host_clock = True

    def setup(self) -> None:
        record = Record(self.spec("figure1", 0), "warm-up")
        self.run_study(record, self.repro.EvaluationEngine("serial"))
        if record.failure:
            raise RuntimeError(f"warm-up study failed: {record.failure}")

    def close(self) -> None:
        pass

    def timed(self):
        """Cycles of the three kinds per context, the first on the
        paper's setting."""
        def cycle(i):
            k = None if i == 0 else i
            records = [Record(self.spec(kind, k), "cold")
                       for kind in self.kinds]
            for record in records:
                self.run_study(record, self.repro.EvaluationEngine("serial"))
            return records

        def repeat(records):
            """The cycle's warm repeats, right after it, so that cold and
            warm studies meet the same states of the host."""
            for _ in range(self.warm_repeats):
                for record in records:
                    self.tick()
                    self.warm_records.append(self.repeat_warm(
                        record, len(self.warm_records)))

        return self.timed_units(cycle, repeat)

    def warm(self, cold) -> list:
        return self.warm_records

    def repeat_warm(self, cold: Record, i: int) -> Record:
        """Re-run a study on its own warmed engine (every round a cache
        hit) into a fresh archive."""
        record = Record(cold.spec, "warm")
        self.run_study(record, cold.engine)
        return record

    def gate(self, records) -> None:
        for r in records:
            if r.doc is not None:
                why = paper_checks(
                    r.spec.kind, r.doc["data"]["payload"],
                    self.paper and r.spec.context.seed == PAPER_SEED)
                if why:
                    r.reject(why)

    def layers(self, cold, warm, metrics, timed_tree):
        def run_one(record, study):
            self.run_study(record, self.repro.EvaluationEngine("serial"),
                           study)

        traced = [Record(r.spec, "traced") for r in cold]
        tree = self.traced_pass("timed", traced, run_one)
        out = dict(stage_layers(tree), **study_layers(tree),
                   **engine_counts(cold), **ZERO_CLUSTER, **ZERO_SERVICE)
        out["unattributed_s"] = per_study(tree, tr.UNATTRIBUTED)
        out["trace.overhead_s"] = mean_wall(traced) - mean_wall(cold)
        return out


class ClientTraced(Workload):
    """A workload whose studies run in other processes: its timed phase
    is traced from the client side, and its round stages come from a
    traced serial replay of the same specs in this process."""

    def start_timed_trace(self) -> None:
        self.tracer = tr.Tracer()
        self.root = self.tracer.span(tr.ROOT).__enter__()

    def end_timed_trace(self, n_studies):
        self.root.__exit__(None, None, None)
        tracer, self.tracer = self.tracer, None
        return self.tree("timed", tracer, n_studies)

    def replay(self, records, label=None):
        """Replay each spec on the serial backend: untraced in worker
        processes for the correctness gate, or traced (``label``) in
        this process for the stages."""
        replays = [Record(r.spec, "replay") for r in records]
        if label is not None:
            return replays, self.traced_pass(label, replays,
                                             self.replay_one)
        with concurrent.futures.ProcessPoolExecutor(
                REPLAY_WORKERS, initializer=_init_replay_worker,
                initargs=(self.args,),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(_replay_in_worker,
                                   json.dumps(r.spec.to_obj()))
                       for r in replays]
            for record, future in zip(replays, futures):
                record.wall, record.doc, failure = future.result()
                if failure:
                    record.fail(failure)
        return replays, None

    def replay_one(self, record, study=None) -> None:
        self.run_study(record, self.repro.EvaluationEngine("serial"),
                       study)

    def gate(self, records) -> None:
        unique = {r.spec.fingerprint(): r for r in records}
        self.replays, _ = self.replay(list(unique.values()))
        expected = {r.spec.fingerprint(): comparable(r.doc)
                    for r in self.replays if r.doc is not None}
        for r in records:
            want = expected.get(r.spec.fingerprint())
            if want is None:
                r.fail("the in-process replay of this spec failed")
            elif r.doc is not None and comparable(r.doc) != want:
                r.reject("outcomes differ from the in-process serial "
                         "replay")

    def traced_replay(self, cold):
        """The traced replay tree, and the tracing overhead per study:
        traced minus untraced (worker) replay time of the cold specs."""
        replays, tree = self.replay(cold, "replay")
        untraced = {r.spec.fingerprint(): r for r in self.replays}
        return tree, mean_wall(replays) - mean_wall(
            untraced[r.spec.fingerprint()] for r in cold)


class DefenseGridFleet(ClientTraced):
    """A 9-defence x 4-attack grid per context on autospawned shards."""

    def __init__(self, args):
        super().__init__(args)
        from repro.cluster.backend import ClusterDegradedWarning

        self.degraded = ClusterDegradedWarning
        # The shards inherit their cache dir; fresh for every run.
        os.environ["REPRO_SHARD_CACHE_DIR"] = fresh_dir("shard-cache")

    def grid(self, k, defenses=GRID_DEFENSES, attacks=GRID_ATTACKS):
        return self.spec("grid", k, defenses=list(defenses),
                         attacks=list(attacks))

    def rounds_computed(self, record) -> int:
        """Rounds the shards computed: the engine's count minus the
        rounds the shards served from their own caches."""
        if record.doc is None:
            return 0
        return sum(b["computed"] - int(b.get("cluster", {}).get(
            "shard_cache_hits", 0))
            for b in record.doc["data"]["engine_stats"]["batches"])

    def run_fleet(self, record: Record, study=None) -> None:
        """One study on a fresh client engine; a fallback to serial
        fails it, so a serial number never passes as a fleet one."""
        engine = self.repro.EvaluationEngine("cluster", jobs=FLEET_SHARDS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.degraded)
            self.run_study(record, engine, study)
        if any(issubclass(w.category, self.degraded) for w in caught):
            record.fail("ClusterDegradedWarning: the batch fell back to "
                        "the serial backend")

    def gate(self, records) -> None:
        for r in records:
            if r.doc is None:
                continue
            for batch in r.doc["data"]["engine_stats"]["batches"]:
                if batch["computed"] and not batch.get("cluster"):
                    r.fail("a batch ran without the cluster backend")
        super().gate(records)

    def setup(self) -> None:
        record = Record(self.grid(0, ("radius:0.05", None),
                                  ("boundary:0.05", None)), "warm-up")
        self.run_fleet(record)
        if record.failure:
            raise RuntimeError(f"warm-up study failed: {record.failure}")

    def close(self) -> None:
        from repro.cluster.backend import close_local_pools

        close_local_pools()

    def timed(self):
        """Cycles of a cold pass over FLEET_CONTEXTS new contexts and
        FLEET_WARM_PASSES warm repeat passes, until the run's seconds are
        spent."""
        def cold_study(record, study):
            self.run_fleet(record, study)
            return [record]

        units = []
        while not units or \
                sum(wall for _, wall, _ in units) < self.args.seconds:
            batch = [Record(self.grid(len(units) + i + 1), "cold")
                     for i in range(FLEET_CONTEXTS)]
            for record in batch:
                units.append(measured(
                    lambda: cold_study(record, len(units))))
            # Warm repeat: a fresh client engine per study; the shard
            # caches hold every round, but each study respawns its pool.
            for c in batch * FLEET_WARM_PASSES:
                record = Record(c.spec, "warm")
                self.run_fleet(record, study=-1 - len(self.warm_records))
                self.warm_records.append(record)
        return units

    def warm(self, cold) -> list:
        return self.warm_records

    def start_timed_trace(self) -> None:
        super().start_timed_trace()
        self.inst = tr.install(self.tracer)

    def end_timed_trace(self, n_studies):
        self.inst.remove()
        return super().end_timed_trace(n_studies)

    def layers(self, cold, warm, metrics, timed_tree):
        stages, overhead = self.traced_replay(cold)
        cold_rows = tr.self_times(timed_tree["spans"],
                                  studies=set(range(len(cold))))
        batch_s = cold_rows.get("cluster.batch", 0.0)
        replay_round_s = sum(b["seconds"] for r in self.replays
                             if r.doc is not None for b in
                             r.doc["data"]["engine_stats"]["batches"])
        out = dict(stage_layers(stages), **study_layers(timed_tree),
                   **engine_counts(cold), **cluster_counts(cold + warm),
                   **ZERO_SERVICE)
        out.update({
            "cluster.spawn_s": per_study(timed_tree, "cluster.spawn"),
            "cluster.spawns":
                timed_tree["counts"].get("cluster.spawns", 0)
                / timed_tree["n"],
            "cluster.batch_s": per_study(timed_tree, "cluster.batch"),
            "cluster.efficiency":
                replay_round_s / (FLEET_SHARDS * batch_s) if batch_s
                else 0.0,
            "unattributed_s": per_study(timed_tree, tr.UNATTRIBUTED),
            "trace.overhead_s": overhead,
        })
        return out


class ServiceFigure1(ClientTraced):
    """Distinct figure1 studies through a ``repro serve`` daemon."""

    warm_repeats = 1

    def setup(self) -> float:
        t0 = time.monotonic()
        self.start_service()
        record = self.serve_study(self.spec("figure1", 0), "warm-up")
        if record.failure:
            self.close()
            raise RuntimeError(f"warm-up study failed: {record.failure}")
        return t0

    def start_service(self) -> None:
        self.archive = fresh_dir("service-archive")
        self.log = open(self.archive + ".log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--archive-dir",
             self.archive, "--workers", "1"],
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            line = self.proc.stdout.readline() if ready else ""
            if line.startswith("READY "):
                fields = dict(part.split("=", 1)
                              for part in line.split()[1:])
                self.address = (fields["host"], int(fields["port"]))
                return
            if self.proc.poll() is not None:
                break
        self.close()
        raise RuntimeError("repro serve did not print READY")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

    def http(self, record, method, path, body=None) -> bytes:
        conn = http.client.HTTPConnection(*self.address, timeout=60.0)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if not 200 <= response.status < 300:
            record.extra["http_errors"] = \
                record.extra.get("http_errors", 0) + 1
            raise RuntimeError(f"{method} {path} -> HTTP "
                               f"{response.status}: {data[:200]!r}")
        return data

    def serve_study(self, spec, phase, study=None) -> Record:
        """Submit, poll the status until done, fetch result and report."""
        record = Record(spec, phase)
        times = record.extra
        try:
            start = time.perf_counter()
            with self.span("service.submit", study):
                reply = json.loads(self.http(
                    record, "POST", "/studies",
                    json.dumps(spec.to_obj()).encode()))
            times["submit_s"] = time.perf_counter() - start
            fp = reply["fingerprint"]
            state = reply.get("state")
            with self.span("service.wait", study):
                while state != "done":
                    if state in ("failed", "cancelled"):
                        raise RuntimeError(f"study {fp} ended {state}")
                    if time.perf_counter() - start > STUDY_TIMEOUT_S:
                        raise RuntimeError(f"study {fp} timed out")
                    time.sleep(POLL_S)
                    state = json.loads(self.http(
                        record, "GET", f"/studies/{fp}"))["state"]
                    if state != "queued" and "queue_wait_s" not in times:
                        times["queue_wait_s"] = time.perf_counter() - start
            t = time.perf_counter()
            with self.span("service.result", study):
                record.doc = json.loads(self.http(
                    record, "GET", f"/studies/{fp}/result"))
            record.wall = time.perf_counter() - start
            times["result_s"] = time.perf_counter() - t
            t = time.perf_counter()
            with self.span("service.report", study):
                self.http(record, "GET", f"/studies/{fp}/report")
            times["report_s"] = time.perf_counter() - t
        except Exception as exc:  # a failed study is counted, not fatal
            record.fail(f"{type(exc).__name__}: {exc}")
        return record

    def timed(self):
        """Distinct figure1 studies.  A study's wall runs from POST
        /studies until its result is fetched; the report fetch is timed
        on its own."""
        units = self.timed_units(lambda i: [self.serve_study(
            self.spec("figure1", i + 1), "cold", study=i)])
        return [(records, records[0].wall, cpu)
                for records, _, cpu in units]

    def repeat_warm(self, cold: Record, i: int) -> Record:
        """Resubmit the archived study, which must be deduped; then
        submit it again with the context's default split spelled out:
        a new fingerprint whose rounds are all in the daemon's engine
        cache."""
        try:
            start = time.perf_counter()
            with self.span("service.dedupe_submit", -1 - i):
                reply = json.loads(self.http(
                    cold, "POST", "/studies",
                    json.dumps(cold.spec.to_obj()).encode()))
            cold.extra["dedupe_submit_s"] = time.perf_counter() - start
            if not reply.get("deduped"):
                cold.reject("resubmitting an archived study was not "
                            "deduped")
        except Exception as exc:  # a failed request is counted
            cold.fail(f"{type(exc).__name__}: {exc}")
        context = dict(cold.spec.context.to_obj(),
                       params={"test_size": DEFAULT_TEST_SIZE})
        spec = self.repro.studies.figure1(context=context)
        record = self.serve_study(spec, "warm", study=-1 - i)
        if record.doc is not None and \
                record.doc["data"]["rounds_computed"]:
            record.fail("the warm study recomputed rounds the daemon "
                        "had cached")
        return record

    def replay_one(self, record, study=None) -> None:
        """The in-process twin of a service study: the service's
        checkpoint cadence, and the archive read back as the report
        route reads it."""
        self.run_study(record, self.repro.EvaluationEngine("serial"),
                       study, checkpoint_every=1)
        if record.path is not None:
            with self.span("study", study):
                self.repro.study_result_from_json(record.path)

    def layers(self, cold, warm, metrics, timed_tree):
        stages, overhead = self.traced_replay(cold)

        def mean(records, key):
            values = [r.extra[key] for r in records if key in r.extra]
            return statistics.fmean(values) if values else 0.0

        served = [r for r in cold if r.doc is not None]
        out = dict(stage_layers(stages), **study_layers(stages),
                   **engine_counts(cold), **ZERO_CLUSTER)
        out.update({
            "service.submit_s": mean(cold, "submit_s"),
            "service.result_s": mean(cold, "result_s"),
            "service.report_s": mean(cold, "report_s"),
            "service.dedupe_submit_s": mean(cold, "dedupe_submit_s"),
            "service.queue_wait_s": mean(cold, "queue_wait_s"),
            "service.overhead_s": statistics.fmean(
                r.wall - r.doc["data"]["wall_time_seconds"]
                for r in served) if served else 0.0,
            "service.http_errors": sum(
                r.extra.get("http_errors", 0) for r in cold + warm)
            / max(1, len(cold) + len(warm)),
            "unattributed_s": per_study(timed_tree, tr.UNATTRIBUTED),
            "trace.overhead_s": overhead,
        })
        return out


_replay_workload = None


def _init_replay_worker(args) -> None:
    global _replay_workload
    _replay_workload = WORKLOADS[args.workload](args)


def _replay_in_worker(spec_doc: str):
    """One untraced replay in a worker: ``(wall, document, failure)``."""
    record = Record(_replay_workload.repro.study_from_json(spec_doc),
                    "replay")
    _replay_workload.replay_one(record)
    return record.wall, record.doc, record.failure


WORKLOADS = {
    "paper-serial": PaperSerial,
    "defense-grid-fleet": DefenseGridFleet,
    "service-figure1": ServiceFigure1,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    parser.add_argument("--role", choices=("probe", "main"),
                        default="main")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when run.py spawned us")
    parser.add_argument("--stamp", type=json.loads, default={},
                        help="provenance written into the trace file")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401  (a fresh import: startup.import_s)

    import_s = time.perf_counter() - start
    workload = WORKLOADS[args.workload](args)
    t0 = workload.setup() or args.t0
    print(f"READY {time.monotonic() - t0!r} {import_s!r}", flush=True)
    if args.role == "probe":
        workload.close()
        return 0
    result = workload.run()
    if workload.trees:
        out = os.path.join(".bench_out", f"trace-{args.workload}-"
                           f"seed{args.seed}.json")
        os.makedirs(".bench_out", exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"stamp": args.stamp, "trees": workload.trees}, fh)
        note(f"spans written to {out}")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
