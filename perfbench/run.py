"""Paper-scale benchmark of the repro package: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-serial --seed 1 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Each run byte-compiles ``src/`` (the build), sets the workload up three
times in fresh workload processes (``setup_s`` is the median), lets
the last one run the timed phase, and prints one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--smoke`` runs every workload at smoke scale in
both modes and checks that every metric appears and the gate passes.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
RUN_DEADLINE_S = 170.0
# BLAS/OpenMP pools pinned to one thread in every process we start.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("paper-serial", "defense-grid-fleet", "service-figure1")


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({k: "1" for k in PINNED})
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
               PYTHONHASHSEED="0")
    return env


class WorkloadProcess:
    """One workload process, read line by line against a deadline."""

    def __init__(self, args, role, env, stamp, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale, "--role", role,
             "--t0", repr(time.monotonic()), "--stamp", json.dumps(stamp)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def lines(self):
        while True:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("the run passed its deadline")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        min(left, 1.0))
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                return
            line = line.rstrip("\n")
            if line.startswith("#"):
                print(line, flush=True)
            else:
                yield line

    def expect(self, prefix: str) -> str:
        for line in self.lines():
            if line.startswith(prefix):
                return line[len(prefix):]
        raise RuntimeError(f"workload process exited before printing "
                           f"{prefix!r}")

    def finish(self) -> None:
        for _ in self.lines():
            pass
        code = self.proc.wait(timeout=max(1.0, self.deadline -
                                          time.monotonic()))
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"workload process exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdout.close()


def run(args) -> dict:
    """One benchmark run; returns the final result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    stamp = {"commit": commit(), "nproc": os.cpu_count(),
             "python": sys.version.split()[0],
             "numpy": importlib.metadata.version("numpy"),
             "scale": args.scale, "workload": args.workload,
             "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace}
    print("# stamp " + json.dumps(stamp, sort_keys=True), flush=True)
    env = child_env(tmp)
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups, imports, process = [], [], None
    try:
        for i in range(SETUPS):
            role = "main" if i == SETUPS - 1 else "probe"
            process = WorkloadProcess(args, role, env, stamp, deadline)
            setup_s, import_s = map(float,
                                    process.expect("READY ").split())
            setups.append(setup_s)
            imports.append(import_s)
            if role == "probe":
                process.finish()
        result = json.loads(process.expect("RESULT "))
        process.finish()
    except BaseException:
        if process is not None:
            process.kill()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    note = f"setup_s over {SETUPS} setups: " + \
        ", ".join(f"{s:.3f}" for s in setups)
    print("# " + note, flush=True)
    if args.trace:
        values = dict(result["layers"],
                      **{"startup.import_s": statistics.median(imports)})
        wanted = spec["per_layer"]
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
    # correct: every output the program produced passed the gate.
    # Studies that raised or fell back count in failed, not here.
    metrics, correct = {}, result["wrong"] == 0
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            correct = False
            print(f"# missing metric {metric['name']}", flush=True)
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": correct and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def smoke() -> int:
    """Every workload at smoke scale, both modes: every named metric
    present with its unit, and the correctness gate passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1,
                                      seconds=1, trace=trace,
                                      scale="smoke")
            out = run(args)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = out["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: "
                                    f"{metric['name']} missing")
            if not out["correct"] or out["failed"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{out['failed']} of {out['attempted']} "
                                f"studies failed")
            print(f"# smoke {workload} trace={trace}: "
                  f"{json.dumps(out)}", flush=True)
    for problem in problems:
        print("# SMOKE FAILED " + problem, flush=True)
    print(json.dumps({"smoke": "failed" if problems else "passed"}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paper-scale benchmark of the repro package.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("paper", "smoke"),
                        default="paper")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload at smoke scale")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The build: byte-compile the package once so that every setup
    # measures a warm import, as a user's second run would.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
