"""Benchmark of the README commands, run in-process through
``schurstates.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan_z2 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (``setup_s``, ``op_p50_s``,
``peak_rss_mb``); with ``--trace 1`` it holds the per-layer metrics of
a traced run instead.  The lines before it name every metric with its
unit, the machine, and any failed check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Cold interpreter starts per run; setup_s is their median.
COLD_STARTS = 11

#: Reference-kernel timings before each cold start, and before and after
#: each operation of a traced run.
KERNELS_AROUND = 10

#: Timed operations per run at least, so that a workload whose operation
#: outlasts --seconds (scan_z2) still reports a median of several samples.
MIN_OPS = 2

#: One process, one BLAS thread: the figures must not depend on how many
#: cores the BLAS library decides to use.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cold_start_s() -> tuple:
    """Median time from launching a fresh interpreter until
    ``import schurstates.cli`` has returned, scaled to the reference
    speed by reference-kernel timings taken right before each start;
    and the unscaled median.  (CLOCK_MONOTONIC is shared by all
    processes, so the child's reading is comparable to ours.)"""
    import speed

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, schurstates.cli; print(repr(time.monotonic()))"
    probe = speed.SpeedProbe()
    wall, scaled = [], []
    for k in range(COLD_STARTS + 1):
        for _ in range(KERNELS_AROUND):
            probe.measure()
        start = time.perf_counter()
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if k:  # the first start only warms the file cache and writes bytecode
            wall.append(float(done.stdout) - t0)
            scaled.append(wall[-1] * probe.factor(start, time.perf_counter()))
    return statistics.median(scaled), statistics.median(wall)


def timed_op(workload, report, probe) -> tuple:
    """Run one operation and report the problems its check finds, or the
    traceback if the operation or its check raised.  Return its start,
    its end (perf_counter readings) and its seconds less the time the
    speed probe took in it."""
    gc.collect()
    spent = probe.spent
    problems = None
    t0 = time.perf_counter()
    try:
        codes = workload.operation()
    except Exception:  # an operation that raises counts as failed
        problems = ["operation raised:\n" + traceback.format_exc()]
    t1 = time.perf_counter()
    if problems is None:
        try:
            problems = workload.check(codes)
        except Exception:  # so does one whose outputs cannot be read
            problems = ["check raised:\n" + traceback.format_exc()]
    report(problems)
    return t0, t1, t1 - t0 - (probe.spent - spent)


def run_ops(workload, seconds: float, report, probe) -> list:
    """Repeat the workload's operation until ``seconds`` have passed and
    ``MIN_OPS`` operations are done; return ``timed_op``'s tuples."""
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_OPS or time.perf_counter() - start < seconds:
        samples.append(timed_op(workload, report, probe))
    return samples


def run_traced(workload, seconds: float, report, tracer, probe) -> tuple:
    """Alternate untraced and traced operations until ``seconds`` have
    passed and one pair is done.  Return both lists of operation times,
    each scaled by reference-kernel timings taken right before and after
    it, so that a change of machine speed between the two does not pass
    for tracing overhead.  The probe's timer stays off: its kernel would
    land in the self time of whichever wrapped call it interrupted."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for samples, tracing in ((untraced, False), (traced, True)):
            for _ in range(KERNELS_AROUND):
                probe.measure()
            if tracing:
                tracer.install()
            try:
                t0, t1, op_s = timed_op(workload, report, probe)
            finally:
                if tracing:
                    tracer.uninstall()
                    tracer.record_spans = False  # spans of the first traced operation only
            for _ in range(KERNELS_AROUND):
                probe.measure()
            samples.append(op_s * probe.factor(t0, t1))
    return untraced, traced


class Outcome:
    """Operations attempted and failed, and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def __call__(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            if self.failed <= 3:
                print("\n".join(problems), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "schurstates" / "cli.py").is_file() or not (ROOT / "models").is_dir():
        print(f"no schurstates sources under {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import speed
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))

    setup = None if args.trace else cold_start_s()

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, out, args.seed)
    outcome = Outcome()
    probe = speed.SpeedProbe()
    if workload.warm_up:
        timed_op(workload, outcome, probe)
    if args.trace:
        tracer = Tracer()
        untraced, traced = run_traced(workload, args.seconds, outcome, tracer, probe)
        metrics = tracer.per_op(len(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        (out / f"spans-seed{args.seed}.jsonl").write_text(tracer.spans_jsonl())
        print(f"traced operations: {len(traced)}, untraced: {len(untraced)}")
        samples = {"op_untraced_scaled_samples_s": untraced, "op_traced_scaled_samples_s": traced}
    else:
        with probe:
            timed = run_ops(workload, args.seconds, outcome, probe)
        wall = [s for _, _, s in timed]
        scaled = [s * probe.factor(t0, t1) for t0, t1, s in timed]
        setup_s, setup_wall = setup
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"timed operations: {len(wall)}; unscaled medians: set-up {setup_wall:.6g} s, "
              f"operation {statistics.median(wall):.6g} s; {len(probe.samples)} speed probes")
        samples = {"setup_wall_s": setup_wall, "op_wall_samples_s": wall,
                   "op_scaled_samples_s": scaled}

    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {outcome.attempted}, failed = {outcome.failed}, "
          f"checks {'passed' if outcome.correct else 'FAILED'}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, probe_samples=probe.samples, **samples)
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
