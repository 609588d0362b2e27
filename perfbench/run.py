"""Run one sstap benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The workload runs closed loop in
this one process: generate op k's inputs from (seed, k), time the op,
check its outputs, repeat until the timed ops add up to ``--seconds``.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` each op runs untraced, with spans, and with counters, and
the last line holds the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from probe import interpreter_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("stream", "cascade", "dsstap", "sweep")
# At least this many timed ops per run, however long they take.
MIN_OPS = 4
# During an untraced run, one fresh-process import is timed per this much
# op time, so setup_s samples the whole run and not one moment of it.
SETUP_EVERY_S = 1.0
# setup_s is given in seconds on a host where interpreter_seconds() takes
# this long, about what it takes on the 2-CPU host of perfbench/README.md.
NOMINAL_INTERPRETER_S = 0.03
# op_p90_s is printed only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sstap sources, import failure)."""


def import_child() -> tuple[float, float]:
    """Import time of sstap and sstap.cli in a fresh interpreter, and that
    time scaled by the host's speed, measured in the same interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py")], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"importing sstap failed:\n{proc.stderr}")
    elapsed, before, after = json.loads(proc.stdout)
    return elapsed, elapsed * NOMINAL_INTERPRETER_S / (0.5 * (before + after))


def import_sstap() -> None:
    """Import sstap into this process.

    A fresh interpreter imports it first, which proves the sources load
    and fills the bytecode cache, so every later sample reads the same
    cached files.
    """
    if not (SRC / "sstap" / "__init__.py").is_file():
        raise BenchmarkError(f"no sstap sources under {SRC}")
    import_child()
    sys.path.insert(0, str(SRC))
    import sstap  # noqa: F401
    import sstap.cli  # noqa: F401

    if Path(sstap.__file__).resolve().parent != SRC / "sstap":
        raise BenchmarkError(f"imported sstap from {sstap.__file__}, not {SRC}")


class Loop:
    """Closed-loop runner: counts attempts and failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def attempt(self, inp, run=None) -> tuple[float | None, bool]:
        """Run and check one op; returns (its time or None if it raised, passed)."""
        self.attempted += 1
        try:
            elapsed, result = (run or self.timed)(inp)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, False
        problems = self.workload.check(inp, result)
        if problems:
            self.failed += 1
            print(f"op failed its check: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, not problems

    def timed(self, inp) -> tuple[float, object]:
        gc.collect()
        start = time.perf_counter()
        result = self.workload.run(inp)
        return time.perf_counter() - start, result

    def warm_up(self) -> None:
        """Op 0 runs and is checked but not timed, so lazy set-up is done."""
        self.attempt(self.workload.make(self.seed, 0))

    def finish(self) -> None:
        problems = self.workload.finish()
        self.failed += len(problems)
        for problem in problems:
            print(f"op failed its check: {problem}", file=sys.stderr)


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter and numpy work, about 30 ms.

    Timed just before and just after each op, it gauges how fast the host
    runs at that moment; op time divided by it is the op's cost in
    reference units.
    """
    import numpy as np

    interpreter = interpreter_seconds()
    start = time.perf_counter()
    values = np.arange(2_000.0)
    for _ in range(100):
        values = np.sqrt(values * values + 1.0)
    return interpreter + time.perf_counter() - start


def run_untraced(loop: Loop, seconds: float, setup: list[tuple[float, float]]) -> tuple[list[float], list[float], int]:
    """Op times, op costs in reference units, and how many timed ops passed.

    Appends an import_child() sample to ``setup`` before the first op and
    after every SETUP_EVERY_S of op time.
    """
    costs: list[float] = []

    def calibrated(inp):
        before = reference_seconds()
        elapsed, result = loop.timed(inp)
        costs.append(elapsed / (0.5 * (before + reference_seconds())))
        return elapsed, result

    loop.warm_up()
    setup.append(import_child())
    times: list[float] = []
    passed = 0
    sampled_at = 0.0
    k = 0
    while sum(times) < seconds or len(times) < MIN_OPS:
        k += 1
        elapsed, ok = loop.attempt(loop.workload.make(loop.seed, k), calibrated)
        if elapsed is not None:
            times.append(elapsed)
            passed += ok
        elif k > MIN_OPS and not times:
            break
        if sum(times) - sampled_at >= SETUP_EVERY_S:
            setup.append(import_child())
            sampled_at = sum(times)
    return times, costs, passed


def run_traced(loop: Loop, seconds: float, tracer: tracing.Tracer) -> tuple[list[float], list[float], list[dict]]:
    """Each op runs three times on the same inputs: untraced and with spans,
    both timed, then with the counting hooks, whose time is not used."""

    def hooked(install):
        def run(inp):
            install()
            try:
                return loop.timed(inp)
            finally:
                tracer.uninstall()

        return run

    traced_run, counted_run = hooked(tracer.install), hooked(tracer.install_counters)
    loop.warm_up()
    plain: list[float] = []
    traced: list[float] = []
    counted: list[float] = []
    per_op: list[dict] = []
    k = 0
    while sum(plain) + sum(traced) + sum(counted) < seconds or len(per_op) < MIN_OPS:
        k += 1
        tracer.op = k
        # Alternate which of the timed pair runs first, so neither always
        # finds the caches the other left behind.
        traced_ok = False
        for with_trace in (k % 2 == 0, k % 2 == 1):
            elapsed, _ok = loop.attempt(loop.workload.make(loop.seed, k), traced_run if with_trace else None)
            if elapsed is not None:
                (traced if with_trace else plain).append(elapsed)
                traced_ok = traced_ok or with_trace
        inp = loop.workload.make(loop.seed, k)
        elapsed, _ok = loop.attempt(inp, counted_run)
        if elapsed is not None:
            counted.append(elapsed)
            if traced_ok:
                per_op.append(tracing.op_metrics(tracer, k, inp))
        if k > MIN_OPS and not per_op:
            break
    return plain, traced, per_op


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed op time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_sstap()
    except (BenchmarkError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    import workloads

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](work_dir)
    loop = Loop(workload, args.seed)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced, per_op = run_traced(loop, args.seconds, tracer)
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            setup: list[tuple[float, float]] = []
            times, costs, passed = run_untraced(loop, args.seconds, setup)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        if not (per_op and plain):
            print("no traced op completed", file=sys.stderr)
            return 1
        metrics = tracing.summarise(per_op)
        metrics["trace.op_p50_s"] = metric(statistics.median(traced), "s")
        metrics["trace.ops"] = metric(len(traced), "count")
        metrics["trace.overhead_frac"] = metric(statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        samples = {name: f"median of {len(per_op)} traced ops" for name in metrics}
        samples["trace.ops"] = "traced ops that completed"
        samples["trace.overhead_frac"] = f"{len(traced)} traced and {len(plain)} untraced ops"
    else:
        if not times:
            print("no op completed", file=sys.stderr)
            return 1
        metrics = {
            "op_p50_ref": metric(statistics.median(costs), "ref"),
            "setup_s": metric(statistics.median(scaled for _raw, scaled in setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        samples = {
            "op_p50_ref": f"{len(costs)} timed ops",
            "setup_s": f"median of {len(setup)} imports, scaled to the nominal host",
            "peak_rss_mb": "process high-water mark",
        }
    print(f"{args.workload} seed {args.seed} trace {args.trace}:")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']} ({samples[name]})")
    if not args.trace:
        # Printed, not gated: on a shared host these move with the host's
        # speed far more than op_p50_ref does.
        print(f"  op_p50_s = {statistics.median(times):.6g} s ({len(times)} timed ops)")
        print(f"  op_p25_s = {statistics.quantiles(times, n=4)[0]:.6g} s ({len(times)} timed ops)")
        print(f"  ops_per_s = {passed / sum(times):.6g} 1/s ({passed} passed of {len(times)} timed ops)")
        if len(times) >= P90_MIN_SAMPLES:
            print(f"  op_p90_s = {statistics.quantiles(times, n=10)[-1]:.6g} s ({len(times)} timed ops)")
        else:
            print(f"  op_p90_s not reported: {len(times)} timed ops, needs {P90_MIN_SAMPLES}")
        print(f"  import_s = {statistics.median(raw for raw, _scaled in setup):.6g} s (median of {len(setup)} imports, unscaled)")
        reference = [t / c for t, c in zip(times, costs)]
        print(f"  reference = {statistics.median(reference):.6g} s (median of {len(reference)}; 1 ref is this long)")
    print(f"  error_rate = {loop.failed / loop.attempted:.6g} ({loop.failed} failed of {loop.attempted} attempted)")
    print(
        json.dumps(
            {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
