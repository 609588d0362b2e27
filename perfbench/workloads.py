"""The four seeded workloads: input generation, the op, and its output check.

Every op drives sstap from outside, through ``sstap.cli.main`` with a
generated JSON config (plus the public oracle functions on ``stream``).
Inputs for op k come only from (seed, k) and are written before the op
is timed; checks run after it, against references written here and not
taken from the code under test.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import sstap.cli
import sstap.oracle
from sstap.core import Interval, ThresholdFunction


@dataclass
class OpInput:
    """One op's generated inputs and where its outputs go."""

    config_path: Path
    out_dir: Path
    config: dict[str, Any]
    jobs: int
    extra: dict[str, Any] = field(default_factory=dict)


def op_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def cli_args(inp: OpInput) -> list[str]:
    return ["--config", str(inp.config_path), "--out", str(inp.out_dir)]


def read_report(inp: OpInput) -> dict[str, Any]:
    return json.loads((inp.out_dir / "report.json").read_text())


def successor_greedy_count(values, rates, threshold_rate: Callable, feasible: Callable) -> int:
    """Greedy reward with single-use workers: each job in arrival order
    takes the smallest free rate that clears the threshold."""
    free = sorted(rates)
    count = 0
    for x in values:
        start = threshold_rate(x)
        if start is None:
            continue
        i = bisect_left(free, start)
        while i > 0 and feasible(x, free[i - 1]):
            i -= 1
        while i < len(free) and not feasible(x, free[i]):
            i += 1
        if i < len(free):
            free.pop(i)
            count += 1
    return count


def cycling_greedy(levels, jobs, alpha: float) -> tuple[list[int | None], list[int]]:
    """Greedy over cycling workers and a product function, levels in order.

    ``levels`` holds one list of (rate, id, cycle_rate) per level. Each job
    (x, t) is offered to the levels in order. A level first takes back
    every worker whose return time is at most t, then gives the job to its
    free worker of smallest (rate, id) with x * rate >= alpha; that worker
    returns at t + 1 / cycle_rate. Returns each job's level position (None
    when every level rejects it) and each level's reward.
    """
    free = [sorted(level) for level in levels]
    busy: list[list[tuple[float, tuple[float, int, float]]]] = [[] for _ in levels]
    rewards = [0] * len(levels)
    outcomes: list[int | None] = []
    for x, t in jobs:
        outcome = None
        for position, (pool, returning) in enumerate(zip(free, busy)):
            while returning and returning[0][0] <= t:
                insort(pool, heapq.heappop(returning)[1])
            i = bisect_left(pool, True, key=lambda worker: x * worker[0] >= alpha)
            if i < len(pool):
                worker = pool.pop(i)
                heapq.heappush(returning, (t + 1.0 / worker[2], worker))
                rewards[position] += 1
                outcome = position
                break
        outcomes.append(outcome)
    return outcomes, rewards


def nested_matching_sizes(feasible_counts: np.ndarray) -> np.ndarray:
    """Maximum matching size per row, where row r holds each job's number
    of feasible workers and every job's feasible workers are the top
    rates. Neighbourhoods are then nested, so by Hall's theorem the
    deficiency is the largest j - c_(j) over the ascending counts."""
    ordered = np.sort(feasible_counts, axis=-1)
    n = ordered.shape[-1]
    deficiency = np.max(np.arange(1, n + 1) - ordered, axis=-1)
    return n - np.maximum(deficiency, 0)


class Workload:
    name = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def make(self, seed: int, k: int) -> OpInput:
        config, jobs, extra = self.generate(op_rng(seed, k), k)
        path = self.work_dir / "config.json"
        path.write_text(json.dumps(config))
        out_dir = self.work_dir / "out"
        for stale in out_dir.glob("*"):
            stale.unlink()
        return OpInput(path, out_dir, config, jobs, extra)

    def generate(self, rng: np.random.Generator, k: int) -> tuple[dict[str, Any], int, dict[str, Any]]:
        raise NotImplementedError

    def run(self, inp: OpInput) -> Any:
        return sstap.cli.main(cli_args(inp))

    def check(self, inp: OpInput, result: Any) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks deferred until after the timed loop; one entry per failed op."""
        return []


class Stream(Workload):
    """CLI simulate on a single-use linear pool, then the matching oracle."""

    name = "stream"
    size = 500

    def generate(self, rng, k):
        if k % 2 == 0:
            alpha, function = 0.25, {"kind": "product", "domain": [0.0, 1.0]}
            values = rng.uniform(0.0, 1.0, self.size)
        else:
            alpha, function = 1.0, {"kind": "ratio", "domain": [0.01, 1.0]}
            values = rng.uniform(0.01, 1.0, self.size)
        values = [float(v) for v in values]
        config = {
            "mode": "simulate",
            "alpha": alpha,
            "function": function,
            "workers": {"count": self.size},
            "jobs": {"values": values},
            "seed": int(rng.integers(2**31)),
        }
        domain = Interval(*function["domain"])
        f = ThresholdFunction.product(domain) if function["kind"] == "product" else ThresholdFunction.ratio(domain)
        rates = [i / self.size for i in range(1, self.size + 1)]
        return config, self.size, {"f": f, "rates": rates}

    def run(self, inp):
        code = sstap.cli.main(cli_args(inp))
        cfg = inp.config
        graph = sstap.oracle.FeasibilityGraph.build(cfg["jobs"]["values"], inp.extra["rates"], inp.extra["f"], cfg["alpha"])
        return code, sstap.oracle.offline_optimum_matching(graph)

    def check(self, inp, result):
        code, optimum = result
        if code != 0:
            return [f"exit code {code}"]
        cfg = inp.config
        alpha = cfg["alpha"]
        values = cfg["jobs"]["values"]
        if cfg["function"]["kind"] == "product":
            feasible = lambda x, p: x * p >= alpha  # noqa: E731
            threshold = lambda x: alpha / x if x > 0 else None  # noqa: E731
        else:
            feasible = lambda x, p: p / x >= alpha  # noqa: E731
            threshold = lambda x: alpha * x  # noqa: E731
        own = successor_greedy_count(values, inp.extra["rates"], threshold, feasible)
        reward = read_report(inp)["reward"]
        problems = []
        if not reward == optimum == own:
            problems.append(f"reward {reward}, oracle optimum {optimum}, reference greedy {own}")
        with (inp.out_dir / "records.csv").open() as handle:
            assigned = [row for row in csv.DictReader(handle) if row["outcome"] == "assigned"]
        if any(not float(row["f_value"]) >= alpha for row in assigned):
            problems.append("an assigned record has f_value below alpha")
        if len({row["worker_id"] for row in assigned}) != len(assigned):
            problems.append("a single-use worker was assigned twice")
        if len(assigned) != reward:
            problems.append(f"{len(assigned)} assigned rows for reward {reward}")
        return problems


class Cascade(Workload):
    """CLI multilevel with compare_flat over cycling workers."""

    name = "cascade"
    workers = 300
    jobs = 1500
    level_sizes = (210, 60, 30)  # weakest first, 70/20/10
    alpha = 0.3

    def generate(self, rng, k):
        rates = rng.uniform(0.01, 1.0, self.workers)
        cycles = rng.choice([2.0, 4.0, 8.0], self.workers)
        pool = sorted(
            ({"id": i + 1, "rate": float(r), "cycle_rate": float(c)} for i, (r, c) in enumerate(zip(rates, cycles))),
            key=lambda w: (w["rate"], w["id"]),
        )
        levels, start = [], 0
        for size in self.level_sizes:
            levels.append({"workers": pool[start : start + size], "alpha": self.alpha, "function": {"kind": "product"}})
            start += size
        values = rng.uniform(0.0, 1.0, self.jobs)
        arrivals = np.cumsum(rng.exponential(1.0 / (0.8 * self.workers), self.jobs))
        config = {
            "mode": "multilevel",
            "compare_flat": True,
            "levels": levels,
            "jobs": {"values": [[float(x), float(t)] for x, t in zip(values, arrivals)]},
            "seed": int(rng.integers(2**31)),
        }
        return config, self.jobs, {}

    def check(self, inp, code):
        if code != 0:
            return [f"exit code {code}"]
        report = read_report(inp)
        cfg = inp.config
        jobs = [(x, t) for x, t in cfg["jobs"]["values"]]
        levels = [[(w["rate"], w["id"], w["cycle_rate"]) for w in level["workers"]] for level in cfg["levels"]]
        outcomes, rewards = cycling_greedy(levels, jobs, self.alpha)
        _, (flat,) = cycling_greedy([[w for level in levels for w in level]], jobs, self.alpha)
        # The report numbers levels from 1.
        expected = [None if position is None else position + 1 for position in outcomes]
        got = [outcome["level"] for outcome in report["job_outcomes"]]
        problems = []
        if got != expected:
            if len(got) != len(expected):
                problems.append(f"{len(got)} outcomes for {len(expected)} jobs")
            else:
                job = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
                problems.append(f"job {job + 1} went to level {got[job]}, reference greedy gives {expected[job]}")
        if report["rewards"] != rewards or report["total"] != sum(rewards):
            problems.append(f"rewards {report['rewards']} total {report['total']}, reference greedy gives {rewards}")
        if report["flat"] != flat:
            problems.append(f"flat {report['flat']}, reference greedy gives {flat}")
        # compare_flat documents gap >= 0 for an order-preserving f.
        if not report["gap"] == report["flat"] - report["total"] >= 0:
            problems.append(f"gap {report['gap']} for flat {report['flat']} and total {report['total']}")
        return problems


def _mixture(rng) -> dict[str, Any]:
    k = int(rng.integers(2, 4))
    weights = rng.dirichlet(np.ones(k))
    return {
        "kind": "gaussian-mixture",
        "omega": [0.0, 1.0],
        "centers": [float(c) for c in rng.uniform(0.05, 0.95, k)],
        "weights": [float(w) for w in weights / weights.sum()],
        "sigma": float(rng.uniform(0.03, 0.1)),
    }


def _uniform(rng, lo: float, hi: float) -> dict[str, Any]:
    a = float(rng.uniform(lo, 0.5))
    return {"kind": "uniform", "a": a, "b": min(hi, a + float(rng.uniform(0.1, 0.5)))}


class Dsstap(Workload):
    """CLI dsstap case II: pass-probability matrix and Hungarian matching."""

    name = "dsstap"
    slots = 30
    samples = 20000
    alpha = 0.3

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self._deferred: list[tuple[np.ndarray, float]] = []

    def generate(self, rng, k):
        job_specs = []
        for i in range(self.slots):
            if i % 3 == 0:
                job_specs.append(_mixture(rng))
            elif i % 3 == 1:
                job_specs.append(_uniform(rng, 0.0, 1.0))
            else:
                job_specs.append({"kind": "empirical", "samples": [float(x) for x in rng.uniform(0.0, 1.0, 20)]})
        rate_specs = [
            _uniform(rng, 0.05, 1.0) if j % 2 == 0 else {"kind": "point-mass", "c": float(rng.uniform(0.05, 1.0))}
            for j in range(self.slots)
        ]
        config = {
            "mode": "dsstap",
            "case": "II",
            "alpha": self.alpha,
            "function": {"kind": "product"},
            "job_specs": job_specs,
            "rate_specs": rate_specs,
            "samples": self.samples,
            "seed": int(rng.integers(2**31)),
        }
        return config, self.slots, {"samples": self.samples}

    def check(self, inp, code):
        if code != 0:
            return [f"exit code {code}"]
        report = read_report(inp)
        entries = np.asarray(report["entries"], dtype=float)
        assignment = report["assignment"]
        problems = []
        if sorted(assignment) != list(range(self.slots)):
            return [f"assignment {assignment} is not a permutation"]
        assigned_sum = math.fsum(entries[i, j] for i, j in enumerate(assignment))
        if not math.isclose(report["total"], assigned_sum, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"total {report['total']} is not the assigned sum {assigned_sum}")
        for i, job in enumerate(inp.config["job_specs"]):
            for j, rate in enumerate(inp.config["rate_specs"]):
                if job["kind"] == "empirical" and rate["kind"] == "point-mass":
                    own = sum(1 for x in job["samples"] if x * rate["c"] >= self.alpha) / len(job["samples"])
                    if entries[i, j] != own:
                        problems.append(f"cell ({i}, {j}) is {entries[i, j]}, atom count gives {own}")
        self._deferred.append((entries, report["total"]))
        return problems

    def finish(self):
        # scipy is imported only here, after the timed loop and the memory
        # reading, so it neither slows an op nor raises peak_rss_mb.
        from scipy.optimize import linear_sum_assignment

        problems = []
        for entries, total in self._deferred:
            rows, cols = linear_sum_assignment(entries, maximize=True)
            best = math.fsum(entries[rows, cols])
            if not math.isclose(total, best, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"Hungarian total {total} below the optimum {best}")
        self._deferred.clear()
        return problems


class Sweep(Workload):
    """CLI figure1: the bulk greedy counter over many small calls."""

    name = "sweep"
    n = 200
    trials = 25
    domain = (1e-6, 1.0)

    def generate(self, rng, k):
        config = {"mode": "figure1", "figure1": {"n": self.n, "trials": self.trials}, "seed": int(rng.integers(2**31))}
        return config, self.n, {}

    def check(self, inp, code):
        if code != 0:
            return [f"exit code {code}"]
        rows = read_report(inp)["rows"]
        rates = np.arange(1, self.n + 1) / self.n
        alphas = np.array([row["alpha"] for row in rows])
        counts = np.zeros((len(rows), self.trials))
        for trial in range(self.trials):
            # figure1 documents its draws as a stream derived from (seed, trial).
            draws = np.random.default_rng(np.random.SeedSequence([inp.config["seed"], trial]))
            ratios = rates[None, :] / draws.uniform(*self.domain, self.n)[:, None]
            feasible = np.stack([(ratios >= alpha).sum(axis=1) for alpha in alphas])
            counts[:, trial] = nested_matching_sizes(feasible)
        return [
            f"alpha {row['alpha']}: mean_passed {row['mean_passed']}, reference {counts[k].mean()}"
            for k, row in enumerate(rows)
            if row["mean_passed"] != counts[k].mean()
        ]


WORKLOADS = {cls.name: cls for cls in (Stream, Cascade, Dsstap, Sweep)}
