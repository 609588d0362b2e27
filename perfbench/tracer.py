"""Spans and counters recorded at sstap's module boundaries.

The tracer rebinds the module attributes that callers look up at call
time (``sstap.cli.run``, ``sstap.multilevel.assign_next``, ...) to thin
wrappers, so no code under ``src/`` changes. A span is
``(name, start, end, parent, op)``; spans stay in memory and are written
out once, when the run ends. A span's self time is its duration minus
the durations of its direct children. Counting hooks on hot inner calls
(``sstap.policy.eval_f`` and the like) are installed on their own, for a
separate untimed pass over the same op.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (layer span name, module, attribute) for every wrapped callable. A name
# missing from the module (for example a private helper that a later
# change removes) is skipped and its metrics drop out.
SPAN_POINTS = (
    ("cli.main", "sstap.cli", "main"),
    ("cli.run", "sstap.cli", "run"),
    ("policy.run_stream", "sstap.cli", "run_stream"),
    ("policy.run_stream", "sstap.multilevel", "run_stream"),
    ("policy.verify_order_preserving", "sstap.policy", "verify_order_preserving"),
    ("policy.verify_order_preserving", "sstap.cli", "verify_order_preserving"),
    ("policy.assign_next", "sstap.multilevel", "assign_next"),
    ("policy.bulk_count", "sstap.cli", "greedy_threshold_count"),
    ("multilevel.compare_flat", "sstap.multilevel", "compare_flat"),
    ("multilevel.run_multilevel", "sstap.multilevel", "run_multilevel"),
    ("oracle.matching", "sstap.oracle", "offline_optimum_matching"),
    ("dsstap.prob_matrix", "sstap.dsstap", "estimate_prob_matrix"),
    ("dsstap.hungarian", "sstap.dsstap", "hungarian_max"),
    ("analysis.normalizer", "sstap.analysis", "_mixture_mass"),
)


class Tracer:
    """In-memory span log plus named counters, grouped by op id."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _end, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op][name] += amount

    def span_wrapper(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------
    def _rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every boundary in SPAN_POINTS and FeasibilityGraph.build."""
        import importlib

        import sstap.oracle

        for name, module_name, attr in SPAN_POINTS:
            module = importlib.import_module(module_name)
            if attr in module.__dict__:
                self._rebind(module, attr, self.span_wrapper(name, module.__dict__[attr], _AFTER.get(name)))

        graph_cls = sstap.oracle.FeasibilityGraph
        self._rebind(graph_cls, "build", staticmethod(self.span_wrapper("oracle.build", graph_cls.build, _after_build)))

    def install_counters(self) -> None:
        """Counting hooks on hot inner calls, for a pass that is not timed.

        They sit on calls made up to 10^5 times per op, so they stay out
        of the pass that times spans and do not inflate its layer times.
        """
        import sstap.dsstap
        import sstap.policy

        # Offers made inside run_stream go through the policy module's own
        # name, not the one multilevel imports.
        inner_assign = sstap.policy.assign_next

        def counted_assign(*args, **kwargs):
            record = inner_assign(*args, **kwargs)
            _after_assign(self, args, record)
            return record

        self._rebind(sstap.policy, "assign_next", counted_assign)

        inner_eval = sstap.policy.eval_f

        def counted_eval(f, x, p):
            self.counts[self.op]["core.eval_f_calls"] += 1
            return inner_eval(f, x, p)

        self._rebind(sstap.policy, "eval_f", counted_eval)

        if "_exact_prob" in sstap.dsstap.__dict__:
            inner_exact = sstap.dsstap._exact_prob

            def counted_exact(*args, **kwargs):
                value = inner_exact(*args, **kwargs)
                self.count("dsstap.cells_exact" if value is not None else "dsstap.cells_mc")
                return value

            self._rebind(sstap.dsstap, "_exact_prob", counted_exact)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def op_summary(self, op: int) -> dict[str, dict[str, float]]:
        """Per span name of the latest op: total duration, self time, span count."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        # Ops run one after another, so an op's spans are contiguous.
        first = len(self.spans)
        while first > 0 and self.spans[first - 1][4] == op:
            first -= 1
        indices = range(first, len(self.spans))
        for i in indices:
            name, start, end, parent, _op = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        for i in indices:
            name, start, end, _parent, _op = self.spans[i]
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        return {"total": total, "self": self_time, "calls": calls}

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


def _after_build(tracer: Tracer, _args, graph) -> None:
    tracer.count("oracle.edges", len(graph.edges))


def _after_matching(tracer: Tracer, _args, size) -> None:
    tracer.count("oracle.matching_size", size)


def _after_bulk(tracer: Tracer, args, count) -> None:
    tracer.count("policy.offers", len(args[3]))
    tracer.count("policy.assigned", count)


def _after_assign(tracer: Tracer, _args, record) -> None:
    tracer.count("policy.offers")
    tracer.count("policy.assigned", record.assigned)


def _after_hungarian(tracer: Tracer, _args, result) -> None:
    tracer.count("dsstap.hungarian_n", len(result.assignment))


_AFTER = {
    "oracle.matching": _after_matching,
    "policy.bulk_count": _after_bulk,
    "policy.assign_next": _after_assign,
    "dsstap.hungarian": _after_hungarian,
}


# Per-layer metrics in the order BENCHMARK.json lists them. Each is the
# median over traced ops of a per-op value; a layer a workload never
# reaches reads 0 on that workload.
PER_LAYER = (
    ("cli.run_s", "s"),
    ("cli.self_s", "s"),
    ("cli.io_s", "s"),
    ("cli.report_bytes", "count"),
    ("policy.run_stream_s", "s"),
    ("policy.verify_order_preserving_s", "s"),
    ("core.eval_f_calls_per_job", "count"),
    ("policy.assign_ratio", "ratio"),
    ("policy.assign_next_s", "s"),
    ("policy.assign_next_calls", "count"),
    ("policy.bulk_count_s", "s"),
    ("policy.bulk_count_calls", "count"),
    ("multilevel.compare_flat_s", "s"),
    ("multilevel.self_s", "s"),
    ("multilevel.offers_per_job", "count"),
    ("oracle.build_s", "s"),
    ("oracle.matching_s", "s"),
    ("oracle.edges", "count"),
    ("oracle.matching_size", "count"),
    ("dsstap.prob_matrix_s", "s"),
    ("dsstap.cells_mc", "count"),
    ("dsstap.cells_exact", "count"),
    ("dsstap.samples_drawn", "count"),
    ("dsstap.hungarian_s", "s"),
    ("dsstap.hungarian_n", "count"),
    ("analysis.normalizer_s", "s"),
)


def op_metrics(tracer: Tracer, op: int, inp) -> dict[str, float]:
    """Per-layer values of one traced op (see PER_LAYER)."""
    summary = tracer.op_summary(op)
    total, self_time, calls = summary["total"], summary["self"], summary["calls"]
    counts = tracer.counts[op]
    offers = counts["policy.offers"]
    cells_mc = counts["dsstap.cells_mc"]
    return {
        "cli.run_s": total["cli.run"],
        # cli.run minus every traced call beneath it (policy, multilevel,
        # dsstap, and the analysis normaliser).
        "cli.self_s": self_time["cli.run"],
        # cli.main minus cli.run: argument parsing, reading the config,
        # writing report.json and the CSVs.
        "cli.io_s": self_time["cli.main"],
        "cli.report_bytes": sum(path.stat().st_size for path in inp.out_dir.iterdir()),
        "policy.run_stream_s": total["policy.run_stream"],
        "policy.verify_order_preserving_s": total["policy.verify_order_preserving"],
        "core.eval_f_calls_per_job": counts["core.eval_f_calls"] / offers if offers else 0.0,
        "policy.assign_ratio": counts["policy.assigned"] / offers if offers else 0.0,
        "policy.assign_next_s": total["policy.assign_next"],
        "policy.assign_next_calls": calls["policy.assign_next"],
        "policy.bulk_count_s": total["policy.bulk_count"],
        "policy.bulk_count_calls": calls["policy.bulk_count"],
        "multilevel.compare_flat_s": total["multilevel.compare_flat"],
        "multilevel.self_s": self_time["multilevel.compare_flat"] + self_time["multilevel.run_multilevel"],
        "multilevel.offers_per_job": calls["policy.assign_next"] / inp.jobs,
        "oracle.build_s": total["oracle.build"],
        "oracle.matching_s": total["oracle.matching"],
        "oracle.edges": counts["oracle.edges"],
        "oracle.matching_size": counts["oracle.matching_size"],
        "dsstap.prob_matrix_s": total["dsstap.prob_matrix"],
        "dsstap.cells_mc": cells_mc,
        "dsstap.cells_exact": counts["dsstap.cells_exact"],
        # Computed, not counted: each Monte Carlo cell draws both marginals.
        "dsstap.samples_drawn": 2 * inp.extra.get("samples", 0) * cells_mc,
        "dsstap.hungarian_s": total["dsstap.hungarian"],
        "dsstap.hungarian_n": counts["dsstap.hungarian_n"],
        "analysis.normalizer_s": total["analysis.normalizer"],
    }


def summarise(per_op: list[dict[str, float]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(op[name] for op in per_op), "unit": unit} for name, unit in PER_LAYER
    }
