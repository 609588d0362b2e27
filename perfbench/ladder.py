"""Size ladder: each layer's public function timed over growing sizes.

    python3 perfbench/ladder.py [--smallest]

Run from the root of a source checkout. Prints one line per (layer, size)
and, last, a JSON list of ``{layer, size, median_s, reps, ok, error}``
records. A size that raises is recorded with ``ok: false`` and the
exception, not skipped. ``--smallest`` runs only the first size of each
layer. Not part of the gated workloads: it reproduces the scaling rows
of the ROADMAP baseline table with one command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from sstap import analysis, cli, core, dsstap, oracle, policy  # noqa: E402

# A size whose first rep takes longer than this is not repeated.
REPEAT_BELOW_S = 1.0
REPS = 3
# Every size draws its inputs from this seed, the layer and the size.
SEED = 0


def rng_for(layer: str, size: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SEED, size, *layer.encode()]))


def product_instance(rng, size: int):
    f = core.ThresholdFunction.product(core.Interval(0.0, 1.0))
    rates = [i / size for i in range(1, size + 1)]
    return f, rates, [float(x) for x in rng.uniform(0.0, 1.0, size)]


def case_run_stream(rng, size):
    f, rates, values = product_instance(rng, size)
    instance = core.Instance(alpha=0.25, f=f, workers=tuple(core.Worker(id=i, rate=r) for i, r in enumerate(rates, 1)))
    jobs = [(x, 0.0) for x in values]
    return lambda: policy.run_stream(instance, jobs)


def case_bulk_count(rng, size):
    f, rates, values = product_instance(rng, size)
    return lambda: policy.greedy_threshold_count(f, 0.25, rates, values)


def case_graph_build(rng, size):
    f, rates, values = product_instance(rng, size)
    return lambda: oracle.FeasibilityGraph.build(values, rates, f, 0.25)


def case_matching(rng, size):
    f, rates, values = product_instance(rng, size)
    graph = oracle.FeasibilityGraph.build(values, rates, f, 0.25)
    return lambda: oracle.offline_optimum_matching(graph)


def case_hungarian(rng, size):
    weights = rng.uniform(0.0, 1.0, (size, size))
    return lambda: dsstap.hungarian_max(weights)


def case_prob_matrix(rng, samples):
    slots = 30
    omega = core.Interval(0.0, 1.0)
    job_specs = [
        dsstap.DistributionSpec.gaussian_mixture(
            analysis.build_reward_maximizing_mixture(list(rng.uniform(0.1, 0.9, 3)), analysis.Side.UPPER, 0.05, omega)
        )
        for _ in range(slots)
    ]
    lows = rng.uniform(0.05, 0.5, slots)
    rate_specs = [dsstap.DistributionSpec.uniform(float(a), float(a) + 0.4) for a in lows]
    f = core.ThresholdFunction.product(omega)
    return lambda: dsstap.estimate_prob_matrix(job_specs, rate_specs, f, 0.3, mc=(samples, 0))


def case_figure1(rng, _size):
    alphas = [0.1 + k * 0.1 for k in range(50)]
    return lambda: cli.run_figure1(200, alphas, 100, 0)


def case_order_check(rng, rates_count):
    probes = sorted(float(x) for x in rng.uniform(0.0, 1.0, 20))
    rates = [i / rates_count for i in range(1, rates_count + 1)]
    f = core.ThresholdFunction.tabulated({(x, p): x * p for x in probes for p in rates})
    return lambda: core.check_order_preserving(f, probes, rates)


# (layer, size label, sizes, case): sizes are m = n unless the label says otherwise.
LADDER = (
    ("policy.run_stream", "m=n", (100, 1000, 4000), case_run_stream),
    ("policy.greedy_threshold_count", "m=n", (100, 1000, 4000, 10000), case_bulk_count),
    ("oracle.FeasibilityGraph.build", "m=n", (100, 1000, 2000), case_graph_build),
    ("oracle.offline_optimum_matching", "m=n", (100, 1000, 2000), case_matching),
    ("dsstap.hungarian_max", "n", (100, 300), case_hungarian),
    ("dsstap.estimate_prob_matrix", "samples, 30x30 mixtures x uniform", (1000, 10000, 100000), case_prob_matrix),
    ("cli.run_figure1", "defaults: n 200, 50 thresholds, 100 trials", (200,), case_figure1),
    ("core.check_order_preserving", "rates, 20 probes, tabulated", (300,), case_order_check),
)


def measure(call) -> tuple[float, int]:
    times = []
    while len(times) < REPS:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        if times[0] > REPEAT_BELOW_S:
            break
    return statistics.median(times), len(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smallest", action="store_true", help="run only the first size of each layer")
    args = parser.parse_args(argv)

    records = []
    for layer, label, sizes, case in LADDER:
        for size in sizes[:1] if args.smallest else sizes:
            record = {"layer": layer, "size": size, "size_means": label}
            try:
                median_s, reps = measure(case(rng_for(layer, size), size))
                record.update(median_s=median_s, reps=reps, ok=True, error=None)
            except Exception as exc:  # RecursionError included: recorded, not skipped
                record.update(median_s=None, reps=0, ok=False, error=f"{type(exc).__name__}: {exc}")
            records.append(record)
            outcome = f"{record['median_s']:.4f} s" if record["ok"] else f"FAILED {record['error']}"
            print(f"{layer} {label} {size}: {outcome}" + (f" (median of {record['reps']})" if record["ok"] else ""))
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
