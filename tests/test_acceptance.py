"""Acceptance suite: every shipping criterion, one printed line per check.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints ``acceptance NN [pass|FAIL] label: detail (elapsed)`` through the
terminal reporter so the verdicts survive pytest's capture. Statistical
checks run on fixed seeds; the threshold-sweep bands were frozen from the
committed baseline in ``tests/data/threshold_sweep_baseline.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sstap import (
    FeasibilityGraph,
    Instance,
    Interval,
    LoadBoundsVerdict,
    Side,
    ThresholdFunction,
    Worker,
    build_reward_maximizing_mixture,
    cli,
    compare_flat,
    expected_reward_case1,
    greedy_threshold_count,
    hungarian_max,
    job_load,
    offline_optimum_exhaustive,
    offline_optimum_matching,
    run_stream,
    simulate_case1_realized,
    verify_load_bounds,
)
from sstap.dsstap import DistributionSpec
from tests.conftest import (
    NON_ORDER_PRESERVING_TABLE,
    PRODUCT_ALPHA,
    PRODUCT_JOBS,
    PRODUCT_RATES,
    TABULATED_ALPHA,
    TABULATED_JOBS,
    TABULATED_RATES,
    make_workers,
)

BASELINE_PATH = Path(__file__).parent / "data" / "threshold_sweep_baseline.json"


@pytest.fixture(scope="session")
def emit(request):
    """Writer that lands verdict lines on the live terminal, not in capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _emit(line: str) -> None:
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line, file=sys.__stderr__)

    return _emit


def finish(emit, number, label, ok, detail, start, limit):
    elapsed = time.monotonic() - start
    status = "pass" if ok else "FAIL"
    emit(f"acceptance {number:02d} [{status}] {label}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < limit, f"{label} exceeded {limit}s ({elapsed:.1f}s)"


def test_01_single_use_greedy_trace(emit, product_instance):
    start = time.monotonic()
    records, reward = run_stream(product_instance, [(x, 0.0) for x in PRODUCT_JOBS])
    trace = [r.worker_id for r in records]
    ok = reward == 3 and trace == [None, 3, 1, 2]
    finish(
        emit,
        1,
        "greedy trace on the four-worker product run",
        ok,
        f"reward {reward}, assignments {trace}",
        start,
        1.0,
    )


def test_02_tabulated_greedy_versus_offline(emit, tabulated_instance, tabulated_f):
    start = time.monotonic()
    _, greedy = run_stream(
        tabulated_instance,
        [(x, 0.0) for x in TABULATED_JOBS],
        force_non_order_preserving=True,
    )
    best = offline_optimum_exhaustive(
        FeasibilityGraph.build(TABULATED_JOBS, TABULATED_RATES, tabulated_f, TABULATED_ALPHA)
    )
    ok = (greedy, best) == (2, 3)
    finish(
        emit,
        2,
        "non-order-preserving table: greedy 2 vs offline 3",
        ok,
        f"greedy {greedy}, offline optimum {best}",
        start,
        1.0,
    )


def test_03_greedy_equals_offline_on_order_preserving(emit):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    product = ThresholdFunction.product(Interval(0.0, 1.0))
    ratio = ThresholdFunction.ratio(Interval(0.01, 1.0))
    small_hits = 0
    trials_small = 1000
    for _ in range(trials_small):
        if rng.random() < 0.5:
            f, alpha = product, float(rng.uniform(0.0, 0.9))
        else:
            f, alpha = ratio, float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        jobs = rng.uniform(f.domain.lo, f.domain.hi, n).tolist()
        rates = rng.uniform(0.01, 1.0, m).tolist()
        inst = Instance(alpha=alpha, f=f, workers=make_workers(rates))
        _, greedy = run_stream(inst, [(x, 0.0) for x in jobs])
        if greedy == offline_optimum_exhaustive(FeasibilityGraph.build(jobs, rates, f, alpha)):
            small_hits += 1
    large_hits = 0
    trials_large = 100
    n = 200
    rates = [i / n for i in range(1, n + 1)]
    f = ThresholdFunction.ratio(Interval(1e-6, 1.0))
    for _ in range(trials_large):
        alpha = float(rng.uniform(0.3, 4.0))
        jobs = rng.uniform(1e-6, 1.0, n).tolist()
        greedy = greedy_threshold_count(f, alpha, rates, jobs)
        graph = FeasibilityGraph.build(jobs, rates, f, alpha)
        if greedy == offline_optimum_matching(graph):
            large_hits += 1
    ok = small_hits == trials_small and large_hits == trials_large
    finish(
        emit,
        3,
        "greedy equals offline optimum when order is preserved",
        ok,
        f"{small_hits}/{trials_small} exhaustive matches, "
        f"{large_hits}/{trials_large} matching-oracle matches at n=200",
        start,
        60.0,
    )


def test_04_threshold_sweep_bands(emit):
    start = time.monotonic()
    baseline = json.loads(BASELINE_PATH.read_text())
    rows = cli.run_figure1(
        n=baseline["n"],
        alphas=[0.5, 1.0, 3.0],
        trials=baseline["trials"],
        seed=baseline["seed"],
        domain=Interval(*baseline["domain"]),
    )
    means = {row["alpha"]: row["mean_passed"] for row in rows}
    bands = baseline["bands"]
    ok = (
        rows == baseline["rows"]
        and means[0.5] >= bands["0.5"]["min_mean"]
        and bands["1.0"]["lo"] <= means[1.0] <= bands["1.0"]["hi"]
        and bands["3.0"]["lo"] <= means[3.0] <= bands["3.0"]["hi"]
    )
    finish(
        emit,
        4,
        "threshold sweep reproduces the frozen 500-trial bands",
        ok,
        f"mean passed {means[0.5]:.2f} / {means[1.0]:.2f} / {means[3.0]:.2f} "
        "at thresholds 0.5 / 1 / 3",
        start,
        120.0,
    )


def test_05_load_bounds_hold_on_full_reward_instances(emit):
    start = time.monotonic()
    rng = np.random.default_rng(202)
    product = ThresholdFunction.product(Interval(0.0, 1.0))
    ratio = ThresholdFunction.ratio(Interval(0.01, 1.0))
    trials = 10_000
    holds = 0
    worst_norm_gap = 0.0
    done = 0
    while done < trials:
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.1, 1.0, n).tolist()
        if rng.random() < 0.5:
            f = product
            alpha = float(rng.uniform(0.01, 0.09))
            floor = alpha / min(rates)
            if floor >= 1.0:
                continue
            jobs = rng.uniform(floor, 1.0, n).tolist()
            u_closed = [1.0] * n
            v_closed = [max(0.0, alpha / p) for p in rates]
        else:
            f = ratio
            alpha = float(rng.uniform(0.5, 2.0))
            ceiling = min(1.0, min(rates) / alpha)
            if ceiling <= 0.01:
                continue
            jobs = rng.uniform(0.01, ceiling, n).tolist()
            u_closed = [min(1.0, p / alpha) for p in rates]
            v_closed = [0.01] * n
        done += 1
        result = verify_load_bounds(
            Instance(alpha=alpha, f=f, workers=make_workers(rates)), jobs
        )
        if result.verdict is not LoadBoundsVerdict.BOUNDS_HOLD:
            continue
        if not (result.report.l_min <= result.l_jobs <= result.report.l_max):
            continue
        gap = max(
            abs(result.report.l_max - job_load(u_closed)),
            abs(result.report.l_min - job_load(v_closed)),
        )
        worst_norm_gap = max(worst_norm_gap, gap)
        if gap <= 1e-10:
            holds += 1
    ok = holds == trials
    finish(
        emit,
        5,
        "load bounds sandwich every fully assigned instance",
        ok,
        f"{holds}/{trials} hold; worst closed-form norm deviation {worst_norm_gap:.2e}",
        start,
        60.0,
    )


def test_06_mixture_sampling_achieves_full_reward(emit, product_f):
    start = time.monotonic()
    omega = Interval(0.0, 1.0)
    extremes = [1.0, 1.0, 1.0, 1.0]  # per-worker maxima of the four-worker run
    n = len(PRODUCT_RATES)
    sets_per_sigma = 1000
    rates = list(PRODUCT_RATES)
    successes = []
    for sigma in (1e-2, 1e-3, 1e-4):
        spec = build_reward_maximizing_mixture(
            extremes, Side.UPPER, sigma=sigma, omega=omega, epsilon=1e-6
        )
        draws = spec.draw_with(np.random.default_rng(303), sets_per_sigma * n)
        hits = 0
        for k in range(sets_per_sigma):
            jobs = draws[k * n : (k + 1) * n]
            if greedy_threshold_count(product_f, PRODUCT_ALPHA, rates, jobs) == n:
                hits += 1
        successes.append(hits / sets_per_sigma)
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(successes, successes[1:]))
    ok = successes[-1] >= 0.99 and nondecreasing
    finish(
        emit,
        6,
        "upper-side mixtures keep the greedy reward full",
        ok,
        "success rates "
        + " / ".join(f"{s:.3f}" for s in successes)
        + " for bandwidths 1e-2 / 1e-3 / 1e-4",
        start,
        60.0,
    )


def test_07_leveled_pools_never_beat_flat_pool(emit, product_f):
    start = time.monotonic()
    rng = np.random.default_rng(404)
    trials = 1000
    nonnegative = 0
    for _ in range(trials):
        k = int(rng.integers(2, 4))
        alpha = float(rng.uniform(0.05, 0.6))
        next_id = 1
        levels = []
        for _ in range(k):
            size = int(rng.integers(1, 4))
            workers = tuple(
                Worker(id=next_id + i, rate=float(rng.uniform(0.05, 1.0)))
                for i in range(size)
            )
            next_id += size
            levels.append(Instance(alpha=alpha, f=product_f, workers=workers))
        jobs = [(float(rng.uniform(0.0, 1.0)), 0.0) for _ in range(int(rng.integers(1, 10)))]
        if compare_flat(levels, jobs).gap >= 0:
            nonnegative += 1
    gap_levels = [
        Instance(alpha=0.42, f=product_f, workers=(Worker(id=1, rate=0.9),)),
        Instance(alpha=0.42, f=product_f, workers=(Worker(id=2, rate=0.5),)),
    ]
    committed = compare_flat(gap_levels, [(0.85, 0.0), (0.5, 0.0)])
    strict = (committed.leveled.total, committed.flat) == (1, 2)
    ok = nonnegative == trials and strict
    finish(
        emit,
        7,
        "flat pool dominates prioritized levels",
        ok,
        f"{nonnegative}/{trials} gaps nonnegative; committed instance "
        f"{committed.leveled.total} leveled vs {committed.flat} flat",
        start,
        30.0,
    )


def test_08_assignment_matching_matches_brute_force(emit):
    start = time.monotonic()
    rng = np.random.default_rng(505)
    trials = 500
    agreements = 0
    for _ in range(trials):
        n = int(rng.integers(1, 8))
        weights = rng.uniform(0.0, 1.0, (n, n))
        _, total = hungarian_max(weights)
        best = max(
            math.fsum(weights[i, perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
        )
        if abs(total - best) <= 1e-9:
            agreements += 1
    assignment, total = hungarian_max([[0.9, 0.2], [0.3, 0.8]])
    fixed_ok = assignment == (0, 1) and abs(total - 1.7) <= 1e-9
    ok = agreements == trials and fixed_ok
    finish(
        emit,
        8,
        "maximum-weight matching equals factorial brute force",
        ok,
        f"{agreements}/{trials} random matrices agree within 1e-9; "
        f"fixed 2x2 total {total:.10f}",
        start,
        30.0,
    )


def test_09_expected_reward_is_policy_invariant(emit):
    start = time.monotonic()
    rng = np.random.default_rng(606)
    product = ThresholdFunction.product(Interval(0.0, 1.0))
    setups = 20
    invariant = 0
    for setup in range(setups):
        n = int(rng.integers(2, 6))
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = []
        for _ in range(n):
            if rng.random() < 0.5:
                g_p.append(DistributionSpec.point_mass(float(rng.uniform(0.1, 1.0))))
            else:
                lo = float(rng.uniform(0.05, 0.5))
                g_p.append(DistributionSpec.uniform(lo, float(rng.uniform(lo + 0.1, 1.0))))
        alpha = float(rng.uniform(0.05, 0.5))
        perm_a = [int(v) for v in rng.permutation(n)]
        perm_b = [int(v) for v in rng.permutation(n)]
        seed = 1000 + setup
        mean_a, se_a = simulate_case1_realized(
            g_x, g_p, product, alpha, perm_a, 3000, seed
        )
        mean_b, se_b = simulate_case1_realized(
            g_x, g_p, product, alpha, perm_b, 3000, seed
        )
        if abs(mean_a - mean_b) < 3.0 * math.hypot(se_a, se_b):
            invariant += 1
    g_p = [DistributionSpec.point_mass(p) for p in PRODUCT_RATES]
    value, _ = expected_reward_case1(
        DistributionSpec.uniform(0.0, 1.0), g_p, product, PRODUCT_ALPHA
    )
    closed_ok = abs(value - 2.8607) <= 1e-4
    ok = invariant == setups and closed_ok
    finish(
        emit,
        9,
        "expected reward ignores the assignment order",
        ok,
        f"{invariant}/{setups} setups within 3 combined errors; "
        f"closed-form sum {value:.10f}",
        start,
        60.0,
    )


def test_10_reports_are_reproducible_byte_for_byte(emit, tmp_path):
    start = time.monotonic()
    tabulated_rows = [
        [x, p, v] for (x, p), v in sorted(NON_ORDER_PRESERVING_TABLE.items())
    ]
    configs = {
        "simulate": {
            "mode": "simulate",
            "alpha": 0.15,
            "function": {"kind": "product"},
            "workers": [
                {"id": i, "rate": r} for i, r in enumerate(PRODUCT_RATES, start=1)
            ],
            "jobs": {
                "distribution": {"kind": "uniform", "a": 0.0, "b": 1.0},
                "count": 32,
            },
            "seed": 5,
        },
        "analyze-load": {
            "mode": "analyze-load",
            "alpha": 0.15,
            "function": {"kind": "product"},
            "workers": [
                {"id": i, "rate": r} for i, r in enumerate(PRODUCT_RATES, start=1)
            ],
            "jobs": {"values": [0.9, 0.8, 0.7, 0.6]},
            "seed": 5,
        },
        "multilevel": {
            "mode": "multilevel",
            "compare_flat": True,
            "levels": [
                {
                    "workers": [{"id": 1, "rate": 0.9}],
                    "alpha": 0.42,
                    "function": {"kind": "product"},
                },
                {
                    "workers": [{"id": 2, "rate": 0.5}],
                    "alpha": 0.42,
                    "function": {"kind": "product"},
                },
            ],
            "jobs": {"values": [0.85, 0.5]},
            "seed": 5,
        },
        "dsstap": {
            "mode": "dsstap",
            "case": "II",
            "alpha": 0.5,
            "samples": 2000,
            "function": {"kind": "product"},
            "job_specs": [
                {
                    "kind": "gaussian-mixture",
                    "omega": [0.0, 1.0],
                    "centers": [0.6],
                    "weights": [1.0],
                    "sigma": 0.05,
                },
                {"kind": "uniform", "a": 0.0, "b": 1.0},
            ],
            "rate_specs": [
                {"kind": "point-mass", "c": 0.8},
                {"kind": "uniform", "a": 0.4, "b": 0.9},
            ],
            "seed": 5,
        },
        "check-order": {
            "mode": "check-order",
            "function": {"kind": "tabulated", "table": tabulated_rows},
            "workers": [
                {"id": i, "rate": r} for i, r in enumerate(TABULATED_RATES, start=1)
            ],
            "seed": 5,
        },
        "figure1": {
            "mode": "figure1",
            "figure1": {"n": 40, "alphas": [0.5, 1.0, 3.0], "trials": 10},
            "seed": 5,
        },
    }
    identical = []
    for name, payload in configs.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(payload))
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        code_a = cli.main(["--config", str(config_path), "--out", str(out_a)])
        code_b = cli.main(["--config", str(config_path), "--out", str(out_b)])
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        same = (
            code_a == 0
            and code_b == 0
            and files_a == files_b
            and all(
                (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a
            )
        )
        identical.append(same)
    ok = all(identical)
    finish(
        emit,
        10,
        "every mode reruns byte-identically",
        ok,
        f"{sum(identical)}/{len(identical)} modes byte-identical "
        f"({', '.join(configs)})",
        start,
        60.0,
    )
