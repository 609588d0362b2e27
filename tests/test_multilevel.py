"""Prioritized worker levels: cascade semantics and the flat-pool comparison."""

from __future__ import annotations

import numpy as np
import pytest

from sstap import (
    IncomparableLevels,
    Instance,
    Interval,
    ThresholdFunction,
    Worker,
    compare_flat,
    run_multilevel,
    run_stream,
)
from tests.conftest import make_workers


@pytest.fixture
def gap_levels(product_f):
    """Two levels whose cascade strands a job the flat pool would serve."""
    return [
        Instance(alpha=0.42, f=product_f, workers=(Worker(id=1, rate=0.9),)),
        Instance(alpha=0.42, f=product_f, workers=(Worker(id=2, rate=0.5),)),
    ]


GAP_JOBS = [(0.85, 0.0), (0.5, 0.0)]


class TestRunMultilevel:
    def test_empty_level_rejected(self, product_f):
        levels = [
            Instance(alpha=0.1, f=product_f, workers=make_workers([0.5])),
            Instance(alpha=0.1, f=product_f, workers=()),
        ]
        with pytest.raises(ValueError, match="at least one worker"):
            run_multilevel(levels, [(0.5, 0.0)])

    def test_worker_ids_disjoint_across_levels(self, product_f):
        levels = [
            Instance(alpha=0.1, f=product_f, workers=make_workers([0.5])),
            Instance(alpha=0.1, f=product_f, workers=make_workers([0.6])),
        ]
        with pytest.raises(ValueError):
            run_multilevel(levels, [(0.5, 0.0)])

    def test_single_level_reduces_to_stream_policy(self, product_instance):
        jobs = [(0.0975, 0.0), (0.275, 0.0), (0.9575, 0.0), (0.4854, 0.0)]
        result = run_multilevel([product_instance], jobs)
        records, reward = run_stream(product_instance, jobs)
        assert result.total == reward == 3
        assert result.rewards == (3,)
        assert list(result.records[0]) == records

    def test_cascade_strands_second_job(self, gap_levels):
        result = run_multilevel(gap_levels, GAP_JOBS)
        assert result.rewards == (1, 0)
        assert result.total == 1
        assert result.job_outcomes == ((1, 1), (2, None))

    def test_priority_property(self, gap_levels):
        result = run_multilevel(gap_levels, GAP_JOBS)
        level2_jobs = {r.job_id for r in result.records[1]}
        # only the job every earlier level rejected reaches level 2
        assert level2_jobs == {2}
        rejected_at_1 = {r.job_id for r in result.records[0] if not r.assigned}
        assert level2_jobs == rejected_at_1

    def test_level_isolation(self, gap_levels, product_f):
        with_two = run_multilevel(gap_levels, GAP_JOBS)
        extra = gap_levels + [
            Instance(alpha=0.42, f=product_f, workers=(Worker(id=9, rate=1.0),))
        ]
        with_three = run_multilevel(extra, GAP_JOBS)
        assert with_three.records[:2] == with_two.records

    def test_heterogeneous_levels_allowed(self, product_f):
        ratio = ThresholdFunction.ratio(Interval(0.1, 1.0))
        levels = [
            Instance(alpha=0.3, f=product_f, workers=make_workers([0.4])),
            Instance(alpha=1.5, f=ratio, workers=(Worker(id=5, rate=0.9),)),
        ]
        result = run_multilevel(levels, [(0.5, 0.0)])
        # level 1: 0.5*0.4 = 0.2 < 0.3 rejects; level 2: 0.9/0.5 = 1.8 >= 1.5
        assert result.job_outcomes == ((1, 2),)

    def test_arrival_times_must_be_nondecreasing(self, gap_levels):
        with pytest.raises(ValueError):
            run_multilevel(gap_levels, [(0.5, 1.0), (0.5, 0.0)])

    def test_job_ids_are_global_across_levels(self, gap_levels):
        result = run_multilevel(gap_levels, GAP_JOBS)
        assert [r.job_id for r in result.records[0]] == [1, 2]
        assert [r.job_id for r in result.records[1]] == [2]


class TestCompareFlat:
    def test_committed_gap_instance(self, gap_levels):
        comparison = compare_flat(gap_levels, GAP_JOBS)
        assert (comparison.leveled.total, comparison.flat, comparison.gap) == (1, 2, 1)

    def test_flat_assignment_detail(self, gap_levels):
        comparison = compare_flat(gap_levels, GAP_JOBS)
        by_job = {r.job_id: r.worker_id for r in comparison.flat_records}
        # the flat greedy saves the strong worker for the weak job
        assert by_job == {1: 2, 2: 1}

    def test_single_level_gap_is_zero(self, product_instance):
        jobs = [(0.9, 0.0), (0.1, 0.0)]
        comparison = compare_flat([product_instance], jobs)
        assert comparison.gap == 0

    def test_flat_run_shares_workers_with_the_leveled_run(self, product_f):
        levels = [
            Instance(alpha=0.2, f=product_f, workers=make_workers([0.3, 0.6], cycle_rate=2.0)),
            Instance(alpha=0.2, f=product_f, workers=(Worker(id=3, rate=0.9, cycle_rate=2.0),)),
        ]
        jobs = [(0.8, 0.1 * k) for k in range(12)]
        comparison = compare_flat(levels, jobs)
        pool = tuple(worker for level in levels for worker in level.workers)
        records, reward = run_stream(Instance(alpha=0.2, f=product_f, workers=pool), jobs)
        assert comparison.flat_records == tuple(records)
        assert comparison.flat == reward
        assert len(pool) < reward < len(jobs)  # workers return, and some jobs find none free

    def test_mismatched_alpha_rejected(self, product_f):
        levels = [
            Instance(alpha=0.1, f=product_f, workers=make_workers([0.5])),
            Instance(alpha=0.2, f=product_f, workers=(Worker(id=7, rate=0.6),)),
        ]
        with pytest.raises(IncomparableLevels):
            compare_flat(levels, [(0.5, 0.0)])

    def test_mismatched_function_rejected(self, product_f):
        ratio = ThresholdFunction.ratio(Interval(0.1, 1.0))
        levels = [
            Instance(alpha=0.1, f=product_f, workers=make_workers([0.5])),
            Instance(alpha=0.1, f=ratio, workers=(Worker(id=7, rate=0.6),)),
        ]
        with pytest.raises(IncomparableLevels):
            compare_flat(levels, [(0.5, 0.0)])

    def test_tabulated_levels_compare_by_table(self):
        rows = [((1.0, 0.25), 0.25), ((1.0, 0.5), 0.5), ((2.0, 0.25), 0.5), ((2.0, 0.5), 1.0)]
        first = ThresholdFunction.tabulated(dict(rows))

        def levels(f):
            return [
                Instance(alpha=0.4, f=first, workers=(Worker(id=1, rate=0.25),)),
                Instance(alpha=0.4, f=f, workers=(Worker(id=2, rate=0.5),)),
            ]

        # the same rows in another order make an equal function
        reordered = ThresholdFunction.tabulated(dict(reversed(rows)))
        comparison = compare_flat(levels(reordered), [(2.0, 0.0), (1.0, 0.0)])
        assert (comparison.leveled.total, comparison.flat, comparison.gap) == (2, 2, 0)
        changed = ThresholdFunction.tabulated({**dict(rows), (2.0, 0.5): 0.9})
        with pytest.raises(IncomparableLevels):
            compare_flat(levels(changed), [(2.0, 0.0), (1.0, 0.0)])

    def test_gap_never_negative_on_random_instances(self, product_f):
        rng = np.random.default_rng(31)
        for _ in range(150):
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
            jobs = [
                (float(rng.uniform(0.0, 1.0)), 0.0)
                for _ in range(int(rng.integers(1, 9)))
            ]
            comparison = compare_flat(levels, jobs)
            assert comparison.gap >= 0
            assert comparison.flat == comparison.leveled.total + comparison.gap

