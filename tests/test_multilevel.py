"""Prioritized worker levels: cascade semantics and the flat-pool comparison."""

from __future__ import annotations

import numpy as np
import pytest

from sstap import (
    IncomparableLevels,
    Instance,
    Interval,
    LevelSpec,
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
        LevelSpec(index=1, workers=(Worker(id=1, rate=0.9),), alpha=0.42, f=product_f),
        LevelSpec(index=2, workers=(Worker(id=2, rate=0.5),), alpha=0.42, f=product_f),
    ]


GAP_JOBS = [(0.85, 0.0), (0.5, 0.0)]


class TestLevelSpec:
    def test_requires_workers(self, product_f):
        with pytest.raises(ValueError):
            LevelSpec(index=1, workers=(), alpha=0.1, f=product_f)

    def test_worker_ids_disjoint_across_levels(self, product_f):
        levels = [
            LevelSpec(index=1, workers=make_workers([0.5]), alpha=0.1, f=product_f),
            LevelSpec(index=2, workers=make_workers([0.6]), alpha=0.1, f=product_f),
        ]
        with pytest.raises(ValueError):
            run_multilevel(levels, [(0.5, 0.0)])


class TestRunMultilevel:
    def test_single_level_reduces_to_stream_policy(self, product_instance):
        jobs = [(0.0975, 0.0), (0.275, 0.0), (0.9575, 0.0), (0.4854, 0.0)]
        level = LevelSpec(
            index=1,
            workers=product_instance.workers,
            alpha=product_instance.alpha,
            f=product_instance.f,
        )
        result = run_multilevel([level], jobs)
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
            LevelSpec(index=3, workers=(Worker(id=9, rate=1.0),), alpha=0.42, f=product_f)
        ]
        with_three = run_multilevel(extra, GAP_JOBS)
        assert with_three.records[:2] == with_two.records

    def test_heterogeneous_levels_allowed(self, product_f):
        ratio = ThresholdFunction.ratio(Interval(0.1, 1.0))
        levels = [
            LevelSpec(index=1, workers=make_workers([0.4]), alpha=0.3, f=product_f),
            LevelSpec(
                index=2, workers=(Worker(id=5, rate=0.9),), alpha=1.5, f=ratio
            ),
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
        assert (comparison.sum_leveled, comparison.flat, comparison.gap) == (1, 2, 1)

    def test_flat_assignment_detail(self, gap_levels):
        comparison = compare_flat(gap_levels, GAP_JOBS)
        by_job = {r.job_id: r.worker_id for r in comparison.flat_records}
        # the flat greedy saves the strong worker for the weak job
        assert by_job == {1: 2, 2: 1}

    def test_single_level_gap_is_zero(self, product_instance):
        level = LevelSpec(
            index=1,
            workers=product_instance.workers,
            alpha=product_instance.alpha,
            f=product_instance.f,
        )
        jobs = [(0.9, 0.0), (0.1, 0.0)]
        comparison = compare_flat([level], jobs)
        assert comparison.gap == 0

    def test_flat_run_shares_workers_with_the_leveled_run(self, product_f):
        levels = [
            LevelSpec(index=1, workers=make_workers([0.3, 0.6], cycle_rate=2.0), alpha=0.2, f=product_f),
            LevelSpec(index=2, workers=(Worker(id=3, rate=0.9, cycle_rate=2.0),), alpha=0.2, f=product_f),
        ]
        jobs = [(0.8, 0.1 * k) for k in range(12)]
        comparison = compare_flat(levels, jobs, rng_seed=5)
        pool = tuple(worker for level in levels for worker in level.workers)
        records, reward = run_stream(Instance(alpha=0.2, f=product_f, workers=pool, rng_seed=5), jobs)
        assert comparison.flat_records == tuple(records)
        assert comparison.flat == reward
        assert len(pool) < reward < len(jobs)  # workers return, and some jobs find none free

    def test_mismatched_alpha_rejected(self, product_f):
        levels = [
            LevelSpec(index=1, workers=make_workers([0.5]), alpha=0.1, f=product_f),
            LevelSpec(
                index=2, workers=(Worker(id=7, rate=0.6),), alpha=0.2, f=product_f
            ),
        ]
        with pytest.raises(IncomparableLevels):
            compare_flat(levels, [(0.5, 0.0)])

    def test_mismatched_function_rejected(self, product_f):
        ratio = ThresholdFunction.ratio(Interval(0.1, 1.0))
        levels = [
            LevelSpec(index=1, workers=make_workers([0.5]), alpha=0.1, f=product_f),
            LevelSpec(index=2, workers=(Worker(id=7, rate=0.6),), alpha=0.1, f=ratio),
        ]
        with pytest.raises(IncomparableLevels):
            compare_flat(levels, [(0.5, 0.0)])

    def test_gap_never_negative_on_random_instances(self, product_f):
        rng = np.random.default_rng(31)
        for _ in range(150):
            k = int(rng.integers(2, 4))
            alpha = float(rng.uniform(0.05, 0.6))
            next_id = 1
            levels = []
            for index in range(1, k + 1):
                size = int(rng.integers(1, 4))
                workers = tuple(
                    Worker(id=next_id + i, rate=float(rng.uniform(0.05, 1.0)))
                    for i in range(size)
                )
                next_id += size
                levels.append(
                    LevelSpec(index=index, workers=workers, alpha=alpha, f=product_f)
                )
            jobs = [
                (float(rng.uniform(0.0, 1.0)), 0.0)
                for _ in range(int(rng.integers(1, 9)))
            ]
            comparison = compare_flat(levels, jobs)
            assert comparison.gap >= 0
            assert comparison.flat == comparison.sum_leveled + comparison.gap

