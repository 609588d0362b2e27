"""Online greedy policy: selection rule, order gate, cycling, bulk variant."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstap import (
    AssignmentRecord,
    DomainError,
    FunctionKind,
    Instance,
    Interval,
    OrderViolation,
    PolicyState,
    ThresholdFunction,
    Worker,
    WorkerPool,
    WorkerState,
    assign_next,
    eval_f,
    greedy_threshold_count,
    release_returning_workers,
    run_stream,
    verify_order_preserving,
)
from tests.conftest import PRODUCT_JOBS, make_workers


def stream(values):
    return [(v, 0.0) for v in values]


class TestWorkerPool:
    def test_views_partition_the_pool(self):
        pool = WorkerPool(make_workers([0.4, 0.5, 0.6], cycle_rate=2.0))
        pool.assign(1, 0.5)
        pool.assign(2, None)
        assert [w.id for w in pool.available()] == [3]
        assert pool.get(1).state is WorkerState.BUSY
        assert pool.get(2).state is WorkerState.CONSUMED
        with pytest.raises(ValueError):
            pool.assign(2, 1.0)
        assert [w.id for w in pool.available()] == [3]

    def test_pool_copies_input_workers(self):
        workers = make_workers([0.4])
        pool = WorkerPool(workers)
        pool.get(1).mark_assigned(None)
        assert workers[0].state is WorkerState.AVAILABLE

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool([Worker(id=1, rate=0.4), Worker(id=1, rate=0.5)])

    def test_release_returning_is_sorted_by_id(self):
        pool = WorkerPool(make_workers([0.4, 0.5, 0.6], cycle_rate=1.0))
        for wid, busy_until in ((3, 0.5), (1, 1.0), (2, 0.75)):
            pool.assign(wid, busy_until)
        released = pool.release_returning(1.0)
        assert released == [1, 2, 3]
        assert [w.id for w in pool.available()] == [1, 2, 3]

    def test_available_lists_rate_then_id_order(self):
        workers = (Worker(id=4, rate=0.6), Worker(id=9, rate=0.2), Worker(id=1, rate=0.6))
        assert [w.id for w in WorkerPool(workers).available()] == [9, 1, 4]


class TestGreedySelection:
    def test_golden_trace(self, product_instance):
        records, reward = run_stream(product_instance, stream(PRODUCT_JOBS))
        assert reward == 3
        assert [r.worker_id for r in records] == [None, 3, 1, 2]
        assert records[0].f_value is None
        assert records[1].f_value == pytest.approx(0.165)
        assert records[2].f_value == pytest.approx(0.383)
        assert records[3].f_value == pytest.approx(0.2427)
        assert all(r.threshold == product_instance.alpha for r in records)

    def test_picks_smallest_feasible_f(self, product_instance):
        state = PolicyState(product_instance)
        record = assign_next(state, 0.9575, 0.0)
        # all four clear the bar; 0.4 * 0.9575 is the least value above it
        assert record.worker_id == 1

    def test_rejects_when_nothing_clears_threshold(self, product_instance):
        state = PolicyState(product_instance)
        record = assign_next(state, 0.0975, 0.0)
        assert record.worker_id is None and not record.assigned
        assert len(state.pool.available()) == 4

    def test_tie_broken_by_smaller_rate(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        inst = Instance(alpha=0.0, f=f, workers=make_workers([0.7, 0.4]))
        state = PolicyState(inst)
        record = assign_next(state, 0.0, 0.0)
        assert record.f_value == 0.0
        assert state.pool.get(record.worker_id).rate == 0.4

    def test_tie_broken_by_smaller_id_at_equal_rate(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        workers = (Worker(id=7, rate=0.5), Worker(id=2, rate=0.5))
        inst = Instance(alpha=0.1, f=f, workers=workers)
        record = assign_next(PolicyState(inst), 0.9, 0.0)
        assert record.worker_id == 2

    def test_rejection_is_final_no_retry_later(self, product_instance):
        records, reward = run_stream(
            product_instance, [(0.0975, 0.0), (0.0975, 1.0)]
        )
        assert reward == 0
        assert all(not r.assigned for r in records)

    def test_job_ids_number_the_stream(self, product_instance):
        records, _ = run_stream(product_instance, stream(PRODUCT_JOBS))
        assert [r.job_id for r in records] == [1, 2, 3, 4]

    def test_explicit_job_id_is_respected(self, product_instance):
        state = PolicyState(product_instance)
        record = assign_next(state, 0.9575, 0.0, job_id=41)
        assert record.job_id == 41

    def test_time_must_not_run_backwards(self, product_instance):
        state = PolicyState(product_instance)
        assign_next(state, 0.9575, 1.0)
        with pytest.raises(ValueError):
            assign_next(state, 0.9575, 0.5)
        with pytest.raises(ValueError):
            run_stream(product_instance, [(0.5, 1.0), (0.5, 0.0)])


class TestOrderGate:
    def test_product_instance_passes(self, product_instance):
        assert verify_order_preserving(product_instance).preserving

    def test_tabulated_counterexample_fails(self, tabulated_instance):
        check = verify_order_preserving(tabulated_instance)
        assert not check.preserving and check.witness is not None

    def test_assign_next_refuses_without_force(self, tabulated_instance):
        state = PolicyState(tabulated_instance)
        with pytest.raises(OrderViolation) as exc:
            assign_next(state, 1.0, 0.0)
        assert exc.value.witness is not None

    def test_force_runs_heuristically(self, tabulated_instance):
        records, reward = run_stream(
            tabulated_instance,
            stream([1.0, 2.0, 3.0]),
            force_non_order_preserving=True,
        )
        assert reward == 2
        assert [r.worker_id for r in records] == [2, None, 3]

    def test_heuristic_flag_is_exposed(self, tabulated_instance, product_instance):
        forced = PolicyState(tabulated_instance, force_non_order_preserving=True)
        assign_next(forced, 1.0, 0.0)
        assert forced.heuristic
        clean = PolicyState(product_instance)
        assign_next(clean, 0.9575, 0.0)
        assert not clean.heuristic


class TestCycling:
    def test_infinite_cycle_rate_consumes(self, product_instance):
        state = PolicyState(product_instance)
        record = assign_next(state, 0.9575, 0.0)
        assert state.pool.get(record.worker_id).state is WorkerState.CONSUMED

    def test_deterministic_delay_is_reciprocal_rate(self, product_f):
        inst = Instance(
            alpha=0.1, f=product_f, workers=make_workers([0.5], cycle_rate=2.0)
        )
        state = PolicyState(inst)
        assign_next(state, 0.9, 0.0)
        worker = state.pool.get(1)
        assert worker.state is WorkerState.BUSY and worker.return_time == 0.5

    def test_worker_serves_again_after_return(self, product_f):
        inst = Instance(
            alpha=0.1, f=product_f, workers=make_workers([0.5], cycle_rate=2.0)
        )
        records, reward = run_stream(
            inst, [(0.9, 0.0), (0.9, 0.25), (0.9, 0.5), (0.9, 0.6)]
        )
        assert [r.worker_id for r in records] == [1, None, 1, None]
        assert reward == 2

    def test_release_returning_workers_reports_ids(self, product_f):
        inst = Instance(
            alpha=0.1, f=product_f, workers=make_workers([0.5, 0.6], cycle_rate=4.0)
        )
        state = PolicyState(inst)
        assign_next(state, 0.9, 0.0)
        assign_next(state, 0.9, 0.0)
        assert release_returning_workers(state, 0.2) == []
        assert release_returning_workers(state, 0.25) == [1, 2]
        assert len(state.pool.available()) == 2

    def test_exponential_delays_are_seeded(self, product_f):
        def return_time(seed):
            inst = Instance(
                alpha=0.1,
                f=product_f,
                workers=make_workers([0.5], cycle_rate=2.0),
                rng_seed=seed,
            )
            state = PolicyState(inst, cycle_delay_mode="exponential")
            assign_next(state, 0.9, 0.0)
            return state.pool.get(1).return_time

        assert return_time(11) == return_time(11)
        assert return_time(11) != return_time(12)
        assert return_time(11) != 0.5  # not the deterministic delay

    def test_unknown_cycle_mode_rejected(self, product_instance):
        with pytest.raises(ValueError):
            PolicyState(product_instance, cycle_delay_mode="gamma")


class TestBulkGreedy:
    def test_matches_run_stream_on_golden(self, product_instance):
        count = greedy_threshold_count(
            product_instance.f,
            product_instance.alpha,
            [w.rate for w in product_instance.workers],
            PRODUCT_JOBS,
        )
        assert count == 3

    def test_tabulated_not_supported(self, tabulated_instance):
        with pytest.raises(ValueError):
            greedy_threshold_count(
                tabulated_instance.f, 0.1, [0.25], [1.0]
            )

    def test_counts_a_rate_one_ulp_below_the_inverted_threshold(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        x = 0.449438202247191
        assert 0.2225 * x >= 0.1 and 0.2225 < 0.1 / x
        inst = Instance(alpha=0.1, f=f, workers=make_workers([0.2225]))
        assert run_stream(inst, stream([x]))[1] == 1
        assert greedy_threshold_count(f, 0.1, [0.2225], [x]) == 1

    @pytest.mark.parametrize("x", [-0.5, 1.5])
    def test_job_outside_domain_raises_while_a_worker_is_free(self, x):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            run_stream(Instance(alpha=0.1, f=f, workers=make_workers([0.5])), stream([x]))
        with pytest.raises(DomainError):
            greedy_threshold_count(f, 0.1, [0.5], [x])
        assert greedy_threshold_count(f, 0.1, [0.5], [0.9, x]) == 1

    def test_handles_duplicate_and_unsorted_rates(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        assert greedy_threshold_count(f, 0.4, [0.9, 0.5, 0.9], [0.5, 0.5, 0.5]) == 2

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["product", "ratio"]),
        alpha=st.floats(0.0, 2.0, allow_nan=False),
        rates=st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_equivalent_to_stream_policy(self, kind, alpha, rates, data):
        if kind == "product":
            f = ThresholdFunction.product(Interval(0.0, 1.0))
            lo = 0.0
        else:
            f = ThresholdFunction.ratio(Interval(0.01, 1.0))
            lo = 0.01
        jobs = data.draw(
            st.lists(st.floats(lo, 1.0, allow_nan=False), min_size=1, max_size=8)
        )
        workers = make_workers(rates)
        inst = Instance(alpha=alpha, f=f, workers=workers)
        _, slow = run_stream(inst, stream(jobs))
        assert greedy_threshold_count(f, alpha, rates, jobs) == slow

    def test_large_random_agreement(self):
        rng = np.random.default_rng(5)
        f = ThresholdFunction.ratio(Interval(1e-6, 1.0))
        for _ in range(20):
            n = 200
            rates = [i / n for i in range(1, n + 1)]
            jobs = rng.uniform(1e-6, 1.0, n)
            alpha = float(rng.uniform(0.1, 5.0))
            inst = Instance(alpha=alpha, f=f, workers=make_workers(rates))
            _, slow = run_stream(inst, stream(jobs))
            assert greedy_threshold_count(f, alpha, rates, jobs) == slow


def test_nonpositive_threshold_accepts_everything(product_f):
    inst = Instance(alpha=0.0, f=product_f, workers=make_workers([0.2, 0.3]))
    _, reward = run_stream(inst, stream([0.0, 0.0]))
    assert reward == 2


def test_reward_counts_cycling_assignments(product_f):
    inst = Instance(
        alpha=0.1, f=product_f, workers=make_workers([0.5], cycle_rate=10.0)
    )
    records, reward = run_stream(inst, [(0.9, 0.0), (0.9, 0.2), (0.9, 0.4)])
    assert reward == 3
    assert math.isfinite(records[0].f_value)


def reference_scan(instance, jobs, cycle_delay_mode):
    """The per-worker scan the indexed engine replaced, kept as its reference.

    Returns the decision log, the sorted ids released before each job, and
    the exception type with the index of the job that raised it, if any.
    """
    workers = [w.copy() for w in instance.workers]
    rng = np.random.default_rng(instance.rng_seed)
    f, alpha = instance.f, instance.alpha
    log, releases = [], []
    for job_id, (x, now) in enumerate(jobs, start=1):
        released = []
        for w in workers:
            if w.state is WorkerState.BUSY and w.return_time <= now:
                w.release()
                released.append(w.id)
        releases.append(sorted(released))
        best = None
        try:
            for w in workers:
                if w.available:
                    value = eval_f(f, x, w.rate)
                    if value >= alpha and (best is None or (value, w.rate, w.id) < best[0]):
                        best = ((value, w.rate, w.id), w)
        except DomainError:
            return log, releases, (DomainError, job_id)
        if best is None:
            log.append(AssignmentRecord(job_id=job_id, threshold=alpha))
            continue
        (value, _rate, _id), w = best
        if math.isinf(w.cycle_rate):
            w.mark_assigned(None)
        elif cycle_delay_mode == "deterministic":
            w.mark_assigned(now + 1.0 / w.cycle_rate)
        else:
            w.mark_assigned(now + float(rng.exponential(1.0 / w.cycle_rate)))
        log.append(AssignmentRecord(job_id=job_id, threshold=alpha, worker_id=w.id, f_value=value))
    return log, releases, None


def engine_run(instance, jobs, cycle_delay_mode):
    state = PolicyState(instance, cycle_delay_mode=cycle_delay_mode)
    releases = []
    for job_id, (x, now) in enumerate(jobs, start=1):
        releases.append(release_returning_workers(state, now))
        try:
            assign_next(state, x, now)
        except DomainError:
            return state.log, releases, (DomainError, job_id)
    return state.log, releases, None


class TestEngineAgainstReferenceScan:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from([FunctionKind.PRODUCT, FunctionKind.RATIO]),
        mode=st.sampled_from(["deterministic", "exponential"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_same_decisions_rewards_and_releases(self, kind, mode, seed, data):
        if kind is FunctionKind.PRODUCT:
            f, lo = ThresholdFunction.product(Interval(0.0, 1.0)), 0.0
        else:
            f, lo = ThresholdFunction.ratio(Interval(0.01, 1.0)), 0.01
        # a few shared rates make duplicates, and so ties broken by id
        shared = data.draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
        rates = data.draw(
            st.lists(st.sampled_from(shared) | st.sampled_from(shared) | st.floats(0.01, 1.0), min_size=1, max_size=250)
        )
        ids = data.draw(st.permutations(range(1, len(rates) + 1)))
        cycles = data.draw(
            st.lists(
                st.sampled_from([math.inf, 1.0, 3.0]) | st.floats(0.5, 20.0),
                min_size=len(rates),
                max_size=len(rates),
            )
        )
        workers = tuple(Worker(id=i, rate=r, cycle_rate=c) for i, r, c in zip(ids, rates, cycles))
        values = data.draw(st.lists(st.floats(lo, 1.0), min_size=1, max_size=60))
        if data.draw(st.booleans()):
            position = data.draw(st.integers(0, len(values)))
            values.insert(position, data.draw(st.sampled_from([-0.5, 0.0, 1.5, math.nan])))
        gaps = data.draw(
            st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.2, 1.0]), min_size=len(values), max_size=len(values))
        )
        jobs = list(zip(values, np.cumsum(gaps).tolist()))
        # alphas read off f itself put the threshold exactly on a worker
        x0 = min(max(values[0], lo), 1.0) if values[0] == values[0] else lo
        alpha = data.draw(st.floats(-0.5, 2.0) | st.sampled_from([eval_f(f, x0, r) for r in shared]))
        instance = Instance(alpha=alpha, f=f, workers=workers, rng_seed=seed)

        expected = reference_scan(instance, jobs, mode)
        assert engine_run(instance, jobs, mode) == expected
        log, _releases, error = expected
        if error is None:
            records, reward = run_stream(instance, jobs, cycle_delay_mode=mode)
            assert records == log
            assert reward == sum(1 for r in log if r.assigned)
        else:
            with pytest.raises(error[0]):
                run_stream(instance, jobs, cycle_delay_mode=mode)
