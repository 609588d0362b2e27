"""Function kinds, domains, order checks, and the worker/record data model."""

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
    MissingEntry,
    Monotonicity,
    ThresholdFunction,
    Worker,
    WorkerState,
    check_order_preserving,
    default_probe_grid,
    eval_f,
    eval_f_array,
)
from tests.conftest import (
    NON_ORDER_PRESERVING_TABLE,
    TABULATED_JOBS,
    TABULATED_RATES,
    functions_jobs_rates,
    make_workers,
    outer_reference,
)


class TestInterval:
    def test_contains_includes_endpoints(self):
        omega = Interval(0.25, 0.75)
        assert omega.contains(0.25) and omega.contains(0.75)
        assert not omega.contains(0.25 - 1e-12)
        assert omega.strictly_contains(0.5)
        assert not omega.strictly_contains(0.75)
        assert omega.width == 0.5

    def test_degenerate_interval_is_allowed(self):
        assert Interval(1.0, 1.0).width == 0.0

    @pytest.mark.parametrize("lo,hi", [(1.0, 0.0), (0.0, float("nan")), (0.0, float("inf"))])
    def test_bad_endpoints_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    def test_grid_spans_interval(self):
        pts = Interval(0.0, 1.0).grid(5)
        assert pts[0] == 0.0 and pts[-1] == 1.0 and len(pts) == 5
        assert pts == sorted(pts)


class TestThresholdFunction:
    def test_product_evaluates_and_declares_monotonicity(self, product_f):
        assert product_f.kind is FunctionKind.PRODUCT
        assert product_f.monotonicity_in_x is Monotonicity.INCREASING
        assert eval_f(product_f, 0.275, 0.6) == pytest.approx(0.165)

    def test_product_requires_nonnegative_domain(self):
        with pytest.raises(ValueError):
            ThresholdFunction.product(Interval(-0.5, 1.0))

    def test_ratio_evaluates_and_declares_monotonicity(self):
        f = ThresholdFunction.ratio(Interval(0.5, 2.0))
        assert f.monotonicity_in_x is Monotonicity.DECREASING
        assert eval_f(f, 2.0, 0.5) == pytest.approx(0.25)

    def test_ratio_requires_positive_domain(self):
        with pytest.raises(ValueError):
            ThresholdFunction.ratio(Interval(0.0, 1.0))

    def test_domain_gate(self, product_f):
        with pytest.raises(DomainError):
            eval_f(product_f, 1.5, 0.5)
        with pytest.raises(DomainError):
            eval_f(product_f, -0.1, 0.5)

    def test_tabulated_lookup_and_missing_entry(self, tabulated_f):
        assert eval_f(tabulated_f, 2.0, 0.5) == 0.1
        with pytest.raises(MissingEntry):
            eval_f(tabulated_f, 1.5, 0.5)

    def test_tabulated_domain_is_inferred_from_jobs(self, tabulated_f):
        assert tabulated_f.domain == Interval(1.0, 3.0)
        assert tuple(tabulated_f.job_values()) == TABULATED_JOBS

    def test_tabulated_requires_entries(self):
        with pytest.raises(ValueError):
            ThresholdFunction.tabulated({})

    def test_analytic_kinds_do_not_enumerate_tables(self, product_f):
        with pytest.raises(ValueError):
            product_f.job_values()


def outcome(compute):
    """The computed values as nested lists, or the error type and message."""
    try:
        return compute()
    except (DomainError, MissingEntry) as exc:
        return type(exc), str(exc)


class TestArrayEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(case=functions_jobs_rates())
    def test_outer_product_matches_pairwise_eval(self, case):
        f, xs, ps = case
        expected = outcome(lambda: outer_reference(f, xs, ps))
        got = outcome(lambda: eval_f_array(f, np.asarray(xs)[:, None], np.asarray(ps)[None, :]).tolist())
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(case=functions_jobs_rates())
    def test_elementwise_matches_pairwise_eval(self, case):
        f, xs, ps = case
        n = min(len(xs), len(ps))
        xs, ps = xs[:n], ps[:n]

        def reference():
            outer_reference(f, xs, [])  # the domain check on every job value
            return [eval_f(f, x, p) for x, p in zip(xs, ps)]

        expected = outcome(reference)
        got = outcome(lambda: eval_f_array(f, xs, ps).tolist())
        assert got == expected

    def test_scalar_job_against_rate_list(self, product_f):
        assert eval_f_array(product_f, 0.5, [0.2, 0.4]).tolist() == [0.1, 0.2]


class TestJobBoundary:
    @pytest.mark.parametrize(
        "f",
        [ThresholdFunction.product(Interval(0.0, 1.0)), ThresholdFunction.ratio(Interval(0.1, 2.0))],
        ids=["product", "ratio"],
    )
    def test_boundary_meets_the_threshold(self, f):
        x = f.job_boundary(0.3, 0.6)
        assert eval_f(f, x, 0.6) == pytest.approx(0.3)

    def test_tabulated_has_no_boundary(self, tabulated_f):
        with pytest.raises(ValueError):
            tabulated_f.job_boundary(0.1, 0.5)


class TestOrderCheck:
    def test_product_is_order_preserving(self, product_f):
        check = check_order_preserving(product_f, [0.1, 0.5, 0.9], [0.4, 0.5, 0.6])
        assert check.preserving and check.witness is None

    def test_ratio_is_order_preserving(self):
        f = ThresholdFunction.ratio(Interval(0.1, 1.0))
        check = check_order_preserving(f, [0.1, 0.5, 1.0], [0.2, 0.9])
        assert check.preserving

    def test_tabulated_counterexample_yields_witness(self, tabulated_f):
        check = check_order_preserving(tabulated_f, TABULATED_JOBS, TABULATED_RATES)
        assert not check.preserving
        w = check.witness
        assert w is not None
        # any reported witness must be a genuine strict reversal
        a_u, a_v = eval_f(tabulated_f, w.x_a, w.p_u), eval_f(tabulated_f, w.x_a, w.p_v)
        b_u, b_v = eval_f(tabulated_f, w.x_b, w.p_u), eval_f(tabulated_f, w.x_b, w.p_v)
        assert (a_u - a_v) * (b_u - b_v) < 0

    def test_ties_are_not_violations(self):
        table = {(1.0, 0.2): 0.5, (2.0, 0.2): 0.1, (1.0, 0.8): 0.5, (2.0, 0.8): 0.3}
        f = ThresholdFunction.tabulated(table)
        assert check_order_preserving(f, [1.0, 2.0], [0.2, 0.8]).preserving

    def test_probe_grid_covers_table_and_observations(self, tabulated_f, product_f):
        assert default_probe_grid(tabulated_f) == list(TABULATED_JOBS)
        grid = default_probe_grid(product_f, observed=[0.123])
        assert 0.123 in grid
        assert grid == sorted(grid)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_empty_probes_rejected(self, product_f):
        with pytest.raises(ValueError):
            check_order_preserving(product_f, [], [0.5])
        with pytest.raises(ValueError):
            check_order_preserving(product_f, [0.5], [])

    @settings(max_examples=60, deadline=None)
    @given(
        rates=st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=1, max_size=5, unique=True
        ),
        jobs=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=5, unique=True
        ),
    )
    def test_analytic_kinds_always_preserve_order(self, rates, jobs):
        product = ThresholdFunction.product(Interval(0.0, 1.0))
        assert check_order_preserving(product, jobs, rates).preserving
        ratio = ThresholdFunction.ratio(Interval(0.01, 1.0))
        ratio_jobs = [max(j, 0.01) for j in jobs]
        assert check_order_preserving(ratio, ratio_jobs, rates).preserving

    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5]), min_size=6, max_size=6
        )
    )
    def test_tabulated_verdict_matches_pairwise_scan(self, values):
        jobs, rates = (1.0, 2.0, 3.0), (0.25, 0.5)
        table = {
            (x, p): values[i * len(rates) + j]
            for i, x in enumerate(jobs)
            for j, p in enumerate(rates)
        }
        f = ThresholdFunction.tabulated(table)
        check = check_order_preserving(f, jobs, rates)
        diffs = [table[(x, 0.25)] - table[(x, 0.5)] for x in jobs]
        has_reversal = any(
            da * db < 0 for da in diffs for db in diffs
        )
        assert check.preserving == (not has_reversal)


class TestWorkers:
    def test_rate_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError):
            Worker(id=1, rate=0.0)
        with pytest.raises(ValueError):
            Worker(id=1, rate=1.2)
        assert Worker(id=1, rate=1.0).state is WorkerState.AVAILABLE

    def test_single_use_worker_is_consumed(self):
        w = Worker(id=1, rate=0.5)
        w.mark_assigned(None)
        assert w.state is WorkerState.CONSUMED and w.return_time is None
        with pytest.raises(ValueError):
            w.release()
        with pytest.raises(ValueError):
            w.mark_assigned(None)

    def test_cycling_worker_goes_busy_then_returns(self):
        w = Worker(id=1, rate=0.5, cycle_rate=2.0)
        w.mark_assigned(1.5)
        assert w.state is WorkerState.BUSY and w.return_time == 1.5
        w.release()
        assert w.state is WorkerState.AVAILABLE and w.return_time is None

    def test_copy_is_independent(self):
        w = Worker(id=1, rate=0.5, cycle_rate=2.0)
        clone = w.copy()
        clone.mark_assigned(1.0)
        assert w.state is WorkerState.AVAILABLE

    def test_instance_requires_unique_ids(self, product_f):
        with pytest.raises(ValueError):
            Instance(
                alpha=0.1,
                f=product_f,
                workers=(Worker(id=1, rate=0.5), Worker(id=1, rate=0.6)),
            )

    def test_instance_workers_allow_any_cycle_rate(self, product_f):
        inst = Instance(alpha=0.1, f=product_f, workers=make_workers([0.5], cycle_rate=3.0))
        assert inst.workers[0].cycle_rate == 3.0


class TestRecords:
    def test_assigned_and_rejected_records(self):
        hit = AssignmentRecord(job_id=1, threshold=0.1, worker_id=2, f_value=0.25)
        miss = AssignmentRecord(job_id=2, threshold=0.1)
        assert hit.assigned and not miss.assigned

    def test_fields_must_pair_up(self):
        with pytest.raises(ValueError):
            AssignmentRecord(job_id=1, threshold=0.1, worker_id=2, f_value=None)
        with pytest.raises(ValueError):
            AssignmentRecord(job_id=1, threshold=0.1, worker_id=None, f_value=0.3)

    def test_assigned_record_must_clear_threshold(self):
        with pytest.raises(ValueError):
            AssignmentRecord(job_id=1, threshold=0.5, worker_id=1, f_value=0.4)



def test_exact_float_table_keys_do_not_round():
    table = {(0.25, 0.5): 0.0, (0.1 + 0.2, 0.5): 1.0, (1.0, 0.5): 2.0}
    f = ThresholdFunction.tabulated(table)
    assert eval_f(f, 0.1 + 0.2, 0.5) == 1.0
    with pytest.raises(MissingEntry):
        eval_f(f, 0.3, 0.5)


def test_function_is_immutable(product_f):
    with pytest.raises(AttributeError):
        product_f.kind = FunctionKind.RATIO


def test_nan_job_value_is_outside_every_domain(product_f):
    with pytest.raises(DomainError):
        eval_f(product_f, math.nan, 0.5)
