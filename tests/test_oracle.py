"""Offline optima: feasibility graph, exhaustive search, matching oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstap import (
    DomainError,
    MissingEntry,
    FeasibilityGraph,
    Instance,
    Interval,
    ThresholdFunction,
    TooLarge,
    Worker,
    offline_optimum_exhaustive,
    offline_optimum_matching,
    run_stream,
)
from sstap.oracle import EXHAUSTIVE_LIMIT
from tests.conftest import (
    PRODUCT_ALPHA,
    PRODUCT_JOBS,
    PRODUCT_RATES,
    TABULATED_ALPHA,
    TABULATED_JOBS,
    TABULATED_RATES,
    functions_jobs_rates,
    make_workers,
    outer_reference,
)


def graph_of(rows):
    return FeasibilityGraph(np.array(rows, dtype=bool))


class TestFeasibilityGraph:
    def test_product_edges(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        graph = FeasibilityGraph.build([0.2, 0.9], [0.5, 1.0], f, alpha=0.4)
        assert graph.mask.tolist() == [[False, False], [True, True]]
        assert graph.edges.tolist() == [[1, 0], [1, 1]]

    def test_ratio_edges(self):
        f = ThresholdFunction.ratio(Interval(0.1, 1.0))
        graph = FeasibilityGraph.build([0.1, 1.0], [0.2, 0.9], f, alpha=1.0)
        # p/x >= 1 iff p >= x
        assert graph.mask.tolist() == [[True, True], [False, False]]

    def test_tabulated_edges(self, tabulated_f):
        graph = FeasibilityGraph.build(
            TABULATED_JOBS, TABULATED_RATES, tabulated_f, alpha=TABULATED_ALPHA
        )
        # f(2.0, 0.5) = 0.1 >= 0.1, boundary included; the rest of job 2.0 falls short
        assert graph.mask[1].tolist() == [False, True, False]

    def test_edges_are_pairs_in_row_major_order(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        graph = FeasibilityGraph.build([0.9, 0.5, 0.9], [0.9, 0.5, 0.7], f, alpha=0.4)
        assert graph.edges.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [2, 0], [2, 1], [2, 2]]
        assert len(graph.edges) == int(graph.mask.sum())

    @pytest.mark.parametrize("mask", [[True, False], [[[True]]], True], ids=["1-D", "3-D", "scalar"])
    def test_mask_that_is_not_2d_rejected(self, mask):
        with pytest.raises(ValueError, match="2-D"):
            FeasibilityGraph(np.array(mask))

    def test_mask_is_a_read_only_boolean_copy(self):
        source = np.array([[1, 0], [0, 2]])
        graph = FeasibilityGraph(source)
        source[0, 1] = 1
        assert graph.mask.dtype == bool
        assert graph.mask.tolist() == [[True, False], [False, True]]
        with pytest.raises(ValueError):
            graph.mask[0, 1] = True

    def test_domain_violations_surface(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            FeasibilityGraph.build([1.5], [0.5], f, alpha=0.1)

    def test_empty_sides_give_an_empty_graph(self, product_f, tabulated_f):
        for f in (product_f, tabulated_f):
            assert FeasibilityGraph.build([], [0.5], f, 0.1).mask.shape == (0, 1)
            assert FeasibilityGraph.build([1.0], [], f, 0.1).mask.shape == (1, 0)
            assert len(FeasibilityGraph.build([], [0.5], f, 0.1).edges) == 0
            assert len(FeasibilityGraph.build([1.0], [], f, 0.1).edges) == 0

    @settings(max_examples=300, deadline=None)
    @given(case=functions_jobs_rates(), alpha=st.floats(-0.5, 2.0))
    def test_matches_pairwise_eval(self, case, alpha):
        f, xs, ps = case
        try:
            values = outer_reference(f, xs, ps)
        except (DomainError, MissingEntry) as exc:
            with pytest.raises(type(exc)):
                FeasibilityGraph.build(xs, ps, f, alpha)
            return
        graph = FeasibilityGraph.build(xs, ps, f, alpha)
        assert graph.mask.shape == (len(xs), len(ps))
        assert graph.mask.tolist() == [[value >= alpha for value in row] for row in values]


def exhaustive(jobs, rates, f, alpha):
    return offline_optimum_exhaustive(FeasibilityGraph.build(jobs, rates, f, alpha))


class TestExhaustive:
    def test_golden_product_instance(self, product_f):
        assert exhaustive(PRODUCT_JOBS, PRODUCT_RATES, product_f, PRODUCT_ALPHA) == 3

    def test_beats_greedy_on_counterexample(self, tabulated_f, tabulated_instance):
        best = exhaustive(TABULATED_JOBS, TABULATED_RATES, tabulated_f, TABULATED_ALPHA)
        _, greedy = run_stream(
            tabulated_instance,
            [(x, 0.0) for x in TABULATED_JOBS],
            force_non_order_preserving=True,
        )
        assert (greedy, best) == (2, 3)

    def test_empty_problem(self, product_f):
        assert exhaustive([], [0.5], product_f, 0.1) == 0
        assert exhaustive([0.5], [], product_f, 0.1) == 0
        # a job outside the domain is refused even with no worker to pair it with
        with pytest.raises(DomainError):
            exhaustive([1.5], [], product_f, 0.1)

    def test_guard_against_oversized_instances(self):
        with pytest.raises(TooLarge):
            offline_optimum_exhaustive(graph_of(np.ones((9, 3))))
        with pytest.raises(TooLarge):
            offline_optimum_exhaustive(graph_of(np.ones((3, 9))))

    def test_matches_permutation_enumeration(self, product_f):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            jobs = rng.uniform(0.0, 1.0, n).tolist()
            rates = rng.uniform(0.01, 1.0, m).tolist()
            alpha = float(rng.uniform(0.0, 0.8))
            got = exhaustive(jobs, rates, product_f, alpha)
            best = 0
            k = min(n, m)
            for jobs_subset in itertools.permutations(range(n), k):
                for rates_subset in itertools.combinations(range(m), k):
                    hits = sum(
                        1
                        for ji, wi in zip(jobs_subset, rates_subset)
                        if jobs[ji] * rates[wi] >= alpha
                    )
                    best = max(best, hits)
            assert got == best


class TestMatching:
    def test_agrees_with_exhaustive_on_small_instances(self, product_f):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            jobs = rng.uniform(0.0, 1.0, n).tolist()
            rates = rng.uniform(0.01, 1.0, m).tolist()
            alpha = float(rng.uniform(0.0, 0.8))
            graph = FeasibilityGraph.build(jobs, rates, product_f, alpha)
            assert offline_optimum_matching(graph) == offline_optimum_exhaustive(graph)

    def test_agrees_with_exhaustive_on_random_masks(self):
        # product and ratio graphs are nested; arbitrary masks need real augmenting paths
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(0, EXHAUSTIVE_LIMIT + 1))
            m = int(rng.integers(0, EXHAUSTIVE_LIMIT + 1))
            graph = graph_of(rng.random((n, m)) < rng.uniform(0.1, 0.6))
            assert offline_optimum_matching(graph) == offline_optimum_exhaustive(graph)

    def test_counterexample_graph(self, tabulated_f):
        graph = FeasibilityGraph.build(
            TABULATED_JOBS, TABULATED_RATES, tabulated_f, TABULATED_ALPHA
        )
        assert offline_optimum_matching(graph) == 3

    def test_large_instance(self):
        rng = np.random.default_rng(17)
        n = 500
        f = ThresholdFunction.ratio(Interval(1e-6, 1.0))
        jobs = rng.uniform(1e-6, 1.0, n).tolist()
        rates = [i / n for i in range(1, n + 1)]
        graph = FeasibilityGraph.build(jobs, rates, f, alpha=2.0)
        matched = offline_optimum_matching(graph)
        inst = Instance(alpha=2.0, f=f, workers=make_workers(rates))
        _, greedy = run_stream(inst, [(x, 0.0) for x in jobs])
        assert matched == greedy

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize(
        "f,alpha",
        [
            (ThresholdFunction.product(Interval(0.0, 1.0)), 0.25),
            (ThresholdFunction.ratio(Interval(0.01, 1.0)), 1.0),
        ],
        ids=["product", "ratio"],
    )
    def test_greedy_stream_is_optimal_at_a_thousand(self, f, alpha, seed):
        rng = np.random.default_rng(seed)
        n = 1000
        jobs = rng.uniform(f.domain.lo, f.domain.hi, n).tolist()
        rates = [i / n for i in range(1, n + 1)]
        _, greedy = run_stream(Instance(alpha=alpha, f=f, workers=make_workers(rates)), [(x, 0.0) for x in jobs])
        assert greedy == offline_optimum_matching(FeasibilityGraph.build(jobs, rates, f, alpha))

    def test_disconnected_graph(self):
        assert offline_optimum_matching(graph_of(np.zeros((3, 2)))) == 0

    def test_augmenting_path_longer_than_recursion_limit(self):
        # jobs 0..n-2 take workers 0..n-2 first; the last job's only edge,
        # worker 0, then needs an augmenting path through all of them
        n = 3000
        mask = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        mask[n - 1] = False
        mask[n - 1, 0] = True
        assert offline_optimum_matching(graph_of(mask)) == n
