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


class TestFeasibilityGraph:
    def test_product_edges(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        graph = FeasibilityGraph.build([0.2, 0.9], [0.5, 1.0], f, alpha=0.4)
        assert graph.n_jobs == 2 and graph.n_workers == 2
        assert graph.edges == frozenset({(1, 0), (1, 1)})

    def test_ratio_edges(self):
        f = ThresholdFunction.ratio(Interval(0.1, 1.0))
        graph = FeasibilityGraph.build([0.1, 1.0], [0.2, 0.9], f, alpha=1.0)
        # p/x >= 1 iff p >= x
        assert graph.edges == frozenset({(0, 0), (0, 1)})

    def test_tabulated_edges(self, tabulated_f):
        graph = FeasibilityGraph.build(
            TABULATED_JOBS, TABULATED_RATES, tabulated_f, alpha=TABULATED_ALPHA
        )
        assert (1, 1) in graph.edges  # f(2.0, 0.5) = 0.1 >= 0.1, boundary included
        assert (1, 0) not in graph.edges
        assert (1, 2) not in graph.edges

    def test_adjacency_lists_are_sorted(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        graph = FeasibilityGraph.build([0.9, 0.9], [0.9, 0.5, 0.7], f, alpha=0.4)
        assert graph.adjacency() == [[0, 1, 2], [0, 1, 2]]

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(ValueError):
            FeasibilityGraph(n_jobs=1, n_workers=1, edges=frozenset({(1, 0)}))

    def test_domain_violations_surface(self):
        f = ThresholdFunction.product(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            FeasibilityGraph.build([1.5], [0.5], f, alpha=0.1)

    def test_empty_sides_give_an_empty_graph(self, product_f, tabulated_f):
        for f in (product_f, tabulated_f):
            assert FeasibilityGraph.build([], [0.5], f, 0.1).edges == frozenset()
            assert FeasibilityGraph.build([1.0], [], f, 0.1).edges == frozenset()

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
        assert (graph.n_jobs, graph.n_workers) == (len(xs), len(ps))
        assert graph.edges == {
            (i, j) for i, row in enumerate(values) for j, value in enumerate(row) if value >= alpha
        }


class TestExhaustive:
    def test_golden_product_instance(self, product_f):
        assert (
            offline_optimum_exhaustive(
                PRODUCT_JOBS, PRODUCT_RATES, product_f, PRODUCT_ALPHA
            )
            == 3
        )

    def test_beats_greedy_on_counterexample(self, tabulated_f, tabulated_instance):
        best = offline_optimum_exhaustive(
            TABULATED_JOBS, TABULATED_RATES, tabulated_f, TABULATED_ALPHA
        )
        _, greedy = run_stream(
            tabulated_instance,
            [(x, 0.0) for x in TABULATED_JOBS],
            force_non_order_preserving=True,
        )
        assert (greedy, best) == (2, 3)

    def test_empty_problem(self, product_f):
        assert offline_optimum_exhaustive([], [0.5], product_f, 0.1) == 0
        assert offline_optimum_exhaustive([0.5], [], product_f, 0.1) == 0

    def test_guard_against_oversized_instances(self, product_f):
        jobs = [0.5] * 9
        with pytest.raises(TooLarge):
            offline_optimum_exhaustive(jobs, [0.5] * 3, product_f, 0.1)
        with pytest.raises(TooLarge):
            offline_optimum_exhaustive([0.5] * 3, [0.5] * 9, product_f, 0.1)

    def test_matches_permutation_enumeration(self, product_f):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            jobs = rng.uniform(0.0, 1.0, n).tolist()
            rates = rng.uniform(0.01, 1.0, m).tolist()
            alpha = float(rng.uniform(0.0, 0.8))
            got = offline_optimum_exhaustive(jobs, rates, product_f, alpha)
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
            assert offline_optimum_matching(graph) == offline_optimum_exhaustive(
                jobs, rates, product_f, alpha
            )

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

    def test_disconnected_graph(self):
        graph = FeasibilityGraph(n_jobs=3, n_workers=2, edges=frozenset())
        assert offline_optimum_matching(graph) == 0

    def test_augmenting_path_longer_than_recursion_limit(self):
        # jobs 0..n-2 take workers 0..n-2 first; the last job's only edge,
        # worker 0, then needs an augmenting path through all of them
        n = 3000
        edges = {(i, i) for i in range(n - 1)} | {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0)}
        graph = FeasibilityGraph(n_jobs=n, n_workers=n, edges=frozenset(edges))
        assert offline_optimum_matching(graph) == n
