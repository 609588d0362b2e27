"""Random-rate variant: expected rewards, probability matrices, matching."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from sstap import (
    BadSpec,
    DistKind,
    DistributionSpec,
    Interval,
    ProbabilityMatrix,
    Provenance,
    Side,
    ThresholdFunction,
    build_reward_maximizing_mixture,
    estimate_prob_matrix,
    expected_reward_case1,
    hungarian_max,
    simulate_case1_realized,
)

GOLDEN_RATES = (0.4, 0.5, 0.6, 0.7)
GOLDEN_CASE1_VALUE = math.fsum(1.0 - 0.15 / p for p in GOLDEN_RATES)


def product_unit():
    return ThresholdFunction.product(Interval(0.0, 1.0))


def truncated_gaussian_survival(center, sigma, omega, t):
    """Pr(X >= t) for a one-center truncated Gaussian, via the error function."""

    def cdf(x):
        return 0.5 * (1.0 + math.erf((x - center) / (sigma * math.sqrt(2.0))))

    mass = cdf(omega.hi) - cdf(omega.lo)
    return (cdf(omega.hi) - cdf(max(t, omega.lo))) / mass


def exact_two_by_two():
    """Specs whose pass counts realize [[0.9, 0.2], [0.3, 0.8]] exactly."""
    job1 = [1.0 + 0.01 * k for k in range(10)]
    job2 = [2.0 + 0.01 * k for k in range(10)]
    rates = (0.25, 0.75)
    passes = {0.25: (9, 3), 0.75: (2, 8)}
    table = {}
    for p in rates:
        for row, atoms in enumerate((job1, job2)):
            for k, x in enumerate(atoms):
                table[(x, p)] = 1.0 if k < passes[p][row] else 0.0
    f = ThresholdFunction.tabulated(table)
    g_x = [DistributionSpec.empirical(job1), DistributionSpec.empirical(job2)]
    g_p = [DistributionSpec.point_mass(p) for p in rates]
    return g_x, g_p, f


class TestDistributionSpec:
    def test_uniform_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            DistributionSpec.uniform(0.5, 0.5)
        spec = DistributionSpec.uniform(0.2, 0.8)
        assert spec.kind is DistKind.UNIFORM
        assert spec.support() == (0.2, 0.8)
        assert spec.atoms() is None

    def test_point_mass(self):
        spec = DistributionSpec.point_mass(0.4)
        assert spec.support() == (0.4, 0.4)
        assert spec.atoms() == (0.4,)
        assert np.all(spec.sample(np.random.default_rng(0), 5) == 0.4)

    def test_empirical_keeps_multiplicity(self):
        spec = DistributionSpec.empirical([0.2, 0.2, 0.8])
        assert spec.atoms() == (0.2, 0.2, 0.8)
        assert spec.support() == (0.2, 0.8)
        with pytest.raises(ValueError):
            DistributionSpec.empirical([])

    def test_gaussian_mixture_wraps_spec(self):
        mixture = build_reward_maximizing_mixture(
            [0.5], Side.UPPER, sigma=0.1, omega=Interval(0.0, 1.0)
        )
        spec = DistributionSpec.gaussian_mixture(mixture)
        assert spec.support() == (0.0, 1.0)
        draws = spec.sample(np.random.default_rng(1), 256)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_sampling_is_generator_driven(self):
        spec = DistributionSpec.uniform(0.0, 1.0)
        a = spec.sample(np.random.default_rng(7), 16)
        b = spec.sample(np.random.default_rng(7), 16)
        assert np.array_equal(a, b)


class TestExpectedRewardCase1:
    def test_zero_threshold_counts_every_worker(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.uniform(0.1, 1.0)] * 5
        value, std_error = expected_reward_case1(g_x, g_p, product_unit(), 0.0)
        assert value == 5.0 and std_error == 0.0

    def test_unit_point_mass_rates(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.point_mass(1.0)] * 6
        value, std_error = expected_reward_case1(g_x, g_p, product_unit(), 0.5)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert std_error == 0.0

    def test_golden_closed_form(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.point_mass(p) for p in GOLDEN_RATES]
        value, std_error = expected_reward_case1(g_x, g_p, product_unit(), 0.15)
        assert value == GOLDEN_CASE1_VALUE
        assert value == pytest.approx(2.8607142857142858, abs=1e-15)
        assert std_error == 0.0

    def test_monte_carlo_tracks_closed_form(self):
        omega = Interval(0.0, 1.0)
        mixture = build_reward_maximizing_mixture(
            [0.6], Side.UPPER, sigma=0.05, omega=omega
        )
        g_x = DistributionSpec.gaussian_mixture(mixture)
        g_p = [DistributionSpec.point_mass(1.0)] * 3
        value, std_error = expected_reward_case1(
            g_x, g_p, product_unit(), 0.5, mc=(40_000, 9)
        )
        assert std_error > 0.0
        truth = 3.0 * truncated_gaussian_survival(
            mixture.centers[0], mixture.sigma, omega, 0.5
        )
        assert abs(value - truth) <= 4.0 * std_error

    def test_sample_floor_enforced(self):
        mixture = build_reward_maximizing_mixture(
            [0.6], Side.UPPER, sigma=0.05, omega=Interval(0.0, 1.0)
        )
        g_x = DistributionSpec.gaussian_mixture(mixture)
        g_p = [DistributionSpec.point_mass(1.0)]
        with pytest.raises(ValueError):
            expected_reward_case1(g_x, g_p, product_unit(), 0.5, mc=(999, 0))

    def test_job_support_must_fit_domain(self):
        g_x = DistributionSpec.uniform(-0.5, 0.5)
        g_p = [DistributionSpec.point_mass(0.5)]
        with pytest.raises(BadSpec):
            expected_reward_case1(g_x, g_p, product_unit(), 0.1)

    def test_rate_support_must_fit_unit_interval(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        for bad in (DistributionSpec.uniform(0.0, 1.0), DistributionSpec.point_mass(1.5)):
            with pytest.raises(BadSpec):
                expected_reward_case1(g_x, [bad], product_unit(), 0.1)

    def test_tabulated_function_needs_atomic_specs(self):
        f = ThresholdFunction.tabulated({(0.4, 0.5): 1.0, (0.6, 0.5): 0.0})
        g_x = DistributionSpec.uniform(0.45, 0.55)
        with pytest.raises(BadSpec):
            expected_reward_case1(g_x, [DistributionSpec.point_mass(0.5)], f, 0.5)

    def test_tabulated_monte_carlo_beyond_exact_cap(self):
        # 1001 x 1000 atom pairs exceed the exact cap; half of them pass
        f = ThresholdFunction.tabulated({(1.0, 0.25): 1.0, (1.0, 0.75): 0.0, (2.0, 0.25): 0.0, (2.0, 0.75): 1.0})
        g_x = DistributionSpec.empirical([1.0, 2.0] * 500 + [1.0])
        g_p = [DistributionSpec.empirical([0.25, 0.75] * 500)]
        value, std_error = expected_reward_case1(g_x, g_p, f, 0.5, mc=(4_000, 3))
        assert std_error > 0.0
        assert abs(value - 0.5) <= 4.0 * std_error
        mean, se = simulate_case1_realized(g_x, g_p * 2, f, 0.5, [1, 0], 2_000, 5)
        assert abs(mean - 1.0) <= 4.0 * se

    def test_uniform_rates_closed_form(self):
        # product: Pr(X * P >= alpha) with X ~ U(0,1), P ~ U(ap, bp)
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.uniform(0.5, 1.0)]
        alpha = 0.25
        value, std_error = expected_reward_case1(g_x, g_p, product_unit(), alpha)
        assert std_error == 0.0
        rng = np.random.default_rng(12)
        xs = rng.uniform(0.0, 1.0, 500_000)
        ps = rng.uniform(0.5, 1.0, 500_000)
        assert value == pytest.approx(float((xs * ps >= alpha).mean()), abs=4e-3)


class TestEstimateProbMatrix:
    def test_point_mass_pairs_are_indicators(self):
        g_x = [DistributionSpec.point_mass(0.3), DistributionSpec.point_mass(0.9)]
        g_p = [DistributionSpec.point_mass(0.5), DistributionSpec.point_mass(1.0)]
        matrix = estimate_prob_matrix(g_x, g_p, product_unit(), 0.45)
        assert matrix.provenance is Provenance.CLOSED_FORM
        assert matrix.entries.tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert not matrix.std_error.any()

    def test_uniform_jobs_point_rates_closed_form(self):
        alpha = 0.15
        g_x = [DistributionSpec.uniform(0.0, 1.0)] * 4
        g_p = [DistributionSpec.point_mass(p) for p in GOLDEN_RATES]
        matrix = estimate_prob_matrix(g_x, g_p, product_unit(), alpha)
        assert matrix.provenance is Provenance.CLOSED_FORM
        for j, p in enumerate(GOLDEN_RATES):
            expected = min(max(1.0 - alpha / p, 0.0), 1.0)
            for i in range(4):
                assert matrix.entries[i, j] == pytest.approx(expected, abs=1e-12)

    def test_exact_two_by_two_target(self):
        g_x, g_p, f = exact_two_by_two()
        matrix = estimate_prob_matrix(g_x, g_p, f, 0.5)
        assert matrix.provenance is Provenance.CLOSED_FORM
        assert matrix.entries.tolist() == [[0.9, 0.2], [0.3, 0.8]]
        assert not matrix.std_error.any()

    def test_monte_carlo_provenance_when_any_entry_sampled(self):
        mixture = build_reward_maximizing_mixture(
            [0.5], Side.UPPER, sigma=0.05, omega=Interval(0.0, 1.0)
        )
        g_x = [
            DistributionSpec.uniform(0.0, 1.0),
            DistributionSpec.gaussian_mixture(mixture),
        ]
        g_p = [DistributionSpec.point_mass(0.8), DistributionSpec.point_mass(0.9)]
        matrix = estimate_prob_matrix(g_x, g_p, product_unit(), 0.4, mc=(5_000, 3))
        assert matrix.provenance is Provenance.MONTE_CARLO
        assert not matrix.std_error[0].any()  # uniform row stays closed-form
        assert (matrix.std_error[1] > 0).all()

    def test_rerun_is_bit_identical(self):
        mixture = build_reward_maximizing_mixture(
            [0.5], Side.UPPER, sigma=0.05, omega=Interval(0.0, 1.0)
        )
        g_x = [DistributionSpec.gaussian_mixture(mixture)] * 2
        g_p = [DistributionSpec.point_mass(0.7)] * 2
        first = estimate_prob_matrix(g_x, g_p, product_unit(), 0.3, mc=(2_000, 5))
        second = estimate_prob_matrix(g_x, g_p, product_unit(), 0.3, mc=(2_000, 5))
        assert np.array_equal(first.entries, second.entries)
        assert np.array_equal(first.std_error, second.std_error)

    def test_case1_equals_matrix_row_sum(self):
        mixture = build_reward_maximizing_mixture(
            [0.55], Side.UPPER, sigma=0.08, omega=Interval(0.0, 1.0)
        )
        g_x = DistributionSpec.gaussian_mixture(mixture)
        g_p = [
            DistributionSpec.point_mass(0.6),
            DistributionSpec.point_mass(0.8),
            DistributionSpec.point_mass(1.0),
        ]
        mc = (4_000, 21)
        value, std_error = expected_reward_case1(g_x, g_p, product_unit(), 0.5, mc=mc)
        matrix = estimate_prob_matrix([g_x] * 3, g_p, product_unit(), 0.5, mc=mc)
        # row 0 of a shared-job matrix reuses the per-term streams exactly
        assert value == math.fsum(matrix.entries[0].tolist())
        assert std_error == math.sqrt(
            math.fsum(e * e for e in matrix.std_error[0].tolist())
        )

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            ProbabilityMatrix(
                entries=np.array([[0.5, 1.5], [0.2, 0.1]]),
                std_error=np.zeros((2, 2)),
                provenance=Provenance.CLOSED_FORM,
                samples=0,
                seed=0,
            )
        with pytest.raises(ValueError):
            ProbabilityMatrix(
                entries=np.zeros((2, 3)),
                std_error=np.zeros((2, 3)),
                provenance=Provenance.CLOSED_FORM,
                samples=0,
                seed=0,
            )

    def test_csv_serialization(self):
        g_x, g_p, f = exact_two_by_two()
        matrix = estimate_prob_matrix(g_x, g_p, f, 0.5)
        lines = matrix.csv_text().splitlines()
        assert lines[0] == "i,j,w,std_error"
        assert lines[1] == "0,0,0.9,0.0"
        assert len(lines) == 5

    def test_error_halves_when_samples_quadruple(self):
        mixture = build_reward_maximizing_mixture(
            [0.5], Side.UPPER, sigma=0.1, omega=Interval(0.0, 1.0)
        )
        g_x = [DistributionSpec.gaussian_mixture(mixture)]
        g_p = [DistributionSpec.point_mass(1.0)]

        def err(samples, seed):
            matrix = estimate_prob_matrix(
                g_x, g_p, product_unit(), 0.5, mc=(samples, seed)
            )
            return float(matrix.std_error[0, 0])

        base = 20_000
        ratios_quad = [err(4 * base, s) / err(base, s) for s in range(6)]
        mean_quad = sum(ratios_quad) / len(ratios_quad)
        assert abs(mean_quad - 0.5) <= 0.1  # quadrupling halves the error
        ratios_double = [err(2 * base, s) / err(base, s) for s in range(6)]
        mean_double = sum(ratios_double) / len(ratios_double)
        # doubling shrinks it by 1/sqrt(2), not by half
        assert abs(mean_double - 1.0 / math.sqrt(2.0)) <= 0.1


class TestHungarian:
    def test_two_by_two_example(self):
        assignment, total = hungarian_max([[0.9, 0.2], [0.3, 0.8]])
        assert assignment == (0, 1)
        assert total == pytest.approx(1.7, abs=1e-9)

    def test_identity_matrix(self):
        n = 5
        weights = np.eye(n)
        assignment, total = hungarian_max(weights)
        assert assignment == tuple(range(n))
        assert total == pytest.approx(float(n), abs=1e-12)

    def test_accepts_probability_matrix(self):
        g_x, g_p, f = exact_two_by_two()
        matrix = estimate_prob_matrix(g_x, g_p, f, 0.5)
        assignment, total = hungarian_max(matrix)
        assert assignment == (0, 1)
        assert total == pytest.approx(1.7, abs=1e-9)

    def test_requires_square_finite_weights(self):
        with pytest.raises(ValueError):
            hungarian_max([[0.1, 0.2]])
        with pytest.raises(ValueError):
            hungarian_max([[0.1, math.inf], [0.2, 0.3]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            weights = rng.uniform(0.0, 1.0, (n, n))
            assignment, total = hungarian_max(weights)
            assert sorted(assignment) == list(range(n))
            best = max(
                math.fsum(weights[i, perm[i]] for i in range(n))
                for perm in itertools.permutations(range(n))
            )
            assert total == pytest.approx(best, abs=1e-9)
            assert total == pytest.approx(
                math.fsum(weights[i, assignment[i]] for i in range(n)), abs=1e-12
            )

    def test_dominates_random_permutations(self):
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.0, 1.0, (12, 12))
        _, total = hungarian_max(weights)
        for _ in range(100):
            perm = rng.permutation(12)
            assert total >= math.fsum(weights[i, perm[i]] for i in range(12)) - 1e-12


class TestSimulateCase1:
    def test_permutation_validated(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.point_mass(0.5)] * 2
        with pytest.raises(ValueError):
            simulate_case1_realized(g_x, g_p, product_unit(), 0.1, [0, 0], 100, 0)
        with pytest.raises(ValueError):
            simulate_case1_realized(g_x, g_p, product_unit(), 0.1, [0, 1], 1, 0)

    def test_mean_tracks_closed_form(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.point_mass(p) for p in GOLDEN_RATES]
        mean, std_error = simulate_case1_realized(
            g_x, g_p, product_unit(), 0.15, [0, 1, 2, 3], 4_000, 13
        )
        assert abs(mean - GOLDEN_CASE1_VALUE) <= 4.0 * std_error

    def test_assignment_order_does_not_matter(self):
        g_x = DistributionSpec.uniform(0.0, 1.0)
        g_p = [DistributionSpec.point_mass(p) for p in GOLDEN_RATES]
        mean_a, se_a = simulate_case1_realized(
            g_x, g_p, product_unit(), 0.15, [0, 1, 2, 3], 3_000, 17
        )
        mean_b, se_b = simulate_case1_realized(
            g_x, g_p, product_unit(), 0.15, [3, 0, 1, 2], 3_000, 17
        )
        assert abs(mean_a - mean_b) <= 3.0 * math.hypot(se_a, se_b)
