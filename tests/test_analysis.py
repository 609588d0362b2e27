"""Load bounds, feasible extremes, and the reward-maximizing mixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sstap import (
    BadEpsilon,
    Infeasible,
    Instance,
    Interval,
    LoadBoundsVerdict,
    LoadReport,
    MixtureSpec,
    NotMonotone,
    Side,
    ThresholdFunction,
    build_reward_maximizing_mixture,
    feasible_extremes,
    job_load,
    load_report,
    verify_load_bounds,
)
from tests.conftest import PRODUCT_ALPHA, PRODUCT_JOBS, PRODUCT_RATES, make_workers


def erf_mass(centers, weights, sigma, omega):
    """Closed-form truncated mass of a Gaussian sum, for cross-checking."""
    total = 0.0
    root2 = math.sqrt(2.0)
    for c, w in zip(centers, weights):
        hi = 0.5 * (1.0 + math.erf((omega.hi - c) / (sigma * root2)))
        lo = 0.5 * (1.0 + math.erf((omega.lo - c) / (sigma * root2)))
        total += w * (hi - lo)
    return total


def bisect_indicator(predicate, lo, hi, tol=1e-13):
    """Switch point of a monotone boolean predicate by pure bisection."""
    true_lo = predicate(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid) == true_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestJobLoad:
    def test_euclidean_norm(self):
        assert job_load([3.0, 4.0]) == 5.0
        assert job_load([]) == 0.0

    def test_compensated_summation(self):
        values = [1e-8] * 10_000 + [1.0]
        direct = math.sqrt(math.fsum(v * v for v in values))
        assert job_load(values) == direct


class TestFeasibleExtremes:
    def test_product_golden(self, product_f):
        u, v = feasible_extremes(product_f, 0.15, 0.4)
        assert u == 1.0
        assert v == pytest.approx(0.375, abs=1e-12)

    def test_product_floor_at_domain_edge(self, product_f):
        u, v = feasible_extremes(product_f, 0.01, 0.5, omega=Interval(0.1, 1.0))
        assert (u, v) == (1.0, 0.1)

    def test_product_with_narrower_window(self, product_f):
        u, v = feasible_extremes(product_f, 0.15, 0.5, omega=Interval(0.2, 0.8))
        assert u == 0.8 and v == pytest.approx(0.3, abs=1e-12)

    def test_ratio_golden(self):
        f = ThresholdFunction.ratio(Interval(0.01, 1.0))
        assert feasible_extremes(f, 1.0, 0.5) == (0.5, 0.01)

    def test_ratio_ceiling_at_domain_edge(self):
        f = ThresholdFunction.ratio(Interval(0.01, 1.0))
        u, v = feasible_extremes(f, 0.2, 0.5, omega=Interval(0.01, 1.0))
        assert (u, v) == (1.0, 0.01)  # p/x >= 0.2 everywhere on the window

    def test_infeasible_product(self, product_f):
        with pytest.raises(Infeasible):
            feasible_extremes(product_f, 2.0, 0.7)

    def test_infeasible_ratio(self):
        f = ThresholdFunction.ratio(Interval(0.5, 1.0))
        with pytest.raises(Infeasible):
            feasible_extremes(f, 1.0, 0.4)

    def test_tabulated_has_no_extremes(self, tabulated_f):
        with pytest.raises(NotMonotone):
            feasible_extremes(tabulated_f, 0.1, 0.25)

    def test_closed_form_matches_bisection_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        product = ThresholdFunction.product(Interval(0.0, 1.0))
        ratio = ThresholdFunction.ratio(Interval(0.01, 1.0))
        for _ in range(1000):
            p = float(rng.uniform(0.05, 1.0))
            if rng.random() < 0.5:
                switch = float(rng.uniform(0.05, 0.95))
                alpha = switch * p
                _, v = feasible_extremes(product, alpha, p)
                independent = bisect_indicator(
                    lambda x: x * p >= alpha, 0.0, 1.0
                )
                assert abs(v - independent) <= 1e-10
            else:
                switch = float(rng.uniform(0.05, 0.95))
                alpha = p / switch
                u, _ = feasible_extremes(ratio, alpha, p)
                independent = bisect_indicator(
                    lambda x: p / x >= alpha, 0.01, 1.0
                )
                assert abs(u - independent) <= 1e-10


class TestLoadReport:
    def test_golden_report(self, product_f):
        report = load_report(product_f, PRODUCT_ALPHA, PRODUCT_RATES)
        assert report.u == (1.0, 1.0, 1.0, 1.0)
        assert report.v == pytest.approx((0.375, 0.3, 0.25, 0.15 / 0.7))
        assert report.l_max == 2.0
        assert report.l_min == pytest.approx(0.58227430593058, abs=1e-12)

    def test_report_validates_ordering(self):
        with pytest.raises(ValueError):
            LoadReport(u=(0.5,), v=(0.6,), l_max=0.5, l_min=0.6)
        with pytest.raises(ValueError):
            LoadReport(u=(0.5, 0.6), v=(0.4,), l_max=1.0, l_min=0.4)

    def test_norms_match_job_load_of_extremes(self, product_f):
        report = load_report(product_f, PRODUCT_ALPHA, PRODUCT_RATES)
        assert report.l_max == job_load(report.u)
        assert report.l_min == job_load(report.v)


class TestVerifyLoadBounds:
    def test_partial_reward_is_vacuous(self, product_instance):
        result = verify_load_bounds(product_instance, PRODUCT_JOBS)
        assert result.verdict is LoadBoundsVerdict.VACUOUS
        assert result.reward == 3
        assert result.report is None

    def test_full_reward_bounds_hold(self, product_f):
        inst = Instance(
            alpha=PRODUCT_ALPHA, f=product_f, workers=make_workers(PRODUCT_RATES)
        )
        jobs = [0.9, 0.8, 0.7, 0.6]
        result = verify_load_bounds(inst, jobs)
        assert result.verdict is LoadBoundsVerdict.BOUNDS_HOLD
        assert result.reward == 4
        assert result.report is not None
        assert result.report.l_min <= result.l_jobs <= result.report.l_max
        assert result.l_jobs == job_load(jobs)

    def test_requires_square_problem(self, product_instance):
        with pytest.raises(ValueError):
            verify_load_bounds(product_instance, [0.9, 0.8])


class TestMixtureConstruction:
    def test_upper_side_merges_duplicate_extremes(self):
        spec = build_reward_maximizing_mixture(
            [1.0, 1.0, 1.0, 1.0], Side.UPPER, sigma=1e-4, omega=Interval(0.0, 1.0),
            epsilon=1e-6,
        )
        assert spec.centers == (0.999999,)
        assert spec.weights == (1.0,)

    def test_upper_normalizer_matches_closed_form(self):
        omega = Interval(0.0, 1.0)
        spec = build_reward_maximizing_mixture(
            [1.0], Side.UPPER, sigma=1e-4, omega=omega, epsilon=1e-6
        )
        expected = erf_mass(spec.centers, spec.weights, spec.sigma, omega)
        assert spec.normalizer == pytest.approx(expected, rel=5e-9)
        # the center sits 0.01 bandwidths inside, so barely half the mass stays
        assert spec.normalizer == pytest.approx(0.503989356, rel=1e-6)

    def test_lower_side_four_centers(self):
        omega = Interval(0.0, 1.0)
        extremes = [0.375, 0.3, 0.25, 0.2143]
        spec = build_reward_maximizing_mixture(
            extremes, Side.LOWER, sigma=1e-4, omega=omega, epsilon=1e-6
        )
        assert spec.centers == pytest.approx(
            tuple(sorted(e + 1e-6 for e in extremes))
        )
        assert spec.weights == (0.25, 0.25, 0.25, 0.25)
        assert abs(spec.normalizer - 1.0) <= 1e-6
        expected = erf_mass(spec.centers, spec.weights, spec.sigma, omega)
        assert spec.normalizer == pytest.approx(expected, rel=5e-9)

    def test_default_epsilon_scales_with_width(self):
        spec = build_reward_maximizing_mixture(
            [1.5], Side.UPPER, sigma=1e-3, omega=Interval(0.0, 2.0)
        )
        assert spec.centers == (1.5 - 2e-6,)

    def test_near_duplicates_merge_with_mean_center(self):
        spec = build_reward_maximizing_mixture(
            [0.5, 0.5 + 1e-10, 0.8], Side.UPPER, sigma=1e-3,
            omega=Interval(0.0, 1.0), epsilon=1e-6,
        )
        assert len(spec.centers) == 2
        assert spec.weights == pytest.approx((2 / 3, 1 / 3))
        assert spec.centers[0] == pytest.approx(0.5 + 5e-11 - 1e-6)

    def test_bad_epsilon_rejected(self):
        omega = Interval(0.0, 1.0)
        with pytest.raises(BadEpsilon):
            build_reward_maximizing_mixture(
                [1.0], Side.LOWER, sigma=1e-4, omega=omega, epsilon=1e-6
            )
        with pytest.raises(BadEpsilon):
            build_reward_maximizing_mixture(
                [0.0], Side.UPPER, sigma=1e-4, omega=omega, epsilon=1e-6
            )
        with pytest.raises(BadEpsilon):
            build_reward_maximizing_mixture(
                [0.5], Side.UPPER, sigma=1e-4, omega=omega, epsilon=-1e-6
            )

    def test_spec_validates_weights(self):
        with pytest.raises(ValueError):
            MixtureSpec(
                centers=(0.5, 0.6),
                weights=(0.6, 0.6),
                sigma=1e-3,
                omega=Interval(0.0, 1.0),
            )
        with pytest.raises(ValueError):
            MixtureSpec(
                centers=(1.0,),
                weights=(1.0,),
                sigma=1e-3,
                omega=Interval(0.0, 1.0),
            )

    @pytest.mark.parametrize("weights", [(1.5, -0.5), (math.nan, 1.0), (1.0, math.inf)])
    def test_spec_rejects_negative_or_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MixtureSpec(centers=(0.5, 0.6), weights=weights, sigma=1e-3, omega=Interval(0.0, 1.0))

    def test_spec_derives_its_normalizer(self):
        spec = MixtureSpec(centers=(0.999999,), weights=(1.0,), sigma=1e-4, omega=Interval(0.0, 1.0))
        assert spec.normalizer == pytest.approx(0.503989356, rel=1e-6)
        with pytest.raises(TypeError):
            MixtureSpec(centers=(0.5,), weights=(1.0,), sigma=1e-3, omega=Interval(0.0, 1.0), normalizer=1.0)

    def test_quadrature_tracks_closed_form_on_random_mixtures(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            lo = float(rng.uniform(-1.0, 0.0))
            hi = float(rng.uniform(0.5, 2.0))
            omega = Interval(lo, hi)
            k = int(rng.integers(1, 5))
            extremes = rng.uniform(lo + 0.05, hi - 0.05, k).tolist()
            sigma = float(10 ** rng.uniform(-4, -1))
            spec = build_reward_maximizing_mixture(
                extremes, Side.UPPER, sigma=sigma, omega=omega, epsilon=1e-7
            )
            expected = erf_mass(spec.centers, spec.weights, spec.sigma, omega)
            assert spec.normalizer == pytest.approx(expected, rel=5e-9)


class TestMixtureSampling:
    @pytest.fixture
    def lower_spec(self):
        return build_reward_maximizing_mixture(
            [0.375, 0.3, 0.25, 0.2143],
            Side.LOWER,
            sigma=1e-4,
            omega=Interval(0.0, 1.0),
            epsilon=1e-6,
        )

    def test_draws_stay_inside_domain(self, lower_spec):
        draws = lower_spec.draw_with(np.random.default_rng(5), 20_000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_per_center_frequencies_within_binomial_bands(self, lower_spec):
        n = 100_000
        draws = lower_spec.draw_with(np.random.default_rng(123), n)
        centers = np.asarray(lower_spec.centers)
        nearest = np.abs(draws[:, None] - centers[None, :]).argmin(axis=1)
        for i, w in enumerate(lower_spec.weights):
            freq = float((nearest == i).mean())
            band = 3.0 * math.sqrt(w * (1.0 - w) / n)
            assert abs(freq - w) <= band

    def test_draw_with_uses_caller_generator(self, lower_spec):
        rng = np.random.default_rng(4)
        first = lower_spec.draw_with(rng, 10)
        second = lower_spec.draw_with(np.random.default_rng(4), 10)
        other = lower_spec.draw_with(np.random.default_rng(5), 10)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_density_zero_outside_domain(self, lower_spec):
        assert lower_spec.density(-0.1) == 0.0
        assert lower_spec.density(1.1) == 0.0
        assert lower_spec.density(0.300001) > 0.0

    def test_density_integrates_to_one(self, lower_spec):
        # trapezoid sums over tight windows around each spike
        total = 0.0
        for c in lower_spec.centers:
            xs = np.linspace(c - 8e-4, c + 8e-4, 4001)
            ys = np.array([lower_spec.density(float(x)) for x in xs])
            total += float(((ys[1:] + ys[:-1]) / 2.0 * np.diff(xs)).sum())
        assert total == pytest.approx(1.0, abs=1e-4)
