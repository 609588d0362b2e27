"""Load bounds, feasible extremes, and the reward-maximizing mixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstap import (
    BadEpsilon,
    BadSpec,
    FunctionKind,
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
    eval_f,
    feasible_extremes,
    job_load,
    load_report,
    verify_load_bounds,
)
from tests.conftest import PRODUCT_ALPHA, PRODUCT_JOBS, PRODUCT_RATES, make_workers, time_limit


def simpson_mass(centers, weights, sigma, omega, nodes=20_001):
    """Truncated mass of a Gaussian sum by composite Simpson, for cross-checking.

    Each center's density is integrated over [c - 12 sigma, c + 12 sigma]
    clipped to omega; the mass beyond 12 bandwidths is below 1e-32.
    """
    total = 0.0
    for c, w in zip(centers, weights):
        lo = max(omega.lo, c - 12.0 * sigma)
        hi = min(omega.hi, c + 12.0 * sigma)
        t = (np.linspace(lo, hi, nodes) - c) / sigma
        ys = np.exp(-0.5 * t * t) / (sigma * math.sqrt(2.0 * math.pi))
        h = (hi - lo) / (nodes - 1)
        total += w * h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
    return total


def bisect_indicator(predicate, lo, hi):
    """Switch point of a monotone boolean predicate by pure bisection.

    200 halvings narrow any bracket inside [0, 1e10] to two adjacent floats.
    """
    true_lo = predicate(lo)
    for _ in range(200):
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_bisection_on_random_pairs(self, data):
        kind = data.draw(st.sampled_from(["product", "ratio"]))
        lo = data.draw(st.floats(1e-3, 1e3))
        hi = data.draw(st.floats(lo, 1e10))
        if kind == "product" and data.draw(st.booleans()):
            lo = 0.0
        f = ThresholdFunction.product(Interval(lo, hi)) if kind == "product" else ThresholdFunction.ratio(Interval(lo, hi))
        p = data.draw(st.floats(1e-3, 1.0))
        switch = data.draw(st.floats(lo, hi))
        alpha = max(switch * p if kind == "product" else p / switch, 1e-10)
        with time_limit(1.0):
            u, v = feasible_extremes(f, alpha, p)
        assert eval_f(f, u, p) >= alpha and eval_f(f, v, p) >= alpha
        edge, inner = (v, lo) if kind == "product" else (u, hi)
        if edge != inner:
            assert not eval_f(f, math.nextafter(edge, inner), p) >= alpha
            independent = bisect_indicator(lambda x: eval_f(f, x, p) >= alpha, lo, hi)
            assert abs(edge - independent) <= 4 * math.ulp(edge)

    @pytest.mark.parametrize(
        "f,alpha,p",
        [
            (ThresholdFunction.product(Interval(0.0, 1.0)), 1e-320, 1e-300),
            (ThresholdFunction.ratio(Interval(1.0, 1e300)), 1e-320, 1e-300),
            (ThresholdFunction.ratio(Interval(1.0, 1e300)), 1e-310, 1e-300),
        ],
        ids=["product", "ratio", "ratio-partly-subnormal"],
    )
    def test_edge_is_exact_where_f_rounds_to_subnormals(self, f, alpha, p):
        # the closed form lies up to 10^12 floats from the edge here
        with time_limit(1.0):
            u, v = feasible_extremes(f, alpha, p)
        edge, inner = (v, f.domain.lo) if f.kind is FunctionKind.PRODUCT else (u, f.domain.hi)
        assert eval_f(f, edge, p) >= alpha
        assert not eval_f(f, math.nextafter(edge, inner), p) >= alpha


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
        expected = simpson_mass(spec.centers, spec.weights, spec.sigma, omega)
        assert spec.normalizer == pytest.approx(expected, rel=1e-12)
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
        expected = simpson_mass(spec.centers, spec.weights, spec.sigma, omega)
        assert spec.normalizer == pytest.approx(expected, rel=1e-12)

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
            expected = simpson_mass(spec.centers, spec.weights, spec.sigma, omega)
            assert spec.normalizer == pytest.approx(expected, rel=1e-12)


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

    def test_mass_too_thin_to_sample_raises_bad_spec(self):
        # about 4e-4 of each draw lands inside the domain
        spec = MixtureSpec(centers=(0.5,), weights=(1.0,), sigma=1000.0, omega=Interval(0.0, 1.0))
        with pytest.raises(BadSpec, match="rejection sampling"):
            spec.draw_with(np.random.default_rng(0), 1000)

    @pytest.mark.parametrize("size", [1000, 20_000])
    def test_mass_too_thin_to_sample_fails_before_drawing(self, size):
        spec = MixtureSpec(centers=(0.5,), weights=(1.0,), sigma=1000.0, omega=Interval(0.0, 1.0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with time_limit(0.05), pytest.raises(BadSpec, match="rejection sampling"):
            spec.draw_with(rng, size)
        assert rng.bit_generator.state == state

    def test_redraw_rounds_are_bounded(self):
        # both draws pass the estimate: about 1% of each deviate lands inside
        # for the first, which takes hundreds of rounds, and 0.004% for the
        # second, which outlasts all of them
        wide = MixtureSpec(centers=(0.5,), weights=(1.0,), sigma=40.0, omega=Interval(0.0, 1.0))
        draws = wide.draw_with(np.random.default_rng(1), 20)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        wider = MixtureSpec(centers=(0.5,), weights=(1.0,), sigma=10_000.0, omega=Interval(0.0, 1.0))
        with pytest.raises(BadSpec, match="failed to land"):
            wider.draw_with(np.random.default_rng(1), 5)

    def test_ordinary_mixture_draws_are_unchanged(self):
        # golden values; four of the six first draws leave the domain, so
        # they also pin the redraw rounds
        spec = MixtureSpec(centers=(0.1, 0.8), weights=(0.25, 0.75), sigma=0.3, omega=Interval(0.0, 1.0))
        draws = spec.draw_with(np.random.default_rng(2024), 6)
        assert [repr(float(v)) for v in draws] == [
            "0.4676848894618198",
            "0.2527560396537064",
            "0.38707314800762943",
            "0.8146737209208603",
            "0.9919278661794387",
            "0.34345603509446726",
        ]

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
