"""Load bounds and reward-maximizing job distributions.

For a monotone threshold function each worker admits a closed feasible
range of job values [v_i, u_i]. When a job set achieves full reward its
Euclidean load is sandwiched between the loads of the per-worker minima
and maxima; ``verify_load_bounds`` checks that sandwich on a concrete
run. ``build_reward_maximizing_mixture`` turns the extremes into a
truncated Gaussian mixture whose samples achieve full reward with
probability approaching one as the bandwidth shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Instance, Interval, Monotonicity, ThresholdFunction, eval_f
from .errors import BadEpsilon, Infeasible, NotMonotone
from .policy import run_stream

__all__ = [
    "BISECTION_TOL",
    "CENTER_MERGE_TOL",
    "NORMALIZER_REL_TOL",
    "Side",
    "LoadBoundsVerdict",
    "LoadReport",
    "LoadBoundsResult",
    "MixtureSpec",
    "job_load",
    "feasible_extremes",
    "load_report",
    "verify_load_bounds",
    "build_reward_maximizing_mixture",
]

BISECTION_TOL = 1e-12
CENTER_MERGE_TOL = 1e-9
NORMALIZER_REL_TOL = 1e-9
# Closed-form inversions and the bisection check must agree to this slack.
_INVERSION_AGREEMENT_TOL = 1e-9


class Side(Enum):
    UPPER = "upper"
    LOWER = "lower"


class LoadBoundsVerdict(Enum):
    VACUOUS = "vacuous"
    BOUNDS_HOLD = "bounds-hold"
    THEOREM_VIOLATED = "theorem-violated"


def job_load(values: Sequence[float]) -> float:
    """Euclidean norm of a job set."""
    return math.sqrt(math.fsum(v * v for v in values))


def _bisect_switch(f: ThresholdFunction, alpha: float, p: float, lo: float, hi: float) -> float:
    """Locate the indicator switch point of f(x, p) >= alpha on [lo, hi].

    The indicator must differ at the two endpoints; the bracket is halved
    until it is narrower than BISECTION_TOL and the midpoint is returned.
    """
    pass_lo = eval_f(f, lo, p) >= alpha
    pass_hi = eval_f(f, hi, p) >= alpha
    if pass_lo == pass_hi:
        raise ValueError("bisection bracket does not straddle the threshold")
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (eval_f(f, mid, p) >= alpha) == pass_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _verify_inversion(f: ThresholdFunction, alpha: float, p: float, omega: Interval, closed: float) -> None:
    switch = _bisect_switch(f, alpha, p, omega.lo, omega.hi)
    if abs(switch - closed) > _INVERSION_AGREEMENT_TOL:
        raise RuntimeError(
            f"closed-form boundary {closed} disagrees with bisection {switch} for p={p}, alpha={alpha}"
        )


def feasible_extremes(
    f: ThresholdFunction,
    alpha: float,
    p: float,
    omega: Interval | None = None,
) -> tuple[float, float]:
    """Largest and smallest job values (u, v) with f(x, p) >= alpha on omega.

    Requires declared monotonicity in x (NotMonotone otherwise) and a
    nonempty feasible set (Infeasible otherwise). Interior boundaries come
    from closed-form inversion and are verified against a bisection of the
    threshold indicator.
    """
    if omega is None:
        omega = f.domain
    if f.monotonicity_in_x is Monotonicity.INCREASING:
        if not eval_f(f, omega.hi, p) >= alpha:
            raise Infeasible(f"f({omega.hi}, {p}) < {alpha}: no feasible job value")
        u = omega.hi
        if eval_f(f, omega.lo, p) >= alpha:
            v = omega.lo
        else:
            v = f.job_boundary(alpha, p)
            _verify_inversion(f, alpha, p, omega, v)
        return u, v
    if f.monotonicity_in_x is Monotonicity.DECREASING:
        if not eval_f(f, omega.lo, p) >= alpha:
            raise Infeasible(f"f({omega.lo}, {p}) < {alpha}: no feasible job value")
        v = omega.lo
        if eval_f(f, omega.hi, p) >= alpha:
            u = omega.hi
        else:
            u = f.job_boundary(alpha, p)
            _verify_inversion(f, alpha, p, omega, u)
        return u, v
    raise NotMonotone("feasible extremes require a function monotone in x")


@dataclass(frozen=True)
class LoadReport:
    """Per-worker feasible extremes and the loads of the two extreme job sets."""

    u: tuple[float, ...]
    v: tuple[float, ...]
    l_max: float
    l_min: float

    def __post_init__(self) -> None:
        if len(self.u) != len(self.v):
            raise ValueError("extreme sets must be the same length")
        for u_i, v_i in zip(self.u, self.v):
            if v_i > u_i:
                raise ValueError("per-worker minimum exceeds maximum")


def load_report(
    f: ThresholdFunction,
    alpha: float,
    rates: Sequence[float],
    omega: Interval | None = None,
) -> LoadReport:
    """Feasible extremes for every rate, with the loads of both extreme sets."""
    extremes = [feasible_extremes(f, alpha, p, omega) for p in rates]
    u = tuple(e[0] for e in extremes)
    v = tuple(e[1] for e in extremes)
    return LoadReport(u=u, v=v, l_max=job_load(u), l_min=job_load(v))


@dataclass(frozen=True)
class LoadBoundsResult:
    verdict: LoadBoundsVerdict
    reward: int
    l_jobs: float
    report: LoadReport | None


def verify_load_bounds(instance: Instance, job_values: Sequence[float]) -> LoadBoundsResult:
    """Check the load sandwich l_min <= l(jobs) <= l_max on a greedy run.

    The sandwich is only claimed when every job is assigned; otherwise the
    verdict is Vacuous. TheoremViolated signals an implementation bug and
    is never expected.
    """
    if len(job_values) != len(instance.workers):
        raise ValueError("load bounds compare equally many jobs and workers")
    _, reward = run_stream(instance, [(x, 0.0) for x in job_values])
    l_jobs = job_load(job_values)
    if reward < len(job_values):
        return LoadBoundsResult(LoadBoundsVerdict.VACUOUS, reward, l_jobs, None)
    report = load_report(instance.f, instance.alpha, [w.rate for w in instance.workers])
    if report.l_min <= l_jobs <= report.l_max:
        verdict = LoadBoundsVerdict.BOUNDS_HOLD
    else:
        verdict = LoadBoundsVerdict.THEOREM_VIOLATED
    return LoadBoundsResult(verdict, reward, l_jobs, report)


def _gaussian_sum(centers: Sequence[float], weights: Sequence[float], sigma: float):
    inv = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def density(x: float) -> float:
        total = 0.0
        for c, w in zip(centers, weights):
            t = (x - c) / sigma
            total += w * inv * math.exp(-0.5 * t * t)
        return total

    return density


def _adaptive_simpson(g, a: float, b: float, tol: float) -> float:
    """Classic adaptive Simpson quadrature with absolute tolerance tol."""

    def simpson(lo: float, hi: float, f_lo: float, f_mid: float, f_hi: float) -> float:
        return (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    def recurse(lo, hi, f_lo, f_mid, f_hi, whole, budget, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        f_lm = g(lm)
        f_rm = g(rm)
        left = simpson(lo, mid, f_lo, f_lm, f_mid)
        right = simpson(mid, hi, f_mid, f_rm, f_hi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * budget:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, f_lo, f_lm, f_mid, left, budget / 2.0, depth - 1) + recurse(
            mid, hi, f_mid, f_rm, f_hi, right, budget / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    f_a, f_mid, f_b = g(a), g(mid), g(b)
    whole = simpson(a, b, f_a, f_mid, f_b)
    return recurse(a, b, f_a, f_mid, f_b, whole, tol, 60)


def _mixture_mass(
    centers: Sequence[float],
    weights: Sequence[float],
    sigma: float,
    omega: Interval,
    rel_tol: float = NORMALIZER_REL_TOL,
) -> float:
    """Integral over omega of the weighted Gaussian sum.

    The integration range is split at each center and a few bandwidths to
    either side so narrow peaks cannot slip between quadrature nodes.
    """
    density = _gaussian_sum(centers, weights, sigma)
    points = {omega.lo, omega.hi}
    for c in centers:
        for offset in (0.0, sigma, 3.0 * sigma, 6.0 * sigma):
            for candidate in (c - offset, c + offset):
                if omega.lo < candidate < omega.hi:
                    points.add(candidate)
    knots = sorted(points)
    rough = 0.0
    for lo, hi in zip(knots, knots[1:]):
        mid = 0.5 * (lo + hi)
        rough += (hi - lo) / 6.0 * (density(lo) + 4.0 * density(mid) + density(hi))
    budget = max(abs(rough), 1e-12) * rel_tol / max(len(knots) - 1, 1)
    total = 0.0
    for lo, hi in zip(knots, knots[1:]):
        total += _adaptive_simpson(density, lo, hi, budget)
    return total


@dataclass(frozen=True)
class MixtureSpec:
    """Truncated Gaussian mixture over a closed domain.

    Weights carry the multiplicity of merged duplicate centers and sum to
    one; the normalizer is the mass the untruncated weighted sum leaves
    inside the domain, so the truncated density is the weighted sum
    divided by it. The normalizer is computed once the other fields have
    been validated.
    """

    centers: tuple[float, ...]
    weights: tuple[float, ...]
    sigma: float
    omega: Interval
    normalizer: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.centers) != len(self.weights):
            raise ValueError("centers and weights must be the same length")
        if not self.centers:
            raise ValueError("mixture requires at least one center")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not all(math.isfinite(w) and w >= 0.0 for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        for c in self.centers:
            if not self.omega.strictly_contains(c):
                raise ValueError(f"center {c} is not strictly inside the domain")
        object.__setattr__(self, "normalizer", _mixture_mass(self.centers, self.weights, self.sigma, self.omega))
        if not self.normalizer > 0.0:
            raise ValueError("normalizer must be positive")

    def density(self, x: float) -> float:
        if not self.omega.contains(x):
            return 0.0
        return _gaussian_sum(self.centers, self.weights, self.sigma)(x) / self.normalizer

    def draw_with(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw truncated samples using a caller-owned generator.

        Picks a center by weight, adds a Gaussian deviate, and redraws the
        deviate until it lands inside the domain.
        """
        centers = np.asarray(self.centers)
        idx = rng.choice(len(centers), size=size, p=np.asarray(self.weights))
        out = centers[idx] + self.sigma * rng.standard_normal(size)
        inside = (out >= self.omega.lo) & (out <= self.omega.hi)
        guard = 0
        while not inside.all():
            guard += 1
            if guard > 10000:
                raise RuntimeError("rejection sampling failed to land inside the domain")
            redraw = ~inside
            out[redraw] = centers[idx[redraw]] + self.sigma * rng.standard_normal(int(redraw.sum()))
            inside = (out >= self.omega.lo) & (out <= self.omega.hi)
        return out


def build_reward_maximizing_mixture(
    extremes: Sequence[float],
    side: Side,
    sigma: float,
    omega: Interval,
    epsilon: float | None = None,
) -> MixtureSpec:
    """Mixture concentrated just inside the per-worker feasible extremes.

    Upper-side centers sit epsilon below each maximum, lower-side centers
    epsilon above each minimum. Duplicate extremes (within the merge
    tolerance) collapse into one center carrying weight k/n. Epsilon
    defaults to 1e-6 of the domain width; BadEpsilon is raised when a
    center would leave the open domain.
    """
    if not extremes:
        raise ValueError("extremes must be nonempty")
    if epsilon is None:
        epsilon = 1e-6 * omega.width
    if not epsilon > 0.0:
        raise BadEpsilon(f"epsilon must be positive, got {epsilon}")
    n = len(extremes)
    ordered = sorted(extremes)
    groups: list[list[float]] = [[ordered[0]]]
    for value in ordered[1:]:
        if abs(value - groups[-1][0]) <= CENTER_MERGE_TOL:
            groups[-1].append(value)
        else:
            groups.append([value])
    shift = -epsilon if side is Side.UPPER else epsilon
    centers = []
    weights = []
    for group in groups:
        center = math.fsum(group) / len(group) + shift
        if not omega.strictly_contains(center):
            raise BadEpsilon(f"center {center} falls outside the open domain ({omega.lo}, {omega.hi})")
        centers.append(center)
        weights.append(len(group) / n)
    return MixtureSpec(centers=tuple(centers), weights=tuple(weights), sigma=sigma, omega=omega)
