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
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import FunctionKind, Instance, Interval, ThresholdFunction, eval_f
from .errors import BadEpsilon, BadSpec, Infeasible, NotMonotone
from .policy import run_stream

__all__ = [
    "CENTER_MERGE_TOL",
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

CENTER_MERGE_TOL = 1e-9
# Most rounds in which MixtureSpec.draw_with redraws the samples outside the domain.
REDRAW_ROUNDS = 10_000


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


def _ordinal(x: float) -> int:
    """Rank of a nonnegative float in float order (its bit pattern read as an integer)."""
    return struct.unpack("<q", struct.pack("<d", x + 0.0))[0]


def _from_ordinal(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _interior_edge(f: ThresholdFunction, alpha: float, p: float, inner: float, outer: float) -> float:
    """The float nearest inner with f(x, p) >= alpha, where f fails at inner and holds at outer.

    f rounds monotonically in x, so the passing floats run from the edge to
    outer. The search starts at the closed-form boundary and gallops one,
    two, four floats at a time until f brackets the edge; a probe outside
    the bracket is replaced by the bracket's midpoint. The closed form is usually
    within a few floats of the edge, but where f(x, p) rounds to a
    subnormal it can be 10^12 floats off.
    """
    sign = 1 if outer > inner else -1  # sign * ordinal rises from inner to outer
    bad, good = sign * _ordinal(inner), sign * _ordinal(outer)
    k, stride = sign * _ordinal(f.job_boundary(alpha, p)), 1
    while good - bad > 1:
        if not bad < k < good:
            k = (bad + good) // 2
        if eval_f(f, _from_ordinal(sign * k), p) >= alpha:
            good, k = k, k - stride
        else:
            bad, k = k, k + stride
        stride *= 2
    return _from_ordinal(sign * good)


def feasible_extremes(
    f: ThresholdFunction,
    alpha: float,
    p: float,
    omega: Interval | None = None,
) -> tuple[float, float]:
    """Largest and smallest job values (u, v) with f(x, p) >= alpha on omega.

    Requires a kind monotone in x, product (rising) or ratio (falling);
    NotMonotone is raised otherwise, and Infeasible when no job value is
    feasible. Both are exact float extremes: f clears alpha at each, and
    an extreme inside omega has a next float outward at which f fails.
    """
    if omega is None:
        omega = f.domain
    if f.kind is FunctionKind.PRODUCT:
        inner, outer = omega.lo, omega.hi
    elif f.kind is FunctionKind.RATIO:
        inner, outer = omega.hi, omega.lo
    else:
        raise NotMonotone("feasible extremes require a function monotone in x")
    if not eval_f(f, outer, p) >= alpha:
        raise Infeasible(f"f({outer}, {p}) < {alpha}: no feasible job value")
    edge = inner if eval_f(f, inner, p) >= alpha else _interior_edge(f, alpha, p, inner, outer)
    return max(edge, outer), min(edge, outer)


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


def _component_masses(centers: Sequence[float], sigma: float, omega: Interval) -> list[float]:
    """Mass each unit Gaussian of the mixture leaves inside omega, in closed form.

    Each center lies strictly inside omega, so the two erf arguments have
    opposite signs and their difference cannot cancel.
    """
    scale = sigma * math.sqrt(2.0)
    return [0.5 * (math.erf((omega.hi - c) / scale) - math.erf((omega.lo - c) / scale)) for c in centers]


def _mixture_mass(centers: Sequence[float], weights: Sequence[float], sigma: float, omega: Interval) -> float:
    """Mass the weighted Gaussian sum leaves inside omega."""
    return math.fsum(w * m for w, m in zip(weights, _component_masses(centers, sigma, omega)))


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
        inv = 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))
        total = sum(w * math.exp(-0.5 * ((x - c) / self.sigma) ** 2) for c, w in zip(self.centers, self.weights))
        return inv * total / self.normalizer

    def draw_with(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw truncated samples using a caller-owned generator.

        Picks a center by weight, adds a Gaussian deviate, and redraws the
        deviates outside the domain for up to REDRAW_ROUNDS rounds. BadSpec is
        raised when the domain holds too little mass for that to finish, and
        before drawing when 10 or more draws are expected to miss every round.
        """
        masses = _component_masses(self.centers, self.sigma, self.omega)
        stuck = size * math.fsum(w * (1.0 - m) ** REDRAW_ROUNDS for w, m in zip(self.weights, masses))
        if stuck >= 10.0:
            raise BadSpec(f"rejection sampling would leave about {stuck:.3g} of {size} draws outside the domain")
        centers = np.asarray(self.centers)
        idx = rng.choice(len(centers), size=size, p=np.asarray(self.weights))
        out = centers[idx] + self.sigma * rng.standard_normal(size)
        for _ in range(REDRAW_ROUNDS + 1):
            outside = ~((out >= self.omega.lo) & (out <= self.omega.hi))
            if not outside.any():
                return out
            out[outside] = centers[idx[outside]] + self.sigma * rng.standard_normal(int(outside.sum()))
        raise BadSpec("rejection sampling failed to land inside the domain")


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
