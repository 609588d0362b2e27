"""Doubly stochastic variant: random job values and random worker rates.

Case I (one job distribution shared by all arrivals, one rate
distribution per worker) has a policy-independent expected reward: the
sum over workers of the probability that a fresh job clears the
threshold with that worker. Case II (one job distribution per arrival
slot) reduces to maximum-weight bipartite matching on the matrix of pass
probabilities, solved here with the Hungarian method.

Pass probabilities are computed exactly whenever both marginals admit it
(point masses, empirical atom lists, uniform intervals under the product
and ratio kinds) and by seeded Monte Carlo otherwise. Every Monte Carlo
entry derives its own RNG stream from (seed, row, column), so results do
not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import MixtureSpec
from .core import FunctionKind, ThresholdFunction, eval_f_array
from .errors import BadSpec

__all__ = [
    "DEFAULT_MC_SAMPLES",
    "MIN_MC_SAMPLES",
    "DistKind",
    "DistributionSpec",
    "Provenance",
    "ProbabilityMatrix",
    "Case1Estimate",
    "HungarianResult",
    "expected_reward_case1",
    "estimate_prob_matrix",
    "hungarian_max",
    "simulate_case1_realized",
]

DEFAULT_MC_SAMPLES = 100_000
MIN_MC_SAMPLES = 1_000
# Exact enumeration over atom pairs is capped; larger products fall back
# to Monte Carlo.
_MAX_EXACT_PAIRS = 1_000_000


class DistKind(Enum):
    UNIFORM = "uniform"
    POINT_MASS = "point-mass"
    GAUSSIAN_MIXTURE = "gaussian-mixture"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class DistributionSpec:
    """A marginal distribution for a job value or a worker rate."""

    kind: DistKind
    a: float = math.nan
    b: float = math.nan
    c: float = math.nan
    mixture: MixtureSpec | None = None
    samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is DistKind.UNIFORM:
            if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
                raise ValueError("uniform requires finite bounds with a < b")
        elif self.kind is DistKind.POINT_MASS:
            if not math.isfinite(self.c):
                raise ValueError("point mass requires a finite value")
        elif self.kind is DistKind.GAUSSIAN_MIXTURE:
            if self.mixture is None:
                raise ValueError("gaussian mixture requires a MixtureSpec")
        else:
            if not self.samples:
                raise ValueError("empirical requires at least one sample")
            if any(not math.isfinite(s) for s in self.samples):
                raise ValueError("empirical samples must be finite")

    @classmethod
    def uniform(cls, a: float, b: float) -> "DistributionSpec":
        return cls(DistKind.UNIFORM, a=a, b=b)

    @classmethod
    def point_mass(cls, c: float) -> "DistributionSpec":
        return cls(DistKind.POINT_MASS, c=c)

    @classmethod
    def gaussian_mixture(cls, mixture: MixtureSpec) -> "DistributionSpec":
        return cls(DistKind.GAUSSIAN_MIXTURE, mixture=mixture)

    @classmethod
    def empirical(cls, samples: Sequence[float]) -> "DistributionSpec":
        return cls(DistKind.EMPIRICAL, samples=tuple(float(s) for s in samples))

    def support(self) -> tuple[float, float]:
        if self.kind is DistKind.UNIFORM:
            return self.a, self.b
        if self.kind is DistKind.POINT_MASS:
            return self.c, self.c
        if self.kind is DistKind.GAUSSIAN_MIXTURE:
            assert self.mixture is not None
            return self.mixture.omega.lo, self.mixture.omega.hi
        assert self.samples is not None
        return min(self.samples), max(self.samples)

    def atoms(self) -> tuple[float, ...] | None:
        """Atom list for purely discrete specs, None otherwise."""
        if self.kind is DistKind.POINT_MASS:
            return (self.c,)
        if self.kind is DistKind.EMPIRICAL:
            return self.samples
        return None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind is DistKind.UNIFORM:
            return rng.uniform(self.a, self.b, size)
        if self.kind is DistKind.POINT_MASS:
            return np.full(size, self.c)
        if self.kind is DistKind.GAUSSIAN_MIXTURE:
            assert self.mixture is not None
            return self.mixture.draw_with(rng, size)
        assert self.samples is not None
        return rng.choice(np.asarray(self.samples), size=size, replace=True)


def _require_job_spec(spec: DistributionSpec, f: ThresholdFunction) -> None:
    lo, hi = spec.support()
    if lo < f.domain.lo or hi > f.domain.hi:
        raise BadSpec(
            f"job distribution support [{lo}, {hi}] leaves the domain [{f.domain.lo}, {f.domain.hi}]"
        )
    if f.kind is FunctionKind.TABULATED and spec.atoms() is None:
        raise BadSpec("tabulated functions require point-mass or empirical job specs")


def _require_rate_spec(spec: DistributionSpec, f: ThresholdFunction) -> None:
    lo, hi = spec.support()
    if lo <= 0.0 or hi > 1.0:
        raise BadSpec(f"rate distribution support [{lo}, {hi}] leaves (0, 1]")
    if f.kind is FunctionKind.TABULATED and spec.atoms() is None:
        raise BadSpec("tabulated functions require point-mass or empirical rate specs")


def _survival_uniform(a: float, b: float, t: float) -> float:
    if t <= a:
        return 1.0
    if t >= b:
        return 0.0
    return (b - t) / (b - a)


def _cdf_uniform(a: float, b: float, t: float) -> float:
    if t <= a:
        return 0.0
    if t >= b:
        return 1.0
    return (t - a) / (b - a)


def _prob_given_x(f: ThresholdFunction, alpha: float, x: float, gp: DistributionSpec) -> float | None:
    """Pr(f(x, P) >= alpha) with a fixed job value, exact paths only."""
    atoms = gp.atoms()
    if atoms is not None:
        return int(np.count_nonzero(eval_f_array(f, x, atoms) >= alpha)) / len(atoms)
    if gp.kind is not DistKind.UNIFORM:
        return None
    if f.kind is FunctionKind.PRODUCT:
        if x <= 0.0:
            return 1.0 if alpha <= 0.0 else 0.0
        return _survival_uniform(gp.a, gp.b, alpha / x)
    if f.kind is FunctionKind.RATIO:
        return _survival_uniform(gp.a, gp.b, alpha * x)
    return None


def _prob_given_p(f: ThresholdFunction, alpha: float, gx: DistributionSpec, p: float) -> float | None:
    """Pr(f(X, p) >= alpha) with a fixed rate and a uniform job value."""
    if gx.kind is not DistKind.UNIFORM or f.kind is FunctionKind.TABULATED:
        return None
    if alpha <= 0.0:
        return 1.0
    if f.kind is FunctionKind.PRODUCT:
        return _survival_uniform(gx.a, gx.b, f.job_boundary(alpha, p))
    return _cdf_uniform(gx.a, gx.b, f.job_boundary(alpha, p))


def _prob_uniform_uniform(f: ThresholdFunction, alpha: float, gx: DistributionSpec, gp: DistributionSpec) -> float | None:
    """Pr(f(X, P) >= alpha) with both marginals uniform, by direct integration."""
    if f.kind not in (FunctionKind.PRODUCT, FunctionKind.RATIO):
        return None
    if alpha <= 0.0:
        return 1.0
    ax, bx = gx.a, gx.b
    ap, bp = gp.a, gp.b
    width_p = bp - ap
    if f.kind is FunctionKind.PRODUCT:
        # Pr(P >= alpha / x) integrated over x: zero below alpha/bp, one
        # above alpha/ap, linear in between with integral bp*x - alpha*ln(x).
        # The rate support starts above 0, so alpha/ap is finite.
        x_zero = f.job_boundary(alpha, bp)
        x_one = f.job_boundary(alpha, ap)
        mid_lo = max(ax, x_zero)
        mid_hi = min(bx, x_one)
        total = 0.0
        if mid_hi > mid_lo:
            total += (bp * (mid_hi - mid_lo) - alpha * math.log(mid_hi / mid_lo)) / width_p
        if bx > x_one:
            total += bx - max(ax, x_one)
        return total / (bx - ax)
    # Ratio: Pr(P >= alpha * x), one below ap/alpha, zero above bp/alpha,
    # linear in between with integral bp*x - alpha*x^2/2.
    x_one = f.job_boundary(alpha, ap)
    x_zero = f.job_boundary(alpha, bp)
    mid_lo = max(ax, x_one)
    mid_hi = min(bx, x_zero)
    total = 0.0
    if min(bx, x_one) > ax:
        total += min(bx, x_one) - ax
    if mid_hi > mid_lo:
        total += (bp * (mid_hi - mid_lo) - 0.5 * alpha * (mid_hi * mid_hi - mid_lo * mid_lo)) / width_p
    return total / (bx - ax)


def _exact_prob(f: ThresholdFunction, alpha: float, gx: DistributionSpec, gp: DistributionSpec) -> float | None:
    """Exact pass probability when the pair of marginals admits one."""
    x_atoms = gx.atoms()
    p_atoms = gp.atoms()
    if x_atoms is not None and p_atoms is not None:
        if len(x_atoms) * len(p_atoms) > _MAX_EXACT_PAIRS:
            return None
        values = eval_f_array(f, np.asarray(x_atoms)[:, None], np.asarray(p_atoms)[None, :])
        return int(np.count_nonzero(values >= alpha)) / values.size
    if x_atoms is not None:
        parts = [_prob_given_x(f, alpha, x, gp) for x in x_atoms]
        if any(part is None for part in parts):
            return None
        return math.fsum(parts) / len(parts)
    if p_atoms is not None:
        parts = [_prob_given_p(f, alpha, gx, p) for p in p_atoms]
        if any(part is None for part in parts):
            return None
        return math.fsum(parts) / len(parts)
    if gx.kind is DistKind.UNIFORM and gp.kind is DistKind.UNIFORM:
        return _prob_uniform_uniform(f, alpha, gx, gp)
    return None


def _term_probability(
    f: ThresholdFunction,
    alpha: float,
    gx: DistributionSpec,
    gp: DistributionSpec,
    samples: int,
    seed_parts: Sequence[int],
) -> tuple[float, float, bool]:
    """(probability, std_error, exact) for one (job, worker) pair."""
    exact = _exact_prob(f, alpha, gx, gp)
    if exact is not None:
        return min(max(exact, 0.0), 1.0), 0.0, True
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    xs = gx.sample(rng, samples)
    ps = gp.sample(rng, samples)
    w = float(np.mean(eval_f_array(f, xs, ps) >= alpha))
    std_error = math.sqrt(w * (1.0 - w) / samples)
    return w, std_error, False


def _validate_mc(mc: tuple[int, int]) -> tuple[int, int]:
    samples, seed = int(mc[0]), int(mc[1])
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"Monte Carlo requires at least {MIN_MC_SAMPLES} samples")
    return samples, seed


class Case1Estimate(NamedTuple):
    value: float
    std_error: float


def expected_reward_case1(
    g_x: DistributionSpec,
    g_p: Sequence[DistributionSpec],
    f: ThresholdFunction,
    alpha: float,
    mc: tuple[int, int] = (DEFAULT_MC_SAMPLES, 0),
) -> Case1Estimate:
    """Expected reward with one shared job distribution: sum of pass terms.

    The value does not depend on the assignment order, so each term is the
    marginal probability that a fresh job clears the threshold with that
    worker. The standard error combines the per-term binomial errors;
    exact terms contribute none.
    """
    samples, seed = _validate_mc(mc)
    _require_job_spec(g_x, f)
    if not g_p:
        raise ValueError("at least one rate distribution is required")
    for spec in g_p:
        _require_rate_spec(spec, f)
    values = []
    variances = []
    for j, spec in enumerate(g_p):
        w, se, _ = _term_probability(f, alpha, g_x, spec, samples, (seed, 0, j))
        values.append(w)
        variances.append(se * se)
    return Case1Estimate(math.fsum(values), math.sqrt(math.fsum(variances)))


class Provenance(Enum):
    CLOSED_FORM = "closed-form"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """Square matrix of pass probabilities with estimation provenance."""

    entries: np.ndarray
    std_error: np.ndarray
    provenance: Provenance
    samples: int
    seed: int

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        errors = np.asarray(self.std_error, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("probability matrix must be square")
        if errors.shape != entries.shape:
            raise ValueError("std_error must match the matrix shape")
        if np.any(entries < 0.0) or np.any(entries > 1.0):
            raise ValueError("entries must be probabilities")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "std_error", errors)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def csv_text(self) -> str:
        """Row-major CSV with zero-based indices: i,j,w,std_error."""
        lines = ["i,j,w,std_error"]
        for i in range(self.n):
            for j in range(self.n):
                w = float(self.entries[i, j])
                se = float(self.std_error[i, j])
                lines.append(f"{i},{j},{w!r},{se!r}")
        return "\n".join(lines) + "\n"


def estimate_prob_matrix(
    g_x: Sequence[DistributionSpec],
    g_p: Sequence[DistributionSpec],
    f: ThresholdFunction,
    alpha: float,
    mc: tuple[int, int] = (DEFAULT_MC_SAMPLES, 0),
) -> ProbabilityMatrix:
    """Pass-probability matrix for per-slot job and per-worker rate specs.

    Entry (i, j) is Pr(f(X_i, P_j) >= alpha). Exact entries carry zero
    standard error; the matrix is stamped Monte Carlo if any entry needed
    sampling. Entry (i, j) draws from a stream derived from (seed, i, j).
    """
    samples, seed = _validate_mc(mc)
    if len(g_x) != len(g_p):
        raise ValueError("case II requires equally many job and rate distributions")
    if not g_x:
        raise ValueError("at least one job and rate distribution is required")
    for spec in g_x:
        _require_job_spec(spec, f)
    for spec in g_p:
        _require_rate_spec(spec, f)
    n = len(g_x)
    entries = np.zeros((n, n))
    errors = np.zeros((n, n))
    any_sampled = False
    for i, gx in enumerate(g_x):
        for j, gp in enumerate(g_p):
            w, se, exact = _term_probability(f, alpha, gx, gp, samples, (seed, i, j))
            entries[i, j] = w
            errors[i, j] = se
            any_sampled = any_sampled or not exact
    provenance = Provenance.MONTE_CARLO if any_sampled else Provenance.CLOSED_FORM
    return ProbabilityMatrix(
        entries=entries,
        std_error=errors,
        provenance=provenance,
        samples=samples,
        seed=seed,
    )


class HungarianResult(NamedTuple):
    assignment: tuple[int, ...]
    total: float


def hungarian_max(weights: "ProbabilityMatrix | np.ndarray | Sequence[Sequence[float]]") -> HungarianResult:
    """Maximum-weight perfect matching on a square matrix.

    Kuhn-Munkres in the potential form with shortest augmenting paths,
    O(n^3). Run on negated weights, so the returned permutation maximizes
    the total; assignment[i] is the column matched to row i.
    """
    if isinstance(weights, ProbabilityMatrix):
        matrix = weights.entries
    else:
        matrix = np.asarray(weights, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("hungarian_max requires a square matrix")
    if matrix.size == 0:
        return HungarianResult((), 0.0)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("weights must be finite")
    n = matrix.shape[0]
    cost = (-matrix).tolist()

    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    matched = [0] * (n + 1)  # matched[j] = row occupying column j, 1-based, 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        matched[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = matched[j0]
            delta = math.inf
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    current = row[j - 1] - u[i0] - v[j]
                    if current < minv[j]:
                        minv[j] = current
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[matched[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if matched[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            matched[j0] = matched[j1]
            j0 = j1

    assignment = [0] * n
    for j in range(1, n + 1):
        if matched[j]:
            assignment[matched[j] - 1] = j - 1
    total = math.fsum(matrix[i, assignment[i]] for i in range(n))
    return HungarianResult(tuple(assignment), float(total))


def simulate_case1_realized(
    g_x: DistributionSpec,
    g_p: Sequence[DistributionSpec],
    f: ThresholdFunction,
    alpha: float,
    permutation: Sequence[int],
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Mean realized reward when arrival slot s is served by worker permutation[s].

    Jobs are independent draws from the shared distribution, so the mean
    must not depend on the permutation; use two permutations and compare
    against the combined standard errors to exercise that invariance.
    """
    _require_job_spec(g_x, f)
    n = len(g_p)
    for spec in g_p:
        _require_rate_spec(spec, f)
    if sorted(permutation) != list(range(n)):
        raise ValueError("permutation must reorder range(n)")
    if trials < 2:
        raise ValueError("at least two trials are required for a standard error")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    xs = g_x.sample(rng, trials * n).reshape(trials, n)
    rewards = np.zeros(trials)
    for slot in range(n):
        spec = g_p[permutation[slot]]
        ps = spec.sample(rng, trials)
        rewards += eval_f_array(f, xs[:, slot], ps) >= alpha
    mean = float(rewards.mean())
    std_error = float(rewards.std(ddof=1) / math.sqrt(trials))
    return mean, std_error
