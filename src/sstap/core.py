"""Domain types and shared primitives for sequential threshold assignment.

An instance couples a two-argument threshold function f(x, p) with a
threshold alpha: assigning a job of value x to a worker with performance
rate p earns one unit of reward exactly when f(x, p) >= alpha. The online
policy, the offline oracles, the load analysis, and the doubly stochastic
variant are all expressed in terms of the types defined here.

The greedy policy is only optimal when f is order-preserving: the ranking
of f(x, p_j) across workers j must not depend on x (ties are allowed).
``check_order_preserving`` probes that property on a finite set of job
values and reports a concrete witness when it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, MissingEntry

__all__ = [
    "PROBE_GRID_POINTS",
    "FunctionKind",
    "Monotonicity",
    "Interval",
    "ThresholdFunction",
    "OrderWitness",
    "OrderCheck",
    "WorkerState",
    "Worker",
    "Instance",
    "AssignmentRecord",
    "eval_f",
    "eval_f_array",
    "default_probe_grid",
    "check_order_preserving",
]

# Number of uniformly spaced probe points used when checking
# order-preservation over a continuous domain.
PROBE_GRID_POINTS = 64


class FunctionKind(Enum):
    PRODUCT = "product"
    RATIO = "ratio"
    TABULATED = "tabulated"


class Monotonicity(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def strictly_contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def grid(self, points: int = PROBE_GRID_POINTS) -> list[float]:
        """Uniformly spaced probe points covering the interval."""
        if points < 2:
            return [self.lo]
        step = self.width / (points - 1)
        pts = [self.lo + i * step for i in range(points - 1)]
        pts.append(self.hi)
        return pts


@dataclass(frozen=True)
class ThresholdFunction:
    """A threshold function f(x, p) over job value x and worker rate p.

    Three kinds are supported. ``PRODUCT`` is f = x * p, increasing in x;
    its domain must not extend below zero, otherwise the worker ranking
    would flip sign with x. ``RATIO`` is f = p / x, decreasing in x, and
    requires a strictly positive domain. ``TABULATED`` is a finite map
    from (job value, rate) pairs to values with no declared monotonicity;
    it is matched by exact float equality of the pair.
    """

    kind: FunctionKind
    domain: Interval
    monotonicity_in_x: Monotonicity
    table: Mapping[tuple[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.kind is FunctionKind.PRODUCT:
            if self.monotonicity_in_x is not Monotonicity.INCREASING:
                raise ValueError("product kind is increasing in x; monotonicity must not be overridden")
            if self.domain.lo < 0.0:
                raise ValueError("product kind requires a nonnegative domain")
            if self.table is not None:
                raise ValueError("table is only meaningful for the tabulated kind")
        elif self.kind is FunctionKind.RATIO:
            if self.monotonicity_in_x is not Monotonicity.DECREASING:
                raise ValueError("ratio kind is decreasing in x; monotonicity must not be overridden")
            if self.domain.lo <= 0.0:
                raise ValueError("ratio kind requires a strictly positive domain")
            if self.table is not None:
                raise ValueError("table is only meaningful for the tabulated kind")
        else:
            if not self.table:
                raise ValueError("tabulated kind requires a nonempty table")
            if self.monotonicity_in_x is not Monotonicity.UNKNOWN:
                raise ValueError("tabulated kind has no declared monotonicity in x")
            for (x, p), value in self.table.items():
                if not (math.isfinite(x) and math.isfinite(p) and math.isfinite(value)):
                    raise ValueError("table entries must be finite")
                if not self.domain.contains(x):
                    raise ValueError(f"table job value {x} outside domain")

    @classmethod
    def product(cls, domain: Interval = Interval(0.0, 1.0)) -> "ThresholdFunction":
        return cls(FunctionKind.PRODUCT, domain, Monotonicity.INCREASING)

    @classmethod
    def ratio(cls, domain: Interval) -> "ThresholdFunction":
        return cls(FunctionKind.RATIO, domain, Monotonicity.DECREASING)

    @classmethod
    def tabulated(
        cls,
        table: Mapping[tuple[float, float], float],
        domain: Interval | None = None,
    ) -> "ThresholdFunction":
        if not table:
            raise ValueError("tabulated kind requires a nonempty table")
        if domain is None:
            xs = [x for (x, _p) in table]
            domain = Interval(min(xs), max(xs))
        return cls(FunctionKind.TABULATED, domain, Monotonicity.UNKNOWN, dict(table))

    def job_values(self) -> list[float]:
        """Distinct job values a tabulated function is defined on."""
        if self.table is None:
            raise ValueError("only tabulated functions enumerate job values")
        return sorted({x for (x, _p) in self.table})

    def job_boundary(self, alpha: float, p: float) -> float:
        """Job value x at which f(x, p) meets alpha, for alpha > 0.

        Product jobs clear the threshold at x >= alpha / p and ratio jobs
        at x <= p / alpha; tabulated functions have no such boundary.
        """
        if self.kind is FunctionKind.PRODUCT:
            return alpha / p
        if self.kind is FunctionKind.RATIO:
            return p / alpha
        raise ValueError("tabulated functions have no closed-form job boundary")


def eval_f(f: ThresholdFunction, x: float, p: float) -> float:
    """Evaluate f(x, p), enforcing the function's domain.

    Raises DomainError when x falls outside the domain, which for a ratio
    lies above 0, and MissingEntry for an absent tabulated pair.
    """
    domain = f.domain
    if not domain.lo <= x <= domain.hi:
        raise _outside_domain(domain, x)
    if f.kind is FunctionKind.PRODUCT:
        return x * p
    if f.kind is FunctionKind.RATIO:
        return p / x
    assert f.table is not None
    try:
        return f.table[(x, p)]
    except KeyError:
        raise MissingEntry(f"no table entry for pair ({x}, {p})") from None


def eval_f_array(f: ThresholdFunction, xs: np.typing.ArrayLike, ps: np.typing.ArrayLike) -> np.ndarray:
    """Evaluate f over job values and rates broadcast against each other.

    Every job value in xs must lie in the domain, even when the broadcast
    is empty; the first one outside it (NaN included) raises DomainError.
    Tabulated pairs are looked up one at a time in row-major order, so an
    absent pair raises the same MissingEntry that ``eval_f`` would.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    domain = f.domain
    if xs.size and not (domain.lo <= xs.min() and xs.max() <= domain.hi):
        outside = ~((xs >= domain.lo) & (xs <= domain.hi))
        raise _outside_domain(domain, float(xs[outside].flat[0]))
    if f.kind is FunctionKind.PRODUCT:
        return xs * ps
    if f.kind is FunctionKind.RATIO:
        return ps / xs
    bx, bp = np.broadcast_arrays(xs, ps)
    values = [eval_f(f, x, p) for x, p in zip(bx.ravel().tolist(), bp.ravel().tolist())]
    return np.asarray(values, dtype=float).reshape(bx.shape)


def _outside_domain(domain: Interval, x: float) -> DomainError:
    return DomainError(f"job value {x} outside domain [{domain.lo}, {domain.hi}]")


@dataclass(frozen=True)
class OrderWitness:
    """Two job values and two rates whose pairwise order flips between them."""

    x_a: float
    x_b: float
    p_u: float
    p_v: float


@dataclass(frozen=True)
class OrderCheck:
    preserving: bool
    witness: OrderWitness | None = None


def default_probe_grid(f: ThresholdFunction, observed: Iterable[float] = ()) -> list[float]:
    """Probe set for order checks: observed job values plus a uniform grid.

    Tabulated functions are probed on their own job values instead, since
    the grid would fall between table entries.
    """
    if f.kind is FunctionKind.TABULATED:
        probes = set(f.job_values())
        probes.update(observed)
        return sorted(probes)
    probes = set(f.domain.grid())
    probes.update(observed)
    return sorted(probes)


def check_order_preserving(
    f: ThresholdFunction,
    probe_jobs: Sequence[float],
    rates: Sequence[float],
) -> OrderCheck:
    """Check that the ranking of f(x, p) over rates is the same for every probe.

    Ties are allowed; only a strict reversal between two probes counts as a
    violation. On failure the result carries one concrete witness, found by
    scanning rate pairs in index order and probes in the given order.
    """
    probes = list(probe_jobs)
    rs = list(rates)
    if not probes:
        raise ValueError("probe_jobs must be nonempty")
    if not rs:
        raise ValueError("rates must be nonempty")
    values = [[eval_f(f, x, p) for p in rs] for x in probes]
    m = len(rs)
    for u in range(m):
        for v in range(u + 1, m):
            below = None
            above = None
            for i in range(len(probes)):
                d = values[i][u] - values[i][v]
                if d < 0.0:
                    if below is None:
                        below = i
                elif d > 0.0:
                    if above is None:
                        above = i
                if below is not None and above is not None:
                    a, b = (below, above) if below < above else (above, below)
                    return OrderCheck(False, OrderWitness(probes[a], probes[b], rs[u], rs[v]))
    return OrderCheck(True)


class WorkerState(Enum):
    AVAILABLE = "available"
    BUSY = "busy"
    CONSUMED = "consumed"


@dataclass
class Worker:
    """A worker with performance rate p in (0, 1] and cycle rate lambda.

    A worker assigned a job becomes Consumed when its cycle rate is
    infinite, otherwise Busy until its return time. Consumed is terminal.
    """

    id: int
    rate: float
    cycle_rate: float = math.inf
    state: WorkerState = WorkerState.AVAILABLE
    return_time: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"worker rate must lie in (0, 1], got {self.rate}")
        if not self.cycle_rate > 0.0:
            raise ValueError("cycle rate must be positive (inf for single-use workers)")
        if (self.state is WorkerState.BUSY) != (self.return_time is not None):
            raise ValueError("busy workers and only busy workers carry a return time")

    @property
    def available(self) -> bool:
        return self.state is WorkerState.AVAILABLE

    def mark_assigned(self, busy_until: float | None) -> None:
        if self.state is not WorkerState.AVAILABLE:
            raise ValueError(f"worker {self.id} is {self.state.value}, not available")
        if busy_until is None:
            self.state = WorkerState.CONSUMED
            self.return_time = None
        else:
            self.state = WorkerState.BUSY
            self.return_time = busy_until

    def release(self) -> None:
        if self.state is WorkerState.CONSUMED:
            raise ValueError(f"worker {self.id} is consumed and never returns")
        self.state = WorkerState.AVAILABLE
        self.return_time = None

    def copy(self) -> "Worker":
        return Worker(self.id, self.rate, self.cycle_rate, self.state, self.return_time)


@dataclass(frozen=True)
class Instance:
    """A problem instance: threshold alpha, function f, and a worker roster.

    The roster is a template; policy runs operate on their own copies so an
    instance can be replayed. The seed feeds any stochastic simulation
    component (exponential cycle delays, sampled job streams).
    """

    alpha: float
    f: ThresholdFunction
    workers: tuple[Worker, ...]
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "workers", tuple(self.workers))
        ids = [w.id for w in self.workers]
        if len(ids) != len(set(ids)):
            raise ValueError("worker ids must be unique")


@dataclass(frozen=True)
class AssignmentRecord:
    """Outcome of offering one job to the policy.

    Assigned records carry the worker id and the achieved f value (never
    below the threshold); rejected records carry neither.
    """

    job_id: int
    threshold: float
    worker_id: int | None = None
    f_value: float | None = None

    def __post_init__(self) -> None:
        if (self.worker_id is None) != (self.f_value is None):
            raise ValueError("worker id and f value must be set together")
        if self.f_value is not None and not self.f_value >= self.threshold:
            raise ValueError("assigned records require f_value >= threshold")

    @property
    def assigned(self) -> bool:
        return self.worker_id is not None
