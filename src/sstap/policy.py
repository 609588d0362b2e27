"""Online greedy threshold policy.

Jobs arrive one at a time and must be assigned immediately or rejected.
The greedy rule assigns an arriving job of value x to the available worker
that minimizes f(x, p) among those clearing the threshold, which is
optimal whenever f is order-preserving: weaker feasible workers are spent
first, keeping stronger ones for jobs that will need them.

Every decision goes through one index that ``WorkerPool`` keeps: the free
workers in a list sorted by (rate, id), and the busy cycling workers in a
heap ordered by return time. Product and ratio functions rise with the
rate, so their greedy choice is the first free worker whose rate clears
the threshold. A bisection seeded with the inverted threshold finds it,
and a short walk settles the rounding at the boundary with f itself:
O(log m) comparisons and a few evaluations of f per decision. The bulk
counter ``greedy_threshold_count`` runs the same search over a plain
sorted rate list. Tabulated functions say nothing through the rate order,
so they scan every free worker.

Product and ratio functions are order-preserving by construction on their
validated domains (both are monotone in the rate for fixed x), so the
policy trusts them without probing. Tabulated functions are checked once
per run over their own table; a violation aborts the run unless the
caller explicitly forces a heuristic run.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .core import (
    AssignmentRecord,
    FunctionKind,
    Instance,
    OrderCheck,
    ThresholdFunction,
    Worker,
    WorkerState,
    check_order_preserving,
    eval_f,
)
from .errors import OrderViolation

__all__ = [
    "WorkerPool",
    "PolicyState",
    "assign_next",
    "run_stream",
    "release_returning_workers",
    "verify_order_preserving",
    "greedy_threshold_count",
]

CYCLE_DELAY_MODES = ("deterministic", "exponential")


_worker_id = attrgetter("id")


class WorkerPool:
    """Mutable roster of workers owned by a single policy run.

    The pool also indexes its workers for the greedy rule: the free ones in
    a list sorted by (rate, id), with their rates in a parallel list for
    bisection, and the busy ones in a heap of (return_time, id, worker).
    Workers change state only through ``assign`` and ``release_returning``;
    the index does not see a worker whose state is changed from outside.
    """

    def __init__(self, workers: Iterable[Worker]):
        self._workers = [w.copy() for w in workers]
        self._by_id = {w.id: w for w in self._workers}
        if len(self._by_id) != len(self._workers):
            raise ValueError("worker ids must be unique")
        self._free = sorted((w for w in self._workers if w.available), key=lambda w: (w.rate, w.id))
        self._free_rates = [w.rate for w in self._free]
        self._returns = [(w.return_time, w.id, w) for w in self._workers if w.state is WorkerState.BUSY]
        heapify(self._returns)

    @property
    def workers(self) -> tuple[Worker, ...]:
        return tuple(self._workers)

    def get(self, worker_id: int) -> Worker:
        return self._by_id[worker_id]

    def available(self) -> list[Worker]:
        """Free workers in (rate, id) order."""
        return list(self._free)

    def choose(self, f: ThresholdFunction, alpha: float, x: float) -> tuple[Worker, float] | None:
        """Greedy choice for job x with its f value, None when no free worker clears alpha.

        The choice minimizes (f value, rate, id) over the free workers
        clearing the threshold. For product and ratio kinds that is the
        first such worker in the free list.
        """
        if f.kind is FunctionKind.TABULATED:
            best = None
            for worker in self._free:
                value = eval_f(f, x, worker.rate)
                # ids are unique, so the worker itself is never compared
                if value >= alpha and (best is None or (value, worker.rate, worker.id, worker) < best):
                    best = (value, worker.rate, worker.id, worker)
            return None if best is None else (best[3], best[0])
        j = _first_feasible(f, alpha, x, self._free_rates)
        if j == len(self._free):
            return None
        worker = self._free[j]
        return worker, eval_f(f, x, worker.rate)

    def assign(self, worker_id: int, busy_until: float | None) -> None:
        """Take a free worker: busy until the given time, or consumed for None."""
        worker = self._by_id[worker_id]
        worker.mark_assigned(busy_until)
        i = self._position(worker)
        del self._free[i]
        del self._free_rates[i]
        if busy_until is not None:
            heappush(self._returns, (busy_until, worker.id, worker))

    def release_returning(self, now: float) -> list[int]:
        """Return cycled-back workers (return time <= now) to availability."""
        released = []
        while self._returns and self._returns[0][0] <= now:
            _time, worker_id, worker = heappop(self._returns)
            worker.release()
            i = self._position(worker)
            self._free.insert(i, worker)
            self._free_rates.insert(i, worker.rate)
            released.append(worker_id)
        return sorted(released)

    def _position(self, worker: Worker) -> int:
        """Index of the worker's (rate, id) slot in the free list."""
        lo = bisect_left(self._free_rates, worker.rate)
        hi = bisect_right(self._free_rates, worker.rate, lo)
        return bisect_left(self._free, worker.id, lo, hi, key=_worker_id)


def verify_order_preserving(instance: Instance) -> OrderCheck:
    """Order verdict for an instance's function against its own rates.

    Product and ratio kinds are preserving by construction. Tabulated
    kinds are probed on every job value of their table against the
    instance's worker rates.
    """
    f = instance.f
    if f.kind in (FunctionKind.PRODUCT, FunctionKind.RATIO):
        return OrderCheck(True)
    probes = f.job_values()
    rates = sorted({w.rate for w in instance.workers})
    return check_order_preserving(f, probes, rates)


class PolicyState:
    """Running state of one greedy policy execution.

    Owns a copy of the instance's workers, the simulation clock, and the
    decision log. ``heuristic`` becomes true once a non-order-preserving
    function has been forced past the order gate.
    """

    def __init__(
        self,
        instance: Instance,
        *,
        force_non_order_preserving: bool = False,
        cycle_delay_mode: str = "deterministic",
    ):
        if cycle_delay_mode not in CYCLE_DELAY_MODES:
            raise ValueError(f"cycle_delay_mode must be one of {CYCLE_DELAY_MODES}")
        self.instance = instance
        self.pool = WorkerPool(instance.workers)
        self.clock = 0.0
        self.log: list[AssignmentRecord] = []
        self.force_non_order_preserving = force_non_order_preserving
        self.cycle_delay_mode = cycle_delay_mode
        self._rng = np.random.default_rng(instance.rng_seed)
        self._order_check: OrderCheck | None = None
        self._heuristic = False

    @property
    def heuristic(self) -> bool:
        return self._heuristic

    def order_check(self) -> OrderCheck:
        if self._order_check is None:
            self._order_check = verify_order_preserving(self.instance)
        return self._order_check

    def _cycle_delay(self, worker: Worker) -> float:
        if self.cycle_delay_mode == "deterministic":
            return 1.0 / worker.cycle_rate
        return float(self._rng.exponential(1.0 / worker.cycle_rate))

    def reward(self) -> int:
        return sum(1 for record in self.log if record.assigned)


def release_returning_workers(state: PolicyState, now: float) -> list[int]:
    """Release every busy worker whose return time has passed, ids ascending."""
    if not now >= state.clock:
        raise ValueError("time must not run backwards")
    return state.pool.release_returning(now)


def assign_next(
    state: PolicyState,
    x: float,
    arrival_time: float,
    job_id: int | None = None,
) -> AssignmentRecord:
    """Offer one job to the greedy policy and log the outcome.

    Returning workers are released first. Among available workers with
    f(x, p) >= alpha the one minimizing f is chosen, breaking ties by
    smaller rate and then smaller id; with no candidate the job is
    rejected. Raises OrderViolation for a non-order-preserving function
    unless the state was built with the force flag.
    """
    if not arrival_time >= state.clock:
        raise ValueError("job arrivals must be offered in nondecreasing time order")
    check = state.order_check()
    if not check.preserving:
        if not state.force_non_order_preserving:
            raise OrderViolation(
                "function is not order-preserving; pass force_non_order_preserving to run heuristically",
                witness=check.witness,
            )
        state._heuristic = True
    release_returning_workers(state, arrival_time)
    state.clock = arrival_time

    instance = state.instance
    choice = state.pool.choose(instance.f, instance.alpha, x)
    if job_id is None:
        job_id = len(state.log) + 1
    if choice is None:
        record = AssignmentRecord(job_id=job_id, threshold=instance.alpha)
    else:
        worker, value = choice
        busy_until = None if math.isinf(worker.cycle_rate) else arrival_time + state._cycle_delay(worker)
        state.pool.assign(worker.id, busy_until)
        record = AssignmentRecord(
            job_id=job_id,
            threshold=instance.alpha,
            worker_id=worker.id,
            f_value=value,
        )
    state.log.append(record)
    return record


def run_stream(
    instance: Instance,
    jobs: Sequence[tuple[float, float]],
    *,
    force_non_order_preserving: bool = False,
    cycle_delay_mode: str = "deterministic",
) -> tuple[list[AssignmentRecord], int]:
    """Fold the greedy policy over a stream of (value, arrival_time) jobs.

    Returns the full decision log and the number of assignments. With
    single-use workers each worker serves at most once; with cycling the
    count includes every completed service. Arrival times must not
    decrease, which ``assign_next`` enforces.
    """
    state = PolicyState(
        instance,
        force_non_order_preserving=force_non_order_preserving,
        cycle_delay_mode=cycle_delay_mode,
    )
    for value, arrival_time in jobs:
        assign_next(state, value, arrival_time)
    return list(state.log), state.reward()


def _first_feasible(f: ThresholdFunction, alpha: float, x: float, rates: Sequence[float]) -> int:
    """Index of the first of the ascending ``rates`` with f(x, rate) >= alpha.

    Returns len(rates) when none clears the threshold. f must be of the
    product or ratio kind, which rise with the rate, so the feasible rates
    form a suffix. The bisection is seeded with the threshold inverted in
    exact arithmetic; rounding can put the boundary a few ulps to either
    side, so the two walks then move the index one distinct rate at a time
    until f itself confirms it. A nonempty list always gets at least one
    evaluation of f, so a job outside the domain raises DomainError.
    """
    # Inverted inline, not by a ThresholdFunction method: the call slows the sweep benchmark ~5%.
    if alpha <= 0.0:
        seed = 0.0
    elif f.kind is FunctionKind.RATIO:
        seed = alpha * x
    else:
        seed = alpha / x if x > 0.0 else math.inf
    m = len(rates)
    j = bisect_left(rates, seed)
    while j < m and not eval_f(f, x, rates[j]) >= alpha:
        j = bisect_right(rates, rates[j], j)
    while j > 0 and eval_f(f, x, rates[j - 1]) >= alpha:
        j = bisect_left(rates, rates[j - 1], 0, j - 1)
    return j


def greedy_threshold_count(
    f: ThresholdFunction,
    alpha: float,
    rates: Sequence[float],
    job_values: Sequence[float],
) -> int:
    """Reward of the greedy policy over single-use workers, computed in bulk.

    Equivalent to ``run_stream`` with all arrivals at time zero and
    lambda = inf, including the DomainError for a job outside the domain
    while a worker is free: each job takes the worker that the policy's
    own successor search finds, here over a plain sorted rate list. Used
    by threshold sweeps, which need only the count and not the records.
    """
    if f.kind is FunctionKind.TABULATED:
        raise ValueError("bulk greedy requires a product or ratio function")
    free = sorted(rates)
    count = 0
    for x in np.asarray(job_values, dtype=float).tolist():
        j = _first_feasible(f, alpha, x, free)
        if j < len(free):
            del free[j]
            count += 1
    return count
