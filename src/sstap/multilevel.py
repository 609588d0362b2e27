"""Cascaded screening levels sharing one global clock.

A job is offered to level 1 first and cascades to the next level only
when rejected; an assignment stops the cascade. Splitting one worker pool
into levels can only lose reward relative to running the same pool flat
with the same function and threshold, and ``compare_flat`` measures that
gap on a concrete stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AssignmentRecord, FunctionKind, Instance, ThresholdFunction, Worker, eval_f
from .errors import IncomparableLevels
from .policy import PolicyState, assign_next, run_stream

__all__ = [
    "LevelSpec",
    "MultilevelResult",
    "FlatComparison",
    "run_multilevel",
    "compare_flat",
    "split_workers_by_share",
    "build_levels",
]


@dataclass(frozen=True)
class LevelSpec:
    """One screening level: its workers, threshold, and function."""

    index: int
    workers: tuple[Worker, ...]
    alpha: float
    f: ThresholdFunction

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", tuple(self.workers))
        if not self.workers:
            raise ValueError("a level requires at least one worker")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True)
class MultilevelResult:
    records: tuple[tuple[AssignmentRecord, ...], ...]
    rewards: tuple[int, ...]
    total: int
    # (job_id, level index of the assignment or None when every level rejected)
    job_outcomes: tuple[tuple[int, int | None], ...]


def _validate_levels(levels: Sequence[LevelSpec]) -> None:
    if not levels:
        raise ValueError("at least one level is required")
    seen: set[int] = set()
    for level in levels:
        for worker in level.workers:
            if worker.id in seen:
                raise ValueError(f"worker id {worker.id} appears in more than one level")
            seen.add(worker.id)


def run_multilevel(
    levels: Sequence[LevelSpec],
    jobs: Sequence[tuple[float, float]],
    *,
    force_non_order_preserving: bool = False,
    cycle_delay_mode: str = "deterministic",
    rng_seed: int = 0,
) -> MultilevelResult:
    """Offer each job to the levels in order until one accepts it.

    Every level logs exactly the jobs it was offered, so a record at level
    i + 1 implies rejections at all earlier levels. All levels advance on
    the same arrival clock; every job reaches level 1, whose ``assign_next``
    rejects an arrival time that runs backwards.
    """
    _validate_levels(levels)
    states = []
    for position, level in enumerate(levels):
        seed = int(np.random.SeedSequence([rng_seed, position]).generate_state(1)[0])
        instance = Instance(alpha=level.alpha, f=level.f, workers=level.workers, rng_seed=seed)
        states.append(
            PolicyState(
                instance,
                force_non_order_preserving=force_non_order_preserving,
                cycle_delay_mode=cycle_delay_mode,
            )
        )

    outcomes: list[tuple[int, int | None]] = []
    for job_id, (value, arrival_time) in enumerate(jobs, start=1):
        assigned_level: int | None = None
        for position, state in enumerate(states):
            record = assign_next(state, value, arrival_time, job_id=job_id)
            if record.assigned:
                assigned_level = levels[position].index
                break
        outcomes.append((job_id, assigned_level))

    rewards = tuple(state.reward() for state in states)
    return MultilevelResult(
        records=tuple(tuple(state.log) for state in states),
        rewards=rewards,
        total=sum(rewards),
        job_outcomes=tuple(outcomes),
    )


@dataclass(frozen=True)
class FlatComparison:
    sum_leveled: int
    flat: int
    gap: int
    leveled: MultilevelResult
    flat_records: tuple[AssignmentRecord, ...]


def _same_function(a: ThresholdFunction, b: ThresholdFunction) -> bool:
    if a.kind is not b.kind or a.domain != b.domain:
        return False
    if a.kind is FunctionKind.TABULATED:
        return dict(a.table) == dict(b.table)
    return True


def compare_flat(
    levels: Sequence[LevelSpec],
    jobs: Sequence[tuple[float, float]],
    *,
    force_non_order_preserving: bool = False,
    rng_seed: int = 0,
) -> FlatComparison:
    """Leveled total versus one flat pool of all workers on the same stream.

    Requires every level to share the function and threshold, otherwise
    the comparison is meaningless and IncomparableLevels is raised. With
    an order-preserving function the gap is never negative.
    """
    _validate_levels(levels)
    first = levels[0]
    for level in levels[1:]:
        if not _same_function(level.f, first.f):
            raise IncomparableLevels("levels use different threshold functions")
        if level.alpha != first.alpha:
            raise IncomparableLevels("levels use different thresholds")
    leveled = run_multilevel(
        levels,
        jobs,
        force_non_order_preserving=force_non_order_preserving,
        rng_seed=rng_seed,
    )
    pool = tuple(worker for level in levels for worker in level.workers)
    flat_instance = Instance(alpha=first.alpha, f=first.f, workers=pool, rng_seed=rng_seed)
    flat_records, flat_reward = run_stream(
        flat_instance,
        jobs,
        force_non_order_preserving=force_non_order_preserving,
    )
    return FlatComparison(
        sum_leveled=leveled.total,
        flat=flat_reward,
        gap=flat_reward - leveled.total,
        leveled=leveled,
        flat_records=tuple(flat_records),
    )


def split_workers_by_share(
    workers: Sequence[Worker],
    f: ThresholdFunction,
    shares: Sequence[float] = (0.7, 0.2, 0.1),
) -> list[tuple[Worker, ...]]:
    """Partition workers into level groups by the ordering f induces.

    Workers are sorted ascending by f at a fixed probe value (weakest
    first), then split so group i holds floor(share_i * n) workers, with
    any remainder going to the first group.
    """
    if not workers:
        raise ValueError("workers must be nonempty")
    if not shares:
        raise ValueError("shares must be nonempty")
    if any(share <= 0.0 for share in shares):
        raise ValueError("shares must be positive")
    if abs(math.fsum(shares) - 1.0) > 1e-9:
        raise ValueError("shares must sum to one")
    if f.kind is FunctionKind.TABULATED:
        probe = f.job_values()[0]
    else:
        midpoint = 0.5 * (f.domain.lo + f.domain.hi)
        probe = midpoint if midpoint > f.domain.lo else f.domain.hi
    ranked = sorted(workers, key=lambda w: (eval_f(f, probe, w.rate), w.rate, w.id))
    n = len(ranked)
    sizes = [int(math.floor(share * n)) for share in shares]
    sizes[0] += n - sum(sizes)
    groups: list[tuple[Worker, ...]] = []
    start = 0
    for size in sizes:
        groups.append(tuple(ranked[start : start + size]))
        start += size
    return groups


def build_levels(
    workers: Sequence[Worker],
    f: ThresholdFunction,
    alpha: float,
    shares: Sequence[float] = (0.7, 0.2, 0.1),
) -> list[LevelSpec]:
    """Levels over one shared function and threshold, split by shares."""
    groups = split_workers_by_share(workers, f, shares)
    levels = []
    for position, group in enumerate(groups, start=1):
        if group:
            levels.append(LevelSpec(index=position, workers=group, alpha=alpha, f=f))
    return levels
