"""Cascaded screening levels sharing one global clock.

A job is offered to level 1 first and cascades to the next level only
when rejected; an assignment stops the cascade. Each level is an ordinary
``Instance``: its own workers, threshold and function. Splitting one
worker pool into levels can only lose reward relative to running the same
pool flat with the same function and threshold, and ``compare_flat``
measures that gap on a concrete stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import AssignmentRecord, Instance
from .errors import IncomparableLevels
from .policy import PolicyState, assign_next, run_stream

__all__ = [
    "MultilevelResult",
    "FlatComparison",
    "run_multilevel",
    "compare_flat",
]


@dataclass(frozen=True)
class MultilevelResult:
    records: tuple[tuple[AssignmentRecord, ...], ...]
    rewards: tuple[int, ...]
    total: int
    # (job_id, 1-based position of the assigning level, or None when every level rejected)
    job_outcomes: tuple[tuple[int, int | None], ...]


def _validate_levels(levels: Sequence[Instance]) -> None:
    if not levels:
        raise ValueError("at least one level is required")
    seen: set[int] = set()
    for level in levels:
        if not level.workers:
            raise ValueError("a level requires at least one worker")
        for worker in level.workers:
            if worker.id in seen:
                raise ValueError(f"worker id {worker.id} appears in more than one level")
            seen.add(worker.id)


def run_multilevel(
    levels: Sequence[Instance],
    jobs: Sequence[tuple[float, float]],
    *,
    force_non_order_preserving: bool = False,
) -> MultilevelResult:
    """Offer each job to the levels in order until one accepts it.

    Every level logs exactly the jobs it was offered, so a record at level
    i + 1 implies rejections at all earlier levels. All levels advance on
    the same arrival clock; every job reaches level 1, whose ``assign_next``
    rejects an arrival time that runs backwards.
    """
    _validate_levels(levels)
    states = [PolicyState(level, force_non_order_preserving=force_non_order_preserving) for level in levels]

    outcomes: list[tuple[int, int | None]] = []
    for job_id, (value, arrival_time) in enumerate(jobs, start=1):
        assigned_level: int | None = None
        for position, state in enumerate(states, start=1):
            record = assign_next(state, value, arrival_time, job_id=job_id)
            if record.assigned:
                assigned_level = position
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
    flat: int
    gap: int
    leveled: MultilevelResult
    flat_records: tuple[AssignmentRecord, ...]


def compare_flat(
    levels: Sequence[Instance],
    jobs: Sequence[tuple[float, float]],
    *,
    force_non_order_preserving: bool = False,
) -> FlatComparison:
    """Leveled total versus one flat pool of all workers on the same stream.

    Requires every level to share the function and threshold, otherwise
    the comparison is meaningless and IncomparableLevels is raised. With
    an order-preserving function the gap is never negative.
    """
    _validate_levels(levels)
    first = levels[0]
    for level in levels[1:]:
        if level.f != first.f:
            raise IncomparableLevels("levels use different threshold functions")
        if level.alpha != first.alpha:
            raise IncomparableLevels("levels use different thresholds")
    leveled = run_multilevel(levels, jobs, force_non_order_preserving=force_non_order_preserving)
    pool = tuple(worker for level in levels for worker in level.workers)
    flat_records, flat_reward = run_stream(
        Instance(alpha=first.alpha, f=first.f, workers=pool),
        jobs,
        force_non_order_preserving=force_non_order_preserving,
    )
    return FlatComparison(
        flat=flat_reward,
        gap=flat_reward - leveled.total,
        leveled=leveled,
        flat_records=tuple(flat_records),
    )
