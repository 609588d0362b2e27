"""Offline optima for one-shot assignment instances.

Two independent routes compute the best achievable reward when the whole
job sequence is known in advance: an exhaustive enumeration over every
partial assignment, guarded to tiny instances, and a maximum-cardinality
bipartite matching on the feasibility graph. The exhaustive route exists
to be obviously correct; the matching route scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FunctionKind, ThresholdFunction, eval_f
from .errors import DomainError, TooLarge

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "FeasibilityGraph",
    "offline_optimum_exhaustive",
    "offline_optimum_matching",
]

EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class FeasibilityGraph:
    """Bipartite graph of job/worker pairs clearing the threshold.

    Jobs and workers are indexed from zero; an edge (i, j) means job i may
    be served by worker j.
    """

    n_jobs: int
    n_workers: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < self.n_jobs and 0 <= j < self.n_workers):
                raise ValueError(f"edge ({i}, {j}) out of range")

    @classmethod
    def build(
        cls,
        job_values: Sequence[float],
        rates: Sequence[float],
        f: ThresholdFunction,
        alpha: float,
    ) -> "FeasibilityGraph":
        for x in job_values:
            if not f.domain.contains(x):
                raise DomainError(f"job value {x} outside domain")
        if f.kind is FunctionKind.PRODUCT:
            values = np.asarray(job_values, dtype=float)[:, None] * np.asarray(rates, dtype=float)[None, :]
            pairs = np.argwhere(values >= alpha)
        elif f.kind is FunctionKind.RATIO:
            values = np.asarray(rates, dtype=float)[None, :] / np.asarray(job_values, dtype=float)[:, None]
            pairs = np.argwhere(values >= alpha)
        else:
            pairs = [
                (i, j)
                for i, x in enumerate(job_values)
                for j, p in enumerate(rates)
                if eval_f(f, x, p) >= alpha
            ]
        edges = frozenset((int(i), int(j)) for i, j in pairs)
        return cls(len(job_values), len(rates), edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_jobs)]
        for i, j in self.edges:
            adj[i].append(j)
        for row in adj:
            row.sort()
        return adj


def offline_optimum_exhaustive(
    job_values: Sequence[float],
    rates: Sequence[float],
    f: ThresholdFunction,
    alpha: float,
) -> int:
    """Best one-shot reward by enumerating every partial assignment.

    Walks the full decision tree (assign job i to any unused feasible
    worker, or reject it), memoizing on the job index and the used-worker
    set. Guarded to at most EXHAUSTIVE_LIMIT jobs and workers.
    """
    n = len(job_values)
    m = len(rates)
    if n > EXHAUSTIVE_LIMIT or m > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive oracle is limited to {EXHAUSTIVE_LIMIT} jobs and workers")
    feasible_masks = []
    for x in job_values:
        mask = 0
        for j, p in enumerate(rates):
            if eval_f(f, x, p) >= alpha:
                mask |= 1 << j
        feasible_masks.append(mask)

    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == n:
            return 0
        key = (i, used)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = best(i + 1, used)
        remaining = feasible_masks[i] & ~used
        while remaining:
            bit = remaining & -remaining
            result = max(result, 1 + best(i + 1, used | bit))
            remaining ^= bit
        memo[key] = result
        return result

    return best(0, 0)


def offline_optimum_matching(graph: FeasibilityGraph) -> int:
    """Maximum number of jobs servable at all, via augmenting paths.

    Searches for an augmenting path from each job in turn (Kuhn's
    algorithm, O(V * E)). The depth-first search keeps its own stack, so
    a path as long as the graph is wide cannot exhaust the interpreter's
    recursion limit.
    """
    adjacency = graph.adjacency()
    matched_job: list[int] = [-1] * graph.n_workers

    def try_augment(root: int, visited: list[bool]) -> bool:
        # jobs[d] is the job at depth d and edges[d] the rest of its edge
        # list; workers[d] is the worker through which jobs[d + 1] was reached.
        jobs, edges, workers = [root], [iter(adjacency[root])], []
        while edges:
            for j in edges[-1]:
                if not visited[j]:
                    break
            else:
                jobs.pop()
                edges.pop()
                if workers:
                    workers.pop()
                continue
            visited[j] = True
            workers.append(j)
            if matched_job[j] == -1:
                for job, worker in zip(jobs, workers):
                    matched_job[worker] = job
                return True
            jobs.append(matched_job[j])
            edges.append(iter(adjacency[matched_job[j]]))
        return False

    size = 0
    for i in range(graph.n_jobs):
        if try_augment(i, [False] * graph.n_workers):
            size += 1
    return size
