"""Offline optima for one-shot assignment instances.

Both oracles read one feasibility graph, the boolean matrix of job/worker
pairs clearing the threshold, and return the best reward when the whole job
sequence is known in advance. An exhaustive enumeration of every partial
assignment, guarded to tiny instances, exists to be obviously correct; a
maximum-cardinality bipartite matching scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ThresholdFunction, eval_f_array
from .errors import TooLarge

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "FeasibilityGraph",
    "offline_optimum_exhaustive",
    "offline_optimum_matching",
]

EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True, eq=False)
class FeasibilityGraph:
    """Bipartite graph of job/worker pairs clearing the threshold.

    ``mask[i, j]`` means job i may be served by worker j. The graph keeps a
    read-only boolean copy of the mask it is given.
    """

    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"feasibility mask must be 2-D, got {mask.ndim}-D")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def build(
        cls,
        job_values: Sequence[float],
        rates: Sequence[float],
        f: ThresholdFunction,
        alpha: float,
    ) -> "FeasibilityGraph":
        xs = np.asarray(job_values, dtype=float)
        ps = np.asarray(rates, dtype=float)
        return cls(eval_f_array(f, xs[:, None], ps[None, :]) >= alpha)

    @property
    def edges(self) -> np.ndarray:
        """The (job, worker) pair of every edge, in row-major order."""
        return np.argwhere(self.mask)


def offline_optimum_exhaustive(graph: FeasibilityGraph) -> int:
    """Best one-shot reward by enumerating every partial assignment.

    Walks the full decision tree (assign job i to any unused feasible
    worker, or reject it), memoizing on the job index and the used-worker
    set. Guarded to at most EXHAUSTIVE_LIMIT jobs and workers.
    """
    n, m = graph.mask.shape
    if n > EXHAUSTIVE_LIMIT or m > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive oracle is limited to {EXHAUSTIVE_LIMIT} jobs and workers")
    feasible_masks = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in graph.mask]

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
    adjacency = [np.flatnonzero(row).tolist() for row in graph.mask]
    n_workers = graph.mask.shape[1]
    matched_job: list[int] = [-1] * n_workers

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

    return sum(try_augment(i, [False] * n_workers) for i in range(len(adjacency)))
