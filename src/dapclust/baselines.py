"""Reference clusterers and linear-scan oracles.

Everything here is deliberately simple and shares no query or merge code with
the indexed implementations it checks: the quadratic DBSCAN resolves
connectivity with a breadth-first walk instead of label propagation, and the knn
oracle carries its own coordinate loop.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ClusterResult, Dataset, Point, RunStats, squared_distances
from .density import LocalLabeling


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def lloyd(data: Dataset, cfg: KMeansConfig):
    """Lloyd iterations from a seeded uniform choice of k distinct input
    points, run until the assignment reaches a fixpoint or max_iters.

    Returns (assignment array, centroid array). A cluster that empties keeps
    its previous centroid. Fully reproducible for a fixed seed.
    """
    n = len(data)
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds dataset size {n}")
    coords = data.coords
    rng = random.Random(cfg.seed)
    centroids = coords[rng.sample(range(n), cfg.k)].copy()
    assign = None
    for _ in range(cfg.max_iters):
        sq = squared_distances(coords, centroids)
        new_assign = sq.argmin(axis=1)  # ties go to the lowest centroid index
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(cfg.k):
            members = coords[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return assign, centroids


def kmeans(data: Dataset, cfg: KMeansConfig) -> ClusterResult:
    """Lloyd's algorithm with labels canonicalised to the minimum member id
    per cluster."""
    start = time.perf_counter()
    assign, _centroids = lloyd(data, cfg)
    labels = [0] * len(data)
    first: dict[int, int] = {}
    for i, j in enumerate(assign):
        j = int(j)
        if j not in first:
            first[j] = i
        labels[i] = first[j]
    return ClusterResult(labels, set(), RunStats(t_total=time.perf_counter() - start))


def dbscan_reference(data: Dataset, epsilon: float, m: int) -> LocalLabeling:
    """Quadratic reference implementation of the same merge semantics as the
    indexed density step.

    A point is core when its closed epsilon-ball (itself included) holds at
    least m points; every core point pulls its whole ball into its cluster,
    so a shared neighbour fuses the clusters of all core points that scan it.
    Clusters are the connected components of that relation, found by a
    breadth-first walk; points whose component holds no core point are noise.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(data)
    out = LocalLabeling()
    if n == 0:
        return out
    coords = data.coords

    def ball(i):
        # One coordinate at a time in ascending order, as the scalar loop
        # sums: numpy's sum(axis=1) pairs terms differently from d = 8 on.
        s = np.zeros(n)
        for j in range(data.dim):
            diff = coords[:, j] - coords[i, j]
            s += diff * diff
        return np.flatnonzero(np.sqrt(s) <= epsilon)

    core = [len(ball(i)) >= m for i in range(n)]
    labels: dict[int, int] = {}
    for i in range(n):
        if i in labels or not core[i]:
            continue
        comp = []
        queue = deque([i])
        visited = {i}
        while queue:
            u = queue.popleft()
            comp.append(u)
            nbrs = ball(u)
            # From a non-core point only its core neighbours are connected;
            # a core point is connected to its entire ball.
            reach = nbrs if core[u] else [v for v in nbrs if core[v]]
            for v in reach:
                v = int(v)
                if v not in visited:
                    visited.add(v)
                    queue.append(v)
        lb = min(comp)
        for u in comp:
            labels[u] = lb
    for i in range(n):
        out.labels[i] = labels.get(i, -1)
        if core[i]:
            out.core_flags.add(i)
    return out


def knn_reference(data: Dataset, q, m: int, include_self: bool = True):
    """Linear-scan k nearest neighbours with the same (distance, id) tie rule
    as the tree query."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(q, Point):
        qc = q.coords
        qid = q.id if not include_self else None
    else:
        qc = tuple(q)
        qid = None
    # Every point's squared distance, summed one coordinate column at a time
    # in ascending order: the order of the scalar rule.
    sq = [0.0] * len(data)
    for x, col in zip(qc, data.coords.T.tolist()):
        sq = [s + (x - y) * (x - y) for s, y in zip(sq, col)]
    scored = sorted((math.sqrt(s), pid) for pid, s in enumerate(sq) if pid != qid)
    return [(pid, d) for d, pid in scored[:m]]
