"""Per-partition scan-radius inference and the density-reachability merge."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NOISE, Dataset, squared_distances
from .sstree import SsTree
from .unionfind import UnionFind

# Above this partition size the estimator and the density merge switch from
# one vectorised distance matrix (8 MiB at the cap) to per-point index queries.
_MATRIX_CAP = 1024


@dataclass(frozen=True)
class DensityConfig:
    """Core test parameters: at least m neighbours (the point itself included)
    within radius epsilon. c scales the radius during estimation only."""

    m: int
    epsilon: float
    c: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be non-negative and finite")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")


@dataclass
class LocalLabeling:
    """Labels keyed by point id (minimum member id per cluster, NOISE for
    unclustered points) plus the set of core point ids."""

    labels: dict[int, int] = field(default_factory=dict)
    core_flags: set[int] = field(default_factory=set)


def estimate_epsilon(coords: np.ndarray, m: int, c: float = 1.0) -> float:
    """Scan radius for a partition: c times the mean distance to the m-th
    nearest neighbour (self excluded) over the rows of the (k, dim) array
    ``coords``.

    When the partition holds m or fewer points the farthest available
    neighbour stands in; a single point yields 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    k = len(coords)
    if k <= 1:
        return 0.0
    col = min(m, k - 1)
    if k <= _MATRIX_CAP:
        sq = squared_distances(coords, coords)
        # Row-sorted position 0 is the point itself (distance 0); position col
        # is its col-th neighbour even when duplicates contribute more zeros.
        kth = np.sqrt(np.partition(sq, col, axis=1)[:, col])
        return c * float(kth.mean())
    data = Dataset.from_coords(coords)
    tree = SsTree.build(data)
    total = 0.0
    for p in data:
        total += tree.knn(p, col, include_self=False)[-1][1]
    return c * (total / k)


def density_cluster(data: Dataset, ids, cfg: DensityConfig) -> LocalLabeling:
    """Density merge of the points ``ids`` (strictly ascending) of ``data``.
    A point with at least m of them (itself included) within epsilon is core,
    and its entire neighbourhood is merged into the point's cluster. A point
    is NOISE exactly when its merged set contains no core point; every other
    point is labelled with the minimum id of its set.

    Note the merge rule: a non-core point scanned by two different core points
    fuses their clusters. This is what lets per-region results combine by
    plain set union, and it intentionally differs from classic DBSCAN border
    handling.

    Up to ``_MATRIX_CAP`` points this is ``stacked_merge`` of one partition.
    Above it, every point runs a range query on an SS+tree of the points and
    a union-find merges the results, in memory linear in the neighbourhoods.
    Both routes number the points by position, which follows their ids, and
    give the same labels.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError("ids must be strictly ascending")
    k = len(ids)
    if k == 0:
        return LocalLabeling()
    if k <= _MATRIX_CAP:
        labels, core = stacked_merge(data.coords, ids[None], np.array([cfg.epsilon]), cfg.m)
    else:
        coords = data.coords[ids]
        tree = SsTree.build(Dataset.from_coords(coords))
        uf = UnionFind(k)
        core = np.zeros((1, k), dtype=bool)
        for i, row in enumerate(coords.tolist()):
            nbrs = tree.range(row, cfg.epsilon)
            if len(nbrs) >= cfg.m:
                core[0, i] = True
                for j in nbrs:
                    uf.union(i, j)
        labels = _component_labels(ids[None], np.array([uf.labels()]), core)
    return LocalLabeling(dict(zip(ids.tolist(), labels[0].tolist())), set(ids[core[0]].tolist()))


def stacked_merge(coords: np.ndarray, ids: np.ndarray, epsilon: np.ndarray, m: int):
    """The density merge of ``density_cluster`` for a stack of partitions of
    up to ``_MATRIX_CAP`` points each, in a few array passes.

    ``ids`` is a (b, k) array: row p holds partition p's point ids (rows of
    ``coords``) in ascending order, padded at its end with -1. ``epsilon``
    holds each partition's scan radius, and m is shared. Returns (labels,
    core), both (b, k): per slot the lowest id of its component or NOISE,
    and whether it is core. Padding slots come out NOISE and not core.

    One stacked distance block gives every neighbourhood, with the padding
    masked out of both its rows and its columns, and stacked label
    propagation gives the components.
    """
    valid = ids >= 0
    pts = coords[np.where(valid, ids, 0)]
    # Bit-identical to the distances a range query compares with epsilon.
    ball = np.sqrt(squared_distances(pts, pts)) <= epsilon[:, None, None]
    ball &= valid[:, :, None]
    ball &= valid[:, None, :]
    core = np.count_nonzero(ball, axis=2) >= m
    linked = ball & core[:, :, None]
    comp = _lowest_in_component(linked | linked.transpose(0, 2, 1))
    return _component_labels(ids, comp, core), core


def _component_labels(ids, comp, core):
    """Per slot of the (b, k) arrays: the id at the lowest position ``comp``
    of its component when that component holds a core slot, else NOISE."""
    rows = np.arange(len(ids))[:, None]
    clustered = np.zeros(ids.shape, dtype=bool)
    clustered[np.broadcast_to(rows, ids.shape)[core], comp[core]] = True
    return np.where(clustered[rows, comp], ids[rows, comp], NOISE)


def _lowest_in_component(adj: np.ndarray) -> np.ndarray:
    """Lowest index in each node's connected component, for a (b, k, k)
    stack of symmetric boolean adjacency matrices: one row of k labels per
    matrix.

    Min-label propagation with pointer jumping, hooking as in FastSV (Zhang,
    Azad & Hu, 2020): each round a node and the root of its label both take
    the lowest grandparent label among the node's neighbours. A label is
    always a node of its own component no larger than the node, and labels
    only decrease, so the loop ends; at its fixpoint a component's labels all
    equal its lowest node. Moving roots, not only nodes, relabels whole trees
    at once: about a dozen rounds for a 1024-point chain in random id order,
    where propagating to nodes alone took over 700.

    A matrix whose labels did not move in a round has reached its fixpoint,
    so each round works only on the matrices that still moved in the one
    before. Labels are kept in the narrowest integer type that holds k.
    """
    b, k, _ = adj.shape
    lab = np.tile(np.arange(k, dtype=np.int16 if k < 2**15 else np.intp), (b, 1))
    todo = np.arange(b)  # the matrices still moving
    cur = lab
    while len(todo):
        up = np.take_along_axis(cur, cur, axis=1)
        low = np.where(adj, up[:, None, :], k).min(axis=2)
        new = np.minimum(up, low)
        np.minimum.at(new, (np.arange(len(todo))[:, None], cur), low)
        moved = (new != cur).any(axis=1)
        lab[todo] = new
        if not moved.all():
            todo, adj, new = todo[moved], adj[moved], new[moved]
        cur = new
    return lab
