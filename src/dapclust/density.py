"""Per-partition scan-radius inference and the density-reachability merge."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NOISE, Dataset, Point, squared_distances
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
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.c <= 0:
            raise ValueError("c must be positive")


@dataclass
class LocalLabeling:
    """Labels keyed by point id (minimum member id per cluster, NOISE for
    unclustered points) plus the set of core point ids."""

    labels: dict[int, int] = field(default_factory=dict)
    core_flags: set[int] = field(default_factory=set)


def _as_coords(points) -> np.ndarray:
    if isinstance(points, Dataset):
        return points.coords
    if isinstance(points, np.ndarray):
        return points
    return np.array([p.coords for p in points], dtype=np.float64)


def estimate_epsilon(points, m: int, c: float = 1.0) -> float:
    """Scan radius for a partition: c times the mean distance to the m-th
    nearest neighbour (self excluded) over the partition's points.

    When the partition holds m or fewer points the farthest available
    neighbour stands in; a single point yields 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    coords = _as_coords(points)
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
    if isinstance(points, Dataset):
        pts = points.points
    elif isinstance(points, np.ndarray):
        pts = [Point(i, tuple(row)) for i, row in enumerate(coords)]
    else:
        pts = list(points)
    tree = SsTree.build(pts)
    total = 0.0
    for p in pts:
        total += tree.knn(p, col, include_self=False)[-1][1]
    return c * (total / k)


def density_cluster(points, cfg: DensityConfig, index: SsTree | None = None) -> LocalLabeling:
    """Density merge of one partition. A point with at least m neighbours
    (itself included) within epsilon is core, and its entire neighbourhood is
    merged into the point's cluster. A point is NOISE exactly when its merged
    set contains no core point; every other point is labelled with the
    minimum id of its set.

    Note the merge rule: a non-core point scanned by two different core points
    fuses their clusters. This is what lets per-region results combine by
    plain set union, and it intentionally differs from classic DBSCAN border
    handling.

    Up to ``_MATRIX_CAP`` points, one distance block gives every
    neighbourhood and array-wide label propagation the clusters; ``index`` is
    not used. Above it, every point runs a range query on ``index`` (built
    here when not given; it must hold exactly the given points) and a
    union-find merges the results, in memory linear in the neighbourhoods.
    Both routes give the same labels.
    """
    if isinstance(points, Dataset):
        pts = points.points
    else:
        pts = sorted(points, key=lambda p: p.id)
    labeling = LocalLabeling()
    k = len(pts)
    if k == 0:
        return labeling
    if k <= _MATRIX_CAP:
        return _dense_merge(pts, cfg)
    if index is None:
        index = SsTree.build(pts)
    pos = {p.id: i for i, p in enumerate(pts)}
    uf = UnionFind(k)
    core_pos = []
    for i, p in enumerate(pts):
        nbrs = index.range(p, cfg.epsilon)
        if len(nbrs) >= cfg.m:
            core_pos.append(i)
            for qid in nbrs:
                uf.union(i, pos[qid])
    has_core = {uf.find(i) for i in core_pos}
    root_min: dict[int, int] = {}
    for i, p in enumerate(pts):  # ids ascending: first visit per root is the minimum
        r = uf.find(i)
        if r in has_core and r not in root_min:
            root_min[r] = p.id
    for i, p in enumerate(pts):
        labeling.labels[p.id] = root_min.get(uf.find(i), NOISE)
    labeling.core_flags = {pts[i].id for i in core_pos}
    return labeling


def _dense_merge(pts, cfg: DensityConfig) -> LocalLabeling:
    """``density_cluster`` for id-sorted points, from one k x k block."""
    ids = np.array([p.id for p in pts])
    coords = np.array([p.coords for p in pts], dtype=np.float64)
    # Bit-identical to the distances a range query compares with epsilon.
    ball = np.sqrt(squared_distances(coords, coords)) <= cfg.epsilon
    core = np.count_nonzero(ball, axis=1) >= cfg.m
    linked = ball & core[:, None]
    comp = _lowest_in_component(linked | linked.T)
    clustered = np.zeros(len(ids), dtype=bool)
    clustered[comp[core]] = True
    labels = np.where(clustered[comp], ids[comp], NOISE)
    return LocalLabeling(dict(zip(ids.tolist(), labels.tolist())), set(ids[core].tolist()))


def _lowest_in_component(adj: np.ndarray) -> np.ndarray:
    """Lowest index in each node's connected component of a symmetric
    boolean adjacency matrix.

    Min-label propagation with pointer jumping, hooking as in FastSV (Zhang,
    Azad & Hu, 2020): each round a node and the root of its label both take
    the lowest grandparent label among the node's neighbours. A label is
    always a node of its own component no larger than the node, and labels
    only decrease, so the loop ends; at its fixpoint a component's labels all
    equal its lowest node. Moving roots, not only nodes, relabels whole trees
    at once: about a dozen rounds for a 1024-point chain in random id order,
    where propagating to nodes alone took over 700.
    """
    k = len(adj)
    lab = np.arange(k)
    while True:
        up = lab[lab]
        low = np.where(adj, up, k).min(axis=1)
        new = np.minimum(up, low)
        np.minimum.at(new, lab, low)
        if np.array_equal(new, lab):
            return lab
        lab = new
