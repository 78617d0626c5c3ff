"""Per-partition scan-radius inference and the density-reachability merge.

The scan radius is the mean distance to the m-th nearest neighbour over a
partition's rows. ``estimate_epsilon`` measures them with
``canopy.kth_nearest``, through the grid's queries or its cell blocks, and
the pipeline's stacks of canopies with ``core.kth_distances``; both give the
same bits. The merge runs as array passes over stacks of padded
partitions, in distance blocks of at most ``_BLOCK_ENTRIES`` entries, at
every partition size: groups of whole partitions, or row slabs of a large
one, whose neighbourhoods come from ``core.within_distance``. One sparse
label propagation, ``_lowest_linked``, gives the merge's components, and
the pipeline's reduce uses it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canopy import kth_nearest
from .core import _BLOCK_ENTRIES, NOISE, Dataset, within_distance


@dataclass(frozen=True)
class DensityConfig:
    """Core test parameters: at least m neighbours (the point itself included)
    within radius epsilon."""

    m: int
    epsilon: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be non-negative and finite")


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
    neighbour stands in; a single point yields 0. The distances are
    ``canopy.kth_nearest`` of every row, which has the bits of
    ``kth_distances`` of a stack of one partition, and numpy's ``mean``
    averages them as one contiguous row; its pairwise sum depends on the
    row length, so a caller that stacks partitions stacks equal sizes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    if len(coords) == 0:
        return 0.0
    return float(c * kth_nearest(coords, m, np.arange(len(coords))).mean())


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

    This is ``stacked_merge`` of one partition, at any size.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError("ids must be strictly ascending")
    if len(ids) == 0:
        return LocalLabeling()
    labels, core = stacked_merge(data.coords, ids[None], np.array([cfg.epsilon]), cfg.m)
    return LocalLabeling(dict(zip(ids.tolist(), labels[0].tolist())), set(ids[core[0]].tolist()))


def stacked_merge(coords: np.ndarray, ids: np.ndarray, epsilon: np.ndarray, m: int):
    """The density merge of ``density_cluster`` for a stack of partitions.

    ``ids`` is a (b, k) array: row p holds partition p's point ids (rows of
    ``coords``) in ascending order, padded at its end with -1. ``epsilon``
    holds each partition's scan radius, and m is shared. Returns (labels,
    core), both (b, k): per slot the lowest id of its component or NOISE,
    and whether it is core. Padding slots come out NOISE and not core.

    The stack is cut into slabs of at most ``_BLOCK_ENTRIES`` distance
    entries: groups of whole partitions when k * k fits, else row slabs of
    one partition. Each slab's distance block, with the padding masked out
    of its rows and its columns, gives its rows' neighbourhoods and so their
    core flags. ``core.within_distance`` decides each entry by the rule:
    from ``core._GRAM_DIM`` coordinates on, for large blocks, through the
    filter, where a matrix product decides every entry whose approximate
    squared distance lies farther from epsilon^2 than its error bound plus
    a few ulps, and the rule re-measures the rest. The padding slots repeat
    their partition's first point, which keeps that bound as tight as the
    partition allows. Each group's core edges then fold into its label
    array with ``_lowest_linked``, one slab after another, so memory stays
    at one slab plus O(b * k). A partition cut into row slabs is measured
    twice: once to count its neighbourhoods, which decides every core flag,
    and once for its edges, which need the core flags at both ends.
    """
    b, k = ids.shape
    valid = ids >= 0
    pts = coords[np.where(valid, ids, ids[:, :1])]  # padding: the first point
    parts = max(1, _BLOCK_ENTRIES // (k * k))
    rows = min(k, max(1, _BLOCK_ENTRIES // k))

    def ball(ps, r):
        rs = slice(r, r + rows)
        # The rule's answer, as a range query's comparison with epsilon.
        hit = within_distance(pts[ps, rs], pts[ps], epsilon[ps])
        hit &= valid[ps, rs, None]
        hit &= valid[ps, None, :]
        return hit

    core = np.zeros((b, k), dtype=bool)
    comp = np.tile(np.arange(k), (b, 1))  # the lowest slot of each slot's component
    for p in range(0, b, parts):
        ps = slice(p, p + parts)
        for r in range(0, k, rows):
            hit = ball(ps, r)
            core[ps, r : r + rows] = np.count_nonzero(hit, axis=2) >= m
        base = np.arange(len(hit))[:, None] * k  # the group's nodes are q * k + slot
        for r in range(0, k, rows):
            if rows < k:  # else ``hit`` is still the group's one block
                hit = ball(ps, r)
            # Edges from core rows, each undirected edge once: (i, j) is kept
            # when j is past i or not core. i itself is core, so i != j.
            past = np.arange(k) > np.arange(r, min(r + rows, k))[:, None]
            q, i, j = np.nonzero(hit & core[ps, r : r + rows, None] & (past | ~core[ps, None, :]))
            lab = _lowest_linked((comp[ps] + base).ravel(), q * k + i + r, q * k + j)
            comp[ps] = lab.reshape(base.shape[0], k) - base
    return _component_labels(ids, comp, core), core


def _component_labels(ids, comp, core):
    """Per slot of the (b, k) arrays: the id at the lowest position ``comp``
    of its component when that component holds a core slot, else NOISE."""
    rows = np.arange(len(ids))[:, None]
    clustered = np.zeros(ids.shape, dtype=bool)
    clustered[np.broadcast_to(rows, ids.shape)[core], comp[core]] = True
    return np.where(clustered[rows, comp], ids[rows, comp], NOISE)


def _lowest_linked(lab: np.ndarray, heads, tails) -> np.ndarray:
    """Lowest node in each node's connected component, for nodes 0..n-1
    with the start labels ``lab`` (n of them) and edges (heads[i], tails[i]).

    ``lab`` is ``np.arange(n)`` for a graph of the edges alone, or the result
    of an earlier call, so that edges can be folded in one batch after
    another. Its forest, the edges (x, lab[x]), joins the graph: the rounds
    below only lower labels along edges, so a start label that is not also an
    edge would never be checked again, and a component joined through it
    would split.

    Min-label propagation with root hooking and pointer jumping, as in FastSV
    (Zhang, Azad & Hu, 2020): each round a node and the root of its label
    both take the lowest grandparent label among the node's neighbours. A
    label is always a node of its own component no larger than the node, and
    labels only decrease, so the loop ends; at its fixpoint a component's
    labels all equal its lowest node. Moving roots, not only nodes, relabels
    whole trees at once: about a dozen rounds for a 1,024-node chain in
    random id order, where propagating to nodes alone took over 700.
    """
    n = len(lab)
    tree = np.flatnonzero(lab != np.arange(n))
    heads = np.concatenate([heads, tree])
    tails = np.concatenate([tails, lab[tree]])
    while True:
        up = lab[lab]
        low = np.full(n, n)
        np.minimum.at(low, heads, up[tails])
        np.minimum.at(low, tails, up[heads])
        new = np.minimum(up, low)
        np.minimum.at(new, lab, low)
        if np.array_equal(new, lab):
            return lab
        lab = new
