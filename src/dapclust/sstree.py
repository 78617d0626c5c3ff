"""SS+tree spatial index: a bounding-sphere hierarchy for knn and range queries.

The tree is bulk-built top-down and immutable afterwards. Split rule, as in
White & Jain's SS-tree (ICDE 1996): a group of points is cut at the median of
its highest-variance coordinate. Oversized groups are re-split largest-first
until the fanout limit is filled.

``knn`` and ``range`` walk the tree once per query in plain Python. No
clusterer uses the tree: their queries go to ``grid.Grid``. Only the
benchmark under ``bench/`` builds and wraps it, and the module goes once
the benchmark no longer does (ROADMAP item 1).
"""

from __future__ import annotations

import heapq
from math import sqrt

import numpy as np

from .core import Dataset, Point, bounding_sphere, squared_distances_to

FANOUT = 8
LEAF_CAP = 16

# A sphere's radius is the largest member distance computed by the query rule
# itself, but the pruning tests add and subtract it from a centre distance,
# and each of those sums rounds. The slack absorbs that rounding. It only
# ever widens a node's reach, so pruning stays sound.
_SLACK = 1e-9


class SsNode:
    """One tree node: a bounding sphere over every point stored beneath it.

    A leaf holds its points' ``ids`` and coordinate ``rows`` (plain-float
    lists); an internal node holds its ``children`` and their ``centers``,
    so a query measures a whole node with one distance call. ``count`` is
    the number of points beneath the node.
    """

    __slots__ = ("center", "radius", "children", "centers", "ids", "rows", "count")

    def __init__(self, center, radius, children=None, ids=None, rows=None):
        self.center = center
        self.radius = radius
        self.children = children
        self.ids = ids
        self.rows = rows
        if children is not None:
            self.centers = [c.center for c in children]
            self.count = sum(c.count for c in children)
        else:
            self.centers = None
            self.count = len(ids)

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _split(coords, pos):
    """Cut one group of point positions in half at the median of its
    highest-variance coordinate."""
    sub = coords[pos]
    axis = int(np.argmax(sub.var(axis=0)))
    srt = pos[np.argsort(sub[:, axis], kind="stable")]
    half = len(pos) // 2
    return srt[:half], srt[half:]


def _build_node(coords, pos):
    """The subtree over the rows ``pos`` of ``coords``; a row's position is
    its point id."""
    center, radius = bounding_sphere(coords[pos])
    if len(pos) <= LEAF_CAP:
        return SsNode(center, radius, ids=pos.tolist(), rows=coords[pos].tolist())
    groups = [pos]
    while len(groups) < FANOUT:
        largest = max(range(len(groups)), key=lambda g: len(groups[g]))
        if len(groups[largest]) <= LEAF_CAP:
            break
        groups[largest : largest + 1] = _split(coords, groups[largest])
    children = [_build_node(coords, g) for g in groups]
    return SsNode(center, radius, children=children)


def _query_coords(q):
    if isinstance(q, Point):
        return [float(v) for v in q.coords], q.id
    return [float(v) for v in q], None


class SsTree:
    """Immutable spatial index over a set of points."""

    def __init__(self, root, dim, size):
        self.root = root
        self.dim = dim
        self.size = size

    @classmethod
    def build(cls, data: Dataset) -> "SsTree":
        """Index every point of ``data``, by its id (row number);
        deterministic."""
        root = _build_node(data.coords, np.arange(len(data))) if len(data) else None
        return cls(root, data.dim, len(data))

    def knn(self, q, m: int, include_self: bool = True) -> list[tuple[int, float]]:
        """The m indexed points nearest to q (fewer if the tree holds fewer),
        ascending by distance with ties broken by ascending id.

        q may be a Point or a bare coordinate sequence. With include_self
        False and q a Point whose id is indexed, that id is excluded.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        qc, qid = _query_coords(q)
        if self.root is None:
            return []
        if len(qc) != self.dim:
            raise ValueError(f"query dimension {len(qc)} != tree dimension {self.dim}")
        exclude = qid if (qid is not None and not include_self) else None

        best: list[tuple[float, int]] = []  # max-heap via (-distance, -id)
        todo = [(0.0, 0, self.root)]
        seq = 1
        while todo:
            mind, _, node = heapq.heappop(todo)
            if len(best) == m and mind > -best[0][0]:
                break
            if node.children is None:
                for pid, s in zip(node.ids, squared_distances_to(qc, node.rows)):
                    if pid == exclude:
                        continue
                    d = sqrt(s)
                    if len(best) < m:
                        heapq.heappush(best, (-d, -pid))
                    elif (-d, -pid) > best[0]:  # nearer than the worst kept
                        heapq.heapreplace(best, (-d, -pid))
            else:
                bound = None if len(best) < m else -best[0][0]
                for child, s in zip(node.children, squared_distances_to(qc, node.centers)):
                    mindist = sqrt(s) - child.radius - _SLACK
                    if mindist < 0.0:
                        mindist = 0.0
                    # Equal bounds must still be visited: a tied point with a
                    # smaller id can displace the current worst.
                    if bound is None or mindist <= bound:
                        heapq.heappush(todo, (mindist, seq, child))
                        seq += 1
        out = sorted((-nd, -nid) for nd, nid in best)
        return [(pid, d) for d, pid in out]

    def range(self, center, radius: float) -> list[int]:
        """Ids of all indexed points within the closed ball (<= radius),
        ascending by id."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        qc, _ = _query_coords(center)
        out: list[int] = []
        if self.root is None:
            return out
        if len(qc) != self.dim:
            raise ValueError(f"query dimension {len(qc)} != tree dimension {self.dim}")
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children is None:
                for pid, s in zip(node.ids, squared_distances_to(qc, node.rows)):
                    if sqrt(s) <= radius:
                        out.append(pid)
                continue
            for child, s in zip(node.children, squared_distances_to(qc, node.centers)):
                if sqrt(s) <= radius + child.radius + _SLACK:  # else no point beneath qualifies
                    stack.append(child)
        out.sort()
        return out

    def walk(self):
        """Yield every node, parents before their children."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(node.children)
