"""SS+tree spatial index: a bounding-sphere hierarchy for knn and range queries.

The tree is bulk-built top-down and immutable afterwards. Split rule, as in
White & Jain's SS-tree (ICDE 1996): a group of points is cut at the median of
its highest-variance coordinate. Oversized groups are re-split largest-first
until the fanout limit is filled.

Two query forms share one set of decisions. ``knn`` and ``range`` walk the
tree once per query in plain Python. ``range_many`` walks it once for a whole
batch of spheres, with numpy at each node, and makes the same prune, accept
and leaf decisions as ``range``, bit for bit. Both forms are kept because
neither is fast at the other's job: a one-sphere ``range_many`` made the
canopy sweep, which asks one query at a time, four to six times slower,
and the regions stage asks thousands of queries at once.
"""

from __future__ import annotations

import heapq
from math import sqrt

import numpy as np

from .core import Dataset, Point, squared_distances, squared_distances_to

FANOUT = 8
LEAF_CAP = 16

# A sphere's radius is the largest member distance computed by the query rule
# itself, but the pruning tests add and subtract it from a centre distance,
# and each of those sums rounds. The slack absorbs that rounding. It only
# ever widens a node's reach, so pruning stays sound.
_SLACK = 1e-9


def bounding_sphere(coords: np.ndarray) -> tuple[tuple[float, ...], float]:
    """Approximate minimum enclosing sphere of a coordinate array.

    Two far-point passes pick a diameter estimate; the radius then expands to
    the farthest point so containment is guaranteed.
    """
    if len(coords) == 0:
        return (), 0.0

    def sq_to(p):
        return squared_distances(coords, p[None, :])[:, 0]

    p1 = coords[int(np.argmax(sq_to(coords[0])))]
    p2 = coords[int(np.argmax(sq_to(p1)))]
    center = (p1 + p2) / 2.0
    return tuple(center.tolist()), sqrt(float(sq_to(center).max()))


class SsNode:
    """One tree node: a bounding sphere over every point stored beneath it.

    A leaf holds its points' ``ids`` and coordinate ``rows`` (plain-float
    lists); an internal node holds its ``children`` and their ``centers``,
    so a query measures a whole node with one distance call. For the batched
    walk an internal node also keeps its children's centres and radii as
    arrays (``center_array``, ``radii``); the scalar walks keep the lists,
    because a Python loop over numpy rows is about four times slower than
    over tuples. The points beneath any node are the positions ``lo`` to
    ``lo + count`` of the tree's ``ids`` array, so a whole subtree's ids are
    one slice.
    """

    __slots__ = (
        "center",
        "radius",
        "children",
        "centers",
        "center_array",
        "radii",
        "ids",
        "rows",
        "count",
        "lo",
    )

    def __init__(self, center, radius, lo, children=None, ids=None, rows=None):
        self.center = center
        self.radius = radius
        self.lo = lo
        self.children = children
        self.ids = ids
        self.rows = rows
        if children is not None:
            self.centers = [c.center for c in children]
            self.center_array = np.array(self.centers)
            self.radii = np.array([c.radius for c in children])
            self.count = sum(c.count for c in children)
        else:
            self.centers = self.center_array = self.radii = None
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


def _build_node(coords, pos, order):
    """The subtree over the rows ``pos`` of ``coords``; a row's position is
    its point id. Leaf ids are appended to ``order`` as leaves are made, so
    every subtree's ids are one run of it, starting at the node's ``lo``."""
    lo = len(order)
    center, radius = bounding_sphere(coords[pos])
    if len(pos) <= LEAF_CAP:
        ids = pos.tolist()
        order.extend(ids)
        return SsNode(center, radius, lo, ids=ids, rows=coords[pos].tolist())
    groups = [pos]
    while len(groups) < FANOUT:
        largest = max(range(len(groups)), key=lambda g: len(groups[g]))
        if len(groups[largest]) <= LEAF_CAP:
            break
        groups[largest : largest + 1] = _split(coords, groups[largest])
    children = [_build_node(coords, g, order) for g in groups]
    return SsNode(center, radius, lo, children=children)


def _query_coords(q):
    if isinstance(q, Point):
        return [float(v) for v in q.coords], q.id
    return [float(v) for v in q], None


class SsTree:
    """Immutable spatial index over a set of points.

    ``ids`` lists the point ids leaf by leaf, in the order the leaves were
    built, so the points beneath any node are one slice of it (see
    ``SsNode``). ``coords`` is the indexed dataset's own read-only array,
    not a copy.
    """

    def __init__(self, root, coords, order):
        self.root = root
        self.coords = coords
        self.dim = coords.shape[1]
        self.size = len(order)
        # int32 where it holds every id, so batched results stay small.
        dtype = np.int32 if self.size <= np.iinfo(np.int32).max else np.int64
        self.ids = np.array(order, dtype=dtype)

    @classmethod
    def build(cls, data: Dataset) -> "SsTree":
        """Index every point of ``data``, by its id (row number);
        deterministic."""
        order: list[int] = []
        root = _build_node(data.coords, np.arange(len(data)), order) if len(data) else None
        return cls(root, data.coords, order)

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
                d = sqrt(s)
                if d > radius + child.radius + _SLACK:
                    continue  # no point beneath can qualify
                if d + child.radius <= radius - _SLACK:
                    # Whole subtree safely inside even after float error, so
                    # the per-point test can be skipped.
                    out.extend(self.ids[child.lo : child.lo + child.count].tolist())
                else:
                    stack.append(child)
        out.sort()
        return out

    def range_many(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """Every ``range(centers[i], radii[i])`` at once, in CSR form: the
        ids of sphere i are ``ids[ptr[i]:ptr[i + 1]]``, ascending, and equal
        that query's result exactly.

        ``centers`` is a (q, dim) array (or rows of coordinates) and
        ``radii`` holds q radii. One walk carries every sphere that reaches a
        node, and tests them all against the node's children, or the leaf's
        points, through one ``squared_distances`` block with the sums and
        comparisons of ``range``. So each node is visited once, and a
        temporary holds at most q entries per child or leaf point.
        """
        radii = np.asarray(radii, dtype=np.float64)
        q = len(radii)
        if np.any(radii < 0):
            raise ValueError("radius must be non-negative")
        if q == 0 or self.root is None:
            return np.zeros(q + 1, dtype=np.int64), self.ids[:0]
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (q, self.dim):
            raise ValueError(
                f"centers of shape {centers.shape} for {q} radii in dimension {self.dim}"
            )
        n = self.size
        ids, coords = self.ids, self.coords
        found = [np.zeros(0, dtype=np.int64)]  # keys sphere * n + id
        stack = [(self.root, np.arange(q))]
        while stack:
            node, live = stack.pop()
            lo = node.lo
            if node.children is None:
                pids = ids[lo : lo + node.count]
                block = squared_distances(centers[live], coords[pids])
                s, j = np.nonzero(np.sqrt(block) <= radii[live, None])
                found.append(live[s] * n + pids[j])
                continue
            d = np.sqrt(squared_distances(centers[live], node.center_array))
            r = radii[live, None]
            reach = ~(d > r + node.radii + _SLACK)
            inside = reach & (d + node.radii <= r - _SLACK)
            # Spheres that hold a child whole take its ids as one slice; the
            # others that reach it descend.
            for child, whole, part in zip(node.children, inside.T, (reach & ~inside).T):
                if whole.any():
                    span = ids[child.lo : child.lo + child.count]
                    found.append((live[whole][:, None] * n + span).ravel())
                if part.any():
                    stack.append((child, live[part]))
        keys = np.concatenate(found)
        keys.sort()
        sphere = keys // n
        ptr = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(np.bincount(sphere, minlength=q), out=ptr[1:])
        keys -= sphere * n
        return ptr, keys.astype(ids.dtype)

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
