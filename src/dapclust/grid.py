"""A coordinate grid: the pipeline's spatial index.

The points are bucketed into cells on the (up to) two coordinates of widest
finite spread, and sorted by cell, so the cells of one row of a query's box
are one slice of the sorted ids. Exact range and nearest queries measure only
the points of those slices, as in Gan & Tao's grid for DBSCAN ("DBSCAN
Revisited", SIGMOD 2015). The canopy sweep takes its candidates from the same
boxes.
"""

from __future__ import annotations

import numpy as np

from .core import _BLOCK_ENTRIES, paired_squared_distances


class Grid:
    """The points of ``coords`` in square cells at least ``side`` (> 0) wide.

    On each grid coordinate the side is raised to span * 2**-40 where that is
    larger, which keeps every cell number exact in float64 and inside int64.
    ``order`` holds the point ids sorted by cell. Cell rows and columns are
    keyed by their rank among the occupied ones, so a far outlier adds no
    empty cells.
    """

    def __init__(self, coords: np.ndarray, side: float):
        self.coords = coords
        self.side = side
        self.lo = coords.min(axis=0)
        with np.errstate(over="ignore"):  # a span past the float range leaves the grid
            span = coords.max(axis=0) - self.lo
        width = np.where(np.isfinite(span), span, -1.0)
        widest = np.argsort(-width, kind="stable")[:2]
        self.axes = widest[width[widest] >= 0]
        self.sides = np.maximum(side, span[self.axes] * 2**-40)
        cells = np.zeros((len(coords), 2), dtype=np.int64)
        pos = (coords[:, self.axes] - self.lo[self.axes]) / self.sides
        cells[:, : len(self.axes)] = self._cell(pos)
        self.xs, rx = np.unique(cells[:, 0], return_inverse=True)
        self.ys, ry = np.unique(cells[:, 1], return_inverse=True)
        key = rx.ravel() * len(self.ys) + ry.ravel()
        self.order = np.argsort(key, kind="stable")
        self.key = key[self.order]

    def _cell(self, pos) -> np.ndarray:
        # The clip keeps infinite and far positions inside int64.
        return np.clip(np.floor(pos), -1, 2**41).astype(np.int64)

    def boxes(self, centers: np.ndarray, reach) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row slices of each query's box, centre +- reach on the grid
        coordinates: (query, start, stop) arrays, by query, of the non-empty
        slices of ``order``.

        Each box holds every point within ``reach`` of its centre on the grid
        coordinates, and so every point within that Euclidean distance by the
        package's rule, or within that L-inf distance. The margins cover the
        rounding of the distance sums (2**-20 of the reach) and of the cell
        arithmetic (2**-8 of a cell) for centres near the points.
        """
        q = len(centers)
        edges = np.zeros((2, q, 2))  # (low, high) cell edge per query and column
        for col, (a, s) in enumerate(zip(self.axes.tolist(), self.sides.tolist())):
            pos = (centers[:, a] - self.lo[a]) / s
            pad = np.asarray(reach) * (1 + 2**-20) / s + 2**-8
            edges[0, :, col] = pos - pad
            edges[1, :, col] = pos + pad
        lo, hi = self._cell(edges[0]), self._cell(edges[1])
        x0 = np.searchsorted(self.xs, lo[:, 0])
        x1 = np.searchsorted(self.xs, hi[:, 0], side="right")
        y0 = np.searchsorted(self.ys, lo[:, 1])
        y1 = np.searchsorted(self.ys, hi[:, 1], side="right")
        rows = np.where(y0 < y1, np.maximum(x1 - x0, 0), 0)
        query = np.repeat(np.arange(q), rows)
        row = np.arange(len(query)) - np.repeat(np.cumsum(rows) - rows, rows) + x0[query]
        start = np.searchsorted(self.key, row * len(self.ys) + y0[query])
        stop = np.searchsorted(self.key, row * len(self.ys) + y1[query])
        full = start < stop
        return query[full], start[full], stop[full]

    def candidates(self, centers: np.ndarray, reach):
        """Yield (query, point id) pair arrays of the points in each query's
        box (see ``boxes``), by query, in chunks of whole queries that hold
        about ``_BLOCK_ENTRIES`` pairs each."""
        query, start, stop = self.boxes(centers, reach)
        length = stop - start
        offset = np.cumsum(length) - length
        chunk = offset[np.searchsorted(query, query)] // _BLOCK_ENTRIES
        firsts = np.flatnonzero(np.diff(chunk, prepend=-1)).tolist()
        for a, b in zip(firsts, firsts[1:] + [len(query)]):
            n = length[a:b]
            first = np.repeat(start[a:b] - (offset[a:b] - offset[a]), n)
            yield np.repeat(query[a:b], n), self.order[first + np.arange(len(first))]

    def within(self, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (query, point id) pairs with the point in the closed ball
        ``sqrt(sq) <= radii[query]`` around ``centers[query]``, by the
        package's distance rule."""
        found = [(np.zeros(0, np.intp), np.zeros(0, np.intp))]
        for query, ids in self.candidates(centers, radii):
            sq = paired_squared_distances(centers, query, self.coords, ids)
            hit = np.sqrt(sq) <= radii[query]
            found.append((query[hit], ids[hit]))
        return tuple(np.concatenate(part) for part in zip(*found))

    def nearest(self, centers: np.ndarray, k: int, mask=None) -> tuple[np.ndarray, np.ndarray]:
        """The k points nearest to each centre among those where ``mask`` is
        set (all points without one; fewer when fewer are set), as (q, k)
        arrays of ids and distances, each row ascending by distance with ties
        by lower id: the order and the distance bits of the linear scan
        ``baselines.knn_reference``.

        Each query's box starts one cell side wide. It doubles while it holds
        fewer than k candidates, and widens to its k-th candidate distance
        when that lies past its reach; then it holds every nearer point.
        """
        k = min(k, len(self.coords) if mask is None else int(np.count_nonzero(mask)))
        ids = np.zeros((len(centers), k), dtype=np.intp)
        dist = np.zeros((len(centers), k))
        reach = np.full(len(centers), float(self.side))
        todo = np.arange(len(centers)) if k else np.zeros(0, np.intp)
        while len(todo):
            short = np.ones(len(todo), dtype=bool)
            done = np.zeros(len(todo), dtype=bool)
            for query, cand in self.candidates(centers[todo], reach[todo]):
                if mask is not None:
                    query, cand = query[mask[cand]], cand[mask[cand]]
                d = np.sqrt(paired_squared_distances(centers, todo[query], self.coords, cand))
                o = np.lexsort((cand, d, query))
                qs, first, count = np.unique(query[o], return_index=True, return_counts=True)
                qs, at = qs[count >= k], first[count >= k, None] + np.arange(k)
                short[qs] = False
                kth = d[o[at[:, -1]]]
                fits = kth <= reach[todo[qs]]
                ids[todo[qs[fits]]] = cand[o[at[fits]]]
                dist[todo[qs[fits]]] = d[o[at[fits]]]
                done[qs[fits]] = True
                reach[todo[qs[~fits]]] = kth[~fits]
            reach[todo[short]] *= 2
            todo = todo[~done]
        return ids, dist
