"""A coordinate grid: the pipeline's spatial index.

The points are bucketed into cells on the (up to) two coordinates of widest
finite spread, and sorted by cell, so the cells of one row of a query's box
are one slice of the sorted ids. Exact range and nearest queries measure only
the points of those slices, as in Gan & Tao's grid for DBSCAN ("DBSCAN
Revisited", SIGMOD 2015). The canopy sweep takes its candidates from the same
boxes, and ``kth_others`` measures whole cells of rows against theirs.
"""

from __future__ import annotations

import numpy as np

from .core import _BLOCK_ENTRIES, kth_distances, kth_squared_distances, pair_order, paired_squared_distances


class Grid:
    """The points of ``coords`` in square cells at least ``side`` (> 0) wide.

    On each grid coordinate the side is raised to span * 2**-40 where that is
    larger, which keeps every cell number exact in float64 and inside int64.
    ``order`` holds the point ids sorted by cell, ties by id. Cell rows and
    columns are keyed by their rank among the occupied ones, so a far
    outlier adds no empty cells.
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
        rx, ry = rx.ravel(), ry.ravel()
        self.order = pair_order(rx, ry, np.arange(len(coords)), len(coords))
        self.key = (rx * len(self.ys) + ry)[self.order]

    def _cell(self, pos) -> np.ndarray:
        # The clip keeps infinite and far positions inside int64.
        return np.clip(np.floor(pos), -1, 2**41).astype(np.int64)

    def _box(self, centers: np.ndarray, reach):
        """Each centre's position on the grid coordinates, in cells, and the
        low and high cells of its box (see ``boxes``), as (q, 2) arrays."""
        pos = np.zeros((len(centers), 2))
        pad = np.zeros((len(centers), 2))
        for col, (a, s) in enumerate(zip(self.axes.tolist(), self.sides.tolist())):
            pos[:, col] = (centers[:, a] - self.lo[a]) / s
            pad[:, col] = np.asarray(reach) * (1 + 2**-20) / s + 2**-8
        return pos, self._cell(pos - pad), self._cell(pos + pad)

    def _next_line(self, centers: np.ndarray, reach: np.ndarray, held: np.ndarray) -> np.ndarray:
        """The least reach at which each centre's box, which holds ``held``
        points, may take in one more; inf where none is left.

        A new point lies either in an occupied cell row past the box (on the
        first grid coordinate), or in one of the box's rows and an occupied
        column past the box, which can only happen while those rows hold
        more points than the box. So the box must reach the nearest such row
        or column on either side.
        """
        pos, lo, hi = self._box(centers, reach)
        ny = len(self.ys)
        first = np.searchsorted(self.xs, lo[:, 0])
        last = np.searchsorted(self.xs, hi[:, 0], side="right")
        in_rows = np.searchsorted(self.key, last * ny) - np.searchsorted(self.key, first * ny)
        out = np.full(len(centers), np.inf)
        for col, (lines, s) in enumerate(zip((self.xs, self.ys), self.sides.tolist())):
            padded = np.concatenate([[-np.inf], lines, [np.inf]])
            down = pos[:, col] - 1 - padded[np.searchsorted(lines, lo[:, col])]
            up = padded[np.searchsorted(lines, hi[:, col], side="right") + 1] - pos[:, col]
            step = np.fmin(down, up) * s
            if col:
                step[in_rows == held] = np.inf
            out = np.fmin(out, step)
        return out

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
        return self._slices(*self._box(centers, reach)[1:])

    def _slices(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``boxes`` of the boxes from cells ``lo`` to ``hi``, (q, 2) arrays."""
        q = len(lo)
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

    def within(self, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (query, point id, squared distance) triples with the point in
        the closed ball ``sqrt(sq) <= radii[query]`` around
        ``centers[query]``, by the package's distance rule. ``sq`` has the
        bits of ``paired_squared_distances`` between the point and its
        centre, in either argument order."""
        found = ([np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)])
        for query, ids in self.candidates(centers, radii):
            sq = paired_squared_distances(centers, query, self.coords, ids)
            hit = np.sqrt(sq) <= radii[query]
            for part, values in zip(found, (query, ids, sq)):
                part.append(values[hit])
        joined = []
        for part in found:
            joined.append(np.concatenate(part))
            part.clear()  # free the pieces before joining the next array
        return tuple(joined)

    def nearest(self, centers: np.ndarray, k: int, mask=None) -> tuple[np.ndarray, np.ndarray]:
        """The k points nearest to each centre among those where ``mask`` is
        set (all points without one; fewer when fewer are set), as (q, k)
        arrays of ids and distances, each row ascending by distance with ties
        by lower id: the order and the distance bits of the linear scan
        ``baselines.knn_reference``.

        Each query's box starts one cell side wide. It doubles while it holds
        fewer than k candidates, and widens to its k-th candidate distance
        when that lies past its reach; then it holds every nearer point. A
        short box that took in no point in its last round grows at least to
        the least reach that may bring one (see ``_next_line``), so a query
        far from the rest pays a few rounds, not one per doubling.
        """
        k = min(k, len(self.coords) if mask is None else int(np.count_nonzero(mask)))
        ids = np.zeros((len(centers), k), dtype=np.intp)
        dist = np.zeros((len(centers), k))
        reach = np.full(len(centers), float(self.side))
        seen = np.zeros(len(centers), dtype=np.intp)  # points in each box last round
        todo = np.arange(len(centers)) if k else np.zeros(0, np.intp)
        while len(todo):
            short = np.ones(len(todo), dtype=bool)
            done = np.zeros(len(todo), dtype=bool)
            held = np.zeros(len(todo), dtype=np.intp)  # set in the mask or not
            for query, cand in self.candidates(centers[todo], reach[todo]):
                held += np.bincount(query, minlength=len(todo))
                if mask is not None:
                    query, cand = query[mask[cand]], cand[mask[cand]]
                d = np.sqrt(paired_squared_distances(centers, todo[query], self.coords, cand))
                o = pair_order(query, d, cand, len(self.coords))
                # The queries ascend, so each one's candidates are one run.
                first = np.flatnonzero(np.diff(query, prepend=-1))
                count = np.diff(first, append=len(query))
                qs, at = query[first[count >= k]], first[count >= k, None] + np.arange(k)
                short[qs] = False
                kth = d[o[at[:, -1]]]
                fits = kth <= reach[todo[qs]]
                ids[todo[qs[fits]]] = cand[o[at[fits]]]
                dist[todo[qs[fits]]] = d[o[at[fits]]]
                done[qs[fits]] = True
                reach[todo[qs[~fits]]] = kth[~fits]
            stalled = short & (held == seen[todo])
            seen[todo] = held
            reach[todo[short & ~stalled]] *= 2
            if stalled.any():
                grow = todo[stalled]
                line = self._next_line(centers[grow], reach[grow], held[stalled])
                reach[grow] = np.maximum(2 * reach[grow], line)
            todo = todo[~done]
        return ids, dist

    def nearest_others(self, rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The m points nearest to each of the grid's points ``rows`` (ids)
        other than itself, or all the others when there are fewer, as
        (len(rows), min(m, n - 1)) arrays of ids and distances, in the order
        and with the bits of ``nearest``.

        ``nearest`` gathers m + 1 points per row, and the row's own id goes.
        Copies at distance 0 with lower ids can push the own id out of the
        row; then the row's last entry goes instead, and the m left are all
        copies at distance 0.
        """
        ids, dist = self.nearest(self.coords[rows], min(m + 1, len(self.coords)))
        drop = ids == rows[:, None]
        drop[:, -1] |= ~drop.any(axis=1)
        shape = (len(rows), ids.shape[1] - 1)
        return ids[~drop].reshape(shape), dist[~drop].reshape(shape)

    def kth_others(self, rows: np.ndarray, m: int, reach: float) -> np.ndarray:
        """Distance from each of the grid's points ``rows`` (ids) to its m-th
        nearest other point, or its farthest when there are fewer, with the
        bits of ``kth_distances(coords[None], m, rows)[0]``: the rows measured
        in cell blocks, each against the points of its cell's box.

        The first round's boxes reach ``reach`` (>= 0) past their cells (see
        ``_cell_blocks``). A row's m-th distance among the points of its box
        is exact when it is at most the reach, since the box then holds every
        nearer point; else it is an upper bound, and the row takes one more
        round at that distance, whose box holds the m points found and so
        every point nearer than them. A row that found fewer than m others
        takes a round whose box holds every point.
        """
        n = len(self.coords)
        where = np.empty(n, dtype=np.intp)  # each point's place in order
        where[self.order] = np.arange(n)
        # The points one coordinate per row: blocks against a few hundred
        # points or more take 10-20% less time with each column contiguous.
        cols = np.ascontiguousarray(self.coords.T)
        out = np.empty(len(rows))
        todo = np.argsort(where[rows])  # the rows by cell, then id
        reach = np.full(len(rows), float(reach))
        while len(todo):
            got, exact = self._cell_blocks(rows[todo], m, reach[todo], where, cols)
            exact |= got <= reach[todo]
            out[todo[exact]] = got[exact]
            reach[todo] = got
            todo = todo[~exact]
        return out

    def _cell_blocks(self, rows, m, reach, where, cols):
        """One round of ``kth_others`` over ``rows``, by cell: each row's
        m-th distance among the points of its cell's box (inf where they
        hold fewer than m others), and whether that box holds every point.

        A cell's box is the union of its rows' boxes of their ``reach`` (see
        ``boxes``). Its rows are measured against the box's points with
        ``kth_squared_distances``, in slabs of at most ``_BLOCK_ENTRIES``
        entries. The rows of cells whose box holds every point are measured
        together, as one row block of ``kth_distances``.
        """
        coords, n = self.coords, len(self.coords)
        kth = min(m, n - 1) - 1
        at = where[rows]
        new = np.diff(self.key[at], prepend=-1) != 0
        first, group = np.flatnonzero(new), np.cumsum(new) - 1
        ends = np.append(first, len(rows)).tolist()
        _, lo, hi = self._box(coords[rows], reach)
        query, start, stop = self._slices(np.minimum.reduceat(lo, first), np.maximum.reduceat(hi, first))
        size = np.bincount(query, weights=stop - start, minlength=len(first)).astype(np.intp)
        full = size[group] == n
        out = np.full(len(rows), np.inf)
        out[full] = kth_distances(cols.T[None], m, rows[full])[0]
        bounds = np.searchsorted(query, np.arange(len(first) + 1)).tolist()
        for g in np.flatnonzero((size > kth + 1) & (size < n)).tolist():
            a, b = bounds[g], bounds[g + 1]
            box = np.concatenate([self.order[i:j] for i, j in zip(start[a:b].tolist(), stop[a:b].tolist())])
            pts = cols[:, box].T
            slab = max(1, _BLOCK_ENTRIES // len(box))
            for r0 in range(ends[g], ends[g + 1], slab):
                r1 = min(r0 + slab, ends[g + 1])
                # Each row's own entry, in its cell's box, is its least: 0.
                out[r0:r1] = np.sqrt(kth_squared_distances(coords[None, rows[r0:r1]], pts[None], kth + 1)[0])
        return out, full
