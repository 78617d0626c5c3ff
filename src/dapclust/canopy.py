"""Canopy pre-clustering: the cheap-metric sweep that seeds the parallel regions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import _BLOCK_ENTRIES, Dataset, Partitions, copy_ranks, kth_distances
from .grid import Grid

# The m-th-neighbour routine (see kth_nearest): the rows of its pilot, and
# the share of the row-block entries that the grid's boxes may hold for its
# queries. Past it the cell blocks are cheaper. With each route forced on
# 1,000-row samples, the queries took 0.34 to 0.74 times as long as the cell
# blocks at shares of 0.2% to 1.6% (2-D blobs, with and without hotspots),
# about as long at 1% to 3% (3-D blobs, 2-D hotspots), 1.1 to 1.3 times as
# long at 3% to 4.2% (2-D hotspots), 1.7 times at 2.9% (uniform 3-D), 2.2
# times at 3.4% (4-D blobs) and 4 to 7 times at 7% to 17% (d = 4 to 8).
_PILOT = 32
_GRID_SHARE = 0.03


@dataclass(frozen=True)
class CanopyConfig:
    """Loose membership threshold t1 and tight removal threshold t2, t2 <= t1."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValueError("canopy thresholds must be finite")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("canopy thresholds must be positive")
        if self.t2 > self.t1:
            raise ValueError(f"t2 ({self.t2}) must not exceed t1 ({self.t1})")


@dataclass(frozen=True)
class Canopy:
    """A pre-cluster: its seed point id and every point within t1 of the seed
    (cheap metric) at the time the seed was drawn."""

    center_id: int
    member_ids: frozenset[int]


def pilot_grid(coords: np.ndarray, m: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, Grid]:
    """The pilot of ``rows``, one or more ids into the (n, dim) array
    ``coords``, n >= 2: a mask of every ceil(len(rows) / 32)-th of them,
    their distances by ``kth_distances``, and a ``Grid`` of ``coords``.

    The grid's cell side is the pilot's median distance to the m-th nearest
    other row: a side set by the data's own distances, which one far outlier
    or many copies cannot widen. Where most of the pilot has m copies the
    median is 0, and the mean stands in. The largest distance would not do:
    on blobs rounded to a 0.5 grid it gives cells 32 times wider, and a
    naive query over all points 15 times slower. Where all of the pilot has
    m copies the side is 1e-9, which the grid raises to its span * 2**-40;
    a fixed side of 1 made that query 80 times slower on blobs of 5 copies
    each.
    """
    pilot = np.arange(len(rows)) % math.ceil(len(rows) / _PILOT) == 0
    kth = kth_distances(coords[None], m, rows[pilot])[0]
    side = float(np.median(kth)) or float(kth.mean()) or 1e-9
    return pilot, kth, Grid(coords, side)


def kth_nearest(coords: np.ndarray, m: int, rows: np.ndarray) -> np.ndarray:
    """Distance from each of the ``rows`` (ids) of the (n, dim) array
    ``coords`` to its m-th nearest other row, or its farthest when there
    are fewer; 0 when n <= 1. The bits of ``kth_distances(coords[None], m,
    rows)[0]``, by either of two grid routes.

    Each location is measured once. Rows with bit-equal coordinates have
    the same multiset of distances to the other rows, and so the same m-th
    distance: one ``copy_ranks`` sort of ``coords[rows]``, which costs the
    size of ``rows``, not n, finds the first row of each location in the
    order of ``rows``, and only these are measured; every other row takes
    its first copy's distance. The thresholds' sample of an input with
    heavy duplication, or a ``rows`` that lists an id twice, so measures
    each location once.

    First the pilot of the distinct rows (see ``pilot_grid``) is measured
    against every row by ``kth_distances``, and sets the grid's cell side.
    The rest of them then go to ``Grid.nearest_others``, unless the boxes of
    that side around them hold more than ``_GRID_SHARE`` of their row-block
    entries (rest times n). Then ``Grid.kth_others`` measures the rest in
    cell blocks, each cell's rows against the points of its box, which first
    reaches the pilot's largest distance; the few rows whose m-th distance
    lies past it take one more round. The grid keys only two coordinates, so
    boxes of the cell side hold about 0.2% of the row-block entries on 2-D
    blobs, 1% to 4% on 2-D blobs with hotspots, 3.4% at d = 4 and 17% at
    d = 8; where most points share one cell they hold all of them, and the
    cell blocks are row blocks of ``kth_distances``. Both routes are exact
    at any cell side.
    """
    if len(coords) <= 1 or not len(rows):
        return np.zeros(len(rows))
    copy_rank, first = copy_ranks(coords[rows])
    distinct = copy_rank == 0
    rows = rows[distinct]
    kth = np.zeros(len(rows))
    pilot, kth[pilot], grid = pilot_grid(coords, m, rows)  # kth[pilot] takes the new mask
    rest = rows[~pilot]
    if len(rest):
        _, start, stop = grid.boxes(coords[rest], grid.side)
        if np.sum(stop - start) <= _GRID_SHARE * len(rest) * len(coords):
            kth[~pilot] = grid.nearest_others(rest, m)[1][:, -1]
        else:
            kth[~pilot] = grid.kth_others(rest, m, kth[pilot].max())
    out = np.empty(len(first))
    out[distinct] = kth
    return out[first]


def sample_kth_distances(coords: np.ndarray, m: int) -> np.ndarray:
    """``kth_nearest`` of every ceil(n/1000)-th row of the (n, dim) array
    ``coords`` by id, n >= 2: the thresholds' deterministic sample, every
    row up to n = 1000."""
    return kth_nearest(coords, m, np.arange(0, len(coords), math.ceil(len(coords) / 1000)))


def estimate_thresholds(data: Dataset, m: int) -> CanopyConfig:
    """Derive canopy thresholds from the data.

    t2 is the mean of ``sample_kth_distances`` (through the grid where its
    boxes prune, see there), summed in sample order one distance at a time
    (``np.cumsum``, whose last entry is that sequential sum); t1 = 3 * t2.
    Degenerate inputs (all points identical, or fewer than two points) fall
    back to t1 = 3e-9 and t2 = 1e-9.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(data) >= 2:
        kth = sample_kth_distances(data.coords, m)
        t2 = float(np.cumsum(kth)[-1]) / len(kth)
        if t2:
            return CanopyConfig(3.0 * t2, t2)
    return CanopyConfig(3e-9, 1e-9)


class Canopies(Partitions):
    """The canopies of one sweep, as arrays (see ``core.Partitions``).
    Canopy i has the seed ``seeds[i]`` and the point ids
    ``members[ptr[i]:ptr[i + 1]]``, ascending; the seeds ascend too.

    ``canopy_cluster`` fills the arrays a batch of seeds at a time: the
    next B remaining ids, B * B * dim <= ``_BLOCK_ENTRIES``, of which each
    is a seed when no earlier seed of the batch lies within t2. The result
    is that of the one-seed-at-a-time sweep, because the earlier batches'
    seeds have already taken their t2 neighbours out of the pool (see
    ``canopy_cluster``). ``build_regions`` reads the arrays directly.

    Indexing or iterating gives ``Canopy`` objects. A ``Canopies`` equals
    another, or a list, that holds equal ``Canopy`` objects in the same
    order.
    """

    def __init__(self, seeds, ptr, members):
        super().__init__(ptr, members)
        self.seeds = seeds

    def __eq__(self, other):
        if isinstance(other, (Canopies, list)):
            return self._objects == list(other)
        return NotImplemented

    def _build(self, rows):
        return [Canopy(seed, frozenset(ids)) for seed, ids in zip(self.seeds.tolist(), rows)]


def pack_canopies(canopies) -> Canopies:
    """``canopies`` as a ``Canopies``: unchanged when it is one, else a
    sequence of ``Canopy`` packed in its order, each member set ascending."""
    if isinstance(canopies, Canopies):
        return canopies
    sizes = [len(c.member_ids) for c in canopies]
    members = np.fromiter(chain.from_iterable(sorted(c.member_ids) for c in canopies), np.intp, sum(sizes))
    return Canopies(np.array([c.center_id for c in canopies], np.intp), np.cumsum([0, *sizes]), members)


def _linf(cols, a, b):
    """The L-infinity distances between points ``a`` and ``b`` (equal-length
    id arrays), with ``cols`` the coordinates one column per row. Taken one
    coordinate at a time: a max over a short axis costs several times more."""
    out = np.abs(cols[0, a] - cols[0, b])
    for col in cols[1:]:
        np.maximum(out, np.abs(col[a] - col[b]), out=out)
    return out


def _batch_seeds(later, earlier, size):
    """Which of ``size`` batch positions are seeds, given the pairs of
    positions within t2 of each other (``earlier`` < ``later``): the greedy
    sweep's choice, a position being a seed when no earlier seed lies
    within t2.

    Resolved in rounds, as Blelloch, Fineman & Shun's prefix algorithm for
    the greedy maximal independent set (SPAA 2012) does: an open position
    whose earlier neighbours are all dead becomes a seed, and then an open
    position next to an earlier seed dies. The lowest open position is
    decided in every round.
    """
    state = np.zeros(size, dtype=np.int8)  # 0 open, 1 seed, -1 dead
    while len(later):
        blocked = np.zeros(size, dtype=bool)
        blocked[later] = True
        state[(state == 0) & ~blocked] = 1
        state[later[state[earlier] == 1]] = -1
        both_open = (state[later] == 0) & (state[earlier] == 0)
        later, earlier = later[both_open], earlier[both_open]
    return state >= 0


def canopy_cluster(data: Dataset, cfg: CanopyConfig) -> Canopies:
    """Run the standard canopy sweep.

    The candidate pool starts as all ids ascending. Repeatedly the lowest
    remaining id seeds a canopy of every candidate within t1 in the cheap
    metric, the L-infinity distance, which bounds the Euclidean one from
    below, and candidates within t2 leave the pool. Points may belong to
    several canopies; every point belongs to at least one. Seed selection by
    id makes the output identical across runs and worker counts.

    The sweep runs in batches of the next B remaining ids, B * B * dim <=
    ``_BLOCK_ENTRIES``, as in Blelloch, Fineman & Shun's prefix algorithm
    for the greedy maximal independent set (SPAA 2012). The L-infinity
    distances among the batch's points decide its seeds (see
    ``_batch_seeds``): an id is a seed exactly when no earlier seed of the
    batch lies within t2 of it, since the earlier batches' seeds have
    already removed what lies within t2 of them. Then one chunked pass over
    the t1 boxes of the batch's seeds, on a grid of cells t1 wide (see
    ``Grid.boxes``), gives each seed the remaining candidates within t1 of
    it whose first seed within t2 in the batch is not earlier than it: just
    those are still in the pool when the sequential sweep reaches it. The
    candidates within t2 of a seed leave the pool. This is exact: the
    sequential sweep reaches an id of the batch with it still in the pool
    exactly when no earlier seed lies within t2 of it, and a point is in
    the pool when a seed is drawn exactly when its first seed within t2 is
    not earlier. Only the boxes of real seeds are searched, and no pass
    runs over all points per batch. Canopies take their candidates from a
    cheap index, as in McCallum, Nigam & Ungar (KDD 2000).

    Returns a ``Canopies``, which builds ``Canopy`` objects only when
    indexed or iterated.
    """
    n = len(data)
    if n == 0:
        return pack_canopies([])
    seeds, counts, members = [], [], []
    coords = data.coords
    cols = np.ascontiguousarray(coords.T)
    grid = Grid(coords, cfg.t1)
    size = max(1, math.isqrt(_BLOCK_ENTRIES // coords.shape[1]))
    alive = np.ones(n, dtype=bool)
    # A candidate's first seed within t2 in its chunk. The candidate leaves
    # the pool with the chunk, so no entry is read twice or reset.
    first = np.full(n, n, dtype=np.intp)
    pos, width = 0, size  # every id below pos has left the pool
    while pos < n:
        found = np.flatnonzero(alive[pos : pos + width])
        while len(found) < size and pos + width < n:
            width *= 2
            found = np.flatnonzero(alive[pos : pos + width])
        if not len(found):
            break
        batch = found[:size] + pos
        width = max(size, 2 * (int(batch[-1]) + 1 - pos))
        pos = int(batch[-1]) + 1
        later, earlier = np.nonzero(np.tril(_linf(cols, batch[:, None], batch) <= cfg.t2, -1))
        batch = batch[_batch_seeds(later, earlier, len(batch))]
        count = np.zeros(len(batch), dtype=np.intp)
        for q, cand in grid.candidates(coords[batch], cfg.t1):
            q, cand = q[alive[cand]], cand[alive[cand]]
            cheap = _linf(cols, cand, batch[q])
            near = cheap <= cfg.t2
            np.minimum.at(first, cand[near], q[near])
            hit = (cheap <= cfg.t1) & (first[cand] >= q)
            key = q[hit] * n + cand[hit]
            key.sort()  # the chunk's queries ascend, so only ids move
            members.append(key % n)
            count += np.bincount(q[hit], minlength=len(batch))
            alive[cand[near]] = False
        seeds.append(batch)
        counts.append(count)
    ptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return Canopies(np.concatenate(seeds), ptr, np.concatenate(members))
