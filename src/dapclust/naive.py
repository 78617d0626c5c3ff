"""The m-nearest-neighbour merge clusterer.

Fast and noise-free, but exhibits the single-link effect: sparse points
roughly equidistant from two dense clusters can fuse them once m exceeds the
chain length. Kept both as a low-noise clusterer and as the demonstrator the
adaptive pipeline is measured against.

The neighbours come from one batched query on the pipeline's coordinate
grid, and the links fold by the pipeline's label propagation.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import ClusterResult, Dataset, RunStats, kth_distances
from .density import _lowest_linked
from .grid import Grid


@dataclass(frozen=True)
class NaiveConfig:
    """m: how many nearest neighbours each point merges with (self excluded)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


def naive_cluster(data: Dataset, cfg: NaiveConfig) -> ClusterResult:
    """Link every point with each of its m nearest other points, ties by
    lower id, and label each linked set by its minimum id.

    Every point ends up labeled (there is no noise notion here), and the
    result is independent of query or link order. m >= n simply merges
    everything reachable.

    The grid's cells are as wide as the median distance to the m-th nearest
    other point over the canopy thresholds' sample (every ceil(n/1000)-th
    point), or their mean when most of those points have m copies. The
    thresholds' mean alone would let one far outlier put every other point
    in one cell, and make the query quadratic.
    """
    start = time.perf_counter()
    n = len(data)
    if n < 2:
        return ClusterResult(list(range(n)), set(), RunStats())
    sample = np.arange(0, n, math.ceil(n / 1000))
    kth = kth_distances(data.coords, sample, min(cfg.m, n - 1))
    side = float(np.median(kth)) or float(kth.mean()) or 1e-9
    ids, _ = Grid(data.coords, side).nearest(data.coords, cfg.m + 1)
    # Drop each row's own id; copies at distance 0 with lower ids can push it
    # out of the row, and then the row's last entry goes instead.
    own = ids == np.arange(n)[:, None]
    own[:, -1] |= ~own.any(axis=1)
    heads = np.repeat(np.arange(n), ids.shape[1] - 1)
    labels = _lowest_linked(np.arange(n), heads, ids[~own])
    stats = RunStats(uf_ops=len(heads))
    stats.t_total = time.perf_counter() - start
    return ClusterResult(labels.tolist(), set(), stats)
