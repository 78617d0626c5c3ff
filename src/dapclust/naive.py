"""The m-nearest-neighbour merge clusterer.

Fast and noise-free, but exhibits the single-link effect: sparse points
roughly equidistant from two dense clusters can fuse them once m exceeds the
chain length. Kept both as a low-noise clusterer and as the demonstrator the
adaptive pipeline is measured against.

The neighbours come from one batched query on the pipeline's coordinate
grid, whose cell side is set by ``canopy.pilot_grid``, and the links fold by
the pipeline's label propagation.
"""

import time
from dataclasses import dataclass

import numpy as np

from .canopy import pilot_grid
from .core import ClusterResult, Dataset, RunStats
from .density import _lowest_linked


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

    Each point's m nearest other points come from one
    ``Grid.nearest_others`` query over every point, on the grid of
    ``canopy.pilot_grid``: the one ``canopy.kth_nearest`` queries where its
    boxes prune, with cells as wide as the median distance to the m-th
    nearest other point over a pilot of 32 points. A mean over all points
    would let one far outlier put every other point in one cell, and make
    the query quadratic.
    """
    start = time.perf_counter()
    n = len(data)
    if n < 2:
        return ClusterResult(list(range(n)), set(), RunStats())
    rows = np.arange(n)
    ids, _ = pilot_grid(data.coords, cfg.m, rows)[2].nearest_others(rows, cfg.m)
    heads = np.repeat(rows, ids.shape[1])
    labels = _lowest_linked(rows, heads, ids.ravel())
    stats = RunStats(uf_ops=len(heads), t_total=time.perf_counter() - start)
    return ClusterResult(labels.tolist(), set(), stats)
