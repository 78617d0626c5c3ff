"""Canopy pre-clustering: the cheap-metric sweep that seeds the parallel regions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, kth_distances
from .grid import Grid

_FALLBACK_T2 = 1e-9


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


def sample_kth_distances(coords: np.ndarray, m: int) -> np.ndarray:
    """Distance to the m-th nearest other row (the farthest when there are
    fewer) of every ceil(n/1000)-th row of the (n, dim) array ``coords`` by
    id, n >= 2: the thresholds' deterministic sample, every row up to
    n = 1000. ``kth_distances`` measures the sample against every row, so
    each distance has the bits a knn query gives it, at a cost of
    O(sample * n), with the sample near 1,000 rows."""
    n = len(coords)
    return kth_distances(coords[None], m, np.arange(0, n, math.ceil(n / 1000)))[0]


def estimate_thresholds(data: Dataset, m: int) -> CanopyConfig:
    """Derive canopy thresholds from the data.

    t2 is the mean of ``sample_kth_distances``, summed in sample order one
    distance at a time; t1 = 3 * t2. Degenerate inputs (all points
    identical, or fewer than two points) fall back to a tiny positive t2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(data) < 2:
        return CanopyConfig(3 * _FALLBACK_T2, _FALLBACK_T2)
    kth = sample_kth_distances(data.coords, m)
    total = 0.0
    for dist in kth.tolist():
        total += dist
    t2 = total / len(kth)
    if t2 == 0.0:
        return CanopyConfig(3e-9, _FALLBACK_T2)
    return CanopyConfig(3.0 * t2, t2)


def canopy_cluster(data: Dataset, cfg: CanopyConfig) -> list[Canopy]:
    """Run the standard canopy sweep.

    The candidate pool starts as all ids ascending. Repeatedly the lowest
    remaining id seeds a canopy of every candidate within t1 in the cheap
    metric, the L-infinity distance, which bounds the Euclidean one from
    below, and candidates within t2 leave the pool. Points may belong to
    several canopies; every point belongs to at least one. Seed selection by
    id makes the output identical across runs and worker counts.

    Each seed tests only the points of its box of half-width t1 in a grid of
    cells t1 wide, which holds every point within t1 of it (see
    ``Grid.boxes``), as canopies take their candidates from a cheap index
    (McCallum, Nigam & Ungar, KDD 2000).
    """
    n = len(data)
    canopies: list[Canopy] = []
    if n == 0:
        return canopies
    coords = data.coords
    grid = Grid(coords, cfg.t1)
    order = grid.order
    query, start, stop = grid.boxes(coords, cfg.t1)
    # Each box spans under three cells on the first grid coordinate, so it
    # meets at most four cell rows: one slice of ``order`` each. Empty slots
    # stay (0, 0).
    windows = np.zeros((n, 8), dtype=np.intp)
    slot = 2 * (np.arange(len(query)) - np.searchsorted(query, query))
    windows[query, slot] = start
    windows[query, slot + 1] = stop
    alive = np.ones(n, dtype=bool)
    for seed in range(n):
        if not alive[seed]:
            continue
        a, b, c, d, e, f, g, h = windows[seed].tolist()
        cand = np.concatenate((order[a:b], order[c:d], order[e:f], order[g:h]))
        cand = cand[alive[cand]]
        cheap = np.abs(coords[cand] - coords[seed]).max(axis=1)
        members = cand[cheap <= cfg.t1]
        canopies.append(Canopy(seed, frozenset(members.tolist())))
        alive[cand[cheap <= cfg.t2]] = False
    return canopies
