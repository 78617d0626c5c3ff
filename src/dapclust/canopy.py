"""Canopy pre-clustering: the cheap-metric sweep that seeds the parallel regions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, kth_distances

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


def cheap_distance(a, b) -> float:
    """L-infinity distance, the sweep's approximate metric.

    Strictly cheaper per pair than the Euclidean metric (no multiplications)
    and bounds it from below.
    """
    return max(abs(x - y) for x, y in zip(a, b))


def estimate_thresholds(data: Dataset, m: int) -> CanopyConfig:
    """Derive canopy thresholds from the data.

    t2 is the mean distance to the m-th nearest other point (the farthest
    when there are fewer) over a deterministic sample (every ceil(n/1000)-th
    point by id, so every point up to n = 1000); t1 = 3 * t2. Degenerate
    inputs (all points identical, or fewer than two points) fall back to a
    tiny positive t2.

    The distances come from ``kth_distances``, which measures row blocks of
    the sample against every row, so each has the bits a knn query gives it.
    The mean is summed in sample order, one distance at a time. The cost is
    O(sample * n), with the sample near 1,000 points.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(data)
    if n < 2:
        return CanopyConfig(3 * _FALLBACK_T2, _FALLBACK_T2)
    sample = np.arange(0, n, math.ceil(n / 1000))
    total = 0.0
    for dist in kth_distances(data.coords, sample, min(m, n - 1)).tolist():
        total += dist
    t2 = total / len(sample)
    if t2 == 0.0:
        return CanopyConfig(3e-9, _FALLBACK_T2)
    return CanopyConfig(3.0 * t2, t2)


def _grid_windows(coords: np.ndarray, t1: float) -> tuple[np.ndarray, np.ndarray]:
    """Every point's candidate slices for the sweep: the points of its own
    grid cell and of the neighbouring cells.

    The cells are cut on the (up to) two coordinates of widest spread. A
    cell's side is at least t1 plus the rounding of ``x - min`` across the
    coordinate's span, with a relative margin for the division, so any two
    points within t1 on a coordinate land at most one cell apart there. A
    larger side only adds candidates. The floor of span * 2**-40 keeps every
    cell number exact in float64 and inside int64.

    Returns ``order``, the point ids sorted by cell, and an (n, 6) array of
    (start, stop) positions in ``order``, one pair per row of neighbouring
    cells: those cells are adjacent in ``order``.
    """
    n = len(coords)
    lo = coords.min(axis=0)
    with np.errstate(over="ignore"):  # a span past the float range leaves the grid
        span = coords.max(axis=0) - lo
    width = np.where(np.isfinite(span), span, -1.0)
    cells = np.zeros((n, 2), dtype=np.int64)
    for col, a in enumerate(np.argsort(-width, kind="stable")[:2].tolist()):
        if width[a] < 0:
            break
        s = float(span[a])
        side = max((t1 + s * 2**-50) * (1 + 2**-10), s * 2**-40)
        cells[:, col] = np.floor((coords[:, a] - lo[a]) / side)
    # Cell numbers can reach 2**40 per coordinate, so rows and columns are
    # keyed by their rank among the occupied ones.
    xs, rx = np.unique(cells[:, 0], return_inverse=True)
    ys, ry = np.unique(cells[:, 1], return_inverse=True)
    key = rx * len(ys) + ry
    order = np.argsort(key, kind="stable")
    key = key[order]
    y_lo = np.searchsorted(ys, cells[:, 1] - 1)
    y_hi = np.searchsorted(ys, cells[:, 1] + 1, side="right")
    bounds = np.empty((n, 6), dtype=np.int64)
    for w, dx in enumerate((-1, 0, 1)):
        row = np.searchsorted(xs, cells[:, 0] + dx)
        start = np.searchsorted(key, row * len(ys) + y_lo)
        stop = np.searchsorted(key, row * len(ys) + y_hi)
        occupied = xs[np.minimum(row, len(xs) - 1)] == cells[:, 0] + dx
        bounds[:, 2 * w] = start
        bounds[:, 2 * w + 1] = np.where(occupied, stop, start)
    return order, bounds


def canopy_cluster(data: Dataset, cfg: CanopyConfig) -> list[Canopy]:
    """Run the standard canopy sweep.

    The candidate pool starts as all ids ascending. Repeatedly the lowest
    remaining id seeds a canopy of every candidate within t1 (cheap metric),
    and candidates within t2 leave the pool. Points may belong to several
    canopies; every point belongs to at least one. Seed selection by id makes
    the output identical across runs and worker counts.

    Each seed tests only the points of its own grid cell and the
    neighbouring ones (3 x 3 cells, or 3 in one dimension), which hold every
    point within t1 of it (see ``_grid_windows``), as canopies take their
    candidates from a cheap index (McCallum, Nigam & Ungar, KDD 2000).
    """
    n = len(data)
    canopies: list[Canopy] = []
    if n == 0:
        return canopies
    coords = data.coords
    order, bounds = _grid_windows(coords, cfg.t1)
    alive = np.ones(n, dtype=bool)
    for seed in range(n):
        if not alive[seed]:
            continue
        a, b, c, d, e, f = bounds[seed].tolist()
        cand = np.concatenate((order[a:b], order[c:d], order[e:f]))
        cand = cand[alive[cand]]
        cheap = np.abs(coords[cand] - coords[seed]).max(axis=1)
        members = cand[cheap <= cfg.t1]
        canopies.append(Canopy(seed, frozenset(members.tolist())))
        alive[cand[cheap <= cfg.t2]] = False
    return canopies
