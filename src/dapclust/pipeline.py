"""Three-stage density-adaptive clustering.

1. Canopy pre-clustering partitions the data with a cheap metric.
2. Map: each canopy becomes a region (an inflated bounding sphere with its
   own inferred scan radius) processed independently by the density merge.
3. Reduce: per-region union sets fold, in any order, into one global
   partition.

Regions overlap slightly by construction, so a point clustered near a region
border is seen whole in at least one region; the reduce step then glues the
per-region clusters back together through shared points.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .canopy import Canopy, CanopyConfig, canopy_cluster, estimate_thresholds
from .core import (
    NOISE,
    ClusterResult,
    Dataset,
    RunStats,
    Sphere,
    squared_distances,
)
from .density import DensityConfig, LocalLabeling, density_cluster, estimate_epsilon
from .sstree import SsTree, bounding_sphere
from .unionfind import UnionFind


@dataclass(frozen=True)
class PipelineConfig:
    m: int
    c: float = 1.0
    canopy: CanopyConfig | None = None  # None: estimate thresholds from the data
    worker_count: int = 1
    max_regions_per_point: int | None = None  # None: defaults to m

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.max_regions_per_point is not None and self.max_regions_per_point < 1:
            raise ValueError("max_regions_per_point must be >= 1")

    @property
    def cap(self) -> int:
        """Hard limit on how many regions may contain one point."""
        return self.m if self.max_regions_per_point is None else self.max_regions_per_point


@dataclass
class Region:
    """An inflated bounding sphere around one canopy, carrying the scan
    radius inferred from that canopy's members."""

    id: int
    sphere: Sphere
    member_ids: set[int]
    epsilon: float
    m: int


def _nearest_free(coords, center, free) -> list[tuple[int, float]]:
    """(id, distance) of the points where ``free`` is set, nearest to
    ``center`` first with ties by lower id: the order and the distance bits of
    ``SsTree.knn``."""
    cand = np.flatnonzero(free)
    dist = np.sqrt(squared_distances(np.array([center]), coords[cand])[0])
    order = np.lexsort((cand, dist))
    return list(zip(cand[order].tolist(), dist[order].tolist()))


def build_regions(
    data: Dataset,
    canopies: list[Canopy],
    cfg: PipelineConfig,
    tree: SsTree | None = None,
) -> list[Region]:
    """Turn canopies into regions.

    Per canopy: the scan radius comes from the canopy's own members, the
    approximate minimum enclosing sphere of those members is inflated by that
    radius (this creates the overlap between neighbouring regions), and every
    dataset point inside the inflated sphere becomes a member. Regions below
    min(m, n) members grow to the m-th nearest point of their center.

    Afterwards the per-point cap is enforced: a point held by more than
    ``cfg.cap`` regions keeps only those with the nearest centers (ties by
    lower region id). The cap never drops a point's nearest region, so
    coverage survives. Regions that fell below the floor regrow from the
    nearest points (ties by lower id) that still have cap budget; when none is
    left the smaller region is accepted.

    One ``SsTree.range_many`` walk finds the members of every region, and the
    cap works on arrays of (point, region) pairs, ordered by one lexsort on
    (point, squared distance to the region's center, region id). Only the
    points over the cap are visited one by one, in ascending id, because
    whether a region may still lose a point depends on the drops before it.
    """
    n = len(data)
    if tree is None:
        tree = SsTree.build(data)
    coords = data.coords
    floor = min(cfg.m, n)
    z = len(canopies)
    centers, radii, eps = [], [], []
    for canopy in canopies:
        sub = coords[sorted(canopy.member_ids)]
        eps.append(estimate_epsilon(sub, cfg.m, cfg.c))
        center, radius = bounding_sphere(sub)
        centers.append(center)
        radii.append(radius + eps[-1])
    center_rows = np.array(centers, dtype=np.float64).reshape(z, data.dim)
    ptr, pids = tree.range_many(center_rows, radii)
    rids = np.repeat(np.arange(z, dtype=pids.dtype), np.diff(ptr))
    short = np.flatnonzero(np.diff(ptr) < floor)
    if len(short):
        # Grow each short region to its floor-th nearest point, then find the
        # members of all of them again.
        for r in short.tolist():
            radii[r] = max(radii[r], tree.knn(centers[r], floor)[-1][1])
        grown_ptr, grown = tree.range_many(center_rows[short], np.take(radii, short))
        kept = ~np.isin(rids, short)
        pids = np.concatenate([pids[kept], grown])
        rids = np.concatenate([rids[kept], np.repeat(short.astype(rids.dtype), np.diff(grown_ptr))])
    cap = cfg.cap
    pids, rids = _apply_cap(coords, center_rows, pids, rids, cap, floor)

    by_region = np.argsort(rids, kind="stable")  # ascending point id within a region
    ends = np.cumsum(np.bincount(rids, minlength=z)).tolist()
    members = pids[by_region].tolist()
    regions = [
        Region(r, Sphere(centers[r], radii[r]), set(members[lo:hi]), eps[r], cfg.m)
        for r, lo, hi in zip(range(z), [0, *ends], ends)
    ]

    count = np.bincount(pids, minlength=n)
    under = int(np.count_nonzero(count < cap))  # points that may join a region
    for r in regions:
        missing = floor - len(r.member_ids)
        if missing <= 0:
            continue
        center = r.sphere.center
        spare = under - sum(1 for pid in r.member_ids if count[pid] < cap)
        k = floor
        while missing > 0 and spare > 0:
            if spare < k:
                # Fewer points could join than the query would return: rank
                # just those.
                free = count < cap
                free[list(r.member_ids)] = False
                nearest = _nearest_free(coords, center, free)
            else:
                nearest = tree.knn(center, k)
            for pid, d in nearest:
                if missing == 0:
                    break
                if pid in r.member_ids or count[pid] >= cap:
                    continue
                r.member_ids.add(pid)
                count[pid] += 1
                if count[pid] == cap:
                    under -= 1
                if d > r.sphere.radius:
                    r.sphere = Sphere(center, d)
                missing -= 1
                spare -= 1
            k = min(n, k * 2)
    return regions


def _apply_cap(coords, centers, pid, rid, cap, floor):
    """The (point, region) pairs that survive the per-point cap.

    Points over the cap are handled in ascending id, against the region sizes
    that the earlier drops left. Each drops its excess pairs farthest first,
    but with regions already at the floor last, and never its nearest pair,
    so coverage survives. A point's regions are distinct, so its own drops
    change none of its own floor tests.
    """
    # Squared distance of each pair, summed one coordinate at a time in
    # ascending order: the bits of squared_distances_to.
    sq = np.zeros(len(pid))
    term = np.empty(len(pid))
    for j in range(coords.shape[1]):
        np.subtract(coords[pid, j], centers[rid, j], out=term)
        term *= term
        sq += term
    order = np.lexsort((rid, sq, pid))
    del sq, term
    pid, rid = pid[order], rid[order]
    # A point's pairs now run nearest first.
    per_point = np.bincount(pid, minlength=len(coords))
    ends = np.cumsum(per_point)
    over = np.flatnonzero(per_point > cap)
    size = np.bincount(rid, minlength=len(centers)).tolist()
    keep = np.ones(len(pid), dtype=bool)
    for end, count in zip(ends[over].tolist(), per_point[over].tolist()):
        excess = count - cap
        farthest = rid[end - excess : end].tolist()
        if min(map(size.__getitem__, farthest)) > floor:
            # None of them is at the floor, so they lead that order; one
            # slice drops them, a third faster than sorting every point.
            keep[end - excess : end] = False
            for r in farthest:
                size[r] -= 1
            continue
        first = end - count + 1  # past the nearest pair
        rs = rid[first:end].tolist()
        for i in sorted(range(count - 2, -1, -1), key=lambda k: size[rs[k]] <= floor)[:excess]:
            keep[first + i] = False
            size[rs[i]] -= 1
    return pid[keep], rid[keep]


def map_step(region: Region, data: Dataset) -> LocalLabeling:
    """One independent work item: the density merge of the region's members,
    as rows of ``data``, with the region's own scan radius. Regions of up to
    ``_MATRIX_CAP`` points (1024) are merged from one distance block with no
    index; only larger ones build an SS+tree of their members. Pure function
    of its arguments, so regions can run on any worker in any order."""
    cfg = DensityConfig(region.m, region.epsilon)
    return density_cluster(data, sorted(region.member_ids), cfg)


class _Reducer:
    """Order-independent incremental fold of per-region labelings into one
    global union-find."""

    def __init__(self, n: int):
        self.n = n
        self.uf = UnionFind(n)
        self.clustered = bytearray(n)
        self.seen = bytearray(n)
        self.core: set[int] = set()

    def add(self, labeling: LocalLabeling) -> None:
        uf = self.uf
        clustered = self.clustered
        seen = self.seen
        for pid, lb in labeling.labels.items():
            seen[pid] = 1
            if lb != NOISE:
                clustered[pid] = 1
                # lb is the minimum member id of the local cluster, hence
                # itself a member: chaining through it links the whole cluster.
                uf.union(lb, pid)
        self.core.update(labeling.core_flags)

    def finish(self) -> ClusterResult:
        for i in range(self.n):
            if not self.seen[i]:
                raise RuntimeError(f"point {i} covered by no region")
        uf = self.uf
        # Noise points are never unioned, so a set holding a clustered point
        # holds only clustered points, and its minimum id is its label.
        labels = [lb if c else NOISE for lb, c in zip(uf.labels(), self.clustered)]
        stats = RunStats(uf_ops=uf.op_count, uf_hops=uf.hop_count)
        return ClusterResult(labels, set(self.core), stats)


def reduce_merge(locals_, n: int) -> ClusterResult:
    """Fold (region, labeling) pairs into the global result.

    A point is noise only when every region containing it called it noise;
    clusters sharing any clustered point fuse. The output does not depend on
    the order of the pairs.
    """
    red = _Reducer(n)
    for _region, labeling in locals_:
        red.add(labeling)
    return red.finish()


def cluster(data: Dataset, cfg: PipelineConfig) -> ClusterResult:
    """Run the full pipeline: thresholds (when not overridden), canopies,
    regions, the parallel map, and the incremental reduce.

    Output is a pure function of (data, cfg): worker count and region
    completion order never change the labels.
    """
    t_start = time.perf_counter()
    n = len(data)
    if n == 0:
        return ClusterResult([], set(), RunStats())
    t0 = time.perf_counter()
    tree = SsTree.build(data)
    t_tree = time.perf_counter() - t0

    t0 = time.perf_counter()
    canopy_cfg = cfg.canopy or estimate_thresholds(data, cfg.m)
    t_thresholds = 0.0 if cfg.canopy else time.perf_counter() - t0
    canopies = canopy_cluster(data, canopy_cfg, tree=tree)
    t_canopy = time.perf_counter() - t0

    t0 = time.perf_counter()
    regions = build_regions(data, canopies, cfg, tree=tree)
    t_regions = time.perf_counter() - t0

    red = _Reducer(n)
    t_reduce = 0.0
    t0 = time.perf_counter()
    if cfg.worker_count == 1 or len(regions) <= 1:
        for region in regions:
            local = map_step(region, data)
            f0 = time.perf_counter()
            red.add(local)
            t_reduce += time.perf_counter() - f0
    else:
        with ThreadPoolExecutor(max_workers=cfg.worker_count) as pool:
            futures = [pool.submit(map_step, region, data) for region in regions]
            for fut in as_completed(futures):
                local = fut.result()
                f0 = time.perf_counter()
                red.add(local)
                t_reduce += time.perf_counter() - f0
    t_map = time.perf_counter() - t0 - t_reduce

    f0 = time.perf_counter()
    result = red.finish()
    t_reduce += time.perf_counter() - f0
    result.stats.region_count = len(regions)
    result.stats.max_region_size = max((len(r.member_ids) for r in regions), default=0)
    result.stats.t_tree = t_tree
    result.stats.t_thresholds = t_thresholds
    result.stats.t_canopy = t_canopy
    result.stats.t_regions = t_regions
    result.stats.t_map = t_map
    result.stats.t_reduce = t_reduce
    result.stats.t_total = time.perf_counter() - t_start
    return result
