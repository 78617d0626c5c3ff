"""Three-stage density-adaptive clustering.

1. Canopy pre-clustering partitions the data with a cheap metric.
2. Map: each canopy becomes a region (an inflated bounding sphere with its
   own inferred scan radius), and every region is merged by the density
   rule on its own. The regions are merged many at a time, in stacked array
   passes; a region too large for one distance block is merged in row slabs.
3. Reduce: every clustered (region, point) membership links the point to
   its local label, and one label propagation over these links gives the
   global partition, whatever the order of the regions.

Regions overlap slightly by construction, so a point clustered near a region
border is seen whole in at least one region; the reduce step then glues the
per-region clusters back together through shared points.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain

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
from .density import (
    DensityConfig,
    LocalLabeling,
    _lowest_linked,
    density_cluster,
    estimate_epsilon,
    stacked_merge,
)
from .sstree import SsTree, bounding_sphere


@dataclass(frozen=True)
class PipelineConfig:
    m: int
    c: float = 1.0
    canopy: CanopyConfig | None = None  # None: estimate thresholds from the data
    worker_count: int = 1  # accepted and validated; selects no code path
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
    """The density merge of one region's members, as rows of ``data``, with
    the region's own scan radius: ``density_cluster`` on its own. ``cluster``
    merges all regions in stacked batches instead, with the same result. A
    pure function of its arguments."""
    cfg = DensityConfig(region.m, region.epsilon)
    return density_cluster(data, sorted(region.member_ids), cfg)


def _map_regions(data: Dataset, regions: list[Region], m: int):
    """The map: the density merge of every region. Returns the ``_fold``
    inputs, one entry per (region, point) membership, and each region's
    size, scan radius and core count.

    Every non-empty region goes through ``stacked_merge`` with the other
    regions of its size class, its size rounded up to a multiple of 8.
    ``stacked_merge`` cuts each class into slabs of at most
    ``_BLOCK_ENTRIES`` distance entries.
    """
    sizes = np.array([len(r.member_ids) for r in regions])
    epsilon = np.array([r.epsilon for r in regions])
    # Every region's members in ascending id, one region after another.
    owner = np.repeat(np.arange(len(regions)), sizes)
    members = np.fromiter(chain.from_iterable(r.member_ids for r in regions), np.intp, len(owner))
    members = members[np.lexsort((members, owner))]
    starts = np.cumsum(sizes) - sizes
    labels = np.empty(len(members), dtype=np.intp)
    core = np.empty(len(members), dtype=bool)
    width = (sizes + 7) // 8 * 8
    for w in np.unique(width[sizes > 0]).tolist():  # the cap may empty a region
        cls = np.flatnonzero(width == w)
        slot = np.arange(w)
        at = starts[cls, None] + slot
        valid = slot < sizes[cls, None]
        ids = np.where(valid, members[np.minimum(at, len(members) - 1)], -1)
        cls_labels, cls_core = stacked_merge(data.coords, ids, epsilon[cls], m)
        labels[at[valid]] = cls_labels[valid]
        core[at[valid]] = cls_core[valid]
    core_count = np.bincount(owner[core], minlength=len(regions))
    return (members, labels, core), (sizes, epsilon, core_count)


def _summarise_regions(st: RunStats, sizes, epsilon, core_count) -> None:
    """Fill the region fields of ``st`` from the per-region arrays."""
    st.region_count = len(sizes)
    st.max_region_size = int(sizes.max())
    st.region_size_p50, st.region_size_p90 = np.quantile(sizes, [0.5, 0.9]).tolist()
    st.epsilon_p50, st.epsilon_p90 = np.quantile(epsilon, [0.5, 0.9]).tolist()
    st.epsilon_max = float(epsilon.max())
    st.region_core_p50, st.region_core_p90 = np.quantile(core_count, [0.5, 0.9]).tolist()
    st.region_core_max = int(core_count.max())


def _fold(n: int, members, labels, core) -> ClusterResult:
    """The reduce over (region, point) memberships: the point id of each,
    its local label (the lowest member of its local cluster, or NOISE), and
    whether the point is core there. Each clustered membership links its
    label to its point. A point is clustered when some link reaches it, and
    then labelled with the lowest id of its linked component; every other
    point is NOISE.

    A local label is itself a clustered member, so chaining through it links
    the whole local cluster; noise points are never linked, so a
    component's lowest id is a clustered point.
    """
    covered = np.zeros(n, dtype=bool)
    covered[members] = True
    if not covered.all():
        raise RuntimeError(f"point {int(np.argmin(covered))} covered by no region")
    hit = labels != NOISE
    heads, tails = labels[hit], members[hit]
    clustered = np.zeros(n, dtype=bool)
    clustered[tails] = True
    out = np.where(clustered, _lowest_linked(np.arange(n), heads, tails), NOISE)
    core_ids = set(np.unique(members[core]).tolist())
    return ClusterResult(out.tolist(), core_ids, RunStats(uf_ops=len(heads)))


def reduce_merge(locals_, n: int) -> ClusterResult:
    """Fold (region, labeling) pairs into the global result.

    A point is noise only when every region containing it called it noise;
    clusters sharing any clustered point fuse. The output does not depend on
    the order of the pairs.
    """
    members, labels, core = [], [], []
    for _region, labeling in locals_:
        members += labeling.labels.keys()
        labels += labeling.labels.values()
        core += (p in labeling.core_flags for p in labeling.labels)
    return _fold(n, np.array(members, np.intp), np.array(labels, np.intp), np.array(core, bool))


def cluster(data: Dataset, cfg: PipelineConfig) -> ClusterResult:
    """Run the full pipeline: thresholds (when not overridden), canopies,
    regions, the map in stacked array passes, and the reduce as one label
    propagation.

    Output is a pure function of (data, cfg). ``cfg.worker_count`` is
    accepted and validated but does not change how the map runs.
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

    t0 = time.perf_counter()
    memberships, per_region = _map_regions(data, regions, cfg.m)
    t_map = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = _fold(n, *memberships)
    st = result.stats
    st.t_reduce = time.perf_counter() - t0
    _summarise_regions(st, *per_region)
    st.t_tree = t_tree
    st.t_thresholds = t_thresholds
    st.t_canopy = t_canopy
    st.t_regions = t_regions
    st.t_map = t_map
    st.t_total = time.perf_counter() - t_start
    return result
