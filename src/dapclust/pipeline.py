"""Three-stage density-adaptive clustering.

1. Canopy pre-clustering partitions the data with a cheap metric, taking
   each seed's candidates from a coordinate grid.
2. Map: each canopy becomes a region (an inflated bounding sphere with its
   own inferred scan radius, whose members come from one range pass on a
   second coordinate grid, each point kept by at most ``cap`` of its nearest
   regions), and every region is merged by the density rule on its own.
   The regions are merged many at a time, in stacked array passes; a region
   too large for one distance block is merged in row slabs. A region of
   fewer than m points skips the merge. Exact copies of a point cost at
   most m + 1 rows: the scan radii, spheres and merges leave out each
   location's copies past its (m + 1)-th by id, which then take the first
   copy's results (the copies rule, see ``_surplus``). The thresholds'
   sample (see ``canopy.kth_nearest``) and the regions' range pass and cap
   measure each location once, and every copy takes its first copy's
   m-th distance or kept regions.
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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .canopy import Canopies, Canopy, CanopyConfig, canopy_cluster, estimate_thresholds, pack_canopies
from .core import (
    NOISE,
    ClusterResult,
    Dataset,
    Partitions,
    RunStats,
    Sphere,
    _GRAM_DIM,
    bounding_spheres,
    copy_ranks,
    kth_distances,
    pair_order,
)
from .density import DensityConfig, LocalLabeling, _lowest_linked, density_cluster, stacked_merge
from .grid import Grid


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


class Regions(Partitions):
    """The regions of one ``build_regions`` call, as arrays (see
    ``core.Partitions``). Region r holds the point ids
    ``members[ptr[r]:ptr[r + 1]]``, ascending; its sphere has the centre
    ``centers[r]`` and the radius ``radii[r]``, and its scan radius is
    ``epsilon[r]``. Point p is the ``copy_rank[p]``-th copy of its
    coordinates by id, counting from 0 at ``first_copy[p]`` (see
    ``core.copy_ranks``); a region holds all copies of a point or none (see
    ``_surplus``). ``pairs`` counts the (point, region) pairs of points
    inside a sphere before the per-point cap. Indexing or iterating gives
    ``Region`` objects.
    """

    def __init__(self, ptr, members, centers, radii, epsilon, m: int, copy_rank, first_copy, pairs: int = 0):
        super().__init__(ptr, members)
        self.centers, self.radii, self.epsilon = centers, radii, epsilon
        self.m = m
        self.copy_rank, self.first_copy = copy_rank, first_copy
        self.pairs = pairs

    def _build(self, rows):
        spheres = map(Sphere, map(tuple, self.centers.tolist()), self.radii.tolist())
        rows = zip(spheres, rows, self.epsilon.tolist())
        return [Region(r, sphere, set(ids), epsilon, self.m) for r, (sphere, ids, epsilon) in enumerate(rows)]


def _surplus(parts: Partitions, copy_rank, first_copy, m):
    """The copies rule, which the scan radii, the spheres and the merge all
    follow (the thresholds' sample and the regions' range pass and cap go
    further, and measure one copy of each location; see
    ``canopy.kth_nearest`` and ``build_regions``): in every partition of
    ``parts``, a point's copies past the
    (m + 1)-th by id, those of ``copy_rank`` above m (the surplus), are
    left out of the distance blocks, and each takes the results of its
    first copy in the partition.

    It rests on an invariant: a partition holds all of a point's copies or
    none. Copies have bit-equal distances to every seed and every centre,
    so the canopy sweep and the region cap treat them alike, and a
    partition's copies of a point are its global copies, ranked by
    ``copy_rank``. The rule is then exact. Copies lie at distance 0 from
    each other and alike from every other point, so the m + 1 kept copies
    still give each member its m nearest distances, and every ball that
    reaches them at least m points there; every other count is unchanged.
    And a surplus copy is never the lowest row of a distance, nor the
    lowest id of a component.

    Returns the surplus memberships' positions, each one's source (the
    position of its first copy), and the positions of the kept
    memberships, ascending. Raises ``ValueError`` when a partition holds
    some of a point's copies but not all.
    """
    members, owner = parts.members, parts.owner
    n = len(copy_rank)
    count = np.bincount(first_copy, minlength=n)
    at = np.flatnonzero(count[first_copy[members]] > 1)  # memberships of repeated points
    keys = owner * n + members  # ascending
    want = owner[at] * n + first_copy[members[at]]
    src = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    firsts = src[copy_rank[members[at]] == 0]
    if (keys[src] != want).any() or (np.bincount(src)[firsts] != count[members[firsts]]).any():
        raise ValueError("a partition holds some copies of a point but not all of them")
    surplus = copy_rank[members[at]] > m
    kept = np.ones(len(members), dtype=bool)
    kept[at[surplus]] = False
    return at[surplus], src[surplus], np.flatnonzero(kept)


def _classes(counts):
    """Each count rounded up to a multiple of 8: the stack widths of the
    merge, and of the scan radii where the filter runs."""
    return (counts + 7) // 8 * 8


def _stacked(at, counts, width=None):
    """Stacks of partitions for array passes: partition i owns the
    positions ``at[starts[i]:starts[i] + counts[i]]``, where ``starts`` is
    the running sum of ``counts``. The non-empty partitions of equal
    ``width`` (each at least its count; by default the count) form one
    stack; yields, per stack, the partitions and their (b, width)
    positions. A partition's slots past its count are padding, which
    repeats its first position.

    The merge stacks by ``_classes`` of the counts; the scan radii by
    ``_classes`` where the filter runs and by exact size elsewhere (see
    ``_canopy_estimates``); the mean of the scan radius by exact size.
    """
    starts = np.cumsum(counts) - counts
    width = counts if width is None else width
    for w in np.unique(width[counts > 0]).tolist():
        group = np.flatnonzero(width == w)
        slot = np.arange(w)
        yield group, at[starts[group, None] + np.where(slot < counts[group, None], slot, 0)]


def _canopy_estimates(coords, canopies, m, c, copy_rank, first_copy):
    """Each canopy's scan radius, and the centre and radius of its members'
    bounding sphere, as (z,), (z, dim) and (z,) arrays. ``canopies`` is a
    ``Canopies``, read as its arrays, so the members are taken in ascending
    id.

    Each canopy is measured without its surplus copies (see ``_surplus``
    for the copies rule). The spheres come from one flat pass of
    ``bounding_spheres`` over the kept members. The m-th distances come
    from ``kth_distances`` on (b, k, dim) stacks. From ``_GRAM_DIM``
    coordinates on, where the filter can take a stack in one product, the
    canopies of more than m + 1 kept members stack by ``_classes`` of
    their kept size, with the padding masked by ``width``; the rest stack by
    exact kept size, because their rank, min(m, k - 1), varies with it.
    (Below ``_GRAM_DIM`` the padded blocks cost more than the extra calls.)
    Every kept member gets its distance to its m-th nearest other member,
    and each surplus copy takes its first copy's. The scan radius is c
    times the mean over the full member row in ascending id, taken for the
    canopies of equal full size together (numpy's pairwise sum depends on
    the row length), so it keeps the bits of ``estimate_epsilon`` on all
    members; the sphere keeps those of ``bounding_sphere``.
    """
    if not np.diff(canopies.ptr).all():
        raise ValueError("a canopy holds no point")
    drop, src, kept = _surplus(canopies, copy_rank, first_copy, m)
    counts = np.bincount(canopies.owner[kept], minlength=len(canopies))
    ptr = np.concatenate([[0], np.cumsum(counts)])
    centers, radius = bounding_spheres(coords, canopies.members[kept], ptr)
    padded = (counts > m + 1) & (coords.shape[1] >= _GRAM_DIM)
    kth = np.empty(len(canopies.members))
    for group, pos in _stacked(kept, counts, np.where(padded, _classes(counts), counts)):
        width = counts[group] if padded[group[0]] else None
        kth[pos] = kth_distances(coords[canopies.members[pos]], m, width=width)
    kth[drop] = kth[src]
    eps = np.empty(len(canopies))
    for group, pos in _stacked(np.arange(len(kth)), np.diff(canopies.ptr)):
        eps[group] = c * kth[pos].mean(axis=1)
    return eps, centers, radius


def _region_side(coords, radii) -> float:
    """The cell side of the region grid: the median positive region radius.
    When every radius is 0 (canopies of repeated points), the widest span
    over sqrt(n) stands in, so the points spread over many cells and a box
    of zero reach does not gather all of them; 1 when every point is the
    same."""
    positive = radii[radii > 0]
    if len(positive):
        return float(np.median(positive))
    return float(np.ptp(coords, axis=0).max()) / math.sqrt(len(coords)) or 1.0


def build_regions(
    data: Dataset,
    canopies: Canopies | Sequence[Canopy],
    cfg: PipelineConfig,
    tree: object = None,
) -> Regions:
    """Turn canopies into regions.

    ``canopies`` is the ``Canopies`` of ``canopy_cluster``, whose arrays are
    read as they are, or any sequence of ``Canopy``, which
    ``pack_canopies`` first packs into those arrays.

    Per canopy: the scan radius comes from the canopy's own members, the
    approximate minimum enclosing sphere of those members is inflated by that
    radius (this creates the overlap between neighbouring regions), and every
    dataset point inside the inflated sphere becomes a member.

    Then the per-point cap: a point inside more than ``cfg.cap`` spheres
    stays only in the ``cfg.cap`` of them with the nearest centres, by
    (squared distance, region id). A point's nearest region is always kept,
    and every point lies inside its own canopy's sphere, so every point keeps
    a region; a region may shrink, and may be left empty.

    Everything runs on arrays. The spheres come from one flat pass of
    ``bounding_spheres`` over every canopy, and the scan radii from
    ``kth_distances`` on stacks of canopies of one kept size, or, from
    ``_GRAM_DIM`` coordinates on, of one size class, with the copies of a
    point past its (m + 1)-th left out (see ``_canopy_estimates``, and
    ``_surplus`` for the copies rule): one ``copy_ranks`` sort ranks every
    point among the points with exactly its coordinates, by id, and the
    result also carries that rank to the map. ``ValueError`` is raised when a canopy holds some of a
    point's copies but not all, which no sweep gives. A ``Grid`` with cells
    about a region radius wide (see ``_region_side``) finds the members of every
    region, with their squared distances, in one chunked pass over the
    locations: the first copy of each point (``copy_rank`` 0). The cap puts
    these (location, region) pairs in (location, squared distance, region
    id) order with ``pair_order``. Copies have bit-equal squared distances
    to every centre, so every copy of a location lies in its spheres and
    keeps its regions; each point takes its location's kept pairs, which go
    to their regions, each in ascending point id, by one sort of the keys
    region * n + point. Without copies every point is its own location.
    ``pairs`` still counts every point's pre-cap pairs: the sum over
    locations of pairs times copies. The result is a ``Regions`` sequence
    holding those arrays; ``Region`` objects are built only when a caller
    indexes or iterates it.

    ``tree`` is accepted for older callers and not used.
    """
    n = len(data)
    coords = data.coords
    z = len(canopies)
    copies = copy_ranks(coords)
    if not canopies:
        none = np.zeros(0)
        return Regions(np.zeros(1, np.intp), none.astype(np.intp), coords[:0], none, none, cfg.m, *copies)
    eps, centers, radius = _canopy_estimates(coords, pack_canopies(canopies), cfg.m, cfg.c, *copies)
    radii = radius + eps
    # The range pass and the cap run over locations, the first copy of each
    # point by id; ``at`` holds location numbers, ``locs`` their ids.
    copy_rank, first_copy = copies
    locs = np.flatnonzero(copy_rank == 0)
    pts = coords[locs]
    rids, at, sq = Grid(pts, _region_side(pts, radii)).within(centers, radii)
    # Each location's pairs, nearest first; it keeps the first cfg.cap of
    # them. The locations ascend in this order and need not be kept. Each
    # unsorted array goes once the order is applied, so the cap's own arrays
    # do not come on top of them.
    held = np.bincount(at, minlength=len(locs))
    pairs = int(held @ np.bincount(first_copy, minlength=n)[locs])  # over every copy
    order = pair_order(at, sq, rids, z)
    del at, sq
    rids = rids[order]
    del order
    rank = np.arange(len(rids))
    rank -= np.repeat(np.cumsum(held) - held, held)
    rids = rids[rank < cfg.cap]
    del rank
    # Every point takes its location's run of kept regions.
    kept = np.minimum(held, cfg.cap)
    loc = (np.cumsum(copy_rank == 0) - 1)[first_copy]  # each point's location number
    count = kept[loc]
    pids = np.repeat(np.arange(n), count)
    shift = (np.cumsum(kept) - kept)[loc] - (np.cumsum(count) - count)
    rids = rids[np.repeat(shift, count) + np.arange(len(pids))]

    ptr = np.zeros(z + 1, dtype=np.intp)
    np.cumsum(np.bincount(rids, minlength=z), out=ptr[1:])
    by_region = rids * n
    by_region += pids
    by_region.sort()  # by region, then ascending point id
    by_region %= n
    return Regions(ptr, by_region, centers, radii, eps, cfg.m, *copies, pairs)


def map_step(region: Region, data: Dataset) -> LocalLabeling:
    """The density merge of one region's members, as rows of ``data``, with
    the region's own scan radius: ``density_cluster`` on its own. ``cluster``
    merges all regions in stacked batches instead, with the same result. A
    pure function of its arguments."""
    cfg = DensityConfig(region.m, region.epsilon)
    return density_cluster(data, sorted(region.member_ids), cfg)


def _map_regions(data: Dataset, regions: Regions, m: int):
    """The map: the density merge of every region. Returns the ``_fold``
    inputs, one entry per (region, point) membership, and each region's
    size, scan radius and core count.

    It reads the arrays of ``regions``, not ``Region`` objects. Two kinds of
    membership skip the merge. A region of fewer than m members cannot hold
    a core point, so its members come out NOISE and not core. And a region's
    surplus copies (see ``_surplus`` for the copies rule) take the label and
    core flag of their first copy in the region.

    The rest of every region goes through ``stacked_merge`` with the other
    regions of its size class, its size rounded up to a multiple of 8.
    ``stacked_merge`` cuts each class into slabs of at most
    ``_BLOCK_ENTRIES`` distance entries.
    """
    members, owner, epsilon = regions.members, regions.owner, regions.epsilon
    sizes = np.diff(regions.ptr)
    drop, src, kept = _surplus(regions, regions.copy_rank, regions.first_copy, m)
    kept = kept[sizes[owner[kept]] >= m]
    labels = np.full(len(members), NOISE, dtype=np.intp)
    core = np.zeros(len(members), dtype=bool)
    counts = np.bincount(owner[kept], minlength=len(sizes))
    for cls, pos in _stacked(kept, counts, _classes(counts)):
        valid = np.arange(pos.shape[1]) < counts[cls, None]
        ids = np.where(valid, members[pos], -1)
        cls_labels, cls_core = stacked_merge(data.coords, ids, epsilon[cls], m)
        labels[pos[valid]] = cls_labels[valid]
        core[pos[valid]] = cls_core[valid]
    labels[drop] = labels[src]
    core[drop] = core[src]
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
    is_core = np.zeros(n, dtype=bool)
    is_core[members[core]] = True
    core_ids = set(np.flatnonzero(is_core).tolist())
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
    # One clock reading per stage boundary, so each stage ends where the
    # next one starts and the stage times add up to t_total.
    start = time.perf_counter()
    n = len(data)
    if n == 0:
        return ClusterResult([], set(), RunStats())
    canopy_cfg = cfg.canopy or estimate_thresholds(data, cfg.m)
    thresholds_end = time.perf_counter()
    canopies = canopy_cluster(data, canopy_cfg)
    canopy_end = time.perf_counter()
    regions = build_regions(data, canopies, cfg)
    regions_end = time.perf_counter()
    memberships, per_region = _map_regions(data, regions, cfg.m)
    map_end = time.perf_counter()
    result = _fold(n, *memberships)
    st = result.stats
    _summarise_regions(st, *per_region)
    st.repeat_points = int(np.count_nonzero(regions.copy_rank > cfg.m))
    st.region_pairs = regions.pairs
    st.distinct_points = int(np.count_nonzero(regions.copy_rank == 0))
    end = time.perf_counter()
    st.t_thresholds = 0.0 if cfg.canopy else thresholds_end - start
    st.t_canopy = canopy_end - start
    st.t_regions = regions_end - canopy_end
    st.t_map = map_end - regions_end
    st.t_reduce = end - map_end
    st.t_total = end - start
    return result
