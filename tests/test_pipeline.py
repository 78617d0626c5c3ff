import importlib.util
import math
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_acceptance import LabelOracle
from test_imports import imported_names

from dapclust import naive, pipeline
from dapclust.baselines import dbscan_reference, knn_reference
from dapclust.canopy import Canopy, CanopyConfig, canopy_cluster, estimate_thresholds
from dapclust.core import (
    NOISE,
    Dataset,
    bounding_sphere,
    bounding_spheres,
    kth_distances,
    squared_distances,
    squared_distances_to,
)
from dapclust.datagen import make_blobs, make_bridge, make_density_pair
from dapclust.density import (
    DensityConfig,
    _lowest_linked,
    density_cluster,
    estimate_epsilon,
)
from dapclust.naive import NaiveConfig, naive_cluster
from dapclust.pipeline import PipelineConfig, build_regions, cluster, map_step, reduce_merge
from dapclust.grid import Grid
from dapclust.sstree import SsTree

ROOT = Path(__file__).resolve().parent.parent


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(m=0)
    for bad_c in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            PipelineConfig(m=3, c=bad_c)
    with pytest.raises(ValueError):
        PipelineConfig(m=3, worker_count=0)
    assert PipelineConfig(m=4).cap == 4
    assert PipelineConfig(m=4, max_regions_per_point=2).cap == 2


def test_single_canopy_single_region():
    rng = random.Random(1)
    data = Dataset.from_coords([(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(30)])
    cfg = PipelineConfig(m=3, canopy=CanopyConfig(1e9, 1e9))
    canopies = canopy_cluster(data, cfg.canopy)
    regions = build_regions(data, canopies, cfg)
    assert len(regions) == 1
    assert regions[0].member_ids == set(range(30))


def test_two_far_blobs_two_disjoint_regions():
    data, _ = make_blobs(20, 2, seed=3, spread=0.5, separation=100.0)
    # one canopy per blob: exactly two disjoint regions of 10
    cfg = PipelineConfig(m=3, canopy=CanopyConfig(5.0, 5.0))
    regions = build_regions(data, canopy_cluster(data, cfg.canopy), cfg)
    assert len(regions) == 2
    assert regions[0].member_ids == set(range(10))
    assert regions[1].member_ids == set(range(10, 20))


def test_two_far_blobs_auto_canopies_stay_local():
    data, _ = make_blobs(20, 2, seed=3, spread=0.5, separation=100.0)
    cfg = PipelineConfig(m=3)
    thresholds = estimate_thresholds(data, cfg.m)
    canopies = canopy_cluster(data, thresholds)
    regions = build_regions(data, canopies, cfg)
    blob_a = set(range(10))
    blob_b = set(range(10, 20))
    for r in regions:
        assert r.member_ids <= blob_a or r.member_ids <= blob_b
    covered = set()
    for r in regions:
        covered |= r.member_ids
    assert covered == set(range(20))


def region_invariants(data, regions, cfg):
    n = len(data)
    counts = {i: 0 for i in range(n)}
    for r in regions:
        for pid in r.member_ids:
            counts[pid] += 1
            assert r.sphere.contains(data[pid].coords)
    assert all(c >= 1 for c in counts.values())
    assert all(c <= cfg.cap for c in counts.values())


def test_region_coverage_floor_and_cap():
    rng = random.Random(9)
    for trial in range(5):
        data = Dataset.from_coords(
            [(rng.gauss(0, 4), rng.gauss(0, 4)) for _ in range(150)]
        )
        cfg = PipelineConfig(m=3)
        canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
        regions = build_regions(data, canopies, cfg)
        region_invariants(data, regions, cfg)


def test_map_step_equals_direct_density():
    data, _ = make_blobs(120, 2, seed=6)
    cfg = PipelineConfig(m=3)
    canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
    regions = build_regions(data, canopies, cfg)
    clustered = 0
    for region in regions[:5]:
        # The quadratic reference on the region's rows alone, its row
        # numbers mapped back to point ids.
        ids = sorted(region.member_ids)
        ref = dbscan_reference(
            Dataset.from_coords(data.coords[ids]), region.epsilon, region.m
        )
        got = map_step(region, data)
        assert got.labels == {
            ids[i]: NOISE if lb == NOISE else ids[lb] for i, lb in ref.labels.items()
        }
        assert got.core_flags == {ids[i] for i in ref.core_flags}
        clustered += sum(lb != NOISE for lb in got.labels.values())
    assert clustered > 0


def test_reduce_single_region_identity():
    data, _ = make_blobs(60, 2, seed=8)
    cfg = PipelineConfig(m=3, canopy=CanopyConfig(1e9, 1e9))
    regions = build_regions(data, canopy_cluster(data, cfg.canopy), cfg)
    local = map_step(regions[0], data)
    result = reduce_merge([(regions[0], local)], len(data))
    assert {i: result.labels[i] for i in range(len(data))} == local.labels
    assert result.core_flags == local.core_flags


def test_reduce_shared_point_merges():
    from dapclust.density import LocalLabeling

    a = LocalLabeling(labels={0: 0, 1: 0, 2: 0}, core_flags={0})
    b = LocalLabeling(labels={2: 2, 3: 2, 4: NOISE}, core_flags={3})
    res = reduce_merge([(None, a), (None, b)], 5)
    assert res.labels == [0, 0, 0, 0, NOISE]
    assert res.core_flags == {0, 3}


def test_reduce_noise_everywhere_required():
    from dapclust.density import LocalLabeling

    a = LocalLabeling(labels={0: NOISE, 1: 1}, core_flags={1})
    b = LocalLabeling(labels={0: 0, 1: 0}, core_flags={1})
    res = reduce_merge([(None, a), (None, b)], 2)
    assert res.labels == [0, 0]  # clustered in one region wins over noise


def test_reduce_missing_point_is_fatal():
    from dapclust.density import LocalLabeling

    with pytest.raises(RuntimeError):
        reduce_merge([(None, LocalLabeling(labels={0: 0}, core_flags=set()))], 2)


def test_reduce_order_independent():
    data, _ = make_blobs(150, 3, seed=11)
    cfg = PipelineConfig(m=3)
    canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
    regions = build_regions(data, canopies, cfg)
    locals_ = [(r, map_step(r, data)) for r in regions]
    base = reduce_merge(locals_, len(data))
    rng = random.Random(0)
    for _ in range(20):
        shuffled = locals_[:]
        rng.shuffle(shuffled)
        got = reduce_merge(shuffled, len(data))
        assert got.labels == base.labels
        assert got.core_flags == base.core_flags


def test_cluster_empty():
    res = cluster(Dataset([], dim=0), PipelineConfig(m=3))
    assert res.labels == []
    assert res.n_clusters == 0


def test_cluster_single_point():
    res = cluster(Dataset.from_coords([(1.0, 1.0)]), PipelineConfig(m=3))
    assert res.labels == [NOISE]
    res1 = cluster(Dataset.from_coords([(1.0, 1.0)]), PipelineConfig(m=1))
    assert res1.labels == [0]


def test_cluster_bridge_dataset():
    data, truth = make_bridge(50, j=2, seed=0)
    res = cluster(data, PipelineConfig(m=3))
    assert res.n_clusters == 2
    assert res.labels[-1] == NOISE and res.labels[-2] == NOISE
    for i, t in enumerate(truth):
        if t != NOISE:
            assert res.labels[i] != NOISE


def test_workers_do_not_change_output():
    data, _ = make_blobs(2000, 4, seed=13)
    base = cluster(data, PipelineConfig(m=3, worker_count=1))
    for workers in (2, 8):
        got = cluster(data, PipelineConfig(m=3, worker_count=workers))
        assert got.labels == base.labels
        assert got.core_flags == base.core_flags


def test_single_region_equivalence():
    data, _ = make_blobs(200, 3, seed=17)
    m = 3
    eps = estimate_epsilon(data.coords, m)
    direct = density_cluster(data, range(len(data)), DensityConfig(m, eps))
    piped = cluster(data, PipelineConfig(m=m, canopy=CanopyConfig(1e9, 1e9)))
    assert piped.labels == [direct.labels[i] for i in range(len(data))]
    assert piped.core_flags == direct.core_flags


def test_density_adaptation_two_densities():
    data, truth = make_density_pair(1.0)
    res = cluster(data, PipelineConfig(m=4))
    # both grids recovered: at least 90% of each grid shares one label
    for blob in (0, 1):
        ids = [i for i, t in enumerate(truth) if t == blob]
        best = max(
            sum(1 for i in ids if res.labels[i] == lb)
            for lb in {res.labels[i] for i in ids}
        )
        assert best / len(ids) >= 0.9
    # and the two grids get different labels
    labels_a = {res.labels[i] for i, t in enumerate(truth) if t == 0 and res.labels[i] != NOISE}
    labels_b = {res.labels[i] for i, t in enumerate(truth) if t == 1 and res.labels[i] != NOISE}
    assert labels_a.isdisjoint(labels_b)


def test_labels_are_canonical_minimums():
    for data, cfg in [
        (make_blobs(400, 3, seed=23)[0], PipelineConfig(m=3)),
        (make_bridge(50, j=2, seed=0)[0], PipelineConfig(m=3)),
    ]:
        res = cluster(data, cfg)
        for lb in set(res.labels):
            if lb == NOISE:
                continue
            members = [i for i, l in enumerate(res.labels) if l == lb]
            assert min(members) == lb


def test_stats_populated():
    data, _ = make_blobs(300, 3, seed=19)
    cfg = PipelineConfig(m=3)
    res = cluster(data, cfg)
    assert res.stats.region_count >= 1
    assert res.stats.max_region_size >= 3
    assert res.stats.t_total > 0
    assert res.stats.uf_ops > 0
    # The pairs before the cap: every point inside every region's sphere.
    regions = build_regions(data, canopy_cluster(data, estimate_thresholds(data, cfg.m)), cfg)
    inside = np.sqrt(squared_distances(regions.centers, data.coords)) <= regions.radii[:, None]
    assert res.stats.region_pairs == np.count_nonzero(inside) > len(regions.members)


def cap_oracle(coords, regions, cap):
    """The per-point cap as a walk over member sets and a membership dict:
    each point in more than ``cap`` regions drops its farthest (ties: higher
    region id first) until ``cap`` are left, so never its nearest. Mutates
    the regions' member sets."""
    membership = {}
    for r in regions:
        for pid in r.member_ids:
            membership.setdefault(pid, []).append(r.id)
    for pid in sorted(pid for pid, rids in membership.items() if len(rids) > cap):
        rids = membership[pid]
        centers = [regions[rid].sphere.center for rid in rids]
        sq = squared_distances_to(coords[pid].tolist(), centers)
        for _s, rid in sorted(zip(sq, rids))[cap:]:
            regions[rid].member_ids.discard(pid)


def tie_splits(coords, centers, pid, rid, regions, cap):
    """How many points over the cap have two regions at the same squared
    distance of which the cap kept one and dropped the other, so that only
    the region-id tie-break could decide between them."""
    held = {}
    for p, r in zip(pid.tolist(), rid.tolist()):
        held.setdefault(p, []).append(r)
    splits = 0
    for p, rs in held.items():
        if len(rs) <= cap:
            continue
        sq = squared_distances_to(coords[p].tolist(), centers[rs].tolist())
        kept = {}
        for s, r in zip(sq, rs):
            kept.setdefault(s, set()).add(p in regions[r].member_ids)
        splits += any(len(k) == 2 for k in kept.values())
    return splits


def test_cap_matches_set_walk_oracle(monkeypatch):
    # build_regions against the set walk on the (point, region) pairs that
    # its range pass found: the regions must be equal. The blobs are followed
    # by points on a half-integer lattice, where a point is often the same
    # distance from two region centres and the region id breaks the tie.
    splits = []
    over = []
    found = []
    direct = Grid.within

    def spy(self, centers, radii):
        found.append((self.coords, centers, direct(self, centers, radii)))
        return found[-1][2]

    monkeypatch.setattr(Grid, "within", spy)

    def compare(data, cfg, canopies=None):
        if canopies is None:
            canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
        found.clear()
        got = build_regions(data, canopies, cfg)
        [(rows, centers, (rid, loc, _sq))] = found
        # The range pass measures each location once: its pairs go to every
        # point with exactly those coordinates.
        ids_at = {}
        for p, row in enumerate(data.coords):
            ids_at.setdefault(row.tobytes(), []).append(p)
        at = [ids_at[rows[k].tobytes()] for k in loc.tolist()]
        pid = np.array([p for ids in at for p in ids], dtype=np.intp)
        rid = np.repeat(rid, [len(ids) for ids in at])
        regions = [
            SimpleNamespace(id=r, sphere=SimpleNamespace(center=tuple(c)), member_ids=set())
            for r, c in enumerate(centers.tolist())
        ]
        for p, r in zip(pid.tolist(), rid.tolist()):
            regions[r].member_ids.add(p)
        over.append(int((np.bincount(pid) > cfg.cap).sum()))
        cap_oracle(data.coords, regions, cfg.cap)
        splits.append(tie_splits(data.coords, centers, pid, rid, regions, cfg.cap))
        assert [(r.member_ids, r.sphere.center) for r in got] == [
            (r.member_ids, r.sphere.center) for r in regions
        ]

    rng = random.Random(5)
    inputs = []
    for trial in range(24):
        dim = (2, 8)[trial % 2]
        m = rng.choice([3, 4, 5])
        cap = (1, 2, m)[trial % 3]
        data, _ = make_blobs(rng.randrange(150, 400), rng.randrange(1, 4), seed=trial, dim=dim)
        inputs.append((data, m, cap))
    for trial in range(6):
        lattice = np.random.default_rng(trial)
        dim = (2, 3)[trial % 2]
        rows = lattice.integers(-8, 9, size=(lattice.integers(100, 250), dim)) / 2
        inputs.append((Dataset.from_coords(rows), 3 + trial % 3, (2, 3)[trial % 2]))
    for data, m, cap in inputs:
        compare(data, PipelineConfig(m=m, max_regions_per_point=cap))
    assert len(splits) == len(inputs) == 30
    assert all(s > 0 for s in splits[24:])  # the region id decided between equal distances

    # Blobs with ids ascending along x, at caps 1 and 2.
    for seed in range(3):
        blobs, _ = make_blobs(300, 2, seed=seed, dim=2 + seed % 2)
        data = Dataset.from_coords(blobs.coords[np.argsort(blobs.coords[:, 0], kind="stable")])
        for cap in (1, 2):
            compare(data, PipelineConfig(m=4, max_regions_per_point=cap))
    # A dense half-integer lattice with a canopy of a 2 x 2 or 3 x 3 block
    # at every point and next to no inflation: most points lie in several
    # small regions, at distances that often tie.
    side = 20
    rows = np.array([(x, y) for x in range(side) for y in range(side)]) / 2
    widths = iter(np.random.default_rng(20).integers(2, 4, size=(side - 1) ** 2).tolist())
    canopies = []
    for x in range(side - 1):
        for y in range(side - 1):
            k = next(widths)
            block = [(x + i) * side + y + j for i in range(k) for j in range(k) if max(x + i, y + j) < side]
            canopies.append(Canopy(x * side + y, frozenset(block)))
    for m, cap in ((5, 2), (6, 3)):
        compare(Dataset.from_coords(rows), PipelineConfig(m=m, c=1e-9, max_regions_per_point=cap), canopies)
    assert all(over)  # every input has points over the cap


def test_five_blobs_give_five_clusters_and_few_tail_clusters():
    # Regions keep only what lies in their spheres under the cap, with no
    # growth to m members, so tail canopies make few micro-clusters.
    small, _ = make_blobs(2000, 5, seed=1)
    assert cluster(small, PipelineConfig(m=4)).n_clusters == 5
    large, _ = make_blobs(10000, 5, seed=1)
    assert cluster(large, PipelineConfig(m=4)).n_clusters <= 11


def test_pipeline_builds_no_tree(monkeypatch):
    # Regions and the naive clusterer's neighbours come from a grid; neither
    # may import or build an SS+tree again.
    assert not imported_names(pipeline.__file__) & {"sstree", "SsTree"}
    assert not imported_names(naive.__file__) & {"sstree", "SsTree"}

    def refuse(cls, data):
        raise AssertionError("an SS+tree was built")

    monkeypatch.setattr(SsTree, "build", classmethod(refuse))
    data, _ = make_blobs(500, 3, seed=4)
    assert cluster(data, PipelineConfig(m=4)).n_clusters > 0
    assert naive_cluster(data, NaiveConfig(3)).n_clusters > 0


def scalar_estimates(rows, m, c):
    """Each row's k-th distance, the scan radius and the bounding sphere of
    one partition (a list of coordinate tuples) by the scalar rule: each
    row's distance to its m-th nearest other row (the farthest when there
    are fewer, 0 when there is none), averaged by numpy's ``mean``; then
    two far-point passes from the first row, ties to the lowest row."""
    k = len(rows)
    kth = []
    for i, row in enumerate(rows):
        dist = sorted(math.sqrt(s) for s in squared_distances_to(row, rows[:i] + rows[i + 1 :]))
        kth.append(dist[min(m, k - 1) - 1] if dist else 0.0)
    epsilon = c * float(np.mean(kth))

    def farthest(p):
        sq = squared_distances_to(p, rows)
        return rows[sq.index(max(sq))]

    p1 = farthest(rows[0])
    p2 = farthest(p1)
    center = tuple((a + b) / 2.0 for a, b in zip(p1, p2))
    return kth, epsilon, center, math.sqrt(max(squared_distances_to(center, rows)))


@pytest.mark.parametrize("dim", [2, 8])
def test_stacked_estimates_bit_identical_to_scalar_rule(dim):
    # Stacks of equal-size partitions against the scalar rule, partition by
    # partition, to the last bit: every row's k-th distance, the scan radius
    # as c times their mean (taken over the stack, as the pipeline does,
    # and by estimate_epsilon), and the sphere. The sizes cross numpy's
    # pairwise-sum blocks (8 and 128 terms) and the row slabs above 256
    # rows; five partitions of 128 or 129 rows fill more than one
    # 2**16-entry group. Every second partition is three points repeated.
    # A subset of the rows, in shuffled order, gives the same distances.
    m, c = 4, 0.75
    rng = np.random.default_rng(dim)
    for k in (1, 2, m, m + 1, 8, 9, 128, 129, 300):
        b = 2 if k > 256 else 5
        pts = rng.normal(size=(b, k, dim))
        pts[1::2] = pts[1::2, rng.integers(0, min(3, k), size=k)]
        kth = kth_distances(pts, m)
        rows = rng.permutation(k)[: max(1, k - 3)]
        assert [v.hex() for v in kth_distances(pts, m, rows).ravel().tolist()] == [
            v.hex() for v in kth[:, rows].ravel().tolist()
        ]
        epsilon = c * kth.mean(axis=1)
        centers, radii = bounding_spheres(pts.reshape(b * k, dim), np.arange(b * k), np.arange(0, b * k + 1, k))
        for p in range(b):
            got = [
                *kth[p].tolist(),
                float(epsilon[p]),
                estimate_epsilon(pts[p], m, c),
                *centers[p].tolist(),
                float(radii[p]),
            ]
            want_kth, want_eps, want_center, want_radius = scalar_estimates(
                [tuple(row) for row in pts[p].tolist()], m, c
            )
            want = [*want_kth, want_eps, want_eps, *want_center, want_radius]
            assert [v.hex() for v in got] == [v.hex() for v in want], (k, p)


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_flat_spheres_bit_identical_to_scalar_rule(dim):
    # bounding_spheres over ragged partitions whose rows lie scattered
    # through the array, against the scalar rule partition by partition, to
    # the last bit. The rows lie on an integer lattice, so farthest points
    # tie and must go to the lowest row, and every second partition is
    # three of its rows repeated. From 2-D on, one more partition has two
    # farthest rows from its first, (2, 0) and (0, 2), and from (0, 2) the
    # sphere would come out elsewhere.
    m = 4
    rng = np.random.default_rng(dim)
    parts = []
    for i, k in enumerate((1, 2, m, m + 1, 9, 129, 300)):
        rows = rng.integers(-2, 3, size=(k, dim)).astype(float)
        parts.append(rows[rng.integers(0, min(3, k), size=k)] if i % 2 else rows)
    if dim >= 2:
        parts.append(np.zeros((4, dim)))
        parts[-1][:, :2] = [(0, 0), (2, 0), (0, 2), (-1, -1)]
    ids = rng.permutation(sum(map(len, parts)))
    coords = np.empty((len(ids), dim))
    coords[ids] = np.concatenate(parts)
    ptr = np.cumsum([0, *map(len, parts)])
    centers, radii = bounding_spheres(coords, ids, ptr)
    ties = 0
    for p, rows in enumerate(parts):
        rows = [tuple(row) for row in rows.tolist()]
        *_, center, radius = scalar_estimates(rows, m, 1.0)
        got = [*centers[p].tolist(), float(radii[p])]
        assert [v.hex() for v in got] == [v.hex() for v in [*center, radius]], p
        sq = squared_distances_to(rows[0], rows)
        sq1 = squared_distances_to(rows[sq.index(max(sq))], rows)
        ties += len(rows) > 1 and (sq.count(max(sq)) > 1 or sq1.count(max(sq1)) > 1)
    assert ties >= 3


def test_region_estimates_match_per_canopy_rule():
    # build_regions stacks the canopies and takes their spheres in one flat
    # pass: each region keeps its own canopy's scan radius and sphere,
    # measured on the members in ascending id, and inflated by the scan
    # radius. At d = 2 and 8, blobs with one point repeated m + 2 times and
    # one 300 times, and two far locations repeated as often on their own,
    # shuffled: the canopies that hold them are measured without the
    # copies past the (m + 1)-th, and must still give the bits of the rule
    # on all members.
    cfg = PipelineConfig(m=4, c=1.3)
    blobs, _ = make_blobs(1500, 4, seed=31)
    inputs = [blobs]
    for dim in (2, 8):
        base = make_blobs(600, 3, seed=dim, dim=dim)[0].coords
        far = base.max(axis=0) + 100.0
        rows = np.concatenate([
            base,
            np.repeat(base[3:4], cfg.m + 1, axis=0),
            np.repeat(base[9:10], 299, axis=0),
            np.repeat(far[None], cfg.m + 2, axis=0),
            np.repeat(far[None] + 50.0, 300, axis=0),
        ])
        inputs.append(Dataset.from_coords(np.random.default_rng(dim).permutation(rows)))
    for data in inputs:
        canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
        assert len({len(c.member_ids) for c in canopies}) > 5
        regions = build_regions(data, canopies, cfg)
        thinned = set()
        for canopy, region in zip(canopies, regions):
            ids = sorted(canopy.member_ids)
            sub = data.coords[ids]
            epsilon = estimate_epsilon(sub, cfg.m, cfg.c)
            center, radius = bounding_sphere(sub)
            got = [region.epsilon, *region.sphere.center, region.sphere.radius]
            want = [epsilon, *center, radius + epsilon]
            assert [v.hex() for v in got] == [v.hex() for v in want]
            thinned |= {int(regions.first_copy[p]) for p in ids if regions.copy_rank[p] > cfg.m}
        assert len(thinned) == (0 if data is blobs else 4)  # every repeated location was thinned


@pytest.mark.parametrize("dim", [2, 8])
def test_nearest_free_matches_knn_order_and_distances(dim):
    # The grid's nearest query against the linear-scan knn, with and without
    # a mask of free points, for a batch of centres at once. Cells from a
    # thousandth of the spread to wider than it make the box double, widen
    # or hold everything at once.
    rng = random.Random(dim)
    # Coordinates drawn mostly from three values: many points repeat, so
    # their distances tie.
    rows = [
        tuple(rng.choice([0.0, 0.5, 1.0, rng.gauss(0, 1)]) for _ in range(dim))
        for _ in range(80)
    ]
    data = Dataset.from_coords(rows)
    free = np.array([rng.random() < 0.5 for _ in range(80)])
    centers = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(10)]
    for side in (1e-3, 0.25, 10.0):
        grid = Grid(data.coords, side)
        for mask in (free, None):
            for k in (1, 3, 80):
                ids, dist = grid.nearest(np.array(centers), k, mask)
                for center, row_ids, row_dist in zip(centers, ids, dist):
                    want = [(p, d) for p, d in knn_reference(data, center, 80) if mask is None or mask[p]]
                    assert list(zip(row_ids.tolist(), row_dist.tolist())) == want[:k]


def test_threshold_time_is_part_of_canopy_time():
    data, _ = make_blobs(2000, 4, seed=31)
    st = cluster(data, PipelineConfig(m=3)).stats
    assert 0 < st.t_thresholds <= st.t_canopy
    given = cluster(data, PipelineConfig(m=3, canopy=CanopyConfig(3.0, 1.0))).stats
    assert given.t_thresholds == 0.0 and given.t_canopy > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_stage_times_sum_to_total(workers):
    data, _ = make_blobs(2000, 4, seed=31)
    st = cluster(data, PipelineConfig(m=3, worker_count=workers)).stats
    staged = st.t_canopy + st.t_regions + st.t_map + st.t_reduce
    assert 0.98 * st.t_total <= staged <= st.t_total


@pytest.mark.parametrize("dim", [2, 8])
def test_batched_map_matches_map_step_per_region(dim, monkeypatch):
    # cluster's stacked batches against map_step on each of its regions and
    # the reduce of those labelings. A tight far cluster of 1,030 points
    # makes one region above 1,024 points, one of 300 inside a blob makes
    # regions that each fill a batch, 1,100 copies of one blob point make
    # regions whose neighbourhoods lie at distance 0, and the blobs give
    # small classes batched many regions at a time.
    blobs, _ = make_blobs(1200, 3, seed=dim, dim=dim)
    rng = np.random.default_rng(dim)
    X = np.concatenate([
        blobs.coords,
        blobs.coords[11] + rng.normal(size=(300, dim)) * 0.02,
        blobs.coords[7] + 50.0 + rng.normal(size=(1030, dim)) * 0.01,
        np.repeat(blobs.coords[5:6], 1100, axis=0),
    ])
    data = Dataset.from_coords(X)
    built = []
    real_build = pipeline.build_regions

    def keep(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_regions", keep)
    merged = []
    real_merge = pipeline.stacked_merge

    def count(coords, ids, epsilon, m):
        merged.extend((ids >= 0).sum(axis=1).tolist())
        return real_merge(coords, ids, epsilon, m)

    monkeypatch.setattr(pipeline, "stacked_merge", count)
    cfg = PipelineConfig(m=4)
    got = cluster(data, cfg)
    assert got.stats.repeat_points > 0  # the oracle below covers the thinned merge
    assert min(merged) >= cfg.m  # smaller regions cannot hold a core point and skip the merge
    [regions] = built
    sizes = [len(r.member_ids) for r in regions]
    assert max(sizes) > 1024
    widths = [-(-k // 8) * 8 for k in sizes if k <= 1024]
    assert len(set(widths)) >= 5
    assert widths.count(8) > 100 and max(widths) > 256
    want = reduce_merge([(r, map_step(r, data)) for r in regions], len(data))
    assert got.labels == want.labels
    assert got.core_flags == want.core_flags
    assert got.stats.uf_ops == want.stats.uf_ops


@pytest.mark.parametrize("n, dim", [(20_000, 2), (3_000, 8)])
def test_identical_points_cost_at_most_m_plus_one_rows(n, dim, monkeypatch):
    # n copies of one point form one cluster, labelled 0, of core points.
    # The scan radius, the sphere and the merge see at most m + 1 rows of
    # any partition, so the copies cost linear time, not quadratic.
    m = 4
    widths = []

    def spy(name, rows_of):
        real = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            widths.append((name, rows_of(*args, **kwargs)))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapped)

    spy("stacked_merge", lambda coords, ids, epsilon, m: int((ids >= 0).sum(axis=1).max()))
    spy("kth_distances", lambda pts, m, width=None: pts.shape[1] if width is None else int(width.max()))
    spy("bounding_spheres", lambda coords, ids, ptr: int(np.diff(ptr).max()))
    res = cluster(Dataset.from_coords(np.full((n, dim), 0.5)), PipelineConfig(m=m))
    assert res.labels == [0] * n
    assert res.core_flags == set(range(n))
    assert res.stats.repeat_points == n - (m + 1)
    assert {name for name, _ in widths} >= {"stacked_merge", "kth_distances", "bounding_spheres"}
    assert max(w for _, w in widths) <= m + 1


def test_thinned_canopies_are_stacked_by_kept_size(monkeypatch):
    # Blobs rounded to a 0.5 grid: 266 of 566 canopies hold a location more
    # than m + 1 times. Canopies are measured without the copies past the
    # (m + 1)-th, stacked by the size that is left, so kth_distances runs
    # once per stack width, not once per thinned canopy, and no call's valid
    # columns hold more than m + 1 copies of a location. In 2-D each kept
    # size is its own stack. The same points with six zero coordinates
    # added, where the filter runs, stack a kept size above m + 1 by its
    # class (rounded up to a multiple of 8) and mask the padding by width.
    m = 4
    rounded = np.round(make_blobs(6000, 5, seed=1)[0].coords * 2) / 2
    real = pipeline.kth_distances
    for dim in (2, 8):
        data = Dataset.from_coords(np.hstack([rounded, np.zeros((len(rounded), dim - 2))]))
        canopies = canopy_cluster(data, estimate_thresholds(data, m))
        kept_sizes, thinned = set(), 0
        for canopy in canopies:
            copies = Counter(data.coords[i].tobytes() for i in canopy.member_ids)
            kept = sum(min(count, m + 1) for count in copies.values())
            kept_sizes.add(kept)
            thinned += kept < len(canopy.member_ids)
        assert thinned > 0.4 * len(canopies)
        calls = []

        def spy(pts, m, width=None):
            calls.append((pts, width))
            return real(pts, m, width=width)

        monkeypatch.setattr(pipeline, "kth_distances", spy)
        build_regions(data, canopies, PipelineConfig(m=m))
        want = {-(-k // 8) * 8 if dim == 8 and k > m + 1 else k for k in kept_sizes}
        assert sorted(pts.shape[1] for pts, _ in calls) == sorted(want)
        assert len(want) < len(kept_sizes) if dim == 8 else want == kept_sizes
        for pts, width in calls:
            valid = np.full(len(pts), pts.shape[1]) if width is None else width
            assert (width is None) == (dim == 2 or pts.shape[1] <= m + 1)
            for part, k in zip(pts, valid.tolist()):
                assert max(Counter(row.tobytes() for row in part[:k]).values()) <= m + 1


def _repeat_heavy_inputs():
    """Inputs where many points have exact copies: name, coordinates."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    blobs = make_blobs(6000, 5, seed=1)[0].coords
    rounded = np.round(blobs * 2) / 2
    yield "rounded blobs", rounded
    yield "rounded blobs, ids along x", rounded[np.argsort(rounded[:, 0], kind="stable")]
    yield "identical 2-D", np.zeros((5000, 2))
    yield "identical 8-D", np.ones((3000, 8))
    base = make_blobs(1200, 3, seed=8, dim=8)[0].coords
    rng = np.random.default_rng(8)
    yield "copies d = 8", np.concatenate([
        base,
        base[11] + rng.normal(size=(300, 8)) * 0.02,
        base[7] + 50.0 + rng.normal(size=(1030, 8)) * 0.01,
        np.repeat(base[5:6], 1100, axis=0),
    ])
    yield "half-integer lattice 3-D", rng.integers(-8, 9, size=(3000, 3)) / 2
    for seed in (1, 2, 3):
        yield f"mixed_hotspots {seed}", inputs.mixed_hotspots(seed, 4000, 250)[0]


def test_partitions_hold_every_copy_of_a_point_or_none():
    # Copies have equal distances to every seed and every centre, so the
    # sweep and the cap put all of a location's copies, or none, into each
    # canopy and region: the location's count in a partition is its global
    # count. Locations are compared by value, so 0.0 and -0.0 are one.
    m = 4
    for name, coords in _repeat_heavy_inputs():
        data = Dataset.from_coords(coords)
        _, loc, count = np.unique(data.coords, axis=0, return_inverse=True, return_counts=True)
        assert count.max() > m + 1, name
        canopies = canopy_cluster(data, estimate_thresholds(data, m))
        regions = build_regions(data, canopies, PipelineConfig(m=m))
        for parts in (canopies, regions):
            owner = np.repeat(np.arange(len(parts)), np.diff(parts.ptr))
            pairs, held = np.unique(owner * len(count) + loc[parts.members], return_counts=True)
            assert (held == count[pairs % len(count)]).all(), name


@pytest.mark.parametrize("name", ["mixed_hotspots 1", "copies d = 8", "rounded blobs"])
def test_copies_take_their_first_copys_regions(name):
    # The range pass and the cap measure one copy of each location. Every
    # point must still hold its first copy's regions, which are the cap's
    # choice among all spheres that hold it, counted by brute force over
    # every (point, sphere) pair; ``pairs`` counts those of every point.
    m = 4
    data = Dataset.from_coords(dict(_repeat_heavy_inputs())[name])
    regions = build_regions(data, canopy_cluster(data, estimate_thresholds(data, m)), PipelineConfig(m=m))
    held = [[] for _ in range(len(data))]
    for r, p in zip(regions.owner.tolist(), regions.members.tolist()):
        held[p].append(r)
    first = {}
    for p, row in enumerate(data.coords):
        assert held[p] == held[first.setdefault(row.tobytes(), p)], (name, p)
    assert len(first) < len(data), name
    pairs = 0
    for lo in range(0, len(data), 500):
        sq = squared_distances(data.coords[lo : lo + 500], regions.centers)
        inside = np.sqrt(sq) <= regions.radii
        pairs += int(inside.sum())
        for p, (row, hit) in enumerate(zip(sq, inside), lo):
            rids = np.flatnonzero(hit)
            assert held[p] == sorted(rids[np.lexsort((rids, row[rids]))][:m].tolist()), (name, p)
    assert regions.pairs == pairs, name


@pytest.mark.parametrize(
    "first, second",
    [(range(4), range(4, 8)), ([0], [1]), (range(6), [0, 6, 7])],
    ids=["halves", "one each", "both hold the first"],
)
def test_regions_refuse_canopies_that_split_copies(first, second):
    # Copies of the origin shared out over two hand-built canopies, next to
    # three distinct points: no sweep gives this, and the copies rule would
    # measure a split copy by a first copy it lacks, or count too few.
    copies = max(*first, *second) + 1
    data = Dataset.from_coords([(0.0, 0.0)] * copies + [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    canopies = [
        Canopy(0, frozenset([*first, copies, copies + 1])),
        Canopy(min(second), frozenset([*second, copies + 2])),
    ]
    with pytest.raises(ValueError, match="some copies of a point but not all"):
        build_regions(data, canopies, PipelineConfig(m=4))


def test_regions_refuse_an_empty_canopy():
    # A hand-built canopy with no member has no sphere or scan radius.
    data = Dataset.from_coords([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)])
    canopies = [Canopy(0, frozenset()), Canopy(0, frozenset({0, 1, 2}))]
    with pytest.raises(ValueError, match="a canopy holds no point"):
        build_regions(data, canopies, PipelineConfig(m=2))


def test_sparse_fold_matches_union_find():
    # Against the label-relabelling disjoint sets of criterion 3, whose
    # labels are each set's minimum.
    rng = np.random.default_rng(17)
    cases = [
        (int(n), rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)))
        for n in rng.integers(1, 400, size=40)
    ]
    order = rng.permutation(1024)
    cases.append((1030, np.stack([order[:-1], order[1:]], axis=1)))  # a chain in random id order
    for n, links in cases:
        oracle = LabelOracle(n)
        for a, b in links.tolist():
            oracle.union(a, b)
        got = _lowest_linked(np.arange(n), links[:, 0], links[:, 1])
        assert got.tolist() == oracle.labels
        # The same links folded in chunks, each fold starting from the last.
        lab = np.arange(n)
        for chunk in np.array_split(links, 5):
            lab = _lowest_linked(lab, chunk[:, 0], chunk[:, 1])
        assert lab.tolist() == oracle.labels
    # Start labels that join 7 to 2: the fold must keep that link while the
    # new links join 7 to 1 and 2 to 0, or it settles at 7 -> 1 and 2 -> 0.
    oracle = LabelOracle(8)
    for a, b in [(7, 2), (7, 1), (2, 0)]:
        oracle.union(a, b)
    got = _lowest_linked(np.array([0, 1, 2, 3, 4, 5, 6, 2]), np.array([7, 2]), np.array([1, 0]))
    assert got.tolist() == oracle.labels == [0, 0, 0, 3, 4, 5, 6, 0]


def test_region_summary_on_two_lines():
    # Two far groups on the x axis, one canopy each, m = 2. Scan radii are
    # the mean distances to the second nearest neighbour:
    #   A at 0..3:                 (2 + 1 + 1 + 2) / 4 = 1.5, all 4 core;
    #   B at 100..104 and 108:     (2 + 1 + 1 + 1 + 2 + 5) / 6 = 2.0,
    #                              108 has no neighbour within 2: 5 core.
    xs = [0, 1, 2, 3, 100, 101, 102, 103, 104, 108]
    data = Dataset.from_coords([(float(x), 0.0) for x in xs])
    st = cluster(data, PipelineConfig(m=2, canopy=CanopyConfig(10.0, 10.0))).stats
    assert st.region_count == 2
    assert (st.region_size_p50, st.max_region_size) == (5.0, 6)
    assert st.region_size_p90 == pytest.approx(5.8)
    assert (st.epsilon_p50, st.epsilon_max) == (1.75, 2.0)
    assert st.epsilon_p90 == pytest.approx(1.95)
    assert (st.region_core_p50, st.region_core_max) == (4.5, 5)
    assert st.region_core_p90 == pytest.approx(4.9)
