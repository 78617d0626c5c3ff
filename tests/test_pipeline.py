import math
import random
from collections import Counter
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
    Sphere,
    bounding_sphere,
    squared_distances_to,
    stacked_bounding_sphere,
)
from dapclust.datagen import make_blobs, make_bridge, make_density_pair
from dapclust.density import (
    DensityConfig,
    _lowest_linked,
    density_cluster,
    estimate_epsilon,
    stacked_epsilon,
)
from dapclust.naive import NaiveConfig, naive_cluster
from dapclust.pipeline import PipelineConfig, build_regions, cluster, map_step, reduce_merge
from dapclust.grid import Grid
from dapclust.sstree import SsTree


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
        assert len(r.member_ids) >= min(cfg.m, n)
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
    res = cluster(data, PipelineConfig(m=3))
    assert res.stats.region_count >= 1
    assert res.stats.max_region_size >= 3
    assert res.stats.t_total > 0
    assert res.stats.uf_ops > 0


def cap_oracle(coords, regions, cap, floor):
    """The per-point cap as a walk over member sets and a membership dict:
    points in ascending id, each dropping its farthest regions (ties: higher
    region id first) but never its nearest, and sparing regions at the floor
    while it can. Mutates the regions' member sets and returns how many
    points dropped other regions than their farthest because of the floor."""
    membership = {}
    for r in regions:
        for pid in r.member_ids:
            membership.setdefault(pid, []).append(r.id)
    fired = 0
    for pid in sorted(pid for pid, rids in membership.items() if len(rids) > cap):
        rids = membership[pid]
        centers = [regions[rid].sphere.center for rid in rids]
        sq = squared_distances_to(coords[pid].tolist(), centers)
        order = [rid for _s, rid in sorted(zip(sq, rids))]
        nearest = order[0]
        excess = len(order) - cap
        farthest = set(order[-excess:])
        for protect_floor in (True, False):
            for rid in reversed(order):
                if excess == 0:
                    break
                if rid == nearest or rid not in rids:
                    continue
                if protect_floor and len(regions[rid].member_ids) <= floor:
                    continue
                regions[rid].member_ids.discard(pid)
                rids.remove(rid)
                excess -= 1
        fired += farthest != set(order) - set(rids)
    return fired


def test_cap_matches_set_walk_oracle(monkeypatch):
    # build_regions with its array cap, and again with the cap replaced by
    # the set walk on the same (point, region) pairs: the regions, after
    # regrowth too, must be equal.
    array_cap = pipeline._apply_cap
    fired = []

    def oracle_cap(coords, centers, pid, rid, cap, floor):
        regions = [
            SimpleNamespace(id=r, sphere=SimpleNamespace(center=tuple(c)), member_ids=set())
            for r, c in enumerate(centers.tolist())
        ]
        for p, r in zip(pid.tolist(), rid.tolist()):
            regions[r].member_ids.add(p)
        fired.append(cap_oracle(coords, regions, cap, floor))
        pairs = sorted((p, r.id) for r in regions for p in r.member_ids)
        want = np.array(pairs, dtype=pid.dtype).reshape(-1, 2).T
        got = array_cap(coords, centers, pid, rid, cap, floor)
        assert sorted(zip(*(a.tolist() for a in got))) == pairs
        return want[0], want[1]

    rng = random.Random(5)
    for trial in range(24):
        dim = (2, 8)[trial % 2]
        m = rng.choice([3, 4, 5])
        cap = (1, 2, m)[trial % 3]
        data, _ = make_blobs(rng.randrange(150, 400), rng.randrange(1, 4), seed=trial, dim=dim)
        cfg = PipelineConfig(m=m, max_regions_per_point=cap)
        canopies = canopy_cluster(data, estimate_thresholds(data, m))
        want = build_regions(data, canopies, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "_apply_cap", oracle_cap)
            got = build_regions(data, canopies, cfg)
        assert [(r.member_ids, r.sphere, r.epsilon) for r in got] == [
            (r.member_ids, r.sphere, r.epsilon) for r in want
        ]
    assert len(fired) == 24
    assert sum(f > 0 for f in fired) >= 5  # floor protection changed the result


def test_cap_spares_a_region_at_the_floor():
    # Point 0 lies in three regions under a cap of 2. Its farthest, C, holds
    # only it and point 4, so C is at the floor (m = 2) and the drop goes to
    # B instead.
    rows = [(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (1.5, 0.0), (-3.0, 0.0)]
    data = Dataset.from_coords(rows)
    canopies = [
        Canopy(0, frozenset({0, 1})),  # A: center (0, 0.5)
        Canopy(2, frozenset({0, 2})),  # B: center (1, 0), also holds point 3
        Canopy(4, frozenset({0, 4})),  # C: center (-1.5, 0)
    ]
    cfg = PipelineConfig(m=2, c=1e-9, max_regions_per_point=2)
    regions = build_regions(data, canopies, cfg)
    assert [r.member_ids for r in regions] == [{0, 1}, {2, 3}, {0, 4}]


def test_regrowth_takes_nearest_points_with_cap_budget(monkeypatch):
    # Three canopies over one 6-point group centred on the origin: under a
    # cap of 2 the third region sheds four points and must regrow by two.
    # Every group point is then full, so only the four outliers can join:
    # ids 6, 8 and 9 at distance 5 from the center and id 7 at 6.
    group = [(x, 0.0) for x in (-0.25, -0.15, -0.05, 0.05, 0.15, 0.25)]
    outliers = [(-5.0, 0.0), (6.0, 0.0), (5.0, 0.0), (0.0, 5.0)]
    data = Dataset.from_coords(group + outliers)
    canopies = [Canopy(0, frozenset(range(6)))] * 3
    cfg = PipelineConfig(m=4, max_regions_per_point=2)
    asked = []
    direct = Grid.nearest

    def spy(self, centers, k, mask=None):
        ids, dist = direct(self, centers, k, mask)
        if mask is not None:
            asked.append((np.flatnonzero(mask).tolist(), list(zip(ids[0].tolist(), dist[0].tolist()))))
        return ids, dist

    monkeypatch.setattr(Grid, "nearest", spy)
    regions = build_regions(data, canopies, cfg)
    # The two nearest points with cap budget, ties by lower id.
    assert asked == [([6, 7, 8, 9], [(6, 5.0), (8, 5.0)])]
    assert regions[2].member_ids == {2, 3, 6, 8}
    assert regions[2].sphere.radius == 5.0


def test_regrowth_stops_when_no_point_has_cap_budget(monkeypatch):
    # With a cap of 1 every covered point is full once the cap is applied, so
    # regions left short stay short without measuring more candidates.
    data, _ = make_blobs(300, 3, seed=29)
    cfg = PipelineConfig(m=4, max_regions_per_point=1)
    canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
    log = []
    direct_nearest, direct_boxes = Grid.nearest, Grid.boxes

    def nearest(self, centers, k, mask=None):
        log.append("floor" if mask is None else "regrow")
        return direct_nearest(self, centers, k, mask)

    def boxes(self, centers, reach):
        log.append("box")
        return direct_boxes(self, centers, reach)

    monkeypatch.setattr(Grid, "nearest", nearest)
    monkeypatch.setattr(Grid, "boxes", boxes)
    regions = build_regions(data, canopies, cfg)
    assert any(len(r.member_ids) < cfg.m for r in regions)
    assert "regrow" in log
    assert set(log[log.index("regrow") :]) == {"regrow"}  # no box after the cap


def test_regrowth_matches_knn_walk_oracle(monkeypatch):
    # Regions left short by the cap regrow in region order, each from the
    # nearest points (ties by lower id) that it does not hold and that still
    # have cap budget. build_regions against that walk over knn_reference,
    # started from its own regions with the regrowth switched off.
    direct = Grid.nearest

    def no_regrowth(self, centers, k, mask=None):
        return direct(self, centers, k if mask is None else 0, mask)

    # Points repeated at a few spots among scattered points: the regions at
    # the spots lose points to the cap while scattered points keep budget.
    grew = 0
    for trial in range(12):
        rng = np.random.default_rng(trial)
        dim, m, cap = (2, 3)[trial % 2], 4, (2, 3, 4)[trial % 3]
        spots = rng.normal(size=(6, dim)) * 3
        X = np.concatenate([np.repeat(spots, rng.integers(5, 40, 6), axis=0), rng.normal(size=(150, dim)) * 3])
        data = Dataset.from_coords(X)
        cfg = PipelineConfig(m=m, max_regions_per_point=cap)
        canopies = canopy_cluster(data, estimate_thresholds(data, m))
        got = build_regions(data, canopies, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(Grid, "nearest", no_regrowth)
            want = build_regions(data, canopies, cfg)
        count = Counter(p for r in want for p in r.member_ids)
        for r in want:
            if len(r.member_ids) >= m:
                continue
            for pid, d in knn_reference(data, r.sphere.center, len(data)):
                if len(r.member_ids) == m:
                    break
                if pid not in r.member_ids and count[pid] < cap:
                    r.member_ids.add(pid)
                    count[pid] += 1
                    grew += 1
                    r.sphere = Sphere(r.sphere.center, max(r.sphere.radius, d))
        assert [(r.member_ids, r.sphere) for r in got] == [(r.member_ids, r.sphere) for r in want]
    assert grew > 20


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
    """The scan radius and the bounding sphere of one partition (a list of
    coordinate tuples) by the scalar rule: each row's m-th nearest other row
    (the farthest when there are fewer), averaged by numpy's ``mean``; then
    two far-point passes from the first row, ties to the lowest row."""
    k = len(rows)
    kth = []
    for i, row in enumerate(rows):
        dist = sorted(math.sqrt(s) for s in squared_distances_to(row, rows[:i] + rows[i + 1 :]))
        if dist:
            kth.append(dist[min(m, k - 1) - 1])
    epsilon = c * float(np.mean(kth)) if kth else 0.0

    def farthest(p):
        sq = squared_distances_to(p, rows)
        return rows[sq.index(max(sq))]

    p1 = farthest(rows[0])
    p2 = farthest(p1)
    center = tuple((a + b) / 2.0 for a, b in zip(p1, p2))
    return epsilon, center, math.sqrt(max(squared_distances_to(center, rows)))


@pytest.mark.parametrize("dim", [2, 8])
def test_stacked_estimates_bit_identical_to_scalar_rule(dim):
    # Stacks of equal-size partitions against the scalar rule, partition by
    # partition, to the last bit. The sizes cross numpy's pairwise-sum blocks
    # (8 and 128 terms) and the row blocks above 256 rows; five partitions of
    # 128 or 129 rows fill more than one 2**16-entry group. Every second
    # partition is three points repeated.
    m, c = 4, 0.75
    rng = np.random.default_rng(dim)
    for k in (1, 2, m, m + 1, 8, 9, 128, 129, 300):
        b = 2 if k > 256 else 5
        pts = rng.normal(size=(b, k, dim))
        pts[1::2] = pts[1::2, rng.integers(0, min(3, k), size=k)]
        epsilon = stacked_epsilon(pts, m, c)
        centers, radii = stacked_bounding_sphere(pts)
        for p in range(b):
            got = [float(epsilon[p]), *centers[p].tolist(), float(radii[p])]
            want_eps, want_center, want_radius = scalar_estimates(
                [tuple(row) for row in pts[p].tolist()], m, c
            )
            want = [want_eps, *want_center, want_radius]
            assert [v.hex() for v in got] == [v.hex() for v in want], (k, p)


def test_region_estimates_match_per_canopy_rule():
    # build_regions gathers canopies of one size into a stack: each region
    # keeps its own canopy's scan radius and sphere, measured on the
    # members in ascending id. Regrowth may only widen a sphere.
    data, _ = make_blobs(1500, 4, seed=31)
    cfg = PipelineConfig(m=4, c=1.3)
    canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
    assert len({len(c.member_ids) for c in canopies}) > 5
    regions = build_regions(data, canopies, cfg)
    unchanged = 0
    for canopy, region in zip(canopies, regions):
        sub = data.coords[sorted(canopy.member_ids)]
        epsilon = estimate_epsilon(sub, cfg.m, cfg.c)
        center, radius = bounding_sphere(sub)
        assert region.epsilon.hex() == epsilon.hex()
        assert region.sphere.center == center
        assert region.sphere.radius >= radius + epsilon
        unchanged += region.sphere.radius == radius + epsilon
    assert unchanged > len(regions) // 2


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
    cfg = PipelineConfig(m=4)
    got = cluster(data, cfg)
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
