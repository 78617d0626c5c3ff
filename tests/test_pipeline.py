import random

import numpy as np
import pytest

from dapclust import pipeline
from dapclust.canopy import Canopy, CanopyConfig, canopy_cluster, estimate_thresholds
from dapclust.core import NOISE, Dataset
from dapclust.datagen import make_blobs, make_bridge, make_density_pair
from dapclust.density import DensityConfig, density_cluster, estimate_epsilon
from dapclust.pipeline import PipelineConfig, build_regions, cluster, map_step, reduce_merge
from dapclust.sstree import SsTree


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(m=0)
    with pytest.raises(ValueError):
        PipelineConfig(m=3, c=-1.0)
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
    for region in regions[:5]:
        pts = [data[i] for i in sorted(region.member_ids)]
        direct = density_cluster(
            pts, DensityConfig(region.m, region.epsilon), SsTree.build(pts)
        )
        got = map_step(region, data)
        assert got.labels == direct.labels
        assert got.core_flags == direct.core_flags


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
    eps = estimate_epsilon(data, m)
    direct = density_cluster(data, DensityConfig(m, eps), SsTree.build(data))
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
    ranked = []
    direct = pipeline._nearest_free

    def spy(coords, center, free):
        out = direct(coords, center, free)
        ranked.append(out)
        return out

    monkeypatch.setattr(pipeline, "_nearest_free", spy)
    regions = build_regions(data, canopies, cfg)
    # The knn query of 8 would return more points than could join, so the
    # four candidates are ranked directly, by distance and then by id.
    assert ranked == [[(6, 5.0), (8, 5.0), (9, 5.0), (7, 6.0)]]
    assert regions[2].member_ids == {2, 3, 6, 8}
    assert regions[2].sphere.radius == 5.0


def test_regrowth_stops_when_no_point_has_cap_budget():
    # With a cap of 1 every covered point is full once the cap is applied, so
    # regions left short stay short without asking for more neighbours.
    data, _ = make_blobs(300, 3, seed=29)
    cfg = PipelineConfig(m=4, max_regions_per_point=1)
    canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
    tree = SsTree.build(data)
    asked = []

    class CountingTree:
        range = tree.range

        def knn(self, q, k, include_self=True):
            asked.append(k)
            return tree.knn(q, k, include_self)

    regions = build_regions(data, canopies, cfg, tree=CountingTree())
    assert any(len(r.member_ids) < cfg.m for r in regions)
    assert all(k == cfg.m for k in asked)  # only the pre-cap floor queries


@pytest.mark.parametrize("dim", [2, 8])
def test_nearest_free_matches_knn_order_and_distances(dim):
    rng = random.Random(dim)
    # Coordinates drawn mostly from three values: many points repeat, so
    # their distances tie.
    rows = [
        tuple(rng.choice([0.0, 0.5, 1.0, rng.gauss(0, 1)]) for _ in range(dim))
        for _ in range(80)
    ]
    data = Dataset.from_coords(rows)
    tree = SsTree.build(data)
    free = np.array([rng.random() < 0.5 for _ in range(80)])
    for _ in range(10):
        center = tuple(rng.gauss(0, 1) for _ in range(dim))
        want = [(pid, d) for pid, d in tree.knn(center, 80) if free[pid]]
        assert pipeline._nearest_free(data.coords, center, free) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_stage_times_sum_to_total(workers):
    data, _ = make_blobs(2000, 4, seed=31)
    st = cluster(data, PipelineConfig(m=3, worker_count=workers)).stats
    staged = st.t_tree + st.t_canopy + st.t_regions + st.t_map + st.t_reduce
    assert 0.98 * st.t_total <= staged <= st.t_total
