import math
import random

import pytest

from dapclust.baselines import knn_reference
from dapclust.canopy import Canopy, CanopyConfig, canopy_cluster, cheap_distance, estimate_thresholds
from dapclust.core import Dataset


def sweep_oracle(coords, t1, t2):
    """Independent re-execution of the sweep with its own metric loop."""

    def linf(a, b):
        return max(abs(x - y) for x, y in zip(a, b))

    candidates = list(range(len(coords)))
    canopies = []
    while candidates:
        seed = candidates[0]
        members = {i for i in candidates if linf(coords[seed], coords[i]) <= t1}
        canopies.append((seed, frozenset(members)))
        candidates = [i for i in candidates if linf(coords[seed], coords[i]) > t2]
    return canopies


def brute_mth_nn(coords, i, m):
    ds = sorted(
        math.sqrt(sum((a - b) ** 2 for a, b in zip(coords[i], coords[k])))
        for k in range(len(coords))
        if k != i
    )
    return ds[min(m, len(ds)) - 1]


def unit_grid(side):
    return Dataset.from_coords([(float(i), float(k)) for i in range(side) for k in range(side)])


def test_config_validation():
    with pytest.raises(ValueError):
        CanopyConfig(1.0, 2.0)
    with pytest.raises(ValueError):
        CanopyConfig(-1.0, -2.0)
    with pytest.raises(ValueError):
        CanopyConfig(float("inf"), 1.0)


def test_cheap_distance_is_linf():
    assert cheap_distance((0.0, 0.0), (3.0, -4.0)) == 4.0


def test_thresholds_unit_grid():
    cfg = estimate_thresholds(unit_grid(10), m=1)
    assert cfg.t2 == pytest.approx(1.0, abs=1e-12)
    assert cfg.t1 == pytest.approx(3.0, abs=1e-12)


def test_thresholds_two_points():
    data = Dataset.from_coords([(0.0, 0.0), (4.0, 0.0)])
    cfg = estimate_thresholds(data, m=1)
    assert cfg.t2 == pytest.approx(4.0)
    assert cfg.t1 == pytest.approx(12.0)


def test_thresholds_match_brute_force():
    rng = random.Random(8)
    coords = [(rng.gauss(0, 5), rng.gauss(0, 5)) for _ in range(200)]
    data = Dataset.from_coords(coords)
    for m in (1, 3):
        cfg = estimate_thresholds(data, m)
        expected = sum(brute_mth_nn(coords, i, m) for i in range(200)) / 200
        assert cfg.t2 == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 33, 2100])
def test_thresholds_bit_identical_to_sequential_knn_mean(n, dim):
    # The mean of knn_reference's m-th distances, summed in sample order:
    # equal to the last bit. Inputs are plain, heavily repeated, or one
    # point n times (the fallback).
    rng = random.Random(n * dim)
    m = 4
    plain = [tuple(rng.gauss(0, 3) for _ in range(dim)) for _ in range(n)]
    values = [rng.gauss(0, 1) for _ in range(3)]
    repeated = [tuple(rng.choice(values) for _ in range(dim)) for _ in range(n)]
    identical = [plain[0]] * n
    stride = math.ceil(n / 1000)
    for rows in (plain, repeated, identical):
        data = Dataset.from_coords(rows)
        total = 0.0
        for i in range(0, n, stride):
            total += knn_reference(data, data[i], m, include_self=False)[-1][1]
        t2 = total / len(range(0, n, stride))
        want = CanopyConfig(3.0 * t2, t2) if t2 else CanopyConfig(3e-9, 1e-9)
        assert estimate_thresholds(data, m) == want


def test_thresholds_identical_points_fallback():
    data = Dataset.from_coords([(1.0, 1.0)] * 10)
    cfg = estimate_thresholds(data, m=2)
    assert cfg.t2 == 1e-9
    assert cfg.t1 == 3e-9


def test_single_point_single_canopy():
    data = Dataset.from_coords([(5.0, 5.0)])
    out = canopy_cluster(data, CanopyConfig(1.0, 1.0))
    assert out == [Canopy(0, frozenset({0}))]


def test_huge_thresholds_one_canopy():
    rng = random.Random(1)
    data = Dataset.from_coords([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(50)])
    out = canopy_cluster(data, CanopyConfig(1e9, 1e9))
    assert len(out) == 1
    assert out[0].member_ids == frozenset(range(50))


def test_sweep_matches_reexecution_oracle():
    rng = random.Random(4)
    coords = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(20)]
    data = Dataset.from_coords(coords)
    got = canopy_cluster(data, CanopyConfig(3.0, 1.0))
    expected = sweep_oracle(coords, 3.0, 1.0)
    assert [(c.center_id, c.member_ids) for c in got] == expected


def test_coverage_and_seed_separation():
    rng = random.Random(9)
    coords = [(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(120)]
    data = Dataset.from_coords(coords)
    cfg = CanopyConfig(2.0, 0.8)
    out = canopy_cluster(data, cfg)
    covered = set()
    for c in out:
        covered |= c.member_ids
        assert c.center_id in c.member_ids
        for i in c.member_ids:
            assert cheap_distance(coords[c.center_id], coords[i]) <= cfg.t1
    assert covered == set(range(120))
    seeds = [c.center_id for c in out]
    for i, a in enumerate(seeds):
        for b in seeds[i + 1 :]:
            assert cheap_distance(coords[a], coords[b]) > cfg.t2


def test_overlap_is_possible():
    # middle point sits within t1 of both seeds but outside each t2
    data = Dataset.from_coords([(0.0, 0.0), (1.5, 0.0), (3.0, 0.0)])
    out = canopy_cluster(data, CanopyConfig(2.0, 1.0))
    membership = [c.member_ids for c in out]
    assert sum(1 in mem for mem in membership) == 2


def test_sweep_deterministic():
    rng = random.Random(10)
    data = Dataset.from_coords([(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(80)])
    cfg = CanopyConfig(1.5, 0.5)
    assert canopy_cluster(data, cfg) == canopy_cluster(data, cfg)


def test_sweep_indexed_path_matches_scan_path():
    from dapclust.sstree import SsTree

    rng = random.Random(15)
    for dim in (2, 3):
        coords = [tuple(rng.gauss(0, 4) for _ in range(dim)) for _ in range(300)]
        data = Dataset.from_coords(coords)
        cfg = CanopyConfig(2.5, 1.0)
        expected = sweep_oracle(coords, cfg.t1, cfg.t2)
        for tree in (None, SsTree.build(data)):
            got = canopy_cluster(data, cfg, tree=tree)
            assert [(c.center_id, c.member_ids) for c in got] == expected
