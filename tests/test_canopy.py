import inspect
import math
import random

import numpy as np
import pytest
from test_imports import imported_names

import dapclust.canopy as canopy
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
    rng = random.Random(15)
    for dim in (2, 3):
        coords = [tuple(rng.gauss(0, 4) for _ in range(dim)) for _ in range(300)]
        data = Dataset.from_coords(coords)
        cfg = CanopyConfig(2.5, 1.0)
        got = canopy_cluster(data, cfg)
        assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(coords, cfg.t1, cfg.t2)


def edge_inputs(dim):
    """(name, coords, cfg) cases for the sweep's grid: bounds met exactly, a
    large offset, a far outlier, heavy duplicates and a single spread axis."""
    rng = random.Random(dim)
    # Half-integer lattices: many pairs are exactly t1 = 3 or t2 = 1 apart
    # along an axis, and every difference is exact, also past 1e6.
    lattice = [tuple(rng.randrange(-12, 13) / 2 for _ in range(dim)) for _ in range(250)]
    unit = [tuple(float(i == a) for i in range(dim)) for a in range(dim)]
    axes = [(0.0,) * dim] + [tuple(s * t * v for v in u) for u in unit for t in (1.0, 3.0) for s in (1, -1)]
    for offset in (0.0, 1e6):
        rows = [tuple(v + offset for v in row) for row in axes + lattice]
        yield f"exact+{offset:g}", rows, CanopyConfig(3.0, 1.0)
    plain = [tuple(rng.gauss(0, 3) + 1e6 for _ in range(dim)) for _ in range(300)]
    yield "offset", plain, None
    # 1,100 points across many cells, so that some pairs straddle every cell
    # edge, and an outlier at an odd id, which the every-second-point
    # threshold sample skips, so t1 does not depend on where it is. At a
    # span of 1.05e12 * t1 the cells are still about t1 wide, and ``x - min``
    # rounds by about 2e-4 * t1; at 3e13 * t1 the cell side is set by the
    # span instead.
    cluster = [tuple(rng.uniform(0, 10) for _ in range(dim)) for _ in range(1100)]

    def with_outlier(x):
        return cluster[:7] + [(x,) * dim] + cluster[7:]

    t1 = estimate_thresholds(Dataset.from_coords(with_outlier(-1e6)), 4).t1
    for ratio in (-1.05e12, 1.05e12, -3e13):
        yield f"outlier{ratio:g}", with_outlier(ratio * t1), None
    distinct = [tuple(rng.uniform(0, 10) for _ in range(dim)) for _ in range(20)]
    copies = distinct * 15
    rng.shuffle(copies)
    yield "duplicates", copies, None
    yield "one-axis", [(rng.uniform(0, 20),) + (5.0,) * (dim - 1) for _ in range(300)], None


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sweep_matches_oracle_on_grid_edge_cases(dim):
    for name, coords, cfg in edge_inputs(dim):
        data = Dataset.from_coords(coords)
        cfg = cfg or estimate_thresholds(data, 4)
        if name.startswith("outlier"):
            span = data.coords.max(axis=0) - data.coords.min(axis=0)
            assert span.max() / cfg.t1 > 1e12
        got = canopy_cluster(data, cfg)
        assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(coords, cfg.t1, cfg.t2), name


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sweep_survives_cell_rounding(dim):
    # Pairs just within t1 of each other, set astride the edges of cells t1
    # wide, 1.05e12 * t1 above an outlier: ``x - min`` rounds by about
    # 1.5e-5, so cells exactly t1 wide put some pairs two cells apart. The
    # sweep's cells must not.
    rng = np.random.default_rng(dim)
    t1 = 0.1
    low = -1.05e12 * t1
    edges = low + (np.arange(1, 200) + 1.05e12) * t1
    near = edges + rng.uniform(-2e-5, 2e-5, len(edges))
    far = near + t1 * (1 - rng.uniform(0, 1e-6, len(edges)))
    x = np.concatenate([near, far, [low]])
    naive = np.floor((x - low) / t1)
    within = np.abs(far - near) <= t1
    assert np.any(within & (naive[len(near) : -1] - naive[: len(near)] >= 2))
    rows = [(v,) + (0.0,) * (dim - 1) for v in x.tolist()]
    got = canopy_cluster(Dataset.from_coords(rows), CanopyConfig(t1, t1 / 2))
    assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(rows, t1, t1 / 2)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sweep_bounds_are_inclusive(dim):
    # Seed 0 at the origin: the points t2 away leave the pool, the points t1
    # away join its canopy and seed their own, and the points just past t1
    # stay out of it.
    t1, t2 = 3.0, 1.0
    past = math.nextafter(t1, math.inf)
    rows = [(0.0,) * dim]
    for a in range(dim):
        for t in (t2, t1, past):
            rows.append(tuple(t if i == a else 0.0 for i in range(dim)))
    got = canopy_cluster(Dataset.from_coords(rows), CanopyConfig(t1, t2))
    assert got[0] == Canopy(0, frozenset(i for i in range(len(rows)) if i % 3 != 0) | {0})
    assert [c.center_id for c in got[:dim + 1]] == [0] + [3 * a + 2 for a in range(dim)]
    assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(rows, t1, t2)


def test_canopy_sweep_uses_no_tree():
    # The sweep takes its candidates from a grid; an SS+tree query per seed
    # must not come back.
    assert not imported_names(canopy.__file__) & {"sstree", "SsTree"}
    assert "tree" not in inspect.signature(canopy_cluster).parameters
