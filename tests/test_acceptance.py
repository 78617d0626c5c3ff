"""Acceptance suite: one test per release criterion, each at its stated
tolerance, each printing a pass line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import statistics
import time

import numpy as np
from test_grid import range_oracle

from dapclust import density
from dapclust.baselines import dbscan_reference, knn_reference
from dapclust.canopy import canopy_cluster, estimate_thresholds
from dapclust.cli import epsilon_grid_report, save_labels
from dapclust.core import NOISE, Dataset, distance_coords
from dapclust.datagen import make_blobs, make_bridge, make_density_pair
from dapclust.density import DensityConfig, density_cluster, estimate_epsilon
from dapclust.grid import Grid
from dapclust.metrics import adjusted_rand_index
from dapclust.naive import NaiveConfig, naive_cluster
from dapclust.pipeline import PipelineConfig, build_regions, cluster
from dapclust.sstree import SsTree


def report(num, name):
    print(f"[acceptance] criterion {num} ({name}): PASS")


def random_dataset(rng, n, dim, span=100.0):
    return Dataset.from_coords(
        [tuple(rng.uniform(-span, span) for _ in range(dim)) for _ in range(n)]
    )


def index_sweep(rng, dims, sets, max_n, max_radius):
    """Batched nearest and range queries on a grid of each random set, with
    cells as wide as its mean distance to the third nearest point, against
    linear scans. Half of the nearest queries count only the points of a
    random mask."""
    for _ in range(sets):
        dim = rng.choice(dims)
        n = rng.randrange(1, max_n + 1)
        data = random_dataset(rng, n, dim)
        grid = Grid(data.coords, estimate_thresholds(data, 3).t2)
        free = np.array([rng.random() < 0.5 for _ in range(n)])
        batches = {}
        for _ in range(50):
            if rng.random() < 0.5:
                center = data[rng.randrange(n)].coords
            else:
                center = tuple(rng.uniform(-100, 100) for _ in range(dim))
            m = rng.choice([1, 3, 5])
            masked = rng.random() < 0.5
            batches.setdefault((m, masked), []).append(center)
        for (m, masked), centers in batches.items():
            mask = free if masked else None
            ids, dist = grid.nearest(np.array(centers), m, mask)
            for center, row_ids, row_dist in zip(centers, ids, dist):
                want = [(p, d) for p, d in knn_reference(data, center, n) if mask is None or mask[p]]
                # ids, order, and exact distances
                assert list(zip(row_ids.tolist(), row_dist.tolist())) == want[:m]
        centers, radii = [], []
        for _ in range(50):
            centers.append(tuple(rng.uniform(-100, 100) for _ in range(dim)))
            radii.append(rng.uniform(0, max_radius(dim)))
        query, ids, _ = grid.within(np.array(centers), np.array(radii))
        for i, (center, radius) in enumerate(zip(centers, radii)):
            assert sorted(ids[query == i].tolist()) == range_oracle(data, center, radius)


def test_criterion_1_spatial_index_oracle_equivalence():
    index_sweep(random.Random(1001), [2, 3, 5], 200, 500, lambda dim: 150)
    # From d = 8 on, numpy's row sums no longer add in coordinate order.
    # Random points drift apart as sqrt(dim), and so do the radii here.
    index_sweep(random.Random(1008), [8, 16], 30, 300, lambda dim: 75 * math.sqrt(dim))
    report(1, "grid range and nearest queries match brute-force oracles exactly")


def density_sweep(rng, dims, sets):
    for _ in range(sets):
        dim = rng.choice(dims)
        n = rng.randrange(2, 201)
        data = random_dataset(rng, n, dim, span=10.0)
        m = rng.choice([2, 3, 4, 5])
        epsilon = estimate_epsilon(data.coords, m) * rng.uniform(0.5, 1.5)
        got = density_cluster(data, range(len(data)), DensityConfig(m, epsilon))
        want = dbscan_reference(data, epsilon, m)
        assert got.labels == want.labels  # clusters and the noise set, exactly
        assert got.core_flags == want.core_flags


def test_criterion_2_density_step_oracle_equivalence():
    density_sweep(random.Random(2002), [2, 3], 100)
    density_sweep(random.Random(2008), [8, 16], 60)
    report(2, "density step matches quadratic reference exactly")


class LabelOracle:
    """Disjoint sets by relabelling: a union gives every member of the set
    with the higher label the lower one, so each set's label is its minimum."""

    def __init__(self, n):
        self.labels = list(range(n))

    def union(self, x, y):
        lx, ly = self.labels[x], self.labels[y]
        if lx == ly:
            return
        if ly < lx:
            lx, ly = ly, lx
        for i, l in enumerate(self.labels):
            if l == ly:
                self.labels[i] = lx

    def partition(self):
        groups = {}
        for i, l in enumerate(self.labels):
            groups.setdefault(l, []).append(i)
        return sorted(groups.values(), key=lambda g: g[0])


def test_criterion_3_union_find_oracle_and_cost(monkeypatch):
    rng = random.Random(3003)
    n = 400
    links = [(rng.randrange(n), rng.randrange(n)) for _ in range(10_000)]
    oracle = LabelOracle(n)
    for x, y in links:
        oracle.union(x, y)
    heads, tails = np.array(links).T
    # Both label each set by its minimum, so equal labels are equal partitions.
    assert density._lowest_linked(np.arange(n), heads, tails).tolist() == oracle.labels

    # The propagation's rounds, counted at the exit test each round makes,
    # which fails as soon as they pass the bound.
    count = {"rounds": 0, "bound": 0}
    array_equal = np.array_equal

    def exit_test(a, b):
        count["rounds"] += 1
        assert count["rounds"] <= count["bound"], count
        return array_equal(a, b)

    monkeypatch.setattr(np, "array_equal", exit_test)

    def count_rounds(size, heads, tails, bound):
        count.update(rounds=0, bound=bound)
        labels = density._lowest_linked(np.arange(size), heads, tails)
        assert (labels[heads] == labels[tails]).all() and (labels[labels] == labels).all()
        return labels, count["rounds"]

    gen = np.random.default_rng(3003)
    big = 1_000_000
    links = gen.integers(0, big, size=(1_200_000, 2))
    _, random_rounds = count_rounds(big, links[:, 0], links[:, 1], math.log2(big))
    size = 1 << 20
    chain = gen.permutation(size)  # a path through every node, in random id order
    labels, chain_rounds = count_rounds(size, chain[:-1], chain[1:], 1.5 * math.log2(size))
    assert not labels.any()
    report(
        3,
        f"label propagation matches oracle; {random_rounds} rounds on a random 1M-node graph, "
        f"{chain_rounds} on a 2^20-node chain",
    )


def test_criterion_4_determinism_under_parallelism(tmp_path):
    data, _ = make_blobs(10_000, 5, seed=42, spread=1.0, separation=40.0)
    blobs = []
    for workers in (1, 2, 8):
        for rep in range(5):
            res = cluster(data, PipelineConfig(m=3, worker_count=workers))
            path = tmp_path / f"labels_w{workers}_r{rep}.csv"
            save_labels(res.labels, path)
            blobs.append(path.read_bytes())
    assert all(b == blobs[0] for b in blobs)
    report(4, "byte-identical label files for worker counts 1/2/8, 5 runs each")


def test_criterion_5_single_link_effect():
    data, truth = make_bridge(n_per_blob=50, j=2, seed=0)
    naive = naive_cluster(data, NaiveConfig(3))
    assert naive.n_clusters == 1  # chain fuses the blobs at m = j+1

    piped = cluster(data, PipelineConfig(m=3))
    assert piped.n_clusters == 2
    chain_ids = [i for i, t in enumerate(truth) if t == NOISE]
    assert all(piped.labels[i] == NOISE for i in chain_ids)
    blob_ids = [i for i, t in enumerate(truth) if t != NOISE]
    ari = adjusted_rand_index(
        [truth[i] for i in blob_ids], [piped.labels[i] for i in blob_ids]
    )
    assert ari >= 0.99, ari
    report(5, f"bridge: naive m=3 fuses blobs, pipeline keeps them apart (ari={ari:.3f})")


def test_criterion_6_density_adaptation():
    family = []
    for scale in (1.0, 10.0):
        data, truth = make_density_pair(scale)
        family.append((f"scale{scale:g}", data, truth))
        res = cluster(data, PipelineConfig(m=4))
        ari = adjusted_rand_index(truth, res.labels)
        assert ari >= 0.9, (scale, ari)
    rows = epsilon_grid_report(family, m=4, grid_size=20)
    solved = [sum(1 for v in row["ari"].values() if v >= 0.9) for row in rows]
    assert max(solved) <= 1, rows
    assert any(s == 1 for s in solved)  # each window exists, they just never meet
    report(6, "one pipeline config serves both densities; no single radius does")


def test_criterion_7_scaling():
    def median_wall(n):
        data, _ = make_blobs(n, 5, seed=1, spread=1.0, separation=40.0)
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            cluster(data, PipelineConfig(m=4))
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    small = median_wall(10_000)
    large = median_wall(100_000)
    ratio = large / small
    assert ratio <= 15.0, ratio

    data, _ = make_blobs(50_000, 5, seed=2, spread=1.0, separation=40.0)
    t0 = time.perf_counter()
    cluster(data, PipelineConfig(m=4))
    t_dapc = time.perf_counter() - t0
    eps = estimate_epsilon(data.coords, 4)
    t0 = time.perf_counter()
    dbscan_reference(data, eps, 4)
    t_ref = time.perf_counter() - t0
    assert t_dapc < t_ref, (t_dapc, t_ref)
    report(
        7,
        f"10x points cost {ratio:.1f}x (<= 15); dapc {t_dapc:.1f}s vs reference {t_ref:.1f}s at n=50k",
    )


def test_criterion_8_structural_invariants():
    rng = random.Random(8008)

    def points_under(node):
        if node.is_leaf:
            return list(node.rows)
        return [pc for c in node.children for pc in points_under(c)]

    for _ in range(50):
        dim = rng.choice([2, 3, 5])
        data = random_dataset(rng, rng.randrange(1, 600), dim)
        tree = SsTree.build(data)
        for node in tree.walk():
            for pc in points_under(node):
                assert distance_coords(node.center, pc) <= node.radius + 1e-9

    datasets = [
        make_blobs(2_000, 4, seed=88)[0],
        make_density_pair(1.0)[0],
        make_bridge(50, j=2, seed=0)[0],
    ]
    for data in datasets:
        cfg = PipelineConfig(m=3)
        canopies = canopy_cluster(data, estimate_thresholds(data, cfg.m))
        regions = build_regions(data, canopies, cfg)
        counts = {i: 0 for i in range(len(data))}
        for r in regions:
            for pid in r.member_ids:
                counts[pid] += 1
                assert r.sphere.contains(data[pid].coords)
        assert all(c >= 1 for c in counts.values())  # coverage
        assert all(c <= cfg.cap for c in counts.values())  # per-point cap
    report(8, "tree containment, region coverage, and the region cap all hold")
