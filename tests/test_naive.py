import math
import random

import numpy as np
import pytest

import dapclust.naive as naive
from dapclust.core import Dataset, NOISE
from dapclust.datagen import make_blobs, make_bridge
from dapclust.grid import Grid
from dapclust.naive import NaiveConfig, naive_cluster


def brute_naive(coords, m):
    """Independent oracle: linear-scan kNN plus naive label merging."""
    n = len(coords)

    def dist(i, k):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(coords[i], coords[k])))

    labels = list(range(n))

    def union(x, y):
        lx, ly = labels[x], labels[y]
        if lx == ly:
            return
        if ly < lx:
            lx, ly = ly, lx
        for i in range(n):
            if labels[i] == ly:
                labels[i] = lx

    for i in range(n):
        scored = sorted((dist(i, k), k) for k in range(n) if k != i)
        for _, k in scored[:m]:
            union(i, k)
    return labels


def test_two_pairs_m1():
    data = Dataset.from_coords([(0.0, 0.0), (0.0, 1.0), (10.0, 10.0), (10.0, 11.0)])
    res = naive_cluster(data, NaiveConfig(1))
    assert res.labels == [0, 0, 2, 2]
    assert res.noise_count == 0


def test_single_point():
    res = naive_cluster(Dataset.from_coords([(1.0, 2.0)]), NaiveConfig(5))
    assert res.labels == [0]
    assert res.n_clusters == 1


def test_empty():
    res = naive_cluster(Dataset([], dim=0), NaiveConfig(1))
    assert res.labels == []


def test_m_at_least_n_merges_everything():
    rng = random.Random(2)
    data = Dataset.from_coords([(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(20)])
    res = naive_cluster(data, NaiveConfig(40))
    assert res.n_clusters == 1


def test_invalid_m():
    with pytest.raises(ValueError):
        NaiveConfig(0)


def test_bridge_chain_thresholds():
    # chain of j=2 bridge points between two 10-point blobs: m=2 keeps the
    # blobs apart (the chain is absorbed by the nearer one), m=3 fuses them
    data, truth = make_bridge(n_per_blob=10, j=2, seed=1)
    res2 = naive_cluster(data, NaiveConfig(2))
    for lb in set(res2.labels):
        blob_ids = {truth[i] for i in range(len(data)) if res2.labels[i] == lb and truth[i] != NOISE}
        assert len(blob_ids) <= 1
    res3 = naive_cluster(data, NaiveConfig(3))
    assert res3.n_clusters == 1


def test_min_cluster_size_two_when_m1():
    data, _ = make_blobs(60, 3, seed=14)
    res = naive_cluster(data, NaiveConfig(1))
    sizes = {}
    for lb in res.labels:
        sizes[lb] = sizes.get(lb, 0) + 1
    assert min(sizes.values()) >= 2


def test_fragmentation_decreases_with_m():
    data, _ = make_blobs(200, 3, seed=5)
    c1 = naive_cluster(data, NaiveConfig(1)).n_clusters
    c3 = naive_cluster(data, NaiveConfig(3)).n_clusters
    assert c1 >= c3


def test_monotone_in_m():
    rng = random.Random(31)
    data = Dataset.from_coords([(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(80)])
    counts = [naive_cluster(data, NaiveConfig(m)).n_clusters for m in (1, 2, 3, 5, 8)]
    assert counts == sorted(counts, reverse=True)


def test_matches_brute_force_oracle():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randrange(10, 301)
        coords = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        data = Dataset.from_coords(coords)
        m = rng.choice([1, 2, 4])
        assert naive_cluster(data, NaiveConfig(m)).labels == brute_naive(coords, m)
    # d = 8; three rows repeated, 120 to 160 times in all, in shuffled id
    # order, so that more than m copies with lower ids can push a row's own
    # id out of its nearest m + 1; and m >= n.
    pushed_out = 0
    for dim, n, copies, m in [
        (8, 250, 0, 3),
        (8, 120, 120, 2),
        (2, 80, 160, 1),
        (3, 60, 150, 4),
        (2, 12, 6, 20),
        (8, 5, 4, 9),
    ]:
        coords = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(n)]
        spots = coords[:3]
        coords += [rng.choice(spots) for _ in range(copies)]
        rng.shuffle(coords)
        seen = {}
        for row in coords:
            pushed_out += seen.get(row, 0) > m
            seen[row] = seen.get(row, 0) + 1
        data = Dataset.from_coords(coords)
        assert naive_cluster(data, NaiveConfig(m)).labels == brute_naive(coords, m)
    assert pushed_out > 100


def test_far_outlier_costs_few_box_rounds(monkeypatch):
    # One point 3e12 from 2,000 blob points. Its box takes in nothing while
    # it doubles, so it jumps to the next occupied cell row: the call makes
    # at most one grid pass more than without the outlier, and the same
    # labels as doubling alone, which needs one pass per doubling.
    blobs, _ = make_blobs(2000, 5, seed=1)
    data = Dataset.from_coords(np.vstack([blobs.coords, [(-3e12, 0.0)]]))
    calls = []
    candidates = Grid.candidates

    def counted(self, centers, reach):
        calls.append(len(centers))
        return candidates(self, centers, reach)

    monkeypatch.setattr(Grid, "candidates", counted)
    got = naive_cluster(data, NaiveConfig(3)).labels
    with_outlier = len(calls)
    calls.clear()
    assert got[:2000] == naive_cluster(blobs, NaiveConfig(3)).labels
    assert with_outlier <= min(10, len(calls) + 1)
    calls.clear()
    monkeypatch.setattr(Grid, "_next_line", lambda self, centers, reach, held: np.zeros(len(centers)))
    assert naive_cluster(data, NaiveConfig(3)).labels == got
    assert len(calls) > 40


@pytest.mark.parametrize("side", [1e-12, 1e12], ids=["tiny", "huge"])
def test_labels_do_not_depend_on_the_grid_side(monkeypatch, side):
    # The shared side sets only what the query costs: a tiny one makes every
    # box grow from one cell, a huge one puts every point in one box.
    blobs = make_blobs(2000, 5, seed=1)[0].coords
    inputs = [
        blobs,
        np.round(blobs * 2) / 2,
        np.vstack([[(-3e12, 0.0)], blobs]),
        make_blobs(600, 3, seed=8, dim=8)[0].coords,
    ]
    for coords in inputs:
        data = Dataset.from_coords(coords)
        shared = naive_cluster(data, NaiveConfig(3)).labels
        with monkeypatch.context() as patch:
            patch.setattr(naive, "pilot_grid", lambda coords, m, rows: (None, None, Grid(coords, side)))
            assert naive_cluster(data, NaiveConfig(3)).labels == shared
