import math
import random

import numpy as np
import pytest

import dapclust.density as density
from dapclust.baselines import dbscan_reference
from dapclust.core import NOISE, Dataset
from dapclust.density import DensityConfig, estimate_epsilon, density_cluster
from dapclust.sstree import SsTree


def random_dataset(rng, n, dim=2, span=10.0):
    return Dataset.from_coords(
        [tuple(rng.uniform(0, span) for _ in range(dim)) for _ in range(n)]
    )


def brute_mean_knn(coords, m):
    total = 0.0
    for i in range(len(coords)):
        ds = sorted(
            math.sqrt(sum((a - b) ** 2 for a, b in zip(coords[i], coords[k])))
            for k in range(len(coords))
            if k != i
        )
        total += ds[min(m, len(ds)) - 1]
    return total / len(coords)


def test_config_validation():
    with pytest.raises(ValueError):
        DensityConfig(0, 1.0)
    with pytest.raises(ValueError):
        DensityConfig(1, -0.5)
    with pytest.raises(ValueError):
        DensityConfig(1, 1.0, c=0.0)
    DensityConfig(1, 0.0)  # epsilon zero is allowed


def test_epsilon_two_points():
    data = Dataset.from_coords([(0.0, 0.0), (2.0, 0.0)])
    assert estimate_epsilon(data, 1) == pytest.approx(2.0)


def test_epsilon_unit_grid():
    data = Dataset.from_coords([(float(i), float(k)) for i in range(5) for k in range(5)])
    assert estimate_epsilon(data, 1) == pytest.approx(1.0)


def test_epsilon_single_point():
    assert estimate_epsilon(Dataset.from_coords([(3.0, 3.0)]), 4) == 0.0


def test_epsilon_scale_factor():
    data = Dataset.from_coords([(0.0, 0.0), (2.0, 0.0)])
    assert estimate_epsilon(data, 1, c=0.5) == pytest.approx(1.0)


def test_epsilon_matches_brute_force():
    rng = random.Random(21)
    coords = [(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(200)]
    data = Dataset.from_coords(coords)
    assert estimate_epsilon(data, 4) == pytest.approx(brute_mean_knn(coords, 4), abs=1e-9)


def test_epsilon_matrix_and_tree_paths_agree():
    rng = random.Random(22)
    coords = [(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(60)]
    import numpy as np

    import dapclust.density as density

    arr = np.array(coords)
    via_matrix = estimate_epsilon(arr, 3)
    old_cap = density._MATRIX_CAP
    density._MATRIX_CAP = 1
    try:
        via_tree = estimate_epsilon(arr, 3)
    finally:
        density._MATRIX_CAP = old_cap
    assert via_matrix == pytest.approx(via_tree, abs=1e-9)


def run_density(data, m, epsilon):
    tree = SsTree.build(data)
    return density_cluster(data, DensityConfig(m, epsilon), tree)


def test_identical_points_one_cluster():
    data = Dataset.from_coords([(1.0, 1.0)] * 5)
    lab = run_density(data, m=5, epsilon=0.0)
    assert set(lab.labels.values()) == {0}
    assert lab.core_flags == set(range(5))


def test_isolated_points_all_noise():
    data = Dataset.from_coords([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)])
    lab = run_density(data, m=4, epsilon=1e6)  # n < m: noise at any radius
    assert set(lab.labels.values()) == {NOISE}
    lab = run_density(data, m=2, epsilon=0.5)
    assert set(lab.labels.values()) == {NOISE}
    assert lab.core_flags == set()


def test_matches_reference_on_random_instances():
    rng = random.Random(33)
    for _ in range(30)[:30]:
        n = rng.randrange(20, 101)
        data = random_dataset(rng, n)
        m = rng.choice([2, 3, 5])
        epsilon = rng.uniform(0.3, 2.5)
        got = run_density(data, m, epsilon)
        want = dbscan_reference(data, epsilon, m)
        assert got.labels == want.labels
        assert got.core_flags == want.core_flags


def test_core_set_monotone_in_epsilon():
    rng = random.Random(44)
    data = random_dataset(rng, 120)
    cores = []
    for eps in (0.5, 1.0, 2.0):
        cores.append(run_density(data, 3, eps).core_flags)
    assert cores[0] <= cores[1] <= cores[2]


def test_density_connectivity_chains():
    # every pair sharing a cluster is joined by hops of length <= epsilon
    # where at least one endpoint of each hop is core
    rng = random.Random(55)
    data = random_dataset(rng, 80)
    epsilon, m = 1.2, 3
    lab = run_density(data, m, epsilon)
    coords = [p.coords for p in data]

    def hop_ok(a, b):
        d = math.sqrt(sum((x - y) ** 2 for x, y in zip(coords[a], coords[b])))
        return d <= epsilon and (a in lab.core_flags or b in lab.core_flags)

    clusters = {}
    for pid, lb in lab.labels.items():
        if lb != NOISE:
            clusters.setdefault(lb, []).append(pid)
    for members in clusters.values():
        start = members[0]
        reached = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in members:
                if v not in reached and hop_ok(u, v):
                    reached.add(v)
                    frontier.append(v)
        assert reached == set(members)


def test_noise_isolation():
    rng = random.Random(66)
    data = random_dataset(rng, 100)
    epsilon, m = 1.0, 3
    lab = run_density(data, m, epsilon)
    coords = [p.coords for p in data]
    for pid, lb in lab.labels.items():
        if lb != NOISE:
            continue
        within = [
            q
            for q in range(len(data))
            if math.sqrt(sum((a - b) ** 2 for a, b in zip(coords[pid], coords[q]))) <= epsilon
        ]
        assert len(within) < m
        assert not any(q in lab.core_flags for q in within)


def test_shared_border_point_merges_cores():
    # two 3-point clumps whose nearest members are core and both reach one
    # shared non-core middle point: the merge rule fuses the clumps into a
    # single cluster (unlike classic DBSCAN border handling)
    data = Dataset.from_coords(
        [
            (0.0, 0.0), (0.0, 0.3), (0.3, 0.0),
            (1.2, 0.0),
            (2.4, 0.0), (2.4, 0.3), (2.1, 0.0),
        ]
    )
    lab = run_density(data, m=4, epsilon=1.0)
    assert 3 not in lab.core_flags  # the shared middle point is not core
    assert 2 in lab.core_flags and 6 in lab.core_flags
    assert len({lb for lb in lab.labels.values() if lb != NOISE}) == 1
    # the quadratic reference implements the same rule
    ref = dbscan_reference(data, 1.0, 4)
    assert ref.labels == lab.labels


def test_epsilon_zero_only_duplicates():
    data = Dataset.from_coords([(0.0, 0.0), (0.0, 0.0), (5.0, 5.0)])
    lab = run_density(data, m=2, epsilon=0.0)
    assert lab.labels[0] == lab.labels[1] == 0
    assert lab.labels[2] == NOISE


def numpy_radius(X, k):
    """Point 0's k-th nearest distance (self excluded) as numpy's row sum
    computes it. From d = 8 on that sum can differ in the last bit from the
    scalar loop, so a neighbour sits on the radius in one and past it in the
    other."""
    return float(np.sort(np.sqrt(((X - X[0]) ** 2).sum(axis=1)))[k])


# Sets of 30 normal 8-D points whose numpy_radius(X, 3) split a row-summing
# reference from the density step.
D8_SPLIT_SEEDS = [16, 31, 39, 42, 147]


@pytest.mark.parametrize("cap", [None, 1], ids=["matrix", "tree"])
@pytest.mark.parametrize("dim", [2, 8, 16])
def test_both_paths_match_reference_at_high_dimension(dim, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(density, "_MATRIX_CAP", cap)
    for s in list(range(20)) + (D8_SPLIT_SEEDS if dim == 8 else []):
        rng = np.random.default_rng(s)
        X = rng.normal(size=(30, dim))
        if s % 2:  # heavy duplication: 40 rows drawn from 8 distinct points
            X = X[rng.integers(0, 8, size=40)]
        data = Dataset.from_coords(X.tolist())
        epsilon = numpy_radius(X, 3)
        got = density_cluster(data, DensityConfig(3, epsilon))
        want = dbscan_reference(data, epsilon, 3)
        assert got.labels == want.labels, s
        assert got.core_flags == want.core_flags, s
