import math
import random

import numpy as np
import pytest
from test_imports import imported_names

import dapclust.core as core
import dapclust.density as density
from dapclust.baselines import dbscan_reference
from dapclust.core import NOISE, Dataset
from dapclust.density import DensityConfig, estimate_epsilon, density_cluster


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
    for bad_epsilon in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be non-negative and finite"):
            DensityConfig(1, bad_epsilon)
    for bad_c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            DensityConfig(1, 1.0, c=bad_c)
        with pytest.raises(ValueError, match="c must be positive and finite"):
            estimate_epsilon(np.zeros((3, 2)), 1, c=bad_c)
    DensityConfig(1, 0.0)  # epsilon zero is allowed


def test_epsilon_two_points():
    data = Dataset.from_coords([(0.0, 0.0), (2.0, 0.0)])
    assert estimate_epsilon(data.coords, 1) == pytest.approx(2.0)


def test_epsilon_unit_grid():
    data = Dataset.from_coords([(float(i), float(k)) for i in range(5) for k in range(5)])
    assert estimate_epsilon(data.coords, 1) == pytest.approx(1.0)


def test_epsilon_single_point():
    assert estimate_epsilon(Dataset.from_coords([(3.0, 3.0)]).coords, 4) == 0.0


def test_epsilon_scale_factor():
    data = Dataset.from_coords([(0.0, 0.0), (2.0, 0.0)])
    assert estimate_epsilon(data.coords, 1, c=0.5) == pytest.approx(1.0)


def test_epsilon_matches_brute_force():
    rng = random.Random(21)
    coords = [(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(200)]
    data = Dataset.from_coords(coords)
    assert estimate_epsilon(data.coords, 4) == pytest.approx(brute_mean_knn(coords, 4), abs=1e-9)


def one_row_slabs(monkeypatch):
    """Cut every distance block of the estimator and the merge to one row."""
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(density, "_BLOCK_ENTRIES", 1)


def test_epsilon_matrix_and_tree_paths_agree(monkeypatch):
    # One 60-row block against 60 one-row blocks.
    rng = random.Random(22)
    coords = [(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(60)]
    arr = np.array(coords)
    via_matrix = estimate_epsilon(arr, 3)
    one_row_slabs(monkeypatch)
    via_rows = estimate_epsilon(arr, 3)
    assert via_matrix == pytest.approx(via_rows, abs=1e-9)


def run_density(data, m, epsilon):
    return density_cluster(data, range(len(data)), DensityConfig(m, epsilon))


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


@pytest.mark.parametrize("one_row", [False, True], ids=["matrix", "row_slabs"])
@pytest.mark.parametrize("dim", [2, 8, 16])
def test_both_paths_match_reference_at_high_dimension(dim, one_row, monkeypatch):
    if one_row:
        one_row_slabs(monkeypatch)
    for s in list(range(20)) + (D8_SPLIT_SEEDS if dim == 8 else []):
        rng = np.random.default_rng(s)
        X = rng.normal(size=(30, dim))
        if s % 2:  # heavy duplication: 40 rows drawn from 8 distinct points
            X = X[rng.integers(0, 8, size=40)]
        data = Dataset.from_coords(X.tolist())
        epsilon = numpy_radius(X, 3)
        got = density_cluster(data, range(len(data)), DensityConfig(3, epsilon))
        want = dbscan_reference(data, epsilon, 3)
        assert got.labels == want.labels, s
        assert got.core_flags == want.core_flags, s


@pytest.mark.parametrize(
    ("k", "dim", "copies"),
    [(1024, 2, 0), (1025, 2, 0), (1025, 8, 0), (1200, 2, 1100)],
    ids=["1024", "1025", "1025-d8", "1200-copies"],
)
def test_estimator_and_merge_at_the_real_cap(k, dim, copies):
    # k of k + 300 rows: partitions that the estimator and the merge cut
    # into row blocks and slabs. Over a third of the rows repeat one of ten
    # points; in the last case 1,100 of the k rows are copies of one point,
    # so most neighbourhoods lie at distance 0.
    rng = np.random.default_rng(k)
    X = rng.normal(size=(k + 300, dim))
    X[rng.choice(len(X), size=500, replace=False)] = X[rng.integers(0, 10, size=500)]
    ids = np.sort(rng.choice(len(X), size=k, replace=False)).tolist()
    X[rng.choice(ids, size=copies, replace=False)] = X[ids[0]]
    data = Dataset.from_coords(X)
    sub = X[ids]
    m = 4
    epsilon = estimate_epsilon(sub, m)
    # Brute force: each row's sorted distances, itself first.
    kth = [np.sort(np.sqrt(((sub - row) ** 2).sum(axis=-1)))[m] for row in sub]
    assert epsilon == pytest.approx(np.mean(kth), abs=1e-9)
    for eps in (epsilon, 0.0, 3 * epsilon):
        got = density_cluster(data, ids, DensityConfig(m, eps))
        # The reference numbers the rows of ``sub``; map them back to ids.
        want = dbscan_reference(Dataset.from_coords(sub), eps, m)
        assert got.labels == {
            ids[i]: NOISE if lb == NOISE else ids[lb] for i, lb in want.labels.items()
        }
        assert got.core_flags == {ids[i] for i in want.core_flags}


def test_merge_requires_ascending_ids():
    data = Dataset.from_coords([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    for ids in ([1, 0, 2], [0, 0, 1]):
        with pytest.raises(ValueError, match="strictly ascending"):
            density_cluster(data, ids, DensityConfig(1, 1.0))


def bfs_lowest(adj):
    """Lowest node of each node's component of the boolean matrix ``adj``,
    by breadth-first search from each node not yet reached, in ascending
    order."""
    out = [None] * len(adj)
    for s in range(len(adj)):
        if out[s] is not None:
            continue
        out[s] = s
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for v in np.flatnonzero(adj[u]).tolist():
                if out[v] is None:
                    out[v] = s
                    frontier.append(v)
    return out


def stack_graphs(graphs):
    """Symmetric adjacency matrices of unequal sizes, padded with isolated
    nodes into one (b, k, k) stack."""
    k = max(len(g) for g in graphs)
    adj = np.zeros((len(graphs), k, k), dtype=bool)
    for p, g in enumerate(graphs):
        adj[p, : len(g), : len(g)] = g | g.T
    return adj


def chain_graph(rng, k):
    """A path through the k nodes in random order."""
    order = rng.permutation(k)
    g = np.zeros((k, k), dtype=bool)
    g[order[:-1], order[1:]] = True
    return g


def lowest_in_stack(adj):
    """The label propagation on the edges of a (b, k, k) stack, numbering
    node i of matrix p as p * k + i: the lowest node of each node's
    component, per matrix."""
    b, k, _ = adj.shape
    p, i, j = np.nonzero(adj)
    lab = density._lowest_linked(np.arange(b * k), p * k + i, p * k + j)
    return lab.reshape(b, k) - np.arange(0, b * k, k)[:, None]


def test_stacked_components_match_bfs_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        graphs = []
        for _ in range(rng.integers(1, 7)):
            k = int(rng.integers(1, 60))
            # From almost no edges to one component.
            g = rng.random((k, k)) < rng.choice([0.0, 0.5 / k, 2.0 / k, 0.2])
            graphs.append(g if rng.random() < 0.8 else chain_graph(rng, k))
        adj = stack_graphs(graphs)
        got = lowest_in_stack(adj)
        assert got.shape == adj.shape[:2]
        for p, g in enumerate(graphs):
            assert got[p].tolist() == bfs_lowest(adj[p]), trial
            assert got[p, len(g) :].tolist() == list(range(len(g), adj.shape[1]))


def test_stacked_components_of_a_long_chain():
    # The 1,024-node chain in random id order, stacked with edgeless and
    # small partitions.
    rng = np.random.default_rng(1024)
    graphs = [
        np.zeros((5, 5), dtype=bool),
        chain_graph(rng, 1024),
        chain_graph(rng, 37),
        rng.random((300, 300)) < 0.004,
    ]
    adj = stack_graphs(graphs)
    got = lowest_in_stack(adj)
    assert got[1].tolist() == [0] * 1024
    for p in range(len(graphs)):
        assert got[p].tolist() == bfs_lowest(adj[p])


def test_stacked_merge_matches_one_partition_at_a_time(monkeypatch):
    # Partitions of unequal sizes and scan radii, padded into one stack,
    # against density_cluster on each alone. The stack is merged in one
    # block, in groups of two partitions, and in one-row slabs.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 3))
    X[rng.choice(400, 60, replace=False)] = X[rng.integers(0, 5, size=60)]
    data = Dataset.from_coords(X)
    parts = [np.sort(rng.choice(400, size=s, replace=False)) for s in (1, 9, 40, 64, 17)]
    k = max(len(p) for p in parts)
    ids = np.full((len(parts), k), -1)
    for p, part in enumerate(parts):
        ids[p, : len(part)] = part
    epsilon = np.array([estimate_epsilon(X[part], 3) for part in parts])
    wants = [
        density_cluster(data, part, DensityConfig(3, float(eps))) for part, eps in zip(parts, epsilon)
    ]
    for entries in (2**16, 2 * k * k, k):
        monkeypatch.setattr(density, "_BLOCK_ENTRIES", entries)
        labels, core = density.stacked_merge(data.coords, ids, epsilon, 3)
        for p, (part, want) in enumerate(zip(parts, wants)):
            assert dict(zip(part.tolist(), labels[p].tolist())) == want.labels, entries
            assert set(part[core[p, : len(part)]].tolist()) == want.core_flags
            assert labels[p, len(part) :].tolist() == [NOISE] * (k - len(part))
            assert not core[p, len(part) :].any()


def test_density_step_has_one_route():
    # The merge and the estimator run as array passes at every partition
    # size; a per-point SS+tree or union-find route must not come back.
    assert not imported_names(density.__file__) & {"sstree", "unionfind", "SsTree", "UnionFind"}
