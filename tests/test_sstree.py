import random

import pytest
from test_grid import range_oracle

from dapclust.baselines import knn_reference
from dapclust.core import Dataset, Point, distance_coords
from dapclust.sstree import FANOUT, LEAF_CAP, SsTree


def random_dataset(rng, n, dim, span=100.0):
    return Dataset.from_coords(
        [tuple(rng.uniform(-span, span) for _ in range(dim)) for _ in range(n)]
    )


def test_build_empty():
    tree = SsTree.build(Dataset([], dim=2))
    assert tree.size == 0
    assert tree.knn((0.0, 0.0), 3) == []
    assert tree.range((0.0, 0.0), 1e9) == []


def test_build_single_point():
    tree = SsTree.build(Dataset.from_coords([(2.0, 3.0)]))
    assert tree.size == 1
    assert tree.root.is_leaf
    assert tree.root.radius == 0.0
    assert tree.range((2.0, 3.0), 0.0) == [0]


def test_range_infinite_radius_returns_everything():
    rng = random.Random(0)
    data = random_dataset(rng, 1000, 2)
    tree = SsTree.build(data)
    assert tree.range((0.0, 0.0), float("inf")) == list(range(1000))


def test_knn_excludes_self():
    data = Dataset.from_coords([(0.0, 0.0), (1.0, 0.0)])
    tree = SsTree.build(data)
    assert tree.knn(data[0], 1, include_self=False) == [(1, 1.0)]
    assert tree.knn(data[0], 1, include_self=True) == [(0, 0.0)]


def test_knn_m_larger_than_size():
    data = Dataset.from_coords([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    tree = SsTree.build(data)
    res = tree.knn(data[0], 10, include_self=False)
    assert [pid for pid, _ in res] == [1, 2]


def test_knn_rejects_zero_m():
    tree = SsTree.build(Dataset.from_coords([(0.0, 0.0)]))
    with pytest.raises(ValueError):
        tree.knn((0.0, 0.0), 0)


def test_range_rejects_negative_radius():
    tree = SsTree.build(Dataset.from_coords([(0.0, 0.0)]))
    with pytest.raises(ValueError):
        tree.range((0.0, 0.0), -1.0)


def test_range_zero_radius_duplicates():
    data = Dataset.from_coords([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)])
    tree = SsTree.build(data)
    assert tree.range(data[0], 0.0) == [0, 1]


def test_knn_matches_oracle():
    rng = random.Random(42)
    data = random_dataset(rng, 500, 3)
    tree = SsTree.build(data)
    for _ in range(50):
        if rng.random() < 0.5:
            q = data[rng.randrange(len(data))]
        else:
            q = Point(0, tuple(rng.uniform(-100, 100) for _ in range(3)))
        for m in (1, 3, 5):
            include = rng.random() < 0.5
            assert tree.knn(q, m, include_self=include) == knn_reference(
                data, q, m, include_self=include
            )


def test_range_matches_oracle():
    rng = random.Random(43)
    data = random_dataset(rng, 500, 2)
    tree = SsTree.build(data)
    for _ in range(50):
        center = tuple(rng.uniform(-100, 100) for _ in range(2))
        radius = rng.uniform(0, 80)
        assert tree.range(center, radius) == range_oracle(data, center, radius)


@pytest.mark.parametrize("dim", [8, 16])
def test_queries_match_oracles_at_high_dimension(dim):
    # From d = 8 on, numpy's sum(axis=-1) no longer matches the scalar loop,
    # and a third of the rows are repeats, so distances tie exactly. Radii
    # that equal a point's distance put the closed-ball boundary on a point.
    rng = random.Random(dim)
    rows = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(300)]
    rows += [rows[rng.randrange(300)] for _ in range(150)]
    data = Dataset.from_coords(rows)
    tree = SsTree.build(data)
    for _ in range(40):
        if rng.random() < 0.5:
            q = data[rng.randrange(len(data))]
            center = q.coords
        else:
            center = tuple(rng.gauss(0, 1) for _ in range(dim))
            q = Point(0, center)
        for m in (1, 3, 5):
            for include in (True, False):
                assert tree.knn(q, m, include_self=include) == knn_reference(
                    data, q, m, include_self=include
                )
        on_point = knn_reference(data, center, rng.randrange(1, 40))[-1][1]
        for radius in (on_point, rng.uniform(0, 4)):
            assert tree.range(center, radius) == range_oracle(data, center, radius)


def test_structural_invariants():
    rng = random.Random(7)
    data = random_dataset(rng, 700, 3)
    tree = SsTree.build(data)
    total = 0
    for node in tree.walk():
        if node.is_leaf:
            assert len(node.ids) == len(node.rows) <= LEAF_CAP
            total += len(node.ids)
            for pc in node.rows:
                assert distance_coords(node.center, pc) <= node.radius + 1e-9
        else:
            assert 2 <= len(node.children) <= FANOUT
            assert node.count == sum(c.count for c in node.children)
    assert total == tree.size == len(data)


def test_containment_covers_descendants():
    rng = random.Random(17)
    data = random_dataset(rng, 400, 2)
    tree = SsTree.build(data)

    def points_under(node):
        if node.is_leaf:
            return list(node.rows)
        return [pc for c in node.children for pc in points_under(c)]

    for node in tree.walk():
        for pc in points_under(node):
            assert distance_coords(node.center, pc) <= node.radius + 1e-9


def test_pruning_bound_is_sound():
    # any node the range query may skip really holds no qualifying point
    rng = random.Random(23)
    data = random_dataset(rng, 400, 2)
    tree = SsTree.build(data)

    def points_under(node):
        if node.is_leaf:
            return list(node.rows)
        return [pc for c in node.children for pc in points_under(c)]

    for _ in range(20):
        center = tuple(rng.uniform(-100, 100) for _ in range(2))
        radius = rng.uniform(0, 50)
        for node in tree.walk():
            if distance_coords(center, node.center) > radius + node.radius:
                for pc in points_under(node):
                    assert distance_coords(center, pc) > radius


def test_build_is_deterministic():
    rng = random.Random(3)
    data = random_dataset(rng, 300, 2)
    t1 = SsTree.build(data)
    t2 = SsTree.build(data)
    for _ in range(20):
        q = tuple(rng.uniform(-100, 100) for _ in range(2))
        assert t1.knn(q, 4) == t2.knn(q, 4)
        assert t1.range(q, 30.0) == t2.range(q, 30.0)


def test_query_dimension_mismatch():
    tree = SsTree.build(Dataset.from_coords([(0.0, 0.0)]))
    with pytest.raises(ValueError):
        tree.knn((0.0, 0.0, 0.0), 1)
    with pytest.raises(ValueError):
        tree.range((0.0,), 1.0)
