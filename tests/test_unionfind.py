"""Disjoint-set checks of ``density._lowest_linked``, the label propagation
that links points into sets for every clusterer: the lowest node of each
node's set, for the nodes 0..n-1 and the given links."""

import random

import numpy as np
import pytest
from test_acceptance import LabelOracle

from dapclust.density import _lowest_linked


def linked(n, links=()):
    links = np.array(links, dtype=np.intp).reshape(-1, 2)
    return _lowest_linked(np.arange(n), links[:, 0], links[:, 1]).tolist()


def components(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def test_new_singletons():
    assert linked(5) == list(range(5))


def test_new_empty():
    assert linked(0) == []


def test_find_out_of_range():
    with pytest.raises(IndexError):
        linked(3, [(0, 3)])
    with pytest.raises(IndexError):
        linked(3, [(3, 0)])


def test_union_joins():
    labels = linked(4, [(0, 1)])
    assert labels[0] == labels[1]
    assert len(set(labels)) == 3


def test_union_self_noop():
    assert linked(4, [(2, 2)]) == [0, 1, 2, 3]


def test_union_chain():
    assert linked(4, [(0, 1), (1, 2), (2, 3)]) == [0, 0, 0, 0]


def test_components_fresh():
    assert components(linked(3)) == [[0], [1], [2]]


def test_components_after_union():
    assert components(linked(3, [(0, 2)])) == [[0, 2], [1]]


def test_random_sequence_matches_label_oracle():
    rng = random.Random(5)
    n = 300
    links = [(rng.randrange(n), rng.randrange(n)) for _ in range(10_000)]
    oracle = LabelOracle(n)
    for x, y in links:
        oracle.union(x, y)
    labels = linked(n, links)
    assert components(labels) == oracle.partition()
    # partition validity: disjoint cover of 0..n-1
    seen = [i for group in components(labels) for i in group]
    assert sorted(seen) == list(range(n))


def test_labels_are_set_minimums():
    assert linked(6, [(5, 3), (3, 4)]) == [0, 1, 2, 3, 3, 3]
