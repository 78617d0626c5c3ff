import math
import random

import numpy as np
import pytest

from dapclust.baselines import knn_reference
from dapclust.core import Dataset, squared_distances
from dapclust.grid import Grid


def range_oracle(data, center, radius):
    """Ids of the points of ``data`` within ``radius`` of ``center``, by a
    scalar sum of squares in coordinate order."""
    out = []
    for pid, row in enumerate(data.coords.tolist()):
        s = 0.0
        for x, y in zip(center, row):
            s += (x - y) ** 2
        if math.sqrt(s) <= radius:
            out.append(pid)
    return out


def within_by_query(grid, centers, radii):
    """Each query's ids, ascending; asserts that the squared distance of
    every hit has the bits of a sum of products d * d in coordinate order
    (elementwise, so each step rounds as the scalar loop's does)."""
    centers = np.array(centers, dtype=float)
    query, ids, sq = grid.within(centers, np.array(radii, dtype=float))
    want = np.zeros(len(query))
    for j in range(centers.shape[1]):
        d = centers[query, j] - grid.coords[ids, j]
        want = want + d * d
    assert sq.tobytes() == want.tobytes()
    return [sorted(ids[query == i].tolist()) for i in range(len(radii))]


@pytest.mark.parametrize("dim", [1, 2, 8, 16])
def test_grid_range_matches_oracle(dim):
    # A third of the rows repeat, and some radii equal a point's kernel
    # distance from the centre, so ties and the closed-ball boundary are hit.
    # The far outlier raises the cell side to the span * 2**-40 floor.
    rng = random.Random(100 + dim)
    rows = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(300)]
    rows += [rows[rng.randrange(300)] for _ in range(150)]
    centers, radii = [], []
    for _ in range(120):
        if rng.random() < 0.5:
            center = rows[rng.randrange(len(rows))]
        else:
            center = tuple(rng.gauss(0, 1) for _ in range(dim))
        dist = np.sqrt(squared_distances(np.array([center]), np.array(rows)))[0]
        on_point = float(dist[rng.randrange(len(rows))])
        for radius in (on_point, rng.uniform(0, 2 * math.sqrt(dim)), 0.0):
            centers.append(center)
            radii.append(radius)
    outlier = [(-3e12,) + (0.0,) * (dim - 1)]
    for coords, side in ((rows, 0.3), (rows, 5.0), (rows + outlier, 0.3)):
        data = Dataset.from_coords(coords)
        grid = Grid(data.coords, side)
        got = within_by_query(grid, centers, radii)
        assert got == [range_oracle(data, c, r) for c, r in zip(centers, radii)]
        assert sum(map(len, got)) > len(radii)  # the balls are not all empty or single points
    assert grid.sides[0] > side  # the floor


def test_grid_range_edge_cases():
    grid = Grid(Dataset.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]).coords, 0.5)
    query, ids, sq = grid.within(np.zeros((0, 2)), np.zeros(0))
    assert query.tolist() == [] and ids.tolist() == [] and sq.tolist() == []
    got = within_by_query(grid, [(0.0, 0.0), (5.0, 5.0), (0.0, 0.0)], [0.0, 1.0, math.inf])
    assert got == [[0, 2], [], [0, 1, 2]]
    same = Grid(np.zeros((4, 3)), 1.0)  # no spread: one cell
    assert within_by_query(same, [(0.0, 0.0, 0.0)], [0.0]) == [[0, 1, 2, 3]]
    # Pairs just within ``side`` of each other, astride the edges of cells
    # ``side`` wide, 1.05e12 sides above an outlier: ``x - min`` rounds by
    # about 1.5e-5, so boxes without a margin miss some partners.
    rng = np.random.default_rng(3)
    side = 0.1
    low = -1.05e12 * side
    near = low + (np.arange(1, 200) + 1.05e12) * side + rng.uniform(-2e-5, 2e-5, 199)
    far = near + side * (1 - rng.uniform(0, 1e-6, 199))
    rows = [(v, 0.0) for v in [*near.tolist(), *far.tolist(), low]]
    data = Dataset.from_coords(rows)
    centers = rows[:199]
    radii = np.abs(far - near).tolist()
    got = within_by_query(Grid(data.coords, side), centers, radii)
    assert got == [range_oracle(data, c, r) for c, r in zip(centers, radii)]


def nearest_matches_reference(grid, data, centers, k, mask):
    """Assert that ``grid.nearest`` gives ``knn_reference``'s ids, order and
    distance bits (as float hex) for every centre, over the points set in
    ``mask``; return how many rows hold a tie in distance."""
    ids, dist = grid.nearest(np.array(centers, dtype=float), k, mask)
    want_k = min(k, len(data) if mask is None else int(np.count_nonzero(mask)))
    assert ids.shape == dist.shape == (len(centers), want_k)
    ties = 0
    for center, row_ids, row_dist in zip(centers, ids.tolist(), dist.tolist()):
        want = [(p, d) for p, d in knn_reference(data, center, len(data)) if mask is None or mask[p]][:k]
        assert row_ids == [p for p, _ in want]
        assert [d.hex() for d in row_dist] == [d.hex() for _, d in want]
        ties += len(set(row_dist)) < len(row_dist)
    return ties


@pytest.mark.parametrize("dim", [2, 3])
def test_nearest_on_a_half_integer_lattice(dim):
    # Points and centres on a half-integer lattice, a third of the points
    # repeated: equal distances, from copies and from lattice symmetry, are
    # the rule, so the id tie-break decides most rows.
    rng = np.random.default_rng(dim)
    rows = rng.integers(-6, 7, size=(240, dim)) / 2
    rows = np.concatenate([rows, rows[rng.integers(0, 240, 120)]])
    data = Dataset.from_coords(rows)
    centers = (rng.integers(-7, 8, size=(40, dim)) / 2).tolist()
    free = rng.random(len(rows)) < 0.3
    ties = 0
    for side in (0.5, 1.5, 20.0):
        grid = Grid(data.coords, side)
        for mask in (None, free):
            for k in (1, 4, 30):
                ties += nearest_matches_reference(grid, data, centers, k, mask)
    assert ties > 100


def test_nearest_when_the_mask_leaves_no_candidate():
    # A mask that excludes every point gives empty rows. One that admits
    # only far points leaves the early boxes no candidate at all.
    rng = np.random.default_rng(8)
    rows = np.concatenate([rng.normal(size=(200, 2)), rng.normal(size=(5, 2)) + 50])
    data = Dataset.from_coords(rows)
    grid = Grid(data.coords, 0.1)
    centers = rng.normal(size=(20, 2)).tolist()
    ids, dist = grid.nearest(np.array(centers), 3, np.zeros(len(rows), dtype=bool))
    assert ids.shape == dist.shape == (20, 0)
    ids, dist = grid.nearest(np.zeros((0, 2)), 3)
    assert ids.shape == dist.shape == (0, 3)
    far = np.arange(len(rows)) >= 200
    for k in (1, 3, 5, 8):
        nearest_matches_reference(grid, data, centers, k, far)
