import math
import random

import numpy as np
import pytest

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
    query, ids = grid.within(np.array(centers, dtype=float), np.array(radii, dtype=float))
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
    query, ids = grid.within(np.zeros((0, 2)), np.zeros(0))
    assert query.tolist() == [] and ids.tolist() == []
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
