import math
import random

import numpy as np
import pytest

from dapclust.core import (
    Dataset,
    Point,
    Sphere,
    distance,
    distance_coords,
    load_csv,
    save_csv,
    squared_distances,
)


def loop_distance(a, b):
    # independent re-implementation used as the oracle
    total = 0.0
    for i in range(len(a)):
        total += (a[i] - b[i]) ** 2
    return math.sqrt(total)


def test_distance_345_triangle():
    assert distance(Point(0, (0.0, 0.0)), Point(1, (3.0, 4.0))) == 5.0


def test_distance_identity():
    assert distance(Point(0, (1.0, 2.0)), Point(1, (1.0, 2.0))) == 0.0


def test_distance_symmetric():
    a, b = Point(0, (1.5, -2.0, 7.0)), Point(1, (0.0, 4.0, 1.0))
    assert distance(a, b) == distance(b, a)


def test_distance_matches_loop_oracle():
    rng = random.Random(12)
    for _ in range(50):
        d = rng.choice([2, 3, 5])
        a = Point(0, tuple(rng.uniform(-100, 100) for _ in range(d)))
        b = Point(1, tuple(rng.uniform(-100, 100) for _ in range(d)))
        assert distance(a, b) == pytest.approx(loop_distance(a.coords, b.coords), abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 16, 33])
def test_squared_distances_bit_identical_to_scalar_loop(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(25, dim))
    b = np.concatenate([rng.normal(size=(20, dim)) * 100, a[:5]])
    block = np.sqrt(squared_distances(a, b))
    assert block.shape == (25, 25)
    for i in range(len(a)):
        for j in range(len(b)):
            assert block[i, j] == distance_coords(tuple(a[i]), tuple(b[j]))


def test_distance_triangle_inequality():
    rng = random.Random(99)
    for _ in range(200):
        d = rng.choice([2, 3])
        a, b, c = (tuple(rng.uniform(-10, 10) for _ in range(d)) for _ in range(3))
        pa, pb, pc = Point(0, a), Point(1, b), Point(2, c)
        assert distance(pa, pc) <= distance(pa, pb) + distance(pb, pc) + 1e-12


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(Point(0, (0.0, 0.0)), Point(1, (0.0, 0.0, 0.0)))


def test_dataset_validates_ids():
    with pytest.raises(ValueError):
        Dataset([Point(1, (0.0,))])


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset([Point(0, (float("nan"),))])


def test_dataset_coords_matches_points():
    ds = Dataset.from_coords([(0.0, 1.0), (2.0, 3.0)])
    assert ds.coords.shape == (2, 2)
    assert ds[1].coords == (2.0, 3.0)
    assert [p.id for p in ds] == [0, 1]


def test_sphere_contains():
    s = Sphere((0.0, 0.0), 1.0)
    assert s.contains((1.0, 0.0))
    assert not s.contains((1.1, 0.0))


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,0\n1,1\n")
    ds = load_csv(path)
    assert len(ds) == 2
    assert ds.dim == 2
    assert ds[1].coords == (1.0, 1.0)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    ds = load_csv(path)
    assert len(ds) == 0
    assert ds.dim == 0


def test_load_csv_non_numeric_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,x\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)


def test_load_csv_rejects_inf(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(path)


def test_load_csv_header_skip(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        load_csv(path)
    ds = load_csv(path, skip_header=True)
    assert len(ds) == 1


def test_csv_roundtrip_exact(tmp_path):
    rng = random.Random(7)
    rows = [tuple(rng.uniform(-1e6, 1e6) for _ in range(3)) for _ in range(40)]
    ds = Dataset.from_coords(rows)
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    for p, q in zip(ds, back):
        assert p.coords == q.coords
