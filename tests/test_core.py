import math
import random

import numpy as np
import pytest

from dapclust.core import (
    Dataset,
    Point,
    Sphere,
    copy_ranks,
    distance,
    distance_coords,
    load_csv,
    pair_order,
    paired_squared_distances,
    save_csv,
    squared_distances,
    squared_distances_to,
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
    block = squared_distances(a, b)
    assert block.shape == (25, 25)
    rows = b.tolist()
    for i in range(len(a)):
        assert squared_distances_to(a[i].tolist(), rows) == block[i].tolist()
        for j in range(len(b)):
            d = loop_distance(a[i], b[j])
            assert np.sqrt(block[i, j]) == d
            assert distance_coords(tuple(a[i]), tuple(b[j])) == d
    # A (batch, k, dim) stack gives one block per batch index by the same rule.
    sa = np.stack([a, a[::-1], rng.normal(size=(25, dim))])
    sb = np.stack([b, a, b[::-1] * 1e-3])
    stack = squared_distances(sa, sb)
    assert stack.shape == (3, 25, 25)
    for p in range(3):
        rows = sb[p].tolist()
        for i in range(25):
            assert squared_distances_to(sa[p, i].tolist(), rows) == stack[p, i].tolist()


def tied_pairs(rng, n_points, n_centers, n_pairs, scale=1.0):
    """(point, centre) pairs with no pair twice, and their squared distances
    by the package's rule. Points and centres lie on a half-integer lattice
    and points repeat, so equal distances are common: copies of a point tie,
    and so do lattice centres the same distance from one point. ``scale``
    1e200 makes every square overflow to inf."""
    points = rng.integers(-3, 4, size=(n_points, 2)) / 2 * scale
    points[n_points // 2 :] = points[rng.integers(0, max(n_points // 2, 1), n_points - n_points // 2)]
    centers = rng.integers(-3, 4, size=(n_centers, 2)) / 2 * scale
    flat = rng.choice(n_points * n_centers, size=min(n_pairs, n_points * n_centers), replace=False)
    pid, cid = flat // n_centers, flat % n_centers
    with np.errstate(over="ignore"):
        return pid, cid, paired_squared_distances(points, pid, centers, cid)


def test_pair_order_is_the_lexsort_permutation():
    # pair_order(group, value, id) against np.lexsort((id, value, group)),
    # as whole permutations, with the group as point or as centre.
    rng = np.random.default_rng(12)
    cases = [(0, 0, 0, 1.0), (1, 1, 1, 1.0), (1, 5, 5, 1.0), (6, 1, 6, 1.0), (30, 40, 400, 1e200)]
    cases += [(int(rng.integers(1, 60)), int(rng.integers(1, 40)), int(rng.integers(0, 900)), 1.0) for _ in range(40)]
    ties = zeros = infs = 0
    for n_points, n_centers, n_pairs, scale in cases:
        pid, cid, sq = tied_pairs(rng, n_points, n_centers, n_pairs, scale)
        for group, value, ids, bound in ((pid, sq, cid, n_centers), (cid, np.sqrt(sq), pid, n_points)):
            want = np.lexsort((ids, value, group))
            got = pair_order(group, value.copy(), ids, bound)
            assert got.dtype.kind == "i" and got.tolist() == want.tolist()
        order = np.lexsort((cid, sq, pid))
        same = (pid[order][1:] == pid[order][:-1]) & (sq[order][1:] == sq[order][:-1])
        ties += int(same.sum())
        zeros += int((sq == 0).sum())
        infs += int(np.isinf(sq).sum())
    assert ties > 100 and zeros > 10 and infs > 100  # the id breaks many ties


def test_copy_ranks_match_a_dict_walk():
    # Each row's rank among the rows of exactly its coordinates, in row
    # order, and the first of them, against a walk with a dict keyed by the
    # rows' bytes. Rows are drawn from few values, so most repeat; -0.0 and
    # 0.0 differ in their bits and count as different coordinates.
    rng = np.random.default_rng(3)
    for n, dim in ((0, 2), (1, 3), (7, 1), (300, 2), (500, 3), (200, 8)):
        rows = rng.choice([0.0, -0.0, 0.5, 1.0, rng.normal()], size=(n, dim))
        seen = {}
        want_rank, want_first = [], []
        for i, row in enumerate(rows):
            ids = seen.setdefault(row.tobytes(), [])
            want_rank.append(len(ids))
            want_first.append(ids[0] if ids else i)
            ids.append(i)
        rank, first = copy_ranks(rows)
        assert rank.tolist() == want_rank
        assert first.tolist() == want_first
    assert copy_ranks(np.array([[0.0], [-0.0], [0.0]]))[0].tolist() == [0, 0, 1]


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


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0.0, 1.0), (2.0, float("nan"))], "point 1 has non-finite coordinate nan"),
        ([(0.0, 1.0), (float("-inf"), 3.0)], "point 1 has non-finite coordinate -inf"),
        ([(0.0, 1.0), (2.0,)], "point 1 has dimension 1, expected 2"),
    ],
    ids=["nan", "inf", "ragged"],
)
def test_from_coords_rejects_bad_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        Dataset.from_coords(rows)


def test_from_coords_copies_an_array():
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    ds = Dataset.from_coords(src)
    assert src.flags.writeable
    assert not ds.coords.flags.writeable
    src[0, 0] = 9.0
    assert ds.coords[0, 0] == 0.0
    assert ds[0].coords == (0.0, 1.0)


def test_points_hold_plain_floats():
    ds = Dataset.from_coords(np.array([[0.5, 1.5], [2.5, 3.5]]))
    for p in (ds[1], ds[-1], *ds):
        assert type(p.coords) is tuple
        assert all(type(v) is float for v in p.coords)
    assert ds[-1] == ds[1] == Point(1, (2.5, 3.5))
    with pytest.raises(IndexError):
        ds[2]
    with pytest.raises(TypeError):
        ds[0:1]


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


def test_load_csv_names_the_line_and_text_of_an_overflow(tmp_path):
    path = tmp_path / "overflow.csv"
    path.write_text("0,0\n\n1, 1e999\n")
    with pytest.raises(ValueError, match=r"row 3: non-finite value '1e999'"):
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
