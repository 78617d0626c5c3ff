import importlib.util
import inspect
import math
import random
from pathlib import Path

import numpy as np
import pytest
from test_imports import imported_names

import dapclust.canopy as canopy
import dapclust.core as core
import dapclust.grid as grid
from dapclust.baselines import knn_reference
from dapclust.canopy import Canopies, Canopy, CanopyConfig, canopy_cluster, estimate_thresholds
from dapclust.core import _BLOCK_ENTRIES, Dataset, Partitions, kth_distances
from dapclust.datagen import make_blobs
from dapclust.density import estimate_epsilon
from dapclust.grid import Grid
from dapclust.pipeline import PipelineConfig, build_regions

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
)
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)  # the benchmark's generators, read only


def linf(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def sweep_oracle(coords, t1, t2):
    """Independent re-execution of the sweep with its own metric loop."""
    candidates = list(range(len(coords)))
    canopies = []
    while candidates:
        seed = candidates[0]
        members = {i for i in candidates if linf(coords[seed], coords[i]) <= t1}
        canopies.append((seed, frozenset(members)))
        candidates = [i for i in candidates if linf(coords[seed], coords[i]) > t2]
    return canopies


def brute_mth_nn(coords, i, m):
    ds = sorted(
        math.sqrt(sum((a - b) ** 2 for a, b in zip(coords[i], coords[k])))
        for k in range(len(coords))
        if k != i
    )
    return ds[min(m, len(ds)) - 1]


def unit_grid(side):
    return Dataset.from_coords([(float(i), float(k)) for i in range(side) for k in range(side)])


def test_config_validation():
    with pytest.raises(ValueError):
        CanopyConfig(1.0, 2.0)
    with pytest.raises(ValueError):
        CanopyConfig(-1.0, -2.0)
    with pytest.raises(ValueError):
        CanopyConfig(float("inf"), 1.0)


def test_thresholds_unit_grid():
    cfg = estimate_thresholds(unit_grid(10), m=1)
    assert cfg.t2 == pytest.approx(1.0, abs=1e-12)
    assert cfg.t1 == pytest.approx(3.0, abs=1e-12)


def test_thresholds_two_points():
    data = Dataset.from_coords([(0.0, 0.0), (4.0, 0.0)])
    cfg = estimate_thresholds(data, m=1)
    assert cfg.t2 == pytest.approx(4.0)
    assert cfg.t1 == pytest.approx(12.0)


def test_thresholds_match_brute_force():
    rng = random.Random(8)
    coords = [(rng.gauss(0, 5), rng.gauss(0, 5)) for _ in range(200)]
    data = Dataset.from_coords(coords)
    for m in (1, 3):
        cfg = estimate_thresholds(data, m)
        expected = sum(brute_mth_nn(coords, i, m) for i in range(200)) / 200
        assert cfg.t2 == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 33, 2100])
def test_thresholds_bit_identical_to_sequential_knn_mean(n, dim):
    # The mean of knn_reference's m-th distances, summed in sample order:
    # equal to the last bit. Inputs are plain, heavily repeated, or one
    # point n times (the fallback).
    rng = random.Random(n * dim)
    m = 4
    plain = [tuple(rng.gauss(0, 3) for _ in range(dim)) for _ in range(n)]
    values = [rng.gauss(0, 1) for _ in range(3)]
    repeated = [tuple(rng.choice(values) for _ in range(dim)) for _ in range(n)]
    identical = [plain[0]] * n
    stride = math.ceil(n / 1000)
    for rows in (plain, repeated, identical):
        data = Dataset.from_coords(rows)
        total = 0.0
        for i in range(0, n, stride):
            total += knn_reference(data, data[i], m, include_self=False)[-1][1]
        t2 = total / len(range(0, n, stride))
        want = CanopyConfig(3.0 * t2, t2) if t2 else CanopyConfig(3e-9, 1e-9)
        assert estimate_thresholds(data, m) == want


def threshold_sample_inputs():
    """(name, coords, m, route) cases for the thresholds' sample: the route
    ``sample_kth_distances`` takes, "grid" or "cells"."""
    blobs = make_blobs(2000, 5, seed=1)[0].coords
    far = np.array([(-3e12, 0.0)])
    yield "blobs-10k", make_blobs(10_000, 5, seed=1)[0].coords, 4, "grid"
    hotspots = bench_inputs.mixed_hotspots(np.random.SeedSequence(7), 4_000, 250)[0]
    yield "mixed-hotspots", hotspots, 4, "grid"
    yield "outlier-first", np.vstack([far, blobs]), 4, "grid"
    yield "outlier-last", np.vstack([blobs, far]), 4, "grid"
    yield "identical", np.zeros((20_000, 2)), 4, "cells"
    yield "rounded", np.round(make_blobs(6000, 5, seed=1)[0].coords * 2) / 2, 4, "grid"
    yield "8-D", make_blobs(3000, 5, seed=1, dim=8)[0].coords, 4, "cells"
    yield "n=2", blobs[:2], 4, "cells"
    yield "n=1001", blobs[:1001], 3, "grid"
    yield "m>=n", blobs[:40], 50, "cells"


def grid_calls(monkeypatch) -> list[int]:
    """The row counts of the ``Grid.nearest_others`` calls from here on."""
    calls = []
    nearest_others = Grid.nearest_others

    def spy(self, rows, k):
        calls.append(len(rows))
        return nearest_others(self, rows, k)

    monkeypatch.setattr(Grid, "nearest_others", spy)
    return calls


@pytest.mark.parametrize(
    "name, coords, m, route", [pytest.param(*case, id=case[0]) for case in threshold_sample_inputs()]
)
def test_sample_kth_distances_routes_agree(monkeypatch, name, coords, m, route):
    # Both routes give the bits of the row blocks over the whole sample:
    # the grid's own-id drop, copies pushing the own id out of a row, a far
    # outlier in or out of the sample, and inputs that take the cell blocks.
    calls = grid_calls(monkeypatch)
    got = canopy.sample_kth_distances(coords, m)
    sample = np.arange(0, len(coords), math.ceil(len(coords) / 1000))
    want = kth_distances(coords[None], m, sample)[0]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], name
    assert ("grid" if calls else "cells") == route, name


def epsilon_inputs():
    """(name, coords, m) cases for ``estimate_epsilon`` over every row."""
    blobs = make_blobs(2000, 5, seed=1)[0].coords
    yield "blobs", blobs, 4
    yield "rounded", np.round(make_blobs(6000, 5, seed=1)[0].coords * 2) / 2, 4
    yield "outlier-first", np.vstack([[(-3e12, 0.0)], blobs]), 4
    for n in (0, 1, 2):
        yield f"n={n}", blobs[:n], 4
    yield "m>=n", blobs[:40], 50
    yield "8-D", make_blobs(3000, 5, seed=1, dim=8)[0].coords, 4


@pytest.mark.parametrize("share", [0.0, math.inf], ids=["rows", "grid"])
@pytest.mark.parametrize("name, coords, m", [pytest.param(*case, id=case[0]) for case in epsilon_inputs()])
def test_estimate_epsilon_routes_agree(monkeypatch, name, coords, m, share):
    # A share of 0 sends every row past the pilot to the cell blocks, and
    # one of inf to the grid's queries, at d = 8 too; the mean has the bits
    # of the row blocks over every row either way.
    calls = grid_calls(monkeypatch)
    monkeypatch.setattr(canopy, "_GRID_SHARE", share)
    got = estimate_epsilon(coords, m)
    want = float(kth_distances(coords[None], m)[0].mean()) if len(coords) else 0.0
    assert got.hex() == want.hex(), name
    assert bool(calls) == (share > 0 and len(coords) > canopy._PILOT), name


def kth_copies_inputs():
    """(name, coords, rows) cases of ``kth_nearest`` on rows that repeat:
    the thresholds' sample of inputs with copies, and a ``rows`` that lists
    one id twice."""
    hotspots = bench_inputs.mixed_hotspots(np.random.SeedSequence(1).spawn(2)[0], 4_000, 250)[0]
    rounded = np.round(make_blobs(6000, 5, seed=1)[0].coords * 2) / 2
    base = make_blobs(1200, 3, seed=8, dim=8)[0].coords
    rng = np.random.default_rng(8)
    copies8 = np.concatenate([
        base,
        base[11] + rng.normal(size=(300, 8)) * 0.02,
        base[7] + 50.0 + rng.normal(size=(1030, 8)) * 0.01,
        np.repeat(base[5:6], 1100, axis=0),
    ])
    for name, coords in (
        ("mixed-hotspots-1", hotspots),
        ("identical", np.zeros((20_000, 2))),
        ("rounded", rounded),
        ("copies-d8", copies8),
    ):
        yield name, coords, np.arange(0, len(coords), math.ceil(len(coords) / 1000))
    yield "id-twice", make_blobs(2000, 5, seed=1)[0].coords, np.append(np.arange(0, 2000, 7), 700)


def measured_rows(monkeypatch) -> list[int]:
    """The row ids that ``kth_nearest`` measures from here on: its pilot's,
    and those it passes to ``Grid.nearest_others`` or ``Grid.kth_others``."""
    rows = []
    pilot, nearest_others, kth_others = canopy.kth_distances, Grid.nearest_others, Grid.kth_others

    def pilot_spy(pts, m, at=None):
        rows.extend(np.asarray(at).tolist())
        return pilot(pts, m, at)

    def nearest_spy(self, at, m):
        rows.extend(at.tolist())
        return nearest_others(self, at, m)

    def kth_spy(self, at, m, reach):
        rows.extend(at.tolist())
        return kth_others(self, at, m, reach)

    monkeypatch.setattr(canopy, "kth_distances", pilot_spy)
    monkeypatch.setattr(Grid, "nearest_others", nearest_spy)
    monkeypatch.setattr(Grid, "kth_others", kth_spy)
    return rows


@pytest.mark.parametrize("name, coords, rows", [pytest.param(*case, id=case[0]) for case in kth_copies_inputs()])
def test_kth_nearest_measures_each_location_once(monkeypatch, name, coords, rows):
    # Rows with bit-equal coordinates share their m-th distance: only the
    # first row of each location in ``rows`` is measured, once, and every
    # row still gets the bits of the row blocks.
    measured = measured_rows(monkeypatch)
    got = canopy.kth_nearest(coords, 4, rows)
    want = kth_distances(coords[None], 4, rows)[0]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], name
    # Locations by their bytes, so 0.0 and -0.0 are two.
    firsts = {}
    for i, row in zip(rows.tolist(), coords[rows]):
        firsts.setdefault(row.tobytes(), i)
    assert len(firsts) < len(rows), name
    assert sorted(measured) == sorted(firsts.values()), name


def cell_rounds(monkeypatch) -> list[tuple[int, float]]:
    """The rounds of ``Grid.kth_others`` from here on: each one's row count,
    largest reach, and count of rows whose cell's box holds every point."""
    rounds = []
    cell_blocks = Grid._cell_blocks

    def spy(self, rows, m, reach, *args):
        out = cell_blocks(self, rows, m, reach, *args)
        rounds.append((len(rows), float(np.max(reach)), int(np.count_nonzero(out[1]))))
        return out

    monkeypatch.setattr(Grid, "_cell_blocks", spy)
    return rounds


def cell_route_inputs():
    """(name, coords, m) cases for the cell blocks of ``kth_nearest``."""
    blobs = make_blobs(2000, 5, seed=1)[0].coords
    blobs8 = make_blobs(2000, 5, seed=1, dim=8)[0].coords
    yield "blobs-d8", bench_inputs.blobs(np.random.SeedSequence(1).spawn(2)[0], 1_800, 5, 8)[0], 4
    yield "uniform-d8", np.random.default_rng(1).uniform(size=(1500, 8)), 4
    yield "identical", np.zeros((20_000, 2)), 4
    # The halo starts at id 1500, in the pilot, so the first reach is a
    # halo point's; the halo rows whose m-th distance lies past it take a
    # second round.
    halo = np.random.default_rng(1).uniform(-30, 30, size=(49, 5))
    yield "halo-d5", np.vstack([make_blobs(1500, 4, seed=1, dim=5)[0].coords, halo]), 4
    yield "outlier-in-pilot-d8", np.vstack([np.full((1, 8), -3e12), blobs8]), 4
    rng = np.random.default_rng(8)
    yield "copies-d8", np.concatenate([
        blobs8[:1200],
        blobs8[11] + rng.normal(size=(300, 8)) * 0.02,
        np.repeat(blobs8[5:6], 1100, axis=0),
    ]), 4
    yield "n=2", blobs[:2], 4
    yield "m>=n", blobs[:40], 50


@pytest.mark.parametrize("name, coords, m", [pytest.param(*case, id=case[0]) for case in cell_route_inputs()])
def test_kth_nearest_cell_route_matches_row_blocks(monkeypatch, name, coords, m):
    # With a share of 0 every row past the pilot takes the cell blocks; each
    # distance has the bits of the row blocks. So do the cell blocks of
    # every row from a first reach of 0, where most rows take a second round.
    monkeypatch.setattr(canopy, "_GRID_SHARE", 0.0)
    rounds = cell_rounds(monkeypatch)
    got = canopy.sample_kth_distances(coords, m)
    sample = np.arange(0, len(coords), math.ceil(len(coords) / 1000))
    want = kth_distances(coords[None], m, sample)[0]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], name
    # Only the first row of each location is measured.
    distinct = len({row.tobytes() for row in coords[sample]})
    assert bool(rounds) == (distinct > canopy._PILOT), name
    if name == "halo-d5":
        assert len(rounds) == 2 and rounds[1][0] < rounds[0][0] and rounds[1][1] < math.inf, rounds
    if name == "identical":
        # One location, which the pilot measures. The cell blocks of every
        # sample row, whose one box holds every point, still give the bits
        # of the row blocks.
        rounds.clear()
        side = canopy.pilot_grid(coords, m, sample)[2].side
        got = Grid(coords, side).kth_others(sample, m, 0.0)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], name
        assert rounds == [(len(sample), 0.0, len(sample))], rounds
    if len(coords) <= 2000:
        side = canopy.pilot_grid(coords, m, sample)[2].side
        got = Grid(coords, side).kth_others(np.arange(len(coords)), m, 0.0)
        want = kth_distances(coords[None], m)[0]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], name


def measured_entries(monkeypatch) -> list[int]:
    """The distance entries measured from here on, one count per call: the
    blocks of ``kth_distances`` (whichever module calls it) and of the
    grid's cell blocks, whether ``squared_distances`` measures them or the
    filter approximates them from ``_gram_factors``, and the grid's
    candidate pairs."""
    entries = []
    blocks, gram, paired = core.squared_distances, core._gram_factors, grid.paired_squared_distances

    def blocks_spy(a, b):
        out = blocks(a, b)
        entries.append(out.size)
        return out

    def gram_spy(a, b):
        entries.append(a.shape[0] * a.shape[1] * b.shape[1])
        return gram(a, b)

    def paired_spy(a, ia, b, ib):
        entries.append(len(ia))
        return paired(a, ia, b, ib)

    monkeypatch.setattr(core, "squared_distances", blocks_spy)
    monkeypatch.setattr(core, "_gram_factors", gram_spy)
    monkeypatch.setattr(grid, "paired_squared_distances", paired_spy)
    return entries


def test_thresholds_measure_far_fewer_entries_than_sample_times_n(monkeypatch):
    # On 100k 2-D points the grid route measures far fewer distance entries
    # than the 10^8 of the sample against every point: the pilot's 32 * n,
    # and the candidates of the grid's boxes.
    data = make_blobs(100_000, 5, seed=1)[0]
    entries = measured_entries(monkeypatch)
    estimate_thresholds(data, 4)
    assert sum(entries) <= 6_500_000  # twice the 3,221,005 measured, 3.2M of them the pilot's


def test_thresholds_at_d8_measure_far_fewer_entries_than_sample_times_n(monkeypatch):
    # At d = 8 the grid's boxes hold too much for its queries, and the cell
    # blocks measure each cell's rows against the points of its box: the
    # pilot's 32 * n, and far fewer than the 9.68M of the rest of the
    # sample against every point.
    data = make_blobs(10_000, 5, seed=1, dim=8)[0]
    entries = measured_entries(monkeypatch)
    estimate_thresholds(data, 4)
    assert sum(entries) <= 3_000_000  # 2,249,193 measured, 320,000 of them the pilot's


def test_epsilon_measures_far_fewer_entries_than_n_squared(monkeypatch):
    # Criterion 7's 50k input: every row through the grid measures the
    # pilot's 32 * n entries and the boxes' candidates, not the 2.5e9 of
    # every row against every row.
    coords = make_blobs(50_000, 5, seed=2, spread=1.0, separation=40.0)[0].coords
    entries = measured_entries(monkeypatch)
    estimate_epsilon(coords, 4)
    assert sum(entries) <= 5_000_000  # 2,639,485 measured, 1.6M of them the pilot's


def test_thresholds_identical_points_fallback():
    # Fewer than two points, or all identical: one fallback, to the bit.
    for n in (0, 1, 10):
        cfg = estimate_thresholds(Dataset.from_coords([(1.0, 1.0)] * n), m=2)
        assert cfg.t2.hex() == (1e-9).hex(), n
        assert cfg.t1.hex() == (3e-9).hex(), n


def test_single_point_single_canopy():
    data = Dataset.from_coords([(5.0, 5.0)])
    out = canopy_cluster(data, CanopyConfig(1.0, 1.0))
    assert out == [Canopy(0, frozenset({0}))]


def test_huge_thresholds_one_canopy():
    rng = random.Random(1)
    data = Dataset.from_coords([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(50)])
    out = canopy_cluster(data, CanopyConfig(1e9, 1e9))
    assert len(out) == 1
    assert out[0].member_ids == frozenset(range(50))


def test_sweep_matches_reexecution_oracle():
    rng = random.Random(4)
    coords = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(20)]
    data = Dataset.from_coords(coords)
    got = canopy_cluster(data, CanopyConfig(3.0, 1.0))
    expected = sweep_oracle(coords, 3.0, 1.0)
    assert [(c.center_id, c.member_ids) for c in got] == expected


def test_coverage_and_seed_separation():
    rng = random.Random(9)
    coords = [(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(120)]
    data = Dataset.from_coords(coords)
    cfg = CanopyConfig(2.0, 0.8)
    out = canopy_cluster(data, cfg)
    covered = set()
    for c in out:
        covered |= c.member_ids
        assert c.center_id in c.member_ids
        for i in c.member_ids:
            assert linf(coords[c.center_id], coords[i]) <= cfg.t1
    assert covered == set(range(120))
    seeds = [c.center_id for c in out]
    for i, a in enumerate(seeds):
        for b in seeds[i + 1 :]:
            assert linf(coords[a], coords[b]) > cfg.t2


def test_overlap_is_possible():
    # middle point sits within t1 of both seeds but outside each t2
    data = Dataset.from_coords([(0.0, 0.0), (1.5, 0.0), (3.0, 0.0)])
    out = canopy_cluster(data, CanopyConfig(2.0, 1.0))
    membership = [c.member_ids for c in out]
    assert sum(1 in mem for mem in membership) == 2


def test_sweep_deterministic():
    rng = random.Random(10)
    data = Dataset.from_coords([(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(80)])
    cfg = CanopyConfig(1.5, 0.5)
    assert canopy_cluster(data, cfg) == canopy_cluster(data, cfg)


def test_sweep_indexed_path_matches_scan_path():
    rng = random.Random(15)
    for dim in (2, 3):
        coords = [tuple(rng.gauss(0, 4) for _ in range(dim)) for _ in range(300)]
        data = Dataset.from_coords(coords)
        cfg = CanopyConfig(2.5, 1.0)
        got = canopy_cluster(data, cfg)
        assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(coords, cfg.t1, cfg.t2)


def edge_inputs(dim):
    """(name, coords, cfg) cases for the sweep's grid: bounds met exactly, a
    large offset, a far outlier, heavy duplicates and a single spread axis."""
    rng = random.Random(dim)
    # Half-integer lattices: many pairs are exactly t1 = 3 or t2 = 1 apart
    # along an axis, and every difference is exact, also past 1e6.
    lattice = [tuple(rng.randrange(-12, 13) / 2 for _ in range(dim)) for _ in range(250)]
    unit = [tuple(float(i == a) for i in range(dim)) for a in range(dim)]
    axes = [(0.0,) * dim] + [tuple(s * t * v for v in u) for u in unit for t in (1.0, 3.0) for s in (1, -1)]
    for offset in (0.0, 1e6):
        rows = [tuple(v + offset for v in row) for row in axes + lattice]
        yield f"exact+{offset:g}", rows, CanopyConfig(3.0, 1.0)
    plain = [tuple(rng.gauss(0, 3) + 1e6 for _ in range(dim)) for _ in range(300)]
    yield "offset", plain, None
    # 1,100 points across many cells, so that some pairs straddle every cell
    # edge, and an outlier at an odd id, which the every-second-point
    # threshold sample skips, so t1 does not depend on where it is. At a
    # span of 1.05e12 * t1 the cells are still about t1 wide, and ``x - min``
    # rounds by about 2e-4 * t1; at 3e13 * t1 the cell side is set by the
    # span instead.
    cluster = [tuple(rng.uniform(0, 10) for _ in range(dim)) for _ in range(1100)]

    def with_outlier(x):
        return cluster[:7] + [(x,) * dim] + cluster[7:]

    t1 = estimate_thresholds(Dataset.from_coords(with_outlier(-1e6)), 4).t1
    for ratio in (-1.05e12, 1.05e12, -3e13):
        yield f"outlier{ratio:g}", with_outlier(ratio * t1), None
    distinct = [tuple(rng.uniform(0, 10) for _ in range(dim)) for _ in range(20)]
    copies = distinct * 15
    rng.shuffle(copies)
    yield "duplicates", copies, None
    yield "one-axis", [(rng.uniform(0, 20),) + (5.0,) * (dim - 1) for _ in range(300)], None


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sweep_matches_oracle_on_grid_edge_cases(dim):
    for name, coords, cfg in edge_inputs(dim):
        data = Dataset.from_coords(coords)
        cfg = cfg or estimate_thresholds(data, 4)
        if name.startswith("outlier"):
            span = data.coords.max(axis=0) - data.coords.min(axis=0)
            assert span.max() / cfg.t1 > 1e12
        got = canopy_cluster(data, cfg)
        assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(coords, cfg.t1, cfg.t2), name


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sweep_survives_cell_rounding(dim):
    # Pairs just within t1 of each other, set astride the edges of cells t1
    # wide, 1.05e12 * t1 above an outlier: ``x - min`` rounds by about
    # 1.5e-5, so cells exactly t1 wide put some pairs two cells apart. The
    # sweep's cells must not.
    rng = np.random.default_rng(dim)
    t1 = 0.1
    low = -1.05e12 * t1
    edges = low + (np.arange(1, 200) + 1.05e12) * t1
    near = edges + rng.uniform(-2e-5, 2e-5, len(edges))
    far = near + t1 * (1 - rng.uniform(0, 1e-6, len(edges)))
    x = np.concatenate([near, far, [low]])
    naive = np.floor((x - low) / t1)
    within = np.abs(far - near) <= t1
    assert np.any(within & (naive[len(near) : -1] - naive[: len(near)] >= 2))
    rows = [(v,) + (0.0,) * (dim - 1) for v in x.tolist()]
    got = canopy_cluster(Dataset.from_coords(rows), CanopyConfig(t1, t1 / 2))
    assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(rows, t1, t1 / 2)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sweep_bounds_are_inclusive(dim):
    # Seed 0 at the origin: the points t2 away leave the pool, the points t1
    # away join its canopy and seed their own, and the points just past t1
    # stay out of it.
    t1, t2 = 3.0, 1.0
    past = math.nextafter(t1, math.inf)
    rows = [(0.0,) * dim]
    for a in range(dim):
        for t in (t2, t1, past):
            rows.append(tuple(t if i == a else 0.0 for i in range(dim)))
    got = canopy_cluster(Dataset.from_coords(rows), CanopyConfig(t1, t2))
    assert got[0] == Canopy(0, frozenset(i for i in range(len(rows)) if i % 3 != 0) | {0})
    assert [c.center_id for c in got[:dim + 1]] == [0] + [3 * a + 2 for a in range(dim)]
    assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(rows, t1, t2)


def test_canopy_sweep_uses_no_tree():
    # The sweep takes its candidates from a grid; an SS+tree query per seed
    # must not come back.
    assert not imported_names(canopy.__file__) & {"sstree", "SsTree"}
    assert "tree" not in inspect.signature(canopy_cluster).parameters


def boundary_inputs():
    """(name, coords, t1, t2) cases that cross the sweep's batch and chunk
    boundaries: ids along x, so that a batch holds long chains of seeds
    each within t2 of the next; 1-D and 8-D points; exact copies; and
    t1 = t2."""
    rng = random.Random(17)
    chain = sorted((rng.uniform(0, 60), rng.uniform(0, 3)) for _ in range(1500))
    yield "ids-along-x", chain, 1.5, 0.5
    yield "1-D", [(rng.uniform(0, 200),) for _ in range(700)], 3.0, 1.0
    yield "8-D", [tuple(rng.gauss(0, 2) for _ in range(8)) for _ in range(400)], 4.0, 2.5
    copies = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(60)] * 7
    rng.shuffle(copies)
    yield "copies", copies, 1.5, 0.5
    yield "t1=t2", [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(600)], 1.0, 1.0


@pytest.mark.parametrize("block", [None, 64])
def test_sweep_matches_oracle_across_batches_and_chunks(monkeypatch, block):
    # At 64 entries a batch holds 2-8 ids and a chunk one or two boxes, so
    # nearly every seed sits at some boundary.
    if block:
        monkeypatch.setattr(canopy, "_BLOCK_ENTRIES", block)
        monkeypatch.setattr(grid, "_BLOCK_ENTRIES", block)
    for name, coords, t1, t2 in boundary_inputs():
        got = canopy_cluster(Dataset.from_coords(coords), CanopyConfig(t1, t2))
        assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(coords, t1, t2), name


def test_sweep_matches_oracle_when_one_box_exceeds_a_chunk():
    # Every seed's t1 box holds all points, more than one chunk of pairs.
    rng = random.Random(18)
    coords = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(_BLOCK_ENTRIES + 500)]
    got = canopy_cluster(Dataset.from_coords(coords), CanopyConfig(1e9, 4.0))
    assert len(got) > 1
    assert [(c.center_id, c.member_ids) for c in got] == sweep_oracle(coords, 1e9, 4.0)


def test_canopies_sequence():
    rng = random.Random(19)
    data = Dataset.from_coords([(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(200)])
    out = canopy_cluster(data, CanopyConfig(2.0, 0.7))
    assert isinstance(out, Canopies)
    listed = [Canopy(seed, frozenset(ids)) for seed, ids in sweep_oracle(data.coords.tolist(), 2.0, 0.7)]
    assert len(out) == len(listed) > 1
    assert out == listed and listed == out
    assert list(out) == listed
    assert out[0] == listed[0] and out[-1] == listed[-1] and out[1:3] == listed[1:3]
    assert out != listed[:-1]
    assert out.seeds.tolist() == [c.center_id for c in listed]
    for i, c in enumerate(listed):
        assert out.members[out.ptr[i] : out.ptr[i + 1]].tolist() == sorted(c.member_ids)
    empty = canopy_cluster(Dataset.from_coords([]), CanopyConfig(1.0, 1.0))
    assert len(empty) == 0 and list(empty) == [] and empty == []
    assert empty.ptr.tolist() == [0]


def test_regions_from_canopies_or_their_list_are_identical():
    rng = random.Random(20)
    data = Dataset.from_coords([(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(500)])
    canopies = canopy_cluster(data, estimate_thresholds(data, 4))
    cfg = PipelineConfig(m=4)
    packed, listed = build_regions(data, canopies, cfg), build_regions(data, list(canopies), cfg)
    for name in ("ptr", "members", "centers", "radii", "epsilon", "copy_rank", "first_copy"):
        a, b = getattr(packed, name), getattr(listed, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_canopies_and_regions_share_one_partition_type():
    # Both keep only their own arrays and the objects they build; the
    # sequence methods, the owner array and the object cache are the base's.
    rng = random.Random(21)
    data = Dataset.from_coords([(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(300)])
    canopies = canopy_cluster(data, estimate_thresholds(data, 4))
    regions = build_regions(data, canopies, PipelineConfig(m=4))
    for parts in (canopies, regions):
        assert isinstance(parts, Partitions)
        assert not {"__len__", "__getitem__", "__iter__", "_objects", "owner"} & set(vars(type(parts)))
        sizes = np.diff(parts.ptr)
        assert len(parts) == len(sizes) == len(list(parts))
        assert parts.owner.tolist() == np.repeat(np.arange(len(parts)), sizes).tolist()
        assert [len(p.member_ids) for p in parts] == sizes.tolist()
        assert parts[-1] is parts[len(parts) - 1]  # built once, then kept
