"""The distance filter of ``core`` (``_gram_factors`` and its two cuts) against the
direct rule: every result keeps the rule's bits whichever route measures it.

The route is forced by replacing ``core._filters``, which otherwise picks
the filter from ``_GRAM_DIM`` coordinates on, for large enough blocks.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dapclust
from dapclust import core, density
from dapclust.core import kth_distances, squared_distances, within_distance
from dapclust.datagen import make_blobs
from dapclust.grid import Grid

DIMS = (4, 5, 8, 16, 33)


def hexes(arr) -> list[str]:
    return [float(v).hex() for v in np.asarray(arr, dtype=float).ravel().tolist()]


def filter_inputs(dim):
    """(name, coords) cases: blobs far from the origin, coordinates whose
    centred squared norms overflow, exact copies, two lattices full of tied
    distances (the second's squares round), normal points, and n <= 2."""
    rng = np.random.default_rng(dim)
    blobs = make_blobs(240, 3, seed=dim, dim=dim)[0].coords
    yield "far", blobs * 1e-3 + 1e8
    yield "huge", rng.uniform(-1e154, 1e154, size=(60, dim))
    yield "copies", np.repeat(blobs[:60], 4, axis=0)
    yield "lattice", rng.integers(0, 3, size=(200, dim)).astype(float)
    yield "tenths", rng.integers(0, 4, size=(200, dim)) * 0.1 + 0.3
    yield "normal", rng.normal(size=(200, dim))
    yield "n=1", blobs[:1]
    yield "n=2", blobs[:2]


@pytest.fixture
def route(monkeypatch):
    """Call with True to force the filter on every block, False to force
    the direct rule."""

    def force(filtered: bool):
        monkeypatch.setattr(core, "_filters", lambda a, b: filtered)

    return force


def both_routes(route, call):
    with np.errstate(over="ignore"):  # the rule's squares overflow on "huge"
        route(True)
        got = call()
        route(False)
        return got, call()


def fallback_rows(monkeypatch) -> list[int]:
    """The rows of the direct blocks measured from here on: the filter's
    fallback blocks, once the filter is forced."""
    rows = []
    real = core.squared_distances

    def spy(a, b):
        rows.append(a.shape[0] * a.shape[1])
        return real(a, b)

    monkeypatch.setattr(core, "squared_distances", spy)
    return rows


@pytest.mark.parametrize("dim", DIMS)
def test_kth_distances_filter_keeps_the_rule_bits(route, dim):
    # One partition of every row, four equal partitions, and chosen rows,
    # at m = 1, 4 and m >= k.
    for name, coords in filter_inputs(dim):
        n = len(coords)
        stacks = [(coords[None], None), (coords[: n // 4 * 4].reshape(4, -1, dim), None)]
        stacks.append((coords[None], np.arange(0, n, 3)))
        for pts, rows in stacks:
            for m in (1, 4, n + 1):
                got, want = both_routes(route, lambda: kth_distances(pts, m, rows))
                assert hexes(got) == hexes(want), (name, pts.shape, m)


@pytest.mark.parametrize("dim", DIMS)
def test_kth_others_filter_keeps_the_rule_bits(route, dim):
    # The grid's cell blocks, from a first reach of 0 (most rows take a
    # second round) and of a whole span (boxes of every point).
    for name, coords in filter_inputs(dim):
        n = len(coords)
        if n < 2:
            continue
        side = float(np.ptp(coords, axis=0).max()) / 8 or 1.0
        for m, reach in ((1, 0.0), (4, 0.0), (n + 1, 0.0), (4, 8 * side)):
            grid = Grid(coords, side)
            got, want = both_routes(route, lambda: grid.kth_others(np.arange(n), m, reach))
            assert hexes(got) == hexes(want), (name, m, reach)
            with np.errstate(over="ignore"):
                assert hexes(want) == hexes(kth_distances(coords[None], m)[0]), (name, m, reach)


@pytest.mark.parametrize("dim", (2, 8))
@pytest.mark.parametrize("filtered", (False, True))
def test_kth_distances_masks_padding_by_width(route, dim, filtered):
    # Partitions of unequal sizes above m, padded to a multiple of 8 with
    # copies of their first row, give every row the bits of the partition's
    # exact-size stack on the direct route, whichever route measures the
    # padded stack, in whole partitions and in row slabs (past 256 rows),
    # for all rows and for chosen ones. Every second partition lies on a
    # lattice, so its distances tie. Unmasked, the 7 padding copies of the
    # 9-row partition's first row would be that row's m nearest.
    m = 4
    rng = np.random.default_rng(dim)
    for sizes in ((5, 6, 8), (9, 13, 16), (300, 257)):
        parts = [rng.integers(0, 3, size=(k, dim)).astype(float) if i % 2 else rng.normal(size=(k, dim)) for i, k in enumerate(sizes)]
        width = -(-max(sizes) // 8) * 8
        pts = np.stack([np.concatenate([p, np.repeat(p[:1], width - len(p), axis=0)]) for p in parts])
        counts = np.array(sizes)
        rows = np.arange(0, min(sizes), 3)
        route(False)
        want = [kth_distances(p[None], m)[0] for p in parts]
        unmasked = kth_distances(pts, m)
        route(filtered)
        got = kth_distances(pts, m, width=counts)
        chosen = kth_distances(pts, m, rows, width=counts)
        for p, k in enumerate(sizes):
            assert hexes(got[p, :k]) == hexes(want[p]), (sizes, p)
            assert hexes(chosen[p]) == hexes(want[p][rows]), (sizes, p)
            if k == 9:
                assert unmasked[p, 0] == 0 < want[p][0]


def pair_radii(coords, count):
    """``count`` radii that are exact distances of pairs of ``coords`` by
    the rule, spread over their range: points placed at exactly the
    radius."""
    with np.errstate(over="ignore"):
        dist = np.sqrt(squared_distances(coords, coords))
    values = np.unique(dist[np.isfinite(dist)])
    return values[np.linspace(0, len(values) - 1, count).astype(int)]


@pytest.mark.parametrize("dim", DIMS)
def test_within_distance_filter_keeps_the_rule_answer(route, dim):
    # The merge's ball, with each radius exactly the distance of some
    # pairs, so that entries lie at the radius.
    at_radius = 0
    for name, coords in filter_inputs(dim):
        radius = pair_radii(coords, 12)
        pts = np.repeat(coords[None], len(radius), axis=0)
        got, want = both_routes(route, lambda: within_distance(pts, pts, radius))
        assert np.array_equal(got, want), name
        with np.errstate(over="ignore"):
            at_radius += int((np.sqrt(squared_distances(pts, pts)) == radius[:, None, None]).sum())
    assert at_radius > 0


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_merge_filter_keeps_labels_and_core_flags(route, dim):
    # Three padded partitions of each input, each with a scan radius that
    # is exactly a distance of some of its pairs, at m = 2, 4 and 30.
    for name, coords in filter_inputs(dim):
        n = len(coords)
        sizes = [n, max(1, n // 2), max(1, n // 3)]
        ids = np.full((3, n), -1)
        for p, size in enumerate(sizes):
            ids[p, :size] = np.arange(p, p + size) % n
            ids[p, :size].sort()
        epsilon = np.array([pair_radii(coords[ids[p, :size]], 3)[1] for p, size in enumerate(sizes)])
        for m in (2, 4, 30):
            got, want = both_routes(route, lambda: density.stacked_merge(coords, ids, epsilon, m))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (name, m)


def test_filter_falls_back_where_the_bound_overflows(route, monkeypatch):
    # Centred squared norms past 2**1020 leave no certified bound, so every
    # row takes the direct block; elsewhere no row does.
    for name, coords in filter_inputs(8):
        if len(coords) < 3:
            continue
        route(True)
        rows = fallback_rows(monkeypatch)
        with np.errstate(over="ignore"):
            kth_distances(coords[None], 4)
            within_distance(coords[None], coords[None], pair_radii(coords, 1))
        assert sum(rows) == (2 * len(coords) if name == "huge" else 0), name


def test_cluster_keeps_blas_on_one_thread():
    # A matrix product past OpenBLAS's threshold starts its threads, whose
    # idle spinning then costs CPU while the caller waits: so the process
    # CPU time of these calls must stay within their wall time.
    code = (
        "import time\n"
        "from dapclust import PipelineConfig, cluster, make_blobs\n"
        "datas = [make_blobs(1500, 3, seed=d, dim=d)[0] for d in (8, 16, 33)]\n"
        "cluster(datas[0], PipelineConfig(m=4))\n"
        "wall, cpu = time.perf_counter(), time.process_time()\n"
        "for data in datas:\n"
        "    cluster(data, PipelineConfig(m=4))\n"
        "print(time.process_time() - cpu, time.perf_counter() - wall)\n"
    )
    src = str(Path(dapclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    cpu, wall = map(float, done.stdout.split())
    assert cpu <= 1.1 * wall, (cpu, wall)
