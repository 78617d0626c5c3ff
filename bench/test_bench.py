"""Tests of the benchmark's own checks. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dapclust as dc  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402


def _run(coords, m=4):
    data = dc.Dataset.from_coords(coords.tolist())
    stages = {}
    with layers.capture_stages(stages):
        res = dc.cluster(data, dc.PipelineConfig(m=m))
    return np.array(res.labels), stages


@pytest.fixture(scope="module")
def blobs_2d():
    coords, truth = inputs.blobs(3, 600, 3, 2)
    labels, stages = _run(coords)
    return coords, truth, labels, stages


@pytest.mark.parametrize("dim", [2, 8])
def test_oracle_matches_pipeline(dim):
    coords, truth = inputs.blobs(5, 500, 3, dim)
    labels, stages = _run(coords)
    expected = oracle.oracle_labels(coords, stages["regions"])
    assert labels.tolist() == expected
    assert oracle.check_labels(labels, expected, truth, 0.9) == []
    assert oracle.check_regions(coords, stages["regions"], 4) == []
    assert oracle.check_canopies(len(coords), stages["canopies"]) == []


def test_merged_clusters_fail(blobs_2d):
    coords, truth, labels, stages = blobs_2d
    expected = oracle.oracle_labels(coords, stages["regions"])
    big = [lb for lb in np.unique(labels) if lb != oracle.NOISE and (labels == lb).sum() > 50]
    assert len(big) >= 2
    bad = labels.copy()
    bad[bad == big[1]] = big[0]
    fails = oracle.check_labels(bad, expected, truth, None)
    assert any("differ from the oracle" in f for f in fails)
    assert any("span two planted blobs" in f for f in fails)


def test_relabelled_noise_point_fails(blobs_2d):
    coords, truth, labels, stages = blobs_2d
    expected = oracle.oracle_labels(coords, stages["regions"])
    noise = np.flatnonzero(labels == oracle.NOISE)
    assert len(noise)
    bad = labels.copy()
    pid = noise[-1]
    bad[pid] = labels[truth == truth[pid]][labels[truth == truth[pid]] != oracle.NOISE].min()
    fails = oracle.check_labels(bad, expected, truth, None)
    assert fails == [f"1 labels differ from the oracle, first at point {pid}"]


def test_non_canonical_label_fails(blobs_2d):
    coords, truth, labels, stages = blobs_2d
    bad = labels.copy()
    lb = bad[bad != oracle.NOISE][0]
    bad[bad == lb] = lb + 1 if lb + 1 not in bad else lb + 2
    fails = oracle.check_labels(bad, bad, truth, None)
    assert fails == ["labels are not the minimum member id of their cluster"]


def test_uncovered_point_fails(blobs_2d):
    coords, truth, labels, stages = blobs_2d
    regions = stages["regions"]
    dropped = [r for r in regions if 0 in r.member_ids]
    for r in dropped:
        r.member_ids.discard(0)
    try:
        assert oracle.check_regions(coords, regions, 4) == ["1 points in no region"]
    finally:
        for r in dropped:
            r.member_ids.add(0)


def test_ari_matches_package():
    rng = np.random.default_rng(0)
    a, b = rng.integers(-1, 4, 300), rng.integers(-1, 6, 300)
    assert oracle.adjusted_rand_index(a, b) == pytest.approx(dc.adjusted_rand_index(a.tolist(), b.tolist()))
    assert oracle.adjusted_rand_index(a, a) == 1.0


def test_inputs_are_seeded():
    a, ta = inputs.mixed_hotspots(7, 600, 20)
    b, tb = inputs.mixed_hotspots(7, 600, 20)
    c, _ = inputs.mixed_hotspots(8, 600, 20)
    assert np.array_equal(a, b) and np.array_equal(ta, tb)
    assert not np.array_equal(a, c)
    # five blob points, each now present 1 + 20 times
    counts = np.unique(a, axis=0, return_counts=True)[1]
    assert len(a) == 700 and sorted(counts)[-6:] == [1, 21, 21, 21, 21, 21]


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "blobs_d8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
