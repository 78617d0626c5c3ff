"""Digests of what ``cluster`` decides on a fixed set of inputs, one JSON
line per input, so that two checkouts can be compared with ``diff``.

Usage, from the repository root:

    python3 tools/identity.py > identity.jsonl
    python3 tools/identity.py --adversarial > identity.jsonl

The inputs are the benchmark's (seeds 1-10 of ``blobs_w2``,
``mixed_hotspots`` and ``blobs_d8``, made by ``bench/inputs.py`` exactly as
``bench/run.py`` makes them) and those of acceptance criteria 4, 5, 6 and 8.
``--adversarial`` adds blobs rounded to a 0.5 grid, the same blobs with
their ids ordered along x, identical points in 2-D and 8-D, the d = 8
copies input of ``test_batched_map_matches_map_step_per_region``, 2,000
blob points after one point at (-3e12, 0), which lies in the thresholds'
sample, 1,500 uniform points in 8-D, 5-D blobs with a sparse halo whose
rows take the cell blocks' second round (the input of
``test_kth_nearest_cell_route_matches_row_blocks``), 8-D blobs of spread
1e-3 offset by 1e8, 1,200 normal points in 16-D, which the distance
filter of ``core`` measures, ``make_blobs(2000, 5, seed=1)`` tiled five
times, whose copies lie 2,000 ids apart and fill the thresholds' sample, and
1,500 points of the 8-D integer lattice {0, 1, 2}^8, whose canopies' farthest
points tie; at some versions of the package some of these take tens of
seconds.

Each line holds the input's name, its m, ``estimate_thresholds``' t1 and
t2 as float hex at m = 3, 4 and 8, ``estimate_epsilon`` over every row at
the input's m as float hex, and sha256 digests of: the canopies
(seed and ascending members), the region arrays (``ptr`` and ``members``,
and ``centers``, ``radii`` and ``epsilon`` as float hex), the labels, the
core flags, ``uf_ops`` and the ``RunStats`` region summary. The canopies
and regions come from ``estimate_thresholds``, ``canopy_cluster`` and
``build_regions`` called on their own; the rest from one ``cluster`` call.
On the benchmark and criteria inputs the line also digests the labels of
``naive_cluster`` at the input's m; the adversarial inputs leave it out,
because the naive clusterer is quadratic on identical points.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402  (bench/inputs.py, read only)

from dapclust import (  # noqa: E402
    Dataset,
    NaiveConfig,
    PipelineConfig,
    build_regions,
    canopy_cluster,
    cluster,
    estimate_epsilon,
    estimate_thresholds,
    make_blobs,
    make_bridge,
    make_density_pair,
    naive_cluster,
)

SUMMARY = (
    "region_count",
    "max_region_size",
    "region_size_p50",
    "region_size_p90",
    "epsilon_p50",
    "epsilon_p90",
    "epsilon_max",
    "region_core_p50",
    "region_core_p90",
    "region_core_max",
)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def hexes(arr) -> list[str]:
    return [float(v).hex() for v in np.asarray(arr, dtype=float).ravel().tolist()]


def bench_inputs():
    """The benchmark's inputs of seeds 1-10: name, coordinates, m."""
    workloads = (
        ("blobs_w2", 1, lambda s: inputs.blobs(s, 10_000, 5, 2)),
        ("mixed_hotspots", 2, lambda s: inputs.mixed_hotspots(s, 4_000, 250)),
        ("blobs_d8", 2, lambda s: inputs.blobs(s, 1_800, 5, 8)),
    )
    for name, copies, make in workloads:
        for seed in range(1, 11):
            for i, child in enumerate(np.random.SeedSequence(seed).spawn(copies)):
                yield f"{name}/{seed}/{i}", make(child)[0], 4


def criteria_inputs():
    blobs42 = make_blobs(10_000, 5, seed=42, spread=1.0, separation=40.0)[0]
    yield "criterion4/blobs42", blobs42.coords, 3
    yield "criterion5/bridge", make_bridge(n_per_blob=50, j=2, seed=0)[0].coords, 3
    for scale in (1.0, 10.0):
        yield f"criterion6/pair{scale:g}", make_density_pair(scale)[0].coords, 4
    yield "criterion8/blobs88", make_blobs(2_000, 4, seed=88)[0].coords, 3
    yield "criterion8/pair1", make_density_pair(1.0)[0].coords, 3


def adversarial_inputs():
    blobs = make_blobs(6_000, 5, seed=1)[0].coords
    yield "adversarial/rounded_blobs", np.round(blobs * 2) / 2, 4
    # Ids along x: the canopy sweep's batches hold long chains of seeds.
    yield "adversarial/blobs_by_x", blobs[np.argsort(blobs[:, 0], kind="stable")], 4
    yield "adversarial/identical_2d", np.zeros((20_000, 2)), 4
    yield "adversarial/identical_8d", np.ones((3_000, 8)), 4
    dim = 8
    blobs = make_blobs(1200, 3, seed=dim, dim=dim)[0].coords
    rng = np.random.default_rng(dim)
    copies = np.concatenate([
        blobs,
        blobs[11] + rng.normal(size=(300, dim)) * 0.02,
        blobs[7] + 50.0 + rng.normal(size=(1030, dim)) * 0.01,
        np.repeat(blobs[5:6], 1100, axis=0),
    ])
    yield "adversarial/copies_d8", copies, 4
    yield "adversarial/far_outlier", np.vstack([[(-3e12, 0.0)], make_blobs(2_000, 5, seed=1)[0].coords]), 4
    yield "adversarial/uniform_d8", np.random.default_rng(1).uniform(size=(1500, 8)), 4
    halo = np.random.default_rng(1).uniform(-30, 30, size=(49, 5))
    yield "adversarial/blobs_d5_halo", np.vstack([make_blobs(1500, 4, seed=1, dim=5)[0].coords, halo]), 4
    # The distance filter's inputs: centred far from the origin, and at d = 16.
    yield "adversarial/far_blobs_d8", make_blobs(1500, 4, seed=2, dim=8)[0].coords * 1e-3 + 1e8, 4
    yield "adversarial/normal_d16", np.random.default_rng(16).normal(size=(1200, 16)), 4
    # Five copies of every point, 2,000 ids apart.
    yield "adversarial/blobs_tiled_x5", np.tile(make_blobs(2_000, 5, seed=1)[0].coords, (5, 1)), 4
    # Integer coordinates: most canopies' farthest points tie, which the
    # spheres break by the lowest row; some points repeat.
    yield "adversarial/lattice_d8", np.random.default_rng(8).integers(0, 3, size=(1500, 8)).astype(float), 4


def line(name: str, coords, m: int, naive: bool) -> dict:
    data = Dataset.from_coords(coords)
    thresholds = {}
    for mt in (3, 4, 8):
        t = estimate_thresholds(data, mt)
        thresholds[mt] = [t.t1.hex(), t.t2.hex()]
    cfg = PipelineConfig(m=m)
    canopies = canopy_cluster(data, estimate_thresholds(data, m))
    regions = build_regions(data, canopies, cfg)
    result = cluster(data, cfg)
    st = result.stats
    out = {
        "input": name,
        "m": m,
        "thresholds": thresholds,
        "epsilon": estimate_epsilon(coords, m).hex(),
        "canopies": digest([[c.center_id, sorted(c.member_ids)] for c in canopies]),
        "regions": digest([
            regions.ptr.tolist(),
            regions.members.tolist(),
            hexes(regions.centers),
            hexes(regions.radii),
            hexes(regions.epsilon),
        ]),
        "labels": digest(result.labels),
        "core": digest(sorted(result.core_flags)),
        "uf_ops": st.uf_ops,
        "summary": digest([float(getattr(st, f)).hex() for f in SUMMARY]),
    }
    if naive:
        out["naive"] = digest(naive_cluster(data, NaiveConfig(m)).labels)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--adversarial", action="store_true", help="add the adversarial inputs")
    args = ap.parse_args(argv)
    sources = [(bench_inputs(), True), (criteria_inputs(), True)]
    if args.adversarial:
        sources.append((adversarial_inputs(), False))
    for source, naive in sources:
        for name, coords, m in source:
            print(json.dumps(line(name, coords, m, naive)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
