"""Benchmark of the dapc pipeline on three seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload blobs_w2 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``,
``cluster_cpu_s``, ``peak_rss_mb``, ``ari``); with ``--trace 1`` it reports the
per-layer metrics instead, from a run that wraps the package's public
functions. Either way the labels are checked against an independent oracle
and the properties in ``oracle.py``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

try:
    import dapclust as dc
    from dapclust import pipeline
except ImportError as exc:
    sys.exit(f"cannot import dapclust from {HERE.parent / 'src'}: {exc}")

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

# Loads timed before each round. One load varies by up to 2x with the
# machine's state, so setup_s is the median of loads spread over the run.
LOADS_PER_ROUND = 8
# cluster_cpu_s is the median of at least this many rounds.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    make: object  # seed -> (coords, truth)
    copies: int  # independent inputs per run, each clustered once a round
    m: int
    workers: int
    ari_min: float | None


# One cluster call takes 3-6 s on a 2-core machine. The call time, peak
# memory and ARI of blobs_d8 and mixed_hotspots depend on the input more than
# blobs_w2's do (regions that regrow through ever larger knn queries; hotspots
# that split off their blob), so each of their runs averages two inputs.
WORKLOADS = {
    "blobs_w2": Workload(lambda s: inputs.blobs(s, 10_000, 5, 2), 1, 4, 2, 0.9),
    "mixed_hotspots": Workload(lambda s: inputs.mixed_hotspots(s, 4_000, 250), 2, 4, 1, None),
    "blobs_d8": Workload(lambda s: inputs.blobs(s, 1_800, 5, 8), 2, 4, 1, 0.9),
}


@dataclass
class Case:
    """One input of a run, and what the run learned about it."""

    coords: np.ndarray
    truth: np.ndarray
    path: Path
    data: object = None
    results: list = None  # ClusterResults whose labels are checked
    stages: dict = None  # canopies and regions, for the oracle


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children.

    On a shared virtual machine the host now and then runs other guests on
    this one's CPUs (steal time), which moves wall time by up to a third
    from minute to minute; CPU time leaves those pauses out. A worker
    process that exits within the call is counted once it has been waited
    for.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def timed(fn, *args, clock=time.perf_counter):
    gc.collect()
    t0 = clock()
    out = fn(*args)
    return out, clock() - t0


def measure(cases, cfg, seconds):
    """End-to-end metrics, with nothing wrapped or traced. A round clusters
    every input once; cluster_cpu_s is the median over rounds of the mean
    call. Both times are CPU seconds (``cpu_seconds``)."""
    start = time.perf_counter()
    deadline = start + seconds
    loads, rounds, unequal = [], [], 0
    last_round = 0.0
    # A round starts only if one as long as the last ends before the
    # deadline, so a run lasts --seconds and not up to a round more.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + last_round <= deadline:
        t_round = time.perf_counter()
        for i in range(LOADS_PER_ROUND):
            loads.append(timed(dc.load_csv, cases[i % len(cases)].path, clock=cpu_seconds)[1])
        total = 0.0
        for case in cases:
            res, dt = timed(dc.cluster, case.data, cfg, clock=cpu_seconds)
            total += dt
            if case.results is None:
                case.results = [res]
            else:
                unequal += res.labels != case.results[0].labels
            del res
        rounds.append(total / len(cases))
        last_round = time.perf_counter() - t_round
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(loads), "s"),
        "cluster_cpu_s": (statistics.median(rounds), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    # Each input again at the other worker count, keeping the canopies and
    # regions it builds for the checks. This comes after the peak memory is
    # read, so that neither they nor the other worker count move it.
    other = replace(cfg, worker_count=3 - cfg.worker_count)
    for case in cases:
        case.stages = {}
        with layers.capture_stages(case.stages):
            case.results.append(dc.cluster(case.data, other))
    fails = [f"{unequal} repeated calls changed the labels"] if unequal else []
    return metrics, fails, len(loads) + (len(rounds) + 1) * len(cases)


def trace(case, cfg):
    """Per-layer metrics on one input: an untraced call, a traced call, the
    map step run serially and reduced, and tracemalloc peaks of single stage
    calls."""
    base, t_plain = timed(dc.cluster, case.data, cfg)
    tracer = layers.Tracer()
    case.stages = {}
    with tracer.active(), layers.capture_stages(case.stages):
        traced, t_traced = timed(dc.cluster, case.data, cfg)
    regions = case.stages["regions"]

    gc.collect()
    t0 = time.perf_counter()
    local = [(r, pipeline.map_step(r, case.data)) for r in regions]
    map_serial = time.perf_counter() - t0
    # Reduced in region order, so the union-find counts repeat exactly; with
    # a thread pool the arrival order, and so the hop count, varies.
    serial = dc.reduce_merge(local, len(case.coords))
    case.results = [base, traced, serial]

    _, load_mb = layers.alloc_peak_mb(dc.load_csv, case.path)
    tree, build_mb = layers.alloc_peak_mb(dc.SsTree.build, case.data)
    _, regions_mb = layers.alloc_peak_mb(
        dc.build_regions, case.data, case.stages["canopies"], cfg, tree
    )
    # Tracing allocations slows the map step about 25-fold, so its peak is
    # taken on the largest region (lowest id on ties) alone.
    largest = max(regions, key=lambda r: (len(r.member_ids), -r.id))
    _, map_mb = layers.alloc_peak_mb(dc.map_step, largest, case.data)

    st = base.stats
    labels = np.array(base.labels)
    calls, secs, counts = tracer.calls, tracer.seconds, tracer.counts
    metrics = {
        "sstree.build_s": (secs["sstree.build"], "s"),
        "sstree.build_calls": (calls["sstree.build"], "count"),
        "sstree.knn_calls": (calls["sstree.knn"], "count"),
        "sstree.knn_s": (secs["sstree.knn"], "s"),
        "sstree.range_calls": (calls["sstree.range"], "count"),
        "sstree.range_s": (secs["sstree.range"], "s"),
        "sstree.range_hits": (counts["sstree.range_hits"], "count"),
        "canopy.thresholds_s": (secs["canopy.thresholds"], "s"),
        "canopy.sweep_s": (secs["canopy.sweep"], "s"),
        "canopy.canopies": (counts["canopy.canopies"], "count"),
        "density.epsilon_calls": (calls["density.epsilon"], "count"),
        "density.epsilon_s": (secs["density.epsilon"], "s"),
        "density.merge_s": (secs["density.merge"], "s"),
        "density.core_points": (counts["density.core_points"], "count"),
        "pipeline.regions_s": (secs["pipeline.regions"], "s"),
        "pipeline.regions": (counts["pipeline.regions"], "count"),
        "pipeline.region_max": (counts["pipeline.region_max"], "count"),
        "pipeline.memberships": (counts["pipeline.memberships"], "count"),
        "pipeline.map_s": (map_serial, "s"),
        "pipeline.map_pool_s": (st.t_map, "s"),
        "pipeline.reduce_s": (st.t_reduce, "s"),
        "pipeline.unstaged_s": (
            t_plain - (st.t_canopy + st.t_regions + st.t_map + st.t_reduce),
            "s",
        ),
        "pipeline.wall_s": (t_plain, "s"),
        "pipeline.clusters": (base.n_clusters, "count"),
        "pipeline.noise_points": (base.noise_count, "count"),
        "pipeline.spurious_clusters": (oracle.spurious_clusters(labels, case.truth, cfg.m), "count"),
        "unionfind.ops": (serial.stats.uf_ops, "count"),
        "unionfind.hops": (serial.stats.uf_hops, "count"),
        "core.load_alloc_mb": (load_mb, "MiB"),
        "sstree.build_alloc_mb": (build_mb, "MiB"),
        "pipeline.regions_alloc_mb": (regions_mb, "MiB"),
        "pipeline.map_alloc_mb": (map_mb, "MiB"),
        "trace.cluster_s": (t_traced, "s"),
        "trace.overhead_s": (t_traced - t_plain, "s"),
    }
    return metrics, [], 3  # two cluster calls, one load


def check(case, cfg, ari_min) -> list[str]:
    """The case's results against the oracle and the output properties."""
    regions = case.stages["regions"]
    expected = oracle.oracle_labels(case.coords, regions)
    fails = oracle.check_regions(case.coords, regions, cfg.cap)
    fails += oracle.check_canopies(len(case.coords), case.stages["canopies"])
    for res in case.results:
        fails += oracle.check_labels(res.labels, expected, case.truth, ari_min)
    if not np.array_equal(case.data.coords, case.coords):
        fails.append("load_csv did not reproduce the generated coordinates")
    return fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    wl = WORKLOADS[args.workload]
    cfg = dc.PipelineConfig(m=wl.m, worker_count=wl.workers)
    data_dir = HERE / ".inputs"
    data_dir.mkdir(exist_ok=True)
    cases = []
    # The trace run looks at the first input only.
    copies = 1 if args.trace else wl.copies
    try:
        for i, child in enumerate(np.random.SeedSequence(args.seed).spawn(wl.copies)[:copies]):
            path = data_dir / f"{args.workload}-{args.seed}-{i}-{os.getpid()}.csv"
            cases.append(Case(*wl.make(child), path))
            inputs.write_csv(path, cases[-1].coords)
            cases[-1].data = dc.load_csv(path)
        if args.trace:
            metrics, fails, attempted = trace(cases[0], cfg)
        else:
            metrics, fails, attempted = measure(cases, cfg, args.seconds)
    finally:
        for case in cases:
            case.path.unlink(missing_ok=True)

    for case in cases:
        fails += check(case, cfg, wl.ari_min)
    if not args.trace:
        aris = [oracle.adjusted_rand_index(c.truth, c.results[0].labels) for c in cases]
        metrics["ari"] = (statistics.mean(aris), "ratio")

    for msg in dict.fromkeys(fails):
        print(f"check failed: {msg}", file=sys.stderr)
    out = {
        "correct": not fails,
        "attempted": copies + attempted,  # with the first loads
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
