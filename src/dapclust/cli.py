"""Command-line front end: run a clusterer, generate datasets, benchmark."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen
from .baselines import KMeansConfig, dbscan_reference, kmeans
from .canopy import CanopyConfig
from .core import NOISE, ClusterResult, Dataset, RunStats, load_csv, save_csv
from .metrics import adjusted_rand_index
from .naive import NaiveConfig, naive_cluster
from .pipeline import PipelineConfig, cluster

ALGORITHMS = ("naive", "dapc", "dbscan", "kmeans")
GENERATE_KINDS = ("blobs", "rings", "bridge")

_PALETTE = [
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#008080", "#9a6324", "#800000", "#808000",
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dapclust",
        description="Density-adaptive parallel clustering over CSV point data.",
    )
    p.add_argument("--input", help="input CSV, one point per line")
    p.add_argument("--output", help="output path (labels CSV, or dataset CSV with --generate)")
    p.add_argument("--algorithm", choices=ALGORITHMS, help="clusterer to run")
    p.add_argument("--m", type=int, default=3, help="smoothing / core-point parameter (default 3)")
    p.add_argument("--c", type=float, default=1.0, help="scan-radius scale factor (default 1.0)")
    p.add_argument("--epsilon", type=float, help="scan radius for --algorithm dbscan")
    p.add_argument("--k", type=int, help="cluster count for --algorithm kmeans")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (kmeans init, generators)")
    p.add_argument("--workers", type=int, default=1, help="map-step worker count (default 1)")
    p.add_argument("--canopy-t1", type=float, help="override canopy loose threshold")
    p.add_argument("--canopy-t2", type=float, help="override canopy tight threshold")
    p.add_argument("--max-regions-per-point", type=int, help="per-point region cap (default: m)")
    p.add_argument("--svg", help="write a 2-D scatter plot of the labeling to this path")
    p.add_argument("--header", action="store_true", help="skip the first input row")
    p.add_argument("--report", help="write the run report line here instead of stderr")
    p.add_argument("--generate", metavar="KIND", help="generate a dataset: blobs, rings, or bridge")
    p.add_argument("--n", type=int, default=1000, help="points to generate (default 1000)")
    p.add_argument("--clusters", type=int, default=3, help="blob / ring count for --generate")
    p.add_argument("--j", type=int, default=2, help="bridge chain length for --generate bridge")
    p.add_argument("--truth", help="ground-truth labels CSV (bench scoring / generate output)")
    p.add_argument("--bench", metavar="ALGOS", help="comma-separated algorithms to benchmark")
    return p


def save_labels(labels, path) -> None:
    with open(path, "w") as fh:
        fh.write("point_index,cluster_label\n")
        for i, lb in enumerate(labels):
            fh.write(f"{i},{lb}\n")


def load_labels(path) -> list[int]:
    labels = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or (lineno == 1 and not line[0].isdigit() and line[0] != "-"):
                continue
            idx, lb = line.split(",")
            labels.append((int(idx), int(lb)))
    labels.sort()
    return [lb for _, lb in labels]


def render_svg(data: Dataset, labels, path, size: int = 800) -> None:
    """One marker per point, one fill per cluster, noise drawn as hollow grey
    circles. Only 2-D data can be plotted."""
    if data.dim != 2:
        raise ValueError(f"svg output requires 2-D data, got dimension {data.dim}")
    coords = data.coords
    if len(data):
        x0, y0 = coords.min(axis=0)
        x1, y1 = coords.max(axis=0)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    span = max(x1 - x0, y1 - y0) or 1.0
    margin = 0.05 * span
    scale = size / (span + 2 * margin)

    def px(x, y):
        return (x - x0 + margin) * scale, size - (y - y0 + margin) * scale

    color = {}
    for lb in sorted({lb for lb in labels if lb != NOISE}):
        color[lb] = _PALETTE[len(color) % len(_PALETTE)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for p, lb in zip(data, labels):
        cx, cy = px(*p.coords)
        if lb == NOISE:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="none" '
                f'stroke="#888888" stroke-width="1"/>'
            )
        else:
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color[lb]}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _canopy_override(args, parser) -> CanopyConfig | None:
    if (args.canopy_t1 is None) != (args.canopy_t2 is None):
        parser.error("--canopy-t1 and --canopy-t2 must be given together")
    if args.canopy_t1 is None:
        return None
    return CanopyConfig(args.canopy_t1, args.canopy_t2)


def run_algorithm(name: str, data: Dataset, args, parser) -> ClusterResult:
    if name == "naive":
        return naive_cluster(data, NaiveConfig(args.m))
    if name == "dapc":
        cfg = PipelineConfig(
            m=args.m,
            c=args.c,
            canopy=_canopy_override(args, parser),
            worker_count=args.workers,
            max_regions_per_point=args.max_regions_per_point,
        )
        return cluster(data, cfg)
    if name == "dbscan":
        if args.epsilon is None:
            parser.error("--algorithm dbscan requires --epsilon")
        start = time.perf_counter()
        lab = dbscan_reference(data, args.epsilon, args.m)
        labels = [lab.labels[i] for i in range(len(data))]
        return ClusterResult(labels, set(lab.core_flags), RunStats(t_total=time.perf_counter() - start))
    if name == "kmeans":
        if args.k is None:
            parser.error("--algorithm kmeans requires --k")
        return kmeans(data, KMeansConfig(args.k, seed=args.seed))
    parser.error(f"unknown algorithm {name!r}")


def _report_line(name: str, data: Dataset, args, result: ClusterResult) -> str:
    s = result.stats
    parts = [
        f"algorithm={name}",
        f"n={len(data)}",
        f"dim={data.dim}",
        f"m={args.m}",
        f"c={args.c}",
        f"workers={args.workers}",
        f"clusters={result.n_clusters}",
        f"noise={result.noise_count}",
        f"z={s.region_count}",
        f"w={s.max_region_size}",
        f"t_tree={s.t_tree:.6f}",
        f"t_canopy={s.t_canopy:.6f}",
        f"t_regions={s.t_regions:.6f}",
        f"t_map={s.t_map:.6f}",
        f"t_reduce={s.t_reduce:.6f}",
        f"t_total={s.t_total:.6f}",
        f"uf_ops={s.uf_ops}",
        f"uf_hops={s.uf_hops}",
    ]
    if args.epsilon is not None:
        parts.insert(4, f"epsilon={args.epsilon}")
    if args.k is not None:
        parts.insert(4, f"k={args.k}")
    return " ".join(parts)


def _do_run(args, parser) -> int:
    if not args.input:
        parser.error("--input is required")
    if not args.output:
        parser.error("--output is required")
    if not args.algorithm:
        parser.error("--algorithm is required")
    data = load_csv(args.input, skip_header=args.header)
    result = run_algorithm(args.algorithm, data, args, parser)
    save_labels(result.labels, args.output)
    line = _report_line(args.algorithm, data, args, result)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line, file=sys.stderr)
    if args.svg:
        render_svg(data, result.labels, args.svg)
    return 0


def _do_generate(args, parser) -> int:
    kind = args.generate
    if kind not in GENERATE_KINDS:
        parser.error(f"unknown dataset kind {kind!r} (choose from {', '.join(GENERATE_KINDS)})")
    if not args.output:
        parser.error("--generate requires --output")
    if kind == "blobs":
        data, truth = datagen.make_blobs(args.n, args.clusters, args.seed)
    elif kind == "rings":
        data, truth = datagen.make_rings(args.n, args.clusters, args.seed)
    else:
        n_per_blob = max(4, (args.n - args.j) // 2)
        data, truth = datagen.make_bridge(n_per_blob, args.j, args.seed)
    save_csv(data, args.output)
    truth_path = args.truth or str(Path(args.output).with_suffix(".truth.csv"))
    save_labels(truth, truth_path)
    print(
        f"generated kind={kind} n={len(data)} dim={data.dim} seed={args.seed} "
        f"data={args.output} truth={truth_path}",
        file=sys.stderr,
    )
    return 0


def _do_bench(args, parser) -> int:
    algos = [a.strip() for a in args.bench.split(",") if a.strip()]
    if not algos:
        parser.error("--bench needs a non-empty algorithm list")
    for a in algos:
        if a not in ALGORITHMS:
            parser.error(f"unknown algorithm {a!r} in --bench")
    if not args.input:
        parser.error("--bench requires --input")
    data = load_csv(args.input, skip_header=args.header)
    truth = load_labels(args.truth) if args.truth else None
    if truth is not None and len(truth) != len(data):
        parser.error("--truth length does not match the dataset")
    rows = []
    for name in algos:
        start = time.perf_counter()
        result = run_algorithm(name, data, args, parser)
        wall = time.perf_counter() - start
        ari = adjusted_rand_index(truth, result.labels) if truth is not None else None
        rows.append((name, wall, result.n_clusters, result.noise_count, ari))
        print(_report_line(name, data, args, result), file=sys.stderr)
    header = f"{'algorithm':<10} {'wall_s':>10} {'clusters':>9} {'noise':>7} {'ari':>7}"
    print(header)
    print("-" * len(header))
    for name, wall, ncl, noi, ari in rows:
        ari_s = f"{ari:7.4f}" if ari is not None else f"{'-':>7}"
        print(f"{name:<10} {wall:>10.4f} {ncl:>9} {noi:>7} {ari_s}")
    return 0


def epsilon_grid_report(named_datasets, m: int, grid_size: int = 20, out=None):
    """Sweep one shared scan-radius grid over several labeled datasets with
    the quadratic reference DBSCAN and tabulate the agreement per cell.

    named_datasets is a list of (name, Dataset, truth_labels). The grid is
    log-spaced from the smallest nearest-neighbour distance to the largest
    diameter across the datasets. Returns one dict per grid value with the
    per-dataset agreement scores. Used to demonstrate that no single radius
    serves data whose density varies widely.
    """
    out = out or sys.stdout
    lo = float("inf")
    hi = 0.0
    for _name, data, _truth in named_datasets:
        coords = data.coords
        for i in range(len(coords)):
            d = np.sqrt(((coords - coords[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            lo = min(lo, float(d.min()))
        span = coords.max(axis=0) - coords.min(axis=0)
        hi = max(hi, float(np.sqrt((span**2).sum())))
    grid = np.geomspace(lo, hi, grid_size)
    names = [name for name, _d, _t in named_datasets]
    print(f"{'epsilon':>12} " + " ".join(f"{n:>12}" for n in names), file=out)
    rows = []
    for eps in grid:
        aris = []
        for _name, data, truth in named_datasets:
            lab = dbscan_reference(data, float(eps), m)
            labels = [lab.labels[i] for i in range(len(data))]
            aris.append(adjusted_rand_index(truth, labels))
        rows.append({"epsilon": float(eps), "ari": dict(zip(names, aris))})
        print(f"{eps:>12.4f} " + " ".join(f"{a:>12.4f}" for a in aris), file=out)
    return rows


def run(argv=None) -> int:
    """Parse argv and execute one CLI action; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.generate:
            return _do_generate(args, parser)
        if args.bench is not None:
            return _do_bench(args, parser)
        return _do_run(args, parser)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
