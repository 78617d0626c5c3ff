"""Density-adaptive parallel clustering.

A clustering toolkit built around three ideas: cheap canopy pre-clustering to
partition the data, a scan radius inferred independently per partition so
regions of very different density are handled with one global configuration,
and a DBSCAN-style density merge whose per-region results fold, by label
propagation, deterministically into a global partition. Coordinate grids
answer the pipeline's neighbour queries, and regions of every size are
merged from stacked distance blocks. A naive m-nearest-neighbour clusterer
on the same grid and label propagation, and k-means / quadratic-DBSCAN
baselines, are included for comparison. The SS+tree index is still exported
for the benchmark trace; no clusterer uses it.
"""

from .baselines import KMeansConfig, dbscan_reference, kmeans, knn_reference
from .canopy import Canopy, CanopyConfig, canopy_cluster, cheap_distance, estimate_thresholds
from .core import (
    NOISE,
    ClusterResult,
    Dataset,
    Point,
    RunStats,
    Sphere,
    distance,
    load_csv,
    save_csv,
)
from .datagen import make_blobs, make_bridge, make_density_pair, make_rings
from .density import DensityConfig, LocalLabeling, density_cluster, estimate_epsilon
from .metrics import adjusted_rand_index
from .naive import NaiveConfig, naive_cluster
from .pipeline import PipelineConfig, Region, build_regions, cluster, map_step, reduce_merge
from .sstree import FANOUT, LEAF_CAP, SsNode, SsTree

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "Canopy",
    "CanopyConfig",
    "ClusterResult",
    "Dataset",
    "DensityConfig",
    "FANOUT",
    "KMeansConfig",
    "LEAF_CAP",
    "LocalLabeling",
    "NaiveConfig",
    "PipelineConfig",
    "Point",
    "Region",
    "RunStats",
    "Sphere",
    "SsNode",
    "SsTree",
    "adjusted_rand_index",
    "build_regions",
    "canopy_cluster",
    "cheap_distance",
    "cluster",
    "dbscan_reference",
    "density_cluster",
    "distance",
    "estimate_epsilon",
    "estimate_thresholds",
    "kmeans",
    "knn_reference",
    "load_csv",
    "make_blobs",
    "make_bridge",
    "make_density_pair",
    "make_rings",
    "map_step",
    "naive_cluster",
    "reduce_merge",
    "save_csv",
]
