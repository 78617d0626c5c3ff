"""Geometric primitives, the dataset container, and CSV I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Label assigned to points that belong to no cluster.
NOISE = -1


@dataclass(frozen=True)
class Point:
    """A point with a stable non-negative id and fixed-dimension coordinates."""

    id: int
    coords: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Sphere:
    """A bounding sphere: center coordinates plus a non-negative radius."""

    center: tuple[float, ...]
    radius: float

    def contains(self, coords, slack: float = 1e-9) -> bool:
        return distance_coords(self.center, coords) <= self.radius + slack


def distance_coords(a, b) -> float:
    """Euclidean distance between two coordinate sequences.

    The accumulation order is fixed (ascending coordinate index) so that every
    distance computed anywhere in the package, including the independent test
    oracles, produces bit-identical values for identical inputs.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block of squared Euclidean distances: entry (i, j) is between row i of
    ``a`` and row j of ``b``.

    Accumulates one coordinate at a time in ascending order, the order of
    ``distance_coords``, so ``np.sqrt`` of entry (i, j) is bit-identical to
    ``distance_coords(a[i], b[j])`` at every dimension. (numpy's
    ``sum(axis=-1)`` pairs its terms differently from eight coordinates on.)
    """
    out = np.zeros((len(a), len(b)))
    diff = np.empty_like(out)
    for j in range(a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    return distance_coords(a.coords, b.coords)


class Dataset:
    """Immutable, id-ordered collection of points of a single dimension.

    Point ids are the contiguous range 0..n-1 and double as row indices into
    ``coords``. Instances are never mutated after construction, so they can be
    read concurrently without locking.
    """

    def __init__(self, points, dim: int | None = None):
        points = list(points)
        inferred = points[0].dim if points else 0
        if dim is None:
            dim = inferred
        if points and dim < 1:
            raise ValueError("non-empty dataset requires dim >= 1")
        for i, p in enumerate(points):
            if p.id != i:
                raise ValueError(
                    f"point ids must be contiguous from 0: got id {p.id} at position {i}"
                )
            if p.dim != dim:
                raise ValueError(f"point {i} has dimension {p.dim}, expected {dim}")
            for v in p.coords:
                if not math.isfinite(v):
                    raise ValueError(f"point {i} has non-finite coordinate {v!r}")
        self.points: list[Point] = points
        self.dim = dim
        if points:
            arr = np.array([p.coords for p in points], dtype=np.float64)
        else:
            arr = np.empty((0, dim), dtype=np.float64)
        arr.setflags(write=False)
        self._coords = arr

    @classmethod
    def from_coords(cls, rows) -> "Dataset":
        """Build a dataset from an iterable of coordinate rows; row i gets id i."""
        pts = [Point(i, tuple(float(v) for v in row)) for i, row in enumerate(rows)]
        return cls(pts)

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, dim) float64 view of all coordinates."""
        return self._coords

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]


def load_csv(path, skip_header: bool = False) -> Dataset:
    """Load a dataset from a comma-separated file, one point per line.

    Every row must carry the same number of finite numeric fields; violations
    raise ValueError naming the offending (1-based) line. An empty file yields
    an empty dataset of dimension 0.
    """
    rows: list[tuple[float, ...]] = []
    dim: int | None = None
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if dim is None:
                dim = len(fields)
            elif len(fields) != dim:
                raise ValueError(
                    f"row {lineno}: expected {dim} fields, found {len(fields)}"
                )
            vals = []
            for fi, text in enumerate(fields):
                try:
                    v = float(text)
                except ValueError:
                    raise ValueError(
                        f"row {lineno}: field {fi + 1} is not numeric: {text.strip()!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ValueError(f"row {lineno}: non-finite value {text.strip()!r}")
                vals.append(v)
            rows.append(tuple(vals))
    if dim is None:
        return Dataset([], dim=0)
    return Dataset([Point(i, r) for i, r in enumerate(rows)])


def save_csv(data: Dataset, path) -> None:
    """Write a dataset in the format load_csv reads.

    Coordinates use the shortest round-tripping decimal form, so a write/read
    cycle reproduces them exactly.
    """
    with open(path, "w") as fh:
        for p in data:
            fh.write(",".join(repr(v) for v in p.coords) + "\n")


@dataclass
class RunStats:
    """Per-run instrumentation surfaced in reports and scaling checks.

    The stage times (whole-dataset tree build, canopy with its thresholds,
    regions, map, reduce) together make up ``t_total``.
    """

    region_count: int = 0
    max_region_size: int = 0
    t_tree: float = 0.0
    t_canopy: float = 0.0
    t_regions: float = 0.0
    t_map: float = 0.0
    t_reduce: float = 0.0
    t_total: float = 0.0
    uf_ops: int = 0
    uf_hops: int = 0


@dataclass
class ClusterResult:
    """Final labeling: labels[i] is the minimum member id of i's cluster, or
    NOISE for points in no cluster."""

    labels: list[int]
    core_flags: set[int] = field(default_factory=set)
    stats: RunStats = field(default_factory=RunStats)

    @property
    def n_clusters(self) -> int:
        return len({lb for lb in self.labels if lb != NOISE})

    @property
    def noise_count(self) -> int:
        return sum(1 for lb in self.labels if lb == NOISE)
