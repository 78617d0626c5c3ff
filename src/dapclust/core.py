"""Geometric primitives, the dataset container, and CSV I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from operator import index, sub

import numpy as np

#: Label assigned to points that belong to no cluster.
NOISE = -1

# Array passes that would build one large distance block split it into
# pieces of at most this many entries (one row at the least), which keeps
# their temporaries small: the row blocks of ``kth_distances`` and the
# partition batches and row slabs of the density merge.
_BLOCK_ENTRIES = 2**16


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
    """Euclidean distance between two coordinate sequences: the square root
    of ``squared_distances_to(a, [b])``."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return math.sqrt(squared_distances_to(a, (b,))[0])


# The package's one Euclidean distance rule: squared differences summed one
# coordinate at a time in ascending order, then a correctly rounded square
# root. Both routines below follow it, so they agree bit for bit with each
# other and with the independent oracle loops at every dimension.


def squared_distances_to(q, rows) -> list[float]:
    """Squared Euclidean distances from ``q`` to each coordinate row, as a
    list. The scalar form of the rule, for Python loops over a few rows;
    plain-float rows keep it off numpy-scalar arithmetic."""
    out = []
    for row in rows:
        s = 0.0
        for d in map(sub, q, row):
            s += d * d
        out.append(s)
    return out


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block of squared Euclidean distances: entry (i, j) is between row i of
    ``a`` and row j of ``b``.

    The array form of the rule: entry (i, j) equals
    ``squared_distances_to(a[i], [b[j]])[0]`` bit for bit at every dimension.
    (numpy's ``sum(axis=-1)`` pairs its terms differently from eight
    coordinates on.) Stacked inputs of shape (batch, k, dim) give a
    (batch, k_a, k_b) stack of blocks, one per batch index, by the same rule.
    """
    out = np.zeros(a.shape[:-1] + b.shape[-2:-1])
    diff = np.empty_like(out)
    for j in range(a.shape[-1]):
        np.subtract(a[..., :, j, None], b[..., None, :, j], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def paired_squared_distances(a: np.ndarray, ia, b: np.ndarray, ib) -> np.ndarray:
    """Squared distance between rows ``a[ia[i]]`` and ``b[ib[i]]``, for every
    i, with the bits of ``squared_distances``. Taken one coordinate column at
    a time, so no (pairs, dim) copy is made."""
    out = np.zeros(len(ia))
    diff = np.empty(len(ia))
    for j in range(a.shape[1]):
        np.subtract(a[ia, j], b[ib, j], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def kth_distances(coords: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row ``rows[i]`` of ``coords`` to its k-th nearest
    other row, for 1 <= k < len(coords).

    Blocks of the rows are measured against every row with
    ``squared_distances``, so each distance has the bits of the scalar rule,
    and no block holds more than ``_BLOCK_ENTRIES`` entries.
    """
    out = np.empty(len(rows))
    step = max(1, _BLOCK_ENTRIES // len(coords))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        sq = squared_distances(coords[block], coords)
        sq[np.arange(len(block)), block] = np.inf  # the point itself
        out[lo : lo + step] = np.sqrt(np.partition(sq, k - 1, axis=1)[:, k - 1])
    return out


def bounding_sphere(coords: np.ndarray) -> tuple[tuple[float, ...], float]:
    """Approximate minimum enclosing sphere of a coordinate array.

    Two far-point passes pick a diameter estimate; the radius then expands to
    the farthest point so containment is guaranteed. This is
    ``stacked_bounding_sphere`` of one partition.
    """
    if len(coords) == 0:
        return (), 0.0
    center, radius = stacked_bounding_sphere(coords[None])
    return tuple(center[0].tolist()), float(radius[0])


def stacked_bounding_sphere(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``bounding_sphere`` of each partition of a (b, k, dim) stack, k >= 1:
    the (b, dim) centres and (b,) radii. Each partition starts from its
    first row, and ties go to the lowest row."""
    rows = np.arange(len(pts))

    def sq_to(p):
        return squared_distances(pts, p[:, None, :])[..., 0]

    p1 = pts[rows, np.argmax(sq_to(pts[:, 0]), axis=1)]
    p2 = pts[rows, np.argmax(sq_to(p1), axis=1)]
    center = (p1 + p2) / 2.0
    return center, np.sqrt(sq_to(center).max(axis=1))


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    return distance_coords(a.coords, b.coords)


class Dataset:
    """Immutable, id-ordered collection of points of a single dimension.

    The coordinates live in one read-only (n, dim) float64 array, ``coords``.
    Point ids are the contiguous range 0..n-1 and double as its row indices;
    ``data[i]`` and iteration build ``Point`` objects with plain-float
    coordinates on demand. Instances are never mutated after construction, so
    they can be read concurrently without locking.
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
        arr = np.array([p.coords for p in points], dtype=np.float64)
        self._adopt(arr.reshape(len(points), dim))

    def _adopt(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self._coords = arr
        self.dim = arr.shape[1]

    @classmethod
    def from_coords(cls, rows) -> "Dataset":
        """Build a dataset from coordinate rows (an array, or an iterable of
        sequences); row i gets id i. The coordinates are copied."""
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
        try:
            arr = np.array(rows, dtype=np.float64)
        except ValueError:  # ragged rows
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] == 0 or not np.isfinite(arr).all():
            # Empty or faulty: the checked constructor builds it or names the fault.
            return cls([Point(i, tuple(float(v) for v in row)) for i, row in enumerate(rows)])
        data = cls.__new__(cls)
        data._adopt(arr)
        return data

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, dim) float64 array of all coordinates."""
        return self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def __iter__(self):
        for i, row in enumerate(self._coords.tolist()):
            yield Point(i, tuple(row))

    def __getitem__(self, i: int) -> Point:
        i = range(len(self._coords))[index(i)]
        return Point(i, tuple(self._coords[i].tolist()))


def load_csv(path, skip_header: bool = False) -> Dataset:
    """Load a dataset from a comma-separated file, one point per line.

    Every row must carry the same number of finite numeric fields; violations
    raise ValueError naming the offending (1-based) line. An empty file yields
    an empty dataset of dimension 0.
    """
    rows: list[tuple[float, ...]] = []
    linenos: list[int] = []
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
            try:
                rows.append(tuple(map(float, fields)))
            except ValueError:
                for fi, text in enumerate(fields):
                    try:
                        float(text)
                    except ValueError:
                        raise ValueError(
                            f"row {lineno}: field {fi + 1} is not numeric: {text.strip()!r}"
                        ) from None
            linenos.append(lineno)
    if dim is None:
        return Dataset([], dim=0)
    arr = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        r, fi = bad[0].tolist()
        with open(path, newline="") as fh:  # read the offending line again for its text
            line = next(islice(fh, linenos[r] - 1, None))
        text = line.strip().split(",")[fi].strip()
        raise ValueError(f"row {linenos[r]}: non-finite value {text!r}")
    return Dataset.from_coords(arr)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset in the format load_csv reads.

    Coordinates use the shortest round-tripping decimal form, so a write/read
    cycle reproduces them exactly.
    """
    with open(path, "w") as fh:
        for row in data.coords.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


@dataclass
class RunStats:
    """Per-run instrumentation surfaced in reports and scaling checks.

    The stage times (canopy with its thresholds, regions, map, reduce)
    together make up ``t_total``. ``t_thresholds`` is the part of
    ``t_canopy`` spent estimating the canopy thresholds, 0 when they were
    given.

    The region summary gives the median (p50), 90th percentile (p90, numpy's
    linear interpolation) and maximum over the regions of their size, their
    scan radius epsilon and their core point count.

    ``uf_ops`` is the number of links folded by the final label
    propagation: one per clustered (region, point) membership in the
    pipeline's reduce, and m per point (fewer when m >= n) in
    ``naive_cluster``. ``uf_hops`` is always 0; it dates from a union-find
    that no clusterer uses any more, and the benchmark still reads it.
    """

    region_count: int = 0
    max_region_size: int = 0
    region_size_p50: float = 0.0
    region_size_p90: float = 0.0
    epsilon_p50: float = 0.0
    epsilon_p90: float = 0.0
    epsilon_max: float = 0.0
    region_core_p50: float = 0.0
    region_core_p90: float = 0.0
    region_core_max: int = 0
    t_thresholds: float = 0.0
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
