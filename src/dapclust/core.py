"""Geometric primitives, the sorts of pair arrays, the dataset container,
the partitions of its ids, and CSV I/O."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import index, sub

import numpy as np

#: Label assigned to points that belong to no cluster.
NOISE = -1

# Array passes that would build one large distance block split it into
# pieces of at most this many entries (one row at the least), which keeps
# their temporaries small: the partition batches and row slabs of
# ``kth_distances`` and of the density merge, and the chunks of grid pairs.
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
#
# From _GRAM_DIM coordinates on, large blocks whose m-th smallest entries or
# whose entries within a radius are wanted go through a filter instead (see
# ``_filters`` and ``_gram_factors``): a matrix product approximates the
# block, a bound on its error, rounded outward, decides every entry it can,
# and the rule re-measures the rest, so the results keep the rule's bits.
# Measured on ``cluster`` of make_blobs(10000, 5, seed=1, dim=d) at m = 4,
# CPU ms, median of 3 calls alternating in one process, direct / filtered:
# d = 3 945 / 992 (980 / 928 and 674 / 675 in two earlier runs), d = 4
# 2065 / 1667, d = 5 3897 / 2299, d = 6 5610 / 2677, d = 7 4452 / 2034 and
# d = 8 3765 / 1600. At d = 3 it does not pay for its extra code path.
_GRAM_DIM = 4


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
    out = np.empty(a.shape[:-1] + b.shape[-2:-1])
    diff = np.empty_like(out)
    for j in range(a.shape[-1]):
        # The first square goes straight into ``out``: +0.0 + x == x.
        d = diff if j else out
        np.subtract(a[..., :, j, None], b[..., None, :, j], out=d)
        np.multiply(d, d, out=d)
        if j:
            out += diff
    return out


def paired_squared_distances(a: np.ndarray, ia, b: np.ndarray, ib) -> np.ndarray:
    """Squared distance between rows ``a[ia[i]]`` and ``b[ib[i]]``, for every
    i, with the bits of ``squared_distances``. Taken one coordinate column at
    a time, so no (pairs, dim) copy is made."""
    out = np.empty(len(ia))
    diff = np.empty(len(ia))
    for j in range(a.shape[1]):
        d = diff if j else out  # as in ``squared_distances``
        np.subtract(a[ia, j], b[ib, j], out=d)
        np.multiply(d, d, out=d)
        if j:
            out += diff
    return out


def _filters(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the block of stacks ``a`` and ``b`` goes through the filter:
    from ``_GRAM_DIM`` coordinates on, when the direct block would take at
    least 2**17 coordinate differences. The filter's fixed cost, some 40
    numpy calls, is about that of the rule over so many. Its time against
    the direct block's at d = 8 was 2.0-2.3 times at 1,440 entries, 1.1-1.2
    at 7,200, 0.6-0.7 at 20,000 and 0.5 at 64,800; at d = 4, 1.0-1.2 at
    20,000 and 0.8-0.9 at 64,800."""
    dim = a.shape[-1]
    return dim >= _GRAM_DIM and dim * a.shape[0] * a.shape[1] * b.shape[1] >= 2**17


def _gram_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filter's approximate block, as the factors of one matrix product:
    for stacks ``a`` (P, r, dim) and ``b`` (P, k, dim), ``_gram(left,
    right)`` is a (P, r, k) block G of approximate squared distances, and
    the (P,) bound delta has |G - R| <= delta for every entry of partition
    p, where R is that entry of ``squared_distances(a, b)``. delta is NaN
    where no bound is certified, so that every cut made with it compares
    false.

    Each partition is centred on its first row of ``a``: a' = fl(a - c) and
    b' = fl(b - c), with squared norms na and nb. ``left`` holds the rows
    [-2 a', 1, na] and ``right`` the C-contiguous columns [b', nb, 1].

    The bound. Let u = 2**-53, d = dim, g_n = n u / (1 - n u), and s^2 the
    partition's largest computed centred squared norm; every exact one is
    at most S^2 = s^2 / (1 - g_d). For a row x of a and y of b, let D be
    their exact squared distance and D' that of x' and y'.
    - Centring moves each coordinate by at most u of its centred magnitude,
      so each coordinate difference by e_j <= u (|x'_j| + |y'_j|), and
      |D - D'| <= (2u + u^2) (|x'| + |y'|)^2 <= (8u + 4u^2) S^2.
    - The norms, summed in any order, are each within g_d of exact: 2 g_d S^2.
    - The product sums d + 2 terms in any order, with or without fused
      multiply-adds: within g_{d+2} of their absolute sum, 4 (1 + g_d) S^2.
    - The rule rounds each difference, each square and d - 1 partial sums:
      |R - D| <= g_{d+2} D, and D <= 4 (1 + u)^2 S^2.
    - The callers' cuts, fl(tau +- 2 delta) with |tau| <= 4.01 S^2, round
      by at most 2.01 u S^2 per delta.
    - Each of the 4d + 2 products may underflow by 2**-1075; additions
      lose nothing there.
    In all about (10d + 26) u S^2 = (5d + 13) 2**-52 S^2, plus
    (d + 1) 2**-1073. delta = fl((16d + 32) (fl(s^2 2**-52) + 2**-1074))
    is more than twice that at every d, which covers the (1 + O(d u))
    factors left out above and the two roundings of delta itself. Where
    s^2 > 2**1020 (or overflows) delta is NaN; elsewhere every term and
    partial sum above is below 8 s^2, so nothing overflows.
    """
    dim, (parts, r), k = a.shape[2], a.shape[:2], b.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such partitions get no bound
        centre = a[:, :1]
        a, b = a - centre, b - centre
        na = np.einsum("pij,pij->pi", a, a)
        nb = np.einsum("pij,pij->pi", b, b)
        left = np.concatenate([-2.0 * a, np.ones((parts, r, 1)), na[..., None]], axis=2)
        right = np.empty((parts, dim + 2, k))
        right[:, :dim] = b.swapaxes(1, 2)
        right[:, dim] = nb
        right[:, dim + 1] = 1.0
    s2 = np.maximum(na.max(axis=1), nb.max(axis=1))
    delta = (16 * dim + 32) * (s2 * 2.0**-52 + 2.0**-1074)
    delta[~(s2 <= 2.0**1020)] = np.nan
    return left, right, delta


def _gram(left: np.ndarray, right: np.ndarray, out=None) -> np.ndarray:
    """The block G of ``_gram_factors``, written into ``out`` when given.
    The product runs in pieces of M * N * K <= 2**19 (2**18 when M = 1).
    Larger ones make OpenBLAS start its threads: on a shared 2-core VM a
    182 x 360 x 16 product took 0.26 to 9 ms against 29 to 34 us at K = 12,
    and its idle thread then spun for 0.13 s of a 0.5 s sleep."""
    (parts, r, dim2), k = left.shape, right.shape[2]
    g = np.empty((parts, r, k)) if out is None else out
    cols = max(1, min(k, 2**18 // dim2))
    rows = max(1, 2**19 // (cols * dim2))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, k, cols):
            for i in range(0, r, rows):
                np.matmul(left[:, i : i + rows], right[:, :, c : c + cols], out=g[:, i : i + rows, c : c + cols])
    return g


def _remeasure(a: np.ndarray, b: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The entries ``at``, flat indices into the (P, r, k) block of
    ``squared_distances(a, b)``, with its bits: the squared differences of
    each pair of rows summed by ``np.cumsum``, one coordinate after another.
    A few entries a call, so whole rows are gathered, not columns as in
    ``paired_squared_distances``, whose per-column calls would cost more
    than the entries."""
    (r, dim), k = a.shape[1:], b.shape[1]
    row = at // k
    diff = a.reshape(-1, dim)[row] - b.reshape(-1, dim)[row // r * k + at % k]
    diff *= diff
    return np.cumsum(diff, axis=1)[:, -1]


def kth_squared_distances(a: np.ndarray, b: np.ndarray, j: int) -> np.ndarray:
    """The j-th smallest (from 0) entry of each row of
    ``squared_distances(a, b)``, for stacks ``a`` (P, r, dim) and ``b``
    (P, k, dim), j < k: a (P, r) array with the bits of the rule.

    Below ``_GRAM_DIM`` coordinates it partitions that block. From there on
    it filters (see ``_gram_factors``). With tau the j-th smallest G of a row, which
    lies within delta of the row's j-th smallest R, an entry with
    G < fl(tau - 2 delta) has R below that R, and one with
    G > fl(tau + 2 delta) has R above it. So the rule re-measures only the
    entries in between, usually one per row, and the row's j-th smallest R
    is their (j - L)-th smallest, where L counts the entries below. A
    partition with no bound, or with a row whose entries in between cannot
    hold that rank, takes the direct block.
    """
    if not _filters(a, b):
        return np.partition(squared_distances(a, b), j, axis=-1)[..., j]
    left, right, delta = _gram_factors(a, b)
    g = _gram(left, right)
    parts, r, k = g.shape
    # Each row's j-th smallest, partitioned in place; then the block again,
    # which costs less than a copy of it (any evaluation keeps the bound).
    g.partition(j, axis=-1)
    tau = g[..., j].copy()
    _gram(left, right, g)
    lo, hi = tau - 2.0 * delta[:, None], tau + 2.0 * delta[:, None]
    at = np.flatnonzero(g <= hi[..., None])
    row = at // k  # ascending
    near = g.ravel()[at] >= lo.ravel()[row]
    rank = j - np.bincount(row[~near], minlength=parts * r)
    at, row = at[near], row[near]
    sq = _remeasure(a, b, at)
    count = np.bincount(row, minlength=parts * r)
    first = np.cumsum(count) - count
    ok = (rank >= 0) & (rank < count)
    out = np.zeros(parts * r)
    out[ok] = sq[first[ok]]  # the one entry of most rows
    many = ok & (count > 1)
    if many.any():
        picked = np.repeat(many, count)
        sq, row, at = sq[picked], row[picked], at[picked]
        out[many] = sq[pair_order(row, sq, at, g.size)[np.cumsum(count[many]) - count[many] + rank[many]]]
    out = out.reshape(parts, r)
    bad = np.isnan(delta) | ~ok.reshape(parts, r).all(axis=1)
    if bad.any():
        out[bad] = np.partition(squared_distances(a[bad], b[bad]), j, axis=-1)[..., j]
    return out


def within_distance(a: np.ndarray, b: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Whether each entry of ``np.sqrt(squared_distances(a, b))`` is at most
    its partition's ``radius``, for stacks ``a`` (P, r, dim) and ``b``
    (P, k, dim) and radii (P,): a (P, r, k) boolean block, with the rule's
    answer for every entry.

    Below ``_GRAM_DIM`` coordinates it measures that block. From there on it
    filters (see ``_gram_factors``), with e = fl(radius * radius). An entry with
    G <= fl(fl(e (1 - 2**-49)) - 2 delta) has R <= radius^2, so it is in the
    ball. One with G > fl(fl(e (1 + 2**-49)) + 2 delta) has
    R > radius^2 (1 + 2**-51) + 2**-1074, so its correctly rounded root
    exceeds the radius by more than half an ulp, and it is out. The rule
    re-measures the entries in between. A partition with no bound takes the
    direct block.
    """
    if not _filters(a, b):
        return np.sqrt(squared_distances(a, b)) <= radius[:, None, None]
    left, right, delta = _gram_factors(a, b)
    g = _gram(left, right)
    parts, r, k = g.shape
    e = radius * radius
    lo = e * (1 - 2.0**-49) - 2.0 * delta
    hi = e * (1 + 2.0**-49) + 2.0 * delta
    hit = g <= lo[:, None, None]
    unsure = g > lo[:, None, None]
    unsure &= g <= hi[:, None, None]
    at = np.flatnonzero(unsure)
    np.put(hit, at, np.sqrt(_remeasure(a, b, at)) <= radius[at // (r * k)])
    bad = np.isnan(delta)
    if bad.any():
        hit[bad] = np.sqrt(squared_distances(a[bad], b[bad])) <= radius[bad, None, None]
    return hit


def pair_order(group: np.ndarray, value: np.ndarray, ids: np.ndarray, id_bound: int) -> np.ndarray:
    """The permutation ``np.lexsort((ids, value, group))``: pairs by group,
    then value, then id, for non-negative groups and ids below ``id_bound``,
    with no two pairs of the same (group, id).

    One default argsort puts the pairs in value order; the runs of equal
    values are then sorted by (run, id), with the runs numbered in value
    order, which leaves the pairs by (value, id). Each pair's position in
    that order, plus its group * len, makes a unique int64 key below the
    number of pairs times the largest group, and one sort of the keys gives
    the permutation. Pairs of equal
    (value, id) are of different groups, so the order that the sorts give
    them cannot show in the result.
    """
    n = len(value)
    order = np.argsort(value)
    ascending = value[order]
    del value
    new = np.ones(n, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=new[1:])
    del ascending
    tied = ~new
    tied[:-1] |= ~new[1:]  # the first of each run too
    at = np.flatnonzero(tied)
    ties = order[at]
    order[at] = ties[np.argsort(np.cumsum(new[at]) * id_bound + ids[ties])]
    key = group[order]
    key *= n
    key += np.arange(n)
    key.sort()
    key %= n
    return order[key]


def copy_ranks(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among the rows with exactly its coordinates (the same
    bits) in ascending row order, and the first of those rows: (rank,
    first), both (n,). A row with no copy has rank 0 and is its own first.
    One stable sort of the rows as raw bytes, one key per row."""
    n = len(coords)
    rows = np.ascontiguousarray(coords)
    rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    new = np.ones(n, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    head = np.flatnonzero(new)[np.cumsum(new) - 1]  # the group's start, per sorted row
    rank = np.empty(n, dtype=np.intp)
    first = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - head
    first[order] = order[head]
    return rank, first


def kth_distances(pts: np.ndarray, m: int, rows=None) -> np.ndarray:
    """Distance from each row of every partition of the (b, k, dim) stack
    ``pts`` to its m-th nearest other row of the partition, or its farthest
    when k <= m, as a (b, k) array; 0 when k <= 1. ``rows``, when given,
    picks the rows measured, the same in every partition, and the result is
    (b, len(rows)).

    The package's row-block k-th-neighbour routine: the pipeline's scan
    radii measure with it, and so do the pilot of ``canopy.kth_nearest``
    and the cell blocks of ``Grid.kth_others`` whose box holds every point.
    The chosen rows are measured against their whole partition in blocks
    of at most ``_BLOCK_ENTRIES`` entries: whole partitions at a time when
    they fit, else row slabs of one partition. Each block's (m + 1)-th
    smallest entry per row, the point itself (exactly 0) counted, comes
    from ``kth_squared_distances``: the partitioned block of
    ``squared_distances``, or, from ``_GRAM_DIM`` coordinates on, the
    filter, which approximates the block by a matrix product and
    re-measures by the rule only the entries that the product's error
    bound leaves uncertain (see ``_gram_factors``). Either way each distance has
    the bits of the scalar rule.
    """
    b, k = pts.shape[:2]
    rows = np.arange(k) if rows is None else np.asarray(rows)
    out = np.zeros((b, len(rows)))
    if k <= 1:
        return out
    kth = min(m, k - 1)  # from 0, counting the point itself
    slab = max(1, min(len(rows), _BLOCK_ENTRIES // k))
    parts = max(1, _BLOCK_ENTRIES // (slab * k))
    for p in range(0, b, parts):
        group = pts[p : p + parts]
        for lo in range(0, len(rows), slab):
            sq = kth_squared_distances(group[:, rows[lo : lo + slab]], group, kth)
            out[p : p + parts, lo : lo + slab] = np.sqrt(sq)
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


class Partitions(Sequence):
    """Partitions of a dataset's point ids, as CSR arrays: partition i holds
    the ids ``members[ptr[i]:ptr[i + 1]]``, ascending, and ``owner`` gives
    the partition of each membership.

    Indexing or iterating gives the objects that a subclass's ``_build``
    makes from the member id lists, built on first use and then kept, so a
    change to one of them stays with it. The arrays do not follow such
    changes.
    """

    def __init__(self, ptr, members):
        self.ptr, self.members = ptr, members

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, i):
        return self._objects[i]

    def __iter__(self):
        return iter(self._objects)

    @cached_property
    def owner(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.ptr))

    @cached_property
    def _objects(self) -> list:
        ids, bounds = self.members.tolist(), self.ptr.tolist()
        return self._build([ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


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

    The stage times (canopy with its thresholds, regions, map, reduce with
    the region summary) together make up ``t_total``: each stage ends at the
    clock reading where the next one starts. ``t_thresholds`` is the part of
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

    ``repeat_points`` counts the points past the (m + 1)-th copy of their
    coordinates, by id, which the pipeline's scan radii and density merge
    leave out of their distance blocks.

    ``region_pairs`` counts the (point, region) pairs of points inside a
    region's sphere before the per-point cap: the pairs that the regions'
    range pass finds and the cap sorts, counted for every point.

    ``distinct_points`` counts the locations (distinct coordinate rows) that
    the regions' range pass measured: one per point, less the copies.
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
    repeat_points: int = 0
    region_pairs: int = 0
    distinct_points: int = 0


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
