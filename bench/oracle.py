"""Independent label oracle and output properties for the benchmark.

Nothing here calls the package's distance, index, merge or union-find code.
The oracle starts from the regions that ``build_regions`` returned, recomputes
each region's density merge by brute force, and folds the regions into global
labels itself. Squared distances are accumulated one coordinate at a time in
ascending order, the same order as the package's scalar loop, so the two agree
bit for bit in any dimension (numpy's ``sum(axis=-1)`` does not at d >= 8).

Every check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

NOISE = -1

# Containment slack, as in ``Sphere.contains``: region radii that come from the
# vectorised bounding sphere are only accurate to float rounding.
_SLACK = 1e-9


def _sq_to(points: np.ndarray, center) -> np.ndarray:
    """Squared distances from each row to one center, ascending coordinates."""
    s = np.zeros(len(points))
    for j in range(points.shape[1]):
        diff = points[:, j] - center[j]
        s += diff * diff
    return s


def _pairwise_sq(points: np.ndarray) -> np.ndarray:
    s = np.zeros((len(points), len(points)))
    for j in range(points.shape[1]):
        col = points[:, j]
        diff = col[:, None] - col[None, :]
        s += diff * diff
    return s


def _components(edges: np.ndarray) -> np.ndarray:
    """Smallest position in each node's connected component (symmetric
    boolean adjacency), by min-label propagation with pointer jumping."""
    k = len(edges)
    lab = np.arange(k)
    while True:
        nbr = np.where(edges, lab[None, :], k).min(axis=1, initial=k)
        new = np.minimum(lab, nbr)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def region_labels(ids: np.ndarray, points: np.ndarray, epsilon: float, m: int) -> np.ndarray:
    """Brute-force density merge of one region (ids ascending).

    A point is core when its closed epsilon-ball, itself included, holds at
    least m region points; a core point joins its whole ball. A component
    with no core point is noise; any other is labelled by its minimum id.
    """
    ball = np.sqrt(_pairwise_sq(points)) <= epsilon
    core = ball.sum(axis=1) >= m
    edges = ball & core[:, None]
    comp = _components(edges | edges.T)
    has_core = np.zeros(len(ids), dtype=bool)
    has_core[comp[core]] = True
    return np.where(has_core[comp], ids[comp], NOISE)


def oracle_labels(coords: np.ndarray, regions) -> list[int]:
    """Global labels from the regions: clusters that share a clustered point
    fuse, a point is noise only when every region holding it calls it noise,
    and each label is its cluster's minimum id."""
    n = len(coords)
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    clustered = np.zeros(n, dtype=bool)
    for region in regions:
        ids = np.array(sorted(region.member_ids), dtype=np.intp)
        local = region_labels(ids, coords[ids], region.epsilon, region.m)
        keep = local != NOISE
        clustered[ids[keep]] = True
        for pid, lb in zip(ids[keep].tolist(), local[keep].tolist()):
            a, b = root(pid), root(lb)
            if a != b:
                parent[max(a, b)] = min(a, b)
    # Roots are always the smaller id, so a root is its set's minimum member;
    # noise points never join a set, so every set is all clustered points.
    return [root(i) if clustered[i] else NOISE for i in range(n)]


def check_regions(coords: np.ndarray, regions, cap: int) -> list[str]:
    """Coverage, the per-point cap and sphere containment."""
    fails = []
    held = np.zeros(len(coords), dtype=int)
    for r in regions:
        ids = np.array(sorted(r.member_ids), dtype=np.intp)
        held[ids] += 1
        dist = np.sqrt(_sq_to(coords[ids], r.sphere.center))
        outside = int((dist > r.sphere.radius + _SLACK).sum())
        if outside:
            fails.append(f"region {r.id}: {outside} members outside its sphere")
    if (held == 0).any():
        fails.append(f"{int((held == 0).sum())} points in no region")
    if held.max(initial=0) > cap:
        fails.append(f"{int((held > cap).sum())} points in more than {cap} regions")
    return fails


def check_canopies(n: int, canopies) -> list[str]:
    covered = np.zeros(n, dtype=bool)
    for c in canopies:
        covered[list(c.member_ids)] = True
    missing = int((~covered).sum())
    return [f"{missing} points in no canopy"] if missing else []


def adjusted_rand_index(a, b) -> float:
    """Pair-counting agreement; noise is one more group on each side.

    Kept apart from ``dapclust.adjusted_rand_index`` so that a change to the
    package cannot move the benchmark's ``ari``.
    """
    a = np.unique(np.asarray(a), return_inverse=True)[1]
    b = np.unique(np.asarray(b), return_inverse=True)[1]
    joint = np.unique(a * (b.max() + 1) + b, return_counts=True)[1]

    def pairs(counts):
        counts = counts.astype(float)
        return float((counts * (counts - 1) / 2).sum())

    n = len(a)
    sum_joint = pairs(joint)
    sum_a, sum_b = pairs(np.bincount(a)), pairs(np.bincount(b))
    expected = sum_a * sum_b / (n * (n - 1) / 2)
    top = (sum_a + sum_b) / 2
    if top == expected:
        return 1.0
    return (sum_joint - expected) / (top - expected)


def spurious_clusters(labels: np.ndarray, truth: np.ndarray, m: int) -> int:
    """Clusters smaller than m+1 whose points all lie in one planted blob."""
    keep = labels != NOISE
    sizes = np.unique(labels[keep], return_counts=True)[1]
    pairs = np.unique(np.stack([labels[keep], truth[keep]]), axis=1)
    blobs = np.unique(pairs[0], return_counts=True)[1]
    return int(((sizes < m + 1) & (blobs == 1)).sum())


def check_labels(labels, expected, truth, ari_min: float | None) -> list[str]:
    """The output against the oracle's labels and the planted truth."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    fails = []
    if labels.shape != np.asarray(expected).shape:
        return [f"{len(labels)} labels, expected {len(expected)}"]
    wrong = np.flatnonzero(labels != np.asarray(expected))
    if len(wrong):
        fails.append(f"{len(wrong)} labels differ from the oracle, first at point {wrong[0]}")

    keep = labels != NOISE
    ids = np.flatnonzero(keep)
    values, first = np.unique(labels[keep], return_index=True)
    if (labels < NOISE).any() or not np.array_equal(values, ids[first]):
        fails.append("labels are not the minimum member id of their cluster")

    pairs = np.unique(np.stack([labels[keep], truth[keep]]), axis=1)
    spans = np.unique(pairs[0], return_counts=True)[1]
    if (spans > 1).any():
        fails.append(f"{int((spans > 1).sum())} clusters span two planted blobs")

    for blob in np.unique(truth):
        members = labels[truth == blob]
        counts = np.unique(members[members != NOISE], return_counts=True)[1]
        if counts.max(initial=0) * 2 <= len(members):
            fails.append(f"blob {blob}: no cluster holds most of its {len(members)} points")

    if ari_min is not None:
        ari = adjusted_rand_index(truth, labels)
        if ari < ari_min:
            fails.append(f"ari {ari:.4f} below {ari_min}")
    return fails
