"""Seeded input generators for the benchmark workloads.

The generators live here rather than in ``dapclust.datagen`` so that a
refactor of the package cannot shift the benchmark's inputs. Every input is a
pure function of its seed (an int or a ``numpy.random.SeedSequence``): a
numpy ``Generator`` built from it draws all coordinates, and the points are
written to CSV in the shortest round-tripping decimal form, which
``dapclust.load_csv`` reads back exactly.
"""

from __future__ import annotations

import numpy as np


def _grid_centers(count: int, dim: int, spacing: float) -> np.ndarray:
    """Blob centers on a square grid in the first two coordinates."""
    side = int(np.ceil(np.sqrt(count)))
    centers = np.zeros((count, dim))
    for i in range(count):
        centers[i, 0] = (i % side) * spacing
        centers[i, 1] = (i // side) * spacing
    return centers


def _blobs(rng, sizes, sigmas, dim, spacing):
    centers = _grid_centers(len(sizes), dim, spacing)
    coords = np.concatenate(
        [c + rng.normal(0.0, s, size=(k, dim)) for c, k, s in zip(centers, sizes, sigmas)]
    )
    truth = np.repeat(np.arange(len(sizes)), sizes)
    return coords, truth


def _shuffle(rng, coords, truth):
    order = rng.permutation(len(coords))
    return coords[order], truth[order]


def blobs(seed, n: int, blobs: int, dim: int, spacing: float = 40.0):
    """n points in equal Gaussian blobs (sigma 1) ``spacing`` apart, shuffled."""
    rng = np.random.default_rng(seed)
    sizes = [n // blobs + (1 if i < n % blobs else 0) for i in range(blobs)]
    coords, truth = _blobs(rng, sizes, [1.0] * blobs, dim, spacing)
    return _shuffle(rng, coords, truth)


def mixed_hotspots(seed, n: int, repeats: int, spacing: float = 60.0):
    """Six 2-D blobs with sigma 0.3, 1 and 3 (two each, a 10x density range),
    plus one hotspot in each of the first five blobs, shuffled.

    A hotspot is the blob point nearest the blob's center, repeated
    ``repeats`` more times, and its copies carry that blob as their truth.
    Placing it at the center keeps the duplicate load alike across seeds.
    """
    rng = np.random.default_rng(seed)
    sigmas = [0.3, 1.0, 3.0, 0.3, 1.0, 3.0]
    sizes = [n // 6 + (1 if i < n % 6 else 0) for i in range(6)]
    coords, truth = _blobs(rng, sizes, sigmas, 2, spacing)
    centers = _grid_centers(6, 2, spacing)
    src = []
    for b in range(5):
        members = np.flatnonzero(truth == b)
        offsets = coords[members] - centers[b]
        src.append(members[np.argmin((offsets**2).sum(axis=1))])
    coords = np.concatenate([coords, np.repeat(coords[src], repeats, axis=0)])
    truth = np.concatenate([truth, np.repeat(truth[src], repeats)])
    return _shuffle(rng, coords, truth)


def write_csv(path, coords: np.ndarray) -> None:
    """One point per line, each value in its shortest round-tripping form."""
    with open(path, "w") as fh:
        for row in coords.tolist():
            fh.write(",".join(repr(v) for v in row) + "\n")
