"""Stage tracing from outside the package.

The benchmark wraps the package's public functions at run time, records the
time and number of calls into each, and restores the originals afterwards.
Nothing under ``src/`` knows about it. Times are inclusive: a range query made
inside ``build_regions`` counts towards both ``sstree.range_s`` and
``pipeline.regions_s``.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

from dapclust import canopy, density, pipeline, sstree

_MB = 2**20


@contextlib.contextmanager
def patched(replacements):
    """Swap functions for wrappers in every loaded ``dapclust`` module.

    ``replacements`` maps an original function to its wrapper. Modules import
    functions by name, so each module that holds the original is patched.
    """
    by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dapclust" or name.startswith("dapclust.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in by_id:
                undo.append((mod, attr, value))
                setattr(mod, attr, by_id[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in undo:
            setattr(mod, attr, value)


@contextlib.contextmanager
def patched_methods(cls, wrappers):
    """Swap methods (plain or classmethod) of ``cls`` for wrappers of their
    underlying functions."""
    saved = {name: cls.__dict__[name] for name in wrappers}
    for name, wrap in wrappers.items():
        raw = saved[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, name, wrap(raw))
    try:
        yield
    finally:
        for name, raw in saved.items():
            setattr(cls, name, raw)


@contextlib.contextmanager
def capture_stages(into: dict):
    """Keep the canopies and regions that ``cluster`` builds, for the checks."""

    def keep(fn, key):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            into[key] = out
            return out

        return wrapper

    with patched(
        {
            pipeline.canopy_cluster: keep(pipeline.canopy_cluster, "canopies"),
            pipeline.build_regions: keep(pipeline.build_regions, "regions"),
        }
    ):
        yield


class Tracer:
    """Per-layer call counts, inclusive seconds and result counts.

    Updates take a lock, since the map step may run on a thread pool.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()

    def _wrap(self, key, fn, tally=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            with self._lock:
                self.calls[key] += 1
                self.seconds[key] += dt
                if tally is not None:
                    tally(self.counts, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def active(self):
        def hits(counts, ids):
            counts["sstree.range_hits"] += len(ids)

        def canopies(counts, out):
            counts["canopy.canopies"] += len(out)

        def cores(counts, out):
            counts["density.core_points"] += len(out.core_flags)

        def regions(counts, out):
            sizes = [len(r.member_ids) for r in out]
            counts["pipeline.regions"] += len(out)
            counts["pipeline.region_max"] = max([counts["pipeline.region_max"], *sizes])
            counts["pipeline.memberships"] += sum(sizes)

        functions = {
            canopy.estimate_thresholds: self._wrap("canopy.thresholds", canopy.estimate_thresholds),
            canopy.canopy_cluster: self._wrap("canopy.sweep", canopy.canopy_cluster, canopies),
            density.estimate_epsilon: self._wrap("density.epsilon", density.estimate_epsilon),
            density.density_cluster: self._wrap("density.merge", density.density_cluster, cores),
            pipeline.build_regions: self._wrap("pipeline.regions", pipeline.build_regions, regions),
        }
        methods = {
            "build": lambda fn: self._wrap("sstree.build", fn),
            "knn": lambda fn: self._wrap("sstree.knn", fn),
            "range": lambda fn: self._wrap("sstree.range", fn, hits),
        }
        with patched(functions), patched_methods(sstree.SsTree, methods):
            yield


def alloc_peak_mb(fn, *args):
    """Run ``fn`` under tracemalloc and return (result, peak MiB allocated
    above the level at the call's start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, (tracemalloc.get_traced_memory()[1] - base) / _MB
    finally:
        tracemalloc.stop()
