"""Stage times of ``cluster`` in two checkouts, measured in one process, so
that a change's stage bounds can be compared with its parent's under the
same machine load.

Usage, from the repository root:

    python3 tools/stages.py PARENT CHANGE
    python3 tools/stages.py PARENT CHANGE --seeds 1-3 --rounds 21 --workload blobs_d8

PARENT and CHANGE are checkouts (directories holding ``src/dapclust``). The
``dapclust`` package of each is loaded under its own module name. The
inputs are the benchmark's, made by CHANGE's ``bench/inputs.py`` (read
only) exactly as ``bench/run.py`` makes them, at its m, for each seed.
Each side clusters its own copy of every input. In every round each input
is clustered once by each side, the parent first in odd rounds and the
change first in even ones; a round's value for a workload is the sum over
its inputs. Per workload, each stage of ``RunStats`` (``t_thresholds``,
``t_canopy``, ``t_regions``, ``t_map``, ``t_reduce`` and ``t_total``, wall
time) and the call's CPU time (``cpu``) print, in ms, each side's median
[first quartile, third quartile] over the rounds and "lower in k of n", the
rounds in which the change read lower than the parent.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STAGES = ("t_thresholds", "t_canopy", "t_regions", "t_map", "t_reduce", "t_total", "cpu")


def load(checkout: Path, name: str):
    """The ``dapclust`` package of ``checkout``, imported as ``name``."""
    src = checkout.resolve() / "src" / "dapclust"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workloads(checkout: Path):
    """The benchmark's workloads as ``bench/run.py`` defines them: name,
    input maker (seed -> coordinates), inputs per seed, m."""
    sys.path.insert(0, str(checkout.resolve() / "bench"))
    import inputs  # noqa: E402  (bench/inputs.py, read only)

    return (
        ("blobs_w2", lambda s: inputs.blobs(s, 10_000, 5, 2)[0], 1, 4),
        ("mixed_hotspots", lambda s: inputs.mixed_hotspots(s, 4_000, 250)[0], 2, 4),
        ("blobs_d8", lambda s: inputs.blobs(s, 1_800, 5, 8)[0], 2, 4),
    )


def spread(values) -> str:
    """Median [first quartile, third quartile] of ``values``, in ms."""
    if len(values) < 2:
        return f"{values[0] * 1e3:.2f}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2 * 1e3:.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", default="1", help="first-last, inclusive, e.g. 1-3, or one seed")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    packages = {side: load(path, f"dapclust_{side}") for side, path in zip(SIDES, (args.parent, args.change))}
    for name, make, copies, m in workloads(args.change):
        if args.workload and name not in args.workload:
            continue
        coords = [make(child) for seed in seeds for child in np.random.SeedSequence(seed).spawn(copies)]
        data = {side: [pkg.Dataset.from_coords(c) for c in coords] for side, pkg in packages.items()}
        cfgs = {side: pkg.PipelineConfig(m=m) for side, pkg in packages.items()}
        rounds = {side: [] for side in SIDES}
        for r in range(args.rounds):
            totals = {side: dict.fromkeys(STAGES, 0.0) for side in SIDES}
            for i in range(len(coords)):
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    gc.collect()
                    t0 = time.process_time()
                    st = packages[side].cluster(data[side][i], cfgs[side]).stats
                    totals[side]["cpu"] += time.process_time() - t0
                    for stage in STAGES[:-1]:
                        totals[side][stage] += getattr(st, stage)
            for side in SIDES:
                rounds[side].append(totals[side])
        print(f"{name}: {len(coords)} inputs, {args.rounds} rounds, ms per round")
        for stage in STAGES:
            values = {side: [t[stage] for t in rounds[side]] for side in SIDES}
            lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
            print(
                f"  {stage}: parent {spread(values['parent'])} -> change {spread(values['change'])}, "
                f"lower in {lower} of {args.rounds}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
