"""Benchmark runs of two checkouts in alternating pairs, summarised per
workload and metric, so that a change can be compared with its parent.

Usage, from the repository root:

    python3 tools/pairs.py PARENT CHANGE --seeds 2201-2210
    python3 tools/pairs.py PARENT CHANGE --seeds 1 --trace 1 --out runs.json

PARENT and CHANGE are checkouts (directories holding ``bench/run.py``). For
each workload of CHANGE's ``BENCHMARK.json`` and each seed, ``bench/run.py``
runs once in each checkout for the ``run_seconds`` of that file, one process
at a time: the parent first on odd seeds, the change first on even ones.
Each workload then prints, per side, the seeds whose run failed, the runs
whose checks failed and the total of failed operations, and each metric
prints the median [quartiles] of each side and "lower in k of n", the pairs
in which the change read lower than the parent. ``--out`` writes every run
as a JSON list of {"side", "commit", "workload", "seed", "trace", "result"}
objects, where "result" is the last line that ``bench/run.py`` printed (null
when the run failed), and "commit" is the side's ``git rev-parse --short
HEAD``, with "+dirty" when that checkout had uncommitted changes at the
start.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def commit(checkout: Path) -> str:
    """The short commit of ``checkout``, with "+dirty" when it has
    uncommitted changes."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()

    return git("rev-parse", "--short", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One ``bench/run.py`` run in ``checkout``: its result, or None."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"{checkout}: {' '.join(cmd[1:])} failed: {done.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values) -> str:
    """Median [first quartile, third quartile] of ``values``."""
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def summary(runs) -> list[str]:
    """One line per workload and side, then one per metric of the pairs."""
    pairs = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        pairs.setdefault(key, {})[run["side"]] = run["result"]
    lines = []
    for workload in dict.fromkeys(key[0] for key in pairs):
        mine = {key: p for key, p in pairs.items() if key[0] == workload}
        both = [p for p in mine.values() if len(p) == 2 and None not in p.values()]
        lines.append(f"{workload}: {len(both)} pairs")
        for side in SIDES:
            results = [p[side] for p in mine.values() if p.get(side) is not None]
            none = [key[1] for key, p in mine.items() if side in p and p[side] is None]
            lines.append(
                f"  {side}: runs failed on seeds {none or 'none'}, "
                f"{sum(not r['correct'] for r in results)} runs with failed checks, "
                f"{sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} operations failed"
            )
        for metric in both[0]["parent"]["metrics"] if both else ():
            values = {side: [p[side]["metrics"][metric]["value"] for p in both] for side in SIDES}
            lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
            lines.append(
                f"  {metric}: parent {spread(values['parent'])} -> change {spread(values['change'])}, "
                f"lower in {lower} of {len(both)}"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", required=True, help="first-last, inclusive, e.g. 2201-2210, or one seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write every run here as JSON")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    commits = {side: commit(path) for side, path in checkouts.items()}
    runs = []
    for workload in workloads:
        for seed in seeds:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = bench(checkouts[side], workload, seed, spec["run_seconds"], args.trace)
                runs.append({
                    "side": side,
                    "commit": commits[side],
                    "workload": workload,
                    "seed": seed,
                    "trace": args.trace,
                    "result": result,
                })
                if args.out:
                    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
