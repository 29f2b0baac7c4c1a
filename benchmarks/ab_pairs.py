"""Alternating pairs of the repo benchmark on two checkouts.

    python3 benchmarks/ab_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload prefix_multiturn --seed 0 --pairs 10

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0``
once from each checkout, alternating which side goes first, and reads
its ``host_wall_s``.  Prints every pair, each side's median and
quartiles, the change's win count and the verdict of ROADMAP's "How to
measure": over at least ten pairs, a gain only if the change wins at
least 9 of every 10 *and* the medians differ by more than the parent's
quartile spread (a loss is the same rule with the sides swapped).  A run
whose checks failed, more failed requests on the change's side, or two
different simulated runs (``sim_digest``) void the comparison: the
verdict is "no claim" and the exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float]) -> str:
    """"gain", "loss" or "no claim" for paired lower-is-better values."""
    if len(parent) < 10:
        return "no claim"
    for name, base, other in (("gain", parent, change), ("loss", change, parent)):
        wins = sum(o < b for b, o in zip(base, other))
        q1, base_median, q3 = quartiles(base)
        if 10 * wins >= 9 * len(base) and base_median - statistics.median(other) > q3 - q1:
            return name
    return "no claim"


def problems(parent: Sequence[Dict[str, Any]], change: Sequence[Dict[str, Any]]) -> List[str]:
    """Why the runs of :func:`run_side` cannot back a verdict (none: they can)."""
    found = [f"{side}: a run reported CHECK FAILED"
             for side, runs in (("parent", parent), ("change", change))
             if not all(run["correct"] for run in runs)]
    if sum(run["failed"] for run in change) > sum(run["failed"] for run in parent):
        found.append("change: more failed requests than the parent")
    if len({run["sim_digest"] for run in (*parent, *change)}) > 1:
        found.append("sim_digest differs between runs")
    return found


def run_side(tree: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One untraced run from ``tree``: its ``host_wall_s``, ``sim_digest``,
    ``correct`` and ``failed``."""
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "result.json")
        command = [sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
                   "--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
                   "--scale", str(args.scale), "--out", out]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            payload = json.load(f)
    result = payload["result"]
    return {"host_wall_s": result["metrics"]["host_wall_s"]["value"],
            "sim_digest": payload["extras"]["sim_digest"],
            "correct": result["correct"], "failed": result["failed"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, help="run.py --seconds (default its own)")
    args = parser.parse_args()
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(os.path.abspath(getattr(args, side)), args))
        parent, change = (runs[side][-1]["host_wall_s"] for side in ("parent", "change"))
        print(f"pair {pair + 1} ({order[0]} first): parent {parent:.3f} s, "
              f"change {change:.3f} s, ratio {change / parent:.3f}", flush=True)
    walls = {side: [run["host_wall_s"] for run in side_runs] for side, side_runs in runs.items()}
    for side, values in walls.items():
        q1, median, q3 = quartiles(values)
        print(f"{side}: median {median:.3f} s (quartiles {q1:.3f}-{q3:.3f})")
    wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    print(f"change wins {wins} of {args.pairs} pairs")
    found = problems(runs["parent"], runs["change"])
    for problem in found:
        print(f"NOT COMPARABLE: {problem}")
    claim = "no claim" if found else verdict(walls["parent"], walls["change"])
    print(f"{args.workload} host_wall_s: {claim}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
