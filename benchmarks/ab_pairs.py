"""Alternating pairs of the repo benchmark on two checkouts.

    python3 benchmarks/ab_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload prefix_multiturn --seed 0 --pairs 10

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0``
once from each checkout, alternating which side goes first, and reads
its ``host_wall_s`` and ``host_step_p50_us``.  Prints every pair, and per
metric each side's median and quartiles, the change's win count and the
verdict of ROADMAP's "How to measure": over at least ten pairs, a gain
only if the change wins at least 9 of every 10 *and* the medians differ
by more than the parent's quartile spread (a loss is the same rule with
the sides swapped).  A run
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

#: Lower-is-better host metrics read from every run, each judged alone:
#: the whole drain, and the typical step.
METRICS = (("host_wall_s", "s", 3), ("host_step_p50_us", "us", 1))


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
    """One untraced run from ``tree``: its :data:`METRICS`, ``sim_digest``,
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
    values = {name: result["metrics"][name]["value"] for name, _, _ in METRICS}
    return {**values, "sim_digest": payload["extras"]["sim_digest"],
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
        cells = []
        for name, unit, digits in METRICS:
            parent, change = (runs[side][-1][name] for side in ("parent", "change"))
            cells.append(f"{name} parent {parent:.{digits}f} {unit}, "
                         f"change {change:.{digits}f} {unit}, ratio {change / parent:.3f}")
        print(f"pair {pair + 1} ({order[0]} first): " + "; ".join(cells), flush=True)
    found = problems(runs["parent"], runs["change"])
    for problem in found:
        print(f"NOT COMPARABLE: {problem}")
    for name, unit, digits in METRICS:
        values = {side: [run[name] for run in side_runs] for side, side_runs in runs.items()}
        for side, side_values in values.items():
            q1, median, q3 = quartiles(side_values)
            print(f"{name} {side}: median {median:.{digits}f} {unit} "
                  f"(quartiles {q1:.{digits}f}-{q3:.{digits}f})")
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        print(f"{name}: change wins {wins} of {args.pairs} pairs")
        claim = "no claim" if found else verdict(values["parent"], values["change"])
        print(f"{args.workload} {name}: {claim}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
