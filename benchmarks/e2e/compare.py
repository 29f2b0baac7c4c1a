"""Compare two ledgers written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py base.json change.json

One row per (workload, end-to-end metric): both values (each already a
median over the untraced repeats of its run), the ratio change / base,
the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      -- the change is worse than the base by more than the bound;
* ``unresolved`` -- a host-time metric whose noise floor exceeds its
  bound, so the row shows nothing either way: the spread of ``host_wall_s``
  over either file's own repeats is wider than the bound;
* ``ok``         -- otherwise.

Then, per workload, whether the two files served the same inputs
(``input_digest``) and whether every simulated value (``sim_digest``) and
every ``.calls`` count (``calls_digest``) is identical -- the one
comparison a change meant only to make the simulator faster must pass.
Exit status 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def repeat_spread(entry: Dict[str, Any]) -> float:
    """(max - min) / median of ``host_wall_s`` over the file's own repeats."""
    walls = entry["end_to_end_extras"]["host_wall_s_repeats"]
    return (max(walls) - min(walls)) / statistics.median(walls)


def verdict(metric: Dict[str, Any], base: float, change: float, noise: float) -> str:
    ratio = change / base
    worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if worse_by > metric["bound"]:
        return "worse"
    if metric["name"].startswith(("host_", "setup_")) and noise > metric["bound"]:
        return "unresolved"
    return "ok"


def compare(base: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Print the table; returns the ``worse`` rows."""
    worse: List[str] = []
    print(f"{'workload':<18}{'metric':<24}{'base':>14}{'change':>14}"
          f"{'change/base':>13}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"][workload], change["workloads"][workload]
        noise = max(repeat_spread(a), repeat_spread(b))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = a["end_to_end"][name]["value"], b["end_to_end"][name]["value"]
            row = verdict(metric, x, y, noise)
            if row == "worse":
                worse.append(f"{workload}/{name}")
            print(f"{workload:<18}{name:<24}{x:>14.6g}{y:>14.6g}"
                  f"{y / x:>13.4f}{metric['bound']:>7.2f}  {row}")
        same = {
            key: a[f"{section}_extras"][key] == b[f"{section}_extras"][key]
            for section, key in (
                ("end_to_end", "input_digest"), ("end_to_end", "sim_digest"),
                ("per_layer", "calls_digest"),
            )
        }
        print(f"{workload:<18}repeat spread {noise:.4f}; " + ", ".join(
            f"{key} {'identical' if ok else 'DIFFERS'}" for key, ok in same.items()
        ))
    return worse


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ledgers = []
    for path in argv:
        with open(path) as f:
            ledgers.append(json.load(f))
    worse = compare(ledgers[0], ledgers[1], spec)
    if worse:
        print("worse: " + ", ".join(worse))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
