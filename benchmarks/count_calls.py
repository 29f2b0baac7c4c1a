"""Exact call counts of one drain on two checkouts.

    python3 benchmarks/count_calls.py PARENT_TREE CHANGE_TREE \\
        --workload vision_open_loop [--scale 1.0] [--observers]

Each tree runs in its own process on this interpreter.  The process puts
the tree's ``src`` and ``benchmarks/e2e`` first on ``sys.path``, makes
the inputs with ``make_inputs(workload, 0, scale)`` and drains
``harness.run_once(workload, inputs, 0)`` (rate index 0, the harness
untouched) under ``sys.setprofile``.  Every ``call`` event is a Python
call and every ``c_call`` event a C call, so Python + C together match
cProfile's total.  The counts are exact and repeat for a seed, where a
timer reads the machine.

Prints a Markdown table of Python calls per ``repro.<package>`` (plus the
harness and everything else), C calls and the total, then the 20
functions whose counts moved most.  Exits 1 when any count differs, like
``diff``: ``count_calls.py . .`` must exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Tuple

#: Per-function rows printed after the package table.
TOP = 20


def _package_of(path: str, repro: str, harness: str) -> Tuple[str, str]:
    """``(row, module)`` of a Python source file: ``repro.<package>`` for
    the tree's package, ``harness`` for ``benchmarks/e2e``, else ``other``."""
    if path.startswith(repro):
        parts = path[len(repro):-len(".py")].split(os.sep)
        module = ".".join(["repro"] + [p for p in parts if p != "__init__"])
        return ("repro." + parts[0] if len(parts) > 1 else "repro"), module
    if path.startswith(harness):
        return "harness", "e2e." + os.path.basename(path)[:-len(".py")]
    return "other", os.path.basename(path)


def count(tree: str, workload_name: str, scale: float, observers: bool) -> Dict[str, Any]:
    """Drain one workload from ``tree`` under ``sys.setprofile``: calls per
    row and per function (run in a fresh process per tree)."""
    src = os.path.realpath(os.path.join(tree, "src"))
    e2e = os.path.realpath(os.path.join(tree, "benchmarks", "e2e"))
    sys.path[:0] = [e2e, src]
    from harness import run_once
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, 0, scale)
    codes: Dict[Any, int] = {}
    builtins: Dict[Any, int] = {}

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            codes[code] = codes.get(code, 0) + 1
        elif event == "c_call":
            builtins[arg] = builtins.get(arg, 0) + 1

    sys.setprofile(profile)
    try:
        run_once(workload, inputs, 0, observers=observers)
    finally:
        sys.setprofile(None)

    repro_root, harness_root = os.path.join(src, "repro") + os.sep, e2e + os.sep
    rows: Dict[str, int] = {}
    functions: Dict[str, int] = {}
    for code, n in codes.items():
        row, module = _package_of(os.path.realpath(code.co_filename), repro_root, harness_root)
        rows[row] = rows.get(row, 0) + n
        name = f"{module}:{getattr(code, 'co_qualname', code.co_name)}"
        functions[name] = functions.get(name, 0) + n
    for builtin, n in builtins.items():
        name = f"C {getattr(builtin, '__qualname__', type(builtin).__name__)}"
        functions[name] = functions.get(name, 0) + n
    return {"rows": rows, "python": sum(codes.values()),
            "c": sum(builtins.values()), "functions": functions}


def run_side(tree: str, args: argparse.Namespace) -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "counts.json")
        command = [sys.executable, os.path.abspath(__file__), "--child", out,
                   tree, tree, "--workload", args.workload, "--scale", str(args.scale)]
        if args.observers:
            command.append("--observers")
        subprocess.run(command, cwd=tree, check=True)
        with open(out) as f:
            result: Dict[str, Any] = json.load(f)
    return result


def table(parent: Dict[str, Any], change: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Markdown lines comparing two counts, and whether any count moved."""
    lines = ["| calls | parent | change | delta |", "|---|---:|---:|---:|"]
    moved = False

    def row(label: str, a: int, b: int) -> None:
        nonlocal moved
        moved = moved or a != b
        lines.append(f"| {label} | {a:,} | {b:,} | {b - a:+,} |")

    for name in sorted(set(parent["rows"]) | set(change["rows"])):
        row(f"`{name}`", parent["rows"].get(name, 0), change["rows"].get(name, 0))
    row("**Python calls**", parent["python"], change["python"])
    row("**C calls**", parent["c"], change["c"])
    row("**all calls**", parent["python"] + parent["c"], change["python"] + change["c"])
    a, b = parent["functions"], change["functions"]
    deltas = sorted(
        ((b.get(name, 0) - a.get(name, 0), name) for name in set(a) | set(b)),
        key=lambda item: (-abs(item[0]), item[1]),
    )
    deltas = [(delta, name) for delta, name in deltas[:TOP] if delta]
    moved = moved or bool(deltas)
    if not deltas:
        return lines + ["", "No function's count moved."], moved
    lines += ["", f"The {len(deltas)} largest per-function deltas:", "",
              "| function | parent | change | delta |", "|---|---:|---:|---:|"]
    lines += [f"| `{name}` | {a.get(name, 0):,} | {b.get(name, 0):,} | {delta:+,} |"
              for delta, name in deltas]
    return lines, moved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--observers", action="store_true",
                        help="drain with the in-tree observers on (run_once observers=True)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        with open(args.child, "w") as f:
            json.dump(count(args.parent, args.workload, args.scale, args.observers), f)
        return 0
    parent, change = (run_side(os.path.abspath(tree), args) for tree in (args.parent, args.change))
    print(f"### Calls per `{args.workload}` drain (scale {args.scale}, seed 0, rate index 0"
          f"{', observers on' if args.observers else ''}; Python "
          f"{sys.version_info.major}.{sys.version_info.minor})\n")
    lines, moved = table(parent, change)
    print("\n".join(lines) + "\n")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
