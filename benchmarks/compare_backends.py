#!/usr/bin/env python3
"""Compare the pure-Python and compiled search backends on the same tasks.

Runs the built-in demo plus generated ring layouts through both backends
and reports cost, expanded nodes, and wall time side by side. Costs and
plans must agree between backends; wall time is where they differ.

Usage:
    python benchmarks/compare_backends.py
    python benchmarks/compare_backends.py --optimal-sizes 5,7,9 --greedy-sizes 9,11 --repeats 3
    python benchmarks/compare_backends.py --csv backends.csv

The compiled backend is the C++ kernel that `import prodplan` builds into
the user cache on first use (see the README's Install section); if it
cannot be built, the script runs the pure backend alone and says so.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys

from prodplan import (
    build_demo_model,
    demo_goal_2341,
    derive_domain,
    derive_problem,
    derive_reverse_problem,
    generate_reverse_goal,
    generate_ring_layout,
    ground,
    solve,
    solve_bidirectional,
)
from prodplan.planner import available_backends

LOAD_FACTOR = 0.65
CSV_FIELDS = ["case", "backend", "status", "cost", "expanded", "wall_ms_median"]


def demo_case():
    model = build_demo_model()
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, demo_goal_2341(), report))
    return "demo goal-2341 optimal/hmax", task, None


def ring_case(size, mode):
    model = generate_ring_layout(size, LOAD_FACTOR)
    domain, report = derive_domain(model)
    goal = generate_reverse_goal(model)
    task = ground(domain, derive_problem(model, goal, report))
    if mode == "optimal":
        return f"ring {size} optimal/hmax", task, None
    reverse = derive_reverse_problem(model, goal, report)
    # reverse goals are always movement-only, so this cannot be None
    return f"ring {size} greedy/bidir", task, ground(domain, reverse)


def run_case(task, reverse_task, backend, time_limit, repeats):
    times = []
    result = None
    for _ in range(repeats):
        if reverse_task is None:
            result = solve(
                task, mode="optimal", heuristic="hmax",
                time_limit=time_limit, backend=backend,
            )
        else:
            result = solve_bidirectional(
                task, reverse_task, time_limit=time_limit, backend=backend,
            )
        times.append(result.wall_time_ms)
    return result, statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--optimal-sizes", default="5,7,9",
                    help="ring sizes solved optimally (comma separated)")
    ap.add_argument("--greedy-sizes", default="9,11",
                    help="ring sizes solved with bidirectional greedy")
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per case; the median wall time is reported")
    ap.add_argument("--time-limit", type=float, default=300.0)
    ap.add_argument("--csv", help="also write the table to this CSV file")
    args = ap.parse_args(argv)

    backends = available_backends()
    if "compiled" not in backends:
        print("warning: compiled backend not available, pure only", file=sys.stderr)

    cases = [demo_case()]
    for size in args.optimal_sizes.split(","):
        if size.strip():
            cases.append(ring_case(int(size), "optimal"))
    for size in args.greedy_sizes.split(","):
        if size.strip():
            cases.append(ring_case(int(size), "greedy"))

    rows = []
    for name, task, reverse_task in cases:
        per_backend = {}
        for backend in backends:
            print(f"{name} [{backend}] ...", flush=True)
            result, median_ms = run_case(
                task, reverse_task, backend, args.time_limit, args.repeats
            )
            per_backend[backend] = result
            rows.append({
                "case": name,
                "backend": backend,
                "status": result.status,
                "cost": result.cost if result.cost is not None else "",
                "expanded": result.expanded,
                "wall_ms_median": f"{median_ms:.1f}",
            })
        solved = {b: r for b, r in per_backend.items() if r.solved}
        if len(solved) == 2:
            costs = {r.cost for r in solved.values()}
            if len(costs) != 1:
                print(f"error: backends disagree on cost for {name}: {costs}",
                      file=sys.stderr)
                return 1

    widths = {f: max(len(f), *(len(str(r[f])) for r in rows)) for f in CSV_FIELDS}
    header = "  ".join(f.ljust(widths[f]) for f in CSV_FIELDS)
    print()
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[f]).ljust(widths[f]) for f in CSV_FIELDS))

    pure = [r for r in rows if r["backend"] == "pure"]
    comp = [r for r in rows if r["backend"] == "compiled"]
    if comp:
        print()
        for p, c in zip(pure, comp):
            pm, cm = float(p["wall_ms_median"]), float(c["wall_ms_median"])
            if cm > 0:
                print(f"{p['case']}: compiled is {pm / cm:.1f}x faster")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
