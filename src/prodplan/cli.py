"""Command line interface.

Subcommands:

* validate      -- check a model file, print diagnostics
* pipeline      -- model + goals -> plans -> integrated model
* permutations  -- solve every non-identity shuttle reordering
* bench         -- generated ring layouts of growing size, CSV output
* gen-layout    -- write a generated ring layout (and optionally a goal)
* solve         -- run the embedded planner on plain PDDL files

Exit code 0 means every stage ran; an unsolvable or timed-out goal is a
recorded result, not an error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .errors import ProdplanError, ValidationError
from .merge import merge, plan_to_operations, unsolvable_record
from .model import validate_model
from .model_io import (
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
    goal_from_dict,
    goal_to_dict,
    load_goal_model,
    load_production_model,
    record_from_dict,
    record_to_dict,
    save_goal_model,
    save_integrated_model,
    save_production_model,
    shuttle_count_for,
)
from .pddl import (
    Plan,
    parse_domain,
    parse_problem,
    write_domain,
    write_plan,
    write_problem,
)
from .planner import backend_name, ground, solve, validate_plan
from .planner.external import solve_external
from .planner.search import (
    BIDIRECTIONAL_NODE_LIMIT,
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    solve_bidirectional,
)
from .transform import derive_domain, derive_problem, derive_reverse_problem

CSV_FIELDS = [
    "size",
    "shuttles",
    "mode",
    "status",
    "planCostSeconds",
    "steps",
    "wallTimeMs",
    "expanded",
]


def _solver_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("solver")
    group.add_argument(
        "--mode",
        choices=("optimal", "greedy"),
        default="optimal",
        help="optimal A* or greedy best-first (default: optimal)",
    )
    group.add_argument(
        "--heuristic",
        choices=("blind", "hmax"),
        default="hmax",
        help="heuristic for optimal mode (default: hmax)",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIME_LIMIT,
        help="wall-clock budget per problem in seconds (default: 300)",
    )
    group.add_argument(
        "--node-limit",
        type=int,
        default=None,
        help=f"state cap before giving up with memout (default: "
        f"{DEFAULT_NODE_LIMIT} single-frontier, {BIDIRECTIONAL_NODE_LIMIT} "
        f"two-frontier greedy)",
    )
    group.add_argument(
        "--backend",
        choices=("auto", "pure", "compiled"),
        default="auto",
        help="search backend (default: best available)",
    )
    group.add_argument(
        "--solver-cmd",
        metavar="TEMPLATE",
        help="external solver command with {domain} {problem} {plan} placeholders",
    )


def _plan_task(task, reverse_task, args):
    """Embedded search: two greedy frontiers when a reverse task exists."""
    backend = None if args.backend == "auto" else args.backend
    if args.mode == "greedy" and reverse_task is not None:
        return solve_bidirectional(
            task,
            reverse_task,
            time_limit=args.timeout,
            node_limit=args.node_limit or BIDIRECTIONAL_NODE_LIMIT,
            backend=backend,
        )
    return solve(
        task,
        mode=args.mode,
        heuristic=args.heuristic,
        time_limit=args.timeout,
        node_limit=args.node_limit or DEFAULT_NODE_LIMIT,
        backend=backend,
    )


def _solve_one(domain, problem, args, workdir: Path, reverse_problem=None):
    """Ground and solve one problem, via the embedded or external solver."""
    task = ground(domain, problem)
    if args.solver_cmd:
        result = solve_external(
            write_domain(domain),
            write_problem(problem),
            args.solver_cmd,
            workdir,
            time_limit=args.timeout,
        )
    else:
        reverse_task = (
            ground(domain, reverse_problem)
            if reverse_problem is not None and args.mode == "greedy"
            else None
        )
        result = _plan_task(task, reverse_task, args)
    if result.plan is not None:
        cost = validate_plan(task, result.plan)
        if result.plan.cost is None:
            result = replace(result, plan=Plan(result.plan.steps, cost), cost=cost)
    return result


def _report_line(goal_id: str, result) -> str:
    counts = f"expanded={result.expanded} generated={result.generated}"
    if result.solved:
        return (
            f"{goal_id}: solved cost={result.cost} steps={len(result.plan.steps)} "
            f"wall={result.wall_time_ms:.0f}ms {counts}"
        )
    return f"{goal_id}: {result.status} wall={result.wall_time_ms:.0f}ms {counts}"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        load_production_model(args.model)
    except ValidationError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    print(f"{args.model}: ok")
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_production_model(args.model)
    goals = [load_goal_model(path, model) for path in args.goal]

    domain, report = derive_domain(model)
    problems = [derive_problem(model, goal, report) for goal in goals]

    if args.emit_pddl or args.use_emitted:
        (out / "domain.pddl").write_text(write_domain(domain), encoding="utf-8")
        for goal, problem in zip(goals, problems):
            (out / f"problem-{goal.id}.pddl").write_text(
                write_problem(problem), encoding="utf-8"
            )
    if args.use_emitted:
        domain = parse_domain((out / "domain.pddl").read_text(encoding="utf-8"))
        problems = [
            parse_problem(
                (out / f"problem-{goal.id}.pddl").read_text(encoding="utf-8")
            )
            for goal in goals
        ]

    records = []
    for goal, problem in zip(goals, problems):
        reverse_problem = (
            derive_reverse_problem(model, goal, report)
            if args.mode == "greedy" and not args.solver_cmd
            else None
        )
        result = _solve_one(
            domain, problem, args, out / "solver" / goal.id, reverse_problem
        )
        print(_report_line(goal.id, result))
        if result.solved:
            (out / f"plan-{goal.id}.txt").write_text(
                write_plan(result.plan), encoding="utf-8"
            )
            records.append(plan_to_operations(result.plan, report, goal.id))
        elif result.status == "unsolvable":
            records.append(unsolvable_record(goal.id))
    integrated = merge(model, records)
    save_integrated_model(integrated, out / "integrated.json")
    print(f"wrote {out / 'integrated.json'}")
    return 0


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def _permutation_worker(payload):
    (model_path, goal_data, mode, heuristic, timeout, node_limit, backend) = payload
    model = load_production_model(model_path)
    goal = goal_from_dict(goal_data)
    domain, report = derive_domain(model)
    problem = derive_problem(model, goal, report)
    task = ground(domain, problem)
    reverse_task = None
    if mode == "greedy":
        reverse_problem = derive_reverse_problem(model, goal, report)
        if reverse_problem is not None:
            reverse_task = ground(domain, reverse_problem)
    if reverse_task is not None:
        result = solve_bidirectional(
            task,
            reverse_task,
            time_limit=timeout,
            node_limit=node_limit or BIDIRECTIONAL_NODE_LIMIT,
            backend=backend,
        )
    else:
        result = solve(
            task,
            mode=mode,
            heuristic=heuristic,
            time_limit=timeout,
            node_limit=node_limit or DEFAULT_NODE_LIMIT,
            backend=backend,
        )
    record = None
    plan_text = None
    if result.solved:
        validate_plan(task, result.plan)
        record = record_to_dict(plan_to_operations(result.plan, report, goal.id))
        plan_text = write_plan(result.plan)
    elif result.status == "unsolvable":
        record = record_to_dict(unsolvable_record(goal.id))
    return (
        goal.id,
        result.status,
        result.cost,
        len(result.plan.steps) if result.plan else 0,
        result.wall_time_ms,
        result.expanded,
        record,
        plan_text,
    )


def cmd_permutations(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_production_model(args.model)
    goals = generate_permutation_goals(model)
    backend = None if args.backend == "auto" else args.backend
    payloads = [
        (
            args.model,
            goal_to_dict(goal),
            args.mode,
            args.heuristic,
            args.timeout,
            args.node_limit,
            backend,
        )
        for goal in goals
    ]
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            rows = list(pool.map(_permutation_worker, payloads))
    else:
        rows = [_permutation_worker(p) for p in payloads]

    records = []
    csv_rows = []
    for goal_id, status, cost, steps, wall, expanded, record, plan_text in rows:
        suffix = f" cost={cost} steps={steps}" if status == "solved" else ""
        print(f"{goal_id}: {status}{suffix}")
        if plan_text is not None:
            (out / f"plan-{goal_id}.txt").write_text(plan_text, encoding="utf-8")
        if record is not None:
            records.append(record_from_dict(record))
        csv_rows.append(
            {
                "size": len(model.equipment_of_class("PositioningUnit")),
                "shuttles": len(model.equipment_of_class("Shuttle")),
                "mode": args.mode,
                "status": status,
                "planCostSeconds": cost if cost is not None else "",
                "steps": steps,
                "wallTimeMs": f"{wall:.1f}",
                "expanded": expanded,
            }
        )
    if args.csv:
        _write_csv(args.csv, csv_rows)
    save_integrated_model(merge(model, records), out / "integrated.json")
    solved = sum(1 for r in rows if r[1] == "solved")
    print(f"{solved}/{len(rows)} goals solved; wrote {out / 'integrated.json'}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = []
    for size in sizes:
        model = generate_ring_layout(
            size, args.load_factor, with_robot_and_boards=args.drilling
        )
        goal = generate_drill_goal(model) if args.drilling else generate_reverse_goal(model)
        domain, report = derive_domain(model)
        problem = derive_problem(model, goal, report)
        task = ground(domain, problem)
        reverse_task = None
        if args.mode == "greedy":
            reverse_problem = derive_reverse_problem(model, goal, report)
            if reverse_problem is not None:
                reverse_task = ground(domain, reverse_problem)
        result = _plan_task(task, reverse_task, args)
        if result.solved:
            validate_plan(task, result.plan)
        shuttles = shuttle_count_for(size, args.load_factor)
        rows.append(
            {
                "size": size,
                "shuttles": shuttles,
                "mode": args.mode,
                "status": result.status,
                "planCostSeconds": result.cost if result.cost is not None else "",
                "steps": len(result.plan.steps) if result.plan else 0,
                "wallTimeMs": f"{result.wall_time_ms:.1f}",
                "expanded": result.expanded,
            }
        )
        print(_report_line(f"size-{size} ({shuttles} shuttles, {args.mode})", result))
    if args.csv:
        _write_csv(args.csv, rows)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# gen-layout / solve
# ---------------------------------------------------------------------------


def cmd_gen_layout(args) -> int:
    model = generate_ring_layout(
        args.pus, args.load_factor, with_robot_and_boards=args.drilling
    )
    save_production_model(model, args.out)
    print(f"wrote {args.out}")
    if args.goal_out:
        goal = generate_drill_goal(model) if args.drilling else generate_reverse_goal(model)
        save_goal_model(goal, args.goal_out)
        print(f"wrote {args.goal_out}")
    return 0


def cmd_solve(args) -> int:
    domain = parse_domain(Path(args.domain).read_text(encoding="utf-8"))
    problem = parse_problem(Path(args.problem).read_text(encoding="utf-8"))
    task = ground(domain, problem)
    # plain PDDL input carries no model, so no reverse derivation here
    result = _plan_task(task, None, args)
    print(_report_line(problem.name, result))
    if result.solved and args.plan_out:
        validate_plan(task, result.plan)
        Path(args.plan_out).write_text(write_plan(result.plan), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodplan",
        description="Compile production-system models to PDDL, plan, merge plans back.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s (backend: {backend_name()})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="plan goals against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--goal", action="append", required=True, help="goal file (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--emit-pddl", action="store_true", help="write domain/problem PDDL files"
    )
    p.add_argument(
        "--use-emitted",
        action="store_true",
        help="re-parse the emitted PDDL text and plan from that",
    )
    _solver_options(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("permutations", help="solve every shuttle reordering goal")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write per-goal rows to this CSV file")
    p.add_argument("--parallel", type=int, default=1, metavar="N")
    _solver_options(p)
    p.set_defaults(func=cmd_permutations)

    p = sub.add_parser("bench", help="scaling run over generated ring layouts")
    p.add_argument("--sizes", default="5,7,9", help="comma-separated PU counts")
    p.add_argument("--load-factor", type=float, default=0.65)
    p.add_argument("--drilling", action="store_true", help="add robot, boards and DrillBoard")
    p.add_argument("--csv", help="write result rows to this CSV file")
    _solver_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-layout", help="write a generated ring layout model")
    p.add_argument("--pus", type=int, required=True)
    p.add_argument("--load-factor", type=float, default=0.65)
    p.add_argument("--drilling", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--goal-out", help="also write the matching benchmark goal")
    p.set_defaults(func=cmd_gen_layout)

    p = sub.add_parser("solve", help="run the embedded planner on PDDL files")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--plan-out", help="write the plan here when solved")
    _solver_options(p)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProdplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
