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
from itertools import repeat
from pathlib import Path

from .errors import ProdplanError, ValidationError
from .merge import merge, plan_to_operations, unsolvable_record
from .model_io import (
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
    load_goal_model,
    load_production_model,
    save_goal_model,
    save_integrated_model,
    save_production_model,
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


def _solver_options(parser: argparse.ArgumentParser, external: bool) -> None:
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
    if external:
        group.add_argument(
            "--solver-cmd",
            metavar="TEMPLATE",
            help="external solver command with {domain} {problem} {plan} placeholders",
        )
    else:
        parser.set_defaults(solver_cmd=None)


def _plan(args, domain, problem, source=None, workdir=None):
    """Ground, search and validate one problem; the one planning path.

    ``source`` is the (model, goal, report) the problem was derived from.
    With it, greedy embedded search derives the reverse problem and runs
    two frontiers. ``workdir`` is where ``--solver-cmd`` runs. Every plan
    is simulated on the forward task, which also fills in a missing cost.
    """
    task = ground(domain, problem)
    backend = None if args.backend == "auto" else args.backend
    if args.solver_cmd:
        result = solve_external(
            write_domain(domain),
            write_problem(problem),
            args.solver_cmd,
            workdir,
            time_limit=args.timeout,
        )
    else:
        reverse = (
            derive_reverse_problem(*source)
            if args.mode == "greedy" and source is not None
            else None
        )
        if reverse is not None:
            result = solve_bidirectional(
                task,
                ground(domain, reverse),
                time_limit=args.timeout,
                node_limit=args.node_limit or BIDIRECTIONAL_NODE_LIMIT,
                backend=backend,
            )
        else:
            result = solve(
                task,
                mode=args.mode,
                heuristic=args.heuristic,
                time_limit=args.timeout,
                node_limit=args.node_limit or DEFAULT_NODE_LIMIT,
                backend=backend,
            )
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


def _csv_row(model, mode: str, result) -> dict:
    return {
        "size": len(model.equipment_of_class("PositioningUnit")),
        "shuttles": len(model.equipment_of_class("Shuttle")),
        "mode": mode,
        "status": result.status,
        "planCostSeconds": result.cost if result.cost is not None else "",
        "steps": len(result.plan.steps) if result.plan else 0,
        "wallTimeMs": f"{result.wall_time_ms:.1f}",
        "expanded": result.expanded,
    }


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _plan_goals(args, model, report, domain, goals, problems, out: Path, parallel=1):
    """Plan each goal, write its plan file and merge all records into
    ``out/integrated.json``; returns the search results in goal order."""
    jobs = (
        repeat(args),
        repeat(domain),
        problems,
        [(model, goal, report) for goal in goals],
        [out / "solver" / goal.id for goal in goals],
    )
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_plan, *jobs))
    else:
        results = map(_plan, *jobs)

    done = []
    records = []
    for goal, result in zip(goals, results):
        print(_report_line(goal.id, result))
        done.append(result)
        if result.solved:
            (out / f"plan-{goal.id}.txt").write_text(
                write_plan(result.plan), encoding="utf-8"
            )
            records.append(plan_to_operations(result.plan, report, goal.id))
        elif result.status == "unsolvable":
            records.append(unsolvable_record(goal.id))
    save_integrated_model(merge(model, records), out / "integrated.json")
    solved = sum(1 for result in done if result.solved)
    print(f"{solved}/{len(done)} goals solved; wrote {out / 'integrated.json'}")
    return done


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

    _plan_goals(args, model, report, domain, goals, problems, out)
    return 0


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def cmd_permutations(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_production_model(args.model)
    goals = generate_permutation_goals(model)
    domain, report = derive_domain(model)
    problems = [derive_problem(model, goal, report) for goal in goals]
    results = _plan_goals(
        args, model, report, domain, goals, problems, out, args.parallel
    )
    if args.csv:
        _write_csv(args.csv, [_csv_row(model, args.mode, r) for r in results])
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


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
        result = _plan(args, domain, problem, (model, goal, report))
        row = _csv_row(model, args.mode, result)
        rows.append(row)
        label = f"size-{size} ({row['shuttles']} shuttles, {args.mode})"
        print(_report_line(label, result))
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
    # plain PDDL input carries no model, so no reverse derivation here
    result = _plan(args, domain, problem)
    print(_report_line(problem.name, result))
    if result.solved and args.plan_out:
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
    _solver_options(p, external=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("permutations", help="solve every shuttle reordering goal")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write per-goal rows to this CSV file")
    p.add_argument("--parallel", type=int, default=1, metavar="N")
    _solver_options(p, external=True)
    p.set_defaults(func=cmd_permutations)

    p = sub.add_parser("bench", help="scaling run over generated ring layouts")
    p.add_argument("--sizes", default="5,7,9", help="comma-separated PU counts")
    p.add_argument("--load-factor", type=float, default=0.65)
    p.add_argument("--drilling", action="store_true", help="add robot, boards and DrillBoard")
    p.add_argument("--csv", help="write result rows to this CSV file")
    _solver_options(p, external=False)
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
    _solver_options(p, external=False)
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
