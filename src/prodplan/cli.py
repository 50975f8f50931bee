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
import os
import sys
from pathlib import Path

# Only what `solve` runs is imported here: each other subcommand imports
# the model side (model_io, transform, operations) itself, so a solver
# child started per goal loads just parse -> ground -> search.
from .errors import ProdplanError, ValidationError
from .pddl import parse_domain, parse_problem, write_plan
from .planner import backend_name
from .planner.search import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, plan

CSV_FIELDS = [
    "size",
    "shuttles",
    "mode",
    "status",
    "planCostSeconds",
    "steps",
    "wallTimeMs",
    "heuristicMs",
    "expanded",
]


def _non_negative(kind):
    """An argparse type that converts with ``kind`` and refuses values
    below 0 (and NaN)."""

    def convert(text):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be 0 or more, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # argparse names the type in its errors
    return convert


def _sizes(text):
    """An argparse type for a non-empty comma-separated list of integers."""
    try:
        sizes = [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return sizes


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
        help="A* heuristic, only with --mode optimal (default: hmax)",
    )
    group.add_argument(
        "--timeout",
        type=_non_negative(float),
        default=DEFAULT_TIME_LIMIT,
        help="wall-clock budget per problem in seconds, 0 for none (default: 300)",
    )
    group.add_argument(
        "--node-limit",
        type=_non_negative(int),
        default=DEFAULT_NODE_LIMIT,
        help=f"state cap before giving up with memout, 0 for none (default: "
        f"{DEFAULT_NODE_LIMIT:,})",
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


class _Version(argparse.Action):
    """``--version``: names the search backend, which resolving builds the
    compiled kernel on a cold cache, so only this flag resolves it."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} (backend: {backend_name()})")
        parser.exit()


def _search(args) -> dict:
    """The command line's solver options as ``plan``'s keywords."""
    return {
        "mode": args.mode,
        "heuristic": args.heuristic,
        "time_limit": args.timeout,
        "node_limit": args.node_limit,
        "backend": args.backend,
        "solver_cmd": args.solver_cmd,
    }


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
        "heuristicMs": f"{result.heuristic_ms:.1f}",
        "expanded": result.expanded,
    }


def _write_csv(path, rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _plan_goals(args, model, goals, out: Path, **options):
    """Plan the goals with ``plan_goals``, then create ``out``, write each
    solved goal's plan file and merge the records into
    ``out/integrated.json``; returns the search results in goal order."""
    from .model_io import save_integrated_model
    from .operations import merge, plan_goals

    # plan_goals refuses two goals with one id before out is created
    planned = plan_goals(model, goals, workdir=out / "solver", **options, **_search(args))
    out.mkdir(parents=True, exist_ok=True)
    done = []
    records = []
    for goal, result, record in planned:
        print(_report_line(goal.id, result))
        done.append(result)
        if result.solved:
            (out / f"plan-{goal.id}.txt").write_text(
                write_plan(result.plan), encoding="utf-8"
            )
        if record is not None:
            records.append(record)
    save_integrated_model(merge(model, records), out / "integrated.json")
    solved = sum(1 for result in done if result.solved)
    print(f"{solved}/{len(done)} goals solved; wrote {out / 'integrated.json'}")
    return done


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    from .model_io import load_production_model
    from .transform import derive_domain

    try:
        model = load_production_model(args.model)
    except ValidationError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    # a model that loads can still fail where pipeline derives its domain,
    # which builds the routing graph too; those errors reach main() and exit 1
    derive_domain(model)
    print(f"{args.model}: ok")
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    from .model_io import load_goal_model, load_production_model

    model = load_production_model(args.model)
    goals = [load_goal_model(path, model) for path in args.goal]
    out = Path(args.out)
    emit_dir = out if args.emit_pddl or args.use_emitted else None
    _plan_goals(args, model, goals, out, emit_dir=emit_dir, from_text=args.use_emitted)
    return 0


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def cmd_permutations(args) -> int:
    from .model_io import generate_permutation_goals, load_production_model

    model = load_production_model(args.model)
    goals = generate_permutation_goals(model)
    results = _plan_goals(args, model, goals, Path(args.out), parallel=args.parallel)
    if args.csv:
        _write_csv(args.csv, [_csv_row(model, args.mode, r) for r in results])
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    from .model_io import generate_drill_goal, generate_reverse_goal, generate_ring_layout
    from .operations import plan_goals

    rows = []
    for size in args.sizes:
        model = generate_ring_layout(
            size, args.load_factor, with_robot_and_boards=args.drilling
        )
        goal = generate_drill_goal(model) if args.drilling else generate_reverse_goal(model)
        ((_, result, _),) = plan_goals(model, [goal], **_search(args))
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
    from .model_io import (
        generate_drill_goal,
        generate_reverse_goal,
        generate_ring_layout,
        save_goal_model,
        save_production_model,
    )

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
    result = plan(domain, problem, **_search(args))
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
        "--version", action=_Version, help="show the search backend and exit"
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
    p.add_argument(
        "--parallel",
        type=_non_negative(int),
        default=1,
        metavar="N",
        help="worker processes for the goals; 0 or 1 plans them serially (default: 1)",
    )
    _solver_options(p, external=True)
    p.set_defaults(func=cmd_permutations)

    p = sub.add_parser("bench", help="scaling run over generated ring layouts")
    p.add_argument(
        "--sizes", type=_sizes, default="5,7,9", help="comma-separated PU counts"
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "heuristic", None) and args.mode == "greedy":
        parser.error("argument --heuristic: not allowed with --mode greedy")
    try:
        status = args.func(args)
        sys.stdout.flush()
    except ProdplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed standard output. Point it at devnull so that
        # the flush at exit does not raise again (the Python docs' note
        # on SIGPIPE, whose exit status this keeps).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
