"""Plan a model's goals, turn the plans into operations data and merge
it with the source model.

``plan_goals`` is the one path from a model and its goals to operations
records: it derives the domain and the problems, optionally takes them
through their PDDL text, plans each goal with ``planner.plan`` and lifts
each plan with ``plan_to_operations``. ``merge`` attaches the records to
the model. The planner is imported only when a goal is planned, so
importing this module loads no search code.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from pathlib import Path

from .errors import (
    CostMismatch,
    DanglingReference,
    PlanError,
    UnknownActionName,
    UnknownObjectId,
    ValidationError,
)
from .model import ProductionModel
from .model_io import IntegratedModel, Operation, OperationsRecord
from .pddl import Plan, PlanStep, parse_domain, parse_problem, write_domain, write_problem
from .transform import TransformReport, derive_domain, derive_problem


def plan_goals(
    model, goals, *, workdir=None, emit_dir=None, from_text=False, parallel=1, **search
):
    """Plan each of ``goals`` (a sequence of ``GoalSpec``) on ``model``.

    Returns an iterator of ``(goal, result, record)`` in goal order. The
    record is the solved plan's ``plan_to_operations``, an
    ``unsolvable_record`` for an unsolvable goal and ``None`` for a
    timeout or memout. Two goals with one id raise ``ValidationError``
    here, before anything is derived, planned or written; the rest runs
    as the iterator is consumed.

    The domain is derived once and each problem from its report. With
    ``emit_dir`` (an existing directory), ``domain.pddl`` and
    ``problem-<id>.pddl`` are written there first; with ``from_text``,
    the goals are planned from the parse of that text. Each goal is
    ``plan(domain, problem, workdir / goal.id, **search)``, one after
    another or, when ``parallel`` is above 1, in that many worker
    processes.
    """
    _refuse_repeated_ids(goal.id for goal in goals)
    return _planned(model, goals, workdir, emit_dir, from_text, parallel, search)


def _planned(model, goals, workdir, emit_dir, from_text, parallel, search):
    from .planner.search import plan

    domain, report = derive_domain(model)
    problems = [derive_problem(model, goal, report) for goal in goals]
    if emit_dir is not None:
        (Path(emit_dir) / "domain.pddl").write_text(write_domain(domain), encoding="utf-8")
        for goal, problem in zip(goals, problems):
            path = Path(emit_dir) / f"problem-{goal.id}.pddl"
            path.write_text(write_problem(problem), encoding="utf-8")
    if from_text:
        domain = parse_domain(write_domain(domain))
        problems = [parse_problem(write_problem(problem)) for problem in problems]

    run = partial(plan, domain, **search)
    workdirs = [None if workdir is None else Path(workdir) / goal.id for goal in goals]
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        # One chunk per worker: a chunk is pickled once, so each worker
        # unpickles one domain object for all its goals and grounds the
        # goal-independent half once (see planner.grounding.ground).
        chunk = max(1, -(-len(goals) // parallel))
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(run, problems, workdirs, chunksize=chunk))
    else:
        results = map(run, problems, workdirs)

    for goal, result in zip(goals, results):
        if result.solved:
            record = plan_to_operations(result.plan, report, goal.id)
        elif result.status == "unsolvable":
            record = unsolvable_record(goal.id)
        else:
            record = None
        yield goal, result, record


def _refuse_repeated_ids(goal_ids) -> None:
    """Each goal's files and record are named by its id, so one id must
    not name two goals."""
    counts = Counter(goal_ids)
    repeated = sorted(gid for gid, n in counts.items() if n > 1)
    if repeated:
        raise ValidationError(f"goal id {gid!r} names {counts[gid]} goals" for gid in repeated)


def plan_to_operations(
    plan: Plan, report: TransformReport, goal_id: str
) -> OperationsRecord:
    """Each step becomes an operation: segment id plus spec-to-element
    bindings; cost is the segment duration in seconds."""
    operations = []
    total = 0
    for index, step in enumerate(plan.steps):
        segment_id = report.segment_by_action.get(step.action.lower())
        if segment_id is None:
            raise UnknownActionName(
                f"step {index}: {step.action!r} matches no process segment"
            )
        spec_ids = report.spec_ids_by_segment[segment_id]
        if len(step.args) != len(spec_ids):
            raise PlanError(
                f"step {index}: {segment_id!r} takes {len(spec_ids)} arguments, "
                f"got {len(step.args)}"
            )
        bindings = []
        for spec_id, arg in zip(spec_ids, step.args):
            element = report.element_by_object.get(arg.lower())
            if element is None:
                raise UnknownObjectId(
                    f"step {index}: {arg!r} matches no model element"
                )
            bindings.append((spec_id, element))
        cost = report.cost_by_segment[segment_id]
        total += cost
        operations.append(
            Operation(
                sequence_index=index,
                segment_id=segment_id,
                bindings=tuple(bindings),
                cost=cost,
            )
        )
    if plan.cost is not None and plan.cost != total:
        raise CostMismatch(
            f"plan cost {plan.cost} disagrees with summed segment durations {total}"
        )
    return OperationsRecord(
        goal_id=goal_id, solvable=True, operations=tuple(operations), total_cost=total
    )


def unsolvable_record(goal_id: str) -> OperationsRecord:
    return OperationsRecord(goal_id=goal_id, solvable=False)


def operations_to_plan(record: OperationsRecord, report: TransformReport) -> Plan:
    """Inverse of plan_to_operations, for round-trips and re-validation."""
    steps = []
    for op in record.operations:
        args = []
        for _, element in op.bindings:
            name = report.object_by_element.get(element)
            if name is None:
                raise UnknownObjectId(f"{element!r} matches no PDDL object")
            args.append(name.lower())
        steps.append(PlanStep(op.segment_id.lower(), tuple(args)))
    return Plan(steps=tuple(steps), cost=record.total_cost)


def merge(
    model: ProductionModel, records: list[OperationsRecord] | tuple[OperationsRecord, ...]
) -> IntegratedModel:
    """Attach operations records, at most one per goal, to the model they
    were planned for."""
    _refuse_repeated_ids(record.goal_id for record in records)
    for record in records:
        for op in record.operations:
            if op.segment_id not in model.segments_by_id:
                raise DanglingReference(
                    f"operations for {record.goal_id!r} use unknown segment "
                    f"{op.segment_id!r}"
                )
            for spec_id, element in op.bindings:
                if (
                    element not in model.equipment_by_id
                    and element not in model.lots_by_id
                    and not _is_property(model, element)
                ):
                    raise DanglingReference(
                        f"operations for {record.goal_id!r} bind {spec_id!r} to "
                        f"unknown element {element!r}"
                    )
    return IntegratedModel(model=model, operations_definitions=tuple(records))


def _is_property(model: ProductionModel, element: str) -> bool:
    return any(p.id == element for e in model.equipment for p in e.properties)
