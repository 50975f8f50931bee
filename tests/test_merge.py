from __future__ import annotations

import pytest

from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.errors import (
    CostMismatch,
    DanglingReference,
    PlanError,
    UnknownActionName,
    UnknownObjectId,
    ValidationError,
)
from prodplan.operations import merge, operations_to_plan, plan_to_operations, unsolvable_record
from prodplan.model_io import (
    generate_drill_goal,
    generate_ring_layout,
    load_integrated_model,
    record_from_dict,
    record_to_dict,
    save_integrated_model,
)
from prodplan.pddl import Plan, PlanStep
from prodplan.planner.grounding import ground
from prodplan.planner.search import solve, validate_plan
from prodplan.transform import derive_domain, derive_problem


@pytest.fixture(scope="module")
def solved():
    model = build_demo_model()
    domain, report = derive_domain(model)
    goal = demo_goal_2341()
    task = ground(domain, derive_problem(model, goal, report))
    result = solve(task)
    return model, report, goal, task, result


def test_plan_becomes_operations(solved):
    model, report, goal, task, result = solved
    record = plan_to_operations(result.plan, report, goal.id)
    assert record.goal_id == goal.id
    assert record.solvable
    assert record.total_cost == result.cost
    assert [op.sequence_index for op in record.operations] == list(range(5))
    assert {op.segment_id for op in record.operations} == {"MoveShuttle"}
    first = record.operations[0]
    assert first.cost == 10
    assert dict(first.bindings) == {
        "SHUTTLE": "Shuttle-01",
        "FROM": "PositioningUnit-03",
        "TO": "PositioningUnit-05",
    }


def test_operations_round_trip_to_plan(solved):
    model, report, goal, task, result = solved
    record = plan_to_operations(result.plan, report, goal.id)
    rebuilt = operations_to_plan(record, report)
    assert validate_plan(task, rebuilt) == result.cost
    assert [s.args for s in rebuilt.steps] == [
        tuple(a.lower() for a in s.args) for s in result.plan.steps
    ]


@pytest.mark.parametrize("case", ["demo-goal-2341", "drilling-ring-7"])
def test_plan_lifts_with_a_fresh_domain_report(case):
    # the flat-file route: plan elsewhere, lift with only derive_domain's report
    if case == "demo-goal-2341":
        model, goal = build_demo_model(), demo_goal_2341()
    else:
        model = generate_ring_layout(7, 0.65, with_robot_and_boards=True)
        goal = generate_drill_goal(model)
    domain, report = derive_domain(model)
    result = solve(ground(domain, derive_problem(model, goal, report)))
    record = plan_to_operations(result.plan, report, goal.id)
    plan = operations_to_plan(record, report)

    _, fresh = derive_domain(model)
    assert plan_to_operations(result.plan, fresh, goal.id) == record
    assert operations_to_plan(record, fresh) == plan


def test_record_dict_round_trip(solved):
    model, report, goal, task, result = solved
    record = plan_to_operations(result.plan, report, goal.id)
    assert record_from_dict(record_to_dict(record)) == record
    missing = unsolvable_record("nope")
    assert not missing.solvable
    assert record_from_dict(record_to_dict(missing)) == missing


def test_unknown_action_name(solved):
    _, report, goal, *_ = solved
    with pytest.raises(UnknownActionName):
        plan_to_operations(Plan(steps=(PlanStep("fly", ()),)), report, goal.id)


def test_arity_mismatch(solved):
    _, report, goal, *_ = solved
    with pytest.raises(PlanError):
        plan_to_operations(
            Plan(steps=(PlanStep("moveshuttle", ("e_shuttle-01",)),)), report, goal.id
        )


def test_unknown_object_id(solved):
    _, report, goal, *_ = solved
    step = PlanStep("moveshuttle", ("e_shuttle-01", "e_positioningunit-03", "e_mars"))
    with pytest.raises(UnknownObjectId):
        plan_to_operations(Plan(steps=(step,)), report, goal.id)


def test_cost_mismatch_between_plan_and_durations(solved):
    _, report, goal, _, result = solved
    claimed = Plan(steps=result.plan.steps, cost=result.cost + 5)
    with pytest.raises(CostMismatch):
        plan_to_operations(claimed, report, goal.id)


def test_merge_and_file_round_trip(tmp_path, solved):
    model, report, goal, task, result = solved
    records = [
        plan_to_operations(result.plan, report, goal.id),
        unsolvable_record("goal-blocked"),
    ]
    integrated = merge(model, records)
    assert integrated.model == model
    assert integrated.operations_definitions == tuple(records)

    path = tmp_path / "integrated.json"
    save_integrated_model(integrated, path)
    loaded = load_integrated_model(path)
    assert loaded == integrated

    # a reloaded record still replays through the planner's validator
    replay = operations_to_plan(loaded.operations_definitions[0], report)
    assert validate_plan(task, replay) == result.cost


def test_merge_rejects_foreign_elements(solved):
    model, report, goal, _, result = solved
    record = plan_to_operations(result.plan, report, goal.id)
    bad_op = record.operations[0].__class__(
        sequence_index=0,
        segment_id="Paint",
        bindings=record.operations[0].bindings,
        cost=10,
    )
    broken = record.__class__(
        goal_id=record.goal_id,
        solvable=True,
        operations=(bad_op,),
        total_cost=10,
    )
    with pytest.raises(DanglingReference):
        merge(model, [broken])

    bad_binding = record.operations[0].__class__(
        sequence_index=0,
        segment_id="MoveShuttle",
        bindings=(("SHUTTLE", "Ghost"),),
        cost=10,
    )
    with pytest.raises(DanglingReference):
        merge(model, [record.__class__("g", True, (bad_binding,), 10)])


def test_merge_refuses_two_records_for_one_goal():
    records = [unsolvable_record(goal_id) for goal_id in ("g", "h", "g", "i", "i", "g")]
    with pytest.raises(ValidationError) as err:
        merge(build_demo_model(), records)
    assert err.value.diagnostics == ["goal id 'g' names 3 goals", "goal id 'i' names 2 goals"]
