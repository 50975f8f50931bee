"""The contract of ``plan_goals``: one path from a model and its goals to
operations records."""

from __future__ import annotations

import dataclasses

import pytest

from prodplan import (
    GoalSpec,
    ValidationError,
    build_demo_model,
    demo_goal_2341,
    derive_domain,
    derive_problem,
    generate_permutation_goals,
    plan,
    plan_goals,
    plan_to_operations,
    unsolvable_record,
    write_domain,
    write_problem,
)

# all five units occupied is out of reach for four shuttles
CROWD = GoalSpec(
    id="crowd",
    properties_true=tuple(
        (f"PositioningUnit-0{i}", "PositioningUnitOccupied") for i in range(1, 6)
    ),
)


def _outcome(result):
    return result.status, result.cost, result.plan, result.expanded, result.generated


def _run(model, goals, **options):
    return [
        (goal, _outcome(result), record)
        for goal, result, record in plan_goals(model, goals, **options)
    ]


@pytest.mark.parametrize("mode", ["optimal", "greedy"])
def test_results_are_one_plan_call_per_goal_in_goal_order(mode):
    model = build_demo_model()
    goals = generate_permutation_goals(model)[:6] + [CROWD]
    domain, report = derive_domain(model)
    planned = _run(model, goals, mode=mode)
    assert [goal for goal, _, _ in planned] == goals
    for goal, outcome, _ in planned:
        expected = plan(domain, derive_problem(model, goal, report), mode=mode)
        assert outcome == _outcome(expected), goal.id


def test_records_follow_the_status():
    model = build_demo_model()
    _, report = derive_domain(model)
    (goal, result, record), (_, crowd, unsolvable) = plan_goals(
        model, [demo_goal_2341(), CROWD]
    )
    assert result.solved
    assert record == plan_to_operations(result.plan, report, goal.id)
    assert crowd.status == "unsolvable"
    assert unsolvable == unsolvable_record("crowd")
    ((_, capped, none),) = plan_goals(model, [demo_goal_2341()], node_limit=1)
    assert (capped.status, none) == ("memout", None)


@pytest.mark.parametrize("mode", ["optimal", "greedy"])
def test_parallel_and_text_routes_equal_the_direct_serial_run(tmp_path, mode):
    model = build_demo_model()
    goals = generate_permutation_goals(model)
    serial = _run(model, goals, mode=mode)
    assert _run(model, goals, mode=mode, parallel=2) == serial
    assert _run(model, goals, mode=mode, emit_dir=tmp_path, from_text=True) == serial

    domain, report = derive_domain(model)
    assert (tmp_path / "domain.pddl").read_text() == write_domain(domain)
    for goal in goals:
        problem = derive_problem(model, goal, report)
        assert (tmp_path / f"problem-{goal.id}.pddl").read_text() == write_problem(problem)


def test_the_demo_goals_ground_the_model_once(constructions):
    model = build_demo_model()
    planned = list(plan_goals(model, generate_permutation_goals(model)))
    assert len(planned) == 23
    assert len(constructions) == 1


def test_two_goals_with_one_id_are_refused_when_called(tmp_path):
    model = build_demo_model()
    first, second = generate_permutation_goals(model)[:2]
    goals = [first, dataclasses.replace(second, id=first.id)]
    with pytest.raises(ValidationError, match=f"goal id '{first.id}' names 2 goals"):
        plan_goals(model, goals, emit_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
