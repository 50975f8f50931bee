"""Tests of the benchmark's independent plan checker (check.py).

Run with: PYTHONPATH=src python3 -m pytest -q perfbench/test_check.py
prodplan only generates the model and goal documents here; the plans
come from the checker's own reference search.
"""

from __future__ import annotations

import pytest

from check import MOVE_S, CheckFailed, Plant, Reference, lower_bound, replay
from prodplan import (
    build_demo_model,
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
)
from prodplan.model_io import goal_to_dict, model_to_dict


def record_of(goal_id: str, ops: list[tuple]) -> dict:
    """The integrated.json record of an operation list from Reference.plan."""
    out = []
    for index, (segment, shuttle, pu, other) in enumerate(ops):
        if segment == "MoveShuttle":
            bindings, cost = {"SHUTTLE": shuttle, "FROM": pu, "TO": other}, 10
        else:
            bindings = {"ROBOT": "DrillingRobot-01", "SHUTTLE": shuttle, "PU": pu,
                        "BOARD": other}
            cost = 30
        out.append({"sequenceIndex": index, "segmentId": segment,
                    "bindings": bindings, "cost": cost})
    return {"goalId": goal_id, "solvable": True, "operations": out,
            "totalCost": sum(op["cost"] for op in out)}


def renumber(record: dict, operations: list[dict]) -> dict:
    ops = [dict(op, sequenceIndex=i) for i, op in enumerate(operations)]
    return dict(record, operations=ops, totalCost=sum(op["cost"] for op in ops))


@pytest.fixture(scope="module")
def demo():
    model = build_demo_model()
    plant = Plant(model_to_dict(model))
    goals = {g.id: goal_to_dict(g) for g in generate_permutation_goals(model)}
    return plant, Reference(plant), goals


@pytest.fixture(scope="module")
def demo_2341(demo):
    plant, reference, goals = demo
    goal = goals["goal-2341"]
    return plant, goal, record_of(goal["id"], reference.plan(goal))


def test_pu_graph_steps_across_the_curve(demo):
    plant = demo[0]
    pu = "PositioningUnit-0{}".format
    expected = {(1, 3), (3, 5), (5, 2), (3, 2), (2, 4), (4, 1)}
    assert {(f, t) for f in plant.edges for t in plant.edges[f]} == {
        (pu(f), pu(t)) for f, t in expected
    }
    assert plant.start == {"Shuttle-01": pu(3), "Shuttle-02": pu(1),
                           "Shuttle-03": pu(4), "Shuttle-04": pu(2)}


def test_reference_optima_of_the_demo(demo):
    _, reference, goals = demo
    assert len(goals) == 23
    assert reference.optimum(goals["goal-2341"]) == 50
    assert sum(reference.optimum(g) for g in goals.values()) == 4300


def test_reference_plan_replays_at_the_optimum(demo_2341):
    plant, goal, record = demo_2341
    assert replay(plant, goal, record) == 50
    assert lower_bound(plant, goal) <= 50


def test_rejects_two_swapped_steps(demo_2341):
    plant, goal, record = demo_2341
    ops = record["operations"]
    # swap a move with the next one when that one enters the unit it left
    i = next(i for i in range(len(ops) - 1)
             if ops[i + 1]["bindings"]["TO"] == ops[i]["bindings"]["FROM"])
    swapped = ops[:i] + [ops[i + 1], ops[i]] + ops[i + 2:]
    with pytest.raises(CheckFailed, match="occupied|is not at"):
        replay(plant, goal, renumber(record, swapped))


def test_rejects_a_plan_one_move_short(demo_2341):
    plant, goal, record = demo_2341
    with pytest.raises(CheckFailed, match="ends at"):
        replay(plant, goal, renumber(record, record["operations"][:-1]))


@pytest.mark.parametrize("delta", [MOVE_S, -MOVE_S])
def test_rejects_a_stated_cost_off_by_ten_seconds(demo_2341, delta):
    plant, goal, record = demo_2341
    with pytest.raises(CheckFailed, match="record says cost"):
        replay(plant, goal, dict(record, totalCost=record["totalCost"] + delta))


def test_rejects_a_move_along_no_track(demo_2341):
    plant, goal, record = demo_2341
    ops = [dict(op) for op in record["operations"]]
    first = ops[0]["bindings"]
    # no track leads from a unit to itself
    ops[0] = dict(ops[0], bindings=dict(first, TO=first["FROM"]))
    with pytest.raises(CheckFailed, match="no track"):
        replay(plant, goal, renumber(record, ops))


@pytest.fixture(scope="module")
def drill():
    model = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    plant = Plant(model_to_dict(model))
    goal = goal_to_dict(generate_drill_goal(model))
    reference = Reference(plant)
    return plant, goal, record_of(goal["id"], reference.plan(goal)), reference


def test_drilling_plan_replays_at_the_optimum(drill):
    plant, goal, record, reference = drill
    assert replay(plant, goal, record) == reference.optimum(goal)
    assert sum(op["segmentId"] == "DrillBoard" for op in record["operations"]) == 3


def test_rejects_drilling_a_board_twice(drill):
    plant, goal, record, _ = drill
    ops = record["operations"]
    first = next(i for i, op in enumerate(ops) if op["segmentId"] == "DrillBoard")
    twice = ops[: first + 1] + [ops[first]] + ops[first + 1:]
    with pytest.raises(CheckFailed, match="already drilled"):
        replay(plant, goal, renumber(record, twice))


def test_rejects_drilling_out_of_reach(drill):
    plant, goal, record, _ = drill
    ops = record["operations"]
    # a board whose shuttle starts away from the robot, drilled first
    far = next(i for i, op in enumerate(ops) if op["segmentId"] == "DrillBoard"
               and plant.start[op["bindings"]["SHUTTLE"]] != op["bindings"]["PU"])
    early = [ops[far]] + ops[:far] + ops[far + 1:]
    with pytest.raises(CheckFailed, match="reach"):
        replay(plant, goal, renumber(record, early))


def test_lower_bound_stays_below_the_ring_optimum():
    model = generate_ring_layout(7, 0.65)
    plant = Plant(model_to_dict(model))
    goal = goal_to_dict(generate_reverse_goal(model))
    assert 0 < lower_bound(plant, goal) <= Reference(plant).optimum(goal)
