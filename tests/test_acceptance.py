"""End-to-end gate for the whole toolchain.

One test per shipped claim; run with ``pytest -v`` to get a pass/fail
line for each. These intentionally re-run the full pipeline rather than
poking internals, and check costs against the naive oracles.
"""

from __future__ import annotations

import random
import time

import pytest

from prodplan.cli import main
from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.errors import PreconditionViolated
from prodplan.operations import merge, plan_to_operations
from prodplan.model_io import (
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
    save_goal_model,
    save_production_model,
)
from prodplan.pddl import Plan, PlanStep, parse_domain, parse_plan, parse_problem, write_domain, write_plan, write_problem
from prodplan.planner.grounding import ground
from prodplan.planner.search import plan, solve, validate_plan
from prodplan.transform import derive_domain, derive_problem

import oracles
from astgen import random_domain, random_plan, random_problem

# Hand-checked 5-step reordering of the default layout (1-2-3-4 to
# 2-3-4-1); any equal-cost plan is acceptable, but this exact sequence
# must always validate.
REFERENCE_REORDER_STEPS = (
    PlanStep("moveshuttle", ("e_shuttle-01", "e_positioningunit-03", "e_positioningunit-05")),
    PlanStep("moveshuttle", ("e_shuttle-02", "e_positioningunit-01", "e_positioningunit-03")),
    PlanStep("moveshuttle", ("e_shuttle-03", "e_positioningunit-04", "e_positioningunit-01")),
    PlanStep("moveshuttle", ("e_shuttle-04", "e_positioningunit-02", "e_positioningunit-04")),
    PlanStep("moveshuttle", ("e_shuttle-01", "e_positioningunit-05", "e_positioningunit-02")),
)


def test_criterion_1_demo_reordering_costs_50_seconds():
    started = time.perf_counter()
    model = build_demo_model()
    goal = demo_goal_2341()
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, goal, report))
    result = solve(task, mode="optimal")
    record = plan_to_operations(result.plan, report, goal.id)
    integrated = merge(model, [record])
    elapsed = time.perf_counter() - started

    assert result.status == "solved"
    assert record.total_cost == 50
    assert len(record.operations) == 5
    assert all(op.segment_id == "MoveShuttle" for op in record.operations)
    assert integrated.operations_definitions == (record,)
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"

    reference = Plan(steps=REFERENCE_REORDER_STEPS, cost=50)
    assert validate_plan(task, reference) == 50


def test_criterion_2_all_23_reorderings_solved_optimally_in_5s():
    model = build_demo_model()
    domain, report = derive_domain(model)
    goals = generate_permutation_goals(model)
    assert len(goals) == 23

    total_wall_ms = 0.0
    for goal in goals:
        task = ground(domain, derive_problem(model, goal, report))
        result = solve(task, mode="optimal")
        assert result.status == "solved", goal.id
        assert result.cost == oracles.shortest_cost(task), goal.id
        total_wall_ms += result.wall_time_ms
    assert total_wall_ms < 5000.0, f"solver spent {total_wall_ms:.0f}ms"


def test_criterion_3_scaling_optimal_small_greedy_large():
    steps_by_size = {}
    for size in (5, 7, 9):
        model = generate_ring_layout(size, 0.65)
        domain, report = derive_domain(model)
        goal = generate_reverse_goal(model)
        task = ground(domain, derive_problem(model, goal, report))
        result = solve(task, mode="optimal", time_limit=300.0)
        assert result.status == "solved", size
        assert result.cost == oracles.shortest_cost(task), size
        steps_by_size[size] = len(result.plan.steps)
    assert steps_by_size[5] < steps_by_size[7] < steps_by_size[9]

    for size in (11, 13, 15):
        model = generate_ring_layout(size, 0.65)
        domain, report = derive_domain(model)
        problem = derive_problem(model, generate_reverse_goal(model), report)
        task = ground(domain, problem)
        started = time.perf_counter()
        result = plan(domain, problem, mode="greedy", time_limit=300.0)
        elapsed = time.perf_counter() - started
        assert result.status == "solved", f"size {size}: {result.status}"
        assert elapsed < 300.0, f"size {size} took {elapsed:.0f}s"
        assert validate_plan(task, result.plan) == result.cost, size


def test_criterion_4_drilling_layouts_drill_every_board_exactly_once():
    for size in (5, 7):
        model = generate_ring_layout(size, 0.65, with_robot_and_boards=True)
        domain, report = derive_domain(model)
        goal = generate_drill_goal(model)
        task = ground(domain, derive_problem(model, goal, report))
        result = solve(task, mode="optimal", time_limit=300.0)
        assert result.status == "solved", size
        validate_plan(task, result.plan)

        boards = {f"m_{lot.id.lower()}" for lot in model.material_lots}
        mounted_on = {
            f"m_{lot.id.lower()}": f"e_{lot.mounted_on_equipment_id.lower()}"
            for lot in model.material_lots
        }
        drilled = []
        state = set(task.init)
        names = task.fluents
        fluent_index = {name: i for i, name in enumerate(names)}
        for step in result.plan.steps:
            label = " ".join((step.action,) + step.args)
            (idx,) = task.actions_by_label[label]
            action = task.actions[idx]
            assert all(f in state for f in action.pre_pos)
            assert not any(f in state for f in action.pre_neg)
            if step.action == "drillboard":
                robot, shuttle, unit, board = step.args
                drilled.append(board)
                assert mounted_on[board] == shuttle
                # the board's shuttle is parked at the drill's unit
                assert fluent_index[f"shuttlelocation {shuttle} {unit}"] in state
            state = (state - set(action.delete)) | set(action.add)
        assert sorted(drilled) == sorted(boards), size

    # the next size up may or may not finish on a tight budget, but it
    # must come back with a status either way
    model = generate_ring_layout(9, 0.65, with_robot_and_boards=True)
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, generate_drill_goal(model), report))
    result = solve(task, mode="optimal", time_limit=2.0)
    assert result.status in ("solved", "timeout", "memout")


def test_criterion_5_parser_writer_round_trips(tmp_path):
    rng = random.Random(1337)
    for _ in range(1000):
        domain = random_domain(rng)
        assert parse_domain(write_domain(domain)) == domain
        problem = random_problem(rng, domain)
        assert parse_problem(write_problem(problem)) == problem
        plan = random_plan(rng)
        assert parse_plan(write_plan(plan)) == plan

    model_path = tmp_path / "model.json"
    goal_path = tmp_path / "goal.json"
    save_production_model(build_demo_model(), model_path)
    save_goal_model(demo_goal_2341(), goal_path)
    base = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    direct = tmp_path / "direct"
    emitted = tmp_path / "emitted"
    assert main(base + ["--out", str(direct), "--emit-pddl"]) == 0
    assert main(base + ["--out", str(emitted), "--use-emitted"]) == 0
    assert (direct / "plan-goal-2341.txt").read_bytes() == (
        emitted / "plan-goal-2341.txt"
    ).read_bytes()
    for name in ("domain.pddl", "problem-goal-2341.pddl"):
        assert (direct / name).read_bytes() == (emitted / name).read_bytes()


def test_criterion_6_every_reachable_state_is_physical(demo_task):
    states = oracles.enumerate_states(demo_task)
    assert len(states) == 120  # 5 units, 4 distinguishable shuttles

    for state in states:
        at = {}
        for fluent in state:
            if fluent.startswith("shuttlelocation "):
                _, shuttle, unit = fluent.split()
                assert shuttle not in at, f"{shuttle} in two places: {sorted(state)}"
                at[shuttle] = unit
        # every shuttle is somewhere, every place holds at most one shuttle
        assert len(at) == 4
        assert len(set(at.values())) == 4
        occupied_units = {
            f"e_positioningunit-{fluent.rsplit('-', 1)[1]}"
            for fluent in state
            if fluent.startswith("equipmentpropertytrue ep_positioningunitoccupied-")
        }
        assert occupied_units == set(at.values())

    good = solve(demo_task).plan
    swapped = Plan(steps=(good.steps[1], good.steps[0]) + good.steps[2:])
    with pytest.raises(PreconditionViolated) as err:
        validate_plan(demo_task, swapped)
    assert err.value.step_index == 0


def test_criterion_7_only_implicit_properties_stay_unswitchable():
    model = build_demo_model()
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, demo_goal_2341(), report))
    assert sum(1 for a in task.actions if a.name.startswith("set")) == 0

    switchable = build_demo_model(with_switchable_property=True)
    domain, report = derive_domain(switchable)
    task = ground(domain, derive_problem(switchable, demo_goal_2341(), report))
    set_actions = [a for a in task.actions if a.name.startswith("set")]
    assert len(set_actions) == 8
