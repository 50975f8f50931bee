"""Seeded random track plants as a correctness net for both search cores.

Each plant comes from ``model_io.track_layout``: 3-7 PUs, 1-4 shuttles,
0-2 curves and random directed tracks, about 30% with drilling. Each
gets random partial placement goals, plus the drill goal where there is
one. Every task is checked against its exact costs to go (a backward
Dijkstra over the reachable state graph, ``test_patterns``): A* finds
the optimal cost, greedy solves exactly the solvable tasks, hmax at the
initial state equals the reference's and the greedy tables never
overestimate, and both cores build the same tables and return the same
searches.
"""

from __future__ import annotations

import functools
import random

import pytest

from prodplan.model_io import GoalSpec, generate_drill_goal, track_layout
from prodplan.pddl import parse_domain, parse_problem
from prodplan.planner import _pysearch, available_backends, backend_module
from prodplan.planner.grounding import ground
from prodplan.planner.patterns import _variables, pattern_tables
from prodplan.planner.search import solve, validate_plan
from prodplan.transform import derive_domain, derive_problem

import reference_hmax
from test_patterns import INF, _exact_costs_to_go, _forward_h, _mask

SEED = 20
PLANTS = 400
GOALS_PER_PLANT = 3
# (mode, heuristic) of every search run on every task
SEARCHES = (("optimal", "hmax"), ("optimal", "blind"), ("greedy", None))


def _random_plant(rng: random.Random):
    n_pus = rng.randint(3, 7)
    curves = [f"C{i}" for i in range(1, rng.randint(0, 2) + 1)]
    nodes = list(range(1, n_pus + 1)) + curves
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    tracks = rng.sample(pairs, rng.randint(len(nodes) - 1, 2 * len(nodes)))
    shuttle_pus = rng.sample(range(1, n_pus + 1), rng.randint(1, min(4, n_pus)))
    return track_layout(
        [(10.0 * i, 0.0, 0.0) for i in range(1, n_pus + 1)],
        tracks,
        shuttle_pus,
        curves,
        drilling=rng.random() < 0.3,
    )


def _random_goals(rng: random.Random, model, n_pus: int, n_shuttles: int):
    goals = []
    for k in range(GOALS_PER_PLANT):
        shuttles = rng.sample(range(1, n_shuttles + 1), rng.randint(1, n_shuttles))
        units = rng.sample(range(1, n_pus + 1), len(shuttles))
        placements = tuple(
            (f"Shuttle-{s:02d}", f"PositioningUnit-{u:02d}") for s, u in zip(shuttles, units)
        )
        goals.append(GoalSpec(id=f"goal-{k}", shuttle_locations=placements))
    if model.material_lots:
        goals.append(generate_drill_goal(model))
    return goals


@functools.lru_cache(maxsize=None)
def _tasks():
    """(name, task, exact costs to go) of every random task."""
    rng = random.Random(SEED)
    tasks = []
    for p in range(PLANTS):
        model = _random_plant(rng)
        n_pus = sum(1 for e in model.equipment if e.id.startswith("PositioningUnit-"))
        n_shuttles = sum(1 for e in model.equipment if e.id.startswith("Shuttle-"))
        domain, report = derive_domain(model)
        for goal in _random_goals(rng, model, n_pus, n_shuttles):
            task = ground(domain, derive_problem(model, goal, report))
            tasks.append((f"plant {p} {goal.id}", task, _exact_costs_to_go(task)))
    return tasks


def _outcome(result):
    return result.status, result.plan, result.cost, result.expanded, result.generated


def test_the_net_holds_solvable_unsolvable_and_drilling_tasks():
    tasks = _tasks()
    solvable = [exact[_mask(task.init)] < INF for _, task, exact in tasks]
    assert 0 < sum(solvable) < len(tasks)
    assert any(name.endswith("goal-drill-all") for name, _, _ in tasks)


def test_optimal_cost_is_the_exact_cost_to_go():
    for name, task, exact in _tasks():
        best = exact[_mask(task.init)]
        for heuristic in ("hmax", "blind"):
            result = solve(task, heuristic=heuristic, backend="pure")
            if best == INF:
                assert result.status == "unsolvable", (name, heuristic)
            else:
                assert (result.status, result.cost) == ("solved", best), (name, heuristic)
                assert validate_plan(task, result.plan) == best, (name, heuristic)


def test_greedy_solves_exactly_the_solvable_tasks():
    for name, task, exact in _tasks():
        result = solve(task, mode="greedy", backend="pure")
        assert result.solved == (exact[_mask(task.init)] < INF), name
        if result.solved:
            assert validate_plan(task, result.plan) == result.cost, name


def test_hmax_at_the_initial_state_matches_the_reference_and_never_overestimates():
    for name, task, exact in _tasks():
        start = _mask(task.init)
        args = (len(task.fluents), task.actions, task.goal_pos)
        h = _pysearch._make_hmax(*args)(start)
        assert h == reference_hmax._make_hmax(*args)(start), name
        assert h <= exact[start], name


def test_greedy_tables_never_overestimate():
    for name, task, exact in _tasks():
        h_of = _forward_h(task)
        for state, cost in exact.items():
            h = h_of(state)
            assert h <= cost and (h < INF or cost == INF), (name, bin(state))


@pytest.mark.skipif("compiled" not in available_backends(), reason="needs the compiled backend")
def test_both_cores_return_the_same_searches():
    for name, task, _ in _tasks():
        for mode, heuristic in SEARCHES:
            pure, compiled = (
                _outcome(solve(task, mode=mode, heuristic=heuristic, backend=b))
                for b in ("pure", "compiled")
            )
            assert pure == compiled, (name, mode, heuristic)


def _switch_task():
    """A task without a multi-valued variable: lighting a lamp leaves the
    one before it lit, so no group of fluents is one variable."""
    domain = parse_domain(
        "(define (domain lamps) (:predicates (lit ?x) (wired ?x ?y))"
        " (:action light :parameters (?x ?y)"
        "   :precondition (and (wired ?x ?y) (lit ?x) (not (lit ?y)))"
        "   :effect (lit ?y)))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain lamps) (:objects a b c)"
        " (:init (lit a) (wired a b) (wired b c)) (:goal (lit c)))"
    )
    return ground(domain, problem)


@pytest.mark.skipif("compiled" not in available_backends(), reason="needs the compiled backend")
def test_both_cores_build_the_same_tables():
    switch = _switch_task()
    assert _variables(switch.fluents, set(switch.init), switch.actions) == []
    compiled = backend_module("compiled")
    for name, task in [*((name, task) for name, task, _ in _tasks()), ("switch", switch)]:
        args = (task.fluents, sorted(task.init), task.goal_pos, task.goal_neg, task.actions)
        assert pattern_tables(*args, core=compiled) == pattern_tables(*args), name
