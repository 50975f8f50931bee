"""The pure core's hmax returns exactly the reference's h.

The reference (``reference_hmax``) is the Dijkstra sweep over single
fluents that ``_pysearch._make_hmax`` replaced with a sweep over cost
levels and bit sets. Both compute the same fluent costs, so h must be
equal on every state: states of seeded random walks on the demo goals,
rings 5–9 and drilling rings 5–9, random bit masks, and hand-built
tasks for the edge cases (actions without preconditions on the empty
state, a repeated precondition, an empty or unreachable goal, zero and
the largest action costs). Both cores' A* on hmax must also return the
same searches on the hand-built and random tasks.
"""

from __future__ import annotations

import random

import pytest

from prodplan.demo import build_demo_model
from prodplan.model_io import (
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
)
from prodplan.planner import _pysearch, available_backends
from prodplan.planner.grounding import MAX_ACTION_COST, GroundAction, GroundTask, ground
from prodplan.planner.search import solve
from prodplan.transform import derive_domain, derive_problem

import reference_hmax
from test_search import _outcome, _walk_task

INF = float("inf")
WALKS, WALK_LENGTH, MASKS = 20, 40, 100


def _model_tasks():
    demo = build_demo_model()
    domain, report = derive_domain(demo)
    for goal in generate_permutation_goals(demo):
        yield f"demo-{goal.id}", ground(domain, derive_problem(demo, goal, report))
    for size in range(5, 10):
        for drilling in (False, True):
            model = generate_ring_layout(size, 0.65, with_robot_and_boards=drilling)
            goal = generate_drill_goal(model) if drilling else generate_reverse_goal(model)
            domain, report = derive_domain(model)
            label = f"{'drilling-' if drilling else ''}ring-{size}"
            yield label, ground(domain, derive_problem(model, goal, report))


def _walk_states(task, rng):
    """The initial state and the states of seeded random walks from it."""
    pre_pos, pre_neg, add, keep, _, _ = _pysearch._masks(task.actions)
    start = _pysearch._mask(task.init)
    states = [start]
    for _ in range(WALKS):
        state = start
        for _ in range(WALK_LENGTH):
            applicable = [
                a
                for a in range(len(task.actions))
                if state & pre_pos[a] == pre_pos[a] and not state & pre_neg[a]
            ]
            if not applicable:
                break
            a = rng.choice(applicable)
            state = (state & keep[a]) | add[a]
            states.append(state)
    return states


def _assert_equal_h(task, states):
    n = len(task.fluents)
    expected = reference_hmax._make_hmax(n, task.actions, task.goal_pos)
    got = _pysearch._make_hmax(n, task.actions, task.goal_pos)
    for state in states:
        assert got(state) == expected(state), bin(state)


MODEL_TASKS = list(_model_tasks())


@pytest.mark.parametrize("label, task", MODEL_TASKS, ids=[t[0] for t in MODEL_TASKS])
def test_walk_states_and_random_masks_match_the_reference(label, task):
    rng = random.Random(label)
    states = _walk_states(task, rng)
    states += [rng.getrandbits(len(task.fluents)) for _ in range(MASKS)]
    _assert_equal_h(task, states)


def test_the_hand_built_walk_matches_the_reference():
    # 72 fluents over 9 bytes, a repeated precondition and an action
    # without positive preconditions
    task = _walk_task()
    rng = random.Random(7)
    states = _walk_states(task, rng) + [rng.getrandbits(72) for _ in range(MASKS)]
    _assert_equal_h(task, states)


def _action(pre, add, cost):
    return GroundAction("a", (str(cost),), tuple(pre), (), tuple(add), (), cost)


def _task(n_fluents, actions, goal, init=()):
    fluents = tuple(f"f{i}" for i in range(n_fluents))
    return GroundTask(fluents, frozenset(init), tuple(goal), (), tuple(actions))


def _h(task, state):
    """h of the pure core, checked against the reference."""
    n = len(task.fluents)
    h = _pysearch._make_hmax(n, task.actions, task.goal_pos)(state)
    assert h == reference_hmax._make_hmax(n, task.actions, task.goal_pos)(state)
    return h


def _assert_same_searches(task):
    pure, *others = (
        _outcome(solve(task, heuristic="hmax", backend=b)) for b in available_backends()
    )
    assert all(outcome == pure for outcome in others)


def test_actions_without_preconditions_fire_on_the_empty_state():
    # f0 is free at cost 0 and f1 at cost 3; f2 needs both
    actions = [_action([], [0], 0), _action([], [1], 3), _action([0, 1], [2], 2)]
    assert _h(_task(3, actions, [0]), 0) == 0
    assert _h(_task(3, actions, [1]), 0) == 3
    assert _h(_task(3, actions, [2]), 0) == 5
    assert _h(_task(3, actions, [2]), 0b010) == 2
    _assert_same_searches(_task(3, actions, [2]))


def test_a_repeated_precondition_counts_once():
    actions = [_action([0, 0], [1], 4), _action([1, 0, 1], [2], 1)]
    task = _task(3, actions, [2], init=[0])
    assert _h(task, 0b001) == 5
    assert _h(task, 0b000) == INF
    _assert_same_searches(task)


def test_an_empty_goal_costs_nothing():
    task = _task(2, [_action([0], [1], 9)], [])
    assert _h(task, 0) == 0
    assert _h(task, 0b11) == 0


def test_an_unreachable_goal_costs_inf():
    # f3 has no achiever, and f2's achiever needs it
    actions = [_action([0], [1], 1), _action([1, 3], [2], 1)]
    task = _task(4, actions, [1, 2], init=[0])
    assert _h(task, 0b0001) == INF
    assert _h(task, 0b1001) == 2
    _assert_same_searches(task)


def test_mixed_costs_up_to_the_largest():
    # two routes to f3: through f1 at MAX + 1, or through f2 at 7 + 0;
    # zero-cost actions chain within one level
    big = MAX_ACTION_COST
    actions = [
        _action([0], [1], big),
        _action([1], [3], 1),
        _action([0], [2], 7),
        _action([2], [4], 0),
        _action([4], [3, 5], 0),
        _action([5, 1], [6], 3),
    ]
    task = _task(7, actions, [3], init=[0])
    assert _h(task, 0b1) == 7
    assert _h(_task(7, actions, [6], init=[0]), 0b1) == big + 3
    assert _h(_task(7, actions, [3, 1], init=[0]), 0b1) == big
    for goal in ([3], [6], [3, 1]):
        _assert_same_searches(_task(7, actions, goal, init=[0]))


def _random_task(rng):
    n = rng.randint(1, 12)
    costs = (0, 1, 2, 5, 10, MAX_ACTION_COST)
    actions = [
        _action(
            [rng.randrange(n) for _ in range(rng.randint(0, 3))],
            [rng.randrange(n) for _ in range(rng.randint(1, 2))],
            rng.choice(costs),
        )
        for _ in range(rng.randint(0, 16))
    ]
    goal = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
    init = [f for f in range(n) if rng.random() < 0.3]
    return _task(n, actions, goal, init)


def test_random_tasks_match_the_reference():
    rng = random.Random(23)
    for _ in range(300):
        task = _random_task(rng)
        states = [rng.getrandbits(len(task.fluents)) for _ in range(20)] + [0]
        _assert_equal_h(task, states)
        _assert_same_searches(task)
