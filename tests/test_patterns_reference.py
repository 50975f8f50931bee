"""``pattern_tables`` returns exactly the reference heuristic's tables.

The reference (``reference_patterns``) is the set-based version that
``prodplan.planner.patterns`` replaced. Its invariants are a greatest
fixpoint, so any sound way to compute them gives the same implications
and the same tables. Checked on the 23 demo goals and rings 5–15, on
both search sides wherever the goal has a reverse problem, and on
drilling rings 5–11; the backward side's input comes from the helper
``solve_bidirectional`` uses. The compiled core's invariants and tables
must equal the pure ones on the same tasks; rings 13 and 15 have more
than 64 fluents, so their bit sets span several words.
"""

from __future__ import annotations

import dataclasses

import pytest

from prodplan.demo import build_demo_model
from prodplan.model_io import (
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
)
from prodplan.planner import available_backends, backend_module, patterns
from prodplan.planner.grounding import ground
from prodplan.planner.search import _backward_input
from prodplan.transform import derive_domain, derive_problem, derive_reverse_problem

import reference_patterns

LOAD = 0.65


def _sides(model, goal):
    """(label, fluents, init, goal_pos, goal_neg, actions) of the forward
    side, and of the backward side when the goal has one."""
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, goal, report))
    init = sorted(task.init)
    sides = [("forward", task.fluents, init, task.goal_pos, task.goal_neg, task.actions)]
    reverse = derive_reverse_problem(model, goal, report)
    if reverse is not None:
        init_b, r_actions = _backward_input(task, ground(domain, reverse))
        sides.append(("backward", task.fluents, init_b, init, (), r_actions))
    return sides


def _cases():
    demo = build_demo_model()
    for n, goal in enumerate(generate_permutation_goals(demo)):
        yield f"demo-{n}", demo, goal
    for size in range(5, 16):
        model = generate_ring_layout(size, LOAD)
        yield f"ring-{size}", model, generate_reverse_goal(model)
    for size in (5, 7, 9, 11):
        model = generate_ring_layout(size, LOAD, with_robot_and_boards=True)
        yield f"drilling-ring-{size}", model, generate_drill_goal(model)


def _relation(related) -> dict[int, frozenset[int]]:
    """A fluent relation, {fluent: set or int bit mask of fluents}, as
    {fluent: frozenset of fluents} without the empty entries."""
    out = {}
    for f, members in related.items():
        if isinstance(members, int):
            members = [q for q in range(members.bit_length()) if members >> q & 1]
        if members:
            out[f] = frozenset(members)
    return out


CASES = list(_cases())


@pytest.mark.parametrize("label, model, goal", CASES, ids=[c[0] for c in CASES])
def test_tables_and_invariants_match_the_reference(label, model, goal):
    sides = _sides(model, goal)
    if label.startswith("ring"):
        assert [side[0] for side in sides] == ["forward", "backward"]
    for side, fluents, init, goal_pos, goal_neg, actions in sides:
        expected = reference_patterns.pattern_tables(fluents, init, goal_pos, goal_neg, actions)
        got = patterns.pattern_tables(fluents, init, goal_pos, goal_neg, actions)
        for field in dataclasses.fields(expected):
            name = field.name
            assert getattr(got, name) == getattr(expected, name), (side, name)

        init_set = set(init)
        variables = patterns._variables(fluents, init_set, actions)
        assert variables == reference_patterns._variables(fluents, init_set, actions)
        ref_implies, ref_implied_by = reference_patterns._invariants(variables, init_set, actions)
        implies, implied_by = patterns._invariants(len(fluents), variables, init_set, actions)
        assert _relation(implies) == _relation(ref_implies), side
        assert _relation(implied_by) == _relation(ref_implied_by), side


@pytest.mark.skipif("compiled" not in available_backends(), reason="needs the compiled backend")
@pytest.mark.parametrize("label, model, goal", CASES, ids=[c[0] for c in CASES])
def test_compiled_core_builds_the_same_tables(label, model, goal):
    compiled = backend_module("compiled")
    for side, fluents, init, goal_pos, goal_neg, actions in _sides(model, goal):
        pure = patterns.pattern_tables(fluents, init, goal_pos, goal_neg, actions)
        got = patterns.pattern_tables(fluents, init, goal_pos, goal_neg, actions, core=compiled)
        assert got == pure, side

        init_set = set(init)
        variables = patterns._variables(fluents, init_set, actions)
        args = (len(fluents), variables, init_set, actions)
        assert compiled.invariants(*args) == patterns._invariants(*args), side
