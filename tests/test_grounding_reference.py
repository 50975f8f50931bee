"""The join-based grounder returns exactly the reference product grounder's task.

Equal means the same fluents in the same order, the same init and goal,
the same actions in the same order with the same costs, and the same
``goal_statically_false``; ``GroundTask`` and ``GroundAction`` are
records, so ``==`` compares every field.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.model_io import (
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
)
from prodplan.pddl import parse_domain, parse_problem, write_domain, write_problem
from prodplan.planner.grounding import ground
from prodplan.transform import derive_domain, derive_problem, derive_reverse_problem

from reference_grounding import reference_ground
from test_grounding import MICRO_DOMAIN, _micro_problem

LOAD = 0.65

UNREACHABLE_DOMAIN = (
    "(define (domain micro) (:types Thing)"
    " (:predicates (Up ?x - Thing) (Down ?x - Thing))"
    " (:action Flip :parameters (?x - Thing)"
    "   :precondition (Down ?x) :effect (Up ?x))"
    " (:action Rise :parameters (?x - Thing) :effect (Up ?x)))"
)
UNREACHABLE_PROBLEM = (
    "(define (problem m) (:domain micro) (:objects a - Thing)"
    " (:init) (:goal (Up a)))"
)

# Every construct the grounder compiles, with static facts that mention
# objects outside a parameter's type, a repeated variable and a constant.
SINK_DOMAIN = """
(define (domain sink)
  (:types Thing Box - object Crate - Thing)
  (:constants hub - Thing)
  (:predicates (Linked ?a ?b - object) (Pair ?a ?b - object) (Tagged ?x - object)
               (Up ?x - Thing) (Lit ?x - Box))
  (:functions (total-cost))
  (:action Lift
    :parameters (?c - Crate ?t - Thing)
    :precondition (and (Linked ?c ?t) (Linked ?t hub) (not (Tagged ?t)) (Pair ?c ?c)
                       (forall (?b - Box) (and (Linked ?b hub) (not (Linked ?t ?b))))
                       (exists (?u - Thing)
                         (and (Linked ?t ?u) (not (Tagged ?u)) (not (Up ?u)))))
    :effect (and (Up ?c) (not (Up ?t))
                 (when (Tagged ?c) (Up hub))
                 (forall (?b - Box) (Lit ?b))
                 (forall (?u - Thing)
                   (when (and (Linked ?c ?u) (not (Tagged ?u))) (not (Up ?u))))
                 (increase (total-cost) 3)))
  (:action Shine
    :parameters (?b - Box ?o - object)
    :precondition (and (Up hub) (Linked ?o ?b) (not (Pair ?o ?o)))
    :effect (Lit ?b)))
"""
SINK_PROBLEM = """
(define (problem s) (:domain sink)
  (:objects a b - Crate t1 t2 - Thing x y - Box)
  (:init (Linked a t1) (Linked a t2) (Linked a x) (Linked a b) (Linked a hub) (Linked b t2)
         (Linked b hub) (Linked t1 hub) (Linked t2 hub) (Linked x hub) (Linked y hub)
         (Linked t1 t2) (Linked t1 a) (Linked hub x) (Linked t2 y) (Linked b y)
         (Pair a a) (Pair b a) (Pair x x) (Pair hub hub) (Tagged t2) (Tagged a)
         (Up t1) (= (total-cost) 0))
  (:goal (and (Up a) (exists (?b - Box) (and (Pair ?b ?b) (Lit ?b)))))
  (:metric minimize (total-cost)))
"""

# (init, goal) pairs of the micro domain used in test_grounding.py
MICRO_CASES = [
    ("(Linked a b) (Linked a c)", "(Up a)"),
    ("(Up b)", "(Up a)"),
    ("(Heavy a) (Up b)", "(and (Up a))"),
    ("(Heavy a)", "(and (Up b) (Heavy b))"),
    ("(Up a)", "(and (not (Up a)) (Up b))"),
    ("(Linked a b) (Linked b c)", "(Up a)"),
]


def _assert_same(domain, problem):
    assert ground(domain, problem) == reference_ground(domain, problem)


@pytest.mark.parametrize("init,goal", MICRO_CASES)
def test_micro_tasks(init, goal):
    _assert_same(parse_domain(MICRO_DOMAIN), parse_problem(_micro_problem(init, goal)))


def test_every_construct_through_typed_joins():
    domain, problem = parse_domain(SINK_DOMAIN), parse_problem(SINK_PROBLEM)
    task = ground(domain, problem)
    assert {a.name for a in task.actions} == {"lift", "shine"}
    _assert_same(domain, problem)


def test_unreachable_precondition_task():
    _assert_same(parse_domain(UNREACHABLE_DOMAIN), parse_problem(UNREACHABLE_PROBLEM))


@pytest.mark.parametrize("switchable", [False, True])
def test_demo_goal_2341(switchable):
    model = build_demo_model(with_switchable_property=switchable)
    domain, report = derive_domain(model)
    _assert_same(domain, derive_problem(model, demo_goal_2341(), report))


@pytest.mark.parametrize("round_trip", [False, True], ids=["derived", "text"])
def test_demo_permutations(round_trip):
    model = build_demo_model()
    domain, report = derive_domain(model)
    if round_trip:
        domain = parse_domain(write_domain(domain))
    goals = generate_permutation_goals(model)
    assert len(goals) == 23
    for goal in goals:
        problem = derive_problem(model, goal, report)
        if round_trip:
            problem = parse_problem(write_problem(problem))
        _assert_same(domain, problem)


@lru_cache(maxsize=None)
def _ring(n_pus: int, drilling: bool):
    model = generate_ring_layout(n_pus, LOAD, with_robot_and_boards=drilling)
    domain, report = derive_domain(model)
    return model, domain, report


@pytest.mark.parametrize("n_pus", range(5, 16))
def test_ring_forward_and_reverse(n_pus):
    model, domain, report = _ring(n_pus, False)
    goal = generate_reverse_goal(model)
    _assert_same(domain, derive_problem(model, goal, report))
    reverse = derive_reverse_problem(model, goal, report)
    assert reverse is not None
    _assert_same(domain, reverse)


@pytest.mark.parametrize("n_pus", range(5, 10))
def test_drilling_ring(n_pus):
    model, domain, report = _ring(n_pus, True)
    _assert_same(domain, derive_problem(model, generate_drill_goal(model), report))


def test_demo_goals_interleaved_with_another_model():
    # ground() keeps the goal-independent half of its last call: runs of
    # demo goals reuse it, and a ring problem between them must neither be
    # served the demo's half nor leave its own for the next demo goal
    model = build_demo_model()
    domain, report = derive_domain(model)
    ring, ring_domain, ring_report = _ring(9, False)
    ring_goal = generate_reverse_goal(ring)
    ring_problems = [
        derive_problem(ring, ring_goal, ring_report),
        derive_reverse_problem(ring, ring_goal, ring_report),
    ]
    for i, goal in enumerate(generate_permutation_goals(model)):
        _assert_same(domain, derive_problem(model, goal, report))
        if i % 3 == 2:
            _assert_same(ring_domain, ring_problems[i // 3 % 2])
