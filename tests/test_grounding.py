from __future__ import annotations

import gc
import weakref

import pytest

from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.errors import (
    GroundingError,
    TypeMismatch,
    UnboundVariable,
    UnsupportedFeature,
)
from prodplan.model_io import generate_permutation_goals
from prodplan.pddl import parse_domain, parse_problem
from prodplan.planner import grounding
from prodplan.planner.grounding import MAX_ACTION_COST, ground
from prodplan.transform import derive_domain, derive_problem

import oracles

MICRO_DOMAIN = """
(define (domain micro)
  (:types Thing)
  (:predicates (Heavy ?x - Thing) (Up ?x - Thing) (Linked ?a ?b - Thing))
  (:functions (total-cost))
  (:action Lift
    :parameters (?x - Thing)
    :precondition (and (not (Up ?x)) (not (Heavy ?x)))
    :effect (and (Up ?x) (increase (total-cost) 2)))
  (:action Chain
    :parameters (?x - Thing)
    :precondition (exists (?y - Thing) (and (Linked ?x ?y) (Up ?y)))
    :effect (Up ?x)))
"""


def _micro_problem(init: str, goal: str) -> str:
    return (
        "(define (problem m) (:domain micro)"
        "  (:objects a b c - Thing)"
        f"  (:init {init} (= (total-cost) 0))"
        f"  (:goal {goal})"
        "  (:metric minimize (total-cost)))"
    )


def _ground_micro(init: str, goal: str):
    return ground(parse_domain(MICRO_DOMAIN), parse_problem(_micro_problem(init, goal)))


def test_demo_counts(demo_task):
    task = demo_task
    assert len(task.actions) == 24
    assert len(task.fluents) == 25
    assert not any(a.name.startswith("set") for a in task.actions)
    assert len(task.goal_pos) == 4 and not task.goal_neg
    assert not task.goal_statically_false
    # every (shuttle, edge) pair gives exactly one variant
    assert len(task.actions_by_label) == 24


def test_fluent_name_shapes(demo_task):
    task = demo_task
    assert "shuttlelocation e_shuttle-01 e_positioningunit-03" in task.fluents
    assert "equipmentpropertytrue ep_positioningunitoccupied-01" in task.fluents
    # static predicates never become fluents
    assert not any(f.startswith("positioningunitconnection") for f in task.fluents)
    assert not any(f.startswith("equipmentclassed") for f in task.fluents)


def test_demo_init_matches_model(demo_task):
    init = {demo_task.fluents[i] for i in demo_task.init}
    assert init == {
        "shuttlelocation e_shuttle-01 e_positioningunit-03",
        "shuttlelocation e_shuttle-02 e_positioningunit-01",
        "shuttlelocation e_shuttle-03 e_positioningunit-04",
        "shuttlelocation e_shuttle-04 e_positioningunit-02",
        "equipmentpropertytrue ep_positioningunitoccupied-01",
        "equipmentpropertytrue ep_positioningunitoccupied-02",
        "equipmentpropertytrue ep_positioningunitoccupied-03",
        "equipmentpropertytrue ep_positioningunitoccupied-04",
    }


def test_demo_action_semantics(demo_task):
    task = demo_task
    label = "moveshuttle e_shuttle-01 e_positioningunit-03 e_positioningunit-05"
    (idx,) = task.actions_by_label[label]
    action = task.actions[idx]
    names = task.fluents
    assert {names[i] for i in action.pre_pos} == {
        "shuttlelocation e_shuttle-01 e_positioningunit-03",
        "equipmentpropertytrue ep_positioningunitoccupied-03",
    }
    assert {names[i] for i in action.pre_neg} == {
        "shuttlelocation e_shuttle-01 e_positioningunit-05",
        "equipmentpropertytrue ep_positioningunitoccupied-05",
    }
    assert {names[i] for i in action.add} == {
        "shuttlelocation e_shuttle-01 e_positioningunit-05",
        "equipmentpropertytrue ep_positioningunitoccupied-05",
    }
    assert {names[i] for i in action.delete} == {
        "shuttlelocation e_shuttle-01 e_positioningunit-03",
        "equipmentpropertytrue ep_positioningunitoccupied-03",
    }
    assert action.cost == 10


def test_switchable_property_enables_set_actions():
    model = build_demo_model(with_switchable_property=True)
    domain, report = derive_domain(model)
    problem = derive_problem(model, demo_goal_2341(), report)
    task = ground(domain, problem)
    set_actions = [a for a in task.actions if a.name.startswith("set")]
    # one true + one false setter per switchable equipment property
    assert len(set_actions) == 8
    switchable = {a.args[0] for a in set_actions}
    assert all(arg.startswith("ep_beaconon") for arg in switchable)
    assert len(switchable) == 4


def test_drilling_task_grounds_reach_and_lots():
    from prodplan.model_io import generate_drill_goal, generate_ring_layout

    model = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    domain, report = derive_domain(model)
    problem = derive_problem(model, generate_drill_goal(model), report)
    task = ground(domain, problem)
    drills = [a for a in task.actions if a.name == "drillboard"]
    boards = len(model.material_lots)
    reach_units = sum(
        1 for c in model.connections if c.connection_type == "Reach-Connection"
    )
    # static reach/mount pruning: every drill pins one board to one unit
    assert len(drills) == boards * reach_units
    for action in drills:
        assert len(action.pre_pos) == 1  # only the shuttle position is fluent
        assert task.fluents[action.pre_pos[0]].startswith("shuttlelocation")


def test_exists_residues_expand_into_variants():
    task = _ground_micro("(Linked a b) (Linked a c)", "(Up a)")
    chains = [a for a in task.actions if a.name == "chain" and a.args == ("a",)]
    assert len(chains) == 2
    residues = {task.fluents[a.pre_pos[0]] for a in chains}
    assert residues == {"up b", "up c"}


def test_statically_false_exists_drops_action():
    task = _ground_micro("(Up b)", "(Up a)")
    assert all(not (a.name == "chain") for a in task.actions)


def test_heavy_static_filter():
    # Heavy is static (no effect touches it): true atoms kill Lift variants
    task = _ground_micro("(Heavy a) (Up b)", "(and (Up a))")
    lifted = {a.args[0] for a in task.actions if a.name == "lift"}
    assert lifted == {"b", "c"}
    # goal on a statically false atom is flagged, not crashed
    task = ground(
        parse_domain(MICRO_DOMAIN),
        parse_problem(_micro_problem("(Heavy a)", "(and (Up b) (Heavy b))")),
    )
    assert task.goal_statically_false


def test_goal_negative_literals():
    task = _ground_micro("(Up a)", "(and (not (Up a)) (Up b))")
    names = task.fluents
    assert {names[i] for i in task.goal_pos} == {"up b"}
    assert {names[i] for i in task.goal_neg} == {"up a"}


def test_oracle_agrees_on_micro_reachability():
    task = _ground_micro("(Linked a b) (Linked b c)", "(Up a)")
    states = oracles.enumerate_states(task)
    # c lifts freely; b chains from c or lifts; a chains from b or lifts
    assert frozenset() in states
    assert frozenset({"up a", "up b", "up c"}) in states
    assert oracles.shortest_cost(task) == 2  # lift a directly


def test_duplicate_objects_rejected():
    text = _micro_problem("(Up a)", "(Up a)").replace(
        "(:objects a b c - Thing)", "(:objects a a - Thing)"
    )
    with pytest.raises(GroundingError):
        ground(parse_domain(MICRO_DOMAIN), parse_problem(text))


def test_unknown_object_and_predicate_rejected():
    with pytest.raises(GroundingError):
        _ground_micro("(Up zz)", "(Up a)")
    with pytest.raises(GroundingError):
        _ground_micro("(Up a)", "(Wat a)")
    with pytest.raises(GroundingError):
        _ground_micro("(Up a b)", "(Up a)")


def test_domain_name_mismatch_rejected():
    problem = parse_problem(
        "(define (problem p) (:domain other) (:init) (:goal (and)))"
    )
    with pytest.raises(GroundingError):
        ground(parse_domain(MICRO_DOMAIN), problem)


def test_unknown_types_rejected():
    domain = parse_domain(
        "(define (domain micro) (:types Thing) (:predicates (Up ?x - Thing))"
        " (:action Bad :parameters (?x - Ghost) :effect (Up ?x)))"
    )
    problem = parse_problem(
        "(define (problem m) (:domain micro) (:objects a - Thing) (:init) (:goal (Up a)))"
    )
    with pytest.raises(TypeMismatch):
        ground(domain, problem)
    problem = parse_problem(
        "(define (problem m) (:domain micro) (:objects q - Ghost) (:init) (:goal (and)))"
    )
    with pytest.raises(TypeMismatch):
        ground(parse_domain(MICRO_DOMAIN), problem)


def test_unbound_variable_rejected():
    domain = parse_domain(
        "(define (domain micro) (:types Thing) (:predicates (Up ?x - Thing))"
        " (:action Bad :parameters (?x - Thing) :effect (Up ?y)))"
    )
    problem = parse_problem(
        "(define (problem m) (:domain micro) (:objects a - Thing) (:init) (:goal (Up a)))"
    )
    with pytest.raises(UnboundVariable):
        ground(domain, problem)


def test_nonzero_cost_init_rejected():
    text = _micro_problem("(Up a)", "(Up a)").replace(
        "(= (total-cost) 0)", "(= (total-cost) 7)"
    )
    with pytest.raises(UnsupportedFeature):
        ground(parse_domain(MICRO_DOMAIN), parse_problem(text))


def test_unreachable_precondition_prunes_action():
    domain = parse_domain(
        "(define (domain micro) (:types Thing)"
        " (:predicates (Up ?x - Thing) (Down ?x - Thing))"
        " (:action Flip :parameters (?x - Thing)"
        "   :precondition (Down ?x) :effect (Up ?x))"
        " (:action Rise :parameters (?x - Thing) :effect (Up ?x)))"
    )
    problem = parse_problem(
        "(define (problem m) (:domain micro) (:objects a - Thing)"
        " (:init) (:goal (Up a)))"
    )
    task = ground(domain, problem)
    # Down is affected by nothing and never true: Flip cannot fire
    assert [a.name for a in task.actions] == ["rise"]


def _costly_task(*amounts):
    increases = " ".join(f"(increase (total-cost) {amount})" for amount in amounts)
    domain = parse_domain(
        "(define (domain m) (:requirements :action-costs) (:types T)"
        " (:predicates (Up ?x - T)) (:functions (total-cost))"
        " (:action Raise :parameters (?x - T)"
        f"   :effect (and (Up ?x) {increases})))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain m) (:objects a - T) (:init) (:goal (Up a)))"
    )
    return ground(domain, problem)


def test_negative_action_cost_rejected():
    with pytest.raises(UnsupportedFeature):
        _costly_task(-5)


def test_action_cost_above_the_bound_rejected():
    assert MAX_ACTION_COST == 2**31 - 1
    (action,) = _costly_task(MAX_ACTION_COST).actions
    assert action.cost == MAX_ACTION_COST
    (action,) = _costly_task(MAX_ACTION_COST - 1, 1).actions
    assert action.cost == MAX_ACTION_COST
    message = rf"\(increase \(total-cost\) 1\): an action's cost must be from 0 to {MAX_ACTION_COST}"
    with pytest.raises(UnsupportedFeature, match=message):
        _costly_task(MAX_ACTION_COST, 1)
    with pytest.raises(UnsupportedFeature, match="must be from 0 to"):
        _costly_task(2**63)


@pytest.mark.parametrize(
    "bad_atom",
    ["(Wat ?x)", "(Up ?x ?x)", "(Up ?nowhere)", "(Up zz)"],
    ids=["unknown-predicate", "arity", "unbound", "unknown-constant"],
)
@pytest.mark.parametrize("dead", ["static-filter", "no-objects"])
def test_schema_errors_raised_without_surviving_bindings(bad_atom, dead):
    # Lift needs (Heavy ?x), which no init atom makes true, or ranges over a
    # type without objects: no binding ever reaches the bad atom
    kind = "Crate" if dead == "no-objects" else "Thing"
    domain = parse_domain(
        "(define (domain micro) (:types Thing Crate)"
        " (:predicates (Heavy ?x - Thing) (Up ?x - Thing))"
        f" (:action Lift :parameters (?x - {kind})"
        f"   :precondition (and (Heavy ?x) {bad_atom}) :effect (Up ?x)))"
    )
    problem = parse_problem(
        "(define (problem m) (:domain micro) (:objects a b - Thing)"
        " (:init) (:goal (Up a)))"
    )
    with pytest.raises(GroundingError):
        ground(domain, problem)


# -- reuse of the goal-independent half across goals ---------------------------


def test_demo_goals_reuse_one_grounding(constructions):
    model = build_demo_model()
    domain, report = derive_domain(model)
    goals = generate_permutation_goals(model)
    assert len(goals) == 23
    problems = [derive_problem(model, goal, report) for goal in goals]
    tasks = [ground(domain, problem) for problem in problems]
    assert len(constructions) == 1
    assert all(task.actions is tasks[0].actions for task in tasks)
    for task, problem in zip(tasks, problems):
        assert task == ground(domain._replace(), problem)
    assert len(constructions) == 24


def test_goals_naming_fluents_no_action_adds():
    # with (Heavy a) nothing adds (Up a): a goal naming it numbers it last
    # and keeps actions that need it; a goal that does not reuses the rest
    domain = parse_domain(MICRO_DOMAIN)
    for goal in ["(Up b)", "(and (Up a) (not (Up c)))", "(not (Up a))", "(Up c)"]:
        problem = parse_problem(_micro_problem("(Heavy a) (Linked b a)", goal))
        assert ground(domain, problem) == ground(parse_domain(MICRO_DOMAIN), problem)


def test_another_model_or_domain_object_grounds_afresh(constructions):
    domain = parse_domain(MICRO_DOMAIN)

    def problem(init: str, goal: str = "(Up a)", objects: str = "a b c"):
        text = _micro_problem(init, goal).replace("a b c - Thing", f"{objects} - Thing")
        return parse_problem(text)

    ground(domain, problem("(Up b)"))
    ground(domain, problem("(Up b)", "(Up c)"))
    assert len(constructions) == 1
    ground(domain, problem("(Up c)"))  # another init
    assert len(constructions) == 2
    ground(domain, problem("(Up c)", objects="a b c d"))  # other objects
    assert len(constructions) == 3
    ground(parse_domain(MICRO_DOMAIN), problem("(Up c)", objects="a b c d"))
    assert len(constructions) == 4  # an equal domain, but another object
    ground(domain, problem("(Up b)"))  # one entry: the first model was replaced
    assert len(constructions) == 5


@pytest.mark.parametrize("bad_goal", ["(Wat a)", "(Up zz)", "(Up a b)"])
def test_goal_errors_are_the_same_on_a_reused_grounding(constructions, bad_goal):
    bad = parse_problem(_micro_problem("(Up b)", bad_goal))
    good = parse_problem(_micro_problem("(Up b)", "(Up a)"))
    with pytest.raises(GroundingError) as fresh:
        ground(parse_domain(MICRO_DOMAIN), bad)
    domain = parse_domain(MICRO_DOMAIN)
    ground(domain, good)
    with pytest.raises(GroundingError) as reused:
        ground(domain, bad)
    assert len(constructions) == 2
    assert type(reused.value) is type(fresh.value)
    assert str(reused.value) == str(fresh.value)

    # a grounding that raises keeps nothing for the next call to reuse
    other = parse_domain(MICRO_DOMAIN)
    with pytest.raises(GroundingError):
        ground(other, bad)
    ground(other, good)
    assert len(constructions) == 4


def test_reuse_keeps_no_domain_alive():
    domain = parse_domain(MICRO_DOMAIN)
    ground(domain, parse_problem(_micro_problem("(Up b)", "(Up a)")))
    assert grounding._last is not None
    ref = weakref.ref(domain)
    del domain
    gc.collect()
    assert ref() is None
    assert grounding._last is None
