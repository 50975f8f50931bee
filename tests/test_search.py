from __future__ import annotations

import dataclasses

import pytest

from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.errors import (
    CostMismatch,
    GoalNotReached,
    GroundingError,
    PreconditionViolated,
    UnknownAction,
)
from prodplan.model import Duration, validate_model
from prodplan.model_io import (
    GoalSpec,
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
)
from prodplan.pddl import Plan, PlanStep, parse_domain, parse_problem
from prodplan.planner import _pysearch, available_backends
from prodplan.planner.grounding import (
    MAX_ACTION_COST,
    GroundAction,
    GroundTask,
    ground,
)
from prodplan.planner.search import plan, solve, solve_bidirectional, validate_plan
from prodplan.transform import derive_domain, derive_problem, derive_reverse_problem

import oracles

BACKENDS = available_backends()


def _demo_tasks():
    model = build_demo_model()
    domain, report = derive_domain(model)
    return [
        (goal.id, ground(domain, derive_problem(model, goal, report)))
        for goal in generate_permutation_goals(model)
    ]


def _ring_task(size, reverse=False, drilling=False):
    model = generate_ring_layout(size, 0.65, with_robot_and_boards=drilling)
    domain, report = derive_domain(model)
    goal = generate_drill_goal(model) if drilling else generate_reverse_goal(model)
    task = ground(domain, derive_problem(model, goal, report))
    if not reverse:
        return task
    reverse_problem = derive_reverse_problem(model, goal, report)
    assert reverse_problem is not None
    return task, ground(domain, reverse_problem)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("heuristic", ["blind", "hmax"])
def test_optimal_matches_oracle_on_all_demo_goals(backend, heuristic):
    for goal_id, task in _demo_tasks():
        expected = oracles.shortest_cost(task)
        result = solve(task, mode="optimal", heuristic=heuristic, backend=backend)
        assert result.status == "solved", goal_id
        assert result.cost == expected, goal_id
        assert validate_plan(task, result.plan) == expected, goal_id
        assert result.backend == backend


def _outcome(result):
    return result.status, result.cost, result.plan, result.expanded, result.generated


def test_backends_return_identical_plans():
    cases = _demo_tasks() + [("drilling ring 7", _ring_task(7, drilling=True))]
    for goal_id, task in cases:
        for mode in ("optimal", "greedy"):
            outcomes = {
                _outcome(solve(task, mode=mode, backend=b))
                for b in BACKENDS
            }
            assert len(outcomes) == 1, (goal_id, mode)
    greedy_only = [(f"ring {n}", _ring_task(n)) for n in range(5, 14)] + [
        (f"drilling ring {n}", _ring_task(n, drilling=True)) for n in (5, 6, 7, 8, 9)
    ]
    for goal_id, task in greedy_only:
        outcomes = {_outcome(solve(task, mode="greedy", backend=b)) for b in BACKENDS}
        assert len(outcomes) == 1, goal_id
        status, cost, plan, _, _ = outcomes.pop()
        assert status == "solved", goal_id
        assert validate_plan(task, plan) == cost, goal_id


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "drilling, cost, steps, expanded, generated",
    [(False, 570, 57, 178, 226), (True, 390, 29, 118, 169)],
    ids=["ring-7", "drilling-ring-7"],
)
def test_single_frontier_greedy_figures(
    backend, drilling, cost, steps, expanded, generated
):
    # pins the greedy loop's exact behaviour: tie-breaking, deferred
    # evaluation and what counts as expanded and generated
    task = _ring_task(7, drilling=drilling)
    result = solve(task, mode="greedy", backend=backend)
    assert result.status == "solved"
    assert (result.cost, len(result.plan.steps)) == (cost, steps)
    assert (result.expanded, result.generated) == (expanded, generated)
    assert validate_plan(task, result.plan) == cost


@pytest.mark.parametrize("backend", BACKENDS)
def test_optimal_from_every_reachable_state(demo_task, backend):
    distances = oracles.all_goal_distances(demo_task)
    fluent_index = {name: i for i, name in enumerate(demo_task.fluents)}
    for state, expected in sorted(distances.items(), key=lambda kv: sorted(kv[0])):
        shifted = demo_task._replace(init=frozenset(fluent_index[f] for f in state))
        result = solve(shifted, backend=backend)
        if expected is None:
            assert result.status == "unsolvable"
        else:
            assert result.cost == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_greedy_is_valid_not_necessarily_optimal(backend, demo_task):
    result = solve(demo_task, mode="greedy", backend=backend)
    assert result.status == "solved"
    assert validate_plan(demo_task, result.plan) == result.cost
    assert result.cost >= oracles.shortest_cost(demo_task)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ring_seven_optimal_cost_matches_oracle(backend):
    task = _ring_task(7)
    expected = oracles.shortest_cost(task)
    result = solve(task, backend=backend)
    assert result.status == "solved"
    assert result.cost == expected
    assert validate_plan(task, result.plan) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_status_timeout_and_memout(backend):
    task = _ring_task(9)
    assert solve(task, time_limit=1e-6, backend=backend).status == "timeout"
    assert solve(task, node_limit=2, backend=backend).status == "memout"


@pytest.mark.parametrize("backend", BACKENDS)
def test_unsolvable_when_goal_fluent_unreachable(backend):
    domain = parse_domain(
        "(define (domain m) (:types T) (:predicates (Up ?x - T) (Down ?x - T))"
        " (:action Sink :parameters (?x - T) :precondition (Up ?x)"
        "   :effect (not (Up ?x))))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain m) (:objects a b - T)"
        " (:init (Up a)) (:goal (and (Up b) (not (Up a)))))"
    )
    task = ground(domain, problem)
    result = solve(task, backend=backend)
    assert result.status == "unsolvable"
    assert result.plan is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_statically_false_goal_short_circuits(backend):
    domain = parse_domain(
        "(define (domain m) (:types T) (:predicates (Up ?x - T) (Fixed ?x - T))"
        " (:action Raise :parameters (?x - T) :effect (Up ?x)))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain m) (:objects a - T)"
        " (:init) (:goal (and (Up a) (Fixed a))))"
    )
    task = ground(domain, problem)
    assert task.goal_statically_false
    result = solve(task, backend=backend)
    assert result.status == "unsolvable"
    assert result.expanded == 0
    # two-frontier search answers before it reads the reverse task
    result = solve_bidirectional(task, task, backend=backend)
    assert result.status == "unsolvable"
    assert result.expanded == 0


@pytest.mark.skipif("compiled" not in BACKENDS, reason="needs the compiled backend")
def test_compiled_backend_rejects_negative_costs():
    # the grounder refuses negative costs, so the task is built directly
    # to keep the kernel's own guard covered
    raise_a = GroundAction("raise", ("a",), (), (), (0,), (), -5)
    task = GroundTask(("up a",), frozenset(), (0,), (), (raise_a,))
    with pytest.raises(ValueError):
        solve(task, backend="compiled")


@pytest.mark.skipif("compiled" not in BACKENDS, reason="needs the compiled backend")
def test_compiled_search_releases_only_the_plans_it_was_handed(monkeypatch, demo_task):
    from prodplan.planner import _kernel

    real, released = _kernel.LIB, []

    class Counting:
        def __getattr__(self, name):
            return getattr(real, name)

        def release(self, plan):
            released.append(bool(plan))
            real.release(plan)

    monkeypatch.setattr(_kernel, "LIB", Counting())
    # a single-frontier search hands over one plan, the two-frontier one two
    for mode in ("optimal", "greedy"):
        assert solve(demo_task, mode=mode, backend="compiled").solved
    assert released == [True, True]
    task, reverse = _ring_task(5, reverse=True)
    assert solve_bidirectional(task, reverse, backend="compiled").solved
    assert released == [True] * 4


def test_backends_agree_at_the_largest_action_cost():
    # every move costs MAX_ACTION_COST, and no g value, h value or table
    # entry reaches the cores' 2**62 sentinels
    model = build_demo_model()
    segments = tuple(
        dataclasses.replace(seg, duration=Duration(MAX_ACTION_COST))
        if seg.id == "MoveShuttle"
        else seg
        for seg in model.process_segments
    )
    model = dataclasses.replace(model, process_segments=segments)
    assert validate_model(model) == []
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, demo_goal_2341(), report))
    optimal = solve(task, heuristic="hmax", backend="pure")
    assert optimal.cost == 5 * MAX_ACTION_COST
    for mode, heuristic in [("optimal", "hmax"), ("optimal", "blind"), ("greedy", None)]:
        outcomes = {
            _outcome(solve(task, mode=mode, heuristic=heuristic, backend=b))
            for b in BACKENDS
        }
        (outcome,) = outcomes
        assert outcome[:2] == ("solved", optimal.cost), mode


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["optimal", "greedy"])
def test_plan_returns_what_solve_returns(backend, mode):
    ring = generate_ring_layout(7, 0.65)
    cases = ((build_demo_model(), demo_goal_2341()), (ring, generate_reverse_goal(ring)))
    for model, goal in cases:
        domain, report = derive_domain(model)
        problem = derive_problem(model, goal, report)
        expected = solve(ground(domain, problem), mode=mode, backend=backend)
        assert expected.solved, goal.id
        result = plan(domain, problem, mode=mode, backend=backend)
        assert _outcome(result) == _outcome(expected), goal.id
        assert result.backend == backend


def test_plan_needs_a_workdir_for_an_external_solver(demo_model, demo_domain):
    domain, report = demo_domain
    problem = derive_problem(demo_model, demo_goal_2341(), report)
    with pytest.raises(ValueError, match="workdir"):
        plan(domain, problem, solver_cmd="solver {domain} {problem} {plan}")


def test_solve_rejects_unknown_modes(demo_task):
    with pytest.raises(ValueError):
        solve(demo_task, mode="magic")
    with pytest.raises(ValueError):
        solve(demo_task, heuristic="hland")


def test_greedy_takes_no_heuristic(demo_task):
    for heuristic in ("blind", "hmax"):
        with pytest.raises(ValueError, match=f"takes no heuristic, got '{heuristic}'"):
            solve(demo_task, mode="greedy", heuristic=heuristic)
    # no heuristic is hmax for A*
    for backend in BACKENDS:
        assert _outcome(solve(demo_task, backend=backend)) == _outcome(
            solve(demo_task, heuristic="hmax", backend=backend)
        )


# -- plan validation ---------------------------------------------------------


def test_validator_reports_first_violated_step(demo_task):
    good = solve(demo_task).plan
    swapped = Plan(steps=(good.steps[1], good.steps[0]) + good.steps[2:])
    with pytest.raises(PreconditionViolated) as err:
        validate_plan(demo_task, swapped)
    assert err.value.step_index == 0
    assert "preconditions" in str(err.value)


def test_validator_rejects_unknown_action(demo_task):
    with pytest.raises(UnknownAction) as err:
        validate_plan(demo_task, Plan(steps=(PlanStep("teleport", ("e_shuttle-01",)),)))
    assert err.value.step_index == 0
    assert str(err.value) == "step 0: no ground action 'teleport e_shuttle-01'"


def test_validator_rejects_partial_plans(demo_task):
    good = solve(demo_task).plan
    with pytest.raises(GoalNotReached):
        validate_plan(demo_task, Plan(steps=good.steps[:-1]))


def test_validator_rejects_wrong_cost_claim(demo_task):
    good = solve(demo_task).plan
    with pytest.raises(CostMismatch):
        validate_plan(demo_task, Plan(steps=good.steps, cost=good.cost + 1))
    # no claim, no check: the simulated cost is returned
    assert validate_plan(demo_task, Plan(steps=good.steps)) == good.cost


def test_validator_accepts_empty_plan_when_goal_holds():
    domain = parse_domain(
        "(define (domain m) (:types T) (:predicates (Up ?x - T))"
        " (:action Raise :parameters (?x - T) :effect (Up ?x)))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain m) (:objects a - T) (:init (Up a)) (:goal (Up a)))"
    )
    task = ground(domain, problem)
    assert validate_plan(task, Plan()) == 0


# -- meeting-frontiers search -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_bidirectional_solves_demo_goal(backend):
    model = build_demo_model()
    domain, report = derive_domain(model)
    goal = demo_goal_2341()
    task = ground(domain, derive_problem(model, goal, report))
    reverse = ground(domain, derive_reverse_problem(model, goal, report))
    result = solve_bidirectional(task, reverse, backend=backend)
    assert result.status == "solved"
    assert validate_plan(task, result.plan) == result.cost
    assert result.cost == 50


@pytest.mark.parametrize("backend", BACKENDS)
def test_bidirectional_matches_forward_greedy_validity_on_ring(backend):
    task, reverse = _ring_task(7, reverse=True)
    result = solve_bidirectional(task, reverse, backend=backend)
    assert result.status == "solved"
    assert validate_plan(task, result.plan) == result.cost


@pytest.mark.parametrize("backend", BACKENDS)
def test_heuristic_ms_is_the_table_build_of_greedy_search(backend):
    task, reverse = _ring_task(5, reverse=True)
    for result in (
        solve(task, mode="greedy", backend=backend),
        solve_bidirectional(task, reverse, backend=backend),
    ):
        assert result.status == "solved"
        assert 0 < result.heuristic_ms <= result.wall_time_ms
    for heuristic in ("blind", "hmax"):
        result = solve(task, mode="optimal", heuristic=heuristic, backend=backend)
        assert result.status == "solved"
        assert result.heuristic_ms == 0.0


def test_bidirectional_backends_agree_on_ring():
    model = build_demo_model()
    domain, report = derive_domain(model)
    cases = [
        (goal.id, ground(domain, derive_problem(model, goal, report)),
         ground(domain, derive_reverse_problem(model, goal, report)))
        for goal in generate_permutation_goals(model)
    ]
    cases += [(f"ring {n}", *_ring_task(n, reverse=True)) for n in range(5, 14)]
    for goal_id, task, reverse in cases:
        outcomes = {
            _outcome(solve_bidirectional(task, reverse, backend=b)) for b in BACKENDS
        }
        assert len(outcomes) == 1, goal_id
        status, cost, plan, _, _ = outcomes.pop()
        assert status == "solved", goal_id
        assert validate_plan(task, plan) == cost, goal_id


@pytest.mark.parametrize("backend", BACKENDS)
def test_bidirectional_status_timeout_and_memout(backend):
    task, reverse = _ring_task(9, reverse=True)
    timed_out = solve_bidirectional(task, reverse, time_limit=1e-6, backend=backend)
    assert timed_out.status == "timeout"
    assert timed_out.plan is None
    # the two start states already fill a cap of 2
    capped = solve_bidirectional(task, reverse, node_limit=2, backend=backend)
    assert capped.status == "memout"
    assert capped.plan is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_bidirectional_degenerates_when_start_is_goal(backend):
    model = build_demo_model()
    domain, report = derive_domain(model)
    from prodplan.model import build_routing_graph

    graph = build_routing_graph(model)
    stay = GoalSpec(id="stay", shuttle_locations=tuple(graph.shuttle_at.items()))
    task = ground(domain, derive_problem(model, stay, report))
    reverse = ground(domain, derive_reverse_problem(model, stay, report))
    result = solve_bidirectional(task, reverse, backend=backend)
    assert result.status == "solved"
    assert result.plan.steps == ()
    assert result.cost == 0


def test_bidirectional_rejects_mismatched_reverse_task(demo_task):
    model = build_demo_model()
    domain, report = derive_domain(model)
    goals = {g.id: g for g in generate_permutation_goals(model)}
    other = next(g for g in goals.values() if g.id != demo_goal_2341().id)
    wrong_reverse = ground(domain, derive_reverse_problem(model, other, report))
    task = ground(domain, derive_problem(model, demo_goal_2341(), report))
    with pytest.raises(GroundingError):
        solve_bidirectional(task, wrong_reverse)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bidirectional_reports_unsolvable(backend):
    # cut the loop: two units, one one-way edge, both occupied start and a
    # swap goal that cannot be reached
    domain = parse_domain(
        "(define (domain m) (:types T)"
        " (:predicates (Loc ?s ?u - T) (Conn ?a ?b - T))"
        " (:action Move :parameters (?s ?f ?t - T)"
        "   :precondition (and (Conn ?f ?t) (Loc ?s ?f) (not (Loc ?s ?t)))"
        "   :effect (and (not (Loc ?s ?f)) (Loc ?s ?t))))"
    )
    fwd = parse_problem(
        "(define (problem p) (:domain m) (:objects s u v - T)"
        " (:init (Conn u v) (Loc s v)) (:goal (Loc s u)))"
    )
    rev = parse_problem(
        "(define (problem p) (:domain m) (:objects s u v - T)"
        " (:init (Conn v u) (Loc s u)) (:goal (Loc s v)))"
    )
    result = solve_bidirectional(ground(domain, fwd), ground(domain, rev), backend=backend)
    assert result.status == "unsolvable"


def _walk_task():
    """A walk along 70 cells, built by hand to reach every corner of the
    successor index: 199 actions over 72 fluents (several words each), a
    fluent repeated in ``pre_pos``, an action with no positive
    precondition, and actions whose watched cell holds while their other
    precondition fails (no key yet) or their negative one holds (still
    blocked)."""
    key, blocked = 70, 71
    fluents = tuple(f"at c{i}" for i in range(70)) + ("key", "blocked")
    steps = [GroundAction("step", (f"c{i}",), (i, i), (), (i + 1,), (i,), 2) for i in range(69)]
    jumps = [GroundAction("jump", (f"c{i}",), (i, key), (), (i + 10,), (i,), 5) for i in range(60)]
    take = GroundAction("take", (), (), (key,), (key,), (), 4)
    skips = [
        GroundAction("skip", (f"c{i}",), (i,), (blocked,), (i + 2,), (i,), 3) for i in range(68)
    ]
    unblock = GroundAction("unblock", (), (3,), (), (), (blocked,), 1)
    actions = (*steps, *jumps, take, *skips, unblock)
    return GroundTask(fluents, frozenset({0, blocked}), (69,), (), actions)


def test_successor_index_watches_the_rarest_precondition():
    task = _walk_task()
    always, watched, watch = _pysearch._watch(task.actions)
    take = next(a for a, action in enumerate(task.actions) if action.name == "take")
    assert always == 1 << take
    jump_0 = next(a for a, action in enumerate(task.actions) if action.name == "jump")
    assert watch[1 << 0] >> jump_0 & 1  # at c0 has 3 consumers, the key 60
    assert not watched >> 70 & 1


@pytest.mark.parametrize(
    "mode, heuristic", [("optimal", "hmax"), ("optimal", "blind"), ("greedy", None)]
)
def test_successor_index_matches_a_scan_of_every_action(monkeypatch, mode, heuristic):
    task = _walk_task()
    every_action = (1 << len(task.actions)) - 1
    with monkeypatch.context() as scan:
        scan.setattr(_pysearch, "_candidates", lambda state, index: every_action)
        reference = _outcome(solve(task, mode=mode, heuristic=heuristic, backend="pure"))
    assert reference[0] == "solved"
    for backend in BACKENDS:
        assert _outcome(solve(task, mode=mode, heuristic=heuristic, backend=backend)) == reference
