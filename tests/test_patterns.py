"""The pattern-database heuristic of greedy search (``planner.patterns``).

Soundness is checked against exact costs to go: every state reachable
from the initial state gets its distance to the goal by a backward
Dijkstra over the reachable state graph, and h must never exceed it, nor
be INF where the goal can still be reached.
"""

from __future__ import annotations

import heapq

import pytest

from prodplan.demo import build_demo_model
from prodplan.model_io import generate_permutation_goals
from prodplan.pddl import parse_domain, parse_problem
from prodplan.planner import available_backends, backend_module
from prodplan.planner._pysearch import DEAD_END, _lookup
from prodplan.planner.grounding import fluent_atom, ground
from prodplan.planner.patterns import _invariants, _variables, pattern_tables
from prodplan.planner.search import solve, solve_bidirectional, validate_plan
from prodplan.transform import derive_domain, derive_problem

from test_search import _ring_task

INF = float("inf")


def _mask(fluents) -> int:
    return sum(1 << f for f in set(fluents))


def _exact_costs_to_go(task) -> dict[int, float]:
    """Cost to the goal of every state reachable from the initial state,
    INF where the goal cannot be reached."""
    moves = [
        (_mask(a.pre_pos), _mask(a.pre_neg), _mask(a.add), ~_mask(a.delete), a.cost)
        for a in task.actions
    ]
    start = _mask(task.init)
    into: dict[int, list[tuple[int, int]]] = {start: []}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for pos, neg, add, keep, cost in moves:
            if state & pos == pos and not state & neg:
                succ = (state & keep) | add
                if succ not in into:
                    into[succ] = []
                    frontier.append(succ)
                into[succ].append((state, cost))
    goal_pos, goal_neg = _mask(task.goal_pos), _mask(task.goal_neg)
    dist = {s: (0 if s & goal_pos == goal_pos and not s & goal_neg else INF) for s in into}
    heap = [(0, s) for s, d in dist.items() if d == 0]
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        for prev, cost in into[state]:
            if d + cost < dist[prev]:
                dist[prev] = d + cost
                heapq.heappush(heap, (d + cost, prev))
    return dist


def _demo_tasks():
    model = build_demo_model()
    domain, report = derive_domain(model)
    return [
        ground(domain, derive_problem(model, goal, report))
        for goal in generate_permutation_goals(model)
    ]


def _forward_h(task):
    tables = pattern_tables(
        task.fluents, sorted(task.init), task.goal_pos, task.goal_neg, task.actions
    )
    return _lookup(tables)


@pytest.mark.parametrize(
    "size, drilling",
    [(5, False), (7, False), (9, False), (5, True), (7, True)],
    ids=["ring-5", "ring-7", "ring-9", "drilling-ring-5", "drilling-ring-7"],
)
def test_h_is_admissible_and_infinite_only_at_dead_ends(size, drilling):
    task = _ring_task(size, drilling=drilling)
    h_of = _forward_h(task)
    costs = _exact_costs_to_go(task)
    for state, exact in costs.items():
        h = h_of(state)
        assert h <= exact, (bin(state), h, exact)
        assert h < INF or exact == INF, bin(state)


def test_h_is_admissible_on_every_demo_goal():
    for task in _demo_tasks():
        h_of = _forward_h(task)
        for state, exact in _exact_costs_to_go(task).items():
            h = h_of(state)
            assert h <= exact and (h < INF or exact == INF)


@pytest.mark.parametrize("backend", available_backends())
def test_unreachable_target_is_a_dead_end(backend):
    # one shuttle on a one-way edge away from its goal unit
    domain = parse_domain(
        "(define (domain m) (:types T)"
        " (:predicates (Loc ?s ?u - T) (Conn ?a ?b - T))"
        " (:action Move :parameters (?s ?f ?t - T)"
        "   :precondition (and (Conn ?f ?t) (Loc ?s ?f) (not (Loc ?s ?t)))"
        "   :effect (and (not (Loc ?s ?f)) (Loc ?s ?t))))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain m) (:objects s u v w - T)"
        " (:init (Conn u v) (Conn v w) (Loc s v)) (:goal (Loc s u)))"
    )
    task = ground(domain, problem)
    assert _forward_h(task)(_mask(task.init)) == INF
    result = solve(task, mode="greedy", backend=backend)
    assert (result.status, result.expanded) == ("unsolvable", 0)


@pytest.mark.parametrize("size", [5, 7, 9])
def test_ring_variables_are_shuttle_positions_that_occupy_their_unit(size):
    task = _ring_task(size)
    init = set(task.init)
    variables = _variables(task.fluents, init, task.actions)
    atoms = [fluent_atom(name) for name in task.fluents]
    # one variable per shuttle, holding every position of that shuttle
    positions = {}
    for f, (pred, *args) in enumerate(atoms):
        if pred == "shuttlelocation":
            positions.setdefault(args[0], set()).add(f)
    assert sorted(map(set, variables), key=min) == sorted(positions.values(), key=min)

    # shuttlelocation s x -> occupied(x), for every shuttle and unit
    occupied = {
        args[0].replace("ep_positioningunitoccupied", "e_positioningunit"): f
        for f, (pred, *args) in enumerate(atoms)
        if pred == "equipmentpropertytrue"
    }
    implies, _ = _invariants(len(task.fluents), variables, init, task.actions)
    for members in positions.values():
        for p in members:
            assert implies[p] >> occupied[atoms[p][2]] & 1, task.fluents[p]


@pytest.mark.parametrize("backend", available_backends())
def test_two_frontier_greedy_sees_blocking_on_ring_13(backend):
    # blind to blocking, hadd needs about 568k expansions here; the
    # pattern tables need about 58k
    task, reverse = _ring_task(13, reverse=True)
    result = solve_bidirectional(task, reverse, node_limit=150_000, backend=backend)
    assert result.status == "solved"
    assert validate_plan(task, result.plan) == result.cost


@pytest.mark.skipif("compiled" not in available_backends(), reason="needs the compiled backend")
def test_compiled_backend_rejects_tables_that_index_past_their_end():
    from prodplan.planner import _kernel

    task = _ring_task(5)
    init = sorted(task.init)
    tables = pattern_tables(task.fluents, init, task.goal_pos, task.goal_neg, task.actions)
    offset, a, stride_a, b, stride_b = tables.patterns[-1]
    short = tables._replace(table=tables.table[:-1])
    shifted = tables._replace(
        patterns=(*tables.patterns[:-1], (offset + 1, a, stride_a, b, stride_b))
    )
    for broken in (short, shifted):
        with pytest.raises(ValueError):
            _kernel.search(len(task.fluents), init, task.goal_pos, (), task.actions, broken, False)


def _stage_inputs(task):
    """The arguments ``pattern_tables`` passes to the compiled core's
    ``invariants`` and ``tables`` on ``task``."""
    compiled = backend_module("compiled")
    seen = {}

    class Recording:
        def invariants(*args):
            seen["invariants"] = args
            return compiled.invariants(*args)

        def tables(*args):
            seen["tables"] = args
            return compiled.tables(*args)

    init = sorted(task.init)
    pattern_tables(task.fluents, init, task.goal_pos, task.goal_neg, task.actions, core=Recording)
    return seen["invariants"], seen["tables"]


def _broken_inputs(invariants, tables):
    """(stage, arguments) pairs, each with one index or cost out of range."""
    n, variables, init, actions = invariants
    _, _, values, implied_by, patterns, goal = tables
    q = min(implied_by)
    move = actions[0]
    for bad_actions in (
        [move._replace(add=(n,)), *actions[1:]],
        [move._replace(pre_neg=(-1,)), *actions[1:]],
        [move._replace(cost=-1), *actions[1:]],
        [move._replace(cost=2**63), *actions[1:]],
    ):
        yield "invariants", (n, variables, init, bad_actions)
        yield "tables", (n, bad_actions, values, implied_by, patterns, goal)
    yield "invariants", (n, [*variables, (n,)], init, actions)
    yield "invariants", (n, [*variables, (-1, 0)], init, actions)
    yield "invariants", (n, [*variables, variables[0][:1]], init, actions)
    yield "invariants", (n, variables, {*init, n}, actions)
    yield "tables", (n, actions, [*values, (-2, 0)], implied_by, patterns, goal)
    yield "tables", (n, actions, [*values, (-1, n)], implied_by, patterns, goal)
    yield "tables", (n, actions, values, {**implied_by, n: 0}, patterns, goal)
    yield "tables", (n, actions, values, {**implied_by, q: 1 << n}, patterns, goal)
    yield "tables", (n, actions, values, {**implied_by, q: -1}, patterns, goal)
    yield "tables", (n, actions, values, implied_by, [*patterns, (len(values),)], goal)
    yield "tables", (n, actions, values, implied_by, [*patterns, ()], goal)
    yield "tables", (n, actions, values, implied_by, patterns, {**goal, len(values): [0]})
    yield "tables", (n, actions, values, implied_by, patterns, {0: [len(values[0])]})
    yield "tables", (n, actions, values, implied_by, patterns, {0: [-1]})
    # one pattern of 50,000 x 50,000 entries
    wide = [*values, (-1,) * 50_000]
    yield "tables", (n, actions, wide, implied_by, [(len(values), len(values))], goal)


@pytest.mark.skipif("compiled" not in available_backends(), reason="needs the compiled backend")
def test_compiled_pattern_stages_reject_input_out_of_range():
    compiled = backend_module("compiled")
    invariants, tables = _stage_inputs(_ring_task(5))
    for k, (stage, args) in enumerate(_broken_inputs(invariants, tables)):
        with pytest.raises(ValueError):
            getattr(compiled, stage)(*args)
            pytest.fail(f"case {k} was accepted")


@pytest.mark.skipif("compiled" not in available_backends(), reason="needs the compiled backend")
@pytest.mark.parametrize("cost", [2**61, DEAD_END - 1, 2**63 - 1])
def test_compiled_table_entries_saturate_at_dead_end(cost):
    task = _ring_task(5)
    actions = [a._replace(cost=cost) for a in task.actions]
    args = (task.fluents, sorted(task.init), task.goal_pos, task.goal_neg, actions)
    compiled = pattern_tables(*args, core=backend_module("compiled"))
    assert compiled == pattern_tables(*args)
    assert max(compiled.table) == DEAD_END and min(compiled.table) == 0
