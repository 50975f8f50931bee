"""Search driver and plan validator on top of the ground task."""

from __future__ import annotations

import time
from typing import NamedTuple

from ..errors import (
    CostMismatch,
    GoalNotReached,
    GroundingError,
    PreconditionViolated,
    UnknownAction,
)
from ..pddl import Plan, PlanStep
from . import backend_module, backend_name
from ._common import H_BLIND, H_MAX, MEMOUT, SOLVED, TIMEOUT, UNSOLVABLE
from .grounding import GroundTask, ground

STATUS_NAMES = {
    SOLVED: "solved",
    UNSOLVABLE: "unsolvable",
    TIMEOUT: "timeout",
    MEMOUT: "memout",
}

DEFAULT_TIME_LIMIT = 300.0
DEFAULT_NODE_LIMIT = 2_000_000
# the meeting-frontiers search counts both state tables against its cap
BIDIRECTIONAL_NODE_LIMIT = 20_000_000


class SearchResult(NamedTuple):
    status: str
    plan: Plan | None
    cost: int | None
    expanded: int
    generated: int
    wall_time_ms: float
    backend: str
    # wall time of building the greedy heuristic's tables, within wall_time_ms
    heuristic_ms: float = 0.0

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _result(
    task, module, started, status, steps=(), cost=0, expanded=0, generated=0, heuristic_ms=0.0
):
    """The SearchResult of one search; ``steps`` index ``task.actions``."""
    wall = (time.monotonic() - started) * 1000.0
    if status != SOLVED:
        name = STATUS_NAMES[status]
        return SearchResult(
            name, None, None, expanded, generated, wall, module.NAME, heuristic_ms
        )
    plan = Plan(
        steps=tuple(PlanStep(task.actions[i].name, task.actions[i].args) for i in steps),
        cost=cost,
    )
    return SearchResult(
        "solved", plan, cost, expanded, generated, wall, module.NAME, heuristic_ms
    )


def solve(
    task: GroundTask,
    mode: str = "optimal",
    heuristic: str | None = None,
    time_limit: float | None = DEFAULT_TIME_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
    backend: str | None = None,
) -> SearchResult:
    """Run A* (optimal) on ``heuristic`` "blind" or "hmax", where None
    means hmax, or greedy best-first on pattern databases (see
    ``patterns``), which takes no heuristic."""
    if mode not in ("optimal", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if heuristic not in (None, "blind", "hmax"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    if mode == "greedy" and heuristic is not None:
        raise ValueError(f"greedy search takes no heuristic, got {heuristic!r}")
    module = backend_module(backend)
    started = time.monotonic()
    if task.goal_statically_false:
        return _result(task, module, started, UNSOLVABLE)
    args = (
        len(task.fluents), sorted(task.init), task.goal_pos, task.goal_neg, task.actions
    )
    heuristic_ms = 0.0
    if mode == "greedy":
        from .patterns import pattern_tables

        building = time.monotonic()
        h = pattern_tables(task.fluents, *args[1:], core=module)
        heuristic_ms = (time.monotonic() - building) * 1000.0
    else:
        h = H_BLIND if heuristic == "blind" else H_MAX
    status, steps, _, cost, *counts = module.search(
        *args, h, mode == "optimal",
        time_limit=_remaining(time_limit, started), node_limit=node_limit,
    )
    return _result(task, module, started, status, steps, cost, *counts, heuristic_ms)


def plan(domain, problem, workdir=None, *, solver_cmd=None, **search) -> SearchResult:
    """Ground, search and validate one problem: the one planning path.

    The search is ``solve(task, **search)`` or, with ``solver_cmd``,
    ``solve_external`` on the problem's PDDL text in ``workdir``, which
    reads only ``time_limit`` from ``search``. Every plan is simulated on
    the task, which raises a ``PlanError`` for an invalid plan and fills
    in a missing cost.
    """
    task = ground(domain, problem)
    if not solver_cmd:
        result = solve(task, **search)
    elif workdir is None:
        raise ValueError("an external solver needs a workdir")
    else:
        from ..pddl import write_domain, write_problem
        from .external import solve_external

        result = solve_external(
            write_domain(domain),
            write_problem(problem),
            solver_cmd,
            workdir,
            time_limit=search.get("time_limit", DEFAULT_TIME_LIMIT),
        )
    if result.plan is not None:
        cost = validate_plan(task, result.plan)
        if result.plan.cost is None:
            result = result._replace(plan=Plan(result.plan.steps, cost), cost=cost)
    return result


def _remaining(time_limit, started) -> float:
    """What is left of ``time_limit`` when the search loop starts, after
    any heuristic tables were built; 0 stays no limit, and a spent budget
    stays a limit."""
    if not time_limit:
        return 0.0
    return max(time_limit - (time.monotonic() - started), 1e-9)


def _apply(action, state: frozenset) -> frozenset:
    return (state - frozenset(action.delete)) | frozenset(action.add)


def _applies(action, state: frozenset) -> bool:
    return all(f in state for f in action.pre_pos) and not any(
        f in state for f in action.pre_neg
    )


def _backward_input(task: GroundTask, reverse_task: GroundTask):
    """The backward side of ``solve_bidirectional``: the reverse task's
    start state and actions with their fluents renumbered to ``task``'s,
    as (sorted init, actions)."""
    if set(task.fluents) != set(reverse_task.fluents):
        raise GroundingError(
            "reverse task covers a different fluent set than the forward task"
        )
    index_of = {name: i for i, name in enumerate(task.fluents)}
    remap = [index_of[name] for name in reverse_task.fluents]

    def aligned(fluents):
        return tuple(sorted(remap[f] for f in fluents))

    init_b = aligned(reverse_task.init)
    init_b_set = set(init_b)
    if not all(f in init_b_set for f in task.goal_pos) or any(
        f in init_b_set for f in task.goal_neg
    ):
        raise GroundingError("reverse start state does not satisfy the forward goal")

    r_actions = [
        a._replace(
            pre_pos=aligned(a.pre_pos),
            pre_neg=aligned(a.pre_neg),
            add=aligned(a.add),
            delete=aligned(a.delete),
        )
        for a in reverse_task.actions
    ]
    return init_b, r_actions


def solve_bidirectional(
    task: GroundTask,
    reverse_task: GroundTask,
    time_limit: float | None = DEFAULT_TIME_LIMIT,
    node_limit: int = BIDIRECTIONAL_NODE_LIMIT,
    backend: str | None = None,
) -> SearchResult:
    """Greedy search from both ends of a movement problem.

    ``reverse_task`` grounds the flipped routing graph with the goal
    placements as its start; its fluents are aligned to ``task`` by name.
    Each side runs on its own pattern databases (see ``patterns``): the
    forward side's target is the goal, the backward side's the forward
    initial state. The two frontiers expand alternately until one state
    is recorded by both, then the backward half is translated into
    forward actions by re-simulating each edge. Falls out with the usual
    statuses; a plain forward goal hit also counts as solved.
    """
    module = backend_module(backend)
    started = time.monotonic()
    if task.goal_statically_false:
        return _result(task, module, started, UNSOLVABLE)

    init_b, r_actions = _backward_input(task, reverse_task)
    from .patterns import pattern_tables

    init = sorted(task.init)
    building = time.monotonic()
    tables = pattern_tables(
        task.fluents, init, task.goal_pos, task.goal_neg, task.actions, core=module
    )
    b_tables = pattern_tables(task.fluents, init_b, init, (), r_actions, core=module)
    heuristic_ms = (time.monotonic() - building) * 1000.0
    status, fwd_idx, bwd_idx, cost, expanded, generated = module.search(
        len(task.fluents),
        init,
        task.goal_pos,
        task.goal_neg,
        task.actions,
        tables,
        False,
        backward=(init_b, r_actions, b_tables),
        time_limit=_remaining(time_limit, started),
        node_limit=node_limit,
    )
    outcome = (cost, expanded, generated, heuristic_ms)
    if status != SOLVED:
        return _result(task, module, started, status, (), *outcome)

    state = frozenset(task.init)
    for i in fwd_idx:
        state = _apply(task.actions[i], state)
    meet_from_forward = state

    trail = [frozenset(init_b)]
    for i in bwd_idx:
        trail.append(_apply(r_actions[i], trail[-1]))
    if trail[-1] != meet_from_forward:
        raise GroundingError("frontiers report different meet states")

    spliced = list(fwd_idx)
    for later, earlier in zip(reversed(trail), reversed(trail[:-1])):
        for j, action in enumerate(task.actions):
            if _applies(action, later) and _apply(action, later) == earlier:
                spliced.append(j)
                break
        else:
            raise GroundingError("backward step has no forward counterpart")

    return _result(task, module, started, SOLVED, spliced, *outcome)


def validate_plan(task: GroundTask, plan: Plan) -> int:
    """Simulate the plan; returns its cost.

    Raises UnknownAction for a step that grounds to nothing,
    PreconditionViolated when no ground action of that name applies,
    GoalNotReached when the final state misses the goal and CostMismatch
    when the plan's stated cost disagrees with the simulation.
    """
    if task.goal_statically_false:
        raise GoalNotReached("goal is statically false")
    state = set(task.init)
    total = 0
    for index, step in enumerate(plan.steps):
        label = " ".join((step.action.lower(),) + tuple(a.lower() for a in step.args))
        candidates = task.actions_by_label.get(label)
        if not candidates:
            raise UnknownAction(index, f"no ground action {label!r}")
        applied = False
        for i in candidates:
            action = task.actions[i]
            if all(f in state for f in action.pre_pos) and not any(
                f in state for f in action.pre_neg
            ):
                state.difference_update(action.delete)
                state.update(action.add)
                total += action.cost
                applied = True
                break
        if not applied:
            raise PreconditionViolated(
                index, f"preconditions of {label!r} do not hold"
            )
    if not all(f in state for f in task.goal_pos) or any(
        f in state for f in task.goal_neg
    ):
        raise GoalNotReached("plan executes but the goal does not hold afterwards")
    if plan.cost is not None and plan.cost != total:
        raise CostMismatch(f"plan says cost {plan.cost}, simulation says {total}")
    return total


__all__ = [
    "BIDIRECTIONAL_NODE_LIMIT",
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_TIME_LIMIT",
    "SearchResult",
    "plan",
    "solve",
    "solve_bidirectional",
    "validate_plan",
    "backend_name",
]
