"""The hmax that ``prodplan.planner._pysearch._make_hmax`` replaced.

Kept unchanged as a reference, apart from its imports: a Dijkstra sweep
over single fluents per state, one heap entry per reached fluent.
``tests/test_hmax_reference.py`` checks that the level sweep over bit
sets returns the same h on states of every kind the searches meet, and
``tests/test_random_plants.py`` at the initial state of every random
task.
"""

from __future__ import annotations

from heapq import heappop, heappush

from prodplan.planner._pysearch import _INF, _bits


def _make_hmax(n_fluents, actions, goal):
    """hmax: delete-relaxed fluent costs via a Dijkstra sweep per state."""
    n_actions = len(actions)
    consumers = [[] for _ in range(n_fluents)]
    for a, action in enumerate(actions):
        for f in action.pre_pos:
            consumers[f].append(a)
    pre_counts = [len(a.pre_pos) for a in actions]
    add = [a.add for a in actions]
    costs = [a.cost for a in actions]
    goal_set = set(goal)

    def h_of(state: int) -> float:
        if not goal_set:
            return 0.0
        value = [_INF] * n_fluents
        agg = [0] * n_actions
        remaining = pre_counts[:]
        heap = []
        for f in _bits(state):
            value[f] = 0
            heappush(heap, (0, f))
        for a in range(n_actions):
            if remaining[a] == 0:
                fire = costs[a]
                for g in add[a]:
                    if fire < value[g]:
                        value[g] = fire
                        heappush(heap, (fire, g))
        goal_left = len(goal_set)
        done = [False] * n_fluents
        while heap:
            c, f = heappop(heap)
            if done[f]:
                continue
            done[f] = True
            if f in goal_set:
                goal_left -= 1
                if goal_left == 0:
                    break
            for a in consumers[f]:
                remaining[a] -= 1
                if c > agg[a]:
                    agg[a] = c
                if remaining[a] == 0:
                    fire = agg[a] + costs[a]
                    for g in add[a]:
                        if fire < value[g]:
                            value[g] = fire
                            heappush(heap, (fire, g))
        total = 0
        for f in goal_set:
            v = value[f]
            if v == _INF:
                return _INF
            if v > total:
                total = v
        return total

    return h_of
