"""Pure-Python search backend.

States are int bitmasks over the fluent universe. A* (optimal) keeps a
lazy open list keyed (f, h, seq) with stale-entry skipping; greedy
best-first defers heuristic evaluation: children are queued under the
parent's h and evaluated once when popped. Heuristics: blind, hmax
(admissible) for A*, hadd for greedy, all computed delete-relaxed and
ignoring negative conditions.

``search_bidirectional`` runs two greedy frontiers, one from the initial
state and one from a complete goal state over inverted actions,
alternating expansions and stopping at the first state generated by both
sides.

The compiled backend (``_kernel``) mirrors this module; both expose the
same functions with the same result conventions.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

SOLVED, UNSOLVABLE, TIMEOUT, MEMOUT = 0, 1, 2, 3
MODE_OPTIMAL, MODE_GREEDY = 0, 1
H_BLIND, H_MAX, H_ADD = 0, 1, 2

_INF = float("inf")


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _make_heuristic(n_fluents, pre_pos, add, costs, goal_pos, use_sum):
    """Delete-relaxed fluent costs via a Dijkstra sweep per state."""
    n_actions = len(costs)
    consumers = [[] for _ in range(n_fluents)]
    for a in range(n_actions):
        for f in pre_pos[a]:
            consumers[f].append(a)
    pre_counts = [len(pre_pos[a]) for a in range(n_actions)]
    goal_set = set(goal_pos)

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
                if use_sum:
                    agg[a] += c
                elif c > agg[a]:
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
            if use_sum:
                total += v
            elif v > total:
                total = v
        return total

    return h_of


def search(
    n_fluents,
    init,
    goal_pos,
    goal_neg,
    pre_pos,
    pre_neg,
    add,
    delete,
    costs,
    mode=MODE_OPTIMAL,
    heuristic=H_MAX,
    time_limit=300.0,
    node_limit=2_000_000,
):
    """Returns (status, action_indices, cost, expanded, generated)."""
    deadline = time.monotonic() + time_limit if time_limit else None
    n_actions = len(costs)
    pre_pos_m = [_mask(pre_pos[a]) for a in range(n_actions)]
    pre_neg_m = [_mask(pre_neg[a]) for a in range(n_actions)]
    add_m = [_mask(add[a]) for a in range(n_actions)]
    del_m = [~_mask(delete[a]) for a in range(n_actions)]
    goal_pos_m = _mask(goal_pos)
    goal_neg_m = _mask(goal_neg)
    start = _mask(init)

    greedy = mode == MODE_GREEDY
    if greedy:
        h_of = _make_heuristic(n_fluents, pre_pos, add, costs, goal_pos, use_sum=True)
    elif heuristic == H_BLIND:
        h_of = None
    else:
        h_of = _make_heuristic(n_fluents, pre_pos, add, costs, goal_pos, use_sum=False)

    h0 = h_of(start) if h_of else 0
    if h0 == _INF:
        return UNSOLVABLE, [], 0, 0, 0

    seq = 0
    open_heap = [(h0, h0, seq, 0, start)]
    g_best = {start: 0}
    parents = {start: (-1, 0)}
    expanded = generated = 0

    def unwind(state):
        steps = []
        while True:
            action, prev = parents[state]
            if action < 0:
                break
            steps.append(action)
            state = prev
        steps.reverse()
        return steps

    while open_heap:
        if deadline is not None and (expanded & 0x7F) == 0:
            if time.monotonic() > deadline:
                return TIMEOUT, [], 0, expanded, generated
        _, _, _, g, state = heappop(open_heap)
        if g != g_best.get(state):
            continue  # superseded by a cheaper path
        if (state & goal_pos_m) == goal_pos_m and not (state & goal_neg_m):
            return SOLVED, unwind(state), g, expanded, generated
        if greedy:
            h_here = h_of(state)
            if h_here == _INF:
                continue  # relaxed dead end, never expand
        expanded += 1
        for a in range(n_actions):
            if (state & pre_pos_m[a]) != pre_pos_m[a] or (state & pre_neg_m[a]):
                continue
            succ = (state & del_m[a]) | add_m[a]
            ng = g + costs[a]
            old = g_best.get(succ)
            if greedy:
                if old is not None:
                    continue
            elif old is not None and old <= ng:
                continue
            g_best[succ] = ng
            parents[succ] = (a, state)
            generated += 1
            seq += 1
            if greedy:
                # deferred evaluation: queue under the parent's h
                heappush(open_heap, (h_here, h_here, seq, ng, succ))
            else:
                h = h_of(succ) if h_of else 0
                if h == _INF:
                    continue
                heappush(open_heap, (ng + h, h, seq, ng, succ))
        if node_limit and len(g_best) > node_limit:
            return MEMOUT, [], 0, expanded, generated
    return UNSOLVABLE, [], 0, expanded, generated


def search_bidirectional(
    n_fluents,
    init_f,
    init_b,
    goal_pos,
    goal_neg,
    f_pre_pos,
    f_pre_neg,
    f_add,
    f_delete,
    f_costs,
    b_pre_pos,
    b_pre_neg,
    b_add,
    b_delete,
    b_costs,
    time_limit=300.0,
    node_limit=2_000_000,
):
    """Two deferred greedy frontiers meeting in the middle.

    The backward frontier starts from ``init_b`` (a complete state
    satisfying the goal) and runs over the inverted action set; its hadd
    target is the forward initial state. Successors are queued under
    their parent's h. Returns (status, forward_action_indices,
    backward_action_indices, cost, expanded, generated) where the
    backward indices trace init_b toward the meet state in application
    order.
    """
    deadline = time.monotonic() + time_limit if time_limit else None

    def prepare(pre_pos, pre_neg, add, delete):
        n = len(pre_pos)
        return (
            [_mask(pre_pos[a]) for a in range(n)],
            [_mask(pre_neg[a]) for a in range(n)],
            [_mask(add[a]) for a in range(n)],
            [~_mask(delete[a]) for a in range(n)],
        )

    f_masks = prepare(f_pre_pos, f_pre_neg, f_add, f_delete)
    b_masks = prepare(b_pre_pos, b_pre_neg, b_add, b_delete)
    goal_pos_m = _mask(goal_pos)
    goal_neg_m = _mask(goal_neg)
    start_f = _mask(init_f)
    start_b = _mask(init_b)

    h_f = _make_heuristic(n_fluents, f_pre_pos, f_add, f_costs, goal_pos, use_sum=True)
    h_b = _make_heuristic(n_fluents, b_pre_pos, b_add, b_costs, init_f, use_sum=True)

    g_f = {start_f: 0}
    g_b = {start_b: 0}
    parents_f = {start_f: (-1, 0)}
    parents_b = {start_b: (-1, 0)}

    def unwind(parents, state):
        steps = []
        while True:
            action, prev = parents[state]
            if action < 0:
                break
            steps.append(action)
            state = prev
        steps.reverse()
        return steps

    def finish(meet):
        cost = g_f[meet] + g_b[meet]
        return SOLVED, unwind(parents_f, meet), unwind(parents_b, meet), cost

    if start_b == start_f:
        return (SOLVED, [], [], 0, 0, 0)

    hf0 = h_f(start_f)
    if hf0 == _INF:
        return (UNSOLVABLE, [], [], 0, 0, 0)
    hb0 = h_b(start_b)

    heap_f = [(hf0, 0, 0, start_f)]
    heap_b = [(hb0, 0, 0, start_b)] if hb0 != _INF else []
    seq_f = seq_b = 0
    expanded = generated = 0

    sides = (
        (heap_f, g_f, g_b, parents_f, f_masks, f_costs, h_f, True),
        (heap_b, g_b, g_f, parents_b, b_masks, b_costs, h_b, False),
    )

    while heap_f:
        if deadline is not None and (expanded & 0x7F) == 0:
            if time.monotonic() > deadline:
                return (TIMEOUT, [], [], 0, expanded, generated)
        for heap, g_own, g_other, parents, masks, costs, h_of, is_fwd in sides:
            if not heap:
                continue
            _, _, g, state = heappop(heap)
            if g != g_own.get(state):
                continue
            if is_fwd and (state & goal_pos_m) == goal_pos_m and not (state & goal_neg_m):
                return (SOLVED, unwind(parents_f, state), [], g, expanded, generated)
            h_here = h_of(state)
            if h_here == _INF:
                continue
            expanded += 1
            pre_pos_m, pre_neg_m, add_m, del_m = masks
            for a in range(len(costs)):
                if (state & pre_pos_m[a]) != pre_pos_m[a] or (state & pre_neg_m[a]):
                    continue
                succ = (state & del_m[a]) | add_m[a]
                if succ in g_own:
                    continue
                ng = g + costs[a]
                g_own[succ] = ng
                parents[succ] = (a, state)
                generated += 1
                if succ in g_other:
                    result = finish(succ)
                    return (*result, expanded, generated)
                if is_fwd:
                    seq_f += 1
                    heappush(heap, (h_here, seq_f, ng, succ))
                else:
                    seq_b += 1
                    heappush(heap, (h_here, seq_b, ng, succ))
            if node_limit and len(g_f) + len(g_b) > node_limit:
                return (MEMOUT, [], [], 0, expanded, generated)
    return (UNSOLVABLE, [], [], 0, expanded, generated)
