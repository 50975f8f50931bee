"""Pure-Python search backend.

States are int bitmasks over the fluent universe. One best-first loop,
``search``, runs over action records with ``pre_pos``, ``pre_neg``,
``add``, ``delete`` and ``cost`` (fluent indices and an int), in one of
two modes that differ in three switches only:

* optimal, A*: h is evaluated when a state is generated, a cheaper path
  reopens a state, and the lazy open list is keyed (f, h, seq) with
  stale-entry skipping;
* greedy, deferred: children are queued under the parent's h and
  evaluated once when popped, where a dead end is skipped; a state is
  recorded once, and the key is (h, h, seq).

The heuristic is blind, hmax (admissible, delete-relaxed, ignoring
negative conditions) or pattern databases. ``_make_hmax`` computes hmax
one cost level at a time over bit sets, with precondition slot masks and
per-byte chunk tables built once per search, to the values of a Dijkstra
sweep over single fluents (``tests/reference_hmax.py``). ``_lookup``
reads h from tables that ``patterns.pattern_tables`` builds for each
side, in Python for this core and in the kernel for the compiled one; a
table entry of ``DEAD_END`` prunes the state. Given a backward side, the
greedy search runs a second frontier from a complete goal state over
inverted actions, alternating expansions and stopping at the first state
generated by both sides; without one it is the plain single-frontier
search.

The search does not test every action at every expansion. ``_watch``
builds a watched-precondition index once per action set and search (the
successor generator of Fast Downward, Helmert, JAIR 26, 2006, cut down
to STRIPS): each action is watched under its positive precondition with
the fewest consumers, the lower fluent on a tie, and an action without
positive preconditions is always a candidate. An expansion ORs the
action masks watched under the state's true fluents and tests each
candidate fully, in ascending action index, so the scan order, the
successor order and every count equal those of a scan over all actions.

The compiled backend (``_kernel``) mirrors this module; both expose
``search`` with the same result conventions.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from itertools import count

from ._common import (
    DEAD_END,
    H_BLIND,
    H_MAX,
    MEMOUT,
    SOLVED,
    TIMEOUT,
    UNSOLVABLE,
    _bits,
    _mask,
)

NAME = "pure"

_INF = float("inf")


def _byte_table(values):
    """The table that ORs eight ``values`` over the set bits of a byte:
    entry b is the OR of ``values[i]`` over the set bits i of b."""
    table = [0]
    for value in values:
        table += [entry | value for entry in table]
    return table


def _make_hmax(n_fluents, actions, goal):
    """hmax as a function of a state: the largest cost of a goal fluent.

    A fluent of the state costs 0. An action fires at the largest cost of
    its positive preconditions plus its own cost, and a fluent costs the
    cheapest firing that adds it; negative conditions and deletes are
    ignored. The sweep runs one cost level at a time over int bit sets,
    on what is built here once per search:

    * **Precondition slots.** With K the most distinct positive
      preconditions of any action, slot k of action a is bit
      ``k * n_actions + a``. Each fluent maps to the slots it fills, and
      the slots an action lacks start filled, so the enabled actions are
      the AND of the K slot masks.
    * **Chunk tables** (``_byte_table``). One table per byte of a state
      ORs the slots of that byte's fluents, so the fluents a level
      reaches fill their slots with one lookup per non-zero byte. In the
      same way, per action cost, one table per byte of an action set ORs
      the add effects of the actions of that cost. That is at most one
      table of 256 entries per byte of a state and per action.

    A state's sweep keeps ``pending``, {cost: mask of the fluents added
    at that cost}, and a heap of its distinct costs. The actions without
    positive preconditions fire first, at their own costs, whatever the
    state. At each level c it reaches the pending fluents not reached
    yet, returns c as soon as the goal is reached, fills their slots and
    fires the actions this enables, at ``c + cost``; a zero-cost action
    adds to level c again, which is then taken anew.

    This is the generalized Dijkstra sweep over single fluents
    (``tests/reference_hmax.py``) with the fluents of one cost taken
    together: the levels come off in increasing cost, so a fluent is
    reached at its least firing cost and an action fires once, at the
    level of its last precondition. Every fluent cost, and so every h,
    is the same.
    """
    n_actions = len(actions)
    all_actions = (1 << n_actions) - 1
    pres = [sorted(set(action.pre_pos)) for action in actions]
    n_slots = max(map(len, pres), default=0)
    n_bytes, a_bytes = (n_fluents + 7) >> 3, (n_actions + 7) >> 3
    slot_of = [0] * (8 * n_bytes)
    filled = 0  # the slots that actions lack
    for a, pre in enumerate(pres):
        for k in range(n_slots):
            bit = 1 << (k * n_actions + a)
            if k < len(pre):
                slot_of[pre[k]] |= bit
            else:
                filled |= bit
    slot_tables = [_byte_table(slot_of[i : i + 8]) for i in range(0, 8 * n_bytes, 8)]
    shifts = [k * n_actions for k in range(1, n_slots)]
    add = [_mask(action.add) for action in actions]
    costs = [action.cost for action in actions]
    # per action cost: (cost, [(j, table of the adds of byte j of an
    # action set)] over the bytes that hold an action of that cost)
    by_cost = []
    for cost in sorted(set(costs)):
        adds = [add[a] if costs[a] == cost else 0 for a in range(n_actions)]
        adds += [0] * (8 * a_bytes - n_actions)
        tables = [
            (i >> 3, _byte_table(adds[i : i + 8]))
            for i in range(0, 8 * a_bytes, 8)
            if any(adds[i : i + 8])
        ]
        by_cost.append((cost, tables))
    free = _mask(a for a, pre in enumerate(pres) if not pre)
    # the firings of the actions without preconditions, with level 0 present
    free_pending = {0: 0}
    for a in _bits(free):
        free_pending[costs[a]] = free_pending.get(costs[a], 0) | add[a]
    free_levels = sorted(free_pending)
    goal_m = _mask(goal)

    def h_of(state: int) -> float:
        if not goal_m:
            return 0.0
        pending = free_pending.copy()
        pending[0] |= state
        levels = free_levels[:]
        reached, slots, fired = 0, filled, free
        while levels:
            c = heappop(levels)
            new = pending.pop(c) & ~reached
            if not new:
                continue
            reached |= new
            if not goal_m & ~reached:
                return c
            for table, byte in zip(slot_tables, new.to_bytes(n_bytes, "little")):
                if byte:
                    slots |= table[byte]
            enabled = slots & all_actions
            for shift in shifts:
                enabled &= slots >> shift
            enabled &= ~fired
            if not enabled:
                continue
            fired |= enabled
            enabled_bytes = enabled.to_bytes(a_bytes, "little")
            for cost, tables in by_cost:
                added = 0
                for j, table in tables:
                    byte = enabled_bytes[j]
                    if byte:
                        added |= table[byte]
                if not added:
                    continue
                level = c + cost
                if level in pending:
                    pending[level] |= added
                else:
                    pending[level] = added
                    heappush(levels, level)
        return _INF

    return h_of


def _lookup(tables):
    """h of a state from ``patterns.PatternTables``: the largest table
    entry over the patterns, INF from ``DEAD_END`` on."""
    var_of, value_of, table = tables.var_of, tables.value_of, tables.table
    mapped = _mask(f for f, v in enumerate(var_of) if v >= 0)
    patterns = tables.patterns
    n_vars = tables.n_vars

    def h_of(state: int) -> float:
        value = [0] * n_vars
        for f in _bits(state & mapped):
            value[var_of[f]] = value_of[f]
        h = 0
        for offset, a, stride_a, b, stride_b in patterns:
            entry = table[offset + value[a] * stride_a + value[b] * stride_b]
            if entry > h:
                h = entry
        return _INF if h >= DEAD_END else h

    return h_of


def _masks(actions):
    """An action set as lists indexed by action: the bit masks of the
    positive and negative preconditions, the add effects, the complement
    of the delete effects, and the costs; then its successor index."""
    return (
        [_mask(a.pre_pos) for a in actions],
        [_mask(a.pre_neg) for a in actions],
        [_mask(a.add) for a in actions],
        [~_mask(a.delete) for a in actions],
        [a.cost for a in actions],
        _watch(actions),
    )


def _watch(actions):
    """The successor index of an action set: (always, watched, watch).

    Each action is watched under the positive precondition that the
    fewest actions share, the lower fluent on a tie. ``watch`` maps the
    bit of a fluent to the mask of the actions watched under it,
    ``watched`` is the mask of those fluents, and ``always`` the mask of
    the actions without positive preconditions. The candidates of a state
    are ``always`` ORed with ``watch`` of each true bit of
    ``state & watched``: a superset of its applicable actions.
    """
    consumers = {}
    for action in actions:
        for f in set(action.pre_pos):
            consumers[f] = consumers.get(f, 0) + 1
    always, watch = 0, {}
    for a, action in enumerate(actions):
        if not action.pre_pos:
            always |= 1 << a
            continue
        f = min(action.pre_pos, key=lambda f: (consumers[f], f))
        watch[1 << f] = watch.get(1 << f, 0) | 1 << a
    return always, _mask(bit.bit_length() - 1 for bit in watch), watch


def _candidates(state, index):
    """The mask of the actions that may apply in ``state``, from ``_watch``."""
    candidates, watched, watch = index
    state &= watched
    while state:
        low = state & -state
        candidates |= watch[low]
        state ^= low
    return candidates


def _unwind(parents, state):
    steps = []
    while True:
        action, prev = parents[state]
        if action < 0:
            break
        steps.append(action)
        state = prev
    steps.reverse()
    return steps


def _heuristic(heuristic, n_fluents, actions, goal):
    """h as a function of a state: 0 for ``H_BLIND``, hmax toward the
    fluents ``goal`` for ``H_MAX``, or the lookup of ``PatternTables``."""
    if heuristic == H_BLIND:
        return lambda state: 0
    if heuristic == H_MAX:
        return _make_hmax(n_fluents, actions, goal)
    return _lookup(heuristic)


def search(
    n_fluents,
    init,
    goal_pos,
    goal_neg,
    actions,
    heuristic,
    optimal,
    backward=None,
    time_limit=300.0,
    node_limit=2_000_000,
):
    """Best-first search from ``init`` toward the goal, on ``heuristic``
    (``H_BLIND``, ``H_MAX`` or a ``patterns.PatternTables``).

    ``optimal`` chooses A*: h is evaluated when a state is generated, a
    cheaper path reopens a state, and the open list is keyed (g + h, h,
    seq). Otherwise the search is deferred greedy: a state is queued
    under its parent's h, evaluated when popped, where a dead end is
    skipped, recorded once, and keyed (h, h, seq).

    ``backward`` is None or, for the greedy search only, (init_b,
    backward_actions, backward_tables): a second frontier that starts
    from ``init_b`` (a complete state satisfying the goal) and runs over
    the inverted actions, on tables built for the initial state as its
    target. The frontiers expand alternately, forward first, and stop at
    the first state recorded by both.

    Returns (status, forward_action_indices, backward_action_indices,
    cost, expanded, generated); the backward indices trace init_b toward
    the meet state in application order.
    """
    deadline = time.monotonic() + time_limit if time_limit else None
    goal_pos_m = _mask(goal_pos)
    goal_neg_m = _mask(goal_neg)
    start_f = _mask(init)
    g_f, g_b = {start_f: 0}, {}
    parents_f, parents_b = {start_f: (-1, 0)}, {}
    if backward is not None:
        init_b, b_actions, b_tables = backward
        start_b = _mask(init_b)
        if start_b == start_f:
            return SOLVED, [], [], 0, 0, 0
        g_b[start_b] = 0
        parents_b[start_b] = (-1, 0)

    h_f = _heuristic(heuristic, n_fluents, actions, goal_pos)
    hf0 = h_f(start_f)
    if hf0 == _INF:
        return UNSOLVABLE, [], [], 0, 0, 0
    heap_f = [(hf0, hf0, 0, 0, start_f)]
    # (open list, own g, other side's g, parents, masks, h, tie-break
    # sequence, is forward)
    sides = [(heap_f, g_f, g_b, parents_f, _masks(actions), h_f, count(1), True)]
    if backward is not None:
        h_b = _lookup(b_tables)
        hb0 = h_b(start_b)
        heap_b = [(hb0, hb0, 0, 0, start_b)] if hb0 != _INF else []
        sides.append((heap_b, g_b, g_f, parents_b, _masks(b_actions), h_b, count(1), False))
    expanded = generated = 0

    while heap_f:
        if deadline is not None and (expanded & 0x7F) == 0:
            if time.monotonic() > deadline:
                return TIMEOUT, [], [], 0, expanded, generated
        for heap, g_own, g_other, parents, masks, h_of, seq, is_fwd in sides:
            if not heap:
                continue
            _, h_here, _, g, state = heappop(heap)
            if g != g_own.get(state):
                continue  # superseded by a cheaper path
            if is_fwd and (state & goal_pos_m) == goal_pos_m and not (state & goal_neg_m):
                return SOLVED, _unwind(parents_f, state), [], g, expanded, generated
            if not optimal:
                h_here = h_of(state)
                if h_here == _INF:
                    continue  # proven dead end, never expand
            expanded += 1
            pre_pos_m, pre_neg_m, add_m, del_m, costs, index = masks
            candidates = _candidates(state, index)
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                a = low.bit_length() - 1
                if (state & pre_pos_m[a]) != pre_pos_m[a] or (state & pre_neg_m[a]):
                    continue
                succ = (state & del_m[a]) | add_m[a]
                ng = g + costs[a]
                old = g_own.get(succ)
                if old is not None and (old <= ng or not optimal):
                    continue
                g_own[succ] = ng
                parents[succ] = (a, state)
                generated += 1
                if succ in g_other:
                    cost = g_f[succ] + g_b[succ]
                    plan_f = _unwind(parents_f, succ)
                    plan_b = _unwind(parents_b, succ)
                    return SOLVED, plan_f, plan_b, cost, expanded, generated
                if optimal:
                    h = h_of(succ)
                    if h != _INF:
                        heappush(heap, (ng + h, h, next(seq), ng, succ))
                else:
                    heappush(heap, (h_here, h_here, next(seq), ng, succ))
            if node_limit and len(g_f) + len(g_b) > node_limit:
                return MEMOUT, [], [], 0, expanded, generated
    return UNSOLVABLE, [], [], 0, expanded, generated
