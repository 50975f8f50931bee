"""Pattern-database heuristic for greedy search.

Delete-relaxed heuristics drop negative preconditions, and in the
production domains those are the blocking conditions: a shuttle may move
only onto a free unit. This module keeps them. It works on the ground
task alone, in four steps:

1. **Variables.** Fluents ``pred a1 … an`` are grouped on all arguments
   but one. A group is a finite-domain variable when the initial state
   makes exactly one member true and every action that touches a member
   requires one, deletes it and adds exactly one; its values are its
   members. On the ring layouts this gives one position variable per
   shuttle (``shuttlelocation s ·``). Other fluents are binary.
2. **Invariants.** A greatest fixpoint over implications ``p → q`` (p a
   variable value, q a fluent that some action needs false) and mutexes
   between values of different variables: start from every candidate the
   initial state satisfies and drop each one that some action can break
   while all the others hold before it. The two kinds prove each other:
   ``shuttlelocation s x → occupied x`` holds only because two shuttles
   never share a unit, and the other way round. Each value's
   implications and mutexes, and each fluent's implying values, are one
   int bit mask, and a dropped candidate leaves both directions at once.
   The actions are swept, forward and backward in turn, until a sweep
   drops nothing; any order reaches the same fixpoint.
3. **Patterns.** Every pair of multi-valued target variables (a lone one
   is paired with every other multi-valued variable), and each binary
   target paired with each multi-valued variable its achievers require.
4. **Tables.** An action projected onto a pattern keeps its conditions
   on the pattern's variables; a negative precondition ``¬q`` also
   forbids every pattern value p with ``p → q``; every other condition is
   dropped. Each action is projected once per variable, and the patterns
   that share the variable share the projection. One backward Dijkstra
   from the target's abstract states fills each table.

h is the maximum over the tables, so it never exceeds the cost to go,
and an entry the target cannot be reached from is a proven dead end.
The search cores only look the values up (see ``PatternTables``).

Steps 1 and 3 run here for both cores. Steps 2 and 4 run here
(``_invariants``, ``_tables``) for the pure core, and in the compiled
core's kernel (``_kernel.invariants``, ``_kernel.tables``) for it, to the
same results; the Python ones are also the reference the tests compare
the kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import prod

from ._pysearch import DEAD_END, _bits, _mask
from .grounding import fluent_atom


@dataclass(frozen=True)
class PatternTables:
    """The heuristic of one search side, as flat lookup tables.

    Fluent f sets variable ``var_of[f]`` (-1: none) to ``value_of[f]``;
    a variable none of whose fluents holds has value 0. Each pattern is
    ``(offset, var_a, stride_a, var_b, stride_b)``, and a state's entry in
    it is ``table[offset + value[var_a] * stride_a + value[var_b] *
    stride_b]`` (a one-variable pattern has ``stride_b`` 0). h is the
    largest entry over the patterns, and ``DEAD_END`` or more means the
    target cannot be reached.
    """

    n_vars: int
    var_of: tuple[int, ...]
    value_of: tuple[int, ...]
    patterns: tuple[tuple[int, int, int, int, int], ...]
    table: tuple[int, ...]


def _variables(fluents, init: set[int], actions) -> list[tuple[int, ...]]:
    """The members of every finite-domain variable, in fluent order."""
    groups: dict[tuple, list[int]] = {}
    for f, name in enumerate(fluents):
        pred, *args = fluent_atom(name)
        for i in range(len(args)):
            groups.setdefault((pred, i, *args[:i], *args[i + 1 :]), []).append(f)
    # the actions that add or delete each fluent: the others leave every
    # group alone
    touching: dict[int, list[int]] = {}
    for k, a in enumerate(actions):
        for f in {*a.add, *a.delete}:
            touching.setdefault(f, []).append(k)
    taken: set[int] = set()
    variables = []
    for members in groups.values():
        group = set(members)
        if len(members) < 2 or len(group & init) != 1 or group & taken:
            continue
        touched = (actions[k] for k in set().union(*(touching.get(f, ()) for f in members)))
        if all(
            len(group.intersection(a.add)) == 1 and group.intersection(a.pre_pos, a.delete)
            for a in touched
        ):
            variables.append(tuple(members))
            taken |= group
    return variables


def _invariants(n_fluents, variables, init: set[int], actions):
    """Implications value → fluent and mutexes between values of different
    variables: the greatest set of candidates that every action keeps true
    given that all of them hold before it. Returns the implications both
    ways as bit masks of fluents: (implies, implied_by), dicts keyed by
    variable value and by needed-false fluent. ``n_fluents`` sizes only
    the compiled core's bit sets (``_kernel.invariants``)."""
    var_of = {f: v for v, members in enumerate(variables) for f in members}
    var_mask = [_mask(members) for members in variables]
    values = _mask(var_of)
    needed_false = _mask(f for a in actions for f in a.pre_neg)
    in_init = _mask(init)
    implies = {
        p: needed_false & ~var_mask[v] & (in_init if p in init else -1)
        for p, v in var_of.items()
    }
    mutex = {
        p: values & ~var_mask[v] & (~in_init if p in init else -1)
        for p, v in var_of.items()
    }
    # the same candidates from the fluent's side
    implied_by = {
        q: values
        & ~(var_mask[var_of[q]] if q in var_of else 0)
        & (-1 if q in init else ~in_init)
        for q in _bits(needed_false)
    }

    # per action: the preconditions' values, the needed-false fluents,
    # what the preconditions alone make true and false (siblings too), the
    # add mask, the deleted-not-added mask, and the values and fluents
    # whose candidates it can break
    checks = []
    for a in actions:
        pre = [p for p in a.pre_pos if p in var_of]
        add = _mask(a.add)
        gone = _mask(a.delete) & ~add
        false_before = _mask(a.pre_neg)
        for p in pre:
            false_before |= var_mask[var_of[p]] & ~(1 << p)
        checks.append((
            pre,
            a.pre_neg,
            _mask(a.pre_pos),
            false_before,
            add,
            gone,
            list(_bits(add & values)),
            list(_bits(gone & needed_false)),
        ))

    # Sweep the actions until a sweep drops nothing. Sweeping forward and
    # backward in turn needs fewer sweeps on the reversed tasks.
    changed = True
    while changed:
        changed = False
        for pre, pre_neg, true_before, false_before, add, gone, made, unmade in checks:
            # what the preconditions and the current candidates make
            # certainly true and certainly false before the action
            for p in pre:
                true_before |= implies[p]
                false_before |= mutex[p]
            for q in pre_neg:
                false_before |= implied_by[q]
            not_true_after = ~(add | (true_before & ~gone))
            not_false_after = ~((gone | false_before) & ~add)
            # a broken candidate leaves both directions at once
            for p in made:
                keep = ~(1 << p)
                bad = implies[p] & not_true_after
                if bad:
                    implies[p] ^= bad
                    changed = True
                    for q in _bits(bad):
                        implied_by[q] &= keep
                bad = mutex[p] & not_false_after
                if bad:
                    mutex[p] ^= bad
                    changed = True
                    for r in _bits(bad):
                        mutex[r] &= keep
            for q in unmade:
                bad = implied_by[q] & not_false_after
                if bad:
                    implied_by[q] ^= bad
                    changed = True
                    keep = ~(1 << q)
                    for p in _bits(bad):
                        implies[p] &= keep
        checks.reverse()
    return implies, implied_by


class _Domains:
    """The variables patterns are built over. Variable v's value i stands
    for the fluent ``values[v][i]``; a binary variable is (-1, f), whose
    value 0 means f is false."""

    def __init__(self, variables):
        self.values: list[tuple[int, ...]] = list(variables)
        self.slot = {f: (v, i) for v, fs in enumerate(variables) for i, f in enumerate(fs)}

    def binary(self, f: int) -> int:
        if f not in self.slot:
            self.values.append((-1, f))
            self.slot[f] = (len(self.values) - 1, 1)
        return self.slot[f][0]


class _Projections:
    """Every action projected onto the pattern variables ``used``. On
    variable v, action a may start from the values it requires (all if
    none) that it does not need false, where a negative precondition ¬q
    also rules out every value p with p → q, and it moves to the value it
    sets, or stays (None). ``changers[v]`` lists the actions that set v."""

    def __init__(self, actions, values, implied_by, used):
        self.values = values
        self.required: list[dict[int, list[int]]] = []
        self.sets: list[dict[int, int]] = []
        self.forbidden: list[int] = []
        self.changers: dict[int, list[int]] = {v: [] for v in used}
        self.free: dict[tuple[int, int], list[int]] = {}
        slot = {f: (v, i) for v, fs in enumerate(values) for i, f in enumerate(fs) if f >= 0}
        for a, action in enumerate(actions):
            required: dict[int, list[int]] = {}
            for f in sorted(set(action.pre_pos)):
                if f in slot:
                    v, i = slot[f]
                    required.setdefault(v, []).append(i)
            # a variable takes at most one added value (see _variables)
            sets = {slot[f][0]: slot[f][1] for f in action.add if f in slot}
            for f in action.delete:
                if f in slot and self.values[slot[f][0]][0] == -1:
                    sets.setdefault(slot[f][0], 0)  # a binary variable made false
            forbidden = _mask(action.pre_neg)
            for q in action.pre_neg:
                forbidden |= implied_by[q]
            self.required.append(required)
            self.sets.append(sets)
            self.forbidden.append(forbidden)
            for v in sets:
                if v in self.changers:
                    self.changers[v].append(a)

    def __call__(self, a: int, v: int) -> tuple[list[int], int | None]:
        values, forbidden = self.values[v], self.forbidden[a]
        required = self.required[a].get(v)
        if required is not None:
            allowed = [i for i in required if not forbidden >> values[i] & 1]
            return allowed, self.sets[a].get(v)
        # the many actions that leave v alone share their lists
        key = v, forbidden
        if key not in self.free:
            self.free[key] = [
                i for i, f in enumerate(values) if f < 0 or not forbidden >> f & 1
            ]
        return self.free[key], self.sets[a].get(v)


def _table(sizes, goal: list, moves) -> list[int]:
    """Cost to the target from each abstract state of a pattern over
    variables of ``sizes``, by a backward Dijkstra; ``goal[k]`` lists the
    target values of its k-th variable, and ``moves`` holds each
    changing action's cost and its projection on each variable."""
    if len(sizes) == 2:
        stride = sizes[1]
        preds: list[list[tuple[int, int]]] = [[] for _ in range(sizes[0] * stride)]
        for cost, (allowed_a, effect_a), (allowed_b, effect_b) in moves:
            for x in allowed_a:
                s = x * stride
                t = s if effect_a is None else effect_a * stride
                if effect_b is None:
                    if s != t:
                        for y in allowed_b:
                            preds[t + y].append((s + y, cost))
                else:
                    t += effect_b
                    for y in allowed_b:
                        if s + y != t:
                            preds[t].append((s + y, cost))
        targets = [x * stride + y for x in goal[0] for y in goal[1]]
    else:
        preds = [[] for _ in range(sizes[0])]
        for cost, (allowed, effect) in moves:
            if effect is not None:
                for x in allowed:
                    if x != effect:
                        preds[effect].append((x, cost))
        targets = list(goal[0])

    dist = [DEAD_END] * len(preds)
    for s in targets:
        dist[s] = 0
    heap = [(0, s) for s in targets]
    heapify(heap)
    while heap:
        d, t = heappop(heap)
        if d > dist[t]:
            continue
        for s, cost in preds[t]:
            if d + cost < dist[s]:
                dist[s] = d + cost
                heappush(heap, (d + cost, s))
    return dist


def _tables(n_fluents, actions, values, implied_by, patterns, goal) -> list[int]:
    """The table of each pattern over the variables ``values`` (see
    ``_Domains``), laid end to end: every action projected onto the
    pattern variables, and one backward Dijkstra per pattern toward the
    target values ``goal[v]`` (all values where v has none). ``n_fluents``
    sizes only the compiled core's bit sets (``_kernel.tables``)."""
    used = sorted({v for pattern in patterns for v in pattern})
    projection = _Projections(actions, values, implied_by, used)
    flat: list[int] = []
    for pattern in patterns:
        sizes = [len(values[v]) for v in pattern]
        full_goal = [goal.get(v, range(size)) for v, size in zip(pattern, sizes)]
        changers = set().union(*(projection.changers[v] for v in pattern))
        moves = [(actions[a].cost, *(projection(a, v) for v in pattern)) for a in changers]
        flat += _table(sizes, full_goal, moves)
    return flat


def pattern_tables(fluents, init, goal_pos, goal_neg, actions, core=None) -> PatternTables:
    """The pattern heuristic of a search from ``init`` over ``actions``
    toward the fluents ``goal_pos`` true and ``goal_neg`` false.

    ``core`` is the backend module of the search (None: the pure one).
    The compiled core finds the invariants and builds the tables in its
    kernel (``_kernel.invariants`` and ``_kernel.tables``), to the same
    results as ``_invariants`` and ``_tables`` here.
    """
    invariants = getattr(core, "invariants", _invariants)
    tables = getattr(core, "tables", _tables)
    init = set(init)
    variables = _variables(fluents, init, actions)
    implies, implied_by = invariants(len(fluents), variables, init, actions)
    domains = _Domains(variables)
    n_multi = len(variables)

    # target values of each target variable
    goal: dict[int, list[int]] = {}
    for f in goal_pos:
        if f in domains.slot and domains.slot[f][0] < n_multi:
            v, i = domains.slot[f]
            goal[v] = [i]
    for f in goal_neg:
        if f in domains.slot and domains.slot[f][0] < n_multi:
            v, i = domains.slot[f]
            goal[v] = [j for j in goal.get(v, range(len(variables[v]))) if j != i]
    targets = sorted(goal)
    # a binary target that a target value implies is covered by that value
    covered = 0
    for v in targets:
        for i in goal[v]:
            covered |= implies[variables[v][i]]

    patterns = list(combinations(targets, 2))
    if len(targets) == 1:
        t = targets[0]
        patterns = [(t, v) for v in range(n_multi) if v != t] or [(t,)]
    for f, value in [(f, 1) for f in goal_pos] + [(f, 0) for f in goal_neg]:
        if f in domains.slot and domains.slot[f][0] < n_multi or covered >> f & 1:
            continue
        b = domains.binary(f)
        goal[b] = [value]
        achievers = [a for a in actions if f in (a.add if value else a.delete)]
        needed = sorted(
            {domains.slot[p][0] for a in achievers for p in a.pre_pos if p in domains.slot}
            - {b}
        )
        patterns += [(b, v) for v in needed if v < n_multi] or [(b,)]

    # number the variables the patterns use, and lay the tables end to end
    used = sorted({v for pattern in patterns for v in pattern})
    number = {v: k for k, v in enumerate(used)}
    var_of = [-1] * len(fluents)
    value_of = [0] * len(fluents)
    for v, k in number.items():
        for i, f in enumerate(domains.values[v]):
            if f >= 0:
                var_of[f], value_of[f] = k, i
    layout = []
    offset = 0
    for pattern in patterns:
        sizes = [len(domains.values[v]) for v in pattern]
        a = number[pattern[0]]
        if len(pattern) == 2:
            layout.append((offset, a, sizes[1], number[pattern[1]], 1))
        else:
            layout.append((offset, a, 1, a, 0))
        offset += prod(sizes)
    flat = tables(len(fluents), actions, domains.values, implied_by, patterns, goal)
    return PatternTables(
        len(number), tuple(var_of), tuple(value_of), tuple(layout), tuple(flat)
    )
