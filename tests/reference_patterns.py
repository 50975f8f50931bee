"""The pattern heuristic that ``prodplan.planner.patterns`` replaced.

Kept unchanged as a reference, apart from its imports: its invariant
fixpoint works on sets of fluents and it projects every action once per
pattern. ``tests/test_patterns_reference.py`` checks that
``pattern_tables`` and the invariants return the same results on every
task the suite and the benchmark use.

The module docstring of the original follows.

Pattern-database heuristic for greedy search.

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
   never share a unit, and the other way round.
3. **Patterns.** Every pair of multi-valued target variables (a lone one
   is paired with every other multi-valued variable), and each binary
   target paired with each multi-valued variable its achievers require.
4. **Tables.** An action projected onto a pattern keeps its conditions
   on the pattern's variables; a negative precondition ``¬q`` also
   forbids every pattern value p with ``p → q``; every other condition is
   dropped. One backward Dijkstra from the target's abstract states
   fills each table.

h is the maximum over the tables, so it never exceeds the cost to go,
and an entry the target cannot be reached from is a proven dead end.
The search cores only look the values up (see ``PatternTables``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from prodplan.planner._pysearch import DEAD_END
from prodplan.planner.grounding import fluent_atom


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
    taken: set[int] = set()
    variables = []
    for members in groups.values():
        group = set(members)
        if len(members) < 2 or len(group & init) != 1 or group & taken:
            continue
        for a in actions:
            if (group.intersection(a.add) or group.intersection(a.delete)) and (
                len(group.intersection(a.add)) != 1
                or not group.intersection(a.pre_pos, a.delete)
            ):
                break
        else:
            variables.append(tuple(members))
            taken |= group
    return variables


def _invariants(variables, init: set[int], actions):
    """Implications value → fluent and mutexes between values of different
    variables: the greatest set of candidates that every action keeps true
    given that all of them hold before it. Returns the implications both
    ways: (implies, implied_by), dicts of sets of fluents."""
    var_of = {f: v for v, members in enumerate(variables) for f in members}
    needed_false = set().union(*(a.pre_neg for a in actions))
    implies = {
        p: {q for q in needed_false if var_of.get(q) != v and (p not in init or q in init)}
        for p, v in var_of.items()
    }
    mutex = {
        p: {r for r, w in var_of.items() if w != v and not (p in init and r in init)}
        for p, v in var_of.items()
    }
    implied_by: dict[int, set[int]] = {q: set() for q in needed_false}
    for p, qs in implies.items():
        for q in qs:
            implied_by[q].add(p)
    siblings = {p: set(variables[v]) - {p} for p, v in var_of.items()}

    changed = True
    while changed:
        changed = False
        for a in actions:
            # what the preconditions and the current candidates make
            # certainly true and certainly false before the action
            true_before = set(a.pre_pos).union(*(implies.get(p, ()) for p in a.pre_pos))
            false_before = set(a.pre_neg).union(
                *(mutex.get(p, ()) for p in a.pre_pos),
                *(siblings.get(p, ()) for p in a.pre_pos),
                *(implied_by[q] for q in a.pre_neg),
            )
            add = set(a.add)
            gone = set(a.delete) - add
            true_after = add | (true_before - gone)
            false_after = (gone | false_before) - add
            broken = []
            for p in add & var_of.keys():
                broken += [(p, q) for q in implies[p] - true_after]
                for r in mutex[p] - false_after:
                    mutex[p].discard(r)
                    mutex[r].discard(p)
                    changed = True
            for q in gone & implied_by.keys():
                broken += [(p, q) for p in implied_by[q] - false_after]
            for p, q in broken:
                implies[p].discard(q)
                implied_by[q].discard(p)
                changed = True
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


def _projection(action, var_values, forbidden):
    """(allowed values, new value or None) of one action on one variable."""
    required = [i for i, f in enumerate(var_values) if f in action.pre_pos]
    allowed = [i for i in required or range(len(var_values)) if var_values[i] not in forbidden]
    added = [i for i, f in enumerate(var_values) if f in action.add]
    if added:
        return allowed, added[0]
    if var_values[0] == -1 and var_values[1] in action.delete:
        return allowed, 0  # a binary variable made false
    return allowed, None


def _table(pattern, domains: _Domains, goal: list, actions, forbidden, changers) -> list[int]:
    """Cost to the target from each abstract state of the pattern, by a
    backward Dijkstra; ``goal[k]`` lists the target values of its k-th
    variable."""
    values = [domains.values[v] for v in pattern]
    sizes = [len(vs) for vs in values]
    strides = [sizes[1], 1] if len(pattern) == 2 else [1]
    preds: list[list[tuple[int, int]]] = [[] for _ in range(sizes[0] * strides[0])]
    for a in set().union(*(changers[v] for v in pattern)):
        action = actions[a]
        # (source, target) index pairs, one variable at a time
        edges = [(0, 0)]
        for vs, stride in zip(values, strides):
            allowed, effect = _projection(action, vs, forbidden[a])
            edges = [
                (s + x * stride, t + (x if effect is None else effect) * stride)
                for s, t in edges
                for x in allowed
            ]
        for s, t in edges:
            if s != t:
                preds[t].append((s, action.cost))

    targets = [0]
    for allowed, stride in zip(goal, strides):
        targets = [s + x * stride for s in targets for x in allowed]
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


def pattern_tables(fluents, init, goal_pos, goal_neg, actions) -> PatternTables:
    """The pattern heuristic of a search from ``init`` over ``actions``
    toward the fluents ``goal_pos`` true and ``goal_neg`` false."""
    init = set(init)
    variables = _variables(fluents, init, actions)
    implies, implied_by = _invariants(variables, init, actions)
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
    covered = set().union(*(implies[variables[v][i]] for v in targets for i in goal[v]))

    patterns = list(combinations(targets, 2))
    if len(targets) == 1:
        t = targets[0]
        patterns = [(t, v) for v in range(n_multi) if v != t] or [(t,)]
    for f, value in [(f, 1) for f in goal_pos] + [(f, 0) for f in goal_neg]:
        if f in domains.slot and domains.slot[f][0] < n_multi or f in covered:
            continue
        b = domains.binary(f)
        goal[b] = [value]
        achievers = [a for a in actions if f in (a.add if value else a.delete)]
        needed = sorted(
            {domains.slot[p][0] for a in achievers for p in a.pre_pos if p in domains.slot}
            - {b}
        )
        patterns += [(b, v) for v in needed if v < n_multi] or [(b,)]

    changers: dict[int, set[int]] = {v: set() for p in patterns for v in p}
    forbidden = []
    for a, action in enumerate(actions):
        for f in (*action.add, *action.delete):
            if f in domains.slot and domains.slot[f][0] in changers:
                changers[domains.slot[f][0]].add(a)
        forbidden.append(set(action.pre_neg).union(*(implied_by[q] for q in action.pre_neg)))

    # number the variables the patterns use, and lay the tables end to end
    number = {v: k for k, v in enumerate(sorted(changers))}
    var_of = [-1] * len(fluents)
    value_of = [0] * len(fluents)
    for v, k in number.items():
        for i, f in enumerate(domains.values[v]):
            if f >= 0:
                var_of[f], value_of[f] = k, i
    flat: list[int] = []
    layout = []
    for pattern in patterns:
        full_goal = [goal.get(v, range(len(domains.values[v]))) for v in pattern]
        entries = _table(pattern, domains, full_goal, actions, forbidden, changers)
        a = number[pattern[0]]
        if len(pattern) == 2:
            layout.append((len(flat), a, len(domains.values[pattern[1]]), number[pattern[1]], 1))
        else:
            layout.append((len(flat), a, 1, a, 0))
        flat += entries
    return PatternTables(
        len(number), tuple(var_of), tuple(value_of), tuple(layout), tuple(flat)
    )
