"""Ground a PDDL domain/problem pair into a propositional STRIPS task.

Everything is case-normalized to lower case, matching solver output.
Predicates that no effect ever touches are static: their atoms are
evaluated against the init state while grounding and disappear from the
task. An ``exists`` precondition is reduced by that filtering; when
several candidates with fluent residues remain, the action is expanded
into one variant per candidate. ``forall``/``when`` effect conditions
must be fully static.

Each action schema is compiled once per ``ground`` call: its condition
and effect trees are flattened, every atom is checked against the
declared predicates, variables and objects, and static literals are
split from fluent ones. Parameters are then bound as an index join over
the true static facts (``EquipmentClassed ?S EC_Shuttle``,
``PositioningUnitConnection ?FROM ?TO``): each parameter in turn takes
only the values that every positive static atom mentioning it allows,
given the parameters bound before it, filtered by its type; a parameter
that no such atom mentions runs over its whole typed domain. ``exists``
and ``forall`` variables are bound the same way through the static atoms
of their bodies and ``when`` conditions. Negative static literals and
static ``forall`` preconditions are checked on each complete binding.

Values are tried in the order of their type's domain, so the surviving
bindings come out in the order of the full product of the parameter
domains, and the task (fluent order, action order, costs) is the one
that enumerating and filtering that product would give.

All of that depends on the domain and on the problem's objects and init,
not on its goal. ``ground`` keeps that goal-independent half of its last
call, keyed by the domain object itself (held weakly, so the entry goes
when the caller drops the domain) and by the problem's domain name,
objects and init compared by value. A call with the same domain object
and an equal key grounds only the goal, with all its checks; when the
goal names no fluent outside the goal-free task, the task shares that
task's fluents, init and actions. Many goals against one model, such as
the 23 demo permutations, so pay the full cost once: on the demo a miss
takes about 2 ms and a hit under 0.1 ms (2-core Xeon, Python 3.11).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

from ..errors import GroundingError, TypeMismatch, UnboundVariable, UnsupportedFeature
from ..pddl.ast import (
    And,
    Atom,
    Exists,
    Expr,
    Forall,
    Increase,
    Not,
    NumericInit,
    PddlAction,
    PddlDomain,
    PddlProblem,
    When,
)

# The largest cost of one ground action, about 68 years in seconds. A g
# value, hmax value or pattern table entry sums the costs along a path of
# distinct states, fluents or table entries, which the compiled core
# numbers with 32-bit ints, so no such sum of costs up to this bound
# reaches the cores' 2**62 sentinels (DEAD_END, UNREACHED) or overflows.
MAX_ACTION_COST = 2**31 - 1


@dataclass(frozen=True)
class GroundAction:
    """Propositional action; fluents are indices into GroundTask.fluents."""

    name: str
    args: tuple[str, ...]
    pre_pos: tuple[int, ...]
    pre_neg: tuple[int, ...]
    add: tuple[int, ...]
    delete: tuple[int, ...]
    cost: int

    @property
    def label(self) -> str:
        return " ".join((self.name,) + self.args)


@dataclass(frozen=True)
class GroundTask:
    fluents: tuple[str, ...]
    init: frozenset[int]
    goal_pos: tuple[int, ...]
    goal_neg: tuple[int, ...]
    actions: tuple[GroundAction, ...]
    goal_statically_false: bool = False

    @cached_property
    def actions_by_label(self) -> dict[str, tuple[int, ...]]:
        by_label: dict[str, list[int]] = {}
        for i, action in enumerate(self.actions):
            by_label.setdefault(action.label, []).append(i)
        return {k: tuple(v) for k, v in by_label.items()}


def _flatten(node: Expr | None) -> list[Expr]:
    if node is None:
        return []
    if isinstance(node, And):
        out = []
        for item in node.items:
            out.extend(_flatten(item))
        return out
    return [node]


_NOTHING: frozenset[str] = frozenset()


@dataclass(frozen=True)
class _Literal:
    """A checked atom of a compiled schema. A binding is a list indexed by
    slot: one slot per variable and one per constant the schema names."""

    pred: str
    slots: tuple[int, ...]

    def fact(self, vals: list) -> tuple[str, ...]:
        return (self.pred, *[vals[s] for s in self.slots])

    def fluent(self, vals: list) -> str:
        return " ".join([self.pred, *[vals[s] for s in self.slots]])


def fluent_atom(name: str) -> tuple[str, ...]:
    """The predicate and arguments of a ground fluent name, undoing
    ``_Literal.fluent``: no name or argument contains a space."""
    return tuple(name.split(" "))


class _Slots:
    """Slot numbering of one schema; ``template`` holds the constants."""

    def __init__(self):
        self.template: list[str | None] = []
        self._constants: dict[str, int] = {}

    def variable(self) -> int:
        self.template.append(None)
        return len(self.template) - 1

    def constant(self, name: str) -> int:
        if name not in self._constants:
            self._constants[name] = len(self.template)
            self.template.append(name)
        return self._constants[name]


class _Join:
    """Bindings of ``variables`` (slot, typed domain) under which every atom
    of ``atoms`` is a true static fact.

    Variable i takes the values allowed by each atom that mentions it,
    looked up by the atom's other arguments, except those of variables
    bound after i; values outside its domain are dropped, and a variable
    no atom mentions runs over its whole domain. Values are tried in
    domain order, so bindings come out in ``itertools.product`` order.
    Each variable's values are computed once per distinct lookup key.
    Atoms without any of the variables are checked before binding.
    """

    def __init__(self, grounder: "_Grounder", variables, atoms: list[_Literal]):
        own = [slot for slot, _ in variables]
        self.static_true = grounder.static_true
        self.checks = [a for a in atoms if not set(own) & set(a.slots)]
        self.levels = []
        for depth, (slot, domain) in enumerate(variables):
            unbound = set(own[depth:])
            probes = []
            for atom in atoms:
                if slot not in atom.slots:
                    continue
                value_at = tuple(i for i, s in enumerate(atom.slots) if s == slot)
                key_at = tuple(i for i, s in enumerate(atom.slots) if s not in unbound)
                probes.append(
                    (
                        grounder.index(atom.pred, key_at, value_at),
                        tuple(atom.slots[i] for i in key_at),
                    )
                )
            position = {obj: i for i, obj in enumerate(domain)}
            deps = tuple(sorted({s for _, key in probes for s in key}))
            self.levels.append((slot, domain, position, probes, deps, {}))

    def bindings(self, vals: list):
        """Fill the variables' slots of ``vals`` in place; yield per binding."""
        if all(a.fact(vals) in self.static_true for a in self.checks):
            yield from self._bind(0, vals)

    def _bind(self, depth: int, vals: list):
        if depth == len(self.levels):
            yield
            return
        slot, values, position, probes, deps, memo = self.levels[depth]
        if probes:
            memo_key = tuple([vals[s] for s in deps])
            values = memo.get(memo_key)
            if values is None:
                allowed = sorted(
                    (
                        index.get(tuple([vals[s] for s in key]), _NOTHING)
                        for index, key in probes
                    ),
                    key=len,
                )
                values = memo[memo_key] = sorted(
                    (
                        v
                        for v in allowed[0]
                        if v in position and all(v in other for other in allowed[1:])
                    ),
                    key=position.__getitem__,
                )
        for value in values:
            vals[slot] = value
            yield from self._bind(depth + 1, vals)


@dataclass
class _Exists:
    join: _Join
    unless: list[_Literal]  # static atoms that must be false
    pos: list[_Literal]
    neg: list[_Literal]


@dataclass
class _Condition:
    join: _Join  # binds the parameters through the positive static atoms
    unless: list[_Literal]  # static atoms that must be false
    foralls: list[tuple[_Join, list[_Literal], list[_Literal]]]
    exists: list[_Exists]
    pos: list[_Literal]
    neg: list[_Literal]


@dataclass
class _EffectPart:
    """Literals added and deleted for each binding of ``join`` (the
    ``forall`` variables, if any, through the static ``when`` condition)."""

    join: _Join
    unless: list[_Literal]
    add: list[_Literal]
    delete: list[_Literal]


class _Grounder:
    """The goal-independent half of grounding a domain against a problem's
    objects and init: the checks, the static facts, the compiled schemas
    and the deduplicated raw ground actions, with the fluents and actions
    of the task when the goal names no other fluent. ``task``
    grounds one goal against it and writes only to the idempotent memos
    ``_type_cache`` and ``_indexes``, so one instance serves many goals."""

    def __init__(self, domain: PddlDomain, problem: PddlProblem):
        if problem.domain_name.lower() != domain.name.lower():
            raise GroundingError(
                f"problem is for domain {problem.domain_name!r}, "
                f"got {domain.name!r}"
            )

        parents = {"object": None}
        for t in domain.types:
            parents[t.name.lower()] = t.type.lower()
        for t in domain.types:
            if t.type.lower() not in parents:
                raise TypeMismatch(f"type {t.name!r} has unknown parent {t.type!r}")
        self.type_parents = parents

        self.objects: dict[str, str] = {}
        self.objects_in_order: list[str] = []
        for entry in tuple(domain.constants) + tuple(problem.objects):
            name, otype = entry.name.lower(), entry.type.lower()
            if otype not in parents:
                raise TypeMismatch(f"object {entry.name!r} has unknown type {entry.type!r}")
            if name in self.objects:
                raise GroundingError(f"object {entry.name!r} declared twice")
            self.objects[name] = otype
            self.objects_in_order.append(name)

        self.arity = {p.name.lower(): len(p.parameters) for p in domain.predicates}
        self._type_cache: dict[str, list[str]] = {}
        self._indexes: dict[tuple, dict[tuple[str, ...], set[str]]] = {}

        effect_preds: set[str] = set()
        for action in domain.actions:
            for atom, _ in self._effect_atoms(action.effect):
                effect_preds.add(atom.predicate.lower())
        self.static_preds = set(self.arity) - effect_preds

        self.static_true: set[tuple[str, ...]] = set()
        # fluents are numbered in order of first mention: init, then the
        # effects of each raw action, then (in ``task``) the goal
        self.fluent_index: dict[str, int] = {}
        for item in problem.init:
            if isinstance(item, NumericInit):
                if item.value != 0:
                    raise UnsupportedFeature(
                        f"init value {item.value} for ({item.function}); only 0 is supported"
                    )
                continue
            slots = _Slots()
            literal = self._literal(item, {}, slots)
            if literal.pred in self.static_preds:
                self.static_true.add(literal.fact(slots.template))
            else:
                ground = literal.fluent(slots.template)
                self.fluent_index.setdefault(ground, len(self.fluent_index))
        self.init = frozenset(range(len(self.fluent_index)))

        self.raw = []
        seen = set()
        for action in domain.actions:
            for entry in self._ground_action(action):
                key = (entry[0], entry[1], frozenset(entry[2]), frozenset(entry[3]))
                if key in seen:
                    continue
                seen.add(key)
                self.raw.append(entry)

        for entry in self.raw:
            for ground in sorted(entry[4]) + sorted(entry[5]):
                self.fluent_index.setdefault(ground, len(self.fluent_index))
        self.goal_free = self._assemble(self.fluent_index)

    # -- small helpers ------------------------------------------------------

    def _effect_atoms(self, node: Expr | None):
        """Yield (atom, positive) pairs reachable in an effect tree."""
        for item in _flatten(node):
            if isinstance(item, Atom):
                yield item, True
            elif isinstance(item, Not):
                if not isinstance(item.item, Atom):
                    raise UnsupportedFeature("only literals can be negated in effects")
                yield item.item, False
            elif isinstance(item, Forall):
                yield from self._effect_atoms(item.body)
            elif isinstance(item, When):
                yield from self._effect_atoms(item.effect)
            elif isinstance(item, Increase):
                continue
            else:
                raise UnsupportedFeature(
                    f"{type(item).__name__} is not supported in effects"
                )

    def _objects_of(self, type_name: str) -> list[str]:
        wanted = type_name.lower()
        cached = self._type_cache.get(wanted)
        if cached is not None:
            return cached
        if wanted not in self.type_parents:
            raise TypeMismatch(f"unknown type {type_name!r}")
        out = []
        for obj in self.objects_in_order:
            otype = self.objects[obj]
            while otype is not None:
                if otype == wanted:
                    out.append(obj)
                    break
                otype = self.type_parents.get(otype)
        self._type_cache[wanted] = out
        return out

    def index(self, pred: str, key_at: tuple[int, ...], value_at: tuple[int, ...]):
        """Static facts of ``pred`` as {arguments at key_at: values}; a fact
        counts only if its arguments at all of ``value_at`` are equal."""
        key = (pred, key_at, value_at)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for fact in self.static_true:
                if fact[0] != pred:
                    continue
                args = fact[1:]
                value = args[value_at[0]]
                if all(args[i] == value for i in value_at[1:]):
                    index.setdefault(tuple(args[i] for i in key_at), set()).add(value)
            self._indexes[key] = index
        return index

    def _holds(self, literals: list[_Literal], vals: list) -> bool:
        return all(lit.fact(vals) in self.static_true for lit in literals)

    def _any_holds(self, literals: list[_Literal], vals: list) -> bool:
        return any(lit.fact(vals) in self.static_true for lit in literals)

    # -- compiling schemas --------------------------------------------------

    def _literal(self, atom: Atom, scope: dict[str, int], slots: _Slots) -> _Literal:
        pred = atom.predicate.lower()
        if pred not in self.arity:
            raise GroundingError(f"unknown predicate {atom.predicate!r}")
        if len(atom.args) != self.arity[pred]:
            raise GroundingError(
                f"predicate {atom.predicate!r} takes {self.arity[pred]} arguments, "
                f"got {len(atom.args)}"
            )
        out = []
        for arg in atom.args:
            name = arg.lower()
            if name.startswith("?"):
                if name not in scope:
                    raise UnboundVariable(f"variable {arg!r} is unbound")
                out.append(scope[name])
            elif name not in self.objects:
                raise GroundingError(f"unknown object {arg!r}")
            else:
                out.append(slots.constant(name))
        return _Literal(pred, tuple(out))

    def _split(self, items: list[Expr], scope, slots, message: str):
        """A conjunction of literals as four lists: static positive, static
        negative, fluent positive and fluent negative."""
        static_pos, static_neg, fluent_pos, fluent_neg = split = ([], [], [], [])
        for item in items:
            positive = isinstance(item, Atom)
            negative = isinstance(item, Not) and isinstance(item.item, Atom)
            if not positive and not negative:
                raise UnsupportedFeature(message)
            literal = self._literal(item if positive else item.item, scope, slots)
            if literal.pred in self.static_preds:
                (static_pos if positive else static_neg).append(literal)
            else:
                (fluent_pos if positive else fluent_neg).append(literal)
        return split

    def _quantify(self, variables, scope, slots):
        """Give each quantified variable a slot; returns (scope, [(slot, domain)])."""
        inner = dict(scope)
        bound = []
        for var in variables:
            domain = self._objects_of(var.type)
            slot = slots.variable()
            inner[var.name.lower()] = slot
            bound.append((slot, domain))
        return inner, bound

    def _compile_condition(self, node: Expr | None, params, scope, slots) -> _Condition:
        literals: list[Expr] = []
        foralls = []
        exists = []
        for item in _flatten(node):
            if isinstance(item, Atom):
                literals.append(item)
            elif isinstance(item, Not):
                if not isinstance(item.item, Atom):
                    raise UnsupportedFeature("only literals can be negated in conditions")
                literals.append(item)
            elif isinstance(item, Exists):
                inner, variables = self._quantify(item.variables, scope, slots)
                atoms, unless, pos, neg = self._split(
                    _flatten(item.condition),
                    inner,
                    slots,
                    "'exists' bodies may only contain a conjunction of literals",
                )
                exists.append(_Exists(_Join(self, variables, atoms), unless, pos, neg))
            elif isinstance(item, Forall):
                inner, variables = self._quantify(item.variables, scope, slots)
                message = "'forall' preconditions must be static conjunctions"
                pos, neg, fluent_pos, fluent_neg = self._split(
                    _flatten(item.body), inner, slots, message
                )
                if fluent_pos or fluent_neg:
                    raise UnsupportedFeature(message)
                foralls.append((_Join(self, variables, []), pos, neg))
            else:
                raise UnsupportedFeature(
                    f"{type(item).__name__} is not supported in conditions"
                )
        atoms, unless, pos, neg = self._split(literals, scope, slots, "")
        return _Condition(_Join(self, params, atoms), unless, foralls, exists, pos, neg)

    def _effect_part(self, variables, condition, effect, scope, slots) -> _EffectPart:
        atoms, unless, fluent_pos, fluent_neg = self._split(
            condition, scope, slots, "'when' conditions must be conjunctions of literals"
        )
        if fluent_pos or fluent_neg:
            raise UnsupportedFeature("'when' conditions must be static after grounding")
        # effect predicates are never static
        _, _, add, delete = self._split(
            effect, scope, slots, "conditional effects must be literal lists"
        )
        return _EffectPart(_Join(self, variables, atoms), unless, add, delete)

    def _compile_effect(self, node: Expr | None, scope, slots):
        plain: list[Expr] = []
        parts: list[_EffectPart] = []
        cost = 0
        for item in _flatten(node):
            if isinstance(item, (Atom, Not)):
                plain.append(item)
            elif isinstance(item, Increase):
                if item.function.lower() != "total-cost":
                    raise UnsupportedFeature(
                        f"only (total-cost) can be increased, not ({item.function})"
                    )
                cost += item.amount
                if item.amount < 0 or cost > MAX_ACTION_COST:
                    raise UnsupportedFeature(
                        f"(increase (total-cost) {item.amount}): an action's "
                        f"cost must be from 0 to {MAX_ACTION_COST}"
                    )
            elif isinstance(item, When):
                parts.append(
                    self._effect_part(
                        [], _flatten(item.condition), _flatten(item.effect), scope, slots
                    )
                )
            elif isinstance(item, Forall):
                inner, variables = self._quantify(item.variables, scope, slots)
                for part in _flatten(item.body):
                    if isinstance(part, When):
                        condition, effect = _flatten(part.condition), _flatten(part.effect)
                    else:
                        condition, effect = [], [part]
                    parts.append(self._effect_part(variables, condition, effect, inner, slots))
            else:
                raise UnsupportedFeature(
                    f"{type(item).__name__} is not supported in effects"
                )
        parts.append(self._effect_part([], [], plain, scope, slots))
        return parts, cost

    # -- evaluating a binding -------------------------------------------------

    def _eval_condition(self, cond: _Condition, vals: list):
        """Returns (pos, neg, variant_groups) for a binding of cond.join, or
        None when the condition is statically false under it."""
        if self._any_holds(cond.unless, vals):
            return None
        for join, pos, neg in cond.foralls:
            for _ in join.bindings(vals):
                if not self._holds(pos, vals) or self._any_holds(neg, vals):
                    return None
        groups: list[list[tuple[frozenset, frozenset]]] = []
        for exists in cond.exists:
            group = self._eval_exists(exists, vals)
            if group is None:
                return None
            if group:  # empty group means satisfied for free
                groups.append(group)
        return (
            {lit.fluent(vals) for lit in cond.pos},
            {lit.fluent(vals) for lit in cond.neg},
            groups,
        )

    def _eval_exists(self, exists: _Exists, vals: list):
        """None: statically false. []: satisfied. Else: one (pos, neg)
        residue per surviving candidate binding."""
        residues: list[tuple[frozenset, frozenset]] = []
        for _ in exists.join.bindings(vals):
            if self._any_holds(exists.unless, vals):
                continue
            cpos = frozenset(lit.fluent(vals) for lit in exists.pos)
            cneg = frozenset(lit.fluent(vals) for lit in exists.neg)
            if not cpos and not cneg:
                return []
            residues.append((cpos, cneg))
        return residues or None

    def _eval_effect(self, parts: list[_EffectPart], vals: list):
        add: set[str] = set()
        delete: set[str] = set()
        for part in parts:
            for _ in part.join.bindings(vals):
                if self._any_holds(part.unless, vals):
                    continue
                add.update(lit.fluent(vals) for lit in part.add)
                delete.update(lit.fluent(vals) for lit in part.delete)
        delete -= add  # add wins when both fire
        return add, delete

    # -- assembly -----------------------------------------------------------

    def _ground_action(self, action: PddlAction):
        slots = _Slots()
        scope: dict[str, int] = {}
        params = []
        for p in action.parameters:
            params.append((slots.variable(), self._objects_of(p.type)))
            scope[p.name.lower()] = params[-1][0]
        cond = self._compile_condition(action.precondition, params, scope, slots)
        effect, cost = self._compile_effect(action.effect, scope, slots)
        name = action.name.lower()
        vals = list(slots.template)
        for _ in cond.join.bindings(vals):
            combo = tuple(vals[slot] for slot, _ in params)
            evaluated = self._eval_condition(cond, vals)
            if evaluated is None:
                continue
            pos, neg, groups = evaluated
            add, delete = self._eval_effect(effect, vals)
            for extras in itertools.product(*groups):
                vpos = set(pos)
                vneg = set(neg)
                for epos, eneg in extras:
                    vpos |= epos
                    vneg |= eneg
                if vpos & vneg:
                    continue
                yield (name, combo, vpos, vneg, add, delete, cost)

    def _ground_goal(self, goal: Expr | None):
        slots = _Slots()
        cond = self._compile_condition(goal, [], {}, slots)
        vals = list(slots.template)
        # no variables to bind: one binding if the static atoms hold, else none
        for _ in cond.join.bindings(vals):
            return self._eval_condition(cond, vals)
        return None

    def _assemble(self, index: dict[str, int]):
        """The fluents and actions of the task whose fluents are
        ``index``; an action that requires a fluent outside it is dropped,
        since nothing can ever make that fluent true."""
        actions = []
        for name, args, vpos, vneg, add, delete, cost in self.raw:
            if any(g not in index for g in vpos):
                continue
            actions.append(
                GroundAction(
                    name=name,
                    args=tuple(args),
                    pre_pos=tuple(sorted(index[g] for g in vpos)),
                    pre_neg=tuple(sorted(index[g] for g in vneg if g in index)),
                    add=tuple(sorted(index[g] for g in add)),
                    delete=tuple(sorted(index[g] for g in delete)),
                    cost=cost,
                )
            )
        return tuple(index), tuple(actions)

    def task(self, goal: Expr | None) -> GroundTask:
        grounded = self._ground_goal(goal)
        goal_pos: set[str] = set()
        goal_neg: set[str] = set()
        if grounded is not None:
            goal_pos, goal_neg, groups = grounded
            for group in groups:
                if len(group) > 1:
                    raise UnsupportedFeature("disjunctive goals are not supported")
                goal_pos |= set(group[0][0])
                goal_neg |= set(group[0][1])

        index = self.fluent_index
        fluents, actions = self.goal_free
        if not index.keys() >= goal_pos | goal_neg:
            index = dict(index)
            for ground in sorted(goal_pos) + sorted(goal_neg):
                index.setdefault(ground, len(index))
            fluents, actions = self._assemble(index)
        return GroundTask(
            fluents=fluents,
            init=self.init,
            goal_pos=tuple(sorted(index[g] for g in goal_pos)),
            goal_neg=tuple(sorted(index[g] for g in goal_neg)),
            actions=actions,
            goal_statically_false=grounded is None,
        )


# The goal-independent half of the last grounding, as (a weak reference to
# its domain, the (domain name, objects, init) of its problem, _Grounder).
# The reference is weak so that the entry never keeps a domain alive: when
# the caller drops the domain, ``_forget`` drops the entry with it.
_last = None


def _forget(ref) -> None:
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def ground(domain: PddlDomain, problem: PddlProblem) -> GroundTask:
    """Propositional task for the pair; raises GroundingError subclasses
    for binding problems and UnsupportedFeature outside the subset.

    The goal-independent half is reused from the previous call when that
    call passed this same domain object and a problem with equal domain
    name, objects and init; only the goal is then grounded afresh. A
    grounding that raises is not kept."""
    global _last
    key = (problem.domain_name, problem.objects, problem.init)
    last = _last
    if last is not None and last[0]() is domain and last[1] == key:
        return last[2].task(problem.goal)
    grounder = _Grounder(domain, problem)
    task = grounder.task(problem.goal)
    _last = (weakref.ref(domain, _forget), key, grounder)
    return task
