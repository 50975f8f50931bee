"""The product grounder that ``prodplan.planner.grounding`` replaced.

Kept unchanged as a reference: for every parameter it enumerates the
full typed product and filters each binding against the static atoms.
``tests/test_grounding_reference.py`` checks that the join-based
grounder returns an identical ``GroundTask`` on every model the suite
and the benchmark use.
"""

from __future__ import annotations

import itertools

from prodplan.errors import GroundingError, TypeMismatch, UnboundVariable, UnsupportedFeature
from prodplan.pddl.ast import (
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
from prodplan.planner.grounding import GroundAction, GroundTask


def _flatten(node: Expr | None) -> list[Expr]:
    if node is None:
        return []
    if isinstance(node, And):
        out = []
        for item in node.items:
            out.extend(_flatten(item))
        return out
    return [node]


class _Grounder:
    def __init__(self, domain: PddlDomain, problem: PddlProblem):
        if problem.domain_name.lower() != domain.name.lower():
            raise GroundingError(
                f"problem is for domain {problem.domain_name!r}, "
                f"got {domain.name!r}"
            )
        self.domain = domain
        self.problem = problem

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

        effect_preds: set[str] = set()
        for action in domain.actions:
            for atom, _ in self._effect_atoms(action.effect):
                effect_preds.add(atom.predicate.lower())
        self.static_preds = set(self.arity) - effect_preds

        self.static_true: set[str] = set()
        self.fluent_init: list[str] = []
        for item in problem.init:
            if isinstance(item, NumericInit):
                if item.value != 0:
                    raise UnsupportedFeature(
                        f"init value {item.value} for ({item.function}); only 0 is supported"
                    )
                continue
            ground = self._ground_atom(item, {})
            if item.predicate.lower() in self.static_preds:
                self.static_true.add(ground)
            elif ground not in self.fluent_init:
                self.fluent_init.append(ground)

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

    def _ground_atom(self, atom: Atom, sub: dict[str, str]) -> str:
        pred = atom.predicate.lower()
        if pred not in self.arity:
            raise GroundingError(f"unknown predicate {atom.predicate!r}")
        if len(atom.args) != self.arity[pred]:
            raise GroundingError(
                f"predicate {atom.predicate!r} takes {self.arity[pred]} arguments, "
                f"got {len(atom.args)}"
            )
        parts = [pred]
        for arg in atom.args:
            name = arg.lower()
            if name.startswith("?"):
                if name not in sub:
                    raise UnboundVariable(f"variable {arg!r} is unbound")
                name = sub[name]
            elif name not in self.objects:
                raise GroundingError(f"unknown object {arg!r}")
            parts.append(name)
        return " ".join(parts)

    def _is_static(self, atom: Atom) -> bool:
        return atom.predicate.lower() in self.static_preds

    # -- preconditions ------------------------------------------------------

    def _eval_condition(self, node: Expr | None, sub: dict[str, str]):
        """Returns (satisfiable, pos, neg, variant_groups) or None when the
        condition is statically false under ``sub``."""
        pos: set[str] = set()
        neg: set[str] = set()
        groups: list[list[tuple[frozenset, frozenset]]] = []
        for item in _flatten(node):
            if isinstance(item, Atom):
                ground = self._ground_atom(item, sub)
                if self._is_static(item):
                    if ground not in self.static_true:
                        return None
                else:
                    pos.add(ground)
            elif isinstance(item, Not):
                if not isinstance(item.item, Atom):
                    raise UnsupportedFeature("only literals can be negated in conditions")
                ground = self._ground_atom(item.item, sub)
                if self._is_static(item.item):
                    if ground in self.static_true:
                        return None
                else:
                    neg.add(ground)
            elif isinstance(item, Exists):
                group = self._eval_exists(item, sub)
                if group is None:
                    return None
                if group:  # empty group means satisfied for free
                    groups.append(group)
            elif isinstance(item, Forall):
                if not self._eval_static_forall(item, sub):
                    return None
            else:
                raise UnsupportedFeature(
                    f"{type(item).__name__} is not supported in conditions"
                )
        return pos, neg, groups

    def _eval_exists(self, node: Exists, sub: dict[str, str]):
        """None: statically false. []: satisfied. Else: one (pos, neg)
        residue per surviving candidate binding."""
        names = [v.name.lower() for v in node.variables]
        domains = [self._objects_of(v.type) for v in node.variables]
        residues: list[tuple[frozenset, frozenset]] = []
        for combo in itertools.product(*domains):
            inner = dict(sub)
            inner.update(zip(names, combo))
            cpos: set[str] = set()
            cneg: set[str] = set()
            alive = True
            for item in _flatten(node.condition):
                if isinstance(item, Atom):
                    ground = self._ground_atom(item, inner)
                    if self._is_static(item):
                        if ground not in self.static_true:
                            alive = False
                            break
                    else:
                        cpos.add(ground)
                elif isinstance(item, Not) and isinstance(item.item, Atom):
                    ground = self._ground_atom(item.item, inner)
                    if self._is_static(item.item):
                        if ground in self.static_true:
                            alive = False
                            break
                    else:
                        cneg.add(ground)
                else:
                    raise UnsupportedFeature(
                        "'exists' bodies may only contain a conjunction of literals"
                    )
            if not alive:
                continue
            if not cpos and not cneg:
                return []
            residues.append((frozenset(cpos), frozenset(cneg)))
        if not residues:
            return None
        return residues

    def _eval_static_forall(self, node: Forall, sub: dict[str, str]) -> bool:
        names = [v.name.lower() for v in node.variables]
        domains = [self._objects_of(v.type) for v in node.variables]
        for combo in itertools.product(*domains):
            inner = dict(sub)
            inner.update(zip(names, combo))
            for item in _flatten(node.body):
                if isinstance(item, Atom) and self._is_static(item):
                    if self._ground_atom(item, inner) not in self.static_true:
                        return False
                elif (
                    isinstance(item, Not)
                    and isinstance(item.item, Atom)
                    and self._is_static(item.item)
                ):
                    if self._ground_atom(item.item, inner) in self.static_true:
                        return False
                else:
                    raise UnsupportedFeature(
                        "'forall' preconditions must be static conjunctions"
                    )
        return True

    # -- effects ------------------------------------------------------------

    def _literals(self, node: Expr, sub: dict[str, str], add: set, delete: set):
        for item in _flatten(node):
            if isinstance(item, Atom):
                add.add(self._ground_atom(item, sub))
            elif isinstance(item, Not) and isinstance(item.item, Atom):
                delete.add(self._ground_atom(item.item, sub))
            else:
                raise UnsupportedFeature("conditional effects must be literal lists")

    def _when_condition_holds(self, cond: Expr, sub: dict[str, str]) -> bool | None:
        """True/False when fully static; None marks a fluent residue."""
        for item in _flatten(cond):
            if isinstance(item, Atom):
                if not self._is_static(item):
                    return None
                if self._ground_atom(item, sub) not in self.static_true:
                    return False
            elif isinstance(item, Not) and isinstance(item.item, Atom):
                if not self._is_static(item.item):
                    return None
                if self._ground_atom(item.item, sub) in self.static_true:
                    return False
            else:
                raise UnsupportedFeature(
                    "'when' conditions must be conjunctions of literals"
                )
        return True

    def _eval_effect(self, node: Expr | None, sub: dict[str, str]):
        add: set[str] = set()
        delete: set[str] = set()
        cost = 0
        for item in _flatten(node):
            if isinstance(item, (Atom, Not)):
                self._literals(item, sub, add, delete)
            elif isinstance(item, Increase):
                if item.function.lower() != "total-cost":
                    raise UnsupportedFeature(
                        f"only (total-cost) can be increased, not ({item.function})"
                    )
                cost += item.amount
            elif isinstance(item, When):
                holds = self._when_condition_holds(item.condition, sub)
                if holds is None:
                    raise UnsupportedFeature(
                        "'when' conditions must be static after grounding"
                    )
                if holds:
                    self._literals(item.effect, sub, add, delete)
            elif isinstance(item, Forall):
                names = [v.name.lower() for v in item.variables]
                domains = [self._objects_of(v.type) for v in item.variables]
                for combo in itertools.product(*domains):
                    inner = dict(sub)
                    inner.update(zip(names, combo))
                    for part in _flatten(item.body):
                        if isinstance(part, When):
                            holds = self._when_condition_holds(part.condition, inner)
                            if holds is None:
                                raise UnsupportedFeature(
                                    "'when' conditions must be static after grounding"
                                )
                            if holds:
                                self._literals(part.effect, inner, add, delete)
                        else:
                            self._literals(part, inner, add, delete)
            else:
                raise UnsupportedFeature(
                    f"{type(item).__name__} is not supported in effects"
                )
        delete -= add  # add wins when both fire
        return add, delete, cost

    # -- assembly -----------------------------------------------------------

    def _ground_action(self, action: PddlAction):
        names = [p.name.lower() for p in action.parameters]
        domains = [self._objects_of(p.type) for p in action.parameters]
        for combo in itertools.product(*domains):
            sub = dict(zip(names, combo))
            evaluated = self._eval_condition(action.precondition, sub)
            if evaluated is None:
                continue
            pos, neg, groups = evaluated
            add, delete, cost = self._eval_effect(action.effect, sub)
            for extras in itertools.product(*groups):
                vpos = set(pos)
                vneg = set(neg)
                for epos, eneg in extras:
                    vpos |= epos
                    vneg |= eneg
                if vpos & vneg:
                    continue
                yield (action.name.lower(), combo, vpos, vneg, add, delete, cost)

    def build(self) -> GroundTask:
        raw = []
        seen = set()
        for action in self.domain.actions:
            for entry in self._ground_action(action):
                key = (entry[0], entry[1], frozenset(entry[2]), frozenset(entry[3]))
                if key in seen:
                    continue
                seen.add(key)
                raw.append(entry)

        goal = self._eval_condition(self.problem.goal, {})
        goal_false = goal is None
        goal_pos: set[str] = set()
        goal_neg: set[str] = set()
        if goal is not None:
            goal_pos, goal_neg, groups = goal
            for group in groups:
                if len(group) > 1:
                    raise UnsupportedFeature("disjunctive goals are not supported")
                goal_pos |= set(group[0][0])
                goal_neg |= set(group[0][1])

        index: dict[str, int] = {}

        def intern(ground: str) -> int:
            if ground not in index:
                index[ground] = len(index)
            return index[ground]

        for ground in self.fluent_init:
            intern(ground)
        for entry in raw:
            for ground in sorted(entry[4]) + sorted(entry[5]):
                intern(ground)
        for ground in sorted(goal_pos) + sorted(goal_neg):
            intern(ground)

        known = set(index)
        actions = []
        for name, args, vpos, vneg, add, delete, cost in raw:
            if any(g not in known for g in vpos):
                continue  # requires a fluent nothing can ever make true
            actions.append(
                GroundAction(
                    name=name,
                    args=tuple(args),
                    pre_pos=tuple(sorted(index[g] for g in vpos)),
                    pre_neg=tuple(sorted(index[g] for g in vneg if g in known)),
                    add=tuple(sorted(index[g] for g in add)),
                    delete=tuple(sorted(index[g] for g in delete)),
                    cost=cost,
                )
            )

        fluents = tuple(sorted(index, key=index.get))
        return GroundTask(
            fluents=fluents,
            init=frozenset(index[g] for g in self.fluent_init),
            goal_pos=tuple(sorted(index[g] for g in goal_pos)),
            goal_neg=tuple(sorted(index[g] for g in goal_neg)),
            actions=tuple(actions),
            goal_statically_false=goal_false,
        )


def reference_ground(domain: PddlDomain, problem: PddlProblem) -> GroundTask:
    return _Grounder(domain, problem).build()
