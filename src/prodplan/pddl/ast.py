"""AST node types for the supported PDDL subset.

Names keep the case they were written with; PDDL keywords are handled
case-insensitively by the parser. Every node is a ``typing.NamedTuple``
except ``PddlDomain``, which ``planner.grounding`` holds weakly and so
is a plain frozen record (``_Record``). Nodes compare and hash by type
as well as by fields, so ``Exists(v, c) != Forall(v, c)``, a node never
equals the plain tuple of its fields, and a re-parsed tree equals the
one it was written from only if every node kept its type.
"""

from __future__ import annotations

from typing import NamedTuple

DEFAULT_TYPE = "object"

SUPPORTED_REQUIREMENTS = (
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":existential-preconditions",
    ":universal-preconditions",
    ":conditional-effects",
    ":action-costs",
)


class _Record:
    """A frozen record whose fields are its subclass's annotated names, in
    order, with the assigned ones as defaults. Unlike a NamedTuple it can
    be weakly referenced and hold a ``cached_property``. It compares and
    hashes by type and fields, pickles by its fields, and ``_replace``
    returns a copy with some fields changed."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._field_defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        values = {**self._field_defaults, **given, **kwargs}
        if len(args) > len(self._fields) or given.keys() & kwargs or kwargs.keys() - self._fields:
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        missing = [name for name in self._fields if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__} is missing {', '.join(missing)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class TypedName(NamedTuple):
    """A name (or ?variable) with its type."""

    name: str
    type: str = DEFAULT_TYPE


class Predicate(NamedTuple):
    name: str
    parameters: tuple[TypedName, ...] = ()


class Atom(NamedTuple):
    """Predicate application; arguments are constants or ?variables."""

    predicate: str
    args: tuple[str, ...] = ()


class Not(NamedTuple):
    item: "Expr"


class And(NamedTuple):
    items: tuple["Expr", ...] = ()


class Exists(NamedTuple):
    variables: tuple[TypedName, ...]
    condition: "Expr"


class Forall(NamedTuple):
    variables: tuple[TypedName, ...]
    body: "Expr"


class When(NamedTuple):
    condition: "Expr"
    effect: "Expr"


class Increase(NamedTuple):
    """(increase (total-cost) amount); the only numeric effect supported."""

    function: str
    amount: int


Expr = Atom | Not | And | Exists | Forall | When | Increase


class PddlAction(NamedTuple):
    name: str
    parameters: tuple[TypedName, ...] = ()
    precondition: Expr | None = None
    effect: Expr | None = None


class PddlDomain(_Record):
    """A plain record rather than a NamedTuple: ``planner.grounding``
    holds the domain of its last call weakly."""

    name: str
    requirements: tuple[str, ...] = ()
    types: tuple[TypedName, ...] = ()
    constants: tuple[TypedName, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    functions: tuple[str, ...] = ()
    actions: tuple[PddlAction, ...] = ()


class NumericInit(NamedTuple):
    """(= (function) value) inside :init."""

    function: str
    value: int


class PddlProblem(NamedTuple):
    name: str
    domain_name: str
    objects: tuple[TypedName, ...] = ()
    init: tuple[Atom | NumericInit, ...] = ()
    goal: Expr | None = None
    minimize: str | None = None


class PlanStep(NamedTuple):
    action: str
    args: tuple[str, ...] = ()


class Plan(NamedTuple):
    steps: tuple[PlanStep, ...] = ()
    cost: int | None = None


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def _hash(self):
    return hash((type(self), tuple(self)))


for _node in (
    TypedName, Predicate, Atom, Not, And, Exists, Forall, When, Increase,
    PddlAction, NumericInit, PddlProblem, PlanStep, Plan,
):
    _node.__eq__, _node.__ne__, _node.__hash__ = _eq, _ne, _hash
del _node
