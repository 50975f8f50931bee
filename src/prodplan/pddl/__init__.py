"""PDDL 3.1 subset: AST records, text writer and text parser.

The subset covers STRIPS with typing, negative/existential/universal
preconditions, conditional effects and additive action costs. Writer
output re-parses to an equal AST. The nodes are ``NamedTuple``s, and
``PddlDomain`` a plain frozen record; all compare by type and fields.
"""

from .ast import (
    And,
    Atom,
    Exists,
    Forall,
    Increase,
    Not,
    PddlAction,
    PddlDomain,
    PddlProblem,
    Plan,
    PlanStep,
    Predicate,
    TypedName,
    When,
)
from .parser import parse_domain, parse_plan, parse_problem
from .writer import write_domain, write_plan, write_problem

__all__ = [
    "And",
    "Atom",
    "Exists",
    "Forall",
    "Increase",
    "Not",
    "PddlAction",
    "PddlDomain",
    "PddlProblem",
    "Plan",
    "PlanStep",
    "Predicate",
    "TypedName",
    "When",
    "parse_domain",
    "parse_plan",
    "parse_problem",
    "write_domain",
    "write_plan",
    "write_problem",
]
