from __future__ import annotations

import random

import pytest

from prodplan.errors import PddlSyntaxError, UnsupportedFeature
from prodplan.pddl import (
    And,
    Atom,
    Exists,
    Forall,
    Increase,
    Not,
    Plan,
    PlanStep,
    Predicate,
    TypedName,
    When,
    parse_domain,
    parse_plan,
    parse_problem,
    write_domain,
    write_plan,
    write_problem,
)
from prodplan.pddl.ast import NumericInit

from astgen import random_domain, random_plan, random_problem

DOMAIN_TEXT = """
(define (domain d)
  (:requirements :strips :typing :action-costs)
  (:types Cell Piece)
  (:constants a b - Cell king - Piece)
  (:predicates (On ?p - Piece ?c - Cell) (Free ?c - Cell) (Tick))
  (:functions (total-cost))
  (:action Move
    :parameters (?p - Piece ?f ?t - Cell)
    :precondition (and (On ?p ?f) (Free ?t) (not (Free ?f))
                       (exists (?q - Piece) (not (On ?q ?t)))
                       (forall (?q - Piece) (On ?q ?q)))
    :effect (and (not (On ?p ?f)) (On ?p ?t)
                 (forall (?c - Cell) (when (Free ?c) (not (Free ?c))))
                 (increase (total-cost) 10))))
"""


def test_parse_domain_structure():
    d = parse_domain(DOMAIN_TEXT)
    assert d.name == "d"
    assert d.requirements == (":strips", ":typing", ":action-costs")
    assert d.types == (TypedName("Cell"), TypedName("Piece"))
    assert d.constants == (
        TypedName("a", "Cell"),
        TypedName("b", "Cell"),
        TypedName("king", "Piece"),
    )
    assert d.predicates[2] == Predicate("Tick")
    assert d.functions == ("total-cost",)
    (move,) = d.actions
    assert move.parameters == (
        TypedName("?p", "Piece"),
        TypedName("?f", "Cell"),
        TypedName("?t", "Cell"),
    )
    pre = move.precondition
    assert isinstance(pre, And) and len(pre.items) == 5
    assert pre.items[0] == Atom("On", ("?p", "?f"))
    assert pre.items[2] == Not(Atom("Free", ("?f",)))
    assert isinstance(pre.items[3], Exists)
    assert isinstance(pre.items[4], Forall)
    eff = move.effect
    assert eff.items[2] == Forall(
        (TypedName("?c", "Cell"),),
        When(Atom("Free", ("?c",)), Not(Atom("Free", ("?c",)))),
    )
    assert eff.items[3] == Increase("total-cost", 10)


def test_parse_problem_structure():
    text = """
    (define (problem p) (:domain d)
      (:objects s1 s2 - Piece lone)
      (:init (On s1 a) (Tick) (= (total-cost) 0))
      (:goal (and (On s1 b) (not (Tick))))
      (:metric minimize (total-cost)))
    """
    p = parse_problem(text)
    assert p.domain_name == "d"
    assert p.objects == (
        TypedName("s1", "Piece"),
        TypedName("s2", "Piece"),
        TypedName("lone"),
    )
    assert p.init == (
        Atom("On", ("s1", "a")),
        Atom("Tick"),
        NumericInit("total-cost", 0),
    )
    assert p.goal == And((Atom("On", ("s1", "b")), Not(Atom("Tick"))))
    assert p.minimize == "total-cost"


def test_keywords_are_case_insensitive_names_are_not():
    d = parse_domain("(DEFINE (DOMAIN Mixed) (:PREDICATES (LocAt ?x)))")
    assert d.name == "Mixed"
    assert d.predicates == (Predicate("LocAt", (TypedName("?x"),)),)


def test_functions_section_tolerates_number_annotation():
    d = parse_domain("(define (domain d) (:functions (total-cost) - number))")
    assert d.functions == ("total-cost",)


def test_plan_parsing_and_solver_style_prefixes():
    text = "0: (Move s1 a b)\n1: (Move s2 b a)\n; cost = 20 (general cost)\n"
    plan = parse_plan(text)
    assert plan == Plan(
        (PlanStep("Move", ("s1", "a", "b")), PlanStep("Move", ("s2", "b", "a"))), 20
    )
    # our own writer round-trips
    assert parse_plan(write_plan(plan)) == plan
    assert parse_plan(write_plan(Plan())) == Plan()


def test_domain_round_trip(demo_domain):
    domain, _ = demo_domain
    assert parse_domain(write_domain(domain)) == domain


def test_problem_round_trip(demo_model, demo_domain):
    from prodplan.demo import demo_goal_2341
    from prodplan.transform import derive_problem

    domain, report = demo_domain
    problem = derive_problem(demo_model, demo_goal_2341(), report)
    assert parse_problem(write_problem(problem)) == problem


def test_generated_round_trips():
    rng = random.Random(20240211)
    for _ in range(150):
        domain = random_domain(rng)
        assert parse_domain(write_domain(domain)) == domain
        problem = random_problem(rng, domain)
        assert parse_problem(write_problem(problem)) == problem
        plan = random_plan(rng)
        assert parse_plan(write_plan(plan)) == plan


def test_unbalanced_parens_report_position():
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain("(define (domain d)")
    assert err.value.line == 1
    with pytest.raises(PddlSyntaxError):
        parse_domain("(define (domain d)))")


@pytest.mark.parametrize(
    "text,line,column",
    [
        (
            "; header (not a form\n(define (domain d)\n"
            "\t(:requirements :strips) ; ( in a comment\n\t\t(:nonsense))\n",
            4,
            4,
        ),
        ("(define (domain d)) ; )\n\r\n\t  )\n", 3, 4),
        ("(define (domain d)\n ; ((\n\t(:predicates (p ?x)\n", 3, 2),
    ],
)
def test_syntax_error_position_after_tabs_and_comments(text, line, column):
    # a tab counts as one column; comments and blank lines still count lines
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text",
    [
        "(define (domain d) (:nonsense))",
        "(define (domain d) (:action))",
        "(define (domain d) (:action A :precondition))",
        "(define (problem p) (:goal (and)))",  # missing :domain
        "(definitely (domain d))",
    ],
)
def test_malformed_text_raises_syntax_error(text):
    with pytest.raises(PddlSyntaxError):
        (parse_problem if "problem" in text else parse_domain)(text)


@pytest.mark.parametrize(
    "text",
    [
        "(define (domain d) (:requirements :durative-actions))",
        "(define (domain d) (:durative-action walk))",
        "(define (domain d) (:action A :precondition (or (P) (Q))))",
        "(define (domain d) (:action A :precondition (when (P) (Q))))",
        "(define (domain d) (:action A :effect (exists (?x) (P ?x))))",
        "(define (domain d) (:action A :effect (assign (total-cost) 3)))",
        "(define (domain d) (:action A :precondition (at 5 (P))))",
    ],
)
def test_unsupported_constructs_are_flagged(text):
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)


def test_non_integer_cost_rejected():
    with pytest.raises(PddlSyntaxError):
        parse_domain("(define (domain d) (:action A :effect (increase (total-cost) 1.5)))")
    with pytest.raises(UnsupportedFeature):
        parse_problem("(define (problem p) (:domain d) (:init) (:metric maximize (total-cost)))")


def test_plan_rejects_stray_tokens():
    with pytest.raises(PddlSyntaxError):
        parse_plan("move a b")
