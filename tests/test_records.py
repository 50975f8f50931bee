"""The records of the PDDL, grounding and search layers: frozen, equal by
type and fields, picklable, and copied with changes by ``_replace``."""

from __future__ import annotations

import pickle
import weakref

import pytest

from prodplan import demo_goal_2341, derive_problem, ground, solve
from prodplan.pddl import (
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
from prodplan.pddl.ast import NumericInit
from prodplan.planner import GroundAction, GroundTask, SearchResult
from prodplan.planner.patterns import PatternTables, pattern_tables

VARS = (TypedName("?s", "shuttle"),)
BODY = Atom("at", ("?s", "pu-1"))


def _records(demo_model, demo_domain):
    """One instance of every record type, from the demo where it has one."""
    domain, report = demo_domain
    problem = derive_problem(demo_model, demo_goal_2341(), report)
    task = ground(domain, problem)
    result = solve(task)
    args = (task.fluents, sorted(task.init), task.goal_pos, task.goal_neg, task.actions)
    return [
        VARS[0],
        Predicate("at", VARS),
        BODY,
        Not(BODY),
        And((BODY, Not(BODY))),
        Exists(VARS, BODY),
        Forall(VARS, BODY),
        When(BODY, BODY),
        Increase("total-cost", 5),
        NumericInit("total-cost", 0),
        domain.actions[0],
        domain,
        problem,
        result.plan.steps[0],
        result.plan,
        task.actions[0],
        task,
        result,
        pattern_tables(*args),
    ]


@pytest.fixture(scope="module")
def records(demo_model, demo_domain):
    return _records(demo_model, demo_domain)


def test_every_record_type_is_covered(records):
    covered = {type(record) for record in records}
    assert covered == {
        TypedName, Predicate, Atom, Not, And, Exists, Forall, When, Increase, NumericInit,
        PddlAction, PddlDomain, PddlProblem, PlanStep, Plan,
        GroundAction, GroundTask, SearchResult, PatternTables,
    }


@pytest.mark.parametrize(
    "a, b",
    [
        (Exists(VARS, BODY), Forall(VARS, BODY)),
        (NumericInit("f", 1), Increase("f", 1)),
        (PlanStep("a"), Atom("a")),
    ],
)
def test_ast_nodes_of_two_types_differ(a, b):
    assert tuple(a) == tuple(b)
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2
    # nested too: the parents' fields differ by the type of a child
    assert And((a,)) != And((b,)) and Not(a) != Not(b)


def test_ast_nodes_differ_from_the_tuples_of_their_fields(records):
    for node in records:
        if isinstance(node, tuple) and type(node).__module__ == "prodplan.pddl.ast":
            fields = tuple(node)
            assert node != fields and fields != node, type(node)
            assert not node == fields and not fields == node, type(node)
            assert {node, fields} == {fields, node} and len({node, fields}) == 2


def test_equal_records_hash_alike(records, demo_model, demo_domain):
    again = _records(demo_model, demo_domain)
    for record, copy in zip(records, again):
        if isinstance(record, SearchResult):  # wall times differ
            record, copy = record._replace(wall_time_ms=0.0), copy._replace(wall_time_ms=0.0)
        assert record == copy and not record != copy, type(record)
        assert hash(record) == hash(copy), type(record)


def test_assigning_a_field_raises(records):
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                delattr(record, field)


@pytest.mark.parametrize("kind", [PddlDomain, PddlProblem, GroundTask, SearchResult, Plan])
def test_records_round_trip_through_pickle(records, kind):
    (record,) = [r for r in records if type(r) is kind]
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is kind
    assert copy is not record


def test_replace_changes_only_the_named_fields(records):
    for record in records:
        first, *rest = record._fields
        value = ("changed",)
        changed = record._replace(**{first: value})
        assert type(changed) is type(record)
        assert getattr(changed, first) == value
        assert [getattr(changed, f) for f in rest] == [getattr(record, f) for f in rest]
        assert record._replace() == record
        with pytest.raises((TypeError, ValueError)):
            record._replace(no_such_field=1)


def test_domain_and_task_are_plain_records(records):
    domain = next(r for r in records if isinstance(r, PddlDomain))
    task = next(r for r in records if isinstance(r, GroundTask))
    assert weakref.ref(domain)() is domain
    assert PddlDomain("d") == PddlDomain(name="d", requirements=())
    assert PddlDomain("d") != PddlDomain("e")
    assert PddlDomain("d") != ("d", (), (), (), (), (), ())
    with pytest.raises(TypeError):
        PddlDomain()
    with pytest.raises(TypeError):
        PddlDomain("d", name="e")
    # the cached lookup table is not a field: it is neither compared nor pickled
    assert task.actions_by_label
    assert pickle.loads(pickle.dumps(task)) == task
    assert "actions_by_label" not in vars(pickle.loads(pickle.dumps(task)))
    assert repr(PddlDomain("d")).startswith("PddlDomain(name='d', requirements=()")
