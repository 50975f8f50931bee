"""Every search outcome of a fixed set of cases, pinned by one digest.

Each case records (status, cost, plan, expanded, generated). The digest
over all of them must be the same on every available core, so a change
to either search loop that moves any plan or count shows here.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from prodplan.planner import available_backends
from prodplan.planner.search import solve, solve_bidirectional

from test_search import _demo_tasks, _ring_task

OUTCOMES_DIGEST = "9e31dc0f24ae79ae949d0f0557495cd4f61ec3bf83c6daad4e142050ae4398cf"


@lru_cache(maxsize=None)
def _cases():
    """(label, search) pairs; a search takes a backend name."""
    demo = _demo_tasks()
    rings = {n: _ring_task(n) for n in range(5, 10)}
    cases = []
    for mode in ("optimal", "greedy"):
        cases += [(f"{goal_id} {mode}", task, {"mode": mode}) for goal_id, task in demo]
        cases += [(f"ring {n} {mode}", task, {"mode": mode}) for n, task in rings.items()]
    cases += [(f"drilling ring {n} optimal", _ring_task(n, drilling=True), {}) for n in range(5, 10)]
    cases += [(f"ring {n} greedy", _ring_task(n), {"mode": "greedy"}) for n in (11, 13)]
    blind = {"heuristic": "blind"}
    cases += [(f"{goal_id} blind", task, blind) for goal_id, task in demo]
    cases += [(f"ring {n} blind", rings[n], blind) for n in (5, 6, 7)]
    searches = [
        (label, lambda backend, task=task, kw=kw: solve(task, backend=backend, **kw))
        for label, task, kw in cases
    ]
    for n in (9, 11, 13):
        task, reverse = _ring_task(n, reverse=True)
        searches.append(
            (
                f"ring {n} two-frontier",
                lambda backend, task=task, reverse=reverse: solve_bidirectional(
                    task, reverse, backend=backend
                ),
            )
        )
    return tuple(searches)


def _digest(backend) -> str:
    digest = hashlib.sha256()
    for label, run in _cases():
        result = run(backend)
        steps = None if result.plan is None else [(s.action, *s.args) for s in result.plan.steps]
        outcome = (label, result.status, result.cost, steps, result.expanded, result.generated)
        digest.update(repr(outcome).encode("utf-8"))
    return digest.hexdigest()


def test_the_cases_are_distinct():
    labels = [label for label, _ in _cases()]
    assert len(labels) == len(set(labels)) == 92


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_search_outcomes_are_pinned(backend):
    if backend not in available_backends():
        pytest.skip("needs the compiled backend")
    assert _digest(backend) == OUTCOMES_DIGEST
