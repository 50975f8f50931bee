from __future__ import annotations

import os
from pathlib import Path

import pytest

import prodplan
from prodplan import (
    build_demo_model,
    demo_goal_2341,
    derive_domain,
    derive_problem,
    ground,
)
from prodplan.planner import grounding


@pytest.fixture(scope="session")
def demo_model():
    return build_demo_model()


@pytest.fixture(scope="session")
def demo_domain(demo_model):
    domain, report = derive_domain(demo_model)
    return domain, report


@pytest.fixture(scope="session")
def demo_task(demo_model, demo_domain):
    domain, report = demo_domain
    problem = derive_problem(demo_model, demo_goal_2341(), report)
    return ground(domain, problem)


@pytest.fixture
def constructions(monkeypatch):
    """The problem names of the _Grounder instances built while the test runs."""
    built = []

    class Counting(grounding._Grounder):
        def __init__(self, domain, problem):
            built.append(problem.name)
            super().__init__(domain, problem)

    monkeypatch.setattr(grounding, "_Grounder", Counting)
    return built


@pytest.fixture
def child_pythonpath(monkeypatch):
    """Let child interpreters import the ``prodplan`` under test.

    Solver subprocesses run in their own workdir, where a relative
    PYTHONPATH (such as ``src``) no longer resolves. Prepending the
    absolute directory that holds this ``prodplan`` makes a child run the
    same code as the parent, whether installed or run from source.
    """
    root = str(Path(prodplan.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", root + (os.pathsep + inherited if inherited else "")
    )
