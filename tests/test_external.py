from __future__ import annotations

import math
import os
import stat
import sys

import pytest

from prodplan.errors import PlanParseError, PreconditionViolated, SolverLaunchFailure
from prodplan.pddl import Plan, PlanStep, write_domain, write_problem
from prodplan.planner.external import solve_external
from prodplan.planner.grounding import ground
from prodplan.planner.search import plan, validate_plan


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


# The demo's optimal plan, cost 50, as a solver writes it.
_DEMO_PLAN = (
    "(MoveShuttle E_Shuttle-01 E_PositioningUnit-03 E_PositioningUnit-05)",
    "(MoveShuttle E_Shuttle-02 E_PositioningUnit-01 E_PositioningUnit-03)",
    "(MoveShuttle E_Shuttle-03 E_PositioningUnit-04 E_PositioningUnit-01)",
    "(MoveShuttle E_Shuttle-04 E_PositioningUnit-02 E_PositioningUnit-04)",
    "(MoveShuttle E_Shuttle-01 E_PositioningUnit-05 E_PositioningUnit-02)",
    "; cost = 50 (general cost)",
)


def _demo_plan_solver(tmp_path, lines=_DEMO_PLAN):
    """A solver that checks it got a domain and writes ``lines`` as its
    plan, by default the demo's optimal plan."""
    plan_text = "".join(f"{line}\\n" for line in lines)
    return _script(
        tmp_path,
        "solver.sh",
        f'grep -q ":action" "$1" || exit 3\nprintf "{plan_text}" > "$3"\n',
    )


@pytest.fixture
def demo_problem(demo_model, demo_domain):
    from prodplan.demo import demo_goal_2341
    from prodplan.transform import derive_problem

    domain, report = demo_domain
    return domain, derive_problem(demo_model, demo_goal_2341(), report)


@pytest.fixture
def demo_texts(demo_problem):
    domain, problem = demo_problem
    return write_domain(domain), write_problem(problem)


def test_successful_solver_run(tmp_path, demo_texts, demo_task):
    domain_text, problem_text = demo_texts
    script = _demo_plan_solver(tmp_path)
    result = solve_external(
        domain_text,
        problem_text,
        f"{script} {{domain}} {{problem}} {{plan}}",
        tmp_path / "work",
    )
    assert result.status == "solved"
    assert result.backend == "external"
    assert result.heuristic_ms == 0.0  # the solver's own time is not split
    assert result.cost == 50
    assert validate_plan(demo_task, result.plan) == 50
    # inputs were materialized for the solver
    assert (tmp_path / "work" / "domain.pddl").read_text() == domain_text
    assert (tmp_path / "work" / "problem.pddl").read_text() == problem_text


def test_unsolvable_exit_codes(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    for code in (0, 12):
        script = _script(tmp_path, f"unsat{code}.sh", f"exit {code}\n")
        result = solve_external(
            domain_text,
            problem_text,
            f"{script} {{domain}} {{problem}} {{plan}}",
            tmp_path / f"work{code}",
        )
        assert result.status == "unsolvable"
        assert result.plan is None


def test_failing_solver_surfaces_stderr(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    script = _script(tmp_path, "broken.sh", 'echo "segfault imminent" >&2\nexit 99\n')
    with pytest.raises(SolverLaunchFailure) as err:
        solve_external(
            domain_text,
            problem_text,
            f"{script} {{domain}} {{problem}} {{plan}}",
            tmp_path / "work",
        )
    assert "99" in str(err.value)
    assert "segfault imminent" in str(err.value)


def test_missing_binary(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    with pytest.raises(SolverLaunchFailure):
        solve_external(
            domain_text,
            problem_text,
            "/nonexistent/solver {domain} {problem} {plan}",
            tmp_path / "work",
        )


def test_slow_solver_times_out(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    script = _script(tmp_path, "slow.sh", "sleep 5\n")
    result = solve_external(
        domain_text,
        problem_text,
        f"{script} {{domain}} {{problem}} {{plan}}",
        tmp_path / "work",
        time_limit=0.2,
    )
    assert result.status == "timeout"


def test_zero_time_limit_means_unlimited(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    script = _demo_plan_solver(tmp_path)
    slow = _script(tmp_path, "slow.sh", f'sleep 0.2\nexec {script} "$@"\n')
    result = solve_external(
        domain_text,
        problem_text,
        f"{slow} {{domain}} {{problem}} {{plan}}",
        tmp_path / "work",
        time_limit=0,
    )
    assert result.status == "solved" and result.cost == 50


def test_garbage_plan_file(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    script = _script(tmp_path, "garbage.sh", 'echo "((((" > "$1"\n')
    with pytest.raises(PlanParseError):
        solve_external(
            domain_text,
            problem_text,
            f"{script} {{plan}} {{domain}} {{problem}}",
            tmp_path / "work",
        )


def test_relative_workdir_paths_survive_solver_cwd(
    tmp_path, monkeypatch, demo_texts, demo_task
):
    """Placeholders stay valid although the solver runs inside the workdir."""
    domain_text, problem_text = demo_texts
    script = _demo_plan_solver(tmp_path)
    monkeypatch.chdir(tmp_path)
    result = solve_external(
        domain_text,
        problem_text,
        f"{script} {{domain}} {{problem}} {{plan}}",
        "work",
    )
    assert result.status == "solved"
    assert validate_plan(demo_task, result.plan) == 50


def test_stale_plan_file_is_cleared(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    work = tmp_path / "work"
    work.mkdir()
    (work / "plan.txt").write_text("(MoveShuttle a b c)\n")
    script = _script(tmp_path, "unsat.sh", "exit 12\n")
    result = solve_external(
        domain_text,
        problem_text,
        f"{script} {{domain}} {{problem}} {{plan}}",
        work,
    )
    # the leftover plan from an earlier run must not count
    assert result.status == "unsolvable"


def test_self_hosting_through_cli(
    tmp_path, demo_texts, demo_task, child_pythonpath
):
    """The package's own CLI speaks the external-solver contract."""
    domain_text, problem_text = demo_texts
    command = (
        f"{sys.executable} -m prodplan.cli solve "
        "--domain {domain} --problem {problem} --plan-out {plan} --mode optimal"
    )
    result = solve_external(
        domain_text, problem_text, command, tmp_path / "work", time_limit=120
    )
    assert result.status == "solved"
    assert validate_plan(demo_task, result.plan) == 50
    # the child's search counts come back through its report line
    assert result.expanded > 0
    assert result.generated >= result.expanded


def test_search_counts_read_from_solver_stdout(tmp_path, demo_texts):
    domain_text, problem_text = demo_texts
    plan = "(MoveShuttle E_Shuttle-01 E_PositioningUnit-03 E_PositioningUnit-05)"
    counted = _script(
        tmp_path,
        "counted.sh",
        f'echo "p: solved cost=10 expanded=7 generated=12"\necho "{plan}" > "$3"\n',
    )
    silent = _script(tmp_path, "silent.sh", f'echo "{plan}" > "$3"\n')
    results = [
        solve_external(
            domain_text,
            problem_text,
            f"{script} {{domain}} {{problem}} {{plan}}",
            tmp_path / script.stem,
        )
        for script in (counted, silent)
    ]
    assert [(r.status, r.expanded, r.generated) for r in results] == [
        ("solved", 7, 12),
        ("solved", 0, 0),
    ]


def test_plan_fills_in_the_cost_of_a_costless_external_plan(tmp_path, demo_problem):
    script = _demo_plan_solver(tmp_path, _DEMO_PLAN[:-1])
    command = f"{script} {{domain}} {{problem}} {{plan}}"
    result = plan(*demo_problem, tmp_path / "work", solver_cmd=command)
    assert "; cost" not in (tmp_path / "work" / "plan.txt").read_text()
    assert (result.status, result.cost, result.plan.cost) == ("solved", 50, 50)
    assert len(result.plan.steps) == 5


def test_plan_refuses_an_invalid_external_plan(tmp_path, demo_problem):
    swapped = (_DEMO_PLAN[1], _DEMO_PLAN[0], *_DEMO_PLAN[2:])
    script = _demo_plan_solver(tmp_path, swapped)
    command = f"{script} {{domain}} {{problem}} {{plan}}"
    with pytest.raises(PreconditionViolated) as err:
        plan(*demo_problem, tmp_path / "work", solver_cmd=command)
    assert err.value.step_index == 0


@pytest.mark.parametrize("time_limit", [math.inf, 3e6])
def test_a_limit_past_the_longest_wait_waits_without_one(
    tmp_path, demo_problem, time_limit
):
    # subprocess can wait at most 2**31 ms, about 24.8 days
    domain, problem = demo_problem
    script = _demo_plan_solver(tmp_path)
    result = plan(
        domain,
        problem,
        tmp_path / "work",
        solver_cmd=f"{script} {{domain}} {{problem}} {{plan}}",
        time_limit=time_limit,
    )
    assert (result.status, result.cost) == ("solved", 50)
