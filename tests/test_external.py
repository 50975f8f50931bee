from __future__ import annotations

import os
import stat
import sys

import pytest

from prodplan.errors import PlanParseError, SolverLaunchFailure
from prodplan.pddl import Plan, PlanStep, write_domain, write_problem
from prodplan.planner.external import solve_external
from prodplan.planner.grounding import ground
from prodplan.planner.search import validate_plan


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


def _demo_plan_solver(tmp_path):
    """A solver that checks it got a domain and writes a cost-50 demo plan."""
    plan_text = (
        "(MoveShuttle E_Shuttle-01 E_PositioningUnit-03 E_PositioningUnit-05)\\n"
        "(MoveShuttle E_Shuttle-02 E_PositioningUnit-01 E_PositioningUnit-03)\\n"
        "(MoveShuttle E_Shuttle-03 E_PositioningUnit-04 E_PositioningUnit-01)\\n"
        "(MoveShuttle E_Shuttle-04 E_PositioningUnit-02 E_PositioningUnit-04)\\n"
        "(MoveShuttle E_Shuttle-01 E_PositioningUnit-05 E_PositioningUnit-02)\\n"
        "; cost = 50 (general cost)\\n"
    )
    return _script(
        tmp_path,
        "solver.sh",
        f'grep -q ":action" "$1" || exit 3\nprintf "{plan_text}" > "$3"\n',
    )


@pytest.fixture
def demo_texts(demo_model, demo_domain):
    from prodplan.demo import demo_goal_2341
    from prodplan.transform import derive_problem

    domain, report = demo_domain
    problem = derive_problem(demo_model, demo_goal_2341(), report)
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
