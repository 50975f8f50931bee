"""Drive an external PDDL solver through a command template.

The template gets {domain}, {problem} and {plan} substituted with
absolute file paths inside the workdir, which is also the solver's
working directory, e.g.:

    fast-downward --alias seq-opt-lmcut --plan-file {plan} {domain} {problem}

A produced plan file counts as solved; exit code 0 or 12 without one
counts as unsolvable (12 is a common "proved unsolvable" convention);
anything else raises SolverLaunchFailure. Search counts are read from
``expanded=N`` and ``generated=N`` on the solver's standard output, as
``prodplan.cli solve`` prints them; a solver that prints neither (Fast
Downward, for one) reports 0.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import time
from pathlib import Path

from ..errors import PlanParseError, SolverLaunchFailure
from ..pddl import parse_plan
from .search import SearchResult

UNSOLVABLE_EXIT_CODES = (0, 12)
# subprocess waits through poll(), whose timeout is a C int of
# milliseconds: about 24.8 days is the longest wait it can be given
_LONGEST_WAIT_S = (2**31 - 1) / 1000


def _count(name: str, stdout: str) -> int:
    """Last ``name=N`` on the solver's stdout, or 0 when there is none."""
    found = re.findall(rf"\b{name}=(\d+)", stdout)
    return int(found[-1]) if found else 0


def solve_external(
    domain_text: str,
    problem_text: str,
    command_template: str,
    workdir,
    time_limit: float | None = None,
) -> SearchResult:
    # Absolute, because the solver runs with its cwd set to the workdir.
    work = Path(workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    domain_path = work / "domain.pddl"
    problem_path = work / "problem.pddl"
    plan_path = work / "plan.txt"
    domain_path.write_text(domain_text, encoding="utf-8")
    problem_path.write_text(problem_text, encoding="utf-8")
    if plan_path.exists():
        plan_path.unlink()

    command = [
        part.format(
            domain=str(domain_path), problem=str(problem_path), plan=str(plan_path)
        )
        for part in shlex.split(command_template)
    ]
    # 0, as in solve(), inf and limits past the longest wait mean none
    wait = time_limit if time_limit and time_limit <= _LONGEST_WAIT_S else None
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=work,
            capture_output=True,
            text=True,
            timeout=wait,
        )
    except FileNotFoundError as exc:
        raise SolverLaunchFailure(f"cannot launch {command[0]!r}: {exc}") from exc
    except subprocess.TimeoutExpired:
        wall = (time.monotonic() - started) * 1000.0
        return SearchResult("timeout", None, None, 0, 0, wall, "external")
    wall = (time.monotonic() - started) * 1000.0
    expanded = _count("expanded", proc.stdout)
    generated = _count("generated", proc.stdout)

    if plan_path.exists():
        try:
            plan = parse_plan(plan_path.read_text(encoding="utf-8"))
        except Exception as exc:
            raise PlanParseError(f"solver wrote an unreadable plan: {exc}") from exc
        return SearchResult(
            "solved", plan, plan.cost, expanded, generated, wall, "external"
        )
    if proc.returncode in UNSOLVABLE_EXIT_CODES:
        return SearchResult(
            "unsolvable", None, None, expanded, generated, wall, "external"
        )
    tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
    raise SolverLaunchFailure(
        f"solver exited with {proc.returncode} and no plan: " + " | ".join(tail)
    )
