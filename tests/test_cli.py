from __future__ import annotations

import csv
import json
import stat
import subprocess
import sys

import pytest

from prodplan.cli import main
from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.model_io import (
    GoalSpec,
    load_goal_model,
    load_integrated_model,
    load_production_model,
    save_goal_model,
    save_production_model,
)
from prodplan.pddl import parse_domain, parse_plan, parse_problem
from prodplan.planner.grounding import ground
from prodplan.planner.search import validate_plan
from prodplan.transform import derive_domain, derive_problem


@pytest.fixture
def demo_files(tmp_path):
    model_path = tmp_path / "model.json"
    goal_path = tmp_path / "goal.json"
    save_production_model(build_demo_model(), model_path)
    save_goal_model(demo_goal_2341(), goal_path)
    return model_path, goal_path


def test_validate_ok(demo_files, capsys):
    model_path, _ = demo_files
    assert main(["validate", "--model", str(model_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"equipment": [{"id": "E", "classIds": ["Nope"]}]}))
    assert main(["validate", "--model", str(bad)]) == 1
    assert "Nope" in capsys.readouterr().err


def test_malformed_input_is_an_error_not_a_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["validate", "--model", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["validate", "--model", str(missing)]) == 1


def test_gen_layout_outputs_load_cleanly(tmp_path):
    out = tmp_path / "ring.json"
    goal_out = tmp_path / "ring-goal.json"
    assert (
        main(
            [
                "gen-layout",
                "--pus",
                "7",
                "--out",
                str(out),
                "--goal-out",
                str(goal_out),
            ]
        )
        == 0
    )
    model = load_production_model(out)
    goal = load_goal_model(goal_out, model)
    assert len(model.equipment_of_class("PositioningUnit")) == 7
    assert len(goal.shuttle_locations) == 5

    drill_out = tmp_path / "drill.json"
    drill_goal = tmp_path / "drill-goal.json"
    assert (
        main(
            [
                "gen-layout",
                "--pus",
                "5",
                "--drilling",
                "--out",
                str(drill_out),
                "--goal-out",
                str(drill_goal),
            ]
        )
        == 0
    )
    model = load_production_model(drill_out)
    goal = load_goal_model(drill_goal, model)
    assert model.material_lots and goal.material_properties_true


def test_pipeline_end_to_end(demo_files, tmp_path, capsys):
    model_path, goal_path = demo_files
    out = tmp_path / "out"
    assert (
        main(
            [
                "pipeline",
                "--model",
                str(model_path),
                "--goal",
                str(goal_path),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert any("goal-2341: solved cost=50 steps=5" in line for line in lines)

    plan = parse_plan((out / "plan-goal-2341.txt").read_text())
    assert plan.cost == 50 and len(plan.steps) == 5

    integrated = load_integrated_model(out / "integrated.json")
    (record,) = integrated.operations_definitions
    assert record.goal_id == "goal-2341"
    assert record.solvable and record.total_cost == 50
    assert len(record.operations) == 5
    assert integrated.model == load_production_model(model_path)


def test_pipeline_records_unsolvable_goals(demo_files, tmp_path, capsys):
    model_path, _ = demo_files
    # all five units occupied is out of reach for four shuttles
    impossible = GoalSpec(
        id="crowd",
        properties_true=tuple(
            (f"PositioningUnit-0{i}", "PositioningUnitOccupied") for i in range(1, 6)
        ),
    )
    goal_path = tmp_path / "crowd.json"
    save_goal_model(impossible, goal_path)
    out = tmp_path / "out"
    assert (
        main(
            [
                "pipeline",
                "--model",
                str(model_path),
                "--goal",
                str(goal_path),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert "crowd: unsolvable" in capsys.readouterr().out
    integrated = load_integrated_model(out / "integrated.json")
    (record,) = integrated.operations_definitions
    assert not record.solvable
    assert not (out / "plan-crowd.txt").exists()


def test_pipeline_emitted_pddl_round_trip(demo_files, tmp_path):
    model_path, goal_path = demo_files
    direct = tmp_path / "direct"
    emitted = tmp_path / "emitted"
    args = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    assert main(args + ["--out", str(direct), "--emit-pddl"]) == 0
    assert main(args + ["--out", str(emitted), "--use-emitted"]) == 0

    domain_text = (direct / "domain.pddl").read_text()
    problem_text = (direct / "problem-goal-2341.pddl").read_text()
    domain = parse_domain(domain_text)
    problem = parse_problem(problem_text)
    model = load_production_model(model_path)
    expected_domain, report = derive_domain(model)
    assert domain == expected_domain
    assert problem == derive_problem(model, demo_goal_2341(), report)

    # planning from re-parsed text yields byte-identical plans
    assert (emitted / "plan-goal-2341.txt").read_bytes() == (
        direct / "plan-goal-2341.txt"
    ).read_bytes()


def test_pipeline_greedy_uses_two_frontiers(demo_files, tmp_path, capsys):
    model_path, goal_path = demo_files
    out = tmp_path / "out"
    assert (
        main(
            [
                "pipeline",
                "--model",
                str(model_path),
                "--goal",
                str(goal_path),
                "--out",
                str(out),
                "--mode",
                "greedy",
            ]
        )
        == 0
    )
    assert "goal-2341: solved" in capsys.readouterr().out
    plan = parse_plan((out / "plan-goal-2341.txt").read_text())
    model = load_production_model(model_path)
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, demo_goal_2341(), report))
    assert validate_plan(task, plan) == plan.cost


def test_pipeline_with_external_solver(
    demo_files, tmp_path, capsys, child_pythonpath
):
    model_path, goal_path = demo_files
    out = tmp_path / "out"
    solver = (
        f"{sys.executable} -m prodplan.cli solve "
        "--domain {domain} --problem {problem} --plan-out {plan}"
    )
    assert (
        main(
            [
                "pipeline",
                "--model",
                str(model_path),
                "--goal",
                str(goal_path),
                "--out",
                str(out),
                "--solver-cmd",
                solver,
            ]
        )
        == 0
    )
    assert "goal-2341: solved cost=50" in capsys.readouterr().out


def test_permutations_sweep(demo_files, tmp_path, capsys):
    model_path, _ = demo_files
    out = tmp_path / "out"
    csv_path = tmp_path / "rows.csv"
    assert (
        main(
            [
                "permutations",
                "--model",
                str(model_path),
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    assert "23/23 goals solved" in capsys.readouterr().out
    integrated = load_integrated_model(out / "integrated.json")
    assert len(integrated.operations_definitions) == 23
    assert all(r.solvable for r in integrated.operations_definitions)

    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 23
    assert set(rows[0]) == {
        "size",
        "shuttles",
        "mode",
        "status",
        "planCostSeconds",
        "steps",
        "wallTimeMs",
        "expanded",
    }
    assert all(row["status"] == "solved" for row in rows)
    assert all(int(row["planCostSeconds"]) % 10 == 0 for row in rows)


def test_permutations_parallel_matches_serial(demo_files, tmp_path):
    model_path, _ = demo_files
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["permutations", "--model", str(model_path)]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--parallel", "2"]) == 0
    a = load_integrated_model(serial / "integrated.json")
    b = load_integrated_model(parallel / "integrated.json")
    assert a == b


def test_permutations_runs_the_external_solver(demo_files, tmp_path, capsys):
    model_path, _ = demo_files
    solver = tmp_path / "refuse.sh"
    solver.write_text("#!/bin/sh\nexit 12\n")
    solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
    out = tmp_path / "out"
    argv = ["permutations", "--model", str(model_path), "--out", str(out)]
    assert main(argv + ["--solver-cmd", f"{solver} {{plan}}"]) == 0
    assert "0/23 goals solved" in capsys.readouterr().out
    records = load_integrated_model(out / "integrated.json").operations_definitions
    assert len(records) == 23
    assert not any(r.solvable for r in records)
    assert (out / "solver" / "goal-2341" / "problem.pddl").exists()


@pytest.mark.parametrize("command", ["bench", "solve"])
def test_solver_cmd_is_not_an_option_of(command, tmp_path, capsys):
    argv = [command, "--solver-cmd", "x"]
    if command == "solve":
        argv += ["--domain", "d.pddl", "--problem", "p.pddl"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--solver-cmd" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["optimal", "greedy"])
def test_pipeline_and_permutations_plan_a_goal_alike(demo_files, tmp_path, mode):
    model_path, goal_path = demo_files
    pipe, perm = tmp_path / "pipeline", tmp_path / "permutations"
    common = ["--model", str(model_path), "--mode", mode, "--out"]
    assert main(["pipeline", "--goal", str(goal_path)] + common + [str(pipe)]) == 0
    assert main(["permutations"] + common + [str(perm)]) == 0
    (record,) = load_integrated_model(pipe / "integrated.json").operations_definitions
    swept = {
        r.goal_id: r
        for r in load_integrated_model(perm / "integrated.json").operations_definitions
    }
    assert record.goal_id == "goal-2341"
    assert swept["goal-2341"] == record
    assert (perm / "plan-goal-2341.txt").read_bytes() == (
        pipe / "plan-goal-2341.txt"
    ).read_bytes()


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "5", "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["size"] == "5" and row["shuttles"] == "3"
    assert row["status"] == "solved"
    assert row["mode"] == "optimal"
    assert int(row["steps"]) > 0

    greedy_csv = tmp_path / "greedy.csv"
    assert (
        main(["bench", "--sizes", "5", "--mode", "greedy", "--csv", str(greedy_csv)])
        == 0
    )
    with open(greedy_csv, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["status"] == "solved" and row["mode"] == "greedy"


def test_bench_drilling(tmp_path):
    csv_path = tmp_path / "drill.csv"
    assert main(["bench", "--sizes", "5", "--drilling", "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["status"] == "solved"


def test_solve_subcommand_on_emitted_files(demo_files, tmp_path, capsys):
    model_path, goal_path = demo_files
    out = tmp_path / "out"
    main(
        [
            "pipeline",
            "--model",
            str(model_path),
            "--goal",
            str(goal_path),
            "--out",
            str(out),
            "--emit-pddl",
        ]
    )
    capsys.readouterr()
    plan_out = tmp_path / "plan.txt"
    assert (
        main(
            [
                "solve",
                "--domain",
                str(out / "domain.pddl"),
                "--problem",
                str(out / "problem-goal-2341.pddl"),
                "--plan-out",
                str(plan_out),
            ]
        )
        == 0
    )
    assert "solved cost=50" in capsys.readouterr().out
    assert parse_plan(plan_out.read_text()).cost == 50


def test_version_names_backend():
    proc = subprocess.run(
        [sys.executable, "-m", "prodplan.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "backend:" in proc.stdout
