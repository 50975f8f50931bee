from __future__ import annotations

import csv
import dataclasses
import json
import stat
import subprocess
import sys

import pytest

from prodplan.cli import main
from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.model_io import (
    GoalSpec,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
    goal_to_dict,
    load_goal_model,
    load_integrated_model,
    load_production_model,
    save_goal_model,
    save_production_model,
)
from prodplan.pddl import parse_domain, parse_plan, parse_problem
from prodplan.planner import available_backends, search, solve
from prodplan.planner.grounding import ground
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


def test_validate_derives_like_pipeline(demo_files, tmp_path, capsys):
    # a model that loads but places Shuttle-01 at no positioning unit
    data = json.loads(demo_files[0].read_text())
    for conn in data["resourceNetworks"][0]["connections"]:
        if conn["connectionType"] == "Shuttle-Connection" and conn["fromId"] == "Shuttle-01":
            conn["coordinates"] = [99.0, 99.0, 0.0]
    off = tmp_path / "off.json"
    off.write_text(json.dumps(data))
    assert main(["validate", "--model", str(off)]) == 1
    err = capsys.readouterr().err
    assert "error: shuttle Shuttle-01 is not located at any positioning unit" in err
    args = ["pipeline", "--model", str(off), "--goal", str(demo_files[1])]
    assert main(args + ["--out", str(tmp_path / "run")]) == 1
    assert err == capsys.readouterr().err


def test_malformed_input_is_an_error_not_a_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["validate", "--model", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["validate", "--model", str(missing)]) == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["solve", "--domain", "{tmp}/none.pddl", "--problem", "{latin1}"], "{tmp}/none.pddl"),
        (["solve", "--domain", "{latin1}", "--problem", "{latin1}"], "{latin1}"),
        (["validate", "--model", "{latin1}"], "{latin1}"),
        (["gen-layout", "--pus", "5", "--out", "{tmp}/nodir/ring.json"], "{tmp}/nodir/ring.json"),
        (["bench", "--sizes", "5", "--csv", "{tmp}/nodir/bench.csv"], "{tmp}/nodir/bench.csv"),
        (["pipeline", "--model", "{model}", "--goal", "{goal}", "--out", "{model}"], "{model}"),
    ],
    ids=[
        "missing", "solve-not-utf8", "validate-not-utf8", "no-dir", "csv-no-dir", "out-is-a-file"
    ],
)
def test_file_errors_end_in_one_error_line(demo_files, tmp_path, capsys, argv, named):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"(define (domain caf\xe9))")
    model, goal = demo_files
    paths = {"tmp": tmp_path, "latin1": latin1, "model": model, "goal": goal}
    assert main([arg.format(**paths) for arg in argv]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and named.format(**paths) in line


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


def test_pipeline_greedy_plans_what_solve_plans(tmp_path):
    model_path, goal_path = tmp_path / "ring.json", tmp_path / "goal.json"
    save_production_model(generate_ring_layout(7, 0.65), model_path)
    model = load_production_model(model_path)
    goal = generate_reverse_goal(model)
    save_goal_model(goal, goal_path)
    domain, report = derive_domain(model)
    task = ground(domain, derive_problem(model, goal, report))
    argv = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    for backend in available_backends():
        expected = solve(task, mode="greedy", backend=backend)
        assert expected.solved
        for extra in ([], ["--use-emitted"]):
            out = tmp_path / backend / "".join(extra)
            argv_out = argv + ["--out", str(out), "--mode", "greedy", "--backend", backend]
            assert main(argv_out + extra) == 0
            plan = parse_plan((out / f"plan-{goal.id}.txt").read_text())
            assert (plan.steps, plan.cost) == (expected.plan.steps, expected.cost)


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


@pytest.mark.parametrize("limit", ["inf", "3e6"])
def test_pipeline_waits_for_the_external_solver_without_a_limit(
    demo_files, tmp_path, capsys, child_pythonpath, limit
):
    # past about 24.8 days subprocess cannot wait, so such a limit is none
    model_path, goal_path = demo_files
    solver = (
        f"{sys.executable} -m prodplan.cli solve "
        "--domain {domain} --problem {problem} --plan-out {plan}"
    )
    argv = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    argv += ["--out", str(tmp_path / "out"), "--solver-cmd", solver, "--timeout", limit]
    assert main(argv) == 0
    assert "goal-2341: solved cost=50" in capsys.readouterr().out


# A solver that runs `prodplan solve`, then edits the plan file it wrote.
_EDITING_SOLVER = """\
import subprocess
import sys
from pathlib import Path

domain, problem, plan = sys.argv[1:]
subprocess.run(
    [sys.executable, "-m", "prodplan.cli", "solve", "--domain", domain,
     "--problem", problem, "--plan-out", plan],
    check=True,
)
lines = Path(plan).read_text().splitlines(keepends=True)
"""
_COSTLESS_SOLVER = _EDITING_SOLVER + """\
Path(plan).write_text("".join(l for l in lines if not l.startswith("; cost")))
"""
_SWAPPING_SOLVER = _EDITING_SOLVER + """\
Path(plan).write_text("".join([lines[1], lines[0], *lines[2:]]))
"""


def test_pipeline_fills_in_a_cost_the_solver_left_out(
    demo_files, tmp_path, capsys, child_pythonpath
):
    model_path, goal_path = demo_files
    script = tmp_path / "costless.py"
    script.write_text(_COSTLESS_SOLVER)
    out = tmp_path / "out"
    solver = f"{sys.executable} {script} {{domain}} {{problem}} {{plan}}"
    args = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    assert main(args + ["--out", str(out), "--solver-cmd", solver]) == 0
    assert "goal-2341: solved cost=50" in capsys.readouterr().out
    solver_plan = (out / "solver" / "goal-2341" / "plan.txt").read_text()
    assert "; cost" not in solver_plan
    plan = parse_plan((out / "plan-goal-2341.txt").read_text())
    assert plan.cost == 50 and len(plan.steps) == 5
    (record,) = load_integrated_model(out / "integrated.json").operations_definitions
    assert record.total_cost == 50


def test_pipeline_refuses_an_invalid_external_plan(
    demo_files, tmp_path, capsys, child_pythonpath
):
    model_path, goal_path = demo_files
    script = tmp_path / "swapping.py"
    script.write_text(_SWAPPING_SOLVER)
    out = tmp_path / "out"
    solver = f"{sys.executable} {script} {{domain}} {{problem}} {{plan}}"
    args = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    assert main(args + ["--out", str(out), "--solver-cmd", solver]) == 1
    assert "error: step 0: preconditions of 'moveshuttle " in capsys.readouterr().err
    assert (out / "solver" / "goal-2341" / "plan.txt").exists()
    assert not (out / "plan-goal-2341.txt").exists()
    assert not (out / "integrated.json").exists()


def test_pipeline_refuses_two_goals_with_one_id(demo_files, tmp_path, capsys):
    model_path, _ = demo_files
    model = build_demo_model()
    goals = generate_permutation_goals(model)
    paths = []
    for name, goal in (("a", goals[0]), ("b", goals[5])):
        paths += ["--goal", str(tmp_path / f"{name}.json")]
        save_goal_model(dataclasses.replace(goal, id="same"), tmp_path / f"{name}.json")
    out = tmp_path / "out"
    argv = ["pipeline", "--model", str(model_path), *paths, "--out", str(out)]
    assert main(argv + ["--use-emitted"]) == 1
    assert "goal id 'same' names 2 goals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("emit", [[], ["--emit-pddl"]])
def test_pipeline_refuses_a_goal_id_outside_out(
    demo_files, tmp_path, capsys, child_pythonpath, emit
):
    model_path, _ = demo_files
    goal = goal_to_dict(demo_goal_2341())
    goal["id"] = "../../escaped"
    goal_path = tmp_path / "escape.json"
    goal_path.write_text(json.dumps(goal))
    out = tmp_path / "deep" / "er" / "out"
    solver = (
        f"{sys.executable} -m prodplan.cli solve "
        "--domain {domain} --problem {problem} --plan-out {plan}"
    )
    before = sorted(tmp_path.rglob("*"))
    argv = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    assert main(argv + ["--out", str(out), "--solver-cmd", solver, *emit]) == 1
    assert "cannot name a file" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_pipeline_refuses_two_shuttles_sent_to_one_pu(demo_files, tmp_path, capsys):
    model_path, _ = demo_files
    (first, pu), (second, _), *rest = demo_goal_2341().shuttle_locations
    goal = GoalSpec(id="crowded", shuttle_locations=((first, pu), (second, pu), *rest))
    goal_path = tmp_path / "crowded.json"
    save_goal_model(goal, goal_path)
    out = tmp_path / "out"
    argv = ["pipeline", "--model", str(model_path), "--goal", str(goal_path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: 1 validation error(s): 2 shuttles target {pu!r}: {first!r}, {second!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["2147483648", "2147483647.5", "4e18", "1e19"])
def test_validate_reports_a_duration_above_the_cost_bound(demo_files, tmp_path, capsys, value):
    text = demo_files[0].read_text()
    assert text.count('"value": 10.0') == 1
    model_path = tmp_path / "long.json"
    model_path.write_text(text.replace('"value": 10.0', '"value": 2147483647'))
    assert main(["validate", "--model", str(model_path)]) == 0
    model_path.write_text(text.replace('"value": 10.0', f'"value": {value}'))
    capsys.readouterr()
    assert main(["validate", "--model", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err == "[bad-duration] MoveShuttle: duration must be at most 2147483647 s\n"


def test_solve_refuses_a_cost_above_the_bound(tmp_path, capsys):
    domain = tmp_path / "domain.pddl"
    problem = tmp_path / "problem.pddl"
    domain.write_text(
        "(define (domain m) (:requirements :action-costs) (:types T)"
        " (:predicates (Up ?x - T)) (:functions (total-cost))"
        " (:action Raise :parameters (?x - T)"
        "   :effect (and (Up ?x) (increase (total-cost) 2147483648))))"
    )
    problem.write_text(
        "(define (problem p) (:domain m) (:objects a - T) (:init) (:goal (Up a))"
        " (:metric minimize (total-cost)))"
    )
    assert main(["solve", "--domain", str(domain), "--problem", str(problem)]) == 1
    assert capsys.readouterr().err == (
        "error: (increase (total-cost) 2147483648): "
        "an action's cost must be from 0 to 2147483647\n"
    )


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
def test_validate_reports_a_duration_that_is_not_finite(demo_files, tmp_path, capsys, value):
    text = demo_files[0].read_text()
    assert text.count('"value": 10.0') == 1
    model_path = tmp_path / "endless.json"
    model_path.write_text(text.replace('"value": 10.0', f'"value": {value}'))
    assert main(["validate", "--model", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err == "[bad-duration] MoveShuttle: duration must be a finite number of seconds\n"


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
        "heuristicMs",
        "expanded",
    }
    assert all(row["status"] == "solved" for row in rows)
    assert all(int(row["planCostSeconds"]) % 10 == 0 for row in rows)


@pytest.mark.parametrize("mode", ["optimal", "greedy"])
def test_permutations_ground_the_model_once(demo_files, tmp_path, constructions, mode):
    argv = ["permutations", "--model", str(demo_files[0]), "--out", str(tmp_path / "out")]
    assert main(argv + ["--mode", mode]) == 0
    assert len(constructions) == 1


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


@pytest.mark.parametrize("workers", ["0", "1"])
def test_permutations_parallel_zero_or_one_plans_serially(
    demo_files, tmp_path, monkeypatch, capsys, workers
):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a serial sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    model_path, _ = demo_files
    argv = ["permutations", "--model", str(model_path), "--out", str(tmp_path)]
    assert main(argv + ["--parallel", workers]) == 0
    assert "23/23 goals solved" in capsys.readouterr().out


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


def test_parallel_permutations_report_an_invalid_plan(demo_files, tmp_path, capsys):
    # every demo goal starts with Shuttle-01 on PU-03, so this first step is blocked
    solver = tmp_path / "blocked.sh"
    step = "(MoveShuttle E_Shuttle-02 E_PositioningUnit-01 E_PositioningUnit-03)"
    solver.write_text(f'#!/bin/sh\necho "{step}" > "$1"\n')
    solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
    out = tmp_path / "out"
    argv = ["permutations", "--model", str(demo_files[0]), "--out", str(out), "--parallel", "2"]
    assert main(argv + ["--solver-cmd", f"{solver} {{plan}}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 0: preconditions of 'moveshuttle e_shuttle-02 ")
    assert not (out / "integrated.json").exists()


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


@pytest.mark.parametrize("flag", ["--timeout", "--node-limit", "--parallel"])
def test_negative_limits_are_usage_errors(flag, capsys):
    if flag == "--parallel":
        argv = ["permutations", "--model", "m.json", "--out", "out"]
    else:
        argv = ["solve", "--domain", "d.pddl", "--problem", "p.pddl"]
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, "-1"])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["5,x", "", " , "])
def test_bad_sizes_are_a_usage_error(sizes, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--sizes", sizes])
    assert err.value.code == 2
    assert f"argument --sizes: expected comma-separated integers, got {sizes!r}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("command", ["bench", "solve"])
def test_heuristic_with_greedy_mode_is_a_usage_error(command, capsys):
    argv = [command, "--mode", "greedy", "--heuristic", "blind"]
    if command == "solve":
        argv += ["--domain", "d.pddl", "--problem", "p.pddl"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "argument --heuristic: not allowed with --mode greedy" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, heuristic",
    [([], None), (["--heuristic", "blind"], "blind"), (["--mode", "greedy"], None)],
)
def test_heuristic_reaches_solve_only_when_given(monkeypatch, extra, heuristic):
    real = search.solve
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("heuristic"))
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "solve", spy)
    assert main(["bench", "--sizes", "5"] + extra) == 0
    assert seen == [heuristic]


@pytest.mark.parametrize("mode", ["optimal", "greedy"])
def test_node_limit_zero_means_no_cap(monkeypatch, tmp_path, mode):
    real = search.solve
    caps = []

    def spy(*args, **kwargs):
        caps.append(kwargs["node_limit"])
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "solve", spy)
    argv = ["bench", "--sizes", "5", "--mode", mode, "--node-limit", "0"]
    assert main(argv + ["--csv", str(tmp_path / "bench.csv")]) == 0
    assert caps == [0]


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "5", "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["size"] == "5" and row["shuttles"] == "3"
    assert row["status"] == "solved"
    assert row["mode"] == "optimal"
    assert int(row["steps"]) > 0
    assert float(row["heuristicMs"]) == 0.0  # A* builds no tables

    greedy_csv = tmp_path / "greedy.csv"
    assert (
        main(["bench", "--sizes", "5", "--mode", "greedy", "--csv", str(greedy_csv)])
        == 0
    )
    with open(greedy_csv, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["status"] == "solved" and row["mode"] == "greedy"
    assert 0 < float(row["heuristicMs"]) <= float(row["wallTimeMs"])


def test_a_closed_stdout_ends_quietly(child_pythonpath, monkeypatch):
    # unbuffered, so each line is written when printed and the ones after
    # the first meet the closed pipe
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    command = ["bench", "--sizes", "9,9,9", "--mode", "greedy"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "prodplan.cli", *command],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline().startswith("size-9 ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.stderr.close()


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
