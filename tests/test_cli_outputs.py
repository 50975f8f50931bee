"""Every file the CLI writes for a fixed set of runs, pinned by one digest.

The runs are ``pipeline`` on goal-2341 (plain, ``--emit-pddl`` and
``--use-emitted``) and ``permutations`` on the demo (serial and
``--parallel 2`` with ``--csv``), each in both modes. The digest covers
each run's printed lines, with wall times and the output directory
masked, every file under its output directory and its CSV rows without
the ``wallTimeMs`` and ``heuristicMs`` columns. It must be the same on
every available core, so a change that moves any output file shows here.
"""

from __future__ import annotations

import csv
import hashlib
import re

import pytest

from prodplan.cli import main
from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.model_io import save_goal_model, save_production_model
from prodplan.planner import available_backends

FILES_DIGEST = "20d766e69f703d49f21ce4b85caf07ae3b627ee9cf0ddc7588a119456a79ab5f"

_TIMES = ("wallTimeMs", "heuristicMs")


def _runs(model, goal):
    """(label, argv without --out) pairs."""
    runs = []
    for mode in ("optimal", "greedy"):
        pipeline = ["pipeline", "--model", model, "--goal", goal, "--mode", mode]
        runs += [
            (f"pipeline {mode}", pipeline),
            (f"pipeline {mode} emit", [*pipeline, "--emit-pddl"]),
            (f"pipeline {mode} use-emitted", [*pipeline, "--use-emitted"]),
        ]
        permutations = ["permutations", "--model", model, "--mode", mode]
        runs += [
            (f"permutations {mode}", permutations),
            (f"permutations {mode} parallel", [*permutations, "--parallel", "2"]),
        ]
    return runs


def _csv_rows(path) -> list[list[tuple[str, str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            [(k, v) for k, v in row.items() if k not in _TIMES] for row in csv.DictReader(handle)
        ]


def _digest(tmp_path, backend, capsys) -> str:
    model, goal = tmp_path / "model.json", tmp_path / "goal.json"
    save_production_model(build_demo_model(), model)
    save_goal_model(demo_goal_2341(), goal)
    digest = hashlib.sha256()
    for n, (label, argv) in enumerate(_runs(str(model), str(goal))):
        out, rows = tmp_path / f"run-{n}", tmp_path / f"rows-{n}.csv"
        argv = [*argv, "--out", str(out), "--backend", backend]
        if argv[0] == "permutations":
            argv += ["--csv", str(rows)]
        assert main(argv) == 0, label
        log = re.sub(r"wall=\d+ms", "wall=?ms", capsys.readouterr().out)
        digest.update(repr((label, log.replace(str(out), "<out>"))).encode("utf-8"))
        for path in sorted(out.rglob("*")):
            if path.is_file():
                name = path.relative_to(out).as_posix()
                digest.update(repr((label, name, path.read_bytes())).encode("utf-8"))
        if rows.exists():
            digest.update(repr((label, _csv_rows(rows))).encode("utf-8"))
    return digest.hexdigest()


def test_csv_rows_keep_every_column_but_the_times(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("size,wallTimeMs,status,heuristicMs\n5,1.5,solved,0.2\n", encoding="utf-8")
    assert _csv_rows(path) == [[("size", "5"), ("status", "solved")]]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_cli_output_files_are_pinned(tmp_path, backend, capsys):
    if backend not in available_backends():
        pytest.skip("needs the compiled backend")
    assert _digest(tmp_path, backend, capsys) == FILES_DIGEST
