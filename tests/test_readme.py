"""The README's code runs: the Quickstart, then every Python block in order."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from prodplan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_code_runs_and_lifts_the_plan_back(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    quickstart = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    (shell,) = re.findall(r"```sh\n(.*?)```", quickstart, re.DOTALL)
    (writer,) = re.findall(r'^python3 -c "(.*?)"$', shell, re.DOTALL | re.MULTILINE)
    (pipeline,) = re.findall(r"^prodplan (pipeline .*)$", shell, re.MULTILINE)
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert blocks

    monkeypatch.chdir(tmp_path)
    exec(writer, {})
    assert main(shlex.split(pipeline)) == 0
    for block in blocks:
        exec(block, {})
    assert "goal-2341: solved cost=50 steps=5" in capsys.readouterr().out
    merged = (tmp_path / "run" / "merged.json").read_bytes()
    assert merged == (tmp_path / "run" / "integrated.json").read_bytes()
