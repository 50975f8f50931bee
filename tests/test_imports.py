"""What importing prodplan loads, checked in fresh interpreters.

``import prodplan`` resolves its public names lazily, and the CLI
imports the model side only in the subcommands that use it, so the
``prodplan solve`` child of an external-solver run loads only the
parse, ground and search modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import prodplan


def _run(code: str):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(statement: str) -> set[str]:
    return set(_run(f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))"))


def test_import_prodplan_loads_no_submodule(child_pythonpath):
    loaded = _loaded_after("import prodplan")
    assert sorted(m for m in loaded if m.startswith("prodplan.")) == []


def test_cli_loads_only_the_solve_path(child_pythonpath):
    loaded = _loaded_after("import prodplan.cli")
    unused_by_solve = {
        "prodplan.demo",
        "prodplan.model",
        "prodplan.model_io",
        "prodplan.operations",
        "prodplan.transform",
        "prodplan.planner.external",
        "prodplan.planner.patterns",
        "concurrent.futures",
        "csv",
    }
    assert sorted(loaded & unused_by_solve) == []
    assert {"prodplan.pddl", "prodplan.planner.grounding", "prodplan.planner.search"} <= loaded


def test_operations_loads_no_search_code(child_pythonpath):
    loaded = _loaded_after("import prodplan.operations")
    assert sorted(m for m in loaded if m.startswith("prodplan.planner")) == []
    assert "concurrent.futures" not in loaded


def test_commands_that_never_search_never_build_the_kernel(tmp_path, child_pythonpath):
    from prodplan import build_demo_model, save_production_model

    model = tmp_path / "demo.json"
    save_production_model(build_demo_model(), model)
    cache = tmp_path / "cache"
    code = (
        "import json, sys\n"
        "from prodplan.cli import main\n"
        f"main(['validate', '--model', {str(model)!r}])\n"
        f"main(['gen-layout', '--pus', '5', '--out', {str(tmp_path / 'ring.json')!r}])\n"
        "print(json.dumps(list(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, XDG_CACHE_HOME=str(cache)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "prodplan.planner._kernel" not in loaded
    assert list(cache.rglob("_kernel-*.so")) == []


# Every submodule is imported before any public name is looked up: a
# submodule named like a public name would then shadow it on the package.
_RESOLVE_AFTER_SUBMODULES = """
import importlib, inspect, json, pkgutil
import prodplan
for info in pkgutil.walk_packages(prodplan.__path__, "prodplan."):
    importlib.import_module(info.name)
wrong = []
for name in prodplan.__all__:
    defined = getattr(importlib.import_module("prodplan." + prodplan._EXPORTS[name]), name)
    scope = {}
    exec(f"from prodplan import {name}", scope)
    for how, value in (("getattr", getattr(prodplan, name)), ("from", scope[name])):
        if inspect.ismodule(value) or value is not defined:
            wrong.append(f"{how} {name}: {value!r}")
star = {}
exec("from prodplan import *", star)
print(json.dumps({
    "wrong": wrong,
    "star_missing": sorted(set(prodplan.__all__) - set(star)),
    "dir_missing": sorted(set(prodplan.__all__) - set(dir(prodplan))),
}))
"""


def test_public_names_resolve_whatever_was_imported_first(child_pythonpath):
    result = _run(_RESOLVE_AFTER_SUBMODULES)
    assert result == {"wrong": [], "star_missing": [], "dir_missing": []}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prodplan.no_such_name  # noqa: B018
    assert not hasattr(prodplan, "no_such_name")
