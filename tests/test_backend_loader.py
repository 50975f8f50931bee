from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from prodplan.errors import BackendUnavailable

COMPILER = shlex.split(sysconfig.get_config_var("CXX") or "c++")[0]
HAS_COMPILER = shutil.which(COMPILER) is not None
TESTS = os.path.dirname(os.path.abspath(__file__))


def _has_ubsan() -> bool:
    """Whether the compiler finds the undefined-behaviour sanitizer's
    runtime (it prints the bare name when it does not)."""
    if not HAS_COMPILER:
        return False
    proc = subprocess.run(
        [COMPILER, "-print-file-name=libubsan.so"], capture_output=True, text=True, timeout=60
    )
    return os.path.isabs(proc.stdout.strip()) and os.path.exists(proc.stdout.strip())


def _backend(env) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", "import prodplan.planner as p; print(p.backend_name())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _files(directory):
    return sorted(p for p in directory.rglob("*") if p.is_file())


def _broken_env(tmp_path, broken):
    """The environment and cache of a child that cannot build the kernel:
    no compiler on PATH, or a file where the cache directory should be."""
    env = dict(os.environ)
    cache = tmp_path / "cache"
    if broken == "no-compiler":
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        env["PATH"] = str(empty_bin)
    else:
        cache.write_text("a file where the cache directory should be")
    env["XDG_CACHE_HOME"] = str(cache)
    return env, cache


@pytest.mark.parametrize("broken", ["no-compiler", "unwritable-cache"])
def test_loader_falls_back_to_pure(tmp_path, child_pythonpath, broken):
    env, cache = _broken_env(tmp_path, broken)
    assert _backend(env) == "pure"
    if cache.is_dir():
        # a failed build leaves no partial library behind
        assert _files(cache) == []


@pytest.mark.parametrize("broken", ["no-compiler", "unwritable-cache"])
def test_asking_for_a_missing_compiled_backend_says_why(tmp_path, child_pythonpath, broken):
    env, cache = _broken_env(tmp_path, broken)
    proc = subprocess.run(
        [sys.executable, "-m", "prodplan.cli", "bench", "--sizes", "5"]
        + ["--backend", "compiled"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: compiled backend is not available: ")
    # the reason names the missing compiler or the cache it could not use
    assert (COMPILER if broken == "no-compiler" else str(cache)) in line


def test_compiled_backend_error_is_a_value_error_with_the_reason(monkeypatch):
    from prodplan.planner import _kernel, backend_module

    monkeypatch.setattr(_kernel, "LIB", None)
    monkeypatch.setattr(_kernel, "FAILURE", "no compiler here")
    with pytest.raises(BackendUnavailable, match="no compiler here") as caught:
        backend_module("compiled")
    assert isinstance(caught.value, ValueError)


@pytest.mark.skipif(not HAS_COMPILER, reason="needs the interpreter's C++ compiler")
def test_loader_builds_once_then_loads_from_cache(tmp_path, child_pythonpath):
    cache = tmp_path / "cache"
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    assert _backend(env) == "compiled"
    built = _files(cache)
    assert len(built) == 1
    assert re.fullmatch(r"_kernel-[0-9a-f]{16}\.so", built[0].name)

    # with no compiler on PATH the cached library still loads
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    env["PATH"] = str(empty_bin)
    assert _backend(env) == "compiled"
    assert _files(cache) == built


@pytest.mark.skipif(not HAS_COMPILER, reason="needs the interpreter's C++ compiler")
def test_build_removes_stale_libraries(tmp_path, child_pythonpath):
    cache = tmp_path / "cache" / "prodplan"
    cache.mkdir(parents=True)
    stale = [
        cache / "_kernel-0123456789abcdef.so",
        cache / "_speedups-0123456789abcdef.cpython-311-x86_64-linux-gnu.so",
    ]
    for path in stale:
        path.write_bytes(b"a library of an older core")
    other = cache / "notes.txt"
    other.write_text("not a kernel library")

    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert _backend(env) == "compiled"
    kept = _files(cache)
    assert other in kept and not any(path in kept for path in stale)
    (built,) = [path for path in kept if path != other]
    assert re.fullmatch(r"_kernel-[0-9a-f]{16}\.so", built.name)


@pytest.mark.skipif(not HAS_COMPILER, reason="needs the interpreter's C++ compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    from prodplan.planner._kernel import SOURCE

    compiler = shlex.split(sysconfig.get_config_var("CXX") or "c++")
    flags = ["-std=c++11", "-O2", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-c"]
    proc = subprocess.run(
        [*compiler, *flags, str(SOURCE), "-o", str(tmp_path / "kernel.o")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# Runs the table builds and the searches of each mode and heuristic
# (blind, hmax and tables, one and two frontiers) on the kernel the
# process loaded, then again on one built with the undefined-behaviour sanitizer
# into the cache directory argv[1], and prints whether they agree. Any
# undefined behaviour aborts the process.
_SANITIZED = """
import json, os, sys
sys.path.insert(0, {tests!r})
from prodplan.planner import _kernel
from prodplan.planner.patterns import pattern_tables
from prodplan.planner.search import _backward_input, solve, solve_bidirectional
from test_search import _ring_task

ring, reverse = _ring_task(9, reverse=True)
drilling = _ring_task(7, drilling=True)
init_b, r_actions = _backward_input(ring, reverse)
sides = [
    (t.fluents, sorted(t.init), t.goal_pos, t.goal_neg, t.actions) for t in (ring, drilling)
] + [(ring.fluents, init_b, sorted(ring.init), (), r_actions)]

def outcomes():
    results = [solve(t, backend="compiled") for t in (ring, drilling)]
    results.append(solve(_ring_task(5), heuristic="blind", backend="compiled"))
    results += [solve(t, mode="greedy", backend="compiled") for t in (ring, drilling)]
    results.append(solve_bidirectional(ring, reverse, backend="compiled"))
    return [pattern_tables(*side, core=_kernel) for side in sides] + [
        (r.status, r.plan, r.cost, r.expanded, r.generated) for r in results
    ]

normal = outcomes()
os.environ["XDG_CACHE_HOME"] = sys.argv[1]
_kernel.FLAGS += ("-fsanitize=undefined", "-fno-sanitize-recover=all", "-O1")
_kernel.LIB = _kernel._open()
print(json.dumps(outcomes() == normal))
"""


@pytest.mark.skipif(not _has_ubsan(), reason="needs a C++ compiler with libubsan")
def test_kernel_shows_no_undefined_behaviour(tmp_path, child_pythonpath):
    cache = tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED.format(tests=TESTS), str(cache)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "true"
    assert len(_files(cache)) == 1  # the sanitized kernel, built afresh
