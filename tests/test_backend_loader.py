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
