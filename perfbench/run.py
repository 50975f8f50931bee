#!/usr/bin/env python3
"""prodplan benchmark: time every pipeline layer and check every plan.

Usage, from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

The workloads are demo-reorder, ring-greedy, pure-search and flat-files
(see perfbench/README.md). Each measures for RUN_SECONDS (30 s) in one
worker process (perfbench/worker.py) that imports prodplan from
``src/``; ``all``, the default, runs them one after another. ``--seconds``
is accepted only with that value, so that the standard benchmark
invocation ``--seconds <run_seconds>`` works and every run measures for
the same time. Before any timing, one throw-away import builds the
compiled search core into ``.perfbench-out/cache`` if it is not there
yet; set-up is then timed in fresh processes, and the reference optima
are computed here, outside the worker. The last line of standard output
is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
With ``--workload all`` its metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

from check import REFERENCE_STATE_LIMIT, CheckFailed, Plant, Reference, state_count
from worker import RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("demo-reorder", "ring-greedy", "pure-search", "flat-files")

END_TO_END = {
    "setup_s": "s",
    "goals_per_s": "goals/s",
    "slowest_goal_s": "s",
    "plan_cost_s": "prod_s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_ms": "ms",
    "model_io.load_ms": "ms",
    "transform.derive_ms": "ms",
    "pddl.text_ms": "ms",
    "pddl.bytes": "bytes",
    "grounding.ms": "ms",
    "grounding.calls": "count",
    "grounding.fluents": "count",
    "grounding.actions": "count",
    "search.ms": "ms",
    "search.expanded_per_s": "states/s",
    "search.expanded": "count",
    "search.generated": "count",
    "search.steps_per_expanded": "ratio",
    "validate.ms": "ms",
    "merge.ms": "ms",
    "external.ms": "ms",
    "external.calls": "count",
    "trace.overhead_pct": "%",
}

# Fresh processes that only set up, timed on top of the measured one.
SETUP_SAMPLES = 8
# The first import in a checkout compiles the search core (about 10 s).
BUILD_TIMEOUT_S = 850
# Per workload: the measuring time, plus the set-up processes, the
# reference search, the checks and a last pass that runs slow.
RUN_DEADLINE_S = RUN_SECONDS + 140


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(OUT / "cache")
    return env


def _python(args: list[str], env: dict, timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{shlex.join(args[:3])} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{shlex.join(args[:3])} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def warm_core(env: dict) -> str:
    """Import prodplan once, which builds the compiled core into the cache
    when it is missing; returns the default backend's name."""
    code = "import prodplan; print(prodplan.backend_name())"
    return _python(["-c", code], env, BUILD_TIMEOUT_S)


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "none"
    cxx = shlex.split(sysconfig.get_config_var("CXX") or "c++")
    try:
        proc = subprocess.run([*cxx, "--version"], capture_output=True, text=True, timeout=30)
        compiler = (proc.stdout.splitlines() or ["unknown"])[0]
    except (OSError, subprocess.SubprocessError):
        pass
    return (f"{cpu}; nproc {len(os.sched_getaffinity(0))}; "
            f"Python {platform.python_version()}; {compiler}")


def reference_optima(run_dir: Path, goals: list[dict]) -> dict:
    """The uniform-cost optimum of each goal whose model has at most
    REFERENCE_STATE_LIMIT states (None for the others), keyed by goal
    file, with the digests of the two files it was computed from. It runs
    in this process so that its tables stay out of the worker's
    ``peak_rss_mb``."""
    references: dict[str, Reference | None] = {}
    table = {}
    for goal in goals:
        model_bytes = (run_dir / goal["model"]).read_bytes()
        goal_bytes = (run_dir / goal["goal"]).read_bytes()
        if goal["model"] not in references:
            plant = Plant(json.loads(model_bytes))
            affordable = state_count(plant) <= REFERENCE_STATE_LIMIT
            references[goal["model"]] = Reference(plant) if affordable else None
        entry = {
            "model_sha256": hashlib.sha256(model_bytes).hexdigest(),
            "goal_sha256": hashlib.sha256(goal_bytes).hexdigest(),
            "optimum": None,
        }
        reference = references[goal["model"]]
        if reference is not None:
            try:
                entry["optimum"] = reference.optimum(json.loads(goal_bytes))
            except CheckFailed as exc:
                entry["error"] = str(exc)
        table[goal["goal"]] = entry
    return table


def run_workload(name: str, seed: int, trace: int, env: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_root = OUT / "runs" / f"{name}-{seed}-{os.getpid()}"
    optima = run_root / "optima.json"
    worker = [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed)]
    setup, imports = [], []
    try:
        for i in range(SETUP_SAMPLES + 1):
            measured = i == SETUP_SAMPLES
            extra = ["--run-dir", str(run_root / f"p{i}")]
            if measured:
                extra += ["--trace", str(trace), "--optima", str(optima), "--trace-out",
                          str(OUT / f"trace-{name}-seed{seed}.json")]
            else:
                extra.append("--setup-only")
            started = time.monotonic()
            result = json.loads(
                _python(worker + extra, env, deadline - time.monotonic()))
            setup.append(result["ready"] - started)
            imports.append(result["import_ms"])
            if i == 0:
                table = reference_optima(run_root / "p0", result["goals"])
                optima.write_text(json.dumps(table), encoding="utf-8")
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    result["setup_s"] = statistics.median(setup)
    result.setdefault("per_layer", {})["setup.import_ms"] = statistics.median(imports)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        source, units = result["per_layer"], PER_LAYER
    else:
        source, units = result, END_TO_END
    return {name: {"value": source[name], "unit": unit} for name, unit in units.items()}


def report(name: str, result: dict, trace: int) -> None:
    print(f"workload {name}: {result['attempted']} goals attempted, "
          f"{result['failed']} failed, {result['passes']} untraced passes")
    for message in result["failures"]:
        print(f"  failed: {message}")
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<28} {result[metric]:>14.6g} {unit}")
    if trace:
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<28} {value:>14.6g} {PER_LAYER.get(metric, 'ms')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the goals within a pass (default 0)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help=f"measuring time per workload; only {RUN_SECONDS} is accepted")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: trace every second pass and report per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        ap.error(f"--seconds: the run length is fixed at {RUN_SECONDS} s per workload")

    if not (ROOT / "src" / "prodplan" / "__init__.py").is_file():
        print(f"error: no prodplan source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        backend = warm_core(env)
        print(f"backend: {backend} (pure-search always uses pure)")
        print(f"machine: {machine()}")
        results = {
            name: run_workload(name, args.seed, args.trace, env)
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        report(name, result, args.trace)
    if args.trace:
        print(f"spans written to {OUT.relative_to(ROOT)}/trace-<workload>-seed{args.seed}.json")

    metrics = {}
    for name, result in results.items():
        for metric, entry in metrics_of(result, args.trace).items():
            metrics[metric if len(results) == 1 else f"{name}/{metric}"] = entry
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
