"""Run one benchmark workload in this process and print its result.

Started by ``run.py``, which sets ``PYTHONPATH`` and the compiled-core
cache. The process imports prodplan, writes the workload's model and
goal files, then runs whole passes over the goals for ``RUN_SECONDS``.
Every timed call into prodplan goes through ``Tracer.call`` and is named
after the layer it belongs to. After each pass the outputs are checked by
``check.py``, outside the timed region, against the reference optima in
the ``--optima`` file. The last line of standard output is one JSON
object with the per-pass figures.

``--setup-only`` stops once the input files are written and reports
when that happened and which files hold each goal, so that ``run.py``
can time set-up in fresh processes and compute the optima from those
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

from check import CheckFailed, Plant, lower_bound, replay
from spans import Tracer, layer_totals

# Measuring time of one run of a workload; BENCHMARK.json's run_seconds.
RUN_SECONDS = 30
LOAD_FACTOR = 0.65
# A search or solver process that runs past this fails its goal instead of
# holding the run past its deadline.
GOAL_TIME_LIMIT_S = 60.0

# How a goal travels from its files to a plan:
#   emitted  -- write the domain and problem as PDDL text and parse them
#               back (`pipeline --use-emitted`), then ground and search
#   external -- write the PDDL text and solve it in a child process
#               through solve_external; ground in-process to validate
#   direct   -- ground the derived domain and problem, then search


@dataclasses.dataclass(frozen=True)
class Goal:
    id: str
    model: str  # file names inside the run directory
    goal: str
    route: str
    mode: str = "optimal"  # "optimal" (A*/hmax) or "greedy" (two frontiers)
    backend: str | None = None  # None: the default backend


def _save(pp, run_dir: Path, model, goals, model_name, **options) -> list[Goal]:
    pp.save_production_model(model, run_dir / model_name)
    out = []
    for goal in goals:
        pp.save_goal_model(goal, run_dir / f"{goal.id}.json")
        out.append(Goal(goal.id, model_name, f"{goal.id}.json", **options))
    return out


def demo_goals(pp, run_dir: Path, route: str) -> list[Goal]:
    model = pp.build_demo_model()
    goals = pp.generate_permutation_goals(model)
    return _save(pp, run_dir, model, goals, "demo.json", route=route)


def ring_goal(pp, run_dir: Path, size: int, mode: str, backend=None, drill=False) -> Goal:
    model = pp.generate_ring_layout(size, LOAD_FACTOR, with_robot_and_boards=drill)
    goal = pp.generate_drill_goal(model) if drill else pp.generate_reverse_goal(model)
    name = f"ring{size}-{'drill' if drill else 'reverse'}"
    goal = dataclasses.replace(goal, id=name)
    return _save(pp, run_dir, model, [goal], f"{name}-model.json",
                 route="direct", mode=mode, backend=backend)[0]


WORKLOADS = {
    "demo-reorder": lambda pp, d: demo_goals(pp, d, "emitted"),
    "ring-greedy": lambda pp, d: [ring_goal(pp, d, n, "greedy") for n in (9, 11, 13)],
    "pure-search": lambda pp, d: [
        ring_goal(pp, d, 9, "optimal", backend="pure"),
        ring_goal(pp, d, 11, "greedy", backend="pure"),
        ring_goal(pp, d, 7, "optimal", backend="pure", drill=True),
    ],
    "flat-files": lambda pp, d: demo_goals(pp, d, "external"),
}


def _text_bytes(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _task_sizes(task) -> dict:
    return {"fluents": len(task.fluents), "actions": len(task.actions)}


def _search_sizes(result) -> dict:
    steps = len(result.plan.steps) if result.plan is not None else 0
    return {"expanded": result.expanded, "generated": result.generated, "steps": steps}


class Pass:
    """One pass over the goals. Goals that share a model file form a batch
    and share its model load, domain derivation, merge and save."""

    def __init__(self, pp, tracer: Tracer, run_dir: Path, goals: list[Goal]):
        self.pp = pp
        self.tr = tracer
        self.run_dir = run_dir
        self.batches: dict[str, list[Goal]] = {}
        for goal in goals:
            self.batches.setdefault(goal.model, []).append(goal)
        self.solver = (
            f"{shlex.quote(sys.executable)} -m prodplan.cli solve --domain {{domain}} "
            f"--problem {{problem}} --plan-out {{plan}} --timeout {GOAL_TIME_LIMIT_S:g}"
        )

    def run(self) -> tuple[dict[str, float], list[dict]]:
        """Per-goal latency in seconds, with each batch's shared work split
        evenly over its goals, and one outcome per goal."""
        latency: dict[str, float] = {}
        outcomes = []
        for model_name, goals in self.batches.items():
            started = time.perf_counter()
            for goal in goals:
                latency[goal.id] = 0.0
            try:
                outcomes += self._batch(model_name, goals, latency)
            except self.pp.ProdplanError as exc:
                outcomes += [{"goal": g, "error": f"{model_name}: {exc}"} for g in goals]
            shared = time.perf_counter() - started - sum(latency[g.id] for g in goals)
            for goal in goals:
                latency[goal.id] += shared / len(goals)
        return latency, outcomes

    def _batch(self, model_name: str, goals: list[Goal], latency: dict) -> list[dict]:
        pp, call = self.pp, self.tr.call
        route = goals[0].route
        self.tr.goal = None
        model = call("model_io.load_production_model",
                     lambda: pp.load_production_model(self.run_dir / model_name))
        domain, report = call("transform.derive_domain", lambda: pp.derive_domain(model))
        domain_text = None
        if route != "direct":
            domain_text = call("pddl.write_domain", lambda: pp.write_domain(domain), _text_bytes)
        if route == "emitted":
            domain = call("pddl.parse_domain", lambda: pp.parse_domain(domain_text))
        outcomes = []
        for goal in goals:
            self.tr.goal = goal.id
            started = time.perf_counter()
            with self.tr.span("bench.goal"):
                outcomes.append(self._goal(goal, model, domain, domain_text, report))
            latency[goal.id] = time.perf_counter() - started
        self.tr.goal = None
        records = [o["record"] for o in outcomes if "record" in o]
        integrated = call("merge.merge", lambda: pp.merge(model, records))
        out = self.run_dir / f"integrated-{model_name}"
        call("merge.save_integrated_model", lambda: pp.save_integrated_model(integrated, out))
        for outcome in outcomes:
            outcome["integrated"] = out
        return outcomes

    def _goal(self, goal: Goal, model, domain, domain_text, report) -> dict:
        pp, call = self.pp, self.tr.call
        outcome = {"goal": goal}
        try:
            spec = call("model_io.load_goal_model",
                        lambda: pp.load_goal_model(self.run_dir / goal.goal, model))
            problem = call("transform.derive_problem",
                           lambda: pp.derive_problem(model, spec, report))
            if goal.route != "direct":
                problem_text = call("pddl.write_problem",
                                    lambda: pp.write_problem(problem), _text_bytes)
            if goal.route == "emitted":
                problem = call("pddl.parse_problem", lambda: pp.parse_problem(problem_text))
            task = call("grounding.ground", lambda: pp.ground(domain, problem), _task_sizes)
            if goal.route == "external":
                result = call("external.solve_external", lambda: pp.solve_external(
                    domain_text, problem_text, self.solver,
                    self.run_dir / "solver" / goal.id, time_limit=GOAL_TIME_LIMIT_S))
            elif goal.mode == "greedy":
                reverse = call("transform.derive_reverse_problem",
                               lambda: pp.derive_reverse_problem(model, spec, report))
                reverse_task = call("grounding.ground",
                                    lambda: pp.ground(domain, reverse), _task_sizes)
                result = call("search.solve_bidirectional", lambda: pp.solve_bidirectional(
                    task, reverse_task, time_limit=GOAL_TIME_LIMIT_S,
                    backend=goal.backend), _search_sizes)
            else:
                result = call("search.solve", lambda: pp.solve(
                    task, mode="optimal", heuristic="hmax",
                    time_limit=GOAL_TIME_LIMIT_S, backend=goal.backend), _search_sizes)
            outcome["result"] = result
            if not result.solved:
                outcome["error"] = f"{goal.id}: {result.status}"
                return outcome
            outcome["validated"] = call("validate.validate_plan",
                                        lambda: pp.validate_plan(task, result.plan))
            plan_text = call("pddl.write_plan", lambda: pp.write_plan(result.plan), _text_bytes)
            outcome["reparsed"] = call("pddl.parse_plan", lambda: pp.parse_plan(plan_text))
            outcome["record"] = call("merge.plan_to_operations",
                                     lambda: pp.plan_to_operations(result.plan, report, goal.id))
        except pp.ProdplanError as exc:
            outcome["error"] = f"{goal.id}: {type(exc).__name__}: {exc}"
        return outcome


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """The checks of check.py on one pass's outputs, run outside the timed
    region. The uniform-cost optima come from ``optima``, computed by
    run.py in its own process, so that the reference search's tables do
    not count in this process's peak resident set. Each entry names the
    digests of the model and goal files it was computed from."""

    def __init__(self, pp, run_dir: Path, optima: dict[str, dict]):
        self.pp = pp
        self.run_dir = run_dir
        self.optima = optima
        self.plants: dict[str, Plant] = {}
        self.goals: dict[str, dict] = {}

    def _read(self, name: str) -> dict:
        return json.loads((self.run_dir / name).read_text(encoding="utf-8"))

    def plant(self, model_name: str) -> Plant:
        if model_name not in self.plants:
            self.plants[model_name] = Plant(self._read(model_name))
        return self.plants[model_name]

    def optimum(self, goal: Goal) -> int | None:
        """The reference optimum of ``goal``, or None when its model is
        too large for the reference search."""
        entry = self.optima.get(goal.goal)
        if entry is None:
            raise CheckFailed(f"{goal.id}: no reference entry for {goal.goal}")
        if (entry["model_sha256"] != sha256_of(self.run_dir / goal.model)
                or entry["goal_sha256"] != sha256_of(self.run_dir / goal.goal)):
            raise CheckFailed(f"{goal.id}: the reference was computed on other input files")
        if entry.get("error"):
            raise CheckFailed(entry["error"])
        return entry["optimum"]

    def check_pass(self, outcomes: list[dict]) -> list[str]:
        """One message per failed goal; an empty list is a clean pass."""
        failures = [o["error"] for o in outcomes if "error" in o]
        by_file: dict[Path, list[dict]] = {}
        for outcome in outcomes:
            if "error" not in outcome:
                by_file.setdefault(outcome["integrated"], []).append(outcome)
        for path, group in by_file.items():
            saved = json.loads(path.read_text(encoding="utf-8"))
            records = {r["goalId"]: r for r in saved["operationsDefinitions"]}
            reloaded = [r.goal_id for r in
                        self.pp.load_integrated_model(path).operations_definitions]
            for outcome in group:
                goal = outcome["goal"]
                try:
                    if reloaded.count(goal.id) != 1 or len(reloaded) != len(group):
                        raise CheckFailed(f"{goal.id}: {path.name} reloads with "
                                          f"records {reloaded}, not one per goal")
                    self._check_goal(goal, outcome, records[goal.id])
                except CheckFailed as exc:
                    failures.append(str(exc))
        return failures

    def _check_goal(self, goal: Goal, outcome: dict, record: dict) -> None:
        plan = outcome["result"].plan
        if goal.goal not in self.goals:
            self.goals[goal.goal] = self._read(goal.goal)
        spec = self.goals[goal.goal]
        plant = self.plant(goal.model)
        cost = replay(plant, spec, record)
        if plan.cost != cost or outcome["validated"] != cost:
            raise CheckFailed(f"{goal.id}: stated cost {plan.cost}, "
                              f"validate_plan {outcome['validated']}, replay {cost}")
        if len(record["operations"]) != len(plan.steps):
            raise CheckFailed(f"{goal.id}: {len(plan.steps)} plan steps, "
                              f"{len(record['operations'])} operations")
        if outcome["reparsed"] != plan:
            raise CheckFailed(f"{goal.id}: parse_plan(write_plan(plan)) differs from the plan")
        bound = lower_bound(plant, spec)
        if cost < bound:
            raise CheckFailed(f"{goal.id}: cost {cost} below the lower bound {bound}")
        best = self.optimum(goal)
        if goal.mode == "optimal" and best is None:
            raise CheckFailed(f"{goal.id}: optimal goal without an affordable reference")
        if best is not None:
            if cost < best or (goal.mode == "optimal" and cost != best):
                raise CheckFailed(f"{goal.id}: cost {cost}, optimum {best}")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def typical(passes: list[dict]) -> dict[str, float]:
    """Each goal's median latency over the given passes."""
    return {goal: _median([p["latency"][goal] for p in passes])
            for goal in passes[0]["latency"]}


def per_layer(tracer: Tracer, roots: list[int]) -> dict[str, float]:
    """Per-layer figures of the traced passes, each a median over passes.
    A layer the workload never calls reads 0."""
    passes = [layer_totals(tracer.spans, root) for root in roots]

    def med(layer, key, scale=1.0):
        return _median([p[layer][key] * scale if layer in p else 0 for p in passes])

    def ratio(layer, num, den, scale=1.0):
        return _median([
            p[layer][num] * scale / p[layer][den] if layer in p and p[layer][den] else 0.0
            for p in passes
        ])

    ms = 1e-6
    return {
        "model_io.load_ms": med("model_io", "ns", ms),
        "transform.derive_ms": med("transform", "ns", ms),
        "pddl.text_ms": med("pddl", "ns", ms),
        "pddl.bytes": med("pddl", "bytes"),
        "grounding.ms": med("grounding", "ns", ms),
        "grounding.calls": med("grounding", "calls"),
        "grounding.fluents": med("grounding", "fluents"),
        "grounding.actions": med("grounding", "actions"),
        "search.ms": med("search", "ns", ms),
        "search.expanded_per_s": ratio("search", "expanded", "ns", 1e9),
        "search.expanded": med("search", "expanded"),
        "search.generated": med("search", "generated"),
        "search.steps_per_expanded": ratio("search", "steps", "expanded"),
        "validate.ms": med("validate", "ns", ms),
        "merge.ms": med("merge", "ns", ms),
        "external.ms": med("external", "ns", ms),
        "external.calls": med("external", "calls"),
        "bench.goal_self_ms": med("bench", "ns", ms),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True, type=Path)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--optima", type=Path,
                    help="JSON file of reference optima by goal file, from run.py")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    started = time.perf_counter()
    with tracer.span("setup.import"):
        import prodplan as pp
    import_ms = (time.perf_counter() - started) * 1e3
    args.run_dir.mkdir(parents=True, exist_ok=True)
    with tracer.span("setup.inputs"):
        goals = WORKLOADS[args.workload](pp, args.run_dir)
    ready = time.monotonic()
    if args.setup_only:
        files = [{"id": g.id, "model": g.model, "goal": g.goal} for g in goals]
        print(json.dumps({"ready": ready, "import_ms": import_ms, "goals": files}))
        return 0
    if args.optima is None:
        ap.error("--optima is required unless --setup-only is given")
    optima = json.loads(args.optima.read_text(encoding="utf-8"))

    random.Random(args.seed).shuffle(goals)
    one_pass = Pass(pp, tracer, args.run_dir, goals)
    checker = Checker(pp, args.run_dir, optima)
    passes, traced_roots, failures = [], [], []
    began = time.monotonic()
    while True:
        # A traced run traces every second pass; the passes between measure
        # the same work untraced, for the overhead figure.
        traced = tracer.enabled = bool(args.trace) and len(passes) % 2 == 1
        with tracer.span("bench.pass") as root:
            latency, outcomes = one_pass.run()
        tracer.enabled = False
        if traced:
            traced_roots.append(root["id"])
        failures += checker.check_pass(outcomes)
        passes.append({
            "traced": traced,
            "seconds": sum(latency.values()),
            "latency": latency,
            "goals": len(outcomes),
            "cost": sum(o["result"].cost or 0 for o in outcomes if "result" in o),
        })
        longest = max(p["seconds"] for p in passes)
        if time.monotonic() - began + longest > RUN_SECONDS and (
            traced_roots or not args.trace
        ):
            break

    untraced = [p for p in passes if not p["traced"]]
    per_goal = typical(untraced)
    rss_kib = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {
        "import_ms": import_ms,
        "ready": ready,
        "backend": pp.backend_name(),
        "attempted": sum(p["goals"] for p in passes),
        "failed": len(failures),
        "failures": failures[:5],
        "passes": len(untraced),
        "goals_per_s": len(per_goal) / sum(per_goal.values()),
        "slowest_goal_s": max(per_goal.values()),
        "plan_cost_s": float(_median([p["cost"] for p in untraced])),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    if args.trace:
        layers = per_layer(tracer, traced_roots)
        traced = typical([p for p in passes if p["traced"]])
        layers["trace.overhead_pct"] = (
            sum(traced.values()) / sum(per_goal.values()) - 1.0) * 100.0
        out["per_layer"] = layers
        if args.trace_out is not None:
            tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
