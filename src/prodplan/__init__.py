"""prodplan: compile production-system models to PDDL, plan, and merge
the plans back into the model as operations data.

The pipeline: load model -> ``plan_goals``: derive domain -> derive
problem per goal -> optionally write and parse PDDL -> ``plan`` per goal:
ground, solve (embedded A*/greedy or an external solver) and validate ->
operations record per goal -> ``merge``: integrated model.

``import prodplan`` loads no submodule. Each name in ``__all__`` is
imported from the submodule named in ``_EXPORTS`` on first use (PEP 562),
so a process that only parses, grounds and searches, such as the
``prodplan solve`` child of an external-solver run, never loads the
model, transform or operations code. Importing ``prodplan.planner`` does
not build the compiled search core either: the first search or backend
query (``solve``, ``backend_name``, ``prodplan --version``) builds or
loads it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule, relative to this package, that defines it.
_EXPORTS = {
    "GoalSpec": "model_io",
    "GroundTask": "planner",
    "IntegratedModel": "model_io",
    "InvalidParameter": "errors",
    "Operation": "model_io",
    "OperationsRecord": "model_io",
    "ParseError": "errors",
    "PlanError": "errors",
    "ProductionModel": "model",
    "ProdplanError": "errors",
    "RoutingGraph": "model",
    "SearchResult": "planner",
    "TransformReport": "transform",
    "UnsupportedFeature": "errors",
    "ValidationError": "errors",
    "backend_name": "planner",
    "build_demo_model": "demo",
    "build_routing_graph": "model",
    "demo_goal_2341": "demo",
    "derive_domain": "transform",
    "derive_problem": "transform",
    "derive_reverse_problem": "transform",
    "generate_drill_goal": "model_io",
    "generate_permutation_goals": "model_io",
    "generate_reverse_goal": "model_io",
    "generate_ring_layout": "model_io",
    "ground": "planner",
    "load_goal_model": "model_io",
    "load_integrated_model": "model_io",
    "load_production_model": "model_io",
    "merge": "operations",
    "operations_to_plan": "operations",
    "parse_domain": "pddl",
    "parse_plan": "pddl",
    "parse_problem": "pddl",
    "plan": "planner",
    "plan_goals": "operations",
    "plan_to_operations": "operations",
    "save_goal_model": "model_io",
    "save_integrated_model": "model_io",
    "save_production_model": "model_io",
    "solve": "planner",
    "solve_bidirectional": "planner.search",
    "solve_external": "planner.external",
    "unsolvable_record": "operations",
    "validate_model": "model",
    "validate_plan": "planner",
    "write_domain": "pddl",
    "write_plan": "pddl",
    "write_problem": "pddl",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
