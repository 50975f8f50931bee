"""Embedded forward-search planner over ground STRIPS tasks.

Two interchangeable backends: a pure-Python one (``_pysearch``) and a
compiled C++ kernel (``_kernel``), built into a per-user cache when it is
first imported and loaded through ctypes. Each exports ``astar`` and
``greedy`` and names itself in ``NAME``. The compiled one is picked when
it loads; without a compiler or a writable cache the pure core is used.
The kernel is imported only when a backend is first resolved, so a
command that never searches never builds it.
"""

from __future__ import annotations

from ..errors import BackendUnavailable
from . import _pysearch
from .grounding import GroundAction, GroundTask, ground


def _compiled():
    """The compiled core, or None when it cannot be built or loaded."""
    from . import _kernel

    return _kernel if _kernel.LIB is not None else None


def backend_name() -> str:
    return backend_module().NAME


def available_backends() -> tuple[str, ...]:
    return ("pure", "compiled") if _compiled() is not None else ("pure",)


def backend_module(name: str | None = None):
    """Resolve a backend by name; None picks the best available."""
    if name in (None, "auto"):
        return _compiled() or _pysearch
    if name == "pure":
        return _pysearch
    if name == "compiled":
        compiled = _compiled()
        if compiled is None:
            from ._kernel import FAILURE

            raise BackendUnavailable(f"compiled backend is not available: {FAILURE}")
        return compiled
    raise ValueError(f"unknown backend {name!r}")


from .search import SearchResult, plan, solve, validate_plan  # noqa: E402

__all__ = [
    "GroundAction",
    "GroundTask",
    "SearchResult",
    "available_backends",
    "backend_module",
    "backend_name",
    "ground",
    "plan",
    "solve",
    "validate_plan",
]
