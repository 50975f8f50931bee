"""Compiled search backend: the C++ kernel ``_kernel.cpp`` through ctypes.

The kernel source ships with the package. On first import it is
compiled with the interpreter's C++ compiler (``sysconfig``'s ``CXX``)
into a per-user cache directory, ``$XDG_CACHE_HOME/prodplan`` (default
``~/.cache/prodplan``), as a shared library named by the SHA-256 of the
source and the compile flags; later imports load it from there. ``LIB``
is None when there is no compiler or no writable cache, and the planner
then uses the pure core; ``FAILURE`` then says why the build or load
failed.

``astar`` and ``greedy`` take the arguments of the ``_pysearch``
functions of the same names and return the same tuples. ``invariants``
and ``tables`` are the two stages of ``patterns.pattern_tables`` that the
kernel runs for the compiled core; they take the arguments of
``patterns._invariants`` and ``patterns._tables`` and return the same
values. Every index and cost passed to the kernel is checked here first.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sys
from array import array
from ctypes import POINTER, byref, c_double, c_int, c_int64, c_uint64
from itertools import accumulate
from math import prod
from pathlib import Path

from ._pysearch import H_MAX

NAME = "compiled"

SOURCE = Path(__file__).with_name("_kernel.cpp")
FLAGS = ("-O3", "-std=c++11", "-shared", "-fPIC")
# Compiling takes about 4 s with g++ 12 -O3 on a 2-core x86-64 machine.
_BUILD_TIMEOUT_S = 600

_INTS = POINTER(c_int)
_COSTS = POINTER(c_int64)
_FLUENTS = [_INTS, c_int]
_ACTIONS = [c_int, _INTS, _INTS, _COSTS]
_PATTERNS = [c_int, _INTS, _INTS, c_int, _INTS, _COSTS]
_LIMITS = [c_double, c_int64]
_PLAN = [POINTER(_INTS), POINTER(c_int64)]
_WORDS = POINTER(c_uint64)
_VARIABLES = [c_int, _INTS, _INTS]
# the largest table of one pattern the kernel numbers with its ints
_TABLE_LIMIT = 2**31 - 1


def _build() -> Path:
    """Compile the kernel into the user cache unless it is already there.

    Raises OSError when the compiler or a writable cache is missing, or
    when the compiler fails or runs past its time limit.
    """
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "prodplan"
    target = cache / f"_kernel-{digest}.so"
    if target.exists():
        return target

    # Only a build needs these; a cache hit skips their import.
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cache.mkdir(parents=True, exist_ok=True)
    compiler = shlex.split(sysconfig.get_config_var("CXX") or "c++")
    # A unique temporary name and an atomic rename: concurrent importers
    # never load a half-written library.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [*compiler, *FLAGS, str(SOURCE), "-o", tmp],
            check=True,
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {SOURCE.name} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Libraries of older kernel sources or flags, and of the former Cython
    # core, are never loaded again. A process that still maps one keeps it.
    for stale in (*cache.glob("_kernel-*.so"), *cache.glob("_speedups-*.so")):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


def _open():
    lib = ctypes.CDLL(str(_build()))
    lib.astar.argtypes = [
        c_int, *_FLUENTS, *_FLUENTS, *_FLUENTS, *_ACTIONS, c_int, *_LIMITS, _COSTS, *_PLAN,
    ]
    lib.astar.restype = c_int
    lib.greedy.argtypes = [
        c_int, *_FLUENTS, *_FLUENTS, *_FLUENTS, *_ACTIONS, *_PATTERNS, *_FLUENTS, *_ACTIONS,
        *_PATTERNS, *_LIMITS, _COSTS, *_PLAN, *_PLAN,
    ]
    lib.greedy.restype = c_int
    lib.release.argtypes = [_INTS]
    lib.release.restype = None
    lib.pattern_invariants.argtypes = [c_int, *_VARIABLES, *_FLUENTS, *_ACTIONS, _WORDS, _WORDS]
    lib.pattern_invariants.restype = c_int
    lib.pattern_tables.argtypes = [
        c_int, *_ACTIONS, *_VARIABLES, c_int, _INTS, _WORDS, _INTS, _INTS, c_int, _INTS, _COSTS,
    ]
    lib.pattern_tables.restype = c_int
    return lib


FAILURE = None
try:
    LIB = _open()
except OSError as exc:
    LIB = None
    FAILURE = str(exc)


def _check(n_fluents, fluents):
    # the kernel indexes its bit sets with these, unchecked
    if fluents and not (0 <= min(fluents) and max(fluents) < n_fluents):
        raise ValueError(f"fluent index outside 0..{n_fluents - 1}")


def _array(ctype, values):
    # the ctypes view keeps the array alive while the call uses it
    buffer = array("q" if ctype is c_int64 else "i", values)
    return (ctype * len(buffer)).from_buffer(buffer)


def _fluents(n_fluents, fluents):
    fluents = list(fluents)
    _check(n_fluents, fluents)
    return _array(c_int, fluents), len(fluents)


def _actions(n_fluents, actions):
    """One action set as the kernel's flat arrays (see ``_kernel.cpp``)."""
    start, flat, costs = [0], [], []
    for action in actions:
        for part in (action.pre_pos, action.pre_neg, action.add, action.delete):
            flat.extend(part)
            start.append(len(flat))
        costs.append(action.cost)
    if costs and not (0 <= min(costs) and max(costs) < 2**63):
        # costs travel as int64
        raise ValueError("action costs must be from 0 to 2**63 - 1")
    _check(n_fluents, flat)
    return len(costs), _array(c_int, start), _array(c_int, flat), _array(c_int64, costs)


def _patterns(n_fluents, tables):
    """One side's ``patterns.PatternTables`` as the kernel's arrays (see
    ``_kernel.cpp``), after checking every index the kernel will form."""
    var_of, value_of = list(tables.var_of), list(tables.value_of)
    if len(var_of) != n_fluents or len(value_of) != n_fluents:
        raise ValueError("pattern tables cover a different number of fluents")
    top = [0] * tables.n_vars  # the largest value of each variable
    for v, i in zip(var_of, value_of):
        if not (-1 <= v < tables.n_vars and i >= 0):
            raise ValueError("pattern variable or value out of range")
        if v >= 0:
            top[v] = max(top[v], i)
    layout = [x for pattern in tables.patterns for x in pattern]
    for offset, a, stride_a, b, stride_b in tables.patterns:
        if not (0 <= a < tables.n_vars and 0 <= b < tables.n_vars):
            raise ValueError("pattern variable out of range")
        last = offset + top[a] * stride_a + top[b] * stride_b
        if min(offset, stride_a, stride_b) < 0 or last >= len(tables.table):
            raise ValueError("pattern reaches past its table")
    return (
        tables.n_vars,
        _array(c_int, var_of),
        _array(c_int, value_of),
        len(tables.patterns),
        _array(c_int, layout),
        _array(c_int64, tables.table),
    )


def _words(n_fluents) -> int:
    """The 64-bit words of one of the kernel's fluent bit sets."""
    return (n_fluents + 63) // 64 or 1


def _ragged(lists):
    """Lists of ints as the kernel's (start, items) arrays: list k is
    items[start[k] .. start[k+1])."""
    items = [x for xs in lists for x in xs]
    return _array(c_int, [0, *accumulate(map(len, lists))]), _array(c_int, items)


def _variables(n_fluents, variables, lowest=0):
    """Variables as the kernel's (count, start, values) arrays. A value
    is a fluent or, from ``lowest`` -1 on, no fluent."""
    values = [f for fs in variables for f in fs]
    if values and not (lowest <= min(values) and max(values) < n_fluents):
        raise ValueError(f"variable value outside {lowest}..{n_fluents - 1}")
    return (len(variables), *_ragged(variables))


def _rows(buffer, keys, words) -> dict[int, int]:
    """Rows of ``words`` words each from the kernel, as int bit masks by key."""
    raw, size = bytes(buffer), 8 * words
    return {
        key: int.from_bytes(raw[k * size : (k + 1) * size], sys.byteorder)
        for k, key in enumerate(keys)
    }


def invariants(n_fluents, variables, init, actions):
    """``patterns._invariants`` in the kernel: the same
    (implies, implied_by) dicts of int bit masks."""
    members = [f for values in variables for f in values]
    if len(set(members)) != len(members):
        raise ValueError("a fluent is a value of two variables")
    needed = sorted({f for a in actions for f in a.pre_neg})
    words = _words(n_fluents)
    implies = (c_uint64 * (len(members) * words))()
    implied_by = (c_uint64 * (len(needed) * words))()
    status = LIB.pattern_invariants(
        n_fluents,
        *_variables(n_fluents, variables),
        *_fluents(n_fluents, init),
        *_actions(n_fluents, actions),
        implies,
        implied_by,
    )
    if status:
        raise MemoryError("out of memory finding the pattern invariants")
    return _rows(implies, members, words), _rows(implied_by, needed, words)


def tables(n_fluents, actions, values, implied_by, patterns, goal):
    """``patterns._tables`` in the kernel: the same list of entries."""
    sizes = [len(fs) for fs in values]
    false_fluents = sorted(implied_by)
    _check(n_fluents, false_fluents)
    if any(implied_by[q] < 0 or implied_by[q] >> n_fluents for q in false_fluents):
        raise ValueError("implying values outside the fluents")
    size = 8 * _words(n_fluents)
    rows = b"".join(implied_by[q].to_bytes(size, sys.byteorder) for q in false_fluents)
    for v, chosen in goal.items():
        if not (0 <= v < len(values) and all(0 <= i < sizes[v] for i in chosen)):
            raise ValueError("target variable or value out of range")
    targets = [goal.get(v, range(n)) for v, n in enumerate(sizes)]
    pairs, total = [], 0
    for pattern in patterns:
        if not (1 <= len(pattern) <= 2 and all(0 <= v < len(values) for v in pattern)):
            raise ValueError("pattern variable out of range")
        entries = prod(sizes[v] for v in pattern)
        if entries > _TABLE_LIMIT:
            raise ValueError("pattern table too large")
        pairs += (*pattern, -1)[:2]
        total += entries
    table = array("q", bytes(8 * total))
    status = LIB.pattern_tables(
        n_fluents,
        *_actions(n_fluents, actions),
        *_variables(n_fluents, values, lowest=-1),
        len(false_fluents),
        _array(c_int, false_fluents),
        (c_uint64 * (len(rows) // 8)).from_buffer_copy(rows),
        *_ragged(targets),
        len(patterns),
        _array(c_int, pairs),
        (c_int64 * total).from_buffer(table),
    )
    if status:
        raise MemoryError("out of memory building the pattern tables")
    return table.tolist()


def _take(plan, length) -> list[int]:
    try:
        return plan[: length.value]
    finally:
        LIB.release(plan)


def astar(
    n_fluents,
    init,
    goal_pos,
    goal_neg,
    actions,
    heuristic=H_MAX,
    time_limit=300.0,
    node_limit=2_000_000,
):
    """Returns (status, action_indices, cost, expanded, generated)."""
    counts = (c_int64 * 3)()
    plan, plan_len = _INTS(), c_int64()
    status = LIB.astar(
        n_fluents,
        *_fluents(n_fluents, init),
        *_fluents(n_fluents, goal_pos),
        *_fluents(n_fluents, goal_neg),
        *_actions(n_fluents, actions),
        heuristic,
        time_limit or 0.0,
        node_limit or 0,
        counts,
        byref(plan),
        byref(plan_len),
    )
    expanded, generated, cost = counts
    return status, _take(plan, plan_len), cost, expanded, generated


def greedy(
    n_fluents,
    init,
    goal_pos,
    goal_neg,
    actions,
    tables,
    backward=None,
    time_limit=300.0,
    node_limit=2_000_000,
):
    """Returns (status, forward_action_indices, backward_action_indices,
    cost, expanded, generated), as ``_pysearch.greedy``."""
    if backward is None:
        # a NULL action set tells the kernel there is no backward side
        b_side = (None, 0, 0, None, None, None, 0, None, None, 0, None, None)
    else:
        init_b, b_actions, b_tables = backward
        b_side = (
            *_fluents(n_fluents, init_b),
            *_actions(n_fluents, b_actions),
            *_patterns(n_fluents, b_tables),
        )
    counts = (c_int64 * 3)()
    fwd, fwd_len = _INTS(), c_int64()
    bwd, bwd_len = _INTS(), c_int64()
    status = LIB.greedy(
        n_fluents,
        *_fluents(n_fluents, init),
        *_fluents(n_fluents, goal_pos),
        *_fluents(n_fluents, goal_neg),
        *_actions(n_fluents, actions),
        *_patterns(n_fluents, tables),
        *b_side,
        time_limit or 0.0,
        node_limit or 0,
        counts,
        byref(fwd),
        byref(fwd_len),
        byref(bwd),
        byref(bwd_len),
    )
    expanded, generated, cost = counts
    return status, _take(fwd, fwd_len), _take(bwd, bwd_len), cost, expanded, generated
