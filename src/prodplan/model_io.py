"""JSON load/save for models, goals and integrated models, plus the
parametric layout and goal generators used by the benchmarks.

The dataclasses are the wire format. ``model.json`` holds a
``ProductionModel``, ``goal.json`` a ``GoalSpec`` and ``integrated.json``
an ``IntegratedModel`` (the model plus one ``OperationsRecord`` per goal).
One reader and one writer, driven by each class's fields, convert them
all by one rule:

* a key is its field's name in camelCase, except that ``tags`` travel as
  one comma-separated ``description`` (``"pddl:implicit, pddl:pre"``);
* tuples are JSON lists and nested dataclasses JSON objects, except the
  pair lists ``shuttle_locations`` and ``bindings``, which are JSON objects;
* a field that is ``None`` is left out;
* a key may be missing when its field has a default.

Four fields disagree with their dataclass on whether the key may be
missing (``_WIRE_DEFAULTS``): ``classIds``, ``duration`` (read as 0 s)
and ``bindings`` are optional, and ``totalCost`` is required. Numbers
are read where their field is a number (an int also where it is a
float), and a segment parameter's value may be any JSON scalar, read as
its text (``true``/``false`` for booleans).

Messages name the element at fault. An element that holds lists or
objects, and a goal or record document, names itself by its id. Any
other element names the element it sits in. An item of the model's
top-level lists is named by that list's key while its own id is missing
or wrong.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .errors import InvalidParameter, ParseError, ValidationError
from .model import (
    DRILLING_ROBOT_CLASS,
    IMPLICIT_TAG,
    OCCUPIED_PROPERTY,
    POSITIONING_UNIT_CLASS,
    PU_CONNECTION,
    REACH_CONNECTION,
    SHUTTLE_CLASS,
    SHUTTLE_CONNECTION,
    TRACK_CONNECTION,
    TRACK_ELEMENT_CLASS,
    Duration,
    Equipment,
    EquipmentClass,
    EquipmentClassProperty,
    EquipmentProperty,
    EquipmentSegmentSpecification,
    MaterialConstraint,
    MaterialLot,
    MaterialProperty,
    MaterialSegmentSpecification,
    ProcessSegment,
    ProductionModel,
    PropertyConstraint,
    ResourceNetwork,
    ResourceNetworkConnection,
    SegmentParameter,
    build_routing_graph,
    validate_model,
)

MOVE_SEGMENT = "MoveShuttle"
DRILL_SEGMENT = "DrillBoard"
HAS_HOLE_PROPERTY = "HasHole"

MOVE_DURATION_S = 10
DRILL_DURATION_S = 30


# ---------------------------------------------------------------------------
# Goal / operations record types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoalSpec:
    """Desired end state: shuttle placements plus property assignments."""

    id: str
    shuttle_locations: tuple[tuple[str, str], ...] = ()
    properties_true: tuple[tuple[str, str], ...] = ()
    properties_false: tuple[tuple[str, str], ...] = ()
    material_properties_true: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Operation:
    sequence_index: int
    segment_id: str
    bindings: tuple[tuple[str, str], ...]
    cost: int


@dataclass(frozen=True)
class OperationsRecord:
    goal_id: str
    solvable: bool
    operations: tuple[Operation, ...] = ()
    total_cost: int = 0


@dataclass(frozen=True)
class IntegratedModel:
    model: ProductionModel
    operations_definitions: tuple[OperationsRecord, ...] = ()


# ---------------------------------------------------------------------------
# dict <-> dataclass conversion
# ---------------------------------------------------------------------------

_REQUIRED = object()

# Where the wire and the dataclass disagree on whether a key may be left
# out: the value a missing key reads as, or _REQUIRED.
_WIRE_DEFAULTS = {
    "class_ids": (),
    "duration": Duration(0.0),
    "bindings": (),
    "total_cost": _REQUIRED,
}

# The pair lists that travel as JSON objects, and what their values must be.
_OBJECT_PAIRS = {
    "shuttle_locations": "shuttleLocations values must be PU ids",
    "bindings": "binding values must be element ids",
}

# A document's name, used in messages until its own id is read.
_DOCUMENT_NAMES = {
    ProductionModel: "model",
    IntegratedModel: "integrated",
    GoalSpec: "goal",
    OperationsRecord: "operationsRecord",
}


def _camel(name: str) -> str:
    first, *rest = name.split("_")
    return first + "".join(word.capitalize() for word in rest)


def _check(value, kinds: tuple, key: str, where: str):
    """``value`` if it is one of ``kinds``; an int passes for a float."""
    if float in kinds and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kinds) or (bool not in kinds and isinstance(value, bool)):
        names = "/".join(k.__name__ for k in kinds)
        raise ParseError(f"{where}: key {key!r} must be {names}")
    return value


def _scalar(kinds: tuple):
    return lambda value, key, where: _check(value, kinds, key, where)


def _read_tags(value, key, where) -> tuple[str, ...]:
    return tuple(t.strip() for t in _check(value, (str,), key, where).split(",") if t.strip())


def _read_parameter_value(value, key, where) -> str:
    value = _check(value, (str, bool, int, float), key, where)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _read_coordinates(value, key, where) -> tuple[float, float, float] | None:
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 3:
        raise ParseError(f"{where}: coordinates must be a [x, y, z] list")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: coordinates must be numbers") from None


def _read_strings(value, key, where) -> tuple[str, ...]:
    value = _check(value, (list,), key, where)
    if not all(isinstance(v, str) for v in value):
        raise ParseError(f"{where}: {key} must be strings")
    return tuple(value)


def _read_pairs(value, key, where) -> tuple[tuple[str, str], ...]:
    out = []
    for entry in _check(value, (list,), key, where):
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(i, str) for i in entry)):
            raise ParseError(f"{where}: {key} entries must be [id, id] pairs")
        out.append(tuple(entry))
    return tuple(out)


def _object_pairs(message: str):
    def read(value, key, where) -> tuple[tuple[str, str], ...]:
        value = _check(value, (dict,), key, where)
        if not all(isinstance(v, str) for v in value.values()):
            raise ParseError(f"{where}: {message}")
        return tuple(value.items())

    return read


def _nested(cls):
    return lambda value, key, where: _read(cls, _check(value, (dict,), key, where), where)


def _elements(cls, by_key: bool):
    def read(value, key, where) -> tuple:
        items = _check(value, (list,), key, where)
        return tuple(_read(cls, item, key if by_key else where) for item in items)

    return read


def _codec(cls, name: str, hint, has_id: bool):
    """(key, read, write, holds) of one field: its wire key, the reader
    ``read(value, key, where)``, the writer (None writes the value as it
    is) and whether its wire value is a JSON list or object."""
    if name == "tags":
        return "description", _read_tags, ", ".join, False
    if cls is SegmentParameter and name == "value":
        return "value", _read_parameter_value, None, False
    key = _camel(name)
    if name in _OBJECT_PAIRS:
        return key, _object_pairs(_OBJECT_PAIRS[name]), dict, True
    args = typing.get_args(hint)
    if type(None) in args:  # X | None: a None is left out
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if hint in (str, bool, int, float):
        return key, _scalar((hint,)), float if hint is float else None, False
    if dataclasses.is_dataclass(hint):
        return key, _nested(hint), _write, True
    if args[-1] is not Ellipsis:  # a fixed-length tuple: the coordinates
        return key, _read_coordinates, list, True
    if dataclasses.is_dataclass(args[0]):
        return key, _elements(args[0], not has_id), lambda v: [_write(x) for x in v], True
    if args[0] is str:
        return key, _read_strings, list, True
    return key, _read_pairs, lambda v: [list(p) for p in v], True


@functools.cache
def _shape(cls):
    """The fields of ``cls`` as (name, key, read, write, default), and
    whether its elements name themselves by their id (their first field)."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    has_id = fields[0].name in ("id", "goal_id")
    out = []
    holds = False
    for f in fields:
        key, read, write, is_container = _codec(cls, f.name, hints[f.name], has_id)
        default = _REQUIRED if f.default is dataclasses.MISSING else f.default
        out.append((f.name, key, read, write, _WIRE_DEFAULTS.get(f.name, default)))
        holds = holds or is_container
    return tuple(out), has_id and holds


def _read(cls, data, where: str):
    """The ``cls`` that ``data`` encodes; ``where`` names the element that
    ``data`` sits in, for messages."""
    where = _DOCUMENT_NAMES.get(cls, where)
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object")
    fields, names_itself = _shape(cls)
    values = {}
    for name, key, read, _, default in fields:
        if key in data:
            values[name] = read(data[key], key, where)
        elif default is _REQUIRED:
            raise ParseError(f"{where}: missing key {key!r}")
        else:
            values[name] = default
        if names_itself:  # the id was the first field
            where, names_itself = values[name], False
    return cls(**values)


def _write(obj) -> dict:
    out = {}
    for name, key, _, write, _ in _shape(type(obj))[0]:
        value = getattr(obj, name)
        if value is not None:
            out[key] = value if write is None else write(value)
    return out


def _read_document(cls, data):
    name = _DOCUMENT_NAMES[cls]
    if not isinstance(data, dict):
        raise ParseError(f"{name} document must be a JSON object")
    return _read(cls, data, name)


def model_from_dict(data: dict) -> ProductionModel:
    return _read_document(ProductionModel, data)


def model_to_dict(model: ProductionModel) -> dict:
    return _write(model)


def goal_from_dict(data: dict) -> GoalSpec:
    goal = _read_document(GoalSpec, data)
    # the id names the goal's plan, problem and solver files
    if goal.id in ("", ".", "..") or "/" in goal.id or "\\" in goal.id:
        raise ParseError(f"goal id {goal.id!r} cannot name a file")
    return goal


def goal_to_dict(goal: GoalSpec) -> dict:
    return _write(goal)


def record_from_dict(data: dict) -> OperationsRecord:
    # no document check: a record that is not an object gets the message it
    # gets inside integrated.json
    return _read(OperationsRecord, data, "operationsRecord")


def record_to_dict(record: OperationsRecord) -> dict:
    return _write(record)


def integrated_from_dict(data: dict) -> IntegratedModel:
    return _read_document(IntegratedModel, data)


def integrated_to_dict(im: IntegratedModel) -> dict:
    return _write(im)


# ---------------------------------------------------------------------------
# File-level API
# ---------------------------------------------------------------------------


def dumps_canonical(data: dict) -> str:
    """The one serialization used everywhere, so re-serialization is stable.

    The text is exactly ``json.dumps(data, indent=2) + "\\n"``, but it is
    written here: with any ``indent``, CPython's ``json`` leaves its C
    encoder for a pure-Python one that runs a generator per nesting level,
    and took about twice as long as this writer on the demo's 125 KB
    integrated model. Strings and keys still go through json's C escaper.
    """
    out: list[str] = []
    _write_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` as indented JSON; ``newline`` is "\\n" plus the
    indentation of the line ``value`` starts on. Types are tested in
    ``json``'s order, so subclasses (bool of int) encode as it does."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("[" + inner)
        for i, item in enumerate(value):
            if i:
                out.append(separator)
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("{" + inner)
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(separator)
            out.append(_key_text(key) + ": ")
            _write_json(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc


def load_production_model(path) -> ProductionModel:
    """Load and validate a model file; raises ParseError or ValidationError."""
    model = model_from_dict(_read_json(path))
    diagnostics = validate_model(model)
    if diagnostics:
        raise ValidationError(diagnostics)
    return model


def save_production_model(model: ProductionModel, path) -> None:
    Path(path).write_text(dumps_canonical(model_to_dict(model)), encoding="utf-8")


def check_goal(goal: GoalSpec, model: ProductionModel) -> list[str]:
    """References that do not resolve against the model, as messages."""
    problems = []
    class_property_ids = {
        p.id for c in model.equipment_classes for p in c.properties
    }
    shuttles_to: dict[str, list[str]] = {}
    for shuttle, pu in goal.shuttle_locations:
        equip = model.equipment_by_id.get(shuttle)
        if equip is None or SHUTTLE_CLASS not in equip.class_ids:
            problems.append(f"{shuttle!r} is not a known shuttle")
        target = model.equipment_by_id.get(pu)
        if target is None or POSITIONING_UNIT_CLASS not in target.class_ids:
            problems.append(f"{pu!r} is not a known positioning unit")
        shuttles_to.setdefault(pu, []).append(shuttle)
    # one PU holds one shuttle, so such a goal is unsolvable; search would
    # only prove it by exhausting the plant
    for pu, shuttles in shuttles_to.items():
        if len(shuttles) > 1:
            names = ", ".join(map(repr, shuttles))
            problems.append(f"{len(shuttles)} shuttles target {pu!r}: {names}")
    for eid, cpid in goal.properties_true + goal.properties_false:
        equip = model.equipment_by_id.get(eid)
        if equip is None:
            problems.append(f"{eid!r} is not known equipment")
        elif not any(p.implements_class_property_id == cpid for p in equip.properties):
            problems.append(f"{eid!r} implements no class property {cpid!r}")
        if cpid not in class_property_ids:
            problems.append(f"{cpid!r} is not a known class property")
    for mid, pid in goal.material_properties_true:
        if mid not in model.lots_by_id:
            problems.append(f"{mid!r} is not a known material lot")
        elif pid not in {p.id for p in model.lots_by_id[mid].properties}:
            problems.append(f"lot {mid!r} has no property {pid!r}")
    return problems


def load_goal_model(path, model: ProductionModel) -> GoalSpec:
    goal = goal_from_dict(_read_json(path))
    problems = check_goal(goal, model)
    if problems:
        raise ValidationError(problems)
    return goal


def save_goal_model(goal: GoalSpec, path) -> None:
    Path(path).write_text(dumps_canonical(goal_to_dict(goal)), encoding="utf-8")


def save_integrated_model(im: IntegratedModel, path) -> None:
    Path(path).write_text(dumps_canonical(integrated_to_dict(im)), encoding="utf-8")


def load_integrated_model(path) -> IntegratedModel:
    return integrated_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Parametric layout generator (stand-in for the proprietary layout import)
# ---------------------------------------------------------------------------


def shuttle_count_for(n_pus: int, load_factor: float) -> int:
    """Half-up rounding of load_factor * n_pus (10 shuttles at 15 PUs, 65%)."""
    exact = Decimal(str(load_factor)) * n_pus
    return int(exact.to_integral_value(rounding=ROUND_HALF_UP))


def track_layout(
    pu_coords,
    tracks,
    shuttle_pus,
    curves=(),
    shuttle_property: str | None = None,
    drilling: bool = False,
) -> ProductionModel:
    """Build a track plant, the one encoding of the demo and ring layouts.

    PU i (numbered from 1) sits on TrackElement-i at ``pu_coords[i - 1]``.
    ``curves`` name PU-free track elements, and ``tracks`` are directed
    (from, to) pairs of PU numbers or curve names. Shuttle s is parked on
    PU ``shuttle_pus[s - 1]``, which is then occupied. With
    ``shuttle_property`` every shuttle implements a switchable boolean
    property of that name, off. With ``drilling`` a drilling robot reaches
    PU 2 and every shuttle carries one board.
    """

    def te_id(key) -> str:  # a PU number, zero-padded, or a curve name
        return f"TrackElement-{key:0>2}"

    switchable = (EquipmentClassProperty(id=shuttle_property),) if shuttle_property else ()
    classes = [
        EquipmentClass(
            id=POSITIONING_UNIT_CLASS,
            properties=(
                EquipmentClassProperty(id=OCCUPIED_PROPERTY, tags=(IMPLICIT_TAG,)),
            ),
        ),
        EquipmentClass(id=SHUTTLE_CLASS, properties=switchable),
        EquipmentClass(id=TRACK_ELEMENT_CLASS),
    ]

    equipment = []
    connections = []
    occupied = set(shuttle_pus)
    for i, coord in enumerate(pu_coords, 1):
        pu, te = f"PositioningUnit-{i:02d}", te_id(i)
        equipment.append(
            Equipment(
                id=pu,
                class_ids=(POSITIONING_UNIT_CLASS,),
                properties=(
                    EquipmentProperty(
                        id=f"{OCCUPIED_PROPERTY}-{i:02d}",
                        implements_class_property_id=OCCUPIED_PROPERTY,
                        value=i in occupied,
                    ),
                ),
            )
        )
        equipment.append(Equipment(id=te, class_ids=(TRACK_ELEMENT_CLASS,)))
        connections.append(ResourceNetworkConnection(PU_CONNECTION, pu, te, coord))
    for curve in curves:
        equipment.append(Equipment(id=te_id(curve), class_ids=(TRACK_ELEMENT_CLASS,)))
    for from_key, to_key in tracks:
        connections.append(
            ResourceNetworkConnection(TRACK_CONNECTION, te_id(from_key), te_id(to_key))
        )

    for s, pu in enumerate(shuttle_pus, 1):
        sid = f"Shuttle-{s:02d}"
        props = (
            (
                EquipmentProperty(
                    id=f"{shuttle_property}-{s:02d}",
                    implements_class_property_id=shuttle_property,
                    value=False,
                ),
            )
            if shuttle_property
            else ()
        )
        equipment.append(Equipment(id=sid, class_ids=(SHUTTLE_CLASS,), properties=props))
        connections.append(
            ResourceNetworkConnection(SHUTTLE_CONNECTION, sid, te_id(pu), pu_coords[pu - 1])
        )

    lots = []
    segments = [standard_move_segment()]
    if drilling:
        robot = f"{DRILLING_ROBOT_CLASS}-01"
        classes.append(EquipmentClass(id=DRILLING_ROBOT_CLASS))
        equipment.append(Equipment(id=robot, class_ids=(DRILLING_ROBOT_CLASS,)))
        connections.append(
            ResourceNetworkConnection(REACH_CONNECTION, robot, "PositioningUnit-02")
        )
        for s in range(1, len(shuttle_pus) + 1):
            lots.append(
                MaterialLot(
                    id=f"Board-{s:02d}",
                    mounted_on_equipment_id=f"Shuttle-{s:02d}",
                    properties=(MaterialProperty(id=HAS_HOLE_PROPERTY, value=False),),
                )
            )
        segments.append(standard_drill_segment())

    return ProductionModel(
        equipment_classes=tuple(classes),
        equipment=tuple(equipment),
        material_lots=tuple(lots),
        process_segments=tuple(segments),
        resource_networks=(
            ResourceNetwork(id="TransportNetwork", connections=tuple(connections)),
        ),
    )


def generate_ring_layout(
    n_pus: int, load_factor: float, with_robot_and_boards: bool = False
) -> ProductionModel:
    """Build a ring layout: a directed main loop of n_pus - 1 PUs plus one
    siding PU bridging the first two loop PUs.

    Shuttles (half-up rounded share of the PUs) are seeded on the first
    loop PUs. With ``with_robot_and_boards`` a drilling robot reaches the
    second loop PU and every shuttle carries one board.
    """
    if n_pus < 3:
        raise InvalidParameter(f"need at least 3 PUs, got {n_pus}")
    if not 0.0 < load_factor < 1.0:
        raise InvalidParameter(f"load factor must be in (0, 1), got {load_factor}")
    n_loop = n_pus - 1
    n_shuttles = shuttle_count_for(n_pus, load_factor)
    if n_shuttles > n_loop:
        raise InvalidParameter(
            f"load factor {load_factor} seats {n_shuttles} shuttles on "
            f"{n_loop} loop PUs"
        )

    def coord(i: int) -> tuple[float, float, float]:
        if i == n_pus:  # siding PU sits outside the loop, between PU 1 and 2
            angle = math.pi / n_loop
            radius = 13.0
        else:
            angle = 2.0 * math.pi * (i - 1) / n_loop
            radius = 10.0
        return (round(radius * math.cos(angle), 6), round(radius * math.sin(angle), 6), 0.0)

    loop = [(i, i % n_loop + 1) for i in range(1, n_loop + 1)]
    return track_layout(
        [coord(i) for i in range(1, n_pus + 1)],
        loop + [(1, n_pus), (n_pus, 2)],
        range(1, n_shuttles + 1),
        drilling=with_robot_and_boards,
    )


def standard_move_segment() -> ProcessSegment:
    occupied = OCCUPIED_PROPERTY
    return ProcessSegment(
        id=MOVE_SEGMENT,
        duration=Duration(value=MOVE_DURATION_S, unit="s"),
        parameters=(SegmentParameter(id="movement", value="true"),),
        equipment_specs=(
            EquipmentSegmentSpecification(id="SHUTTLE", equipment_class_id=SHUTTLE_CLASS),
            EquipmentSegmentSpecification(
                id="FROM",
                equipment_class_id=POSITIONING_UNIT_CLASS,
                property_constraints=(
                    PropertyConstraint(occupied, "pddl:pre", True),
                    PropertyConstraint(occupied, "pddl:post", False),
                ),
            ),
            EquipmentSegmentSpecification(
                id="TO",
                equipment_class_id=POSITIONING_UNIT_CLASS,
                property_constraints=(
                    PropertyConstraint(occupied, "pddl:pre", False),
                    PropertyConstraint(occupied, "pddl:post", True),
                ),
            ),
        ),
    )


def standard_drill_segment() -> ProcessSegment:
    return ProcessSegment(
        id=DRILL_SEGMENT,
        duration=Duration(value=DRILL_DURATION_S, unit="s"),
        parameters=(SegmentParameter(id="drilling", value="true"),),
        equipment_specs=(
            EquipmentSegmentSpecification(id="ROBOT", equipment_class_id=DRILLING_ROBOT_CLASS),
            EquipmentSegmentSpecification(id="SHUTTLE", equipment_class_id=SHUTTLE_CLASS),
            EquipmentSegmentSpecification(id="PU", equipment_class_id=POSITIONING_UNIT_CLASS),
        ),
        material_specs=(
            MaterialSegmentSpecification(
                id="BOARD",
                property_constraints=(
                    MaterialConstraint(HAS_HOLE_PROPERTY, "pddl:pre", False),
                    MaterialConstraint(HAS_HOLE_PROPERTY, "pddl:post", True),
                ),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Goal generators
# ---------------------------------------------------------------------------


def _initial_slots(model: ProductionModel) -> tuple[list[str], list[str]]:
    """Shuttles in id order and the PUs they initially occupy (the slots)."""
    graph = build_routing_graph(model)
    shuttles = sorted(graph.shuttle_at)
    return shuttles, [graph.shuttle_at[s] for s in shuttles]


def permutation_label(order: tuple[int, ...]) -> str:
    digits = [str(i + 1) for i in order]
    return "".join(digits) if len(order) <= 9 else "-".join(digits)


def generate_permutation_goals(model: ProductionModel) -> list[GoalSpec]:
    """One goal per non-identity reordering of the shuttles over their
    initially occupied PUs; k shuttles yield k! - 1 goals.

    Label digit i names the shuttle that ends up in slot i (slot order is
    the initial shuttle-id order).
    """
    shuttles, slots = _initial_slots(model)
    k = len(shuttles)
    goals = []
    for perm in itertools.permutations(range(k)):
        if perm == tuple(range(k)):
            continue
        goals.append(
            GoalSpec(
                id=f"goal-{permutation_label(perm)}",
                shuttle_locations=tuple(
                    (shuttles[perm[i]], slots[i]) for i in range(k)
                ),
            )
        )
    return goals


def generate_reverse_goal(model: ProductionModel) -> GoalSpec:
    """Send shuttle i to the slot of shuttle k+1-i (the scalability task)."""
    shuttles, slots = _initial_slots(model)
    k = len(shuttles)
    return GoalSpec(
        id="goal-reverse",
        shuttle_locations=tuple(
            (shuttles[i], slots[k - 1 - i]) for i in range(k)
        ),
    )


def generate_drill_goal(model: ProductionModel) -> GoalSpec:
    """Require a hole in every board (the transferability task)."""
    return GoalSpec(
        id="goal-drill-all",
        material_properties_true=tuple(
            (lot.id, HAS_HOLE_PROPERTY)
            for lot in model.material_lots
            if any(p.id == HAS_HOLE_PROPERTY for p in lot.properties)
        ),
    )
