"""JSON load/save for models, goals and integrated models, plus the
parametric layout and goal generators used by the benchmarks.

Wire formats (all JSON):

* ``model.json``      -- equipmentClasses / equipment / materialLots /
                         processSegments / resourceNetworks; class-property
                         tags ride in a comma-separated ``description`` field.
* ``goal.json``       -- id / shuttleLocations / propertiesTrue /
                         propertiesFalse / materialPropertiesTrue.
* ``integrated.json`` -- model + operationsDefinitions.
"""

from __future__ import annotations

import itertools
import json
import math
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


def _want(obj, key, kind, where, default=None, required=False):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if key not in obj:
        if required:
            raise ParseError(f"{where}: missing key {key!r}")
        return default
    value = obj[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if float in kinds and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kinds) or (bool not in kinds and isinstance(value, bool)):
        names = "/".join(k.__name__ for k in kinds)
        raise ParseError(f"{where}: key {key!r} must be {names}")
    return value


def _tags_from_description(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _param_value(raw) -> str:
    if isinstance(raw, bool):
        return "true" if raw else "false"
    return str(raw)


def _coords(raw, where) -> tuple[float, float, float] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != 3:
        raise ParseError(f"{where}: coordinates must be a [x, y, z] list")
    try:
        return tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: coordinates must be numbers") from None


def model_from_dict(data: dict) -> ProductionModel:
    if not isinstance(data, dict):
        raise ParseError("model document must be a JSON object")

    classes = []
    for raw in _want(data, "equipmentClasses", list, "model", default=[]):
        cid = _want(raw, "id", str, "equipmentClasses", required=True)
        props = []
        for p in _want(raw, "properties", list, cid, default=[]):
            props.append(
                EquipmentClassProperty(
                    id=_want(p, "id", str, cid, required=True),
                    value_kind=_want(p, "valueKind", str, cid, default="boolean"),
                    tags=_tags_from_description(_want(p, "description", str, cid, default="")),
                )
            )
        classes.append(EquipmentClass(id=cid, properties=tuple(props)))

    equipment = []
    for raw in _want(data, "equipment", list, "model", default=[]):
        eid = _want(raw, "id", str, "equipment", required=True)
        props = []
        for p in _want(raw, "properties", list, eid, default=[]):
            props.append(
                EquipmentProperty(
                    id=_want(p, "id", str, eid, required=True),
                    implements_class_property_id=_want(
                        p, "implementsClassPropertyId", str, eid, required=True
                    ),
                    value=_want(p, "value", bool, eid, required=True),
                )
            )
        class_ids = _want(raw, "classIds", list, eid, default=[])
        if not all(isinstance(c, str) for c in class_ids):
            raise ParseError(f"{eid}: classIds must be strings")
        equipment.append(
            Equipment(id=eid, class_ids=tuple(class_ids), properties=tuple(props))
        )

    lots = []
    for raw in _want(data, "materialLots", list, "model", default=[]):
        mid = _want(raw, "id", str, "materialLots", required=True)
        props = tuple(
            MaterialProperty(
                id=_want(p, "id", str, mid, required=True),
                value=_want(p, "value", bool, mid, required=True),
            )
            for p in _want(raw, "properties", list, mid, default=[])
        )
        lots.append(
            MaterialLot(
                id=mid,
                mounted_on_equipment_id=_want(raw, "mountedOnEquipmentId", str, mid),
                properties=props,
            )
        )

    segments = []
    for raw in _want(data, "processSegments", list, "model", default=[]):
        sid = _want(raw, "id", str, "processSegments", required=True)
        dur = _want(raw, "duration", dict, sid, default={"value": 0, "unit": "s"})
        duration = Duration(
            value=_want(dur, "value", float, sid, required=True),
            unit=_want(dur, "unit", str, sid, default="s"),
        )
        params = tuple(
            SegmentParameter(
                id=_want(p, "id", str, sid, required=True),
                value=_param_value(_want(p, "value", (str, bool, int, float), sid, required=True)),
            )
            for p in _want(raw, "parameters", list, sid, default=[])
        )
        especs = []
        for s in _want(raw, "equipmentSpecs", list, sid, default=[]):
            spec_id = _want(s, "id", str, sid, required=True)
            cons = tuple(
                PropertyConstraint(
                    class_property_id=_want(c, "classPropertyId", str, spec_id, required=True),
                    tag=_want(c, "tag", str, spec_id, required=True),
                    value=_want(c, "value", bool, spec_id, required=True),
                )
                for c in _want(s, "propertyConstraints", list, spec_id, default=[])
            )
            especs.append(
                EquipmentSegmentSpecification(
                    id=spec_id,
                    equipment_class_id=_want(s, "equipmentClassId", str, spec_id, required=True),
                    property_constraints=cons,
                )
            )
        mspecs = []
        for s in _want(raw, "materialSpecs", list, sid, default=[]):
            spec_id = _want(s, "id", str, sid, required=True)
            cons = tuple(
                MaterialConstraint(
                    material_property_id=_want(c, "materialPropertyId", str, spec_id, required=True),
                    tag=_want(c, "tag", str, spec_id, required=True),
                    value=_want(c, "value", bool, spec_id, required=True),
                )
                for c in _want(s, "propertyConstraints", list, spec_id, default=[])
            )
            mspecs.append(MaterialSegmentSpecification(id=spec_id, property_constraints=cons))
        segments.append(
            ProcessSegment(
                id=sid,
                duration=duration,
                parameters=params,
                equipment_specs=tuple(especs),
                material_specs=tuple(mspecs),
            )
        )

    networks = []
    for raw in _want(data, "resourceNetworks", list, "model", default=[]):
        nid = _want(raw, "id", str, "resourceNetworks", required=True)
        conns = []
        for c in _want(raw, "connections", list, nid, default=[]):
            conns.append(
                ResourceNetworkConnection(
                    connection_type=_want(c, "connectionType", str, nid, required=True),
                    from_id=_want(c, "fromId", str, nid, required=True),
                    to_id=_want(c, "toId", str, nid, required=True),
                    coordinates=_coords(c.get("coordinates"), nid),
                )
            )
        networks.append(ResourceNetwork(id=nid, connections=tuple(conns)))

    return ProductionModel(
        equipment_classes=tuple(classes),
        equipment=tuple(equipment),
        material_lots=tuple(lots),
        process_segments=tuple(segments),
        resource_networks=tuple(networks),
    )


def model_to_dict(model: ProductionModel) -> dict:
    def class_prop(p: EquipmentClassProperty) -> dict:
        return {"id": p.id, "valueKind": p.value_kind, "description": ", ".join(p.tags)}

    def connection(c: ResourceNetworkConnection) -> dict:
        d = {"connectionType": c.connection_type, "fromId": c.from_id, "toId": c.to_id}
        if c.coordinates is not None:
            d["coordinates"] = list(c.coordinates)
        return d

    def lot(m: MaterialLot) -> dict:
        d: dict = {"id": m.id}
        if m.mounted_on_equipment_id is not None:
            d["mountedOnEquipmentId"] = m.mounted_on_equipment_id
        d["properties"] = [{"id": p.id, "value": p.value} for p in m.properties]
        return d

    return {
        "equipmentClasses": [
            {"id": c.id, "properties": [class_prop(p) for p in c.properties]}
            for c in model.equipment_classes
        ],
        "equipment": [
            {
                "id": e.id,
                "classIds": list(e.class_ids),
                "properties": [
                    {
                        "id": p.id,
                        "implementsClassPropertyId": p.implements_class_property_id,
                        "value": p.value,
                    }
                    for p in e.properties
                ],
            }
            for e in model.equipment
        ],
        "materialLots": [lot(m) for m in model.material_lots],
        "processSegments": [
            {
                "id": s.id,
                "duration": {"value": float(s.duration.value), "unit": s.duration.unit},
                "parameters": [{"id": p.id, "value": p.value} for p in s.parameters],
                "equipmentSpecs": [
                    {
                        "id": sp.id,
                        "equipmentClassId": sp.equipment_class_id,
                        "propertyConstraints": [
                            {
                                "classPropertyId": c.class_property_id,
                                "tag": c.tag,
                                "value": c.value,
                            }
                            for c in sp.property_constraints
                        ],
                    }
                    for sp in s.equipment_specs
                ],
                "materialSpecs": [
                    {
                        "id": sp.id,
                        "propertyConstraints": [
                            {
                                "materialPropertyId": c.material_property_id,
                                "tag": c.tag,
                                "value": c.value,
                            }
                            for c in sp.property_constraints
                        ],
                    }
                    for sp in s.material_specs
                ],
            }
            for s in model.process_segments
        ],
        "resourceNetworks": [
            {"id": n.id, "connections": [connection(c) for c in n.connections]}
            for n in model.resource_networks
        ],
    }


def goal_from_dict(data: dict) -> GoalSpec:
    if not isinstance(data, dict):
        raise ParseError("goal document must be a JSON object")
    gid = _want(data, "id", str, "goal", required=True)
    # the id names the goal's plan, problem and solver files
    if gid in ("", ".", "..") or "/" in gid or "\\" in gid:
        raise ParseError(f"goal id {gid!r} cannot name a file")

    def pairs(key: str) -> tuple[tuple[str, str], ...]:
        out = []
        for entry in _want(data, key, list, gid, default=[]):
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(i, str) for i in entry)
            ):
                raise ParseError(f"{gid}: {key} entries must be [id, id] pairs")
            out.append(tuple(entry))
        return tuple(out)

    locations = _want(data, "shuttleLocations", dict, gid, default={})
    if not all(isinstance(v, str) for v in locations.values()):
        raise ParseError(f"{gid}: shuttleLocations values must be PU ids")
    return GoalSpec(
        id=gid,
        shuttle_locations=tuple(locations.items()),
        properties_true=pairs("propertiesTrue"),
        properties_false=pairs("propertiesFalse"),
        material_properties_true=pairs("materialPropertiesTrue"),
    )


def goal_to_dict(goal: GoalSpec) -> dict:
    return {
        "id": goal.id,
        "shuttleLocations": dict(goal.shuttle_locations),
        "propertiesTrue": [list(p) for p in goal.properties_true],
        "propertiesFalse": [list(p) for p in goal.properties_false],
        "materialPropertiesTrue": [list(p) for p in goal.material_properties_true],
    }


def record_to_dict(record: OperationsRecord) -> dict:
    return {
        "goalId": record.goal_id,
        "solvable": record.solvable,
        "operations": [
            {
                "sequenceIndex": op.sequence_index,
                "segmentId": op.segment_id,
                "bindings": dict(op.bindings),
                "cost": op.cost,
            }
            for op in record.operations
        ],
        "totalCost": record.total_cost,
    }


def record_from_dict(data: dict) -> OperationsRecord:
    where = _want(data, "goalId", str, "operationsRecord", required=True)
    ops = []
    for raw in _want(data, "operations", list, where, default=[]):
        bindings = _want(raw, "bindings", dict, where, default={})
        if not all(isinstance(v, str) for v in bindings.values()):
            raise ParseError(f"{where}: binding values must be element ids")
        ops.append(
            Operation(
                sequence_index=_want(raw, "sequenceIndex", int, where, required=True),
                segment_id=_want(raw, "segmentId", str, where, required=True),
                bindings=tuple(bindings.items()),
                cost=_want(raw, "cost", int, where, required=True),
            )
        )
    return OperationsRecord(
        goal_id=where,
        solvable=_want(data, "solvable", bool, where, required=True),
        operations=tuple(ops),
        total_cost=_want(data, "totalCost", int, where, required=True),
    )


def integrated_to_dict(im: IntegratedModel) -> dict:
    return {
        "model": model_to_dict(im.model),
        "operationsDefinitions": [record_to_dict(r) for r in im.operations_definitions],
    }


def integrated_from_dict(data: dict) -> IntegratedModel:
    if not isinstance(data, dict):
        raise ParseError("integrated document must be a JSON object")
    model = model_from_dict(_want(data, "model", dict, "integrated", required=True))
    records = tuple(
        record_from_dict(r)
        for r in _want(data, "operationsDefinitions", list, "integrated", default=[])
    )
    return IntegratedModel(model=model, operations_definitions=records)


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
    except OSError as exc:
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
    for shuttle, pu in goal.shuttle_locations:
        equip = model.equipment_by_id.get(shuttle)
        if equip is None or SHUTTLE_CLASS not in equip.class_ids:
            problems.append(f"{shuttle!r} is not a known shuttle")
        target = model.equipment_by_id.get(pu)
        if target is None or POSITIONING_UNIT_CLASS not in target.class_ids:
            problems.append(f"{pu!r} is not a known positioning unit")
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
