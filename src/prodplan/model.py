"""In-memory production-system model and routing-graph derivation.

The model covers the equipment / material / process-segment subset needed
for intra-logistics planning: equipment classes with tagged boolean
properties, equipment instances, material lots mounted on shuttles,
process segments with pre/post property constraints, and resource
networks describing the physical track topology.

Everything here is immutable after construction and safe to share across
threads; construction and validation are single-threaded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ProdplanError, ShuttleOffStation

# Well-known vocabulary of the transport domain. Models are free to define
# further classes; only these carry routing semantics.
POSITIONING_UNIT_CLASS = "PositioningUnit"
SHUTTLE_CLASS = "Shuttle"
TRACK_ELEMENT_CLASS = "TrackElement"
DRILLING_ROBOT_CLASS = "DrillingRobot"
OCCUPIED_PROPERTY = "PositioningUnitOccupied"

IMPLICIT_TAG = "pddl:implicit"
PRE_TAG = "pddl:pre"
POST_TAG = "pddl:post"

TRACK_CONNECTION = "Track-Connection"
PU_CONNECTION = "Positioning-Unit-Connection"
SHUTTLE_CONNECTION = "Shuttle-Connection"
REACH_CONNECTION = "Reach-Connection"

DURATION_UNITS = {"s": 1, "min": 60, "h": 3600}

# Shuttles count as parked at a PU when their coordinates agree within this
# Euclidean distance (model units).
COORD_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquipmentClassProperty:
    """Boolean property declared on an equipment class.

    ``tags`` is parsed from the property's description text; the tag
    ``pddl:implicit`` excludes the property from the generic set-property
    actions. Unknown tags are preserved but have no effect.
    """

    id: str
    value_kind: str = "boolean"
    tags: tuple[str, ...] = ()

    @property
    def implicit(self) -> bool:
        return IMPLICIT_TAG in self.tags


@dataclass(frozen=True)
class EquipmentClass:
    id: str
    properties: tuple[EquipmentClassProperty, ...] = ()


@dataclass(frozen=True)
class EquipmentProperty:
    """Property instance held by a piece of equipment."""

    id: str
    implements_class_property_id: str
    value: bool


@dataclass(frozen=True)
class Equipment:
    id: str
    class_ids: tuple[str, ...]
    properties: tuple[EquipmentProperty, ...] = ()


@dataclass(frozen=True)
class MaterialProperty:
    """Boolean property of one material lot (e.g. HasHole)."""

    id: str
    value: bool


@dataclass(frozen=True)
class MaterialLot:
    id: str
    mounted_on_equipment_id: str | None = None
    properties: tuple[MaterialProperty, ...] = ()


@dataclass(frozen=True)
class Duration:
    value: float
    unit: str = "s"

    def seconds(self) -> int:
        return round(self.value * DURATION_UNITS[self.unit])


@dataclass(frozen=True)
class SegmentParameter:
    id: str
    value: str


@dataclass(frozen=True)
class PropertyConstraint:
    """pddl:pre / pddl:post constraint on a class property."""

    class_property_id: str
    tag: str
    value: bool


@dataclass(frozen=True)
class EquipmentSegmentSpecification:
    """Required equipment role of a segment; the id becomes the PDDL parameter."""

    id: str
    equipment_class_id: str
    property_constraints: tuple[PropertyConstraint, ...] = ()


@dataclass(frozen=True)
class MaterialConstraint:
    material_property_id: str
    tag: str
    value: bool


@dataclass(frozen=True)
class MaterialSegmentSpecification:
    id: str
    property_constraints: tuple[MaterialConstraint, ...] = ()


@dataclass(frozen=True)
class ProcessSegment:
    id: str
    duration: Duration
    parameters: tuple[SegmentParameter, ...] = ()
    equipment_specs: tuple[EquipmentSegmentSpecification, ...] = ()
    material_specs: tuple[MaterialSegmentSpecification, ...] = ()

    def parameter(self, param_id: str) -> str | None:
        for p in self.parameters:
            if p.id.lower() == param_id.lower():
                return p.value
        return None


Coordinates = tuple[float, float, float]


@dataclass(frozen=True)
class ResourceNetworkConnection:
    connection_type: str
    from_id: str
    to_id: str
    coordinates: Coordinates | None = None


@dataclass(frozen=True)
class ResourceNetwork:
    id: str
    connections: tuple[ResourceNetworkConnection, ...] = ()


@dataclass(frozen=True)
class ProductionModel:
    equipment_classes: tuple[EquipmentClass, ...] = ()
    equipment: tuple[Equipment, ...] = ()
    material_lots: tuple[MaterialLot, ...] = ()
    process_segments: tuple[ProcessSegment, ...] = ()
    resource_networks: tuple[ResourceNetwork, ...] = ()

    # Lookup tables. Frozen dataclasses still allow cached_property because
    # it writes to __dict__ directly.

    @cached_property
    def classes_by_id(self) -> dict[str, EquipmentClass]:
        return {c.id: c for c in self.equipment_classes}

    @cached_property
    def equipment_by_id(self) -> dict[str, Equipment]:
        return {e.id: e for e in self.equipment}

    @cached_property
    def lots_by_id(self) -> dict[str, MaterialLot]:
        return {m.id: m for m in self.material_lots}

    @cached_property
    def segments_by_id(self) -> dict[str, ProcessSegment]:
        return {s.id: s for s in self.process_segments}

    @cached_property
    def connections(self) -> tuple[ResourceNetworkConnection, ...]:
        return tuple(c for net in self.resource_networks for c in net.connections)

    def equipment_of_class(self, class_id: str) -> tuple[Equipment, ...]:
        return tuple(e for e in self.equipment if class_id in e.class_ids)

    @cached_property
    def material_property_ids(self) -> tuple[str, ...]:
        """Material property vocabulary, in first-seen model order."""
        seen: dict[str, None] = {}
        for lot in self.material_lots:
            for prop in lot.properties:
                seen.setdefault(prop.id, None)
        for seg in self.process_segments:
            for spec in seg.material_specs:
                for con in spec.property_constraints:
                    seen.setdefault(con.material_property_id, None)
        return tuple(seen)

    @property
    def has_material(self) -> bool:
        return bool(self.material_lots) or any(
            seg.material_specs for seg in self.process_segments
        )


@dataclass(frozen=True)
class RoutingGraph:
    """PU-level view of the track topology plus current shuttle positions."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    shuttle_at: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Diagnostic:
    """One violated model invariant; element_id names the offender."""

    element_id: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.element_id}: {self.message}"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _duplicates(ids) -> list[str]:
    return sorted(i for i, n in Counter(ids).items() if n > 1)


def validate_model(model: ProductionModel) -> list[Diagnostic]:
    """Check all structural invariants; returns one diagnostic per violation.

    An empty list means the model is valid. Diagnostics never raise; loaders
    wrap them in ValidationError.
    """
    # imported here, so that building and saving models never loads the planner
    from .planner.grounding import MAX_ACTION_COST

    diags: list[Diagnostic] = []

    def bad(element_id: str, rule: str, message: str) -> None:
        diags.append(Diagnostic(element_id, rule, message))

    if not model.equipment:
        bad("<model>", "no-equipment", "model defines no equipment")

    # id uniqueness, per namespace (case-insensitive: PDDL folds case)
    for dup in _duplicates(c.id.lower() for c in model.equipment_classes):
        bad(dup, "duplicate-id", "equipment class id is not unique")
    for dup in _duplicates(e.id.lower() for e in model.equipment):
        bad(dup, "duplicate-id", "equipment id is not unique")
    for dup in _duplicates(m.id.lower() for m in model.material_lots):
        bad(dup, "duplicate-id", "material lot id is not unique")
    for dup in _duplicates(s.id.lower() for s in model.process_segments):
        bad(dup, "duplicate-id", "process segment id is not unique")
    # equipment property instances become PDDL objects, so their ids share
    # one model-wide namespace
    for dup in _duplicates(
        p.id.lower() for e in model.equipment for p in e.properties
    ):
        bad(dup, "duplicate-id", "equipment property id is not unique model-wide")

    for cls in model.equipment_classes:
        for dup in _duplicates(p.id.lower() for p in cls.properties):
            bad(cls.id, "duplicate-id", f"class property {dup!r} declared twice")
        for prop in cls.properties:
            if prop.value_kind != "boolean":
                bad(
                    prop.id,
                    "non-boolean-property",
                    f"value kind {prop.value_kind!r} is not supported",
                )

    class_props = {
        (cls.id, p.id): p for cls in model.equipment_classes for p in cls.properties
    }

    for equip in model.equipment:
        if not equip.class_ids:
            bad(equip.id, "no-class", "equipment names no equipment class")
        for cid in equip.class_ids:
            if cid not in model.classes_by_id:
                bad(equip.id, "dangling-reference", f"unknown equipment class {cid!r}")
        implemented: set[tuple[str, str]] = set()
        for prop in equip.properties:
            owners = [
                cid
                for cid in equip.class_ids
                if (cid, prop.implements_class_property_id) in class_props
            ]
            if not owners:
                bad(
                    prop.id,
                    "dangling-reference",
                    f"implements unknown class property "
                    f"{prop.implements_class_property_id!r}",
                )
                continue
            key = (equip.id, prop.implements_class_property_id)
            if key in implemented:
                bad(
                    prop.id,
                    "duplicate-implementation",
                    f"{equip.id} already implements "
                    f"{prop.implements_class_property_id!r}",
                )
            implemented.add(key)

    for lot in model.material_lots:
        for dup in _duplicates(p.id for p in lot.properties):
            bad(lot.id, "duplicate-id", f"material property {dup!r} declared twice")
        if lot.mounted_on_equipment_id is not None:
            target = model.equipment_by_id.get(lot.mounted_on_equipment_id)
            if target is None:
                bad(
                    lot.id,
                    "dangling-reference",
                    f"mounted on unknown equipment {lot.mounted_on_equipment_id!r}",
                )
            elif SHUTTLE_CLASS not in target.class_ids:
                bad(
                    lot.id,
                    "bad-mount",
                    f"mount target {target.id} is not a {SHUTTLE_CLASS}",
                )

    material_vocab = set(model.material_property_ids)
    lot_vocab = {p.id for lot in model.material_lots for p in lot.properties}

    for seg in model.process_segments:
        if seg.duration.unit not in DURATION_UNITS:
            bad(seg.id, "bad-duration", f"unknown duration unit {seg.duration.unit!r}")
        seconds = seg.duration.value * DURATION_UNITS.get(seg.duration.unit, 1)
        if seg.duration.value < 0:
            bad(seg.id, "bad-duration", "duration must be non-negative")
        elif not math.isfinite(seconds):
            # NaN, inf, or too large to count in seconds
            bad(seg.id, "bad-duration", "duration must be a finite number of seconds")
        elif round(seconds) > MAX_ACTION_COST:
            bad(seg.id, "bad-duration", f"duration must be at most {MAX_ACTION_COST} s")
        spec_ids = [s.id for s in seg.equipment_specs] + [
            s.id for s in seg.material_specs
        ]
        for dup in _duplicates(s.lower() for s in spec_ids):
            bad(seg.id, "duplicate-id", f"specification id {dup!r} is not unique")
        for spec in seg.equipment_specs:
            cls = model.classes_by_id.get(spec.equipment_class_id)
            if cls is None:
                bad(
                    spec.id,
                    "dangling-reference",
                    f"unknown equipment class {spec.equipment_class_id!r}",
                )
                continue
            declared = {p.id for p in cls.properties}
            for con in spec.property_constraints:
                if con.tag not in (PRE_TAG, POST_TAG):
                    bad(spec.id, "bad-tag", f"unknown constraint tag {con.tag!r}")
                if con.class_property_id not in declared:
                    bad(
                        spec.id,
                        "dangling-reference",
                        f"class {cls.id} declares no property "
                        f"{con.class_property_id!r}",
                    )
        for spec in seg.material_specs:
            for con in spec.property_constraints:
                if con.tag not in (PRE_TAG, POST_TAG):
                    bad(spec.id, "bad-tag", f"unknown constraint tag {con.tag!r}")
                if con.material_property_id not in material_vocab | lot_vocab:
                    bad(
                        spec.id,
                        "dangling-reference",
                        f"unknown material property {con.material_property_id!r}",
                    )

    diags.extend(_validate_connections(model))
    return diags


# Connection type -> (class, noun) of its from end and of its to end, None
# for any equipment, and the noun for the connection when it must carry
# coordinates.
_CONNECTION_RULES = {
    TRACK_CONNECTION: (
        (TRACK_ELEMENT_CLASS, f"a {TRACK_ELEMENT_CLASS}"),
        (TRACK_ELEMENT_CLASS, f"a {TRACK_ELEMENT_CLASS}"),
        None,
    ),
    PU_CONNECTION: (
        (POSITIONING_UNIT_CLASS, "a PU"),
        (TRACK_ELEMENT_CLASS, "a track element"),
        "PU connection",
    ),
    SHUTTLE_CONNECTION: (
        (SHUTTLE_CLASS, "a shuttle"),
        (TRACK_ELEMENT_CLASS, "a track element"),
        "shuttle connection",
    ),
    REACH_CONNECTION: (None, (POSITIONING_UNIT_CLASS, "a PU"), None),
}


def _validate_connections(model: ProductionModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    equipment = model.equipment_by_id
    for conn in model.connections:
        label = f"{conn.from_id}->{conn.to_id}"
        rule = _CONNECTION_RULES.get(conn.connection_type)
        if rule is None:
            diags.append(
                Diagnostic(
                    label,
                    "unknown-connection-type",
                    f"connection type {conn.connection_type!r} is not supported",
                )
            )
            continue
        from_equip = equipment.get(conn.from_id)
        to_equip = equipment.get(conn.to_id)
        if from_equip is None or to_equip is None:
            for eid in (conn.from_id, conn.to_id):
                if eid not in equipment:
                    diags.append(
                        Diagnostic(label, "dangling-reference", f"unknown equipment {eid!r}")
                    )
            continue
        from_rule, to_rule, coordinates_for = rule
        for equip, end_rule in ((from_equip, from_rule), (to_equip, to_rule)):
            if end_rule is not None and end_rule[0] not in equip.class_ids:
                diags.append(
                    Diagnostic(label, "bad-endpoint", f"{equip.id} is not {end_rule[1]}")
                )
        if coordinates_for is not None and conn.coordinates is None:
            diags.append(
                Diagnostic(label, "missing-coordinates", f"{coordinates_for} needs (x, y, z)")
            )
    return diags


# ---------------------------------------------------------------------------
# Routing graph derivation
# ---------------------------------------------------------------------------


def _distance(a: Coordinates, b: Coordinates) -> float:
    return math.dist(a, b)


def build_routing_graph(model: ProductionModel) -> RoutingGraph:
    """Collapse the track topology to a directed graph over PU nodes.

    An edge a -> b exists iff travel can leave PU a and reach PU b without
    passing another PU: either b directly follows a on the same track
    element, or a is the last PU of its element and a directed chain of
    PU-free elements leads to b's element where b is the first PU.

    Shuttles are assigned to the PU whose coordinates coincide with theirs
    (tolerance COORD_TOLERANCE); a shuttle matching no PU has no well-known
    location and raises ShuttleOffStation.
    """
    pu_ids = [e.id for e in model.equipment_of_class(POSITIONING_UNIT_CLASS)]
    pu_set = set(pu_ids)
    shuttle_ids = [e.id for e in model.equipment_of_class(SHUTTLE_CLASS)]

    element_succ: dict[str, list[str]] = {}
    element_entry: dict[str, Coordinates] = {}
    pu_element: dict[str, str] = {}
    pu_coord: dict[str, Coordinates] = {}
    shuttle_coord: dict[str, Coordinates] = {}

    for conn in model.connections:
        if conn.connection_type == TRACK_CONNECTION:
            element_succ.setdefault(conn.from_id, []).append(conn.to_id)
            element_succ.setdefault(conn.to_id, [])
            if conn.coordinates is not None:
                prev = element_entry.get(conn.to_id)
                if prev is not None and _distance(prev, conn.coordinates) > COORD_TOLERANCE:
                    raise ProdplanError(
                        f"track element {conn.to_id} has inconsistent entry coordinates"
                    )
                element_entry[conn.to_id] = conn.coordinates
        elif conn.connection_type == PU_CONNECTION:
            pu_element[conn.from_id] = conn.to_id
            pu_coord[conn.from_id] = conn.coordinates
        elif conn.connection_type == SHUTTLE_CONNECTION:
            shuttle_coord[conn.from_id] = conn.coordinates

    # order PUs along each element; with a single PU no entry point is needed
    pus_on_element: dict[str, list[str]] = {}
    for pu in pu_ids:
        elem = pu_element.get(pu)
        if elem is not None:
            pus_on_element.setdefault(elem, []).append(pu)
    for elem, pus in pus_on_element.items():
        if len(pus) < 2:
            continue
        entry = element_entry.get(elem)
        if entry is None:
            raise ProdplanError(
                f"track element {elem} carries {len(pus)} PUs but no incoming "
                f"connection provides an entry coordinate to order them"
            )
        keyed = sorted((_distance(pu_coord[pu], entry), pu) for pu in pus)
        for (da, _), (db, pu_b) in zip(keyed, keyed[1:]):
            if abs(da - db) <= COORD_TOLERANCE:
                raise ProdplanError(
                    f"PUs on element {elem} are equidistant from the entry "
                    f"(tie at {pu_b})"
                )
        pus_on_element[elem] = [pu for _, pu in keyed]

    edges: set[tuple[str, str]] = set()
    for elem, pus in pus_on_element.items():
        for a, b in zip(pus, pus[1:]):
            edges.add((a, b))
        last = pus[-1]
        # follow PU-free elements to the next PU-bearing ones
        seen = {elem}
        frontier = list(element_succ.get(elem, []))
        while frontier:
            nxt = frontier.pop(0)
            if nxt in pus_on_element:
                first = pus_on_element[nxt][0]
                if first != last:
                    edges.add((last, first))
                continue
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(element_succ.get(nxt, []))

    shuttle_at: dict[str, str] = {}
    taken: dict[str, str] = {}
    for shuttle in shuttle_ids:
        coord = shuttle_coord.get(shuttle)
        matches = (
            []
            if coord is None
            else [pu for pu in pu_ids if _distance(coord, pu_coord.get(pu, (math.inf,) * 3)) <= COORD_TOLERANCE]
        )
        if not matches:
            raise ShuttleOffStation(
                f"shuttle {shuttle} is not located at any positioning unit"
            )
        if len(matches) > 1:
            raise ProdplanError(
                f"shuttle {shuttle} coincides with several PUs: {matches}"
            )
        pu = matches[0]
        if pu in taken:
            raise ProdplanError(
                f"shuttles {taken[pu]} and {shuttle} both located at {pu}"
            )
        taken[pu] = shuttle
        shuttle_at[shuttle] = pu

    return RoutingGraph(
        nodes=tuple(sorted(pu_set)),
        edges=tuple(sorted(edges)),
        shuttle_at=shuttle_at,
    )
