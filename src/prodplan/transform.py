"""Derive a PDDL domain and problems from a production model.

Metamodel concepts become types, predicates and the two generic
Set actions; instance data becomes constants, objects and init atoms.
Process segments become actions: segment specifications turn into typed
parameters, tagged property constraints (pddl:pre / pddl:post) turn into
preconditions and effects, and the duration becomes the action cost in
seconds. Properties tagged pddl:implicit are fenced off from the generic
Set actions. The objects and init atoms do not depend on the goal, so
``derive_domain`` derives them once into its report and every problem
reuses them; a problem adds only its goal.

Two segment parameters trigger extra rules:

* ``movement=true``  needs SHUTTLE/FROM/TO specs and wires the routing
  graph in via PositioningUnitConnection and ShuttleLocation.
* ``drilling=true``  needs ROBOT/SHUTTLE/PU specs plus one material spec
  and anchors the action to the robot's reach and the carried lot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DanglingReference, MissingRole, NonBooleanProperty, TransformError
from .model import (
    IMPLICIT_TAG,
    POST_TAG,
    PRE_TAG,
    REACH_CONNECTION,
    ProductionModel,
    RoutingGraph,
    build_routing_graph,
)
from .model_io import GoalSpec
from .pddl import (
    And,
    Atom,
    Exists,
    Forall,
    Increase,
    Not,
    PddlAction,
    PddlDomain,
    PddlProblem,
    Predicate,
    TypedName,
    When,
)
from .pddl.ast import Expr, NumericInit

DOMAIN_NAME = "production-system"
TOTAL_COST = "total-cost"

MOVEMENT_PARAMETER = "movement"
DRILLING_PARAMETER = "drilling"

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class TransformReport:
    """The model half of every problem, and the name maps for walking plan
    text back to model elements.

    ``derive_domain`` returns it complete and it is read-only from then on:
    every forward problem shares its ``objects`` and ``init`` and adds only
    a goal, the reverse problem flips its ``routing_graph`` (None unless a
    segment moves or drills), and a plan lifts back through its maps
    without any problem being derived first.
    """

    movement_used: bool
    drilling_used: bool
    segment_by_action: dict[str, str]
    element_by_object: dict[str, str]
    object_by_element: dict[str, str]
    spec_ids_by_segment: dict[str, tuple[str, ...]]
    cost_by_segment: dict[str, int]
    routing_graph: RoutingGraph | None
    objects: tuple[TypedName, ...]
    init: tuple[Atom | NumericInit, ...]


def _mangle(prefix: str, element_id: str) -> str:
    name = f"{prefix}{element_id}"
    if not _NAME_RE.match(name):
        raise TransformError(
            f"id {element_id!r} does not form a valid PDDL name ({name!r})"
        )
    return name


def _rule(segment, parameter: str) -> bool:
    value = segment.parameter(parameter)
    return value is not None and value.lower() == "true"


def _problem_objects(model: ProductionModel):
    """Every problem object once, as (PDDL name, element id, type)."""
    for equip in model.equipment:
        yield _mangle("E_", equip.id), equip.id, "Equipment"
    for equip in model.equipment:
        for prop in equip.properties:
            yield _mangle("EP_", prop.id), prop.id, "EquipmentProperty"
    for lot in model.material_lots:
        yield _mangle("M_", lot.id), lot.id, "MaterialLot"


def _role(segment, specs_by_upper: dict, role: str, rule: str):
    spec = specs_by_upper.get(role)
    if spec is None:
        raise MissingRole(
            f"segment {segment.id!r} uses the {rule} rule but defines no "
            f"{role} equipment specification"
        )
    return spec


def _wrap_and(items: list[Expr]) -> Expr | None:
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


class _DomainBuilder:
    def __init__(self, model: ProductionModel):
        self.model = model
        segments = model.process_segments
        self.movement_used = any(_rule(s, MOVEMENT_PARAMETER) for s in segments)
        self.drilling_used = any(_rule(s, DRILLING_PARAMETER) for s in segments)
        self.class_properties = {
            p.id: p for c in model.equipment_classes for p in c.properties
        }
        self.implicit_ids = [
            p.id
            for c in model.equipment_classes
            for p in c.properties
            if p.implicit
        ]

    # -- constraint helpers -------------------------------------------------

    def _class_property(self, segment_id: str, cpid: str):
        prop = self.class_properties.get(cpid)
        if prop is None:
            raise DanglingReference(
                f"segment {segment_id!r} constrains unknown class property {cpid!r}"
            )
        if prop.value_kind != "boolean":
            raise NonBooleanProperty(
                f"class property {cpid!r} is {prop.value_kind}, only boolean "
                f"properties can be constrained"
            )
        return prop

    def _exists_pre(self, spec_var: str, cpid: str, value: bool) -> Expr:
        truth: Expr = Atom("EquipmentPropertyTrue", ("?P",))
        if not value:
            truth = Not(truth)
        return Exists(
            (TypedName("?P", "EquipmentProperty"),),
            And(
                (
                    truth,
                    Atom(
                        "EquipmentPropertyImplementsClassProperty",
                        ("?P", _mangle("ECP_", cpid)),
                    ),
                    Atom("EquipmentHasProperty", (spec_var, "?P")),
                )
            ),
        )

    def _forall_post(self, spec_var: str, cpid: str, value: bool) -> Expr:
        literal: Expr = Atom("EquipmentPropertyTrue", ("?P",))
        if not value:
            literal = Not(literal)
        return Forall(
            (TypedName("?P", "EquipmentProperty"),),
            When(
                And(
                    (
                        Atom(
                            "EquipmentPropertyImplementsClassProperty",
                            ("?P", _mangle("ECP_", cpid)),
                        ),
                        Atom("EquipmentHasProperty", (spec_var, "?P")),
                    )
                ),
                literal,
            ),
        )

    # -- actions -------------------------------------------------------------

    def _set_actions(self) -> list[PddlAction]:
        guards = tuple(
            Not(
                Atom(
                    "EquipmentPropertyImplementsClassProperty",
                    ("?EP", _mangle("ECP_", cpid)),
                )
            )
            for cpid in self.implicit_ids
        )
        truth = Atom("EquipmentPropertyTrue", ("?EP",))
        return [
            PddlAction(
                name="SetEquipmentPropertyTrue",
                parameters=(TypedName("?EP", "EquipmentProperty"),),
                precondition=_wrap_and([Not(truth), *guards]),
                effect=truth,
            ),
            PddlAction(
                name="SetEquipmentPropertyFalse",
                parameters=(TypedName("?EP", "EquipmentProperty"),),
                precondition=_wrap_and([truth, *guards]),
                effect=Not(truth),
            ),
        ]

    def _segment_action(self, segment) -> PddlAction:
        specs_by_upper = {s.id.upper(): s for s in segment.equipment_specs}

        parameters = [
            TypedName(f"?{s.id}", "Equipment") for s in segment.equipment_specs
        ]
        parameters += [
            TypedName(f"?{s.id}", "MaterialLot") for s in segment.material_specs
        ]

        pres: list[Expr] = []
        effs: list[Expr] = []
        for spec in segment.equipment_specs:
            pres.append(
                Atom(
                    "EquipmentClassed",
                    (f"?{spec.id}", _mangle("EC_", spec.equipment_class_id)),
                )
            )
        for spec in segment.equipment_specs:
            for con in spec.property_constraints:
                self._class_property(segment.id, con.class_property_id)
                if con.tag == PRE_TAG:
                    pres.append(
                        self._exists_pre(f"?{spec.id}", con.class_property_id, con.value)
                    )
                elif con.tag == POST_TAG:
                    effs.append(
                        self._forall_post(f"?{spec.id}", con.class_property_id, con.value)
                    )
        for spec in segment.material_specs:
            for con in spec.property_constraints:
                literal: Expr = Atom(
                    "MaterialPropertyTrue",
                    (f"?{spec.id}", _mangle("MP_", con.material_property_id)),
                )
                if not con.value:
                    literal = Not(literal)
                if con.tag == PRE_TAG:
                    pres.append(literal)
                elif con.tag == POST_TAG:
                    effs.append(literal)

        if _rule(segment, MOVEMENT_PARAMETER):
            shuttle = _role(segment, specs_by_upper, "SHUTTLE", MOVEMENT_PARAMETER)
            source = _role(segment, specs_by_upper, "FROM", MOVEMENT_PARAMETER)
            target = _role(segment, specs_by_upper, "TO", MOVEMENT_PARAMETER)
            pres.append(
                Atom("PositioningUnitConnection", (f"?{source.id}", f"?{target.id}"))
            )
            pres.append(Atom("ShuttleLocation", (f"?{shuttle.id}", f"?{source.id}")))
            pres.append(
                Not(Atom("ShuttleLocation", (f"?{shuttle.id}", f"?{target.id}")))
            )
            effs.append(
                Not(Atom("ShuttleLocation", (f"?{shuttle.id}", f"?{source.id}")))
            )
            effs.append(Atom("ShuttleLocation", (f"?{shuttle.id}", f"?{target.id}")))
        if _rule(segment, DRILLING_PARAMETER):
            robot = _role(segment, specs_by_upper, "ROBOT", DRILLING_PARAMETER)
            shuttle = _role(segment, specs_by_upper, "SHUTTLE", DRILLING_PARAMETER)
            unit = _role(segment, specs_by_upper, "PU", DRILLING_PARAMETER)
            if len(segment.material_specs) != 1:
                raise MissingRole(
                    f"segment {segment.id!r} uses the {DRILLING_PARAMETER} rule "
                    f"and must define exactly one material specification"
                )
            lot_spec = segment.material_specs[0]
            pres.append(
                Atom("PositioningUnitWithinReach", (f"?{robot.id}", f"?{unit.id}"))
            )
            pres.append(Atom("ShuttleLocation", (f"?{shuttle.id}", f"?{unit.id}")))
            pres.append(
                Atom(
                    "MaterialMountedOnEquipment",
                    (f"?{lot_spec.id}", f"?{shuttle.id}"),
                )
            )

        effs.append(Increase(TOTAL_COST, segment.duration.seconds()))
        return PddlAction(
            name=segment.id,
            parameters=tuple(parameters),
            precondition=_wrap_and(pres),
            effect=_wrap_and(effs),
        )

    # -- assembly ------------------------------------------------------------

    def build(self) -> PddlDomain:
        model = self.model
        actions = self._set_actions()
        actions += [self._segment_action(s) for s in model.process_segments]

        types = [
            TypedName("EquipmentClass"),
            TypedName("Equipment"),
            TypedName("EquipmentClassProperty"),
            TypedName("EquipmentProperty"),
        ]
        if model.has_material:
            types += [TypedName("MaterialLot"), TypedName("MaterialProperty")]

        constants = [
            TypedName(_mangle("EC_", c.id), "EquipmentClass")
            for c in model.equipment_classes
        ]
        constants += [
            TypedName(_mangle("ECP_", p.id), "EquipmentClassProperty")
            for c in model.equipment_classes
            for p in c.properties
        ]
        if model.has_material:
            constants += [
                TypedName(_mangle("MP_", pid), "MaterialProperty")
                for pid in model.material_property_ids
            ]

        predicates = [
            Predicate(
                "EquipmentClassed",
                (TypedName("?E", "Equipment"), TypedName("?C", "EquipmentClass")),
            ),
            Predicate(
                "EquipmentPropertyImplementsClassProperty",
                (
                    TypedName("?EP", "EquipmentProperty"),
                    TypedName("?ECP", "EquipmentClassProperty"),
                ),
            ),
            Predicate(
                "EquipmentHasProperty",
                (TypedName("?E", "Equipment"), TypedName("?P", "EquipmentProperty")),
            ),
            Predicate("EquipmentPropertyTrue", (TypedName("?P", "EquipmentProperty"),)),
        ]
        if self.movement_used or self.drilling_used:
            predicates.append(
                Predicate(
                    "ShuttleLocation",
                    (TypedName("?S", "Equipment"), TypedName("?PU", "Equipment")),
                )
            )
        if self.movement_used:
            predicates.insert(
                len(predicates) - 1,
                Predicate(
                    "PositioningUnitConnection",
                    (TypedName("?F", "Equipment"), TypedName("?T", "Equipment")),
                ),
            )
        if model.has_material:
            predicates.append(
                Predicate(
                    "MaterialPropertyTrue",
                    (TypedName("?M", "MaterialLot"), TypedName("?P", "MaterialProperty")),
                )
            )
            predicates.append(
                Predicate(
                    "MaterialMountedOnEquipment",
                    (TypedName("?M", "MaterialLot"), TypedName("?E", "Equipment")),
                )
            )
        if self.drilling_used:
            predicates.append(
                Predicate(
                    "PositioningUnitWithinReach",
                    (TypedName("?R", "Equipment"), TypedName("?PU", "Equipment")),
                )
            )

        requirements = self._requirements(actions)
        return PddlDomain(
            name=DOMAIN_NAME,
            requirements=requirements,
            types=tuple(types),
            constants=tuple(constants),
            predicates=tuple(predicates),
            functions=(TOTAL_COST,),
            actions=tuple(actions),
        )

    def _requirements(self, actions: list[PddlAction]) -> tuple[str, ...]:
        def walk(node):
            if node is None:
                return
            yield node
            for child in getattr(node, "items", ()):
                yield from walk(child)
            for attr in ("item", "condition", "body", "effect"):
                child = getattr(node, attr, None)
                if child is not None and not isinstance(child, str):
                    yield from walk(child)

        nodes = [
            n
            for a in actions
            for root in (a.precondition, a.effect)
            for n in walk(root)
        ]
        requirements = [":strips", ":typing"]
        if any(isinstance(n, Not) for n in nodes):
            requirements.append(":negative-preconditions")
        if any(isinstance(n, Exists) for n in nodes):
            requirements.append(":existential-preconditions")
        if any(isinstance(n, Forall) for n in nodes):
            requirements.append(":universal-preconditions")
        if any(isinstance(n, (Forall, When)) for n in nodes):
            requirements.append(":conditional-effects")
        # total-cost and the metric are always declared, so the requirement
        # is unconditional even for domains without cost-bearing actions
        requirements.append(":action-costs")
        return tuple(requirements)


def derive_domain(model: ProductionModel) -> tuple[PddlDomain, TransformReport]:
    """Domain description plus the complete report: the objects and initial
    state every problem shares, and the name maps needed to read plans back."""
    builder = _DomainBuilder(model)
    domain = builder.build()
    objects = list(_problem_objects(model))
    graph = None
    if builder.movement_used or builder.drilling_used:
        graph = build_routing_graph(model)
    segments = model.process_segments
    report = TransformReport(
        movement_used=builder.movement_used,
        drilling_used=builder.drilling_used,
        segment_by_action={s.id.lower(): s.id for s in segments},
        element_by_object={name.lower(): element_id for name, element_id, _ in objects},
        object_by_element={element_id: name for name, element_id, _ in objects},
        spec_ids_by_segment={
            s.id: tuple(spec.id for spec in s.equipment_specs + s.material_specs)
            for s in segments
        },
        cost_by_segment={s.id: s.duration.seconds() for s in segments},
        routing_graph=graph,
        objects=tuple(TypedName(name, type_) for name, _, type_ in objects),
        init=_initial_state(model, graph, builder.movement_used, builder.drilling_used),
    )
    return domain, report


def _initial_state(
    model: ProductionModel,
    graph: RoutingGraph | None,
    movement_used: bool,
    drilling_used: bool,
    is_true=lambda equip, prop: prop.value,
) -> tuple[Atom | NumericInit, ...]:
    """Init atoms of a problem; forward and reverse problems differ only in
    the routing ``graph`` (edge direction and shuttle placements) and in
    which equipment properties ``is_true(equip, prop)``. The graph's edges
    are written only when a segment moves: only move actions read them,
    and the domain declares their predicate only then."""
    init: list[Atom | NumericInit] = []
    for equip in model.equipment:
        for cid in equip.class_ids:
            init.append(
                Atom("EquipmentClassed", (_mangle("E_", equip.id), _mangle("EC_", cid)))
            )
    for equip in model.equipment:
        for prop in equip.properties:
            init.append(
                Atom(
                    "EquipmentHasProperty",
                    (_mangle("E_", equip.id), _mangle("EP_", prop.id)),
                )
            )
            init.append(
                Atom(
                    "EquipmentPropertyImplementsClassProperty",
                    (
                        _mangle("EP_", prop.id),
                        _mangle("ECP_", prop.implements_class_property_id),
                    ),
                )
            )
            if is_true(equip, prop):
                init.append(Atom("EquipmentPropertyTrue", (_mangle("EP_", prop.id),)))

    if movement_used:
        for source, target in graph.edges:
            init.append(
                Atom(
                    "PositioningUnitConnection",
                    (_mangle("E_", source), _mangle("E_", target)),
                )
            )
    if graph is not None:
        for shuttle, unit in graph.shuttle_at.items():
            init.append(
                Atom("ShuttleLocation", (_mangle("E_", shuttle), _mangle("E_", unit)))
            )
    if drilling_used:
        for conn in model.connections:
            if conn.connection_type == REACH_CONNECTION:
                init.append(
                    Atom(
                        "PositioningUnitWithinReach",
                        (_mangle("E_", conn.from_id), _mangle("E_", conn.to_id)),
                    )
                )
    for lot in model.material_lots:
        if lot.mounted_on_equipment_id is not None:
            init.append(
                Atom(
                    "MaterialMountedOnEquipment",
                    (_mangle("M_", lot.id), _mangle("E_", lot.mounted_on_equipment_id)),
                )
            )
        for prop in lot.properties:
            if prop.value:
                init.append(
                    Atom(
                        "MaterialPropertyTrue",
                        (_mangle("M_", lot.id), _mangle("MP_", prop.id)),
                    )
                )
    init.append(NumericInit(TOTAL_COST, 0))
    return tuple(init)


def _problem(name: str, fallback: str, objects, init, goal_items: list[Expr]):
    return PddlProblem(
        name=name if _NAME_RE.match(name) else fallback,
        domain_name=DOMAIN_NAME,
        objects=objects,
        init=init,
        goal=And(tuple(goal_items)),
        minimize=TOTAL_COST,
    )


def derive_problem(
    model: ProductionModel, goal: GoalSpec, report: TransformReport
) -> PddlProblem:
    """The goal condition from the goal spec over the report's shared
    objects and initial state."""
    goal_items: list[Expr] = []
    if goal.shuttle_locations and not (report.movement_used or report.drilling_used):
        raise TransformError(
            f"goal {goal.id!r} places shuttles but no segment uses the "
            f"{MOVEMENT_PARAMETER} rule"
        )
    for shuttle, unit in goal.shuttle_locations:
        goal_items.append(
            Atom("ShuttleLocation", (_mangle("E_", shuttle), _mangle("E_", unit)))
        )
    for eid, cpid, value in [(e, c, True) for e, c in goal.properties_true] + [
        (e, c, False) for e, c in goal.properties_false
    ]:
        equip = model.equipment_by_id.get(eid)
        if equip is None:
            raise DanglingReference(f"goal {goal.id!r} names unknown equipment {eid!r}")
        matching = [
            p for p in equip.properties if p.implements_class_property_id == cpid
        ]
        if not matching:
            raise DanglingReference(
                f"goal {goal.id!r}: equipment {eid!r} implements no {cpid!r}"
            )
        literal: Expr = Atom("EquipmentPropertyTrue", (_mangle("EP_", matching[0].id),))
        if not value:
            literal = Not(literal)
        goal_items.append(literal)
    for mid, pid in goal.material_properties_true:
        if mid not in model.lots_by_id:
            raise DanglingReference(f"goal {goal.id!r} names unknown lot {mid!r}")
        goal_items.append(
            Atom("MaterialPropertyTrue", (_mangle("M_", mid), _mangle("MP_", pid)))
        )
    return _problem(
        f"problem-{goal.id}", "problem", report.objects, report.init, goal_items
    )


def _movement_occupancy_ids(model: ProductionModel) -> set[str] | None:
    """Class properties flagged occupied/cleared by the movement segments.

    Returns None unless every segment is a pure movement segment whose
    only property constraints mark the target occupied (TO: pre false,
    post true) and the source free (FROM: post false). Any other state
    change means a goal cannot be completed into a full start state.
    """
    occupancy: set[str] = set()
    for segment in model.process_segments:
        if not _rule(segment, MOVEMENT_PARAMETER):
            return None
        if segment.material_specs:
            return None
        specs_by_upper = {s.id.upper(): s for s in segment.equipment_specs}
        source = specs_by_upper.get("FROM")
        target = specs_by_upper.get("TO")
        if source is None or target is None:
            return None
        marked: set[str] = set()
        for spec in segment.equipment_specs:
            for con in spec.property_constraints:
                if spec is target and con.tag == POST_TAG and con.value:
                    marked.add(con.class_property_id)
                elif spec is target and con.tag == PRE_TAG and not con.value:
                    continue
                elif spec is source and con.tag == POST_TAG and not con.value:
                    marked.add(con.class_property_id)
                elif spec is source and con.tag == PRE_TAG and con.value:
                    continue
                else:
                    return None
        occupancy |= marked
    return occupancy


def derive_reverse_problem(
    model: ProductionModel, goal: GoalSpec, report: TransformReport
) -> PddlProblem | None:
    """Problem that runs the movement graph backwards: start from the goal
    placements, aim at the model's current placements, every routing edge
    flipped. Feeds the meeting-frontiers search; plans found on it are
    still checked forwards by the validator.

    Returns None when the start state cannot be completed from the goal:
    the goal must pin every shuttle to a distinct unit and nothing else,
    and no segment may change state beyond placements and occupancy.
    """
    if not report.movement_used:
        return None
    if goal.properties_true or goal.properties_false or goal.material_properties_true:
        return None
    if model.material_lots:
        return None
    occupancy = _movement_occupancy_ids(model)
    if occupancy is None:
        return None

    graph = report.routing_graph
    targets = dict(goal.shuttle_locations)
    if len(targets) != len(goal.shuttle_locations):
        return None
    if set(targets) != set(graph.shuttle_at):
        return None
    occupied_units = set(targets.values())
    if len(occupied_units) != len(targets) or not occupied_units <= set(graph.nodes):
        return None

    def is_true(equip, prop) -> bool:
        if prop.implements_class_property_id in occupancy:
            return equip.id in occupied_units
        return prop.value

    flipped = RoutingGraph(
        graph.nodes, tuple((target, source) for source, target in graph.edges), targets
    )
    goal_items: list[Expr] = [
        Atom("ShuttleLocation", (_mangle("E_", shuttle), _mangle("E_", unit)))
        for shuttle, unit in graph.shuttle_at.items()
    ]
    init = _initial_state(model, flipped, True, report.drilling_used, is_true)
    return _problem(
        f"problem-{goal.id}-reverse", "problem-reverse", report.objects, init, goal_items
    )
